"""Inverse-Hessian updates that stay positive definite under noisy curvature pairs.

The central operation is a penalized-secant rank-two update ("soft" quasi-Newton):
instead of forcing the secant equation H y = s exactly, its residual is penalized
with a weight ``alpha``.  The resulting closed-form update keeps the inverse-Hessian
approximation positive definite for every ``alpha > 0`` and every pair (s, y),
including pairs with s'y <= 0, and recovers the BFGS update as alpha -> inf when
s'y > 0.  Classical BFGS and secant-penalized BFGS (SP-BFGS) are provided as
baselines, together with cheap spectral-bound machinery for choosing alpha.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._rules import nonnegative, open_unit, positive

__all__ = [
    "CurvatureError",
    "PdThresholdError",
    "UpdateConsistencyError",
    "EigenBounds",
    "SoftQnScratch",
    "soft_qn_update",
    "soft_qn_alpha_bound",
    "lambda_max_upper_bound",
    "bfgs_admissible",
    "bfgs_update",
    "sp_bfgs_admissible",
    "sp_bfgs_update",
    "biased_direction",
    "is_positive_definite",
    "ConstantAlpha",
    "ConstantBeta",
    "StepNormBeta",
    "CurvatureRelaxedBeta",
]


class CurvatureError(ValueError):
    """A BFGS update was asked for a pair with s'y at or below the curvature tolerance."""


class PdThresholdError(ValueError):
    """An SP-BFGS update was asked for a pair outside its positive-definiteness region."""


class UpdateConsistencyError(RuntimeError):
    """A closed-form update overflowed a coefficient, found y'Hy negative beyond
    rounding (H not positive definite), or failed its positive-definiteness self-check."""


class EigenBounds(NamedTuple):
    """Target spectrum interval [floor, cap] for the inverse-Hessian approximation."""

    floor: float
    cap: float


class SoftQnScratch(NamedTuple):
    """Intermediates of a soft QN update: the scaling gamma, and ``lo``, a
    certified lower bound on the spectrum of H' (None unless the update
    carried one through, see ``soft_qn_update``)."""

    gamma: float
    lo: Optional[float] = None


def is_positive_definite(a: np.ndarray) -> bool:
    """Cholesky-based positive definiteness test (expects a symmetric matrix).

    Non-finite input fails: numpy's cholesky returns a NaN or inf factor for it
    instead of raising, and a NaN or inf entry reaches the factor's diagonal.
    That diagonal is positive with entries below 1.4e154, so its sum is finite
    exactly when every entry is.
    """
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return math.isfinite(factor.trace())


def _norm(v) -> float:
    """``np.linalg.norm`` of a contiguous float vector, bit for bit and with the
    same warnings: the same ``v.dot(v)`` and a correctly rounded square root,
    without the wrapper's argument handling (1.2 us a call against 2.5 us)."""
    return math.sqrt(float(v.dot(v)))


def _rank_two(h, hy, s, c_hh, c_hs, c_ss):
    """H - c_hh*(Hy)(Hy)' - c_hs*((Hy)s' + s(Hy)') + c_ss*ss', bitwise the
    outer-product form, with an exact zero product as +0.0.

    Writes into two fresh n x n buffers; no hh term when c_hh is 0.  Each term is
    exactly symmetric elementwise, so the result is exactly symmetric when H is.
    A coefficient that is not finite (it overflowed) raises UpdateConsistencyError
    before anything is allocated.  The products come from ``np.einsum``: the hh
    and ss terms from ``"i,j->ij"``, and the cross term from one reduction
    ``"ki,kj->ij"`` over the 2 x n buffer [Hy; s] and its row reversal."""
    if not (math.isfinite(c_hh) and math.isfinite(c_hs) and math.isfinite(c_ss)):
        raise UpdateConsistencyError(f"update coefficients overflow: {c_hh!r}, {c_hs!r}, {c_ss!r}")
    pair = np.concatenate((hy, s)).reshape(2, -1)
    cross = np.einsum("ki,kj->ij", pair, pair[::-1])
    out = np.empty_like(cross)
    cross *= c_hs
    if c_hh != 0.0:
        np.einsum("i,j->ij", hy, hy, out=out)
        out *= c_hh
        h = np.subtract(h, out, out=out)
    np.subtract(h, cross, out=out)
    np.einsum("i,j->ij", s, s, out=cross)
    cross *= c_ss
    out += cross
    return out


def _check_pair(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H must be a square matrix")
    if s.shape != h.shape[:1] or y.shape != h.shape[:1]:
        raise ValueError("s and y must be vectors matching the dimension of H")
    if not (np.isfinite(h).all() and np.isfinite(s).all() and np.isfinite(y).all()):
        raise ValueError("non-finite entries in update inputs")


def soft_qn_update(h, s, y, alpha, lo=None):
    """Penalized-secant update of a positive definite inverse-Hessian approximation.

    Computes H' = H + alpha*ss' - (alpha/gamma^2)*vv' with v = Hy + alpha*(s'y)*s
    and the positive root gamma = 1/2 + sqrt(1/4 + alpha*y'Hy + alpha^2*(s'y)^2) >= 1,
    expanded into cancellation-free rank-one terms so that the BFGS limit (alpha -> inf)
    is reached without loss of monotonicity in floating point.  Well defined for every
    pair (s, y), including s = 0 or s'y <= 0.  H' is exactly symmetric when H is.

    alpha must be positive and finite, or ValueError.  A computed y'Hy below
    -1e-12 means H is not positive definite and raises UpdateConsistencyError;
    a smaller negative y'Hy is rounding and is taken as 0.  A coefficient that
    overflows raises UpdateConsistencyError before H' is formed.  H' is checked
    for positive definiteness by a Cholesky factorization
    (``is_positive_definite``), which raises UpdateConsistencyError on failure,
    unless ``lo`` proves that check cannot fail.  ``lo`` is an optional
    certified lower bound on the spectrum of H; ``_carry_bounds`` moves it to
    H' in O(n), reading the upper end of the spectrum from tr H and the
    diagonal of H', and when the bound it gets proves that Cholesky succeeds
    on H', the factorization is skipped.  The decision and H' are the same
    either way.  Without ``lo``, or when the carried bound proves nothing, the
    guard runs as before.

    Returns ``(h_new, scratch)`` where ``scratch`` carries gamma and the
    certified lower bound on H' when the guard was skipped (None when it ran).
    """
    _check_pair(h, s, y)
    positive("alpha", alpha)
    hy = h @ y
    y_h_y = float(y @ hy)
    if y_h_y < -1e-12:
        raise UpdateConsistencyError(f"y'Hy = {y_h_y!r} < 0: H is not positive definite")
    y_h_y = max(y_h_y, 0.0)
    s_t_y = float(s @ y)
    t = alpha * s_t_y
    gamma = 0.5 + math.sqrt(0.25 + alpha * y_h_y + t * t)
    g2 = gamma * gamma
    # alpha*ss' - (alpha/g2)*vv' regrouped; the ss' coefficient uses the identity
    # gamma^2 - (alpha*s'y)^2 = gamma + alpha*y'Hy, which avoids forming the
    # difference of two huge multiples of ss' at large alpha.
    c_hh = alpha / g2
    c_hs = alpha * t / g2
    c_ss = alpha * (gamma + alpha * y_h_y) / g2
    h_new = _rank_two(h, hy, s, c_hh, c_hs, c_ss)
    if lo is not None:
        lo = _carry_bounds(lo, h, h_new, hy, s, y, alpha, y_h_y, s_t_y, gamma, c_hh, c_hs, c_ss)
    if lo is None and not is_positive_definite(h_new):
        raise UpdateConsistencyError(
            "soft QN update lost positive definiteness; this points at a numerical "
            "problem in the inputs (H far from symmetric PD or wildly scaled data)"
        )
    return h_new, SoftQnScratch(gamma=gamma, lo=lo)


_U = 2.0**-53  # unit roundoff of float64
_ETA = 2.0**-1074  # smallest subnormal: the absolute error one underflowing product can add
# Certified quantities must stay inside [2**-960, 2**960], where neither _rank_two's
# products nor the Cholesky factorization can overflow, and underflow is lost in
# rounding.
_TINY, _HUGE = 2.0**-960, 2.0**960
# Demmel's condition, met with this factor to spare, is what skips the guard.
_CHOLESKY_SAFETY = 4.0


def _gamma_k(k):
    """Higham's gamma_k = k*u/(1 - k*u): the relative error of k chained roundings."""
    return k * _U / (1.0 - k * _U)


_G2, _G4, _G5, _G6 = (_gamma_k(k) for k in (2, 4, 5, 6))


def _carry_bounds(lo, h, h_new, hy, s, y, alpha, y_h_y, s_t_y, gamma, c_hh, c_hs, c_ss):
    """Certified lower bound on the spectrum of the computed soft update, or None.

    ``lo`` bounds lambda_min of the symmetric H from below; the other arguments
    are H, the matrix ``_rank_two`` returned (fl(H')) and the computed
    quantities of ``soft_qn_update``, y'Hy already clamped at 0.  Returns
    lo' <= lambda_min(fl(H')) when it also proves that Cholesky succeeds on
    fl(H'), and None otherwise.  Every upper-end quantity is read from the
    matrices: the trace of H and the largest diagonal entry of fl(H').  Costs
    three dot products, two O(n) reads of a diagonal and a few dozen float
    operations.

    Exact arithmetic.  With A = H + alpha*ss', the update is
    H' = A - (alpha/gamma^2)(Ay)(Ay)', and gamma^2 - gamma = alpha*y'Ay.  By
    Sherman and Morrison, since 1 - (alpha/gamma^2)*y'Ay = 1/gamma > 0,
      H'^-1 = A^-1 + (alpha/gamma)*yy' <= (1/lo + (alpha/gamma)*||y||^2)*I,
    because A >= H >= lo*I.  Hence
      lambda_min(H') >= lo/(1 + lo*(alpha/gamma)*||y||^2),
    which grows with gamma and falls with ||y||, so ny >= ||y|| (below) and
    g_lo <= gamma keep it a lower bound.  It never falls below lo/gamma, the
    bound H' >= H/gamma gives, because gamma^2 - gamma >= alpha*lo*||y||^2, and
    it tends to lo/(1 + lo*||y||^2/|s'y|) > 0 as alpha -> inf when s'y != 0,
    where lo/gamma tends to 0.

    Rounding.  u = 2^-53, gamma_k = k*u/(1 - k*u), eta = 2^-1074 (one product
    that underflows adds at most eta/2); ||s||, ||y||, ||h^|| are upper bounds
    from one dot product each.  lo > 0 proves H positive definite, so its
    diagonal is positive and ||H||_F <= tr H; the computed sum of that diagonal
    is within gamma_n of it, in any order, so tau = fl(tr H)*(1 + 2*gamma_n)
    bounds ||H||_F.  H' here is the exact update of the stored H, s, y and
    alpha; eps bounds ||fl(H') - H'||_2:

    - h^ = fl(Hy): |h^ - Hy| <= gamma_n*|H||y| + n*eta entrywise, so
      e_h = gamma_n*tau*||y|| + n^1.5*eta bounds ||h^ - Hy||.
    - q^ = fl(y'h^): e_q = gamma_n*||y||*||h^|| + ||y||*e_h + n*eta bounds
      |q^ - y'Hy|; q+ = max(q^, 0), the y'Hy passed in, is no farther from y'Hy >= 0.
    - t^ = fl(s'y): e_t = gamma_n*||s||*||y|| + n*eta bounds |t^ - s'y|.  This is
      an absolute bound: when s and y are nearly orthogonal, s'y cancels and t^
      may have no correct digit.  So e_t enters below through alpha^2*e_t (in
      gamma and in c_hs), never as a relative error of t^.
    - gamma: D = alpha*y'Hy + alpha^2*(s'y)^2 differs from its value at (q+, t^)
      by at most e_D = alpha*e_q + alpha^2*e_t*(2|t^| + e_t), which moves
      1/2 + sqrt(1/4 + D) by at most e_D/gamma; evaluating gamma^ takes at most
      six roundings of positive terms (underflow there is far below u/4).  So
      |gamma^ - gamma| <= e_g = gamma_6*gamma^/(1 - gamma_6) + e_D*(1 + gamma_6)/gamma^,
      and gamma lies in [g_lo, g_up] = [max(1, gamma^ - e_g), gamma^ + e_g].
    - The coefficients c_hh = alpha/gamma^2, c_hs = alpha^2*(s'y)/gamma^2 and
      c_ss = alpha/gamma + alpha^2*(y'Hy)/gamma^2 are monotone in gamma on
      [g_lo, g_up], and their computed values carry 2, 4 and 5 roundings.  With
      d2 >= 1/g_lo^2 - 1/g_up^2 and d1 >= 1/g_lo - 1/g_up (both from
      g_up - g_lo <= 2*e_g) and z = 4*(1 + alpha)*eta for underflow:
        |c_hh^ - c_hh| <= alpha*d2 + gamma_2*c_hh^ + z
        |c_hs^ - c_hs| <= alpha^2*e_t/g_lo^2 + alpha^2*(|t^| + e_t)*d2 + gamma_4*|c_hs^| + z
        |c_ss^ - c_ss| <= alpha*d1 + alpha^2*e_q/g_lo^2 + alpha^2*(q+ + e_q)*d2 + gamma_5*c_ss^ + z
    - H' - M, where M is the exact rank-two form of the computed h^ and
      coefficients: each term c*ab' moves by |c^ - c|*||a||*||b|| through its
      coefficient and by |c|*||a b' - a^ b^'|| through h^, so with
      dc_x = c_x^ - c_x bounded above and C_x = |c_x^| + |dc_x|,
        ||M - H'|| <= |dc_hh|*||h^||^2 + C_hh*e_h*(2||h^|| + e_h)
                      + 2|dc_hs|*||h^||*||s|| + 2*C_hs*e_h*||s|| + |dc_ss|*||s||^2.
    - fl(H') - M: every entry of ``_rank_two``'s result has at most five
      roundings along any of its terms (product, scaling, and up to three sums;
      einsum forms a cross entry as 0 + p1 + p2, whose first sum is exact),
      so ||fl(H') - M|| <= gamma_5*(tau + c_hh^*||h^||^2 + 2|c_hs^|*||h^||*||s||
      + c_ss^*||s||^2) + n*(c_hh^ + 2|c_hs^| + c_ss^ + 3)*eta.

    eps is twice the sum of the last two bounds: the factor covers the
    second-order terms and the rounding of this O(1) evaluation.  By Weyl,
      lo' = L*(1 - 10u) - eps <= lambda_min(fl(H')),
    where L = lo/(1 + lo*(alpha/g_lo)*ny^2) <= lambda_min(H').  The code forms
    x = (lo*alpha/g_lo + eta)*ny*ny: the eta covers an underflow in
    lo*alpha/g_lo, which ny^2 could otherwise magnify past u, and later
    underflows add at most 2^-1022 to x.  So the computed x is at least
    lo*alpha*ny^2/g_lo*(1 - u)^5 - 2^-1022, and the computed L*(1 - 10u), after
    seven roundings, stays below L.  An x that overflows gives L = 0.

    Certificate.  By Demmel's theorem (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.7), Cholesky succeeds on a symmetric
    matrix whose diagonally scaled form has lambda_min above
    n*gamma_(n+1)/(1 - gamma_(n+1)); that scaled lambda_min is at least
    lambda_min/d, with d the largest diagonal entry, read exactly from fl(H').
    So lo' > n*gamma_(n+1)/(1 - gamma_(n+1))*d suffices.  lo' is returned when
    it exceeds that by the factor _CHOLESKY_SAFETY, every quantity is finite,
    tau, d and the products ``_rank_two`` forms lie below 2^960, and lo' above
    2^-960.  The factor's diagonal is then finite too, so
    ``is_positive_definite`` would have returned True.
    """
    if not 0.0 < lo < _HUGE:
        return None
    n = s.size
    g_n = _gamma_k(n)
    # upper bounds on ||s||, ||y||, ||h^||: fl(v'v) is within gamma_n*v'v + n*eta
    # of v'v, and the square root adds one rounding
    up = 1.0 + 2.0 * g_n
    neta = n * _ETA
    ns = math.sqrt((float(s @ s) + neta) * up) * (1.0 + 2.0 * _U)
    ny = math.sqrt((float(y @ y) + neta) * up) * (1.0 + 2.0 * _U)
    nh = math.sqrt((float(hy @ hy) + neta) * up) * (1.0 + 2.0 * _U)
    # Python's float sum overflows to inf without the warning numpy's trace gives
    tau = sum(h.diagonal().tolist()) * up
    e_h = g_n * tau * ny + n * math.sqrt(n) * _ETA
    e_q = g_n * ny * nh + ny * e_h + n * _ETA
    e_t = g_n * ns * ny + n * _ETA
    q, t = y_h_y, abs(s_t_y)
    aa = alpha * alpha
    e_d = alpha * e_q + aa * e_t * (2.0 * t + e_t)
    e_g = _G6 * gamma / (1.0 - _G6) + e_d * (1.0 + _G6) / gamma
    g_up = gamma + e_g
    g_lo = max(1.0, gamma - e_g)
    d1 = 2.0 * e_g / (g_lo * g_up)
    d2 = d1 * (g_up + g_lo) / (g_lo * g_up)
    z = 4.0 * (1.0 + alpha) * _ETA
    dc_hh = alpha * d2 + _G2 * c_hh + z
    dc_hs = aa * e_t / (g_lo * g_lo) + aa * (t + e_t) * d2 + _G4 * abs(c_hs) + z
    dc_ss = alpha * d1 + aa * e_q / (g_lo * g_lo) + aa * (q + e_q) * d2 + _G5 * c_ss + z
    hh, hs, ss = nh * nh, nh * ns, ns * ns
    e_coef = (
        dc_hh * hh
        + (c_hh + dc_hh) * e_h * (2.0 * nh + e_h)
        + 2.0 * dc_hs * hs
        + 2.0 * (abs(c_hs) + dc_hs) * e_h * ns
        + dc_ss * ss
    )
    terms = tau + c_hh * hh + 2.0 * abs(c_hs) * hs + c_ss * ss
    e_round = _G5 * terms + n * (c_hh + 2.0 * abs(c_hs) + c_ss + 3.0) * _ETA
    eps = 2.0 * (e_coef + e_round)
    lo_new = lo / (1.0 + (lo * alpha / g_lo + _ETA) * ny * ny) * (1.0 - 10.0 * _U) - eps
    d = float(h_new.diagonal().max())
    g_chol = _gamma_k(n + 1)
    threshold = _CHOLESKY_SAFETY * n * g_chol / (1.0 - g_chol)
    in_range = tau < _HUGE and d < _HUGE and hh < _HUGE and ss < _HUGE and terms < _HUGE
    if in_range and lo_new > _TINY and lo_new > threshold * d:
        return lo_new
    return None


def soft_qn_alpha_bound(h, s, y, bounds: EigenBounds, lam_min: float, lam_max: float) -> float:
    """Largest penalty weight that provably keeps the updated spectrum inside bounds.

    Given current spectral estimates lam_min >= floor and lam_max <= cap, any
    alpha below min{(lam_min - floor)/(|s| + |Hy|)^2, (cap - lam_max)/|s|^2}
    keeps floor*I <= H' <= cap*I.  Returns 0.0 when the estimates already sit
    outside the bounds (caller clamps), and +inf when both denominators vanish
    (s = 0 and Hy = 0: the update cannot move the spectrum).  A non-finite
    entry of H, s or y, estimate or bound raises ValueError, and so does a
    slack, Hy or a denominator that overflows.
    """
    _check_pair(h, s, y)
    if not all(map(math.isfinite, (lam_min, lam_max, bounds.floor, bounds.cap))):
        raise ValueError(f"non-finite spectral estimate or bound: {lam_min!r}, {lam_max!r}, {bounds!r}")
    n_low = lam_min - bounds.floor
    n_high = bounds.cap - lam_max
    if n_low < 0.0 or n_high < 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below; numpy's ** 2 does not raise
        d_low = float((np.linalg.norm(s) + np.linalg.norm(h @ y)) ** 2)
        d_high = float(s @ s)
    if not all(map(math.isfinite, (n_low, n_high, d_low, d_high))):
        raise ValueError(f"a slack or a denominator overflows: {n_low!r}, {n_high!r}, {d_low!r}, {d_high!r}")
    t_low = math.inf if d_low == 0.0 else n_low / d_low
    t_high = math.inf if d_high == 0.0 else n_high / d_high
    return min(t_low, t_high)


def lambda_max_upper_bound(a: np.ndarray) -> float:
    """Trace-based upper bound on the largest eigenvalue of a symmetric matrix.

    Uses m + sd*sqrt(n-1) with m = tr(A)/n and sd^2 = tr(A^2)/n - m^2, in O(n^2)
    on A scaled by a power of two, where A^2 cannot overflow; diag(1, 2, 3) gives
    2 + sqrt(4/3) ~= 3.1547 >= 3.  An empty, non-square or non-finite A raises ValueError.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"A must be a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries in A")
    n = a.shape[0]
    e = math.frexp(float(np.abs(a).max()))[1] - 1
    a = np.ldexp(a, -e)  # the largest entry in [1, 2); exact unless an entry falls below 2^-1022
    m = float(np.trace(a)) / n
    mean_sq = float(np.sum(a * a)) / n  # tr(A^2)/n for symmetric A
    var = max(mean_sq - m * m, 0.0)
    return (m + math.sqrt(var * (n - 1))) * 2.0**e  # +inf past the double range


def bfgs_admissible(s, y) -> bool:
    """Whether s'y lies above the curvature tolerance 1e-12*|s|*|y|.

    BFGS keeps positive definiteness only on such pairs; ``bfgs_update`` raises
    CurvatureError on the others, and the solver skips them.
    """
    return float(s @ y) > 1e-12 * _norm(s) * _norm(y)


def bfgs_update(h, s, y):
    """Classical BFGS update of the inverse-Hessian approximation.

    Raises CurvatureError unless ``bfgs_admissible(s, y)``, since the update
    would lose positive definiteness, and UpdateConsistencyError when a
    coefficient overflows (s = y = (1e-100, 0)).  H' is exactly symmetric when H is.
    """
    _check_pair(h, s, y)
    s_t_y = float(s @ y)
    if not bfgs_admissible(s, y):
        raise CurvatureError(f"s'y = {s_t_y:.3e} is at or below the curvature tolerance")
    rho = 1.0 / s_t_y
    hy = h @ y
    return _rank_two(h, hy, s, 0.0, rho, rho * rho * float(y @ hy) + rho)


def sp_bfgs_admissible(s, y, beta: float) -> bool:
    """Whether s'y lies above the PD threshold -1/beta by more than 1e-12*(1 + 1/beta).

    SP-BFGS preserves positive definiteness iff s'y > -1/beta; the margin keeps
    rounding from crossing it.  ``sp_bfgs_update`` raises PdThresholdError on the
    other pairs, and the solver skips them.  A beta of +inf admits no pair.
    """
    threshold = -1.0 / beta
    return threshold < 0.0 and float(s @ y) - threshold > 1e-12 * (1.0 + abs(threshold))


def sp_bfgs_update(h, s, y, beta):
    """Secant-penalized BFGS update with a positive, finite beta.

    Raises PdThresholdError unless ``sp_bfgs_admissible(s, y, beta)``, and
    UpdateConsistencyError when a coefficient overflows.  beta -> inf recovers BFGS,
    beta -> 0 leaves H unchanged.  H' is exactly symmetric when H is.
    """
    _check_pair(h, s, y)
    positive("beta", beta)
    s_t_y = float(s @ y)
    if not sp_bfgs_admissible(s, y, beta):
        raise PdThresholdError(
            f"s'y = {s_t_y:.3e} not above -1/beta = {-1.0 / beta:.3e}; update would lose PD"
        )
    # the admissibility margin keeps both denominators away from zero
    pi = 1.0 / (s_t_y + 1.0 / beta)
    omega = 1.0 / (s_t_y + 2.0 / beta)
    hy = h @ y
    y_h_y = float(y @ hy)
    c_ss = omega * omega * y_h_y + pi + (pi - omega) * omega * y_h_y
    return _rank_two(h, hy, s, 0.0, omega, c_ss)


def biased_direction(h, g):
    """Descent direction -H g.

    The name stays from an earlier form -(H + bias*I) g because the perfbench
    tracer wraps ``softqn.solver.biased_direction`` by name.
    """
    return -(h @ g)


@dataclass(frozen=True)
class ConstantAlpha:
    """Fixed penalty weight for soft QN; positive and finite, or ValueError."""

    alpha: float

    def __post_init__(self):
        positive("alpha", self.alpha)

    def value(self, h, s, y) -> float:
        return self.alpha


@dataclass(frozen=True)
class ConstantBeta:
    """Fixed penalty weight for SP-BFGS; positive and finite, or ValueError."""

    beta: float

    def __post_init__(self):
        positive("beta", self.beta)

    def value(self, s, y) -> float:
        return self.beta


@dataclass(frozen=True)
class StepNormBeta:
    """beta = coeff*|s| + floor (coeff >= 0, floor > 0): shrinks the penalty with the step length."""

    coeff: float
    floor: float = 1e-10

    def __post_init__(self):
        nonnegative("coeff", self.coeff)
        positive("floor", self.floor)

    def value(self, s, y) -> float:
        return self.coeff * _norm(s) + self.floor


@dataclass(frozen=True)
class CurvatureRelaxedBeta:
    """Fixed beta while s'y >= 0, relaxed to relax/(-s'y) on negative curvature.

    With 0 < relax < 1 the relaxed beta always satisfies s'y > -1/beta, so the
    SP-BFGS update stays applicable on every pair.  beta must be positive and
    finite and relax inside (0, 1), or ValueError.
    """

    beta: float
    relax: float = 0.9

    def __post_init__(self):
        positive("beta", self.beta)
        open_unit("relax", self.relax)

    def value(self, s, y) -> float:
        s_t_y = float(s @ y)
        if s_t_y < 0.0:
            return self.relax / (-s_t_y)
        return self.beta
