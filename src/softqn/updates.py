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
from typing import NamedTuple

import numpy as np

__all__ = [
    "CurvatureError",
    "PdThresholdError",
    "UpdateConsistencyError",
    "EigenBounds",
    "SoftQnScratch",
    "soft_qn_gamma",
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
    """A closed-form update produced a matrix that failed its positive-definiteness self-check."""


class EigenBounds(NamedTuple):
    """Target spectrum interval [floor, cap] for the inverse-Hessian approximation."""

    floor: float
    cap: float


class SoftQnScratch(NamedTuple):
    """Intermediates of a soft QN update: the scaling gamma and the rank-one direction u."""

    gamma: float
    u: np.ndarray


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


def _outer_broadcast(a, b, out=None):
    return np.multiply(a[:, None], b, out=out)


def _outer_einsum(a, b, out=None):
    return np.einsum("i,j->ij", a, b, out=out)


# einsum plus its zero test overtakes the broadcast between n = 68 and 76
# (interleaved per-call timings, one BLAS thread, 2-vCPU Xeon)
_EINSUM_MIN_N = 72


def _rank_two(h, hy, s, c_hh, c_hs, c_ss):
    """H - c_hh*(Hy)(Hy)' - c_hs*((Hy)s' + s(Hy)') + c_ss*ss', bitwise the outer-product form.

    Writes into two fresh n x n buffers; no hh term when c_hh is 0.  Each term is
    exactly symmetric elementwise, so the result is exactly symmetric when H is.

    The four outer products come from ``np.einsum("i,j->ij")``, about twice as fast
    as the broadcast ``a[:, None] * b`` at n = 200.  Each einsum entry is the same
    rounded product, but einsum adds it to +0.0, so an exact zero product comes out
    +0.0 where the broadcast gives -0.0.  einsum therefore runs only when no product
    can be zero: min(min|s|, min|Hy|)**2 must round above 0 (a NaN fails the test).
    s = 0, a zero or -0.0 entry, magnitudes below about 1e-154 and n = 0 keep the
    broadcast.  Either way the result is bitwise the broadcast form.

    Below n = _EINSUM_MIN_N the broadcast is faster than einsum plus that test, so
    small n skips both."""
    if s.size >= _EINSUM_MIN_N and np.minimum(np.abs(s).min(), np.abs(hy).min()) ** 2 > 0.0:
        outer = _outer_einsum
    else:
        outer = _outer_broadcast
    out = outer(s, hy)
    cross = outer(hy, s)
    cross += out
    cross *= c_hs
    if c_hh != 0.0:
        outer(hy, hy, out)
        out *= c_hh
        h = np.subtract(h, out, out=out)
    np.subtract(h, cross, out=out)
    outer(s, s, cross)
    cross *= c_ss
    out += cross
    return out


def _check_pair(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H must be a square matrix")
    if s.shape != h.shape[:1] or y.shape != h.shape[:1]:
        raise ValueError("s and y must be vectors matching the dimension of H")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite entries in update inputs")


def soft_qn_gamma(alpha: float, y_h_y: float, s_t_y: float) -> float:
    """Positive-root scaling gamma = 1/2 + sqrt(1/4 + alpha*y'Hy + alpha^2*(s'y)^2).

    Always >= 1 on the admissible domain (alpha > 0, y'Hy >= 0).  Tiny negative
    y'Hy from rounding (down to -1e-12) is clamped to zero.
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise ValueError("alpha must be positive and finite")
    if y_h_y < -1e-12:
        raise ValueError("y'Hy < 0: H is not positive definite")
    y_h_y = max(y_h_y, 0.0)
    t = alpha * s_t_y
    return 0.5 + math.sqrt(0.25 + alpha * y_h_y + t * t)


def soft_qn_update(h, s, y, alpha):
    """Penalized-secant update of a positive definite inverse-Hessian approximation.

    Computes H' = H + alpha*ss' - (alpha/gamma^2)*vv' with v = Hy + alpha*(s'y)*s,
    expanded into cancellation-free rank-one terms so that the BFGS limit (alpha -> inf)
    is reached without loss of monotonicity in floating point.  Well defined for every
    pair (s, y), including s = 0 or s'y <= 0.  H' is exactly symmetric when H is.

    Returns ``(h_new, scratch)`` where ``scratch`` carries gamma and u = v/gamma.
    """
    _check_pair(h, s, y)
    hy = h @ y
    y_h_y = float(y @ hy)
    s_t_y = float(s @ y)
    gamma = soft_qn_gamma(alpha, y_h_y, s_t_y)
    g2 = gamma * gamma
    # alpha*ss' - (alpha/g2)*vv' regrouped; the ss' coefficient uses the identity
    # gamma^2 - (alpha*s'y)^2 = gamma + alpha*y'Hy, which avoids forming the
    # difference of two huge multiples of ss' at large alpha.
    c_ss = alpha * (gamma + alpha * max(y_h_y, 0.0)) / g2
    h_new = _rank_two(h, hy, s, alpha / g2, alpha * (alpha * s_t_y) / g2, c_ss)
    if not is_positive_definite(h_new):
        raise UpdateConsistencyError(
            "soft QN update lost positive definiteness; this points at a numerical "
            "problem in the inputs (H far from symmetric PD or wildly scaled data)"
        )
    u = (hy + (alpha * s_t_y) * s) / gamma
    return h_new, SoftQnScratch(gamma=gamma, u=u)


def soft_qn_alpha_bound(h, s, y, bounds: EigenBounds, lam_min: float, lam_max: float) -> float:
    """Largest penalty weight that provably keeps the updated spectrum inside bounds.

    Given current spectral estimates lam_min >= floor and lam_max <= cap, any
    alpha below min{(lam_min - floor)/(|s| + |Hy|)^2, (cap - lam_max)/|s|^2}
    keeps floor*I <= H' <= cap*I.  Returns 0.0 when the estimates already sit
    outside the bounds (caller clamps), and +inf when both denominators vanish
    (s = 0 and Hy = 0: the update cannot move the spectrum).
    """
    n_low = lam_min - bounds.floor
    n_high = bounds.cap - lam_max
    if n_low < 0.0 or n_high < 0.0:
        return 0.0
    hy = h @ y
    d_low = (float(np.linalg.norm(s)) + float(np.linalg.norm(hy))) ** 2
    d_high = float(s @ s)
    t_low = math.inf if d_low == 0.0 else n_low / d_low
    t_high = math.inf if d_high == 0.0 else n_high / d_high
    return min(t_low, t_high)


def lambda_max_upper_bound(a: np.ndarray) -> float:
    """Trace-based upper bound on the largest eigenvalue of a symmetric matrix.

    Uses m + sd*sqrt(n-1) with m = tr(A)/n and sd^2 = tr(A^2)/n - m^2, computable
    in O(n^2).  For diag(1, 2, 3) this gives 2 + sqrt(4/3) ~= 3.1547 >= 3.
    """
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    m = float(np.trace(a)) / n
    mean_sq = float(np.sum(a * a)) / n  # tr(A^2)/n for symmetric A
    var = max(mean_sq - m * m, 0.0)
    return m + math.sqrt(var * (n - 1))


def bfgs_admissible(s, y) -> bool:
    """Whether s'y lies above the curvature tolerance 1e-12*|s|*|y|.

    BFGS keeps positive definiteness only on such pairs; ``bfgs_update`` raises
    CurvatureError on the others, and the solver skips them.
    """
    return float(s @ y) > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y))


def bfgs_update(h, s, y):
    """Classical BFGS update of the inverse-Hessian approximation.

    Raises CurvatureError unless ``bfgs_admissible(s, y)``, since the update
    would lose positive definiteness.  H' is exactly symmetric when H is.
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
    other pairs, and the solver skips them.
    """
    threshold = -1.0 / beta
    return float(s @ y) - threshold > 1e-12 * (1.0 + abs(threshold))


def sp_bfgs_update(h, s, y, beta):
    """Secant-penalized BFGS update.

    Raises PdThresholdError unless ``sp_bfgs_admissible(s, y, beta)``.  beta -> inf
    recovers BFGS, beta -> 0 leaves H unchanged.  H' is exactly symmetric when H is.
    """
    _check_pair(h, s, y)
    if beta <= 0:
        raise ValueError("beta must be positive")
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
    """Fixed penalty weight for soft QN."""

    alpha: float

    def value(self, h, s, y) -> float:
        return self.alpha


@dataclass(frozen=True)
class ConstantBeta:
    """Fixed penalty weight for SP-BFGS."""

    beta: float

    def value(self, s, y) -> float:
        return self.beta


@dataclass(frozen=True)
class StepNormBeta:
    """beta = coeff*|s| + floor; shrinks the penalty with the step length."""

    coeff: float
    floor: float = 1e-10

    def value(self, s, y) -> float:
        return self.coeff * float(np.linalg.norm(s)) + self.floor


@dataclass(frozen=True)
class CurvatureRelaxedBeta:
    """Fixed beta while s'y >= 0, relaxed to relax/(-s'y) on negative curvature.

    With 0 < relax < 1 the relaxed beta always satisfies s'y > -1/beta, so the
    SP-BFGS update stays applicable on every pair.
    """

    beta: float
    relax: float = 0.9

    def value(self, s, y) -> float:
        s_t_y = float(s @ y)
        if s_t_y < 0.0:
            return self.relax / (-s_t_y)
        return self.beta
