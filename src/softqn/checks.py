"""Randomized property checks for the update formulas and their oracles.

Each check runs a seeded batch of random instances against one guarantee
(positive definiteness, the BFGS limit, symmetry/invariance identities,
spectrum bounds, stationarity of the closed form) and reports the worst
margin observed.  The acceptance tests call these with the full sample
counts; the ``proptest`` CLI subcommand runs a lighter sweep of the same
functions.
"""

from typing import NamedTuple, Optional

import numpy as np

from .oracle import (
    PenaltyObjectiveSpec,
    minimize_penalty_objective,
    stationarity_residual,
)
from .updates import (
    EigenBounds,
    bfgs_update,
    lambda_max_upper_bound,
    soft_qn_alpha_bound,
    soft_qn_update,
    sp_bfgs_update,
)

__all__ = [
    "CheckResult",
    "random_spd",
    "check_pd_guarantee",
    "check_stationarity",
    "check_oracle_agreement",
    "check_bfgs_limit",
    "check_sign_symmetry",
    "check_scale_invariance",
    "check_bounded_chains",
    "check_trace_bound",
    "check_gamma_direction",
    "check_sp_bfgs_limit",
    "ALL_CHECKS",
]


class CheckResult(NamedTuple):
    name: str
    samples: int
    passed: bool
    worst: Optional[float]  # worst margin/error seen; interpretation per check
    note: str


def random_spd(rng, n, eig_low=1e-3, eig_high=1e3):
    """Random SPD matrix with log-uniform spectrum in [eig_low, eig_high]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=n))
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def _random_pair(rng, n, force_negative_curvature=False):
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    if force_negative_curvature and float(s @ y) > 0.0:
        y = -y
    return s, y


def check_pd_guarantee(samples=10_000, seed=2001, n_max=20):
    """Soft QN output passes Cholesky for any pair and alpha in [1e-8, 1e8]."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for i in range(samples):
        n = int(rng.integers(1, n_max + 1))
        h = random_spd(rng, n)
        s, y = _random_pair(rng, n, force_negative_curvature=(i % 2 == 0))
        alpha = 10.0 ** rng.uniform(-8, 8)
        try:
            h_new, _ = soft_qn_update(h, s, y, alpha)
            factor = np.linalg.cholesky(h_new)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            return CheckResult("pd_guarantee", i + 1, False, None, f"failed: {exc}")
        worst = min(worst, float(factor.diagonal().min()))
    return CheckResult(
        "pd_guarantee", samples, True, worst, "smallest Cholesky pivot over all samples"
    )


def check_stationarity(samples=200, seed=2002):
    """Closed-form update satisfies the penalty problem's optimality condition."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for i in range(samples):
        n = int(rng.integers(2, 6))
        # moderate scales: the absolute 1e-8 tolerance is meaningful only when
        # the residual's constituent terms are themselves O(1)..O(1e2)
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if i % 3 == 0 and float(s @ y) > 0.0:
            y = -y
        alpha = 10.0 ** rng.uniform(-2, 2)
        h_new, _ = soft_qn_update(h, s, y, alpha)
        spec = PenaltyObjectiveSpec(h, s, y, alpha)
        resid = stationarity_residual(spec, np.linalg.inv(h_new))
        ratio = resid / (1.0 + float(np.linalg.norm(h)))
        worst = max(worst, ratio)
        ok = ok and ratio <= 1e-8
    return CheckResult("stationarity", samples, ok, worst, "max residual / (1+||H||_F)")


def check_oracle_agreement(samples=100, seed=2003):
    """Brute-force minimizer of the penalty objective matches the closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for i in range(samples):
        n = int(rng.integers(2, 4))
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if i % 3 == 0 and float(s @ y) > 0.0:
            y = -y
        alpha = 10.0 ** rng.uniform(-2, 2)
        h_new, _ = soft_qn_update(h, s, y, alpha)
        result = minimize_penalty_objective(PenaltyObjectiveSpec(h, s, y, alpha))
        diff = float(np.linalg.norm(result.h_star - h_new))
        ratio = diff / (1.0 + float(np.linalg.norm(h)))
        worst = max(worst, ratio)
        ok = ok and ratio <= 1e-5
    return CheckResult(
        "oracle_agreement", samples, ok, worst, "max ||H_oracle - H_closed||_F / (1+||H||_F)"
    )


def check_bfgs_limit(samples=100, seed=2004):
    """Distance to the BFGS update is non-increasing in alpha and small at 1e12."""
    rng = np.random.default_rng(seed)
    alphas = [1e2, 1e4, 1e6, 1e8, 1e10, 1e12]
    worst = 0.0
    ok = True
    for _ in range(samples):
        n = int(rng.integers(2, 11))
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if float(s @ y) <= 0.0:
            y = -y + s * 1e-6  # nudge off exact zero curvature
        reference = bfgs_update(h, s, y)
        ref_norm = float(np.linalg.norm(reference))
        dists = []
        for alpha in alphas:
            h_new, _ = soft_qn_update(h, s, y, alpha)
            dists.append(float(np.linalg.norm(h_new - reference)))
        monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(dists, dists[1:]))
        final = dists[-1] / ref_norm
        worst = max(worst, final)
        ok = ok and monotone and final <= 1e-3
    return CheckResult("bfgs_limit", samples, ok, worst, "max relative distance at alpha=1e12")


def check_sign_symmetry(samples=100, seed=2005):
    """Flipping the sign of s or of y leaves the update bitwise unchanged."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 13))
        h = random_spd(rng, n)
        s, y = _random_pair(rng, n)
        alpha = 10.0 ** rng.uniform(-4, 4)
        base, _ = soft_qn_update(h, s, y, alpha)
        flip_y, _ = soft_qn_update(h, s, -y, alpha)
        flip_s, _ = soft_qn_update(h, -s, y, alpha)
        worst = max(
            worst,
            float(np.max(np.abs(base - flip_y))),
            float(np.max(np.abs(base - flip_s))),
        )
    return CheckResult("sign_symmetry", samples, worst <= 1e-14, worst, "max |flip difference|")


def check_scale_invariance(samples=100, seed=2006):
    """Conjugating (H, s, y) by invertible A conjugates the update."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        alpha = 10.0 ** rng.uniform(-2, 2)
        # invertible A with singular values spanning at most 1e3
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sv = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=n))
        a = (u * sv) @ v.T
        h_new, _ = soft_qn_update(h, s, y, alpha)
        h_conj, _ = soft_qn_update(a @ h @ a.T, a @ s, np.linalg.solve(a.T, y), alpha)
        err = float(np.linalg.norm(h_conj - a @ h_new @ a.T))
        scale = float(np.linalg.norm(a, 2) ** 2 * np.linalg.norm(h_new))
        worst = max(worst, err / scale)
    return CheckResult(
        "scale_invariance", samples, worst <= 1e-9, worst, "max conjugation error ratio"
    )


def check_bounded_chains(chains=20, iterations=500, seed=2007):
    """Alpha clamped by the spectrum bound keeps eigenvalues inside [psi, Psi]."""
    rng = np.random.default_rng(seed)
    # largest signed excursion beyond the band: negative while every spectrum stays
    # inside, where it is minus the closest approach to psi or Psi
    worst = -np.inf
    ok = True
    for _ in range(chains):
        n = int(rng.integers(2, 9))
        psi = 10.0 ** rng.uniform(-2, 0)
        cap = psi * 10.0 ** rng.uniform(0.5, 2)
        bounds = EigenBounds(psi, cap)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(psi * 1.2, cap * 0.8, size=n)
        h = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
        w = np.linalg.eigvalsh(h)
        for _ in range(iterations):
            s, y = _random_pair(rng, n)
            bound = soft_qn_alpha_bound(h, s, y, bounds, float(w[0]), float(w[-1]))
            alpha = min(1.0, bound)
            if not alpha > 0.0:
                continue  # no admissible alpha this round; pair is skipped
            h, _ = soft_qn_update(h, s, y, alpha)
            w = np.linalg.eigvalsh(h)
            low = psi - float(w[0])
            high = float(w[-1]) - cap
            worst = max(worst, low, high)
            ok = ok and low <= 1e-12 and high <= 1e-12
    return CheckResult(
        "bounded_chains",
        chains * iterations,
        ok,
        worst,
        "max signed excursion beyond [psi, Psi], negative inside",
    )


def check_trace_bound(samples=10_000, seed=2008):
    """Trace-based bound really is an upper bound on lambda_max."""
    rng = np.random.default_rng(seed)
    worst = np.inf  # smallest slack bound - lambda_max, in units of the FP allowance
    ok = True
    for _ in range(samples):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        a = 0.5 * (a + a.T)
        lam_max = float(np.linalg.eigvalsh(a)[-1])
        slack = lambda_max_upper_bound(a) - lam_max
        # For n = 2 the bound is exactly tight (mean + std IS the larger
        # eigenvalue), so the computed slack is +/- a few ulps; allow rounding
        # at the scale of the matrix.
        allowance = 1e-12 * (1.0 + float(np.linalg.norm(a)))
        worst = min(worst, slack / allowance)
        ok = ok and slack >= -allowance
    witness = lambda_max_upper_bound(np.diag([1.0, 2.0, 3.0]))
    ok = ok and abs(witness - (2.0 + np.sqrt(2.0 / 3.0) * np.sqrt(2.0))) < 1e-12 and witness >= 3.0
    return CheckResult("trace_bound", samples, ok, worst, "min slack / fp allowance")


def check_gamma_direction(samples=1000, seed=2009):
    """The rank-one direction u = (Hy + alpha*(s'y)*s)/gamma keeps u'y > 0 for every nonzero y."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for i in range(samples):
        n = int(rng.integers(1, 13))
        h = random_spd(rng, n)
        s, y = _random_pair(rng, n, force_negative_curvature=(i % 2 == 0))
        alpha = 10.0 ** rng.uniform(-6, 6)
        _, scratch = soft_qn_update(h, s, y, alpha)
        u = (h @ y + (alpha * float(s @ y)) * s) / scratch.gamma
        worst = min(worst, float(u @ y))
    return CheckResult("gamma_direction", samples, worst > 0.0, worst, "min u'y")


def check_sp_bfgs_limit(samples=100, seed=2010):
    """SP-BFGS at beta = 1e12 coincides with BFGS on positive-curvature pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 11))
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if float(s @ y) <= 0.0:
            y = -y + s * 1e-6
        reference = bfgs_update(h, s, y)
        limit = sp_bfgs_update(h, s, y, 1e12)
        worst = max(worst, float(np.linalg.norm(limit - reference) / np.linalg.norm(reference)))
    return CheckResult("sp_bfgs_limit", samples, worst <= 1e-6, worst, "max relative distance")


# name -> (check function, kwargs for a quick CLI sweep)
ALL_CHECKS = {
    "pd_guarantee": (check_pd_guarantee, {"samples": 2000}),
    "stationarity": (check_stationarity, {"samples": 50}),
    "oracle_agreement": (check_oracle_agreement, {"samples": 10}),
    "bfgs_limit": (check_bfgs_limit, {"samples": 50}),
    "sign_symmetry": (check_sign_symmetry, {"samples": 50}),
    "scale_invariance": (check_scale_invariance, {"samples": 50}),
    "bounded_chains": (check_bounded_chains, {"chains": 5, "iterations": 200}),
    "trace_bound": (check_trace_bound, {"samples": 2000}),
    "gamma_direction": (check_gamma_direction, {"samples": 500}),
    "sp_bfgs_limit": (check_sp_bfgs_limit, {"samples": 50}),
}
