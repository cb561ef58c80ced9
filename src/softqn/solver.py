"""Iteration loop for stochastic quasi-Newton methods with noisy oracles.

One iteration computes a direction p = -H g (or a Newton-type direction
from the exact Hessian), takes a step chosen by the step policy,
re-evaluates the noisy gradient, and feeds the pair (s, y) to the method's
inverse-Hessian update.  The loop tolerates noise-corrupted pairs: the soft QN
update is applied unconditionally, SP-BFGS skips pairs outside its positive
definiteness region, and plain BFGS skips pairs without positive curvature.
"""

import warnings
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Tuple

import numpy as np

from .updates import (
    ConstantAlpha,
    ConstantBeta,
    UpdateConsistencyError,
    _check_positive,
    bfgs_admissible,
    biased_direction,
    bfgs_update,
    is_positive_definite,
    soft_qn_update,
    sp_bfgs_admissible,
    sp_bfgs_update,
)

__all__ = [
    "SoftQn",
    "SpBfgs",
    "StochasticBfgs",
    "Sgd",
    "ExactNewton",
    "SaddleFreeNewton",
    "FixedStep",
    "DiminishingStep",
    "NoisyArmijo",
    "Budget",
    "TrialRecord",
    "LineSearchResult",
    "saddle_free_abs",
    "compute_direction",
    "line_search_noisy",
    "run",
]

DIVERGENCE_NORM = 1e12


# --------------------------------------------------------------------------
# direction methods
#
# A method is stateless, so one instance serves any number of trials; run()
# keeps the inverse-Hessian approximation H and hands it in.  Each method says
# whether its direction needs the exact Hessian, builds its starting H (an
# ``_H`` record for the quasi-Newton methods, None for the others), turns
# (H, g, Hessian) into a direction, and absorbs a pair (s, y) into H as
# absorb(h, s, y) -> (h_new, applied); a skipped pair gives (h, False).


class _Method:
    """Defaults: no exact Hessian, no H, so no pair to apply and none to skip.

    Such a method takes no h0: ``initial_h`` raises ValueError for any h0 but None.
    """

    uses_hessian: ClassVar[bool] = False

    def initial_h(self, n: int, h0: Optional[np.ndarray]) -> None:
        if h0 is not None:
            raise ValueError(f"{type(self).__name__} keeps no H, so it takes no h0")
        return None

    def absorb(self, h, s, y):
        return h, True


class _H(NamedTuple):
    """A quasi-Newton method's H: the matrix, a certified interval (lo, hi) on
    its spectrum or None when unknown, and how many updates in a row that
    interval has certified.  Only SoftQn carries an interval."""

    matrix: np.ndarray
    bounds: Optional[Tuple[float, float]] = None
    certified: int = 0


class _QuasiNewton(_Method):
    """H starts at h0 (default: the identity) symmetrized once, and the direction is -H g.

    A given h0 must be n x n and symmetrize to a positive definite matrix, or
    ``initial_h`` raises ValueError; that also rejects non-finite entries.
    """

    def initial_h(self, n: int, h0: Optional[np.ndarray]) -> _H:
        if h0 is None:
            return _H(np.eye(n))
        h0 = np.asarray(h0, dtype=float)
        if h0.shape != (n, n):
            raise ValueError(f"h0 must be {n}x{n}, got shape {h0.shape}")
        h = 0.5 * (h0 + h0.T)
        if not is_positive_definite(h):
            raise ValueError("h0 must symmetrize to a finite positive definite matrix")
        return _H(h)

    def direction(self, h, g, hess):
        return biased_direction(h.matrix, g)


# A refresh costs one eigvalsh, 1.3 to 5.5 Cholesky factorizations at n = 10 to
# 1000 (one BLAS thread, 2-vCPU Xeon), so it is paid only for a bound that has
# already saved more guards than that.
_REFRESH_AFTER = 8


def _eigvalsh_bounds(h: np.ndarray) -> Optional[Tuple[float, float]]:
    """An interval on the spectrum of symmetric h from eigvalsh, or None when it is not positive.

    eigvalsh is backward stable, |lambda^ - lambda| <= p(n)*u*||h||_2 with a
    modestly growing p(n); p(n) = 4n^2 stands in for it here.
    """
    w = np.linalg.eigvalsh(h)
    n = h.shape[0]
    slack = 4.0 * n * n * 2.0**-53 * max(abs(float(w[0])), abs(float(w[-1])))
    lo, hi = float(w[0]) - slack, float(w[-1]) + slack
    return (lo, hi) if 0.0 < lo and np.isfinite(hi) else None


@dataclass(frozen=True)
class SoftQn(_QuasiNewton):
    """Penalized-secant quasi-Newton; updates on every pair.

    Its H record carries a certified interval on the spectrum, exactly [1, 1]
    for the default identity start and from one eigvalsh for any other h0.
    ``soft_qn_update`` moves the interval through each update and skips its
    O(n^3) Cholesky guard while the interval proves the guard would pass.  Once
    it proves nothing, the guard runs on every update; the interval is
    refreshed from eigvalsh of the guarded H' only if the old one had certified
    at least ``_REFRESH_AFTER`` updates, and stays unknown otherwise.  H' and
    every decision are those of the plain update.
    """

    policy: ConstantAlpha = ConstantAlpha(1.0)

    def initial_h(self, n: int, h0: Optional[np.ndarray]) -> _H:
        h = super().initial_h(n, h0)
        return h._replace(bounds=(1.0, 1.0) if h0 is None else _eigvalsh_bounds(h.matrix))

    def absorb(self, h, s, y):
        h_new, scratch = soft_qn_update(h.matrix, s, y, self.policy.value(h.matrix, s, y), h.bounds)
        if scratch.bounds is not None:
            return _H(h_new, scratch.bounds, h.certified + 1), True
        if h.certified >= _REFRESH_AFTER:
            return _H(h_new, _eigvalsh_bounds(h_new)), True
        return _H(h_new), True


@dataclass(frozen=True)
class SpBfgs(_QuasiNewton):
    """Secant-penalized BFGS; skips s = 0 and pairs outside the PD region s'y > -1/beta."""

    policy: ConstantBeta = ConstantBeta(1.0)

    def absorb(self, h, s, y):
        if float(s @ s) == 0.0:
            return h, False
        beta = self.policy.value(s, y)
        if not sp_bfgs_admissible(s, y, beta):
            return h, False
        return _H(sp_bfgs_update(h.matrix, s, y, beta)), True


@dataclass(frozen=True)
class StochasticBfgs(_QuasiNewton):
    """Plain BFGS fed with noisy pairs; skips pairs without positive curvature."""

    def absorb(self, h, s, y):
        if not bfgs_admissible(s, y):
            return h, False
        return _H(bfgs_update(h.matrix, s, y)), True


@dataclass(frozen=True)
class Sgd(_Method):
    """Steepest descent on the noisy gradient."""

    def direction(self, h, g, hess):
        return -g


@dataclass(frozen=True)
class ExactNewton(_Method):
    """Direction from the exact Hessian (gradient may still be noisy)."""

    uses_hessian = True

    def direction(self, h, g, hess):
        return -_solve_or_pinv(hess, g)


@dataclass(frozen=True)
class SaddleFreeNewton(_Method):
    """Newton direction preconditioned by |H|: eigenvalue magnitudes replace signs."""

    uses_hessian = True

    def direction(self, h, g, hess):
        return -_solve_or_pinv(saddle_free_abs(hess), g)


def saddle_free_abs(a: np.ndarray) -> np.ndarray:
    """|A| = V |diag(w)| V' from the symmetric eigendecomposition of A."""
    w, v = np.linalg.eigh(a)
    out = (v * np.abs(w)) @ v.T
    return 0.5 * (out + out.T)


def _solve_or_pinv(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        warnings.warn("singular matrix in direction solve; falling back to pseudo-inverse")
        return np.linalg.pinv(a) @ rhs


def compute_direction(method, h, g: np.ndarray, hess: Optional[np.ndarray] = None):
    """Descent direction of the given method from H, the gradient and the exact Hessian."""
    return method.direction(h, g, hess)


# --------------------------------------------------------------------------
# step policies


class LineSearchResult(NamedTuple):
    eta: float
    accepted: bool
    backtracks: int
    fun_evals: int
    interrupted: bool
    f_new: Optional[float] = None


# A step policy owns step(oracle, x, p, g, k, eval_cap, f_x) -> LineSearchResult
# for iteration k (counted from 1); eval_cap and f_x are as in line_search_noisy.
# evaluates_f says whether it evaluates f at all, so whether a budget of f
# evaluations alone can ever run out under it.


@dataclass(frozen=True)
class FixedStep:
    """The same step eta, positive and finite (or ValueError), at every iteration."""

    evaluates_f: ClassVar[bool] = False

    eta: float

    def __post_init__(self):
        _check_positive("eta", self.eta)

    def step(self, oracle, x, p, g, k, eval_cap, f_x) -> LineSearchResult:
        return LineSearchResult(self.eta, True, 0, 0, False)


@dataclass(frozen=True)
class DiminishingStep:
    """eta_k = scale/k with k counted from 1; scale is positive and finite, or ValueError."""

    evaluates_f: ClassVar[bool] = False

    scale: float = 1.0

    def __post_init__(self):
        _check_positive("scale", self.scale)

    def step(self, oracle, x, p, g, k, eval_cap, f_x) -> LineSearchResult:
        return LineSearchResult(self.scale / k, True, 0, 0, False)


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's included) >= ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class NoisyArmijo:
    """Backtracking line search with a noise allowance in both tests.

    From eta0, the step is multiplied by tau while the noisy value at the trial
    point exceeds f(x) + eta*c*p'g + 2*eps_tol, for at most max_backtracks
    halvings.  The last trial is accepted if it improves on f(x) + 2*eps_tol,
    otherwise the step is rejected (returns 0).  Unless eta0 is positive and
    finite, tau and c lie in (0, 1), max_backtracks is an integer >= 0 and
    eps_tol is nonnegative and finite, ValueError is raised where it is made.
    """

    evaluates_f: ClassVar[bool] = True

    eta0: float = 1.0
    c: float = 1e-4
    tau: float = 0.5
    max_backtracks: int = 45
    eps_tol: float = 0.0

    def __post_init__(self):
        _check_positive("eta0", self.eta0)
        for name, value in (("tau", self.tau), ("c", self.c)):
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        _check_count("max_backtracks", self.max_backtracks, 0)
        if not 0 <= self.eps_tol < np.inf:
            raise ValueError(f"eps_tol must be nonnegative and finite, got {self.eps_tol}")

    def step(self, oracle, x, p, g, k, eval_cap, f_x) -> LineSearchResult:
        return line_search_noisy(oracle, x, p, g, self, eval_cap=eval_cap, f_x=f_x)


def line_search_noisy(
    oracle,
    x,
    p,
    g_x,
    policy: NoisyArmijo,
    eval_cap: Optional[int] = None,
    f_x: Optional[float] = None,
):
    """Noisy backtracking search along p from x.

    The incumbent value may be passed in as ``f_x`` (the caller keeps the value
    of the previously accepted trial, so an accepted step costs one evaluation);
    when it is None, f(x) is evaluated here.  ``eval_cap`` limits the number of
    counted f calls this search may make; when it runs out, the search is
    interrupted and the usual accept-or-reject test is applied to the last
    evaluated trial (no further evaluations).  ``f_new`` in the result is the
    value at the point the search lands on: the accepted trial, or x itself on
    rejection (None only when the search was interrupted before evaluating).
    """
    used = 0

    def can_eval():
        return eval_cap is None or used < eval_cap

    if f_x is None:
        if not can_eval():
            return LineSearchResult(0.0, False, 0, used, True)
        f_x = oracle.f(x)
        used += 1
    eta = policy.eta0
    slope = policy.c * float(p @ g_x)
    allowance = 2.0 * policy.eps_tol
    if not can_eval():
        return LineSearchResult(0.0, False, 0, used, True)
    f_trial = oracle.f(x + eta * p)
    used += 1
    t = 0
    interrupted = False
    while f_trial > f_x + eta * slope + allowance and t < policy.max_backtracks:
        if not can_eval():
            interrupted = True
            break
        eta *= policy.tau
        t += 1
        f_trial = oracle.f(x + eta * p)
        used += 1
    accepted = f_trial < f_x + allowance
    return LineSearchResult(
        eta if accepted else 0.0, accepted, t, used, interrupted, f_trial if accepted else f_x
    )


# --------------------------------------------------------------------------
# run loop


def _no_phi(x) -> float:
    return np.nan


@dataclass(frozen=True)
class Budget:
    """Stop after a fixed number of iterations, counted f evaluations, or both (integers >= 1)."""

    iterations: Optional[int] = None
    fun_evals: Optional[int] = None

    def __post_init__(self):
        if self.iterations is None and self.fun_evals is None:
            raise ValueError("budget needs iterations and/or fun_evals")
        for name, count in (("iterations", self.iterations), ("fun_evals", self.fun_evals)):
            if count is not None:
                _check_count(name, count, 1)

    def exhausted(self, iterations: int, fun_evals: int) -> bool:
        if self.iterations is not None and iterations >= self.iterations:
            return True
        return self.fun_evals is not None and fun_evals >= self.fun_evals


@dataclass
class TrialRecord:
    """Everything recorded along one run, on exact-oracle channels.

    ``grad_norms``/``suboptimality`` are per-iteration (index 0 is the start
    point), padded with their last value to the iteration budget on early
    stops.  ``eval_counts`` holds the function-evaluation count at each adopted
    iterate, unpadded, so ``eval_counts[i]`` belongs to ``suboptimality[i]``;
    it is what evaluation-aligned comparisons step on.  The exact value is
    evaluated only when the problem has a ``phi_star``; without one, every
    ``suboptimality`` entry is NaN.
    """

    grad_norms: np.ndarray
    suboptimality: np.ndarray
    eval_counts: np.ndarray
    final_x: np.ndarray
    iterations: int
    fun_evals: int
    grad_evals: int
    step_rejections: int
    skipped_updates: int
    diverged: bool
    phi_star: Optional[float]
    iterates: Optional[list] = None


def run(
    oracle,
    method,
    step,
    budget: Budget,
    h0: Optional[np.ndarray] = None,
    keep_iterates: bool = False,
) -> TrialRecord:
    """Run one trial of a method against a noisy oracle.

    The inverse-Hessian approximation starts at the identity unless ``h0`` is
    given.  The exact channel records the gradient norm at every iterate, and
    the value phi only when the problem has a ``phi_star`` (phi feeds nothing
    but phi - phi*); without one, ``suboptimality`` is NaN.  ``eval_counts``
    records the function-evaluation count at every adopted iterate.
    Divergence (non-finite iterate, noisy gradient, exact gradient norm or
    recorded phi, an iterate norm above 1e12, or an UpdateConsistencyError) stops
    the run and freezes the per-iteration traces at their last finite values.

    Where the oracle's noisy gradient shares no evaluation with the exact one
    and the problem offers ``grad_norms`` (minibatch logistic regression), the
    iterates are kept and their norms, start included, come from one
    ``grad_norms`` call after the loop; they agree with the per-iterate ones to
    rounding and the trajectory is unchanged.  A non-finite norm after the
    start found that way ends the trial as above: the traces, ``iterations``
    and ``final_x`` stop at the iterate before it, but ``fun_evals``,
    ``grad_evals``, ``step_rejections`` and ``skipped_updates`` count the whole
    trial.

    A budget of f evaluations alone under a step policy that evaluates no f, an
    ``h0`` for a method that keeps no H, or a bad ``h0``, raises ValueError
    before any evaluation.
    """
    if budget.iterations is None and not step.evaluates_f:
        raise ValueError(
            f"a fun_evals-only budget never runs out under {type(step).__name__}, which evaluates no f"
        )
    h = method.initial_h(oracle.dim, h0)
    x = np.array(oracle.x0, dtype=float, copy=True)
    g = oracle.g(x)
    k = 0

    phi_star = oracle.problem.phi_star
    # phi only feeds phi - phi*, so a problem without phi* never pays for it
    exact_phi = oracle.true_phi if phi_star is not None else _no_phi
    # a batched exact channel gets every norm, start included, in one call after the loop
    batched = oracle.batched_grad_norms
    grad_norms = [float(np.linalg.norm(oracle.true_grad(x)))] if batched is None else None
    phis = [exact_phi(x)]
    eval_counts = [oracle.fun_evals]
    iterates = [x.copy()] if keep_iterates or batched is not None else None
    rejections = 0
    skipped = 0
    diverged = False
    f_inc = None  # noisy value at the incumbent; reused across line searches

    while not budget.exhausted(k, oracle.fun_evals):
        hess = oracle.hess(x) if method.uses_hessian else None
        p = compute_direction(method, h, g, hess)
        cap = None if budget.fun_evals is None else budget.fun_evals - oracle.fun_evals
        ls = step.step(oracle, x, p, g, k + 1, cap, f_inc)
        if ls.f_new is not None:
            f_inc = ls.f_new
        if not ls.accepted:
            rejections += 1

        x_new = x + ls.eta * p
        if not np.isfinite(x_new).all() or np.linalg.norm(x_new) > DIVERGENCE_NORM:
            diverged = True
            break

        phi_new = exact_phi(x_new)
        if phi_star is not None and not np.isfinite(phi_new):
            diverged = True
            break
        if batched is None:
            gn = float(np.linalg.norm(oracle.true_grad(x_new)))
            if not np.isfinite(gn):
                diverged = True
                break
            grad_norms.append(gn)
        k += 1
        eval_counts.append(oracle.fun_evals)
        phis.append(phi_new)
        if iterates is not None:
            iterates.append(x_new.copy())

        x_prev, x = x, x_new
        if ls.interrupted:
            break

        g_new = oracle.g(x)
        if not np.isfinite(g_new).all():
            diverged = True
            break
        try:
            h, applied = method.absorb(h, x - x_prev, g_new - g)
        except UpdateConsistencyError:  # the update failed; the other trials go on
            diverged = True
            break
        skipped += not applied
        g = g_new

    if batched is not None:
        values = batched(np.array(iterates))
        grad_norms = values.tolist()
        bad = np.flatnonzero(~np.isfinite(values[1:]))
        if bad.size:  # the trial ends at the iterate before the first non-finite norm
            k = int(bad[0])
            x = iterates[k]
            diverged = True
            del grad_norms[k + 1 :], eval_counts[k + 1 :], phis[k + 1 :], iterates[k + 1 :]

    # pad per-iteration traces on early stops so trials stay comparable
    if budget.iterations is not None and len(grad_norms) < budget.iterations + 1:
        pad = budget.iterations + 1 - len(grad_norms)
        grad_norms.extend([grad_norms[-1]] * pad)
        phis.extend([phis[-1]] * pad)

    phis_arr = np.array(phis)
    subopt = phis_arr - phi_star if phi_star is not None else np.full(len(phis), np.nan)
    return TrialRecord(
        grad_norms=np.array(grad_norms),
        suboptimality=subopt,
        eval_counts=np.array(eval_counts),
        final_x=x.copy(),
        iterations=k,
        fun_evals=oracle.fun_evals,
        grad_evals=oracle.grad_evals,
        step_rejections=rejections,
        skipped_updates=skipped,
        diverged=diverged,
        phi_star=phi_star,
        iterates=iterates if keep_iterates else None,
    )
