"""Brute-force verification route for the penalized-secant update.

The closed-form soft QN update is the unique minimizer of a strictly convex
penalized objective over positive definite matrices B:

    U(B) = tr(B H) - log det(B H) + alpha*(s'Bs - 2 s'y + y'B^{-1}y)

This module evaluates that objective, minimizes it numerically by damped Newton
steps over symmetric B (nothing here touches the closed form), and measures the
first-order stationarity residual

    || H - B^{-1} + alpha*(ss' - B^{-1}yy'B^{-1}) ||_F

so the algebraic update and the numerical minimizer can be cross-checked.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rules import positive

__all__ = [
    "NoConvergenceError",
    "PenaltyObjectiveSpec",
    "OracleResult",
    "penalty_objective",
    "stationarity_residual",
    "minimize_penalty_objective",
]


class NoConvergenceError(RuntimeError):
    """The numerical minimizer failed to reach the requested stationarity tolerance."""


@dataclass(frozen=True)
class PenaltyObjectiveSpec:
    """Data of one update instance: previous PD approximation H, pair (s, y), weight alpha."""

    h_prev: np.ndarray
    s: np.ndarray
    y: np.ndarray
    alpha: float

    def __post_init__(self):
        n = self.h_prev.shape[0]
        if self.h_prev.shape != (n, n):
            raise ValueError("h_prev must be square")
        if self.s.shape != (n,) or self.y.shape != (n,):
            raise ValueError("s and y must match the dimension of h_prev")
        positive("alpha", self.alpha)  # a NaN alpha or pair would end the minimizer at once
        if not (np.isfinite(self.s).all() and np.isfinite(self.y).all()):
            raise ValueError("s and y must be finite")
        try:
            _chol_or_domain_error(self.h_prev)
        except ValueError as exc:
            raise ValueError("h_prev must be symmetric positive definite") from exc


class OracleResult(NamedTuple):
    b_star: np.ndarray
    h_star: np.ndarray
    objective_value: float
    stationarity_residual: float
    iterations: int


def _chol_or_domain_error(b: np.ndarray) -> np.ndarray:
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("B must be square")
    if not np.isfinite(b).all():  # numpy's Cholesky would return a NaN factor
        raise ValueError("B must be finite")
    if not np.allclose(b, b.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(b).max())):
        raise ValueError("B must be symmetric")
    try:
        return np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("B must be positive definite") from exc


def penalty_objective(spec: PenaltyObjectiveSpec, b: np.ndarray) -> float:
    """Value of U at a positive definite B (domain error otherwise)."""
    l = _chol_or_domain_error(b)
    h = spec.h_prev
    logdet_b = 2.0 * float(np.sum(np.log(np.diag(l))))
    logdet_h = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(h)))))
    z = np.linalg.solve(l, spec.y)  # y'B^{-1}y = z'z
    secant_pen = float(spec.s @ b @ spec.s) - 2.0 * float(spec.s @ spec.y) + float(z @ z)
    return float(np.sum(b * h)) - logdet_b - logdet_h + spec.alpha * secant_pen


def _gradient_and_scale(spec: PenaltyObjectiveSpec, l: np.ndarray):
    """Matrix gradient of U at B = l l', the sum of its terms' Frobenius norms,
    ||H|| + ||B^{-1}|| + alpha*(||s||^2 + ||w||^2) with w = B^{-1}y, and B^{-1}.

    The residual cannot be resolved below a few ulps of that sum, so the
    minimizer's tolerance is relative to it.
    """
    l_inv = np.linalg.inv(l)
    b_inv = l_inv.T @ l_inv
    w = b_inv @ spec.y
    g = spec.h_prev - b_inv + spec.alpha * (np.outer(spec.s, spec.s) - np.outer(w, w))
    scale = (
        float(np.linalg.norm(spec.h_prev))
        + float(np.linalg.norm(b_inv))
        + spec.alpha * (float(spec.s @ spec.s) + float(w @ w))
    )
    return 0.5 * (g + g.T), scale, b_inv


def stationarity_residual(spec: PenaltyObjectiveSpec, b: np.ndarray) -> float:
    """Frobenius norm of the first-order optimality residual of U at B."""
    l = _chol_or_domain_error(b)
    return float(np.linalg.norm(_gradient_and_scale(spec, l)[0], "fro"))


def _symmetric_basis(n: int) -> np.ndarray:
    """Row-major vec of the n(n+1)/2 symmetric basis matrices, one per column.

    The basis matrix for i <= j has ones at (i, j) and (j, i), so a symmetric D
    has the coordinates D[np.triu_indices(n)].
    """
    basis = np.zeros((n, n, n * (n + 1) // 2))
    for k, (i, j) in enumerate(zip(*np.triu_indices(n))):
        basis[i, j, k] = basis[j, i, k] = 1.0
    return basis.reshape(n * n, -1)


def _newton_matrix(spec: PenaltyObjectiveSpec, b_inv: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Hessian of U at B in the coordinates of ``basis``.

    Its action D -> B^{-1}DB^{-1} + alpha*(B^{-1}Dww' + ww'DB^{-1}), w = B^{-1}y,
    is the Kronecker operator below on the row-major vec of a symmetric D.
    """
    w = b_inv @ spec.y
    ww = np.outer(w, w)
    action = np.kron(b_inv, b_inv) + spec.alpha * (np.kron(b_inv, ww) + np.kron(ww, b_inv))
    return basis.T @ action @ basis


def minimize_penalty_objective(
    spec: PenaltyObjectiveSpec, tol: float = 1e-9, max_iter: int = 1_000_000
) -> OracleResult:
    """Minimize U over symmetric PD matrices B by damped Newton steps.

    Starts at B = H^{-1} and solves each Newton system over the n(n+1)/2
    symmetric basis matrices.  The step is halved until the trial B is PD and
    U falls by the Armijo amount.  Near the optimum U is flat to rounding while
    the stationarity residual still falls, so a trial is also accepted when the
    residual falls; from the first step accepted that way on, the residual
    alone judges trials.  Each phase thus strictly lowers one quantity and
    cannot cycle on rounding noise.

    Converges once the residual is at most ``tol`` times the size of the
    gradient's terms, ||H|| + ||B^{-1}|| + alpha*(||s||^2 + ||w||^2) with
    w = B^{-1}y (Frobenius norms at the current B): the residual's rounding
    floor grows with those terms, so an absolute tolerance is out of reach on
    stiff specs (large alpha*||s||^2).  Newton steps go on past that point
    while each at least halves the residual, because the tolerance says little
    about the error of B^{-1} when the terms cancel; so the result sits at the
    rounding floor whenever that lies below the tolerance.  Raises
    NoConvergenceError when halving no longer moves B (the residual cannot be
    lowered, e.g. ``tol`` lies below its rounding floor) or after ``max_iter``
    Newton steps, unless the residual already meets the tolerance.
    """
    n = spec.h_prev.shape[0]
    basis = _symmetric_basis(n)

    def objective(b):
        try:
            return penalty_objective(spec, b)
        except ValueError:  # B is not PD
            return np.inf

    b = np.linalg.inv(spec.h_prev)
    b = 0.5 * (b + b.T)
    value = objective(b)
    grad, scale, b_inv = _gradient_and_scale(spec, np.linalg.cholesky(b))
    residual = float(np.linalg.norm(grad, "fro"))
    previous = np.inf
    u_is_flat = False
    iterations = 0
    while residual > tol * scale or residual <= 0.5 * previous:
        if iterations == max_iter:
            trial, failure = None, f"no convergence within {max_iter} Newton steps"
        else:
            iterations += 1
            g = basis.T @ grad.ravel()
            hess = _newton_matrix(spec, b_inv, basis)
            coef = np.linalg.solve(hess, -g)
            step = (basis @ coef).reshape(n, n)
            armijo_slope = 1e-4 * float(g @ coef)
            t = 1.0
            while True:
                trial = b + t * step
                if np.array_equal(trial, b):
                    trial, failure = None, f"Newton step collapsed at residual {residual:.3e}"
                    break
                trial_value = objective(trial)
                if not u_is_flat and trial_value < value + t * armijo_slope:
                    break
                if trial_value < np.inf and stationarity_residual(spec, trial) < residual:
                    u_is_flat = True
                    break
                t *= 0.5
        if trial is None:  # B cannot move: done if the tolerance is met
            if residual <= tol * scale:
                break
            raise NoConvergenceError(f"{failure} (tol*scale = {tol:.1e}*{scale:.3e})")
        b, value, previous = trial, trial_value, residual
        grad, scale, b_inv = _gradient_and_scale(spec, np.linalg.cholesky(b))
        residual = float(np.linalg.norm(grad, "fro"))

    return OracleResult(
        b_star=b,
        h_star=0.5 * (b_inv + b_inv.T),
        objective_value=value,
        stationarity_residual=residual,
        iterations=iterations,
    )
