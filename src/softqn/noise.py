"""Noisy function/gradient oracles with deterministic, replayable streams.

A NoisyOracle wraps a Problem and serves noisy values f(x) and gradients g(x)
while counting every call; the exact value, gradient and Hessian stay queryable
through a separate channel that does not touch the counters.  Each oracle owns
three independent RNG streams (function noise, gradient noise, minibatch
sampling) seeded from a single integer, so the j-th draw of a stream depends
only on (seed, j) and runs replay identically.  A noise scale must be
nonnegative and finite, a batch an integer >= 1 and a seed an integer, or ValueError.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from ._rules import count, nonnegative
from .updates import _norm

__all__ = [
    "UniformNoise",
    "GaussianNoise",
    "SphereNoise",
    "MinibatchSampling",
    "NoisyOracle",
    "derive_seed",
]

_STREAM_FUN = 0
_STREAM_GRAD = 1
_STREAM_BATCH = 2


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings."""
    h = hashlib.blake2s(digest_size=8)
    for p in parts:
        if isinstance(p, str):
            h.update(b"s" + p.encode("utf-8"))
        else:
            h.update(b"i" + int(p).to_bytes(16, "little", signed=True))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class UniformNoise:
    """Additive scalar noise uniform on [-half_width, half_width] (function values)."""

    half_width: float

    def __post_init__(self):
        nonnegative("half_width", self.half_width)


@dataclass(frozen=True)
class GaussianNoise:
    """Additive N(0, cov_scale*I) noise (gradients)."""

    cov_scale: float

    def __post_init__(self):
        nonnegative("cov_scale", self.cov_scale)


@dataclass(frozen=True)
class SphereNoise:
    """Additive noise uniform on the sphere of the given radius (gradients)."""

    radius: float

    def __post_init__(self):
        nonnegative("radius", self.radius)


@dataclass(frozen=True)
class MinibatchSampling:
    """Replace the gradient with a minibatch estimate of the given size, at least 1."""

    batch: int

    def __post_init__(self):
        count("batch", self.batch, 1)


class NoisyOracle:
    """Counted noisy f/g access to a problem, plus an uncounted exact channel.

    ``fun_noise`` is None (exact values) or a UniformNoise; ``grad_noise`` is
    None (exact gradients) or a GaussianNoise, SphereNoise or
    MinibatchSampling.  The exact channel (``true_phi``, ``true_grad``) touches
    no counter.

    phi and grad are evaluated once per point across both channels: the oracle
    keeps the last point and value of each, and a call at a bitwise-identical x
    (same dtype, shape and bytes) reuses the value.  Counters and noise draws
    are as if every call evaluated the problem.
    """

    def __init__(self, problem, fun_noise=None, grad_noise=None, seed: int = 0):
        if not isinstance(fun_noise, (type(None), UniformNoise)):
            raise ValueError(f"unsupported function-noise model {fun_noise!r}")
        if not isinstance(grad_noise, (type(None), GaussianNoise, SphereNoise, MinibatchSampling)):
            raise ValueError(f"unsupported gradient-noise model {grad_noise!r}")
        if isinstance(grad_noise, MinibatchSampling) and problem.batch_grad is None:
            raise ValueError("minibatch sampling needs a problem with batch_grad")
        count("seed", seed)
        self.problem = problem
        self.fun_noise = fun_noise
        self.grad_noise = grad_noise
        self.seed = int(seed)
        self._rng_fun = np.random.default_rng([self.seed & (2**63 - 1), _STREAM_FUN])
        self._rng_grad = np.random.default_rng([self.seed & (2**63 - 1), _STREAM_GRAD])
        self._rng_batch = np.random.default_rng([self.seed & (2**63 - 1), _STREAM_BATCH])
        self._fun_evals = 0
        self._grad_evals = 0
        self._last = {"phi": (None, None), "grad": (None, None)}  # (key, value) per callable

    @property
    def x0(self) -> np.ndarray:
        return self.problem.x0

    @property
    def dim(self) -> int:
        return self.problem.dim

    @property
    def fun_evals(self) -> int:
        return self._fun_evals

    @property
    def grad_evals(self) -> int:
        return self._grad_evals

    def _eval(self, name, x):
        """problem.<name>(x), reused when the previous call was at the same bytes."""
        a = np.asarray(x)
        key = (a.dtype, a.shape, a.tobytes())
        last_key, value = self._last[name]
        if last_key != key:
            value = getattr(self.problem, name)(x)
            self._last[name] = (key, value)
        return value

    def f(self, x) -> float:
        """Noisy function value; increments the function-evaluation counter."""
        self._fun_evals += 1
        v = self._eval("phi", x)
        if self.fun_noise is not None:
            hw = self.fun_noise.half_width
            v = v + float(self._rng_fun.uniform(-hw, hw))
        return float(v)

    def g(self, x) -> np.ndarray:
        """Noisy gradient; increments the gradient-evaluation counter."""
        self._grad_evals += 1
        gn = self.grad_noise
        if isinstance(gn, MinibatchSampling):
            return self.problem.batch_grad(x, gn.batch, self._rng_batch)
        g = self._eval("grad", x)
        if isinstance(gn, GaussianNoise):
            g = g + np.sqrt(gn.cov_scale) * self._rng_grad.standard_normal(g.shape)
        elif isinstance(gn, SphereNoise):
            v = self._rng_grad.standard_normal(g.shape)
            nv = _norm(v)
            while nv == 0.0:  # pragma: no cover - essentially impossible
                v = self._rng_grad.standard_normal(g.shape)
                nv = _norm(v)
            g = g + (gn.radius / nv) * v
        else:
            g = g.copy()
        return g

    # exact channel: never counted, used for metrics and Newton baselines
    def true_phi(self, x) -> float:
        return float(self._eval("phi", x))

    def true_grad(self, x) -> np.ndarray:
        return self._eval("grad", x).copy()

    def hess(self, x) -> np.ndarray:
        if self.problem.hess is None:
            raise ValueError(f"problem {self.problem.name!r} has no Hessian")
        return self.problem.hess(x)
