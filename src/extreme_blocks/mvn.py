"""Univariate and multivariate normal CDF evaluation.

The multivariate case uses the separation-of-variables transform to the
unit cube with greedy variable reordering by expected truncation, then
integrates with a randomized rank-1 lattice rule (square-root-of-primes
generators, baker's transform) over K independent random shifts. The
lattice starts at 256 points per shift and a doubling evaluates only its
new points; each block of new lattice points is evaluated for all K
shifts in one integrand call of at most 2**14 points in total. The
reported error estimate is three standard errors across the shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DimensionCapError, NotPDError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# square-root-of-primes lattice generators cover the dimension cap (25)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
           47, 53, 59, 61, 67, 71, 73, 79, 83, 89)

DIMENSION_CAP = 25
_TINY = 1e-300
_EPS = 1e-15


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


@dataclass(frozen=True)
class MvnSpec:
    """Upper-orthant query P(X <= upper) for X ~ N(0, cov)."""

    upper: np.ndarray
    cov: np.ndarray
    rel_tol: float = 1e-6


@dataclass(frozen=True)
class MvnResult:
    value: float
    error: float
    converged: bool
    points: int

    def __iter__(self):  # unpack as (probability, error_estimate)
        return iter((self.value, self.error))


def _ordered_cholesky(cov: np.ndarray, upper: np.ndarray):
    """Greedy reordering by expected truncation plus Cholesky factor.

    Returns (L, b) in the integration order: at each stage the variable
    with the smallest conditional upper-tail mass comes first, which
    concentrates variance in the leading integration dimensions.
    """
    d = cov.shape[0]
    c = cov.astype(float).copy()
    b = upper.astype(float).copy()
    L = np.zeros((d, d))
    y = np.zeros(d)

    for k in range(d):
        best, best_p = k, np.inf
        for i in range(k, d):
            denom = c[i, i] - L[i, :k] @ L[i, :k]
            if denom <= _EPS * max(c[i, i], 1.0):
                raise NotPDError("covariance matrix is not positive definite")
            s = (b[i] - L[i, :k] @ y[:k]) / math.sqrt(denom)
            p = ndtr(s)
            if p < best_p:
                best_p, best = p, i
        if best != k:
            c[[k, best], :] = c[[best, k], :]
            c[:, [k, best]] = c[:, [best, k]]
            L[[k, best], :] = L[[best, k], :]
            b[[k, best]] = b[[best, k]]

        dk = c[k, k] - L[k, :k] @ L[k, :k]
        if dk <= _EPS * max(c[k, k], 1.0):
            raise NotPDError("covariance matrix is not positive definite")
        L[k, k] = math.sqrt(dk)
        for i in range(k + 1, d):
            L[i, k] = (c[i, k] - L[i, :k] @ L[k, :k]) / L[k, k]

        sk = (b[k] - L[k, :k] @ y[:k]) / L[k, k]
        ek = max(float(ndtr(sk)), _TINY)
        # mean of a standard normal truncated to (-inf, sk]
        if math.isinf(sk):
            y[k] = 0.0
        else:
            y[k] = -math.exp(-0.5 * sk * sk) / (_SQRT_2PI * ek)
    return L, b


def _integrand(L: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Transformed integrand evaluated at a block of cube points.

    w has shape (npoints, d-1); returns per-point products of conditional
    probabilities.
    """
    d = L.shape[0]
    npts = w.shape[0]
    e = np.full(npts, ndtr(b[0] / L[0, 0]))
    prod = e.copy()
    ys = np.empty((npts, d - 1))
    for k in range(1, d):
        u = np.clip(w[:, k - 1] * e, _TINY, 1.0 - _EPS)
        ys[:, k - 1] = ndtri(u)
        arg = (b[k] - ys[:, :k] @ L[k, :k]) / L[k, k]
        e = ndtr(arg)
        prod *= e
    return prod


def mvn_cdf(spec: MvnSpec, seed: int = 0,
            randomizations: int = 10,
            start_points: int = 256,
            max_points: int = 1 << 21) -> MvnResult:
    """Estimate P(X <= upper) for X ~ N(0, cov).

    Dimension 1 delegates to :func:`std_normal_cdf` exactly. Otherwise the
    lattice size doubles, evaluating only the points it adds, until the
    three-standard-error estimate meets rel_tol relative accuracy or the
    point budget is exhausted, in which case the best estimate is returned
    with ``converged=False``; ``points`` counts every evaluation. A rel_tol
    that is not finite and positive, fewer than two randomizations (no
    spread to estimate the error from) or fewer than one start point raise
    ValueError; more than DIMENSION_CAP dimensions raise DimensionCapError.
    """
    if not 0.0 < spec.rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {spec.rel_tol}")
    if randomizations < 2:
        raise ValueError(f"randomizations must be at least 2, got {randomizations}")
    if start_points < 1:
        raise ValueError(f"start_points must be at least 1, got {start_points}")
    upper = np.atleast_1d(np.asarray(spec.upper, dtype=float))
    cov = np.atleast_2d(np.asarray(spec.cov, dtype=float))
    d = upper.shape[0]
    if cov.shape != (d, d):
        raise NotPDError(f"covariance shape {cov.shape} does not match dimension {d}")
    if d > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {d} exceeds the supported cap of {DIMENSION_CAP}")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
        raise NotPDError("covariance matrix is not symmetric")

    if d == 1:
        if cov[0, 0] <= 0:
            raise NotPDError("variance must be positive")
        val = std_normal_cdf(upper[0] / math.sqrt(cov[0, 0]))
        return MvnResult(val, 0.0, True, 0)

    if np.any(np.isneginf(upper)):
        return MvnResult(0.0, 0.0, True, 0)

    L, b = _ordered_cholesky(cov, upper)
    q = np.sqrt(np.array(_PRIMES[: d - 1], dtype=float))

    rng = np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 128) - 1)))
    shifts = rng.random((randomizations, d - 1))

    # i*q + shift for i <= n is a prefix of the doubled lattice: sum the new
    # half, a block of lattice points at a time under every shift at once
    sums = np.zeros(randomizations)
    block = max(1, (1 << 14) // randomizations)
    done, n = 0, start_points
    while True:
        for lo in range(done, n, block):
            iq = np.arange(lo + 1, min(lo + block, n) + 1, dtype=float)[:, None] * q
            w = np.abs(2.0 * np.modf(iq + shifts[:, None, :])[0] - 1.0)
            f = _integrand(L, b, w.reshape(-1, d - 1))
            sums += f.reshape(randomizations, -1).sum(axis=1)
        done = n
        means = sums / n
        value = float(means.mean())
        spread = float(means.std(ddof=1)) / math.sqrt(randomizations)
        err = 3.0 * spread
        if err <= spec.rel_tol * max(abs(value), _TINY):
            return MvnResult(value, err, True, n * randomizations)
        if n >= max_points:
            return MvnResult(value, err, False, n * randomizations)
        n *= 2
