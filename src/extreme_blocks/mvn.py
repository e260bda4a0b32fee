"""Univariate and multivariate normal CDF evaluation.

:func:`mvn_cdf` estimates a weighted sum of orthant probabilities of one
dimension d, sum_t w_t P(X_t <= upper_t) with X_t ~ N(0, cov_t); a plain
query is the one-term case. Each term is moved to the unit cube by the
separation-of-variables transform with greedy variable reordering by
expected truncation, and integrated with a randomized rank-1 lattice rule
(square-root-of-primes generators, baker's transform) under K random
shifts that all terms share. A term's lattice starts at 256 points per
shift and a doubling evaluates only its new points, each block of them
under all K shifts in one integrand call of at most 2**14 points in total.

The estimate under shift r is S_r = sum_t w_t mean_{t,r}; the value is the
mean of the S_r and the reported error is t_{K-1}(0.99865) sd(S) / sqrt(K),
the Student-t quantile at the coverage of three normal standard errors
(Genz & Bretz 2009): about 99.7% of queries fall within it, where the
factor 3 covered about 98.5% at K = 10 (t_9(0.99865) = 4.09). While the
error exceeds rel_tol times the value, the lattice of the term with the
largest w_t sd_r(mean_{t,r}) doubles, so a stack spends its points on the
terms that carry its variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtrit

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
    """Weighted orthant query sum_t w_t P(X_t <= upper_t), X_t ~ N(0, cov_t).

    A plain query P(X <= upper) has upper (d,) and cov (d, d); a stack of
    t terms has upper (t, d), cov (t, d, d) and nonnegative weights (t,),
    ones when omitted.
    """

    upper: np.ndarray
    cov: np.ndarray
    rel_tol: float = 1e-6
    weights: np.ndarray | None = None


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


def _stack(spec: MvnSpec):
    """The spec's terms as upper (t, d), cov (t, d, d) and weights (t,)."""
    upper = np.asarray(spec.upper, dtype=float)
    cov = np.asarray(spec.cov, dtype=float)
    if upper.ndim < 2:
        upper, cov = np.atleast_1d(upper)[None], np.atleast_2d(cov)[None]
    if upper.ndim != 2 or upper.size == 0:
        raise ValueError(f"upper must have shape (d,) or (t, d) with t, d >= 1, got {upper.shape}")
    t, d = upper.shape
    if cov.shape != (t, d, d):
        raise ValueError(f"covariance shape {cov.shape} does not match upper {upper.shape}")
    if np.any(np.isnan(upper)):  # an infinite bound is legal, a missing one is not
        raise ValueError("upper has a NaN entry")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance has a non-finite entry")
    weights = np.ones(t) if spec.weights is None else np.asarray(spec.weights, dtype=float)
    if weights.shape != (t,):
        raise ValueError(f"weights must have shape ({t},), got {weights.shape}")
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError("weights must be finite and nonnegative")
    return upper, cov, weights


def _add_points(L: np.ndarray, b: np.ndarray, q: np.ndarray, shifts: np.ndarray,
                sums: np.ndarray, lo: int, hi: int) -> None:
    """Add lattice points lo+1..hi under every shift to the per-shift sums.

    i*q + shift for i <= n is a prefix of the doubled lattice, so a doubling
    adds only its new half, a block of lattice points at a time under every
    shift at once.
    """
    k = shifts.shape[0]
    block = max(1, (1 << 14) // k)
    for a in range(lo, hi, block):
        w = np.arange(a + 1, min(a + block, hi) + 1, dtype=float)[:, None] * q + shifts[:, None, :]
        # baker's transform |2 frac(w) - 1|, in place
        w -= np.floor(w)
        w *= 2.0
        w -= 1.0
        np.abs(w, out=w)
        f = _integrand(L, b, w.reshape(-1, q.size))
        sums += f.reshape(k, -1).sum(axis=1)


def mvn_cdf(spec: MvnSpec, seed: int = 0,
            randomizations: int = 10,
            start_points: int = 256,
            max_points: int = 1 << 21) -> MvnResult:
    """Estimate sum_t w_t P(X_t <= upper_t) for X_t ~ N(0, cov_t).

    Dimension 1 delegates to :func:`std_normal_cdf` exactly, and a term
    with a -inf bound or weight 0 adds exactly 0. Otherwise each term's
    lattice starts at start_points and the lattice of the term with the
    largest weighted spread doubles, evaluating only the points it adds,
    until the t-quantile error estimate meets rel_tol relative accuracy or
    every term has reached max_points, in which case the best estimate is
    returned with ``converged=False``; ``points`` counts every evaluation.
    A rel_tol that is not finite and positive, fewer than two
    randomizations (no spread to estimate the error from), fewer than one
    start point, mismatched shapes, no term, or weights that are not
    finite and nonnegative raise ValueError; more than DIMENSION_CAP
    dimensions raise DimensionCapError.
    """
    if not 0.0 < spec.rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {spec.rel_tol}")
    if randomizations < 2:
        raise ValueError(f"randomizations must be at least 2, got {randomizations}")
    if start_points < 1:
        raise ValueError(f"start_points must be at least 1, got {start_points}")
    upper, cov, weights = _stack(spec)
    d = upper.shape[1]
    if d > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {d} exceeds the supported cap of {DIMENSION_CAP}")
    atol = 1e-12 * np.maximum(1.0, np.abs(cov).max(axis=(1, 2)))
    if not np.all(np.abs(cov - cov.transpose(0, 2, 1)) <= atol[:, None, None]):
        raise NotPDError("covariance matrix is not symmetric")

    if d == 1:
        if np.any(cov[:, 0, 0] <= 0):
            raise NotPDError("variance must be positive")
        val = sum(w * std_normal_cdf(x / math.sqrt(v))
                  for w, x, v in zip(weights, upper[:, 0], cov[:, 0, 0]))
        return MvnResult(float(val), 0.0, True, 0)

    live = [k for k in range(len(weights))
            if weights[k] > 0 and not np.any(np.isneginf(upper[k]))]
    if not live:
        return MvnResult(0.0, 0.0, True, 0)
    factors = [_ordered_cholesky(cov[k], upper[k]) for k in live]
    w = weights[live]
    q = np.sqrt(np.array(_PRIMES[: d - 1], dtype=float))

    rng = np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 128) - 1)))
    shifts = rng.random((randomizations, d - 1))
    t_quantile = float(stdtrit(randomizations - 1, 0.99865))

    sums = np.zeros((len(live), randomizations))
    n = np.full(len(live), start_points)  # lattice points per shift of each term
    for j, (L, b) in enumerate(factors):
        _add_points(L, b, q, shifts, sums[j], 0, start_points)
    while True:
        means = sums / n[:, None]
        per_shift = w @ means
        value = float(per_shift.mean())
        err = t_quantile * (float(per_shift.std(ddof=1)) / math.sqrt(randomizations))
        points = int(n.sum()) * randomizations
        if err <= spec.rel_tol * max(abs(value), _TINY):
            return MvnResult(value, err, True, points)
        room = n < max_points
        if not room.any():
            return MvnResult(value, err, False, points)
        j = int(np.argmax(np.where(room, w * means.std(axis=1), -1.0)))
        _add_points(*factors[j], q, shifts, sums[j], n[j], 2 * n[j])
        n[j] *= 2
