"""Univariate and multivariate normal CDF evaluation.

:func:`mvn_cdf` evaluates a weighted sum of orthant probabilities of one
dimension d, sum_t w_t P(X_t <= upper_t) with X_t ~ N(0, cov_t); a plain
query is the one-term case. Which path serves a stack depends on d:

- d = 1 is the normal CDF, exact with error 0.
- d = 2 is Owen's T closed form of each term (Owen 1956), and d = 3 one
  Gauss-Legendre line over a bivariate term (Genz 2004). Their error is a
  deterministic bound: the rounding of the Owen's T evaluations, plus for
  d = 3 the difference of a 20- and a 40-node rule. No lattice point is
  spent. Where that bound misses rel_tol times the value (far tails,
  correlations near +-1, a very tight rel_tol), the stack falls through
  to the lattice unchanged.
- Otherwise, and for d >= 4, each term is moved to the unit cube by the
  separation-of-variables transform with greedy variable reordering by
  expected truncation, and integrated with a randomized embedded rank-1
  lattice rule {k z / n : k < n} (a component-by-component generating
  vector z for n = 2**8..2**16, Cools, Kuo & Nuyens 2006; baker's
  transform) under K = 20 random shifts that all terms share. A term's
  lattice starts at 128 points per shift and grows to at most 2**20
  (20,971,520 rows under the 20 shifts). The n-point lattice is the even
  half of the 2n-point one, so a doubling evaluates only the odd k, each
  block of them under all K shifts in one integrand call of at most
  2**14 points in total. All terms start on the same points, so a
  stack's start lattice is laid once and integrated term by term. The
  reordering and Cholesky factor of a term (at most 25 x 25) run on
  Python floats: at that size a numpy call costs more than its arithmetic.

On the lattice the estimate under shift r is S_r = sum_t w_t mean_{t,r};
the value is the mean of the S_r and the reported error is
t_{K-1}(0.99865) sd(S) / sqrt(K), the Student-t quantile at the coverage
of three normal standard errors (Genz & Bretz 2009): about 99.7% of
queries fall within it (t_19(0.99865) = 3.45). While the error exceeds
rel_tol times the value, the lattice of the term with the largest
w_t sd_r(mean_{t,r}) doubles, so a stack spends its points on the terms
that carry its variance.

Only the kernels that evaluate normal CDFs and quantiles import
scipy.special, on first use, so loading the package (and every CLI
command that computes no normal CDF) does not pay for scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, NotPDError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Generating vector of an embedded rank-1 lattice in base 2, one component
# per cube coordinate up to the dimension cap (25): a component-by-component
# search for 2**8..2**16 points with weights 1/j**2 (Cools, Kuo & Nuyens
# 2006); tests/oracle.py:embedded_cbc re-derives it.
_LATTICE_Z = np.array((1, 44437, 2787, 36997, 35205, 43099, 2531, 17659, 22707, 7723,
                       48781, 29795, 16951, 8045, 19803, 8851, 39635, 48935, 38199,
                       17353, 13691, 63993, 60993, 10365), dtype=np.uint64)
# The largest start_points or max_points: a lattice then stays below 2**32
# points, so the numerators (k z mod n) k stay below 2**64.
_MAX_LATTICE = 1 << 31

DIMENSION_CAP = 25
_TINY = 1e-300
_EPS = 1e-15
_ULP = float(np.finfo(float).eps)

# Past this bound the normal tail underflows, so it stands in for +inf.
_BIG = 40.0
# The trivariate line is cut at +-_LINE, which drops at most
# _CUT = Phi(-_LINE), scipy's ndtr(-8.5) written out so that importing the
# module loads no scipy (math.erfc is about 1e-14 off it, relative).
_LINE = 8.5
_CUT = 9.47953482220325e-18
_GL_SPLIT = 20


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the usual cosine guesses; no eigensolver,
    whose first call would add about 1 MB to the process (numpy's
    leggauss), or 7 MB of scipy.linalg (scipy's roots_legendre).
    """
    def legendre(x):  # P_n(x) and P_n'(x) by the three-term recurrence
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# the 20- and 40-node rules side by side
_GL_NODES, _GL_WEIGHTS = (np.concatenate(a) for a in zip(
    _gauss_legendre(_GL_SPLIT), _gauss_legendre(2 * _GL_SPLIT)))


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / _SQRT2)


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
    concentrates variance in the leading integration dimensions. The
    factorization runs on Python floats, a term being at most 25 x 25:
    each candidate's sums L[i, :k] @ L[i, :k] and L[i, :k] @ y[:k] grow by
    one product per stage, left to right, and the normal CDF is
    0.5 erfc(-s / sqrt 2), so no numpy or scipy call is paid per entry.
    """
    d = len(upper)
    c = cov.tolist()
    b = upper.tolist()
    at = list(range(d))  # the variable of cov at each position
    L = [[0.0] * d for _ in range(d)]
    y = [0.0] * d
    sq = [0.0] * d  # L[i, :k] @ L[i, :k] of the variable at position i
    ly = [0.0] * d  # L[i, :k] @ y[:k]

    for k in range(d):
        best, best_p = k, math.inf
        for i in range(k, d):
            var = c[at[i]][at[i]]
            denom = var - sq[i]
            if denom <= _EPS * max(var, 1.0):
                raise NotPDError("covariance matrix is not positive definite")
            s = (b[i] - ly[i]) / math.sqrt(denom)
            p = 0.5 * math.erfc(-s / _SQRT2)
            if p < best_p:
                best_p, best, pivot = p, i, denom
        if best != k:
            for row in (at, L, b, sq, ly):
                row[k], row[best] = row[best], row[k]

        lk = L[k]
        lkk = lk[k] = math.sqrt(pivot)
        sk = (b[k] - ly[k]) / lkk
        ek = max(0.5 * math.erfc(-sk / _SQRT2), _TINY)
        # mean of a standard normal truncated to (-inf, sk]
        y[k] = 0.0 if math.isinf(sk) else -math.exp(-0.5 * sk * sk) / (_SQRT_2PI * ek)
        ck = at[k]
        for i in range(k + 1, d):
            li = L[i]
            acc = 0.0
            for j in range(k):
                acc += li[j] * lk[j]
            lik = li[k] = (c[at[i]][ck] - acc) / lkk
            sq[i] += lik * lik
            ly[i] += lik * y[k]
    return np.array(L), np.array(b)


def _integrand(L: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Transformed integrand evaluated at a block of cube points.

    w has shape (d-1, npoints), one contiguous row per cube coordinate;
    returns per-point products of conditional probabilities.
    """
    from scipy.special import ndtr, ndtri

    d = L.shape[0]
    npts = w.shape[1]
    e = np.full(npts, ndtr(b[0] / L[0, 0]))
    prod = e.copy()
    ys = np.empty((d - 1, npts))
    arg = np.empty(npts)
    for k in range(1, d):
        np.multiply(w[k - 1], e, out=arg)
        np.clip(arg, _TINY, 1.0 - _EPS, out=arg)
        ndtri(arg, out=ys[k - 1])
        arg = L[k, :k] @ ys[:k]
        np.subtract(b[k], arg, out=arg)
        arg /= L[k, k]
        ndtr(arg, out=e)
        prod *= e
    return prod


def _stack(upper, cov, weights):
    """The query's terms as upper (t, d), cov (t, d, d) and weights (t,)."""
    upper = np.asarray(upper, dtype=float)
    cov = np.asarray(cov, dtype=float)
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
    weights = np.ones(t) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (t,):
        raise ValueError(f"weights must have shape ({t},), got {weights.shape}")
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError("weights must be finite and nonnegative")
    return upper, cov, weights


def _lattice_numerators(z: np.ndarray, lo: int, hi: int, block: int):
    """Numerators (k z mod hi) of the points that take a rank-1 lattice
    from lo to hi points, in blocks of at most block points, (d-1, points).

    From lo = 0 these are every k < hi; a doubling, hi = 2 lo, adds the odd
    k, since the even ones are the lo-point lattice. The arithmetic is
    exact in uint64 for hi <= 2**32.
    """
    first, step = (0, 1) if lo == 0 else (1, 2)
    zn = z % np.uint64(hi)
    for a in range(first, hi, step * block):
        k = np.arange(a, min(a + step * block, hi), step, dtype=np.uint64)
        yield np.multiply.outer(zn, k) % np.uint64(hi)


def _add_points(factors, z: np.ndarray, shifts: np.ndarray, sums: np.ndarray,
                lo: int, hi: int) -> None:
    """Add the points that grow the lattices of the terms in factors, a
    list of (L, b), from lo to hi points, under every shift, to their
    per-shift sums, one row of sums per term.

    The hi-point lattice {k z / hi} holds the lo-point one, so a doubling
    evaluates only its new points, a block of them under every shift at
    once, at most 2**14 rows per integrand call; each shifted point is
    folded by the baker's transform |2 frac(x) - 1|. Each block is laid
    once and integrated term by term, so a term's sums get the same bits
    as when it is passed alone.
    """
    k = shifts.shape[0]
    for num in _lattice_numerators(z, lo, hi, max(1, (1 << 14) // k)):
        # (d-1, shift, point): each coordinate's row runs shift by shift
        w = (num / hi)[:, None, :] + shifts.T[:, :, None]
        w -= np.floor(w)
        w *= 2.0
        w -= 1.0
        np.abs(w, out=w)
        w = w.reshape(z.size, -1)
        for (L, b), term_sums in zip(factors, sums):
            term_sums += _integrand(L, b, w).reshape(k, -1).sum(axis=1)


def _bvn(h: np.ndarray, k: np.ndarray, r: np.ndarray):
    """Phi_2(h, k; r) by Owen's T, elementwise, and a bound on its error.

    Phi_2 = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta with
    a_h = (k - r h) / (h s), a_k = (h - r k) / (k s), s = sqrt(1 - r^2),
    and beta = 1/2 when min(h, k) < 0 <= max(h, k) (Owen 1956). At h = 0,
    a_h is its limit from above, +-inf, and at h = k = 0 both slopes are
    (1 - r) / s. A +inf bound is replaced by _BIG. The bound allows each
    T(h, a) an error of 32 + 16 h^2 ulps of T(h, inf) = Phi(-|h|)/2 and
    each summand 8 ulps; where s = 0, which the formula cannot serve, it
    is 1 + |value|. Against 40-digit quadrature at 1,500 random h in
    [-38, 38], |a| in [1e-6, 1e6], scipy's owens_t erred by at most 2.3,
    10, 49 and 865 ulps of T(h, inf) for |h| below 1, 4, 8 and 40.
    """
    from scipy.special import ndtr, owens_t

    # a subnormal bound is 0 to double precision, and divides badly
    h, k = (np.where(np.abs(b) < _TINY, 0.0, np.minimum(b, _BIG)) for b in (h, k))
    s = np.sqrt((1.0 - r) * (1.0 + r))
    flat = s == 0.0
    s = np.where(flat, 1.0, s)
    both_zero = (h == 0.0) & (k == 0.0)

    def owen_t(x, y):
        # where (y - r x) / (x s) overflows, x = 0 included, the slope is
        # its limit +-inf, with x = 0 taken from above
        num, den = y - r * x, x * s
        a = np.where(both_zero, (1.0 - r) / s, np.copysign(np.inf, np.where(x < 0.0, -num, num)))
        finite = ~both_zero & (np.abs(num) < 1e300 * np.abs(den))
        return owens_t(x, np.divide(num, den, out=a, where=finite))

    th, tk = owen_t(h, k), owen_t(k, h)
    beta = np.where((np.minimum(h, k) < 0.0) & (np.maximum(h, k) >= 0.0), 0.5, 0.0)
    ph, pk = 0.5 * ndtr(h), 0.5 * ndtr(k)
    value = ph + pk - th - tk - beta
    t_err = sum((32.0 + 16.0 * x * x) * (0.5 * ndtr(-np.abs(x))) for x in (h, k))
    err = _ULP * (t_err + 8.0 * (ph + pk + np.abs(th) + np.abs(tk) + beta)) + _TINY
    return value, np.where(flat, 1.0 + np.abs(value), err)


def _tvn(h: np.ndarray, r: np.ndarray):
    """Phi_3(h_t; r_t) of correlation matrices r_t, with an error bound.

    Given X_i = x, the other two bounds are (h_j - r_ij x) / s_ij and
    (h_k - r_ik x) / s_ik with correlation (r_jk - r_ij r_ik) / (s_ij s_ik),
    s_ij = sqrt(1 - r_ij^2); i is the variable whose largest correlation
    is smallest, so the bivariate factor is as smooth as the term allows.
    The line integral of phi(x) Phi_2 runs over x <= h_i when h_i <= 0,
    and over x > h_i, subtracted from Phi_2(h_j, h_k; r_jk), when h_i > 0,
    so it never spans more than _LINE, where it is cut. It is integrated by
    20- and 40-node Gauss-Legendre rules; the value is the 40-node rule
    and the error the rules' difference plus the bounds of the Phi_2
    values, the rounding and the cut.
    """
    rows = np.arange(len(h))
    off = np.abs(r) * (1.0 - np.eye(3))
    i = np.argmin(off.max(axis=2), axis=1)
    j, k = (i + 1) % 3, (i + 2) % 3
    rij, rik, rjk = r[rows, i, j], r[rows, i, k], r[rows, j, k]
    sj, sk = np.sqrt((1.0 - rij) * (1.0 + rij)), np.sqrt((1.0 - rik) * (1.0 + rik))
    rc = np.clip((rjk - rij * rik) / (sj * sk), -1.0, 1.0)
    hi, hj, hk = h[rows, i], h[rows, j], h[rows, k]
    above = hi > 0.0
    lo = np.where(above, np.minimum(hi, _LINE), -_LINE)
    half = 0.5 * (np.where(above, _LINE, np.maximum(hi, -_LINE)) - lo)
    x = (lo + half)[:, None] + half[:, None] * _GL_NODES
    # the line's bivariate factors, then Phi_2(h_j, h_k; r_jk) in the last column
    f, e = _bvn(np.column_stack([(hj[:, None] - rij[:, None] * x) / sj[:, None], hj]),
                np.column_stack([(hk[:, None] - rik[:, None] * x) / sk[:, None], hk]),
                np.column_stack([np.broadcast_to(rc[:, None], x.shape), rjk]))
    wphi = (half / _SQRT_2PI)[:, None] * _GL_WEIGHTS * np.exp(-0.5 * x * x)
    wf = wphi * f[:, :-1]
    coarse, fine = wf[:, :_GL_SPLIT].sum(axis=1), wf[:, _GL_SPLIT:].sum(axis=1)
    bound = (wphi * e[:, :-1])[:, _GL_SPLIT:].sum(axis=1) + 64.0 * _ULP * np.abs(fine) + _CUT
    value = np.where(above, f[:, -1] - fine, fine)
    return value, np.abs(fine - coarse) + bound + np.where(above, e[:, -1], 0.0)


def _closed_form(upper: np.ndarray, cov: np.ndarray, weights: np.ndarray,
                 rel_tol: float) -> MvnResult | None:
    """The live d = 2 or 3 stack from its closed form, with points 0, or
    None when the closed forms' error bound misses rel_tol times the value."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPDError("covariance matrix is not positive definite") from None
    var = np.diagonal(cov, axis1=1, axis2=2)
    if np.any(np.diagonal(chol, axis1=1, axis2=2) ** 2 <= _EPS * np.maximum(var, 1.0)):
        raise NotPDError("covariance matrix is not positive definite")
    sd = np.sqrt(var)
    h, r = upper / sd, cov / (sd[:, :, None] * sd[:, None, :])
    terms, errors = _bvn(h[:, 0], h[:, 1], r[:, 0, 1]) if upper.shape[1] == 2 else _tvn(h, r)
    value, error = float(weights @ terms), float(weights @ errors)
    if not error <= rel_tol * max(abs(value), _TINY):
        return None
    return MvnResult(value, error, True, 0)


def _lattice_sum(upper: np.ndarray, cov: np.ndarray, weights: np.ndarray,
                 rel_tol: float, seed: int, randomizations: int,
                 start_points: int, max_points: int) -> MvnResult:
    """The randomized lattice estimate of a validated, live (t, d) stack,
    t >= 1, d >= 2.

    Each term's lattice {k z / n} starts at n = start_points under every
    shift, on points laid once for the whole stack, and the lattice of the
    term with the largest weighted spread doubles, evaluating only its odd
    k, until the t-quantile error meets rel_tol or every term has reached
    max_points (``converged=False``); ``points`` counts every integrand
    row."""
    from scipy.special import stdtrit

    d = upper.shape[1]
    factors = [_ordered_cholesky(c, b) for c, b in zip(cov, upper)]
    z = _LATTICE_Z[: d - 1]

    rng = np.random.Generator(np.random.Philox(key=seed))
    shifts = rng.random((randomizations, d - 1))
    t_quantile = float(stdtrit(randomizations - 1, 0.99865))

    # every term starts on the same points, laid once for the stack
    sums = np.zeros((len(weights), randomizations))
    _add_points(factors, z, shifts, sums, 0, start_points)
    n = np.full(len(weights), start_points)  # lattice points per shift of each term
    while True:
        means = sums / n[:, None]
        per_shift = weights @ means
        value = float(per_shift.mean())
        err = t_quantile * (float(per_shift.std(ddof=1)) / math.sqrt(randomizations))
        points = int(n.sum()) * randomizations
        if err <= rel_tol * max(abs(value), _TINY):
            return MvnResult(value, err, True, points)
        room = n < max_points
        if not room.any():
            return MvnResult(value, err, False, points)
        j = int(np.argmax(np.where(room, weights * means.std(axis=1), -1.0)))
        _add_points(factors[j:j + 1], z, shifts, sums[j:j + 1], n[j], 2 * n[j])
        n[j] *= 2


def _check_seed(seed) -> int:
    """A seed is an integer in [0, 2**64); anything else raises ValueError."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def mvn_cdf(upper, cov, weights=None, *, rel_tol: float = 1e-6, seed: int = 0,
            randomizations: int = 20, start_points: int = 128, max_points: int = 1 << 20) -> MvnResult:
    """Evaluate sum_t w_t P(X_t <= upper_t) for X_t ~ N(0, cov_t).

    A plain query P(X <= upper) passes upper (d,) and cov (d, d); a stack
    of t terms passes upper (t, d), cov (t, d, d) and nonnegative weights
    (t,), ones when omitted. A term with a -inf bound or weight 0 adds
    exactly 0: once the stack passes the checks below, such terms are
    dropped, so no variance or factor of theirs is tested, and a stack of
    none returns 0 with error 0 and no points. Dimension 1 delegates to
    :func:`std_normal_cdf` exactly. Dimensions 2 and 3 use the closed
    forms (Owen's T; one Gauss-Legendre line over it) whenever their
    deterministic error bound, reported as ``error``, meets rel_tol
    relative accuracy; these closed forms and d = 1 report ``points`` 0.
    Otherwise each term's embedded rank-1 lattice starts at start_points
    per shift, under randomizations random shifts drawn from seed, and the
    lattice of the term with the largest weighted spread doubles,
    evaluating only the points it adds, until the t-quantile error
    estimate meets rel_tol or every term has reached max_points per
    shift, in which case the best estimate is returned with
    ``converged=False``; ``points`` counts every lattice row evaluated.
    A rel_tol that is not finite and positive, a seed that is not an
    integer in [0, 2**64), fewer than two randomizations (no spread to
    estimate the error from), fewer than one start point, a start_points
    or max_points above 2**31 (the lattice arithmetic is exact in 64 bits
    only below 2**32 points), mismatched shapes, no term, or weights that
    are not finite and nonnegative raise ValueError; more than
    DIMENSION_CAP dimensions raise DimensionCapError.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    seed = _check_seed(seed)
    if randomizations < 2:
        raise ValueError(f"randomizations must be at least 2, got {randomizations}")
    if start_points < 1:
        raise ValueError(f"start_points must be at least 1, got {start_points}")
    for name, value in (("start_points", start_points), ("max_points", max_points)):
        if value > _MAX_LATTICE:
            raise ValueError(f"{name} must be at most 2**31, got {value}")
    upper, cov, weights = _stack(upper, cov, weights)
    d = upper.shape[1]
    if d > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {d} exceeds the supported cap of {DIMENSION_CAP}")
    atol = 1e-12 * np.maximum(1.0, np.abs(cov).max(axis=(1, 2)))
    if not np.all(np.abs(cov - cov.transpose(0, 2, 1)) <= atol[:, None, None]):
        raise NotPDError("covariance matrix is not symmetric")
    live = (weights > 0) & ~np.isneginf(upper).any(axis=1)
    if not live.any():
        return MvnResult(0.0, 0.0, True, 0)
    upper, cov, weights = upper[live], cov[live], weights[live]

    if d == 1:
        if np.any(cov[:, 0, 0] <= 0):
            raise NotPDError("variance must be positive")
        val = sum(w * std_normal_cdf(x / math.sqrt(v))
                  for w, x, v in zip(weights, upper[:, 0], cov[:, 0, 0]))
        return MvnResult(float(val), 0.0, True, 0)

    if d <= 3:
        exact = _closed_form(upper, cov, weights, rel_tol)
        if exact is not None:
            return exact
    return _lattice_sum(upper, cov, weights, rel_tol, seed,
                        randomizations, start_points, max_points)
