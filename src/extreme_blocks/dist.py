"""Exact evaluation of the limiting tail-dependence laws.

Everything here is parameterized by a path-sum matrix restricted to the
node subset of interest: the stable tail dependence function as a sum of
anchored normal CDF terms, the max-stable and multivariate Pareto CDFs
derived from it, extremal coefficients, and the conditional-limit law
nu_u, the normal CDF of the Gaussian limit anchored at u.

Zero weights are handled by restriction: coordinates with weight zero are
dropped before evaluation, matching the continuous limits of the formulas.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroWeightsError,
    NonPositiveCoordinateError,
    SubsetTooSmallError,
)
from .model import GaussianLimit, PathSumMatrix
from .mvn import MvnResult, mvn_cdf

__all__ = [
    "stdf_hr_detailed",
    "hr_cdf_detailed",
    "pareto_cdf",
    "pareto_cdf_detailed",
    "extremal_coefficient",
    "extremal_coefficient_detailed",
    "nu_hr",
]


def _as_values(p: PathSumMatrix,
               values: Mapping[str, float] | Sequence[float]) -> tuple[PathSumMatrix, np.ndarray]:
    """Align (matrix, values); mappings select the node subset they cover."""
    if isinstance(values, Mapping):
        sub = p.restrict(values.keys())
        return sub, np.array([float(values[v]) for v in sub.nodes])
    arr = np.asarray(values, dtype=float)
    if arr.shape != (len(p.nodes),):
        raise ValueError("values and parameter nodes do not align")
    return p, arr


def stdf_hr_detailed(p: PathSumMatrix, weights: Mapping[str, float] | Sequence[float],
                     *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Stable tail dependence function with its quadrature error, points
    and converged flag: sum_s y_s * Phi_{m-1}(2 p_vs + ln(y_s / y_v),
    v != s; Psi_s) over the support of y, so max(y) <= value <= sum(y).

    The m anchored MVN terms are one weighted stack, evaluated by one
    :func:`mvn_cdf` call on a shared lattice, so the error is that of the
    pooled estimate rather than a sum of per-term errors; unpacks as
    (value, error)."""
    p, y = _as_values(p, weights)
    if not np.all((y >= 0) & (y < np.inf)):
        raise ValueError("weights must be finite and nonnegative")
    support = np.flatnonzero(y > 0)
    if support.size == 0:
        raise AllZeroWeightsError("stdf query needs at least one positive weight")
    if support.size == 1:
        return MvnResult(float(y[support[0]]), 0.0, True, 0)

    mat = p.values[np.ix_(support, support)]
    ys = y[support]
    logy = np.log(ys)
    # term s is P anchored at s (model._anchor), all m terms in one gather:
    # rest[s] lists the other nodes in order
    m = support.size
    rest = np.arange(m - 1) + (np.arange(m - 1) >= np.arange(m)[:, None])
    pu = mat[np.arange(m)[:, None], rest]
    cov = 2.0 * (pu[:, :, None] + pu[:, None, :] - mat[rest[:, :, None], rest[:, None, :]])
    upper = 2.0 * pu + (logy[:, None] - logy[rest])
    return mvn_cdf(upper, cov, ys, rel_tol=rel_tol, seed=seed)


def hr_cdf_detailed(p: PathSumMatrix,
                    x: Mapping[str, float] | Sequence[float],
                    *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Max-stable CDF H(x) = exp(-l(1/x)) at a strictly positive point,
    with the first-order error exp(-l) e_l of its stdf term, and that
    term's points and converged flag; exactly 1 where every x is +inf."""
    sub, point = _as_values(p, x)
    if np.any(point <= 0):
        raise NonPositiveCoordinateError("max-stable CDF needs strictly positive coordinates")
    if point.size and np.all(point == np.inf):
        return MvnResult(1.0, 0.0, True, 0)
    ell = stdf_hr_detailed(sub, 1.0 / point, rel_tol=rel_tol, seed=seed)
    h = math.exp(-ell.value)
    return MvnResult(h, h * ell.error, ell.converged, ell.points)


def pareto_cdf_detailed(p: PathSumMatrix,
                        z: Mapping[str, float] | Sequence[float],
                        *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Pareto CDF value with the first-order error of its three stdf terms,
    (e_floor + e_z + |v| e_one) / l(1) for the unclamped ratio v, where each
    e is a stdf's pooled error; points are summed over the stdfs evaluated
    and converged holds only when every stdf converged. When every z >= 1
    the floor term is l(1) itself and is evaluated once. Where every z is
    +inf, l(1/z) = l(0) = 0 and the CDF is exactly 1."""
    sub, zz = _as_values(p, z)
    if np.any(zz <= 0):
        raise NonPositiveCoordinateError("Pareto CDF needs strictly positive coordinates")
    if zz.size and np.all(zz == np.inf):
        return MvnResult(1.0, 0.0, True, 0)
    ys = [1.0 / zz, np.ones_like(zz)]
    if np.any(zz < 1.0):  # otherwise 1/min(z, 1) is exactly the ones of l(1)
        ys.insert(0, 1.0 / np.minimum(zz, 1.0))
    terms = [stdf_hr_detailed(sub, y, rel_tol=rel_tol, seed=seed) for y in ys]
    floor, at_z, one = terms if len(terms) == 3 else (terms[1], *terms)
    val = (floor.value - at_z.value) / one.value
    return MvnResult(min(max(val, 0.0), 1.0),
                     (floor.error + at_z.error + abs(val) * one.error) / one.value,
                     all(t.converged for t in terms),
                     sum(t.points for t in terms))


def pareto_cdf(p: PathSumMatrix,
               z: Mapping[str, float] | Sequence[float],
               *, rel_tol: float = 1e-6, seed: int = 0) -> float:
    """Multivariate Pareto CDF derived from the max-stable limit G:

        [ln G(min(z, 1)) - ln G(z)] / ln G(1, ..., 1)

    which in stdf terms is [l(1/min(z,1)) - l(1/z)] / l(1).
    """
    return pareto_cdf_detailed(p, z, rel_tol=rel_tol, seed=seed).value


def extremal_coefficient_detailed(p: PathSumMatrix, A: Iterable[str],
                                  *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Extremal coefficient as the stdf's MvnResult (value, error, points,
    converged)."""
    subset = sorted(set(A))
    if len(subset) < 2:
        raise SubsetTooSmallError("extremal coefficient needs at least two nodes")
    return stdf_hr_detailed(p.restrict(subset), np.ones(len(subset)), rel_tol=rel_tol, seed=seed)


def extremal_coefficient(p: PathSumMatrix, A: Iterable[str],
                         *, rel_tol: float = 1e-6, seed: int = 0) -> float:
    """stdf at the 0/1 indicator of the subset A; ranges from 1
    (comonotone) to |A| (independence)."""
    return extremal_coefficient_detailed(p, A, rel_tol=rel_tol, seed=seed).value


def nu_hr(p: PathSumMatrix, u: str, x: Mapping[str, float],
          *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Conditional-limit mass nu_u([0, x]) at bounds x on nodes other than u.

    Given X_u above a high threshold, the field over X_u tends to exp(W)
    with W ~ N(-2 p_u., Sigma_u), the :class:`GaussianLimit` at u, so the
    mass is Phi(ln x + 2 p_u.; Sigma_u): one :func:`mvn_cdf` call on the
    path sums restricted to u and x's nodes. One node is exact and
    evaluates no points.
    """
    if not x or u in x:
        raise ValueError("x must bound at least one node, and not the anchor")
    lim = GaussianLimit.from_path_sums(p.restrict([u, *x]), u)
    bound = np.array([float(x[v]) for v in lim.nodes])
    if not np.all(bound > 0):
        raise NonPositiveCoordinateError("nu needs strictly positive bounds")
    return mvn_cdf(np.log(bound) - lim.mean, lim.cov, rel_tol=rel_tol, seed=seed)
