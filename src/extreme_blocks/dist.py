"""Exact evaluation of the limiting tail-dependence laws.

Everything here is parameterized by a path-sum matrix restricted to the
node subset of interest: the stable tail dependence function as a sum of
anchored normal CDF terms, the max-stable and multivariate Pareto CDFs
derived from it, extremal coefficients, and the conditional-limit margin
obtained by differentiating the stdf in its first argument.

Zero weights are handled by restriction: coordinates with weight zero are
dropped before evaluation, matching the continuous limits of the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroWeightsError,
    DifferentiationUnstableError,
    NonPositiveCoordinateError,
    SubsetTooSmallError,
)
from .model import PathSumMatrix, _anchor, clique_limit_params
from .mvn import MvnSpec, MvnResult, mvn_cdf, std_normal_cdf

__all__ = [
    "StdfQuery",
    "stdf_hr",
    "stdf_hr_detailed",
    "hr_cdf",
    "hr_cdf_detailed",
    "pareto_cdf",
    "pareto_cdf_detailed",
    "extremal_coefficient",
    "extremal_coefficient_detailed",
    "clique_limit_params",
    "nu_from_stdf",
    "std_normal_cdf",
    "mvn_cdf",
    "MvnSpec",
    "MvnResult",
]


@dataclass(frozen=True)
class StdfQuery:
    """Nonnegative weights over a node subset plus the matching path sums."""

    param: PathSumMatrix
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.param.nodes),):
            raise ValueError("weights and parameter nodes do not align")
        if np.any(w < 0) or np.any(~np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "weights", w)


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


def _as_query(p: PathSumMatrix, values: Mapping[str, float] | Sequence[float]) -> StdfQuery:
    return StdfQuery(*_as_values(p, values))


def stdf_hr_detailed(p: PathSumMatrix | StdfQuery,
                     weights: Mapping[str, float] | Sequence[float] | None = None,
                     *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """stdf value with its quadrature error, points and converged flag.

    The m anchored MVN terms are one weighted stack, evaluated by one
    :func:`mvn_cdf` call on a shared lattice, so the error is that of the
    pooled estimate rather than a sum of per-term errors; unpacks as
    (value, error)."""
    q = p if isinstance(p, StdfQuery) else _as_query(p, weights)
    y = q.weights
    support = np.flatnonzero(y > 0)
    if support.size == 0:
        raise AllZeroWeightsError("stdf query needs at least one positive weight")
    if support.size == 1:
        return MvnResult(float(y[support[0]]), 0.0, True, 0)

    mat = q.param.values[np.ix_(support, support)]
    ys = y[support]
    logy = np.log(ys)
    anchored = [_anchor(mat, si) for si in range(support.size)]
    upper = np.array([2.0 * row + (logy[si] - np.delete(logy, si))
                      for si, (row, _) in enumerate(anchored)])
    cov = np.array([psi for _, psi in anchored])
    return mvn_cdf(MvnSpec(upper, cov, rel_tol=rel_tol, weights=ys), seed=seed)


def stdf_hr(p: PathSumMatrix | StdfQuery,
            weights: Mapping[str, float] | Sequence[float] | None = None,
            *, rel_tol: float = 1e-6, seed: int = 0) -> float:
    """Stable tail dependence function of the max-stable limit.

    Evaluates sum_s y_s * Phi_{m-1}(2 p_vs + ln(y_s / y_v), v != s; Psi_s)
    over the support of the weight vector. Satisfies
    max(y) <= value <= sum(y).
    """
    return stdf_hr_detailed(p, weights, rel_tol=rel_tol, seed=seed).value


def hr_cdf_detailed(p: PathSumMatrix,
                    x: Mapping[str, float] | Sequence[float],
                    *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Max-stable CDF value exp(-l) with the first-order error exp(-l) e_l
    of its stdf term, and that term's points and converged flag."""
    sub, point = _as_values(p, x)
    if np.any(point <= 0):
        raise NonPositiveCoordinateError("max-stable CDF needs strictly positive coordinates")
    ell = stdf_hr_detailed(StdfQuery(sub, 1.0 / point), rel_tol=rel_tol, seed=seed)
    h = math.exp(-ell.value)
    return MvnResult(h, h * ell.error, ell.converged, ell.points)


def hr_cdf(p: PathSumMatrix,
           x: Mapping[str, float] | Sequence[float],
           *, rel_tol: float = 1e-6, seed: int = 0) -> float:
    """Max-stable CDF H(x) = exp(-l(1/x)) at a strictly positive point."""
    return hr_cdf_detailed(p, x, rel_tol=rel_tol, seed=seed).value


def pareto_cdf_detailed(p: PathSumMatrix,
                        z: Mapping[str, float] | Sequence[float],
                        *, rel_tol: float = 1e-6, seed: int = 0) -> MvnResult:
    """Pareto CDF value with the first-order error of its three stdf terms,
    (e_floor + e_z + |v| e_one) / l(1) for the unclamped ratio v, where each
    e is a stdf's pooled error; points are summed over the stdfs evaluated
    and converged holds only when every stdf converged. When every z >= 1
    the floor term is l(1) itself and is evaluated once."""
    sub, zz = _as_values(p, z)
    if np.any(zz <= 0):
        raise NonPositiveCoordinateError("Pareto CDF needs strictly positive coordinates")
    ys = [1.0 / zz, np.ones_like(zz)]
    if np.any(zz < 1.0):  # otherwise 1/min(z, 1) is exactly the ones of l(1)
        ys.insert(0, 1.0 / np.minimum(zz, 1.0))
    terms = [stdf_hr_detailed(StdfQuery(sub, y), rel_tol=rel_tol, seed=seed) for y in ys]
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
    sub = p.restrict(subset)
    return stdf_hr_detailed(StdfQuery(sub, np.ones(len(subset))), rel_tol=rel_tol, seed=seed)


def extremal_coefficient(p: PathSumMatrix, A: Iterable[str],
                         *, rel_tol: float = 1e-6, seed: int = 0) -> float:
    """stdf at the 0/1 indicator of the subset A; ranges from 1
    (comonotone) to |A| (independence)."""
    return extremal_coefficient_detailed(p, A, rel_tol=rel_tol, seed=seed).value


def nu_from_stdf(ell: Callable[[np.ndarray], float],
                 x: Sequence[float],
                 *, step: float | None = None) -> float:
    """Conditional-limit CDF mass nu_1([0, x]) from a stdf evaluator.

    Computes the partial derivative of ell in its first argument at
    (1, 1/x_2, ..., 1/x_d) by central differences with a two-stage step
    refinement; the refinements must approach a limit monotonically,
    otherwise the quotient is deemed unstable. The result is clamped
    to [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise NonPositiveCoordinateError("evaluation point must be strictly positive")
    tail = 1.0 / x
    arg = np.concatenate(([1.0], tail))
    h0 = (step if step is not None else 1e-5) * max(1.0, float(np.abs(arg).max()))

    def central(h: float) -> float:
        hi = arg.copy()
        lo = arg.copy()
        hi[0] += h
        lo[0] -= h
        return (ell(hi) - ell(lo)) / (2.0 * h)

    d1 = central(h0)
    d2 = central(h0 / 2.0)
    d3 = central(h0 / 4.0)
    s12, s23 = d2 - d1, d3 - d2
    if s12 * s23 < 0 and abs(s23) > 1e-9:
        raise DifferentiationUnstableError(
            f"difference quotients do not refine monotonically: {d1}, {d2}, {d3}"
        )
    richardson = (4.0 * d3 - d2) / 3.0
    return min(max(richardson, 0.0), 1.0)
