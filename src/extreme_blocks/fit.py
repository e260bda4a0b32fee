"""Moment-based estimation of edge parameters from multivariate samples.

Pipeline: standardize margins to unit Pareto by ranks, collect log-spacings
above per-anchor thresholds, form empirical covariances, and match them to
the model covariances, which are linear in the squared edge parameters.
The resulting nonnegativity-constrained linear least-squares problem is
never stacked: each anchor's upper-triangle rows are folded into one
(|E|+1)-square triangular factor of [design | target], whose SVD decides
identifiability and on which a Lawson-Hanson active-set iteration runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    ConstantColumnError,
    KOutOfRangeError,
    ScaleError,
    UnderdeterminedError,
    UnknownNodeError,
)
from .graph import BlockGraph, Edge
from .model import _anchor, _path_incidence


@dataclass(frozen=True)
class SampleSet:
    """n x |V| data matrix with node order and marginal-scale tag."""

    data: np.ndarray
    nodes: tuple[str, ...]
    scale: str = "raw"  # "raw" or "pareto"

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.nodes):
            raise ValueError("data shape does not match the node list")
        if data.shape[0] < 2:
            raise ValueError("need at least two observations")
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains missing or non-finite entries")
        if self.scale not in ("raw", "pareto"):
            raise ValueError(f"unknown scale tag {self.scale!r}")
        if self.scale == "pareto" and np.any(data <= 0):
            raise ValueError("pareto-scale data must be strictly positive")
        object.__setattr__(self, "data", data)

    def column(self, v: str) -> np.ndarray:
        try:
            return self.data[:, self.nodes.index(v)]
        except ValueError:
            raise UnknownNodeError(f"unknown node {v!r}") from None


def _average_ranks(col: np.ndarray) -> np.ndarray:
    """Ranks 1..n of the entries of col; tied entries share the mean rank of their run."""
    order = np.argsort(col, kind="stable")
    ordered = col[order]
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[start[1:], len(col)]
    ranks = np.empty(len(col))
    ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
    return ranks


def rank_transform(s: SampleSet) -> SampleSet:
    """Empirical standardization to the unit-Pareto scale.

    Each entry becomes (n+1) / (n+1-r) with r the within-column rank
    (average for ties), so monotone transformations of a column leave
    the result unchanged and the largest value maps to n+1.
    """
    if s.scale != "raw":
        raise ScaleError("rank_transform expects raw-scale data")
    n = s.data.shape[0]
    out = np.empty_like(s.data)
    for j in range(s.data.shape[1]):
        col = s.data[:, j]
        if np.all(col == col[0]):
            raise ConstantColumnError(f"column {s.nodes[j]!r} is constant")
        r = _average_ranks(col)
        out[:, j] = (n + 1.0) / (n + 1.0 - r)
    return SampleSet(out, s.nodes, "pareto")


def log_spacings(s: SampleSet, u: str, k: int) -> np.ndarray:
    """Rows (ln X_v - ln X_u, v != u) for the k largest anchor observations.

    Ties in the anchor column break deterministically by row index. The
    columns follow the sorted node order with the anchor removed.
    """
    if s.scale != "pareto":
        raise ScaleError("log_spacings expects pareto-scale data")
    n = s.data.shape[0]
    if not 1 <= k < n:
        raise KOutOfRangeError(f"k must be in [1, {n - 1}], got {k}")
    anchor = s.column(u)
    top = np.argsort(-anchor, kind="stable")[:k]
    cols = [j for j, v in enumerate(s.nodes) if v != u]
    logs = np.log(s.data[np.ix_(top, cols)])
    return logs - np.log(anchor[top])[:, None]


@dataclass(frozen=True)
class FitResult:
    delta2_hat: dict[Edge, float]
    objective: float
    diagnostics: dict[str, dict] = field(default_factory=dict)

    def as_vector(self, g: BlockGraph) -> np.ndarray:
        return np.array([self.delta2_hat[e] for e in g.edges_sorted()])


def nnls_active_set(a: np.ndarray, b: np.ndarray,
                    kkt_tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Minimize ||a x - b||_2 subject to x >= 0 (Lawson-Hanson).

    Stops when every zero-clamped coordinate has gradient at most kkt_tol
    relative to the problem scale.
    """
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = max(1.0, float(np.abs(a.T @ b).max())) if m else 1.0
    tol = kkt_tol * scale
    max_iter = max_iter if max_iter is not None else 10 * n

    for _ in range(max_iter):
        grad = a.T @ (b - a @ x)
        grad = np.where(passive, -np.inf, grad)
        t = int(np.argmax(grad))
        if grad[t] <= tol:
            break
        passive[t] = True
        while True:
            sol = np.zeros(n)
            cols = np.flatnonzero(passive)
            sol[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if np.all(sol[cols] > 0):
                x = sol
                break
            bad = passive & (sol <= 0)
            ratios = x[bad] / (x[bad] - sol[bad])
            alpha = float(ratios.min())
            x = x + alpha * (sol - x)
            passive &= x > 1e-14
            x[~passive] = 0.0
    return x


def _empirical_moments(spacings: Mapping[str, np.ndarray]):
    covs, means = {}, {}
    for u, mat in spacings.items():
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 2:
            raise ValueError(f"anchor {u!r}: spacings need at least two rows")
        covs[u] = np.cov(mat, rowvar=False, ddof=1)
        means[u] = mat.mean(axis=0)
    return covs, means


def fit_delta(g: BlockGraph, spacings: Mapping[str, np.ndarray], *,
              include_means: bool = False, mean_weight: float = 1.0,
              anchor_weights: Mapping[str, float] | None = None,
              kkt_tol: float = 1e-10) -> FitResult:
    """Estimate delta^2 by matching model to empirical covariances.

    Minimizes sum_u w_u || Sigma_u(delta^2) - Sigma_hat_u ||_F^2 over
    delta^2 >= 0; optionally adds the mean condition mu_u = -2 p_u with
    weight `mean_weight`. Because Sigma_u is linear in delta^2, this is a
    nonnegativity-constrained linear least-squares problem.
    """
    covs, means = _empirical_moments(spacings)
    return fit_delta_from_covariances(
        g, covs, means if include_means else None,
        mean_weight=mean_weight, anchor_weights=anchor_weights, kkt_tol=kkt_tol,
        row_counts={u: int(np.asarray(m).shape[0]) for u, m in spacings.items()},
    )


def _weight(name: str, w) -> float:
    """A least-squares weight: finite and non-negative."""
    w = float(w)
    if not 0.0 <= w < np.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {w}")
    return w


def _moment(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """An empirical moment: of the given shape, every entry finite."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} has a non-finite entry")
    return value


def fit_delta_from_covariances(g: BlockGraph, covs: Mapping[str, np.ndarray],
                               means: Mapping[str, np.ndarray] | None = None, *,
                               mean_weight: float = 1.0,
                               anchor_weights: Mapping[str, float] | None = None,
                               kkt_tol: float = 1e-10,
                               row_counts: Mapping[str, int] | None = None) -> FitResult:
    if not covs:
        raise ValueError("need covariance estimates for at least one anchor")
    edges = g.edges_sorted()
    n_edges = len(edges)
    m = len(g.nodes) - 1
    weights, moments = {}, {}
    for u in covs:
        if anchor_weights and u not in anchor_weights:
            raise ValueError(f"anchor_weights has no weight for anchor {u!r}")
        weights[u] = _weight(f"weight of anchor {u!r}", anchor_weights[u]) if anchor_weights else 1.0
        if means is not None and u not in means:
            raise ValueError(f"means has no mean for anchor {u!r}")
        moments[u] = (_moment(f"covariance of anchor {u!r}", covs[u], (m, m)),
                      None if means is None else _moment(f"mean of anchor {u!r}", means[u], (m,)))
    mean_weight = _weight("mean_weight", mean_weight)

    incidence = _path_incidence(g)
    # Sigma_u is symmetric, so rows (i, j) and (j, i) fold as one upper-triangle
    # row scaled by sqrt(2) against their mean; what the mean leaves of an
    # asymmetric Sigma_hat_u is a constant of the objective
    iu, ju = np.triu_indices(m)
    fold = np.where(iu == ju, 1.0, np.sqrt(2.0))[:, None]
    asymmetry = 0.0
    # [[R, c], [0, rho]]: the triangular factor of [design | target], one anchor's rows at a time
    factor = np.zeros((n_edges + 1, n_edges + 1))
    for u, (cov_hat, mean_hat) in moments.items():
        coeffs = _anchor(incidence, g.index(u))[1]  # sigma_coefficient_matrix(g, u)
        target = 0.5 * (cov_hat + cov_hat.T)
        asymmetry += weights[u] * float(np.sum((cov_hat - cov_hat.T) ** 2)) / 4.0
        rows = [np.sqrt(weights[u]) * fold * np.column_stack([coeffs[iu, ju], target[iu, ju]])]
        if mean_hat is not None:
            # mu_u = -2 p_u. and Sigma_u's diagonal is 4 p_u.
            rows.append(np.sqrt(weights[u] * mean_weight) * np.column_stack(
                [-0.5 * np.diagonal(coeffs).T, mean_hat]))
        factor = np.linalg.qr(np.vstack([factor, *rows]), mode="r")
    r, c, rho = factor[:-1, :-1], factor[:-1, -1], factor[-1, -1]

    # R has the design's singular values and least-squares minimizers
    _, svals, vt = np.linalg.svd(r)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    if rank < n_edges:
        involved = np.any(np.abs(vt[rank:]) > 1e-8, axis=0)
        raise UnderdeterminedError([e for e, bad in zip(edges, involved) if bad])

    delta2 = nnls_active_set(r, c, kkt_tol=kkt_tol)
    resid = r @ delta2 - c
    diagnostics = {}
    if row_counts:
        diagnostics = {u: {"rows": row_counts[u]} for u in row_counts}
    return FitResult(
        delta2_hat={e: float(v) for e, v in zip(edges, delta2)},
        objective=float(resid @ resid + rho * rho + asymmetry),
        diagnostics=diagnostics,
    )
