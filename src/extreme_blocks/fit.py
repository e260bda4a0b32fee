"""Moment-based estimation of edge parameters from multivariate samples.

Pipeline: standardize margins to unit Pareto by ranks, collect log-spacings
above per-anchor thresholds, form empirical covariances, and match them to
the model covariances, which are linear in the squared edge parameters.
The resulting nonnegativity-constrained linear least-squares problem is
solved from its |E|-square normal equations, which are assembled from
counts over the classes of where paths enter cliques, never from the
design. Every anchor and every mean row weighs 1. With every node
observed, any one anchor fixes every edge, so the Gram matrix is positive
definite and the problem has one solution; it is found by one
Lawson-Hanson active-set run on the Gram matrix and target, warm-started
from the unconstrained minimiser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    ConstantColumnError,
    KOutOfRangeError,
    NumericalError,
    ScaleError,
    UnknownNodeError,
)
from .graph import BlockGraph, Edge
from .model import DeltaFamily, _anchor, _entry_classes, path_sum_matrix


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
    """Ranks 1..n of the entries of col; tied entries share the mean rank of their run.

    Every entry of a run gets the same rank, so the order the sort leaves
    inside a run does not matter, and numpy's default sort serves.
    """
    order = np.argsort(col)
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
    # the k largest without a full sort: all above the k-th largest value,
    # then the lowest-index rows that tie with it
    kth = np.partition(anchor, n - k)[n - k]
    above = np.flatnonzero(anchor > kth)
    top = np.sort(np.r_[above, np.flatnonzero(anchor == kth)[:k - len(above)]])
    top = top[np.argsort(-anchor[top], kind="stable")]
    # one gather of the k rows and one log, the anchor's column among them;
    # the result is C-ordered, as the covariance's bits depend on the layout
    logs = np.log(s.data[top])
    iu = s.nodes.index(u)
    return np.delete(logs, iu, axis=1) - logs[:, iu, None]


@dataclass(frozen=True)
class FitResult:
    delta2_hat: dict[Edge, float]
    objective: float
    diagnostics: dict[str, dict] = field(default_factory=dict)

    def as_vector(self, g: BlockGraph) -> np.ndarray:
        return np.array([self.delta2_hat[e] for e in g.edges_sorted()])


# the active set stops when every zero-clamped coordinate has gradient at
# most KKT_TOL max|h|; MAX_ITER_PER_UNKNOWN steps per unknown without that
# raise NumericalError
KKT_TOL = 1e-10
MAX_ITER_PER_UNKNOWN = 10


def nnls_active_set(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimize ||a x - b||_2 subject to x >= 0 (Lawson-Hanson), given its
    normal equations: gram = a'a, positive definite, and rhs = a'b.

    Each step solves the passive block of the Gram matrix (the fast NNLS
    of Bro & de Jong). The passive set starts full and sheds non-positive
    coordinates until its solution is positive: a feasible start, from
    which each outer step adds one coordinate. The stopping tolerance
    KKT_TOL max|rhs| and the clamp of vanishing coordinates are both
    relative, so scaling a or b scales x alike.
    """
    n = len(rhs)
    if not np.any(rhs):
        return np.zeros(n)
    tol = KKT_TOL * float(np.abs(rhs).max())

    def solve(passive):
        sol = np.zeros(n)
        cols = np.flatnonzero(passive)
        sol[cols] = np.linalg.solve(gram[np.ix_(cols, cols)], rhs[cols])
        return sol

    passive = np.ones(n, dtype=bool)
    x = solve(passive)
    while not np.all(x[passive] > 0):
        passive &= x > 0
        x = solve(passive)

    budget = MAX_ITER_PER_UNKNOWN * n
    while True:
        grad = rhs - gram @ x
        grad[passive] = -np.inf
        t = int(np.argmax(grad))
        if grad[t] <= tol:
            return x
        if budget == 0:
            raise NumericalError(f"NNLS active set unconverged after {MAX_ITER_PER_UNKNOWN * n} steps")
        budget -= 1
        passive[t] = True
        while True:
            sol = solve(passive)
            if np.all(sol[passive] > 0):
                x = sol
                break
            bad = passive & (sol <= 0)
            alpha = float(np.min(x[bad] / (x[bad] - sol[bad])))
            x = x + alpha * (sol - x)
            passive &= x > 1e-14 * np.abs(x).max()
            x[~passive] = 0.0


def fit_delta(g: BlockGraph, spacings: Mapping[str, np.ndarray]) -> FitResult:
    """Estimate delta^2 by matching model to empirical covariances.

    Minimizes sum_u || Sigma_u(delta^2) - Sigma_hat_u ||_F^2 over
    delta^2 >= 0, the sum over the anchors of `spacings`. Because Sigma_u
    is linear in delta^2, this is a nonnegativity-constrained linear
    least-squares problem. The diagnostics give each anchor's number of
    spacing rows.
    """
    covs, rows = {}, {}
    for u, mat in spacings.items():
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 2:
            raise ValueError(f"anchor {u!r}: spacings need at least two rows")
        # np.cov's arithmetic without its two copies of the table; one
        # centred copy is alive at a time
        xc = mat - mat.mean(axis=0)
        covs[u] = xc.T @ xc * (1.0 / (mat.shape[0] - 1))
        del xc
        rows[u] = {"rows": mat.shape[0]}
    res = fit_delta_from_covariances(g, covs)
    return FitResult(res.delta2_hat, res.objective, rows)


def _moment(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """An empirical moment: of the given shape, every entry finite."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} has a non-finite entry")
    return value


def _normal_equations(g: BlockGraph, moments: Mapping[str, tuple]) -> tuple[np.ndarray, np.ndarray]:
    """G = sum_u D_u'D_u and h = sum_u D_u' vec(Sigma_hat_u) over the anchors
    u of `moments`, plus the mean rows when means are given, with no design
    D_u formed.

    Over all n x n entries, with anchor u's row and column zero, D_u's
    column for edge e is 2 (c 1' + 1 c' - X_e): X_e is the edge's path
    incidence and c = X_e 1_u. Each is a sum over the two orientations
    (p, q) of the edge's entry classes, X_e of 1_p 1_q' and c of
    [u in p] 1_q, so every inner product is a product of class counts
    K = N'N and anchor counts K_w = N' diag(w) N, with w the anchors'
    indicator. Per pair of orientations (p, q) of e and (r, s) of f:
      sum_u c_e.c_f             = K_w[p, r] K[q, s]
      sum_u (1'c_e)(1'c_f)      = K_w[p, r] |q| |s|
      sum_u c_e'X_f 1           = w(p) K[q, r] |s|
      <X_e, X_f>                = K[p, r] K[q, s]
    The mean rows -2 c add 4 c_e.c_f. The target needs the class sums of
    the summed Sigma_hat_u and, per anchor class, of its row sums and means.
    """
    n = len(g.nodes)
    classes, ends = _entry_classes(g)
    mean_weight = 0.0 if any(mean_hat is None for _, mean_hat in moments.values()) else 1.0
    w = np.zeros(n)            # 1 at the anchors
    spread = np.zeros((n, n))  # sum_u Sigma_hat_u, zero at anchor u's row and column
    lines = np.zeros((n, n))   # column u: 4 Sigma_hat_u 1 - 2 mu_hat_u
    for u, (cov_hat, mean_hat) in moments.items():
        iu = g.index(u)
        w[iu] = 1.0
        # the blocks of spread around row and column iu, and of cov_hat
        halves = ((slice(iu), slice(iu)), (slice(iu + 1, n), slice(iu, None)))
        for rs, rc in halves:
            for cs, cc in halves:
                spread[rs, cs] += cov_hat[rc, cc]
        line = 2.0 * (cov_hat.sum(axis=0) + cov_hat.sum(axis=1))
        if mean_hat is not None:
            line -= 2.0 * mean_hat
        for rs, rc in halves:
            lines[rs, iu] = line[rc]
    count = classes.T @ classes
    wcount = classes.T @ (w[:, None] * classes)
    size, wsize = np.diagonal(count), np.diagonal(wcount)
    a, b = ends.T
    rows, inner = classes.T @ lines @ classes, classes.T @ spread @ classes
    target = rows[a, b] + rows[b, a] - 2.0 * (inner[a, b] + inner[b, a])

    # block (x, y) of count and of wcount at the class pairs, x, y in (a, b),
    # by 3 gathers each: both are symmetric
    def blocks(mat):
        ab = mat[np.ix_(a, b)]
        return (mat[np.ix_(a, a)], ab), (ab.T, mat[np.ix_(b, b)])

    kc, kw = blocks(count), blocks(wcount)
    sizes, wsizes = (size[a], size[b]), (wsize[a], wsize[b])
    gram = np.zeros((len(a), len(a)))
    for p, q in ((0, 1), (1, 0)):
        for r, s in ((0, 1), (1, 0)):
            gram += ((2 * n + mean_weight) * kc[q][s] + 2.0 * np.outer(sizes[q], sizes[s])) * kw[p][r]
            gram -= 2.0 * (wsizes[p][:, None] * kc[q][r] * sizes[s]
                           + sizes[q][:, None] * kc[p][s] * wsizes[r])
            gram += w.sum() * kc[p][r] * kc[q][s]
    return 4.0 * gram, target


def fit_delta_from_covariances(g: BlockGraph, covs: Mapping[str, np.ndarray],
                               means: Mapping[str, np.ndarray] | None = None) -> FitResult:
    """Minimize sum_u || Sigma_u(delta^2) - Sigma_hat_u ||_F^2 over delta^2 >= 0
    and the anchors u of `covs`, plus || 2 p_u + mu_hat_u ||^2 per anchor
    when `means` is given."""
    if not covs:
        raise ValueError("need covariance estimates for at least one anchor")
    edges = g.edges_sorted()
    m = len(g.nodes) - 1
    moments = {}
    for u in covs:
        if means is not None and u not in means:
            raise ValueError(f"means has no mean for anchor {u!r}")
        moments[u] = (_moment(f"covariance of anchor {u!r}", covs[u], (m, m)),
                      None if means is None else _moment(f"mean of anchor {u!r}", means[u], (m,)))

    # any anchor fixes every path sum (p_ui = Sigma_u,ii / 4), and the path
    # sums fix every edge, so G is positive definite
    delta2 = nnls_active_set(*_normal_equations(g, moments))
    delta2_hat = {e: float(v) for e, v in zip(edges, delta2)}

    # the objective is measured on the fitted path sums, not expanded from
    # G and h, whose terms cancel to rounding at an exact fit
    fitted = path_sum_matrix(DeltaFamily(g, delta2_hat)).values
    objective = 0.0
    for u, (cov_hat, mean_hat) in moments.items():
        pu, cov = _anchor(fitted, g.index(u))
        objective += float(np.sum((cov - cov_hat) ** 2))
        if mean_hat is not None:
            objective += float(np.sum((2.0 * pu + mean_hat) ** 2))
    return FitResult(delta2_hat=delta2_hat, objective=objective)
