"""Parameter algebra for tail dependence on block graphs.

Edge parameters delta_e^2 live on the edges of a block graph; because every
within-clique pair is an edge, the per-clique matrices Delta_C are fully
specified by them. This module validates those matrices (conditional
negative definiteness via positive definiteness of the increment
covariances), forms the shortest-path-sum matrix P, the log-scale limit
parameters (mu_u, Sigma_u) for any anchor node, and the structurally exact
precision matrices Theta_u whose zero pattern encodes the graph.

One map, `_anchor`, turns a conditionally negative definite matrix M and
a node s into the covariance 2*(m_si + m_sj - m_ij): on Delta_C it gives
a clique's increment law (validation, sampling, Theta_u), on P it gives
Sigma_u, on a restricted P each stdf term, and on any M the CND test.
One fill sums per-clique blocks along shortest paths: on Delta_C it gives
P, on unit blocks per edge the path-edge incidence, whose anchoring gives
Sigma_u's coefficients in delta^2 as anchoring P gives Sigma_u. One sum
of zero-row-sum clique precisions gives every Theta_u by deleting u, and
the graph check measures Theta_u Sigma_u - I at one anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    MissingEdgeParamError,
    NodeNotInCliqueError,
    NonPositiveParamError,
    NotCNDError,
    NotSymmetricError,
    SingularBlockError,
    UnknownNodeError,
)
from .graph import BlockGraph, Edge, canonical_edge

# relative eigenvalue threshold for positive-definiteness tests; scale-free
# so heterogeneous delta^2 magnitudes are treated alike
PD_REL_TOL = 1e-10


def _is_pd(m: np.ndarray, rel: float = PD_REL_TOL) -> bool:
    if m.size == 0:
        return True
    w = np.linalg.eigvalsh((m + m.T) / 2.0)
    return w[0] > 0 and w[0] > rel * w[-1]


class DeltaFamily:
    """Validated per-edge squared parameters on a block graph.

    Construct through :func:`validate_delta`. Immutable; all operations
    on it are pure.
    """

    def __init__(self, graph: BlockGraph, edge_params: Mapping[Edge, float]):
        self.graph = graph
        self.edge_params: dict[Edge, float] = dict(edge_params)

    def delta2(self, a: str, b: str) -> float:
        return self.edge_params[canonical_edge(a, b)]

    def clique_matrix(self, ci: int) -> tuple[list[str], np.ndarray]:
        """Members (sorted) and the zero-diagonal matrix Delta_C of clique ci."""
        members = sorted(self.graph.cliques[ci])
        k = len(members)
        m = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                m[i, j] = m[j, i] = self.delta2(members[i], members[j])
        return members, m

    def as_vector(self) -> np.ndarray:
        """delta^2 values in sorted-edge order (the canonical layout)."""
        return np.array([self.edge_params[e] for e in self.graph.edges_sorted()])

    def __repr__(self):
        return f"DeltaFamily({len(self.edge_params)} edges on {self.graph!r})"


def validate_delta(g: BlockGraph, edge_params: Mapping) -> DeltaFamily:
    """Check coverage, positivity, and per-clique conditional negative
    definiteness; returns the validated family.

    The CND check uses the equivalence with positive definiteness of the
    increment covariance anchored at the smallest-index member of each
    clique.
    """
    params: dict[Edge, float] = {}
    for key, val in edge_params.items():
        a, b = key
        e = canonical_edge(str(a), str(b))
        if e not in g.edges:
            raise MissingEdgeParamError(f"parameter given for non-edge {e}")
        if e in params:
            raise MissingEdgeParamError(f"duplicate parameter for edge {e}")
        params[e] = float(val)
    missing = sorted(g.edges - params.keys())
    if missing:
        raise MissingEdgeParamError(f"missing parameters for edges {missing[:5]}")
    for e, val in params.items():
        if not 0 < val < np.inf:
            raise NonPositiveParamError(f"delta^2 must be positive and finite; edge {e} has {val}")

    fam = DeltaFamily(g, params)
    for ci, clique in enumerate(g.cliques):
        if len(clique) < 2:
            continue
        _, m = fam.clique_matrix(ci)
        if not _is_pd(_anchor(m, 0)[1]):
            raise NotCNDError(clique)
    return fam


@dataclass(frozen=True)
class PathSumMatrix:
    """Symmetric matrix of shortest-path sums p_ij with zero diagonal."""

    nodes: tuple[str, ...]
    values: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.nodes)})

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.index(a), self.index(b)])

    def restrict(self, subset: Iterable[str]) -> "PathSumMatrix":
        keep = sorted(set(subset), key=self.index)
        idx = [self.index(v) for v in keep]
        return PathSumMatrix(tuple(keep), self.values[np.ix_(idx, idx)].copy())


def _path_fill(g: BlockGraph, blocks: list[np.ndarray], tail: tuple[int, ...] = ()) -> np.ndarray:
    """Sums of per-clique blocks along shortest paths, in node order.

    blocks[ci] has rows and columns in clique ci's sorted member order and
    any trailing axes `tail`. Cliques are filled in the root order of the
    block-cut tree. The targets t of a clique reach every node k filled
    before them through the clique's separator s, so P[t, k] = block[s, t]
    + P[s, k]; among themselves they are one edge apart. Each target's
    whole row and column are written; entries toward nodes not yet filled
    are overwritten when those nodes are.
    """
    n = len(g.nodes)
    q = np.zeros((n, n, *tail))
    for ci in g._order:
        m, members = blocks[ci], g._members[ci]
        si = members.index(g._sep[ci])
        keep = [k for k in range(len(members)) if k != si]
        targets = [members[k] for k in keep]
        rows = m[si, keep][:, None] + q[members[si]][None, :]
        rows[:, targets] = m[np.ix_(keep, keep)]
        q[targets] = rows
        q[:, targets] = np.swapaxes(rows, 0, 1)
    return q


def _anchor(p: np.ndarray, iu: int) -> tuple[np.ndarray, np.ndarray]:
    """Row iu of a symmetric array and 2*(p[iu,i] + p[iu,j] - p[i,j]) over
    i, j != iu; trailing axes ride along."""
    rest = [i for i in range(len(p)) if i != iu]  # cheaper than np.delete on clique-sized arrays
    pu = p[iu, rest]
    return pu, 2.0 * (pu[:, None] + pu[None, :] - p[np.ix_(rest, rest)])


def path_sum_matrix(d: DeltaFamily) -> PathSumMatrix:
    """p_ij = sum of delta_e^2 over the unique shortest path from i to j,
    filled from the clique matrices Delta_C."""
    blocks = [d.clique_matrix(ci)[1] for ci in range(len(d.graph.cliques))]
    return PathSumMatrix(d.graph.nodes, _path_fill(d.graph, blocks))


@dataclass(frozen=True)
class GaussianLimit:
    """Log-scale limit parameters anchored at `anchor`: mean -2*p_u. and
    covariance 2*(p_ui + p_uj - p_ij) over V minus the anchor."""

    anchor: str
    nodes: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_path_sums(cls, p: PathSumMatrix, u: str) -> "GaussianLimit":
        """The limit anchored at u, read off a path-sum matrix already filled."""
        iu = p.index(u)
        pu, cov = _anchor(p.values, iu)
        return cls(u, p.nodes[:iu] + p.nodes[iu + 1:], -2.0 * pu, cov)


def gaussian_limit(d: DeltaFamily, u: str) -> GaussianLimit:
    d.graph.index(u)  # an unknown anchor fails before the fill
    return GaussianLimit.from_path_sums(path_sum_matrix(d), u)


def _increment_law(d: DeltaFamily, ci: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of clique ci's log-increments from member s
    (a dense index) to its other members, in sorted member order."""
    _, m = d.clique_matrix(ci)
    row, psi = _anchor(m, d.graph._members[ci].index(s))
    return -2.0 * row, psi


def clique_limit_params(d: DeltaFamily, C: Iterable[str], s: str) -> tuple[np.ndarray, np.ndarray]:
    """Clique-limit law parameters anchored at s in C: mean vector
    -2*(delta_sv^2) and increment covariance Psi over C minus s, both in
    sorted member order."""
    ci = d.graph.clique_index(C)
    if s not in d.graph.cliques[ci]:
        raise NodeNotInCliqueError(f"node {s!r} not in clique {tuple(sorted(d.graph.cliques[ci]))}")
    return _increment_law(d, ci, d.graph.index(s))


def _clique_precisions(d: DeltaFamily) -> np.ndarray:
    """Sum of the clique precisions over all nodes. With K = Psi_C^-1 at
    the first member s, clique C adds K on its other members, -K 1 between
    them and s, and 1'K 1 at (s, s); the rows sum to zero, so leaving out
    any member t leaves Psi_C^-1 at t. Entries between non-adjacent nodes
    are never written: the zero pattern is exact."""
    g = d.graph
    theta = np.zeros((len(g.nodes),) * 2)
    for ci, members in enumerate(g._members):
        s, idx = members[0], members[1:]
        try:
            k = np.linalg.inv(_increment_law(d, ci, s)[1])
        except np.linalg.LinAlgError as exc:  # cannot occur for a valid family
            raise SingularBlockError(f"increment block of clique {sorted(g.cliques[ci])} is singular") from exc
        col = k.sum(axis=1)
        theta[np.ix_(idx, idx)] += k  # a node's diagonal collects every clique at it
        theta[idx, s] = theta[s, idx] = -col
        theta[s, s] += col.sum()
    return theta


# entries held at once by a row-block pass over an n x n matrix
_BLOCK = 1 << 16


def precision_matrix(d: DeltaFamily, u: str) -> np.ndarray:
    """Theta_u, the inverse of Sigma_u: the clique precisions without u,
    squeezed out of the n x n sum in place a block of rows at a time. A
    block lands before the rows still to be read, so one block is held."""
    rest = np.delete(np.arange(len(d.graph.nodes)), d.graph.index(u))
    theta = _clique_precisions(d)
    m, flat = len(rest), theta.reshape(-1)
    step = max(1, _BLOCK // len(theta))
    for lo in range(0, m, step):
        rows = rest[lo:lo + step]
        flat[lo * m:(lo + len(rows)) * m] = theta[np.ix_(rows, rest)].ravel()
    return flat[:m * m].reshape(m, m)


def check_cnd(m: np.ndarray | PathSumMatrix) -> bool:
    """True iff a'Ma < 0 for every nonzero a with sum(a) = 0.

    Tested by anchoring M at its last index d: the anchored matrix less
    2*m_dd is -2 B'MB for the basis B of columns e_k - e_d of the zero-sum
    subspace, and its positive definiteness decides.
    """
    if isinstance(m, PathSumMatrix):
        m = m.values
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError("expected a square matrix")
    if not np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise NotSymmetricError("matrix is not symmetric")
    d = m.shape[0] - 1
    if d < 1:
        return True
    return _is_pd(_anchor(m, d)[1] - 2.0 * m[d, d])


@dataclass(frozen=True)
class GraphCheckReport:
    """Largest |Theta_u Sigma_u - I| entry at one anchor."""

    max_violation: float
    tolerance: float
    worst: tuple[str, str, str] | None  # (anchor, i, j)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def extremal_graph_check(lim: GaussianLimit, theta: np.ndarray,
                         tolerance: float | None = None) -> GraphCheckReport:
    """Measured max |Theta_u Sigma_u - I| for Sigma_u = lim.cov.

    theta carries the graph's zero pattern, so this tests that the P
    behind Sigma_u has an inverse that vanishes off the edges. One anchor
    suffices: every Theta_v is the same clique-precision sum with v
    deleted, and Sigma_u fixes P. Rows of theta are taken a block at a
    time against the rows of Sigma_u at the block's nonzero columns, so
    one product block is held beyond the two matrices. The default
    tolerance is 100 eps max|Sigma_u| max|Theta_u|, the rounding the
    product can carry; worst is the largest entry's (anchor, i, j).
    """
    cov = lim.cov
    m = len(lim.nodes)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != cov.shape:
        raise ValueError(f"theta shape {theta.shape} does not match Sigma_u {cov.shape}")
    if m == 0:
        return GraphCheckReport(0.0, tolerance or 0.0, None)
    theta_max = max(theta.max(), -theta.min())  # max|theta| with no n x n temporary
    if not np.isfinite(theta_max):
        raise ValueError("theta has non-finite entries")
    if tolerance is None:
        tolerance = 100.0 * np.finfo(float).eps * max(cov.max(), -cov.min()) * theta_max
    worst, at = -1.0, (0, 0)
    step = max(1, _BLOCK // m)
    for lo in range(0, m, step):
        rows = theta[lo:lo + step]
        cols = np.flatnonzero(rows.any(axis=0))
        res = rows[:, cols] @ cov[cols]
        diag = np.arange(len(rows))
        res[diag, lo + diag] -= 1.0
        k = int(np.argmax(np.abs(res, out=res)))
        if res.flat[k] > worst:
            worst, at = float(res.flat[k]), (lo + k // m, k % m)
    i, j = at
    return GraphCheckReport(worst, float(tolerance), (lim.anchor, lim.nodes[i], lim.nodes[j]))


def _path_incidence(g: BlockGraph) -> np.ndarray:
    """Path fill on unit blocks, one per edge: entry (i, j, e) is 1 when
    the e-th sorted edge lies on the shortest path from i to j."""
    column = {e: k for k, e in enumerate(g.edges_sorted())}
    blocks = []
    for members in g._members:
        b = np.zeros((len(members), len(members), len(column)))
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                e = column[g.nodes[members[x]], g.nodes[members[y]]]
                b[x, y, e] = b[y, x, e] = 1.0
        blocks.append(b)
    return _path_fill(g, blocks, (len(column),))


def sigma_coefficient_matrix(g: BlockGraph, u: str) -> np.ndarray:
    """Coefficients of Sigma_u as a linear map of the sorted delta^2 vector.

    Returns an array of shape (m, m, |E|) with m = |V| - 1 such that
    Sigma_u = coeffs @ delta2_vector: the path-edge incidence anchored as
    P is for Sigma_u, with coefficients in {0, +/-2, 4}.
    """
    return _anchor(_path_incidence(g), g.index(u))[1]
