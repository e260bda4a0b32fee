"""Parameter algebra for tail dependence on block graphs.

Edge parameters delta_e^2 live on the edges of a block graph; because every
within-clique pair is an edge, the per-clique matrices Delta_C are fully
specified by them. Each DeltaFamily builds every Delta_C once, read-only,
and every consumer reads those blocks. This module validates them
(conditional negative definiteness via positive definiteness of the
increment covariances), forms the shortest-path-sum matrix P, the
log-scale limit parameters (mu_u, Sigma_u) for any anchor node, and the
structurally exact precision matrices Theta_u whose zero pattern encodes
the graph.

One map, `_anchor`, turns a conditionally negative definite matrix M and
a node s into the covariance 2*(m_si + m_sj - m_ij): on Delta_C it gives
a clique's increment law (validation, sampling, Theta_u), on P it gives
Sigma_u, and on a restricted P each stdf term.
One fill along the block-cut tree's walk of (clique, separator,
targets) sums the clique matrices Delta_C along shortest paths into P;
a few nodes' entries are read to the same bits, without the n x n
fill, by climbing the tree pair by pair.
Sigma_u's coefficients in delta^2 come from where paths enter cliques:
edge (a, b) lies on the path from x to y exactly when the path from x
enters the edge's clique at one end and the path from y at the other.
Theta_u is the sum of the zero-row-sum clique precisions with u left
out, written clique by clique into its (n-1) x (n-1) array, and the graph
check measures Theta_u Sigma_u - I at one anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    MissingEdgeParamError,
    NonPositiveParamError,
    NotCNDError,
    SingularBlockError,
    UnknownNodeError,
)
from .graph import BlockGraph, Edge, canonical_edge

# relative eigenvalue threshold for positive-definiteness tests; scale-free
# so heterogeneous delta^2 magnitudes are treated alike
PD_REL_TOL = 1e-10


class DeltaFamily:
    """Validated per-edge squared parameters on a block graph.

    Construct through :func:`validate_delta`. Immutable; all operations
    on it are pure. blocks[ci] is clique ci's zero-diagonal matrix
    Delta_C in sorted member order, built once and read-only.
    """

    def __init__(self, graph: BlockGraph, edge_params: Mapping[Edge, float]):
        self.graph = graph
        self.edge_params: dict[Edge, float] = dict(edge_params)
        self.blocks: list[np.ndarray] = []
        for members in graph._members:
            names = [graph.nodes[v] for v in members]
            m = np.zeros((len(names),) * 2)
            for i, j in combinations(range(len(names)), 2):
                m[i, j] = m[j, i] = self.delta2(names[i], names[j])
            m.flags.writeable = False
            self.blocks.append(m)

    def delta2(self, a: str, b: str) -> float:
        return self.edge_params[canonical_edge(a, b)]

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
    for (a, b), val in edge_params.items():
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
    for ci, m in enumerate(fam.blocks):
        w = np.linalg.eigvalsh(_anchor(m, 0)[1])  # ascending
        if not w[0] > max(0.0, PD_REL_TOL * w[-1]):
            raise NotCNDError(g.cliques[ci])
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


def _path_fill(g: BlockGraph, blocks: list[np.ndarray]) -> np.ndarray:
    """Sums of per-clique blocks along shortest paths, in node order.

    blocks[ci] has rows and columns in clique ci's sorted member order.
    Cliques are filled along the root walk of the block-cut tree. The
    targets t of a clique reach every node k filled before them through
    the clique's separator s, so P[t, k] = block[s, t] + P[s, k]; among
    themselves they are one edge apart. Each target's whole row and
    column are written; entries toward nodes not yet filled are
    overwritten when those nodes are.
    """
    n = len(g.nodes)
    q = np.zeros((n, n))
    for ci, s, targets in g._walk():
        m, si = blocks[ci], g._members[ci].index(s)
        keep = list(range(si)) + list(range(si + 1, len(m)))
        rows = m[si, keep][:, None] + q[s][None, :]
        rows[:, targets] = m[np.ix_(keep, keep)]
        q[targets] = rows
        q[:, targets] = rows.T
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
    return PathSumMatrix(d.graph.nodes, _path_fill(d.graph, d.blocks))


def _subset_path_sums(d: DeltaFamily, subset: Iterable[str]) -> PathSumMatrix:
    """path_sum_matrix(d).restrict(subset), bit for bit, without the n x n
    fill.

    _path_fill writes P[t, k] = block[s, t] + P[s, k] for a target t
    filled after k, s being t's separator, and the edge's block entry
    alone when both are targets of one clique. So each entry climbs from
    whichever of its two nodes is filled later, collecting those terms,
    and sums them innermost first.
    """
    g = d.graph
    idx = sorted({g.index(v) for v in subset})
    step = {ci: k for k, (ci, _, _) in enumerate(g._root_walk)}
    filled = [step.get(ci, -1) for ci in g._up_clique]  # the root, at -1, is filled first

    def delta2(ci: int, a: int, b: int) -> float:
        members = g._members[ci]
        return d.blocks[ci][members.index(a), members.index(b)]

    values = np.zeros((len(idx), len(idx)))
    for i, j in combinations(range(len(idx)), 2):
        a, b, terms = idx[i], idx[j], []
        while True:
            if filled[a] > filled[b]:
                a, b = b, a
            ci, s = g._up_clique[b], g._up[b]
            if filled[a] == filled[b]:  # targets of one clique, one edge apart
                s = a
            terms.append(delta2(ci, s, b))
            if s == a:
                break
            b = s
        total = terms.pop()
        while terms:
            total = terms.pop() + total
        values[i, j] = values[j, i] = total
    return PathSumMatrix(tuple(g.nodes[v] for v in idx), values)


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
    row, psi = _anchor(d.blocks[ci], d.graph._members[ci].index(s))
    return -2.0 * row, psi


def precision_matrix(d: DeltaFamily, u: str) -> np.ndarray:
    """Theta_u, the inverse of Sigma_u: the sum of the clique precisions
    with u left out, written straight into the (n-1) x (n-1) result.

    With K = Psi_C^-1 at the first member s, clique C adds K on its other
    members, -K 1 between them and s, and 1'K 1 at (s, s); the rows sum to
    zero, so leaving out any member t leaves Psi_C^-1 at t. Entries
    between non-adjacent nodes are never written: the zero pattern is
    exact.
    """
    g = d.graph
    iu = g.index(u)
    at = list(range(iu)) + [-1] + list(range(iu, len(g.nodes) - 1))  # rows of Theta_u; u has none
    theta = np.zeros((len(g.nodes) - 1,) * 2)
    for ci, members in enumerate(g._members):
        s, idx = members[0], members[1:]
        try:
            k = np.linalg.inv(_increment_law(d, ci, s)[1])
        except np.linalg.LinAlgError as exc:  # cannot occur for a valid family
            raise SingularBlockError(f"increment block of clique {sorted(g.cliques[ci])} is singular") from exc
        col = k.sum(axis=1)
        corner = col.sum()
        rows = [at[t] for t in idx]
        if iu in idx:  # u's row and column of the block are left out
            keep = [j for j, t in enumerate(idx) if t != iu]
            rows, k, col = [rows[j] for j in keep], k[np.ix_(keep, keep)], col[keep]
        theta[np.ix_(rows, rows)] += k  # a node's diagonal collects every clique at it
        if s != iu:
            theta[rows, at[s]] = theta[at[s], rows] = -col
            theta[at[s], at[s]] += corner
    return theta


# entries held at once by a row-block pass over an n x n matrix
_BLOCK = 1 << 16


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
    left out, and Sigma_u fixes P. Rows of theta are taken a block at a
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


def _entry_classes(g: BlockGraph) -> tuple[np.ndarray, np.ndarray]:
    """Where paths enter each clique, as classes of nodes.

    The path from a node x enters a clique C at one member, L_C(x): x
    itself if x is in C. Class t, for each target t, holds the nodes below
    t in the block-cut tree, those that enter t's parent clique at t;
    class n + ci holds the nodes that enter clique ci at its separator.
    Returns the (n, n + #cliques) class indicator and, for each sorted
    edge (a, b), the classes of a and of b in the edge's clique: the edge
    lies on the path from x to y exactly when x is in one and y in the
    other.
    """
    n = len(g.nodes)
    classes = np.zeros((n, n + len(g.cliques)))
    walk = g._walk()
    for ci, s, targets in walk:  # a separator's row is complete before its targets copy it
        classes[targets, :n] = classes[s, :n]
        classes[targets, targets] = 1.0
    for ci, _, targets in walk:
        classes[:, n + ci] = 1.0 - classes[:, targets].sum(axis=1)
    ends = np.empty((len(g.edges), 2), dtype=int)
    for k, edge in enumerate(g.edges_sorted()):
        ci = g.clique_of_edge(*edge)
        for side, v in enumerate(map(g.index, edge)):
            ends[k, side] = v if g._up_clique[v] == ci else n + ci
    return classes, ends

