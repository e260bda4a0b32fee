"""Parameter algebra for tail dependence on block graphs.

Edge parameters delta_e^2 live on the edges of a block graph; because every
within-clique pair is an edge, the per-clique matrices Delta_C are fully
specified by them. This module validates those matrices (conditional
negative definiteness via positive definiteness of the increment
covariances), forms the shortest-path-sum matrix P, the log-scale limit
parameters (mu_u, Sigma_u) for any anchor node, and the structurally exact
precision matrices Theta_u whose zero pattern encodes the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def psi_from_matrix(m: np.ndarray, s: int, rest: Iterable[int]) -> np.ndarray:
    """Increment covariance built from a symmetric parameter matrix.

    Entry (i, j) is 2*(m[s,i] + m[s,j] - m[i,j]) for i, j in `rest`.
    """
    idx = np.asarray(list(rest), dtype=np.intp)
    row = m[s, idx]
    return 2.0 * (row[:, None] + row[None, :] - m[np.ix_(idx, idx)])


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
        if not val > 0:
            raise NonPositiveParamError(f"delta^2 must be positive; edge {e} has {val}")

    fam = DeltaFamily(g, params)
    for ci, clique in enumerate(g.cliques):
        if len(clique) < 2:
            continue
        members, m = fam.clique_matrix(ci)
        psi = psi_from_matrix(m, 0, range(1, len(members)))
        if not _is_pd(psi):
            raise NotCNDError(clique)
    return fam


@dataclass(frozen=True)
class PathSumMatrix:
    """Symmetric matrix of shortest-path sums p_ij with zero diagonal."""

    nodes: tuple[str, ...]
    values: np.ndarray

    def index(self, v: str) -> int:
        try:
            return self.nodes.index(v)
        except ValueError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def entry(self, a: str, b: str) -> float:
        return float(self.values[self.index(a), self.index(b)])

    def restrict(self, subset: Iterable[str]) -> "PathSumMatrix":
        keep = sorted(set(subset), key=self.index)
        idx = [self.index(v) for v in keep]
        return PathSumMatrix(tuple(keep), self.values[np.ix_(idx, idx)].copy())


def path_sum_matrix(d: DeltaFamily) -> PathSumMatrix:
    """p_ij = sum of delta_e^2 over the unique shortest path from i to j.

    Nodes are placed clique by clique in the root order of the block-cut
    tree. The targets t of a clique reach every node k placed before them
    through the clique's separator s, so p_tk = delta_st^2 + p_sk; among
    themselves they are one edge apart.
    """
    g = d.graph
    n = len(g.nodes)
    q = np.zeros((n, n))  # rows and columns in placement order
    rank = np.zeros(n, dtype=np.intp)
    placed = 1  # the root
    for ci in g._order:
        _, m = d.clique_matrix(ci)
        members = g._members[ci]
        si = members.index(g._sep[ci])
        keep = [k for k in range(len(members)) if k != si]
        lo, hi = placed, placed + len(keep)
        rank[[members[k] for k in keep]] = np.arange(lo, hi)
        block = m[si, keep][:, None] + q[rank[members[si]], :lo][None, :]
        q[lo:hi, :lo] = block
        q[:lo, lo:hi] = block.T
        q[lo:hi, lo:hi] = m[np.ix_(keep, keep)]
        placed = hi
    return PathSumMatrix(g.nodes, q[np.ix_(rank, rank)])


@dataclass(frozen=True)
class GaussianLimit:
    """Log-scale limit parameters anchored at `anchor`: mean -2*p_u. and
    covariance 2*(p_ui + p_uj - p_ij) over V minus the anchor."""

    anchor: str
    nodes: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray


def gaussian_limit(d: DeltaFamily, u: str) -> GaussianLimit:
    g = d.graph
    iu = g.index(u)
    p = path_sum_matrix(d).values
    rest = [i for i in range(len(g.nodes)) if i != iu]
    pu = p[iu, rest]
    mean = -2.0 * pu
    cov = 2.0 * (pu[:, None] + pu[None, :] - p[np.ix_(rest, rest)])
    return GaussianLimit(u, tuple(g.nodes[i] for i in rest), mean, cov)


def anchored_edges(g: BlockGraph, u: str) -> dict[str, Edge]:
    """For each v != u, the last edge (parent, v) of the path from u to v.

    These are the edges pointing away from u; each v in V minus u is the
    endpoint of exactly one of them.
    """
    iu = g.index(u)
    parent = g._parents_toward(iu)
    return {v: (g.nodes[parent[i]], v) for i, v in enumerate(g.nodes) if i != iu}


def _increment_law(d: DeltaFamily, ci: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of clique ci's log-increments from member s
    (a dense index) to its other members, in sorted member order."""
    _, m = d.clique_matrix(ci)
    si = d.graph._members[ci].index(s)
    rest = [i for i in range(len(m)) if i != si]
    return -2.0 * m[si, rest], psi_from_matrix(m, si, rest)


def clique_limit_params(d: DeltaFamily, C: Iterable[str], s: str) -> tuple[np.ndarray, np.ndarray]:
    """Clique-limit law parameters anchored at s in C: mean vector
    -2*(delta_sv^2) and increment covariance Psi over C minus s, both in
    sorted member order."""
    ci = d.graph.clique_index(C)
    if s not in d.graph.cliques[ci]:
        raise NodeNotInCliqueError(f"node {s!r} not in clique {tuple(sorted(d.graph.cliques[ci]))}")
    return _increment_law(d, ci, d.graph.index(s))


def increment_blocks(d: DeltaFamily, u: str) -> list[tuple[list[str], np.ndarray, np.ndarray]]:
    """Per-clique increment laws relative to anchor u.

    Returns one (targets, mean, covariance) triple per clique, where
    targets = C minus its separator toward u, sorted; the targets across
    cliques partition V minus u.
    """
    g = d.graph
    _, sep = g._anchored(g.index(u))
    out = []
    for ci, members in enumerate(g._members):
        targets = [g.nodes[t] for t in members if t != sep[ci]]
        mean, psi = _increment_law(d, ci, sep[ci])
        out.append((targets, mean, psi))
    return out


def precision_matrix(d: DeltaFamily, u: str) -> np.ndarray:
    """Inverse of the anchored covariance, built structurally.

    Theta_u = (M_u^-1)^T Theta_u^Z M_u^-1 with M_u^-1 carrying +1 on the
    diagonal and -1 at (v, parent(v)), and Theta_u^Z the blockwise inverse
    of the block-diagonal increment covariance. The construction keeps the
    non-edge zero pattern exact up to block-inverse rounding.
    """
    g = d.graph
    iu = g.index(u)
    rest = [v for v in g.nodes if v != u]
    pos = {v: k for k, v in enumerate(rest)}
    m = len(rest)

    m_inv = np.eye(m)
    for v, w in enumerate(g._parents_toward(iu)):
        if v != iu and w != iu:
            m_inv[v - (v > iu), w - (w > iu)] = -1.0

    theta_z = np.zeros((m, m))
    for targets, _, psi in increment_blocks(d, u):
        idx = [pos[v] for v in targets]
        try:
            block_inv = np.linalg.inv(psi)
        except np.linalg.LinAlgError as exc:  # cannot occur for a valid family
            raise SingularBlockError(f"increment block for targets {targets} is singular") from exc
        theta_z[np.ix_(idx, idx)] = block_inv
    return m_inv.T @ theta_z @ m_inv


def check_cnd(m: np.ndarray | PathSumMatrix) -> bool:
    """True iff a'Ma < 0 for every nonzero a with sum(a) = 0.

    Tested by contracting -M with the basis e_k - e_d of the zero-sum
    subspace and checking positive definiteness.
    """
    if isinstance(m, PathSumMatrix):
        m = m.values
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError("expected a square matrix")
    if not np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise NotSymmetricError("matrix is not symmetric")
    n = m.shape[0]
    if n < 2:
        return True
    basis = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    return _is_pd(-(basis.T @ m @ basis))


@dataclass(frozen=True)
class GraphCheckReport:
    """Worst-case precision-matrix entry over all anchors and non-edges."""

    max_violation: float
    tolerance: float
    worst: tuple[str, str, str] | None  # (anchor, i, j)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def extremal_graph_check(d: DeltaFamily, tolerance: float = 1e-9) -> GraphCheckReport:
    """Verify the graphical zero pattern: for every anchor u and every
    non-adjacent pair i, j != u, the precision entry must vanish.

    The worst entry is the first largest one, scanning anchors in node
    order and each anchor's pairs i < j row by row.
    """
    g = d.graph
    n = len(g.nodes)
    non_edge = np.triu(np.ones((n, n), dtype=bool), 1)
    for a, b in g.edges:
        ia, ib = g.index(a), g.index(b)
        non_edge[ia, ib] = non_edge[ib, ia] = False
    worst = 0.0
    arg = None
    for iu, u in enumerate(g.nodes):
        rest = [i for i in range(n) if i != iu]
        vals = np.abs(precision_matrix(d, u))
        vals[~(non_edge[np.ix_(rest, rest)] & (vals > 0))] = 0.0  # NaN never counts
        k = int(np.argmax(vals)) if vals.size else 0
        if vals.size and vals.flat[k] > worst:
            worst = float(vals.flat[k])
            a, b = divmod(k, len(rest))
            arg = (u, g.nodes[rest[a]], g.nodes[rest[b]])
    return GraphCheckReport(worst, tolerance, arg)


def _branches(g: BlockGraph):
    """Yield (ci, label) per clique: label[v] is the position, among the
    clique's sorted members, of the member through which the paths from
    node v enter the clique.

    Edge (a, b) of the clique lies on the path i-j exactly when i and j
    sit in the branches of a and b.
    """
    n = len(g.nodes)
    by_pre = np.array(g._preorder(), dtype=np.intp)
    for ci, members in enumerate(g._members):
        s = g._sep[ci]
        label = np.full(n, members.index(s))
        for k, t in enumerate(members):
            if t != s:
                (lo, hi), = g._branch(ci, t)
                label[by_pre[lo:hi]] = k
        yield ci, label


def _clique_edges(g: BlockGraph, ci: int):
    """(edge, x, y) for the edges of clique ci, x < y member positions."""
    members = g._members[ci]
    for x in range(len(members)):
        for y in range(x + 1, len(members)):
            yield (g.nodes[members[x]], g.nodes[members[y]]), x, y


def edge_usage(g: BlockGraph) -> dict[Edge, np.ndarray]:
    """Boolean V x V matrices marking which pairs' shortest paths use each edge."""
    usage = {}
    for ci, label in _branches(g):
        for e, x, y in _clique_edges(g, ci):
            in_a, in_b = label == x, label == y
            usage[e] = np.outer(in_a, in_b) | np.outer(in_b, in_a)
    return {e: usage[e] for e in g.edges_sorted()}


def sigma_coefficient_matrix(g: BlockGraph, u: str) -> np.ndarray:
    """Coefficients of Sigma_u as a linear map of the sorted delta^2 vector.

    Returns an array of shape (m, m, |E|) with m = |V| - 1 such that
    Sigma_u = coeffs @ delta2_vector. Every coefficient is one of
    {0, +/-2, 4}.
    """
    iu = g.index(u)
    n = len(g.nodes)
    rest = [i for i in range(n) if i != iu]
    column = {e: k for k, e in enumerate(g.edges_sorted())}
    coeffs = np.zeros((n - 1, n - 1, len(column)))
    for ci, label in _branches(g):
        at_u, label = label[iu], label[rest]
        for e, x, y in _clique_edges(g, ci):
            in_a, in_b = (label == x).astype(float), (label == y).astype(float)
            # the path from u uses e when it enters the far branch
            ui = in_b if at_u == x else in_a if at_u == y else np.zeros(n - 1)
            use = np.outer(in_a, in_b) + np.outer(in_b, in_a)
            coeffs[:, :, column[e]] = 2.0 * (ui[:, None] + ui[None, :] - use)
    return coeffs
