"""Latent-node identifiability and exact parameter recovery.

When some nodes carry unobserved variables, the restricted path-sum matrix
over the observed nodes still determines every edge parameter provided each
latent node lies in at least three cliques. Each edge parameter is half
a four-point combination of observed path sums, taken at observed anchor
nodes beyond each end of the edge; an observed end is its own anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import InconsistentInputError, NotIdentifiableError, UnknownNodeError
from .graph import BlockGraph, canonical_edge
from .model import DeltaFamily, PathSumMatrix, path_sum_matrix, validate_delta


@dataclass(frozen=True)
class ObservationMask:
    """Partition of the node set into observed (U) and latent nodes."""

    observed: tuple[str, ...]
    latent: tuple[str, ...]

    @classmethod
    def from_latent(cls, g: BlockGraph, latent: Iterable[str]) -> "ObservationMask":
        latent_set = {str(v) for v in latent}
        unknown = latent_set - set(g.nodes)
        if unknown:
            raise UnknownNodeError(f"latent nodes not in graph: {sorted(unknown)}")
        observed = tuple(v for v in g.nodes if v not in latent_set)
        if not observed:
            raise ValueError("at least one node must be observed")
        return cls(observed, tuple(sorted(latent_set)))


def check_identifiable(g: BlockGraph, mask: ObservationMask) -> tuple[bool, tuple[str, ...]]:
    """True iff every latent node has clique degree at least three; the
    second element lists the latent nodes that fail."""
    offending = tuple(v for v in mask.latent if g.clique_degree(v) < 3)
    return (len(offending) == 0, offending)


def recover_path_sums(g: BlockGraph, p_obs: PathSumMatrix, mask: ObservationMask,
                      *, tol: float = 1e-9) -> PathSumMatrix:
    """Reconstruct the full path-sum matrix from its restriction to the
    observed nodes.

    Every edge (a, b) of a clique C comes from one four-point identity.
    Take x1, x2 observed in two clique directions at a other than C, or
    x1 = x2 = a when a is observed, and y1, y2 likewise at b. Every path
    from an x to a y runs x ... a - b ... y, and the path from x1 to x2
    runs through a, so

        delta_ab^2 = (p(x1, y1) + p(x2, y2) - p(x1, x2) - p(y1, y2)) / 2.

    Every direction holds an observed node, since a leaf clique's members
    other than its separator lie in that clique alone. Each anchor is the
    smallest observed node in its direction, read off the latent node's
    labels: for every node, the clique at the latent node that holds the
    first edge of the path to it. All anchor quadruples must agree within
    tol, and the reconstruction must restrict back to the input.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if tuple(p_obs.nodes) != mask.observed:
        raise ValueError("path-sum matrix nodes must match the observed set")
    vals = p_obs.values
    if not np.isfinite(vals).all():
        raise ValueError("observed path sums must be finite")
    if np.abs(vals - vals.T).max() > 1e-12 * max(1.0, float(np.abs(vals).max())):
        raise InconsistentInputError("observed path sums are not symmetric")
    if np.any(np.abs(np.diag(vals)) > 0):
        raise InconsistentInputError("observed path sums have nonzero diagonal")

    ok, offending = check_identifiable(g, mask)
    if not ok:
        raise NotIdentifiableError(offending)

    observed = [g.index(v) for v in mask.observed]
    row = [-1] * len(g.nodes)  # row of each observed node in p_obs
    for r, i in enumerate(observed):
        row[i] = r

    def p(i: int, j: int) -> float:  # the upper triangle, as given
        ri, rj = sorted((row[i], row[j]))
        return float(vals[ri, rj])

    # per latent node and clique at it, the smallest observed node whose
    # path from the latent node starts in that clique
    first = {}
    for a in (g.index(v) for v in mask.latent):
        label = g._first_cliques(a)
        first[a] = {label[x]: x for x in reversed(observed)}

    def anchors(a: int, ci: int) -> list[tuple[int, int]]:
        """The x-pairs at end a of an edge of clique ci: (a, a) when a is
        observed, else the anchors of two directions at a other than ci."""
        if row[a] >= 0:
            return [(a, a)]
        return list(combinations([first[a][c] for c in g._cliques_at[a] if c != ci], 2))

    delta2: dict[tuple[str, str], float] = {}
    for a, b in g.edges_sorted():
        ia, ib = g.index(a), g.index(b)
        if row[ia] >= 0 and row[ib] >= 0:
            delta2[(a, b)] = p(ia, ib)
            continue
        ci = g.clique_of_edge(a, b)
        values = [0.5 * (p(x1, y1) + p(x2, y2) - p(x1, x2) - p(y1, y2))
                  for x1, x2 in anchors(ia, ci) for y1, y2 in anchors(ib, ci)]
        spread = max(values) - min(values)
        if spread > tol:
            raise InconsistentInputError(
                f"recovered edge parameter for ({a}, {b}) differs by {spread:.3e} "
                "across anchor quadruples"
            )
        if values[0] <= 0:
            raise InconsistentInputError(
                f"recovered edge parameter for ({a}, {b}) is non-positive: {values[0]:.3e}"
            )
        delta2[(a, b)] = values[0]

    full = path_sum_matrix(DeltaFamily(g, delta2))
    # closing the loop: the reconstruction must restrict back to the input
    err = float(np.abs(full.values[np.ix_(observed, observed)] - vals).max())
    if err > tol:
        raise InconsistentInputError(
            f"recovered path sums disagree with the input by {err:.3e} on the observed set"
        )
    return full


def recover_edge_params(p: PathSumMatrix, g: BlockGraph) -> DeltaFamily:
    """Edge parameters read off a full path-sum matrix: single-edge paths
    mean delta_e^2 = p_ab. Validates the resulting family."""
    params = {e: p.entry(*e) for e in g.edges_sorted()}
    return validate_delta(g, params)


def nonidentifiable_witness(d: DeltaFamily, v: str, eta: float) -> DeltaFamily:
    """A distinct parameter family indistinguishable from d when v is latent.

    Requires clique degree 1 or 2 at v. With one clique, all edge
    parameters at v shift by +eta (no observed path uses them); with two
    cliques, the parameters shift by -eta in one clique and +eta in the
    other, which cancels along every path through v. The shifted family is
    validated before returning, so a too-large eta raises NotCNDError.
    """
    g = d.graph
    cliques = g.cliques_at(v)
    if len(cliques) == 1:
        signs = (+1.0,)
    elif len(cliques) == 2:
        signs = (-1.0, +1.0)
    else:
        raise ValueError(f"witness construction needs clique degree 1 or 2 at {v!r}")
    params = dict(d.edge_params)
    for ci, sign in zip(cliques, signs):
        for w in sorted(g.cliques[ci] - {v}):
            e = canonical_edge(v, w)
            params[e] = params[e] + sign * eta
    return validate_delta(g, params)
