"""Latent-node identifiability and exact parameter recovery.

When some nodes carry unobserved variables, the restricted path-sum matrix
over the observed nodes still determines every edge parameter provided each
latent node lies in at least three cliques. Recovery walks outward from
each latent node to observable anchor nodes in three distinct clique
directions and solves the resulting three path-sum equations; chains of
adjacent latent nodes repeat the procedure one node further out.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _distance_to_anchor(g: BlockGraph, a: int, ibar: int, other_cliques: list[int],
                        dirs: dict[int, int], p_obs, tol: float) -> float:
    """p(a, ibar) from observable path sums, checked across all valid
    pairs of auxiliary clique directions."""
    values = []
    for n1 in range(len(other_cliques)):
        for n2 in range(n1 + 1, len(other_cliques)):
            jbar = dirs[other_cliques[n1]]
            ybar = dirs[other_cliques[n2]]
            values.append(0.5 * (p_obs(ibar, jbar) + p_obs(ibar, ybar) - p_obs(ybar, jbar)))
    if not values:
        raise NotIdentifiableError([g.nodes[a]])
    spread = max(values) - min(values)
    if spread > tol:
        raise InconsistentInputError(
            f"recovered p({g.nodes[a]}, {g.nodes[ibar]}) differs by {spread:.3e} across anchor triples"
        )
    return values[0]


def recover_path_sums(g: BlockGraph, p_obs: PathSumMatrix, mask: ObservationMask,
                      *, tol: float = 1e-9) -> PathSumMatrix:
    """Reconstruct the full path-sum matrix from its restriction to the
    observed nodes.

    Observable edges read off directly; edges at latent nodes come from the
    three-anchor equations, repeated one node outward along latent chains.
    Each anchor is the smallest observable node in a direction, read off
    the latent node's labels: for every node, the clique at the latent
    node that holds the first edge of the path to it. The reconstruction
    is validated by restricting back and comparing to the input.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if tuple(p_obs.nodes) != mask.observed:
        raise ValueError("path-sum matrix nodes must match the observed set")
    vals = p_obs.values
    if not np.allclose(vals, vals.T, atol=1e-12 * max(1.0, float(np.abs(vals).max()))):
        raise InconsistentInputError("observed path sums are not symmetric")
    if np.any(np.abs(np.diag(vals)) > 0):
        raise InconsistentInputError("observed path sums have nonzero diagonal")

    ok, offending = check_identifiable(g, mask)
    if not ok:
        raise NotIdentifiableError(offending)

    n = len(g.nodes)
    observed = [g.index(v) for v in mask.observed]
    row = np.full(n, -1)            # row of each observed node in p_obs
    row[observed] = np.arange(len(observed))

    def p(i: int, j: int) -> float:  # the upper triangle, as given
        ri, rj = sorted((row[i], row[j]))
        return float(vals[ri, rj])

    # per latent node: the first clique toward every node, and per clique at
    # it the smallest observable node whose path starts in that clique
    label = {a: g._first_cliques(a) for a in (g.index(v) for v in mask.latent)}
    dirs = {a: {ci: n for ci in g._cliques_at[a]} for a in label}
    for a, lab in label.items():
        for x in reversed(observed):
            dirs[a][lab[x]] = x

    delta2: dict[tuple[str, str], float] = {}
    for a, b in g.edges_sorted():
        ia, ib = g.index(a), g.index(b)
        if row[ia] >= 0 and row[ib] >= 0:
            delta2[(a, b)] = p(ia, ib)
            continue
        # orient the edge so the first endpoint is latent
        lat, other = (ia, ib) if row[ia] < 0 else (ib, ia)
        ci_edge = g.clique_of_edge(a, b)
        ibar = other if row[other] >= 0 else next(
            (x for x in observed if label[other][x] != ci_edge), n)
        if ibar == n:
            raise InconsistentInputError(
                f"no observable anchor beyond edge ({g.nodes[lat]}, {g.nodes[other]}); "
                "mask is not identifiable"
            )
        others = [ci for ci in g._cliques_at[lat] if ci != ci_edge and dirs[lat][ci] < n]
        p_lat_ibar = _distance_to_anchor(g, lat, ibar, others, dirs[lat], p, tol)
        if row[other] >= 0:
            value = p_lat_ibar
        else:
            # chain case: resolve p(other, ibar) with the same scheme one
            # node further out, then subtract
            ci_toward = label[other][ibar]
            others_b = [ci for ci in g._cliques_at[other] if ci != ci_toward and dirs[other][ci] < n]
            value = p_lat_ibar - _distance_to_anchor(g, other, ibar, others_b, dirs[other], p, tol)
        if value <= 0:
            raise InconsistentInputError(
                f"recovered edge parameter for ({a}, {b}) is non-positive: {value:.3e}"
            )
        delta2[(a, b)] = value

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
