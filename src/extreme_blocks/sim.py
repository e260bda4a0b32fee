"""Seeded Monte-Carlo simulation of the limiting multiplicative field.

Increments are drawn clique by clique: within a clique the log-increments
are jointly normal with the clique-limit parameters anchored at its
separator toward the chosen node, and distinct cliques are independent.

Each logical stream is a Philox counter-based generator keyed by the pair
(seed, tag): the user seed, an integer in [0, 2**64), occupies the high 64
bits of the 128-bit key and the tag the low 64. Tags 0, 1, 2, ... index
cliques; the radial Pareto stream uses a reserved high tag so it can never
collide with a clique index. Draw indices advance the Philox counter, so
a stream's output is a pure function of (seed, tag, draw index):
per-clique draws are independent, order-insensitive, and reproducible
regardless of how many workers execute them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import numpy as np

from .errors import SingularBlockError, UnknownNodeError
from .model import DeltaFamily, _increment_law
from .mvn import _check_seed

__all__ = [
    "IncrementDraw",
    "FieldSample",
    "sample_increments",
    "sample_limit_field",
    "sample_pareto_conditioned",
]

_PARETO_STREAM_TAG = 1 << 62


def _philox_stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | tag))


@dataclass(frozen=True)
class IncrementDraw:
    """One joint draw of the edge increments pointing away from the anchor.

    `values` maps directed edges (s, v) to Z_e; `groups` lists those edges
    clique by clique. Every node other than the anchor appears exactly once
    as an edge endpoint.
    """

    anchor: str
    values: dict[tuple[str, str], float]
    groups: tuple[tuple[tuple[str, str], ...], ...]


@dataclass(frozen=True)
class FieldSample:
    """n draws of the limiting field A_u; the anchor column is identically 1."""

    anchor: str
    nodes: tuple[str, ...]
    matrix: np.ndarray

    def column(self, v: str) -> np.ndarray:
        try:
            return self.matrix[:, self.nodes.index(v)]
        except ValueError:
            raise UnknownNodeError(f"unknown node {v!r}") from None


def _ln_increments(d: DeltaFamily, u: str, n: int, seed: int, threads: int = 1):
    """(walk, lnz): the block-cut tree's walk of (clique, separator,
    targets) away from u, and the (|V|, n) log-increments by node. Row t
    holds the n draws of ln Z for the edge into t from its clique's
    separator; row u is zero.

    A clique's targets draw from its increment law at its separator, by
    dense index. A seed that is not an integer in [0, 2**64) raises
    ValueError.
    """
    seed = _check_seed(seed)
    g = d.graph
    walk = g._walk(g.index(u))
    out = np.zeros((len(g.nodes), n))

    def fill(step):
        ci, s, targets = step
        mean, psi = _increment_law(d, ci, s)
        try:
            chol = np.linalg.cholesky(psi)
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError(
                f"increment covariance for targets {[g.nodes[t] for t in targets]} "
                "is not factorizable") from exc
        rng = _philox_stream(seed, ci)
        z = rng.standard_normal((n, len(targets)))
        out[targets] = (mean[None, :] + z @ chol.T).T

    if threads > 1:
        # more workers than CPUs gain nothing; draws do not depend on the count
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            list(pool.map(fill, walk))
    else:
        for step in walk:
            fill(step)
    return walk, out


def sample_increments(d: DeltaFamily, u: str, rng_seed: int) -> IncrementDraw:
    """Draw the increment vector Z once: jointly normal on the log scale
    within each clique, independent across cliques, then exponentiated."""
    g = d.graph
    walk, lnz = _ln_increments(d, u, 1, rng_seed)
    values: dict[tuple[str, str], float] = {}
    groups = []
    for _, s, targets in sorted(walk):  # groups in clique order
        edges = {(g.nodes[s], g.nodes[t]): float(np.exp(lnz[t, 0])) for t in targets}
        values.update(edges)
        groups.append(tuple(edges))
    return IncrementDraw(u, values, tuple(groups))


def sample_limit_field(d: DeltaFamily, u: str, n: int, rng_seed: int,
                       threads: int = 1) -> FieldSample:
    """n independent draws of A_u, where A_uv multiplies the increments
    along the unique shortest path from u to v and A_uu = 1.

    The log-increments accumulate clique by clique away from u: a
    clique's targets t add their own increment to their separator's
    field, ln A_ut = ln A_us + ln Z_t.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    g = d.graph
    walk, ln_a = _ln_increments(d, u, n, rng_seed, threads)
    for _, s, targets in walk:
        ln_a[targets] += ln_a[s]
    return FieldSample(u, g.nodes, np.ascontiguousarray(np.exp(ln_a).T))


def sample_pareto_conditioned(d: DeltaFamily, u: str, n: int, rng_seed: int,
                              threads: int = 1) -> np.ndarray:
    """Spectral construction of (Y | Y_u > 1): rows P_i * A_u^(i) with P_i
    independent unit Pareto. Columns follow the sorted node order."""
    field = sample_limit_field(d, u, n, rng_seed, threads)
    rng = _philox_stream(rng_seed, _PARETO_STREAM_TAG)
    radial = 1.0 / (1.0 - rng.random(n))
    return radial[:, None] * field.matrix
