"""Seeded Monte-Carlo simulation of the limiting multiplicative field.

Two samplers are public: the field A_u and the conditioned Pareto vector
built on it. The edge increments are drawn inside the field sampler,
clique by clique: within a clique the log-increments are jointly normal
with the clique-limit parameters anchored at its separator toward the
chosen node, and distinct cliques are independent.

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

from .errors import SingularBlockError
from .model import DeltaFamily, _increment_law
from .mvn import _check_seed

__all__ = [
    "FieldSample",
    "sample_limit_field",
    "sample_pareto_conditioned",
]

_PARETO_STREAM_TAG = 1 << 62


def _philox_stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | tag))


@dataclass(frozen=True)
class FieldSample:
    """n draws of the limiting field A_u; the anchor column is identically 1."""

    anchor: str
    nodes: tuple[str, ...]
    matrix: np.ndarray


def sample_limit_field(d: DeltaFamily, u: str, n: int, rng_seed: int,
                       threads: int = 1) -> FieldSample:
    """n independent draws of A_u, where A_uv multiplies the increments
    along the unique shortest path from u to v and A_uu = 1.

    The block-cut tree's walk away from u gives each clique with its
    separator s and targets t. The targets draw their log-increments ln Z_t,
    for the edges from s, from the clique's increment law at s by dense
    index; then the log-field accumulates clique by clique along the walk,
    ln A_ut = ln A_us + ln Z_t. A seed that is not an integer in
    [0, 2**64) raises ValueError.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    seed = _check_seed(rng_seed)
    g = d.graph
    walk = g._walk(g.index(u))
    ln_a = np.zeros((len(g.nodes), n))  # row u stays zero

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
        ln_a[targets] = (mean[None, :] + z @ chol.T).T

    if threads > 1:
        # more workers than CPUs gain nothing; draws do not depend on the count
        with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            list(pool.map(fill, walk))
    else:
        for step in walk:
            fill(step)
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
