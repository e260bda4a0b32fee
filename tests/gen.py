"""Random instance generators shared across the test suite.

Block graphs are built as random trees of cliques (sizes 2-5); edge
parameters come from squared distances of random point clouds, which are
conditionally negative definite with probability one, rescaled into a
target range.
"""

import numpy as np

from extreme_blocks import BlockGraph, DeltaFamily, build_block_graph, validate_delta


def random_block_graph(rng: np.random.Generator, max_nodes: int = 15) -> BlockGraph:
    nodes = ["n00"]
    cliques = []
    while len(nodes) < max_nodes:
        size = int(rng.integers(2, 6))
        size = min(size, max_nodes - len(nodes) + 1)
        attach = nodes[int(rng.integers(len(nodes)))]
        fresh = [f"n{len(nodes) + i:02d}" for i in range(size - 1)]
        nodes = nodes + fresh
        cliques.append([attach] + fresh)
        if rng.random() < 0.3:
            break
    edges = []
    for c in cliques:
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                edges.append((c[i], c[j]))
    if not edges:
        nodes, edges = ["n00", "n01"], [("n00", "n01")]
    return build_block_graph(nodes, edges)


def clique_tree_edges(rng: np.random.Generator, n_nodes: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and edges of a clique tree on exactly n_nodes nodes: cliques
    of 2-5 nodes, each attached at a uniformly drawn earlier node."""
    nodes = [f"n{i:05d}" for i in range(n_nodes)]
    edges, used = [], 1
    while used < n_nodes:
        size = min(int(rng.integers(2, 6)), n_nodes - used + 1)
        clique = [nodes[int(rng.integers(used))]] + nodes[used:used + size - 1]
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        used += size - 1
    return nodes, edges


def random_tree(rng: np.random.Generator, n_nodes: int = 8) -> BlockGraph:
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    edges = [(nodes[int(rng.integers(i))], nodes[i]) for i in range(1, n_nodes)]
    return build_block_graph(nodes, edges)


def path_graph(n_nodes: int) -> BlockGraph:
    """A chain p00000 - p00001 - ...; the library roots it at one end."""
    nodes = [f"p{i:05d}" for i in range(n_nodes)]
    return build_block_graph(nodes, list(zip(nodes, nodes[1:])))


def star_graph(n_leaves: int) -> BlockGraph:
    """A hub joined to n_leaves leaves; the library roots it at a leaf."""
    leaves = [f"a{i:05d}" for i in range(n_leaves)]
    return build_block_graph(["hub", *leaves], [("hub", v) for v in leaves])


def random_delta(g: BlockGraph, rng: np.random.Generator,
                 lo: float = 0.3, hi: float = 2.5) -> DeltaFamily:
    params = {}
    for clique in g.cliques:
        members = sorted(clique)
        k = len(members)
        if k == 2:
            params[(members[0], members[1])] = float(rng.uniform(lo, hi))
            continue
        for _ in range(500):
            x = rng.standard_normal((k, k))
            d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
            off = d2[np.triu_indices(k, 1)]
            d2 = d2 * np.sqrt(lo * hi / (off.min() * off.max()))
            off = d2[np.triu_indices(k, 1)]
            if off.min() >= lo and off.max() <= hi:
                break
        else:  # equal off-diagonals are CND for any positive value
            d2 = float(rng.uniform(lo, hi)) * (np.ones((k, k)) - np.eye(k))
        for i in range(k):
            for j in range(i + 1, k):
                params[(members[i], members[j])] = float(d2[i, j])
    return validate_delta(g, params)
