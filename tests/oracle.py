"""Brute-force references that share no code with the library.

Paths are found by a breadth-first search over explicit node lists, and
the covariance coefficients are read off the resulting path incidence.
"""

from collections import deque

import numpy as np


def explicit_paths(cliques, source):
    """Node sequence of the path from source to every node, found by a
    breadth-first search over the clique list (or the edge list, whose
    pairs give the same adjacency)."""
    adj = {}
    for c in cliques:
        for v in c:
            adj.setdefault(v, set()).update(w for w in c if w != v)
    paths, queue = {source: (source,)}, deque([source])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in paths:
                paths[w] = paths[v] + (w,)
                queue.append(w)
    return paths


def explicit_incidence(g, cliques):
    """inc[i, j, e] = 1 when edge e (in sorted order) lies on the explicit
    path from node i to node j."""
    column = {e: k for k, e in enumerate(g.edges_sorted())}
    inc = np.zeros((len(g.nodes), len(g.nodes), len(column)))
    for i, a in enumerate(g.nodes):
        for j, path in explicit_paths(cliques, a).items():
            for e in zip(path, path[1:]):
                inc[i, g.nodes.index(j), column[tuple(sorted(e))]] = 1.0
    return inc


def sigma_coefficient_matrix(g, u):
    """Coefficients of Sigma_u as a linear map of the sorted delta^2 vector.

    An array of shape (m, m, |E|) with m = |V| - 1 such that Sigma_u =
    coeffs @ delta2_vector: entry (i, j) is 2 (X_ui + X_uj - X_ij) over
    the nodes other than u, with X the explicit path incidence.
    """
    inc = explicit_incidence(g, g.edges)
    iu = g.nodes.index(u)
    rest = [i for i in range(len(g.nodes)) if i != iu]
    at_u = inc[iu, rest]
    return 2.0 * (at_u[:, None] + at_u[None, :] - inc[np.ix_(rest, rest)])
