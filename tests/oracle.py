"""Brute-force references for the tests.

Most share no code with the library. Paths are found by a breadth-first
search over explicit node lists, and the covariance coefficients are read
off the resulting path incidence. The MVN lattice's generating vector is
re-derived by its search. The clique precisions are summed over all
nodes, so Theta_u is a plain gather. A clique's increment law is written
entry by entry from the edge parameters.

Two build on the library. `mc_stdf` averages over draws of the library's
sampler, so it cross-checks the sampler against the MVN path of the stdf
rather than replacing either. `nonidentifiable_witness` returns a family
that the library validates.

`philox_increments` and `philox_field` replay the library's random
streams, keyed by its clique indices, but take each clique's separator
and law from the explicit paths and `clique_limit_params`, and multiply
the increments along the explicit paths instead of summing logs.

`ordered_cholesky_numpy` is the MVN term's greedy reordering and Cholesky
factor as it was written on numpy arrays, with scipy's ndtr and a fresh
BLAS dot for every sum; the library's float version must pick the same
pivots and agree to rounding.

The `*_by_copies` functions are the fit's data path written the slow,
plain way: a stable sort per column, an `np.ix_` gather and a second log
per anchor, `np.cov`, and 16 orientation gathers for the Gram matrix.
The library must match them bit for bit.
"""

import math
from collections import deque

import numpy as np

from extreme_blocks import NotPDError, sample_limit_field, validate_delta
from extreme_blocks.graph import canonical_edge
from extreme_blocks.model import _entry_classes


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


def clique_precisions(fam):
    """Sum of the clique precisions over all nodes, from the family's
    clique matrices Delta_C. With K = Psi_C^-1 at the first member s,
    clique C adds K on its other members, -K 1 between them and s, and
    1'K 1 at (s, s); the rows sum to zero, so deleting u's row and column
    gives Theta_u."""
    g = fam.graph
    theta = np.zeros((len(g.nodes),) * 2)
    for m, members in zip(fam.blocks, g._members):
        s, idx = members[0], members[1:]
        row = m[0, 1:]
        k = np.linalg.inv(2.0 * (row[:, None] + row[None, :] - m[1:, 1:]))
        col = k.sum(axis=1)
        theta[np.ix_(idx, idx)] += k
        theta[idx, s] = theta[s, idx] = -col
        theta[s, s] += col.sum()
    return theta


def check_cnd(m):
    """True when a'Ma < 0 for every nonzero a with sum(a) = 0, read off
    the eigenvalues of Q'MQ for an orthonormal basis Q of the zero-sum
    subspace: the largest must lie below 1e-10 times the most negative."""
    d = len(m)
    q = np.linalg.qr(np.eye(d)[:, :-1] - np.eye(d)[:, -1:])[0]
    w = np.linalg.eigvalsh(q.T @ m @ q)
    return bool(w[-1] < 1e-10 * w[0])


def ordered_cholesky_numpy(cov, upper):
    """(L, b) of the greedy reordering by expected truncation: at each
    stage the variable of smallest conditional upper-tail mass is the
    pivot, ties going to the first; NotPDError where a conditional
    variance is at most 1e-15 max(variance, 1)."""
    from scipy.special import ndtr

    d = cov.shape[0]
    c = cov.astype(float).copy()
    b = upper.astype(float).copy()
    L = np.zeros((d, d))
    y = np.zeros(d)

    for k in range(d):
        best, best_p = k, np.inf
        for i in range(k, d):
            denom = c[i, i] - L[i, :k] @ L[i, :k]
            if denom <= 1e-15 * max(c[i, i], 1.0):
                raise NotPDError("covariance matrix is not positive definite")
            s = (b[i] - L[i, :k] @ y[:k]) / math.sqrt(denom)
            p = ndtr(s)
            if p < best_p:
                best_p, best, pivot = p, i, denom
        if best != k:
            c[[k, best], :] = c[[best, k], :]
            c[:, [k, best]] = c[:, [best, k]]
            L[[k, best], :] = L[[best, k], :]
            b[[k, best]] = b[[best, k]]

        L[k, k] = math.sqrt(pivot)
        for i in range(k + 1, d):
            L[i, k] = (c[i, k] - L[i, :k] @ L[k, :k]) / L[k, k]

        sk = (b[k] - L[k, :k] @ y[:k]) / L[k, k]
        ek = max(float(ndtr(sk)), 1e-300)
        # mean of a standard normal truncated to (-inf, sk]
        if math.isinf(sk):
            y[k] = 0.0
        else:
            y[k] = -math.exp(-0.5 * sk * sk) / (math.sqrt(2.0 * math.pi) * ek)
    return L, b


def embedded_cbc(dims):
    """Generating vector of an embedded rank-1 lattice in base 2, found
    component by component (Cools, Kuo & Nuyens 2006).

    Component 1 is 1. Component j = 2..dims is drawn from the distinct odd
    candidates 2 rng.integers(0, 2**15, 1024) + 1, rng =
    np.random.default_rng(1), as the one minimising the weighted sum over
    m = 8..16 of 4**m times the squared worst-case error of the 2**m
    point lattice in the Korobov space of smoothness 1 with product
    weights gamma_j = 1/j**2:
    mean_k prod_i (1 + gamma_i 2 pi^2 B_2({k z_i / 2**m})) - 1, where
    B_2(x) = x^2 - x + 1/6. Every 2**m point lattice is a subsample of the
    2**16 point one, so one product over its points serves every m.
    """
    low, high, candidates, chunk = 8, 16, 1024, 16
    rng = np.random.default_rng(1)
    big = 1 << high
    k = np.arange(big, dtype=np.int64)

    def factor(z, j):  # 1 + gamma_j 2 pi^2 B_2({k z / 2**high}), rows by z
        x = (np.multiply.outer(z, k) % big) / big
        return 1.0 + 2.0 * math.pi ** 2 / j ** 2 * (x * x - x + 1.0 / 6.0)

    z = [1]
    prod = factor(np.array(1), 1)
    for j in range(2, dims + 1):
        cand = np.unique(2 * rng.integers(0, 1 << (high - 1), candidates) + 1)
        score = np.zeros(cand.size)
        for a in range(0, cand.size, chunk):
            f = prod * factor(cand[a:a + chunk], j)
            for m in range(low, high + 1):
                score[a:a + chunk] += 4.0 ** m * (f[:, ::1 << (high - m)].mean(axis=1) - 1.0)
        z.append(int(cand[np.argmin(score)]))
        prod = prod * factor(np.array(z[-1]), j)
    return tuple(z)


def clique_limit_params(fam, clique, s):
    """Law of clique C's log-increments from member s to its other members
    v, in sorted order: mean -2 delta_sv^2 and covariance
    2 (delta_sv^2 + delta_sw^2 - delta_vw^2), with delta_vv^2 = 0."""
    rest = sorted(set(clique) - {s})

    def d2(a, b):
        return 0.0 if a == b else fam.delta2(a, b)

    mean = np.array([-2.0 * d2(s, v) for v in rest])
    psi = np.array([[2.0 * (d2(s, v) + d2(s, w) - d2(v, w)) for w in rest] for v in rest])
    return mean, psi


def philox_increments(fam, u, n, seed):
    """n draws of every edge increment Z_(s, v) away from u, keyed (s, v).

    Clique C, at index ci of the library's sorted clique list, hangs from
    its member s nearest u. Its log-increments to the other members in
    sorted order are mean + chol(psi) z, with (mean, psi) from
    `clique_limit_params` and z the first n x |C - 1| standard normals of
    the Philox stream keyed seed << 64 | ci.
    """
    paths = explicit_paths(fam.graph.cliques, u)
    z = {}
    for ci, clique in enumerate(fam.graph.cliques):
        s = min(clique, key=lambda v: len(paths[v]))
        mean, psi = clique_limit_params(fam, clique, s)
        rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) | ci))
        draws = np.exp(mean + rng.standard_normal((n, len(mean))) @ np.linalg.cholesky(psi).T)
        for k, v in enumerate(sorted(set(clique) - {s})):
            z[s, v] = draws[:, k]
    return z


def philox_field(fam, cliques, u, n, seed):
    """n draws of A_uv for every node v, keyed v: the product of the
    `philox_increments` along the explicit path from u to v over the
    clique list."""
    z = philox_increments(fam, u, n, seed)
    return {v: np.prod([np.ones(n), *(z[e] for e in zip(path, path[1:]))], axis=0)
            for v, path in explicit_paths(cliques, u).items()}


def mc_stdf(fam, u, x, n, seed):
    """Monte-Carlo stdf E[max_v x_v A_uv] over n draws of the limit field
    anchored at u, with its standard error. x holds a weight per node in
    sorted order, or maps nodes to weights (others weigh 0)."""
    nodes = fam.graph.nodes
    if isinstance(x, dict):
        x = [x.get(v, 0.0) for v in nodes]
    maxima = (sample_limit_field(fam, u, n, seed).matrix * np.asarray(x, dtype=float)).max(axis=1)
    return float(maxima.mean()), float(maxima.std(ddof=1) / math.sqrt(n))


def nonidentifiable_witness(fam, v, eta):
    """A distinct family with the same path sums between the nodes other
    than v, which lies in one or two cliques.

    With one clique, every edge parameter at v shifts by +eta: no path
    between other nodes uses them. With two, they shift by -eta in one
    clique and +eta in the other, which cancels along every path through
    v. The shifted family is validated, so a too-large eta raises
    NotCNDError; ValueError at three or more cliques.
    """
    g = fam.graph
    cliques = g.cliques_at(v)
    if len(cliques) > 2:
        raise ValueError(f"witness construction needs clique degree 1 or 2 at {v!r}")
    params = dict(fam.edge_params)
    for ci, sign in zip(cliques, (1.0,) if len(cliques) == 1 else (-1.0, 1.0)):
        for w in sorted(g.cliques[ci] - {v}):
            params[canonical_edge(v, w)] += sign * eta
    return validate_delta(g, params)


def ranks_by_copies(data):
    """(n+1)/(n+1-r) per column, r the average rank, from a stable sort."""
    n = data.shape[0]
    out = np.empty_like(data)
    for j in range(data.shape[1]):
        col = data[:, j]
        order = np.argsort(col, kind="stable")
        ordered = col[order]
        start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        end = np.r_[start[1:], len(col)]
        ranks = np.empty(len(col))
        ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
        out[:, j] = (n + 1.0) / (n + 1.0 - ranks)
    return out


def spacings_by_copies(data, nodes, u, k):
    """log_spacings of a pareto-scale table: the k largest anchor rows,
    ties by row index, gathered with np.ix_ and logged apart from the anchor."""
    n = data.shape[0]
    anchor = data[:, nodes.index(u)]
    kth = np.partition(anchor, n - k)[n - k]
    above = np.flatnonzero(anchor > kth)
    top = np.sort(np.r_[above, np.flatnonzero(anchor == kth)[:k - len(above)]])
    top = top[np.argsort(-anchor[top], kind="stable")]
    cols = [j for j, v in enumerate(nodes) if v != u]
    logs = np.log(data[np.ix_(top, cols)])
    return logs - np.log(anchor[top])[:, None]


def cov_by_copies(mat):
    """The (m, m) sample covariance of the rows of mat by np.cov."""
    m = mat.shape[1]
    return np.cov(mat, rowvar=False, ddof=1).reshape(m, m)


def normal_equations_by_copies(g, moments):
    """G and h of the fit from {u: (cov_hat, mean_hat or None)}, each
    anchor added by an np.ix_ gather, G by 16 orientation gathers."""
    n = len(g.nodes)
    classes, ends = _entry_classes(g)
    mean_weight = 0.0 if any(mean_hat is None for _, mean_hat in moments.values()) else 1.0
    w = np.zeros(n)
    spread = np.zeros((n, n))
    lines = np.zeros((n, n))
    for u, (cov_hat, mean_hat) in moments.items():
        iu = g.index(u)
        rest = np.r_[:iu, iu + 1:n]
        w[iu] = 1.0
        spread[np.ix_(rest, rest)] += cov_hat
        line = 2.0 * (cov_hat.sum(axis=0) + cov_hat.sum(axis=1))
        if mean_hat is not None:
            line -= 2.0 * mean_hat
        lines[rest, iu] = line
    count = classes.T @ classes
    wcount = classes.T @ (w[:, None] * classes)
    size, wsize = np.diagonal(count), np.diagonal(wcount)
    a, b = ends.T
    rows, inner = classes.T @ lines @ classes, classes.T @ spread @ classes
    target = rows[a, b] + rows[b, a] - 2.0 * (inner[a, b] + inner[b, a])
    gram = np.zeros((len(a), len(a)))
    for p, q in ((a, b), (b, a)):
        for r, s in ((a, b), (b, a)):
            gram += ((2 * n + mean_weight) * count[np.ix_(q, s)] + 2.0 * np.outer(size[q], size[s])) \
                * wcount[np.ix_(p, r)]
            gram -= 2.0 * (wsize[p, None] * count[np.ix_(q, r)] * size[s]
                           + size[q, None] * count[np.ix_(p, s)] * wsize[r])
            gram += w.sum() * count[np.ix_(p, r)] * count[np.ix_(q, s)]
    return 4.0 * gram, target
