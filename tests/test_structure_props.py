"""Property tests of the block-cut-tree queries and everything built on them.

Each example is a random block graph (a tree of cliques of sizes 2-5, or a
plain tree) with its node names shuffled, so the node the library roots
its tree at lands anywhere in the structure. Every result is compared with
a brute-force reference that finds explicit paths by a breadth-first
search over the clique list and shares no code with the library.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from extreme_blocks import (
    ObservationMask,
    build_block_graph,
    fit_delta_from_covariances,
    gaussian_limit,
    path_sum_matrix,
    precision_matrix,
    recover_path_sums,
    sample_limit_field,
)
from extreme_blocks.fit import _normal_equations
from extreme_blocks.graph import ROOT
from gen import path_graph, random_delta, star_graph
from oracle import explicit_paths, philox_field, sigma_coefficient_matrix

PROPS = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def block_graphs(draw, tree: bool = False):
    """(graph, cliques, seed): cliques attach at a uniformly drawn node."""
    spec = draw(st.lists(
        st.tuples(st.just(2) if tree else st.integers(2, 5), st.integers(0, 10**6)),
        min_size=1, max_size=10))
    cliques, n = [], 1
    for size, at in spec:
        cliques.append([at % n] + list(range(n, n + size - 1)))
        n += size - 1
    perm = draw(st.permutations(range(n)))
    name = [f"v{perm[i]:02d}" for i in range(n)]
    cliques = [[name[i] for i in c] for c in cliques]
    edges = [(c[i], c[j]) for c in cliques for i in range(len(c)) for j in range(i + 1, len(c))]
    return build_block_graph(name, edges), cliques, draw(st.integers(0, 2**31))


def any_graph():
    return st.one_of(block_graphs(), block_graphs(tree=True))


def fixed_case(g):
    """A block_graphs() value for a given graph, seed 0."""
    return g, [sorted(c) for c in g.cliques], 0


def explicit_sum(fam, path):
    return sum(fam.delta2(a, b) for a, b in zip(path, path[1:]))


# deep and wide: a path rooted at one end, and a star rooted at a leaf,
# so every other leaf climbs through the hub
@PROPS
@given(any_graph())
@example(fixed_case(path_graph(200)))
@example(fixed_case(star_graph(60)))
def test_path_queries_match_explicit_paths(case):
    g, cliques, _ = case
    for u in g.nodes:
        paths = explicit_paths(cliques, u)
        for v in g.nodes:
            path = paths[v]
            assert g.path_nodes(u, v) == path
            assert g.shortest_path(u, v) == tuple(zip(path, path[1:]))
            assert g.parent_toward(u, v) == (path[-2] if len(path) > 1 else u)
        for ci, s, _ in g._walk(g.index(u)):
            # a clique's separator in u's walk is its member nearest to u
            assert g.nodes[s] == min(g.cliques[ci], key=lambda c: len(paths[c]))
    for a, b in g.edges:
        # the entry of the clique list that holds both ends
        expect = next(set(c) for c in cliques if a in c and b in c)
        assert g.cliques[g.clique_of_edge(a, b)] == expect
        assert g.cliques[g.clique_of_edge(b, a)] == expect


@PROPS
@given(any_graph())
def test_walk_hangs_every_clique_once_from_its_separator(case):
    g, cliques, _ = case
    members = [sorted(g.index(v) for v in c) for c in g.cliques]
    for u in range(len(g.nodes)):
        walk = g._walk(u)
        assert sorted(ci for ci, _, _ in walk) == list(range(len(g.cliques)))
        reached = {u}
        for ci, s, targets in walk:
            assert s in reached  # u itself or a target of an earlier step
            assert targets == [t for t in members[ci] if t != s]
            reached.update(targets)
    root = g.nodes[0]
    for v, path in explicit_paths(cliques, root).items():
        iv = g.index(v)
        assert len(g._path(ROOT, iv)) == len(path)  # hops from the root, plus one
        assert g.nodes[g._up[iv]] == (path[-2] if len(path) > 1 else root)
        if iv != ROOT:
            # a node's parent clique is its step in the root walk, which
            # comes after its parent's own parent clique
            assert g._root_walk[g._up_step[iv]][0] == g._up_clique[iv]
            assert g._up_step[g._up[iv]] < g._up_step[iv]


@PROPS
@given(any_graph())
def test_path_sums_match_explicit_paths(case):
    g, cliques, seed = case
    fam = random_delta(g, np.random.default_rng(seed))
    p = path_sum_matrix(fam)
    for u in g.nodes:
        paths = explicit_paths(cliques, u)
        for v in g.nodes:
            assert abs(p.entry(u, v) - explicit_sum(fam, paths[v])) <= 1e-12


@PROPS
@given(any_graph(), st.data())
def test_covariance_coefficients_and_precision(case, data):
    g, _, seed = case
    fam = random_delta(g, np.random.default_rng(seed))
    u = data.draw(st.sampled_from(g.nodes))
    lim = gaussian_limit(fam, u)
    cov = lim.cov
    coeffs = sigma_coefficient_matrix(g, u)
    assert np.abs(coeffs @ fam.as_vector() - cov).max() <= 1e-12
    theta = precision_matrix(fam, u)
    assert np.abs(cov @ theta - np.eye(len(cov))).max() <= 1e-8
    assert np.abs(theta - np.linalg.inv(cov)).max() <= 1e-10 * max(1.0, np.abs(theta).max())
    adjacent = np.array([[a == b or g.has_edge(a, b) for b in lim.nodes] for a in lim.nodes])
    assert np.all(theta[~adjacent] == 0.0)


@PROPS
@given(any_graph(), st.data(), st.booleans())
def test_gram_is_positive_definite_for_any_weighted_anchor(case, data, with_means):
    # any anchor fixes P (p_ui = Sigma_u,ii / 4) and P fixes every edge, so
    # the fit needs no rank test. G does not depend on the moments' values,
    # only on the anchors and on whether means are given; every single
    # anchor is tried, since a larger set only adds positive semidefinite
    # terms
    g, _, _ = case
    drawn = data.draw(st.lists(st.sampled_from(g.nodes), min_size=1, unique=True))
    m = len(g.nodes) - 1
    for anchors in [drawn] + [[u] for u in g.nodes]:
        moments = {u: (np.zeros((m, m)), np.zeros(m) if with_means else None) for u in anchors}
        gram, _ = _normal_equations(g, moments)
        np.linalg.cholesky(gram)


@PROPS
@given(any_graph(), st.data(), st.booleans())
def test_gram_fit_matches_nnls_on_the_stacked_design(case, data, with_means):
    # the fit never forms the design; the reference stacks every anchor's
    # coefficient rows (plus the -1/2-diagonal mean rows) and solves them
    # with scipy's NNLS
    g, _, seed = case
    rng = np.random.default_rng(seed)
    fam = random_delta(g, rng)
    anchors = data.draw(st.lists(st.sampled_from(g.nodes), min_size=1, unique=True))
    m = len(g.nodes) - 1
    covs, means = {}, {}
    for u in anchors:
        lim = gaussian_limit(fam, u)
        covs[u] = lim.cov + rng.normal(0.0, 0.3, (m, m))
        means[u] = lim.mean + rng.normal(0.0, 0.3, m)
    rows, target = [], []
    for u in anchors:
        coeffs = sigma_coefficient_matrix(g, u)
        rows.append(coeffs.reshape(m * m, -1))
        target.append(covs[u].reshape(-1))
        if with_means:
            rows.append(-0.5 * np.diagonal(coeffs).T)
            target.append(means[u])
    design, target = np.vstack(rows), np.concatenate(target)
    expect = scipy.optimize.nnls(design, target)[0]
    resid = design @ expect - target
    res = fit_delta_from_covariances(g, covs, means if with_means else None)
    np.testing.assert_allclose(res.as_vector(g), expect, rtol=1e-9,
                               atol=1e-9 * np.abs(expect).max())
    assert res.objective == pytest.approx(resid @ resid, rel=1e-9, abs=1e-20)


@PROPS
@given(any_graph(), st.data())
def test_field_multiplies_increments_along_paths(case, data):
    g, cliques, seed = case
    fam = random_delta(g, np.random.default_rng(seed))
    u = data.draw(st.sampled_from(g.nodes))
    field = sample_limit_field(fam, u, 3, seed)
    for v, expect in philox_field(fam, cliques, u, 3, seed).items():
        np.testing.assert_allclose(field.matrix[:, field.nodes.index(v)], expect, rtol=1e-12, atol=0)


@PROPS
@given(block_graphs(), st.data())
def test_recovery_reproduces_path_sums(case, data):
    g, _, seed = case
    hubs = [v for v in g.nodes if g.clique_degree(v) >= 3]
    latent = data.draw(st.lists(st.sampled_from(hubs), unique=True) if hubs else st.just([]))
    fam = random_delta(g, np.random.default_rng(seed))
    p = path_sum_matrix(fam)
    mask = ObservationMask.from_latent(g, latent)
    rec = recover_path_sums(g, p.restrict(mask.observed), mask)
    assert rec.nodes == p.nodes
    assert np.abs(rec.values - p.values).max() <= 1e-9
