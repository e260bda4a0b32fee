from itertools import combinations_with_replacement

import numpy as np
import pytest

from extreme_blocks import (
    InconsistentInputError,
    NotIdentifiableError,
    ObservationMask,
    PathSumMatrix,
    UnknownNodeError,
    build_block_graph,
    check_identifiable,
    path_sum_matrix,
    recover_edge_params,
    recover_path_sums,
    validate_delta,
)
from conftest import FIG4_EDGES, FIG4_NODES
from gen import random_block_graph, random_delta
from oracle import nonidentifiable_witness


@pytest.fixture()
def fig4_family(fig4_graph):
    return random_delta(fig4_graph, np.random.default_rng(13), lo=0.4, hi=2.0)


def hub_chain():
    """Three adjacent hubs a - b - c, each in three cliques."""
    edges = [("a", "b"), ("b", "c"),
             ("a", "a1"), ("a", "a2"), ("a1", "a2"), ("a", "a3"),
             ("b", "b1"), ("b", "b2"), ("b1", "b2"),
             ("c", "c1"), ("c", "c2"), ("c1", "c2"), ("c", "c3")]
    nodes = sorted({v for e in edges for v in e})
    return build_block_graph(nodes, edges)


def quadruple_values(g, p, observed, a, b):
    """(p(x1,y1) + p(x2,y2) - p(x1,x2) - p(y1,y2)) / 2 over every observed
    quadruple whose x-pair has a on its path and lies beyond a from b, and
    whose y-pair does the same at b."""
    def pairs(a, b):
        side = [x for x in observed if a in g.path_nodes(x, b)]
        return [(x1, x2) for x1, x2 in combinations_with_replacement(side, 2)
                if a in g.path_nodes(x1, x2)]

    def q(x, y):
        return 0.0 if x == y else p.entry(x, y)

    return [0.5 * (q(x1, y1) + q(x2, y2) - q(x1, x2) - q(y1, y2))
            for x1, x2 in pairs(a, b) for y1, y2 in pairs(b, a)]


class TestCheckIdentifiable:
    def test_center_latent_ok(self, fig4_graph):
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        ok, offending = check_identifiable(fig4_graph, mask)
        assert ok and offending == ()

    def test_leaf_latent_fails(self, fig4_graph):
        mask = ObservationMask.from_latent(fig4_graph, ["1"])
        ok, offending = check_identifiable(fig4_graph, mask)
        assert not ok and offending == ("1",)

    def test_empty_latent(self, fig4_graph):
        mask = ObservationMask.from_latent(fig4_graph, [])
        assert check_identifiable(fig4_graph, mask) == (True, ())

    def test_degree_two_fails(self, fig1_graph):
        mask = ObservationMask.from_latent(fig1_graph, ["6"])
        ok, offending = check_identifiable(fig1_graph, mask)
        assert not ok and offending == ("6",)


class TestObservationMask:
    def test_unknown_latent_node_rejected(self, fig4_graph):
        with pytest.raises(UnknownNodeError, match="'9'"):
            ObservationMask.from_latent(fig4_graph, ["3", "9"])

    def test_every_node_latent_rejected(self, fig4_graph):
        with pytest.raises(ValueError, match="at least one node must be observed"):
            ObservationMask.from_latent(fig4_graph, fig4_graph.nodes)

class TestRecoverPathSums:
    def test_fig4_three_anchor_identity(self, fig4_graph, fig4_family):
        p = path_sum_matrix(fig4_family)
        lhs = fig4_family.delta2("1", "3")
        rhs = 0.5 * (p.entry("1", "4") + p.entry("1", "6") - p.entry("4", "6"))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_fig4_round_trip(self, fig4_graph, fig4_family):
        p = path_sum_matrix(fig4_family)
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        rec = recover_path_sums(fig4_graph, p.restrict(mask.observed), mask)
        assert rec.nodes == p.nodes
        assert np.abs(rec.values - p.values).max() <= 1e-10

    def test_no_latent_passthrough(self, fig4_graph, fig4_family):
        p = path_sum_matrix(fig4_family)
        mask = ObservationMask.from_latent(fig4_graph, [])
        rec = recover_path_sums(fig4_graph, p, mask)
        assert np.array_equal(rec.values, p.values)

    def test_not_identifiable_raises(self, fig4_graph, fig4_family):
        p = path_sum_matrix(fig4_family)
        mask = ObservationMask.from_latent(fig4_graph, ["1"])
        with pytest.raises(NotIdentifiableError):
            recover_path_sums(fig4_graph, p.restrict(mask.observed), mask)

    @pytest.mark.parametrize("latent", [["3", "1"], []])
    def test_observed_nodes_must_match_the_mask(self, fig4_graph, fig4_family, latent):
        p = path_sum_matrix(fig4_family)
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        other = ObservationMask.from_latent(fig4_graph, latent)
        with pytest.raises(ValueError, match="observed set"):
            recover_path_sums(fig4_graph, p.restrict(other.observed), mask)

    def test_nonzero_diagonal_rejected(self, fig4_graph, fig4_family):
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        obs = path_sum_matrix(fig4_family).restrict(mask.observed)
        bad = obs.values.copy()
        bad[2, 2] = 1e-3
        with pytest.raises(InconsistentInputError, match="nonzero diagonal"):
            recover_path_sums(fig4_graph, PathSumMatrix(obs.nodes, bad), mask)

    def test_anchor_quadruples_that_disagree_rejected(self):
        # a latent hub h in four cliques: each edge h - a has three anchor
        # pairs from the other directions, and a shifted p(b, c) moves the
        # value of the pair (b, c) alone
        g = build_block_graph(list("abcdh"), [(v, "h") for v in "abcd"])
        fam = validate_delta(g, {("a", "h"): 0.5, ("b", "h"): 0.7, ("c", "h"): 0.9, ("d", "h"): 1.1})
        mask = ObservationMask.from_latent(g, ["h"])
        obs = path_sum_matrix(fam).restrict(mask.observed)
        bad = obs.values.copy()
        i, j = obs.index("b"), obs.index("c")
        bad[i, j] = bad[j, i] = bad[i, j] + 0.05
        with pytest.raises(InconsistentInputError, match="across anchor quadruples"):
            recover_path_sums(g, PathSumMatrix(obs.nodes, bad), mask)

    def test_corrupted_input_detected(self, fig4_graph, fig4_family):
        p = path_sum_matrix(fig4_family)
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        obs = p.restrict(mask.observed)
        bad = obs.values.copy()
        i, j = obs.index("4"), obs.index("6")
        bad[i, j] += 0.05
        bad[j, i] += 0.05
        with pytest.raises(InconsistentInputError):
            recover_path_sums(fig4_graph, PathSumMatrix(obs.nodes, bad), mask)

    def test_non_positive_observed_edge_rejected(self):
        # with nothing latent every edge is read directly; p_ab = -1 and
        # p_bc = 2 restrict back to p_ac = 1, so only the edge check sees it
        g = build_block_graph("abc", [("a", "b"), ("b", "c")])
        mask = ObservationMask.from_latent(g, [])
        obs = PathSumMatrix(tuple("abc"), np.array([[0.0, -1.0, 1.0],
                                                    [-1.0, 0.0, 2.0],
                                                    [1.0, 2.0, 0.0]]))
        with pytest.raises(InconsistentInputError, match=r"\(a, b\) is non-positive"):
            recover_path_sums(g, obs, mask)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_input_rejected(self, fig4_graph, fig4_family, bad):
        # an infinite entry used to come back as a non-finite P, a NaN as
        # an asymmetry
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        obs = path_sum_matrix(fig4_family).restrict(mask.observed)
        vals = obs.values.copy()
        i, j = obs.index("4"), obs.index("5")
        vals[i, j] = vals[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            recover_path_sums(fig4_graph, PathSumMatrix(obs.nodes, vals), mask)

    def test_symmetry_check_has_no_relative_slack(self, fig4_graph, fig4_family):
        # a relative asymmetry of 1e-7 is far beyond the 1e-12 scale bound
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        obs = path_sum_matrix(fig4_family).restrict(mask.observed)
        vals = obs.values.copy()
        i, j = obs.index("4"), obs.index("6")
        vals[j, i] *= 1 + 1e-7
        with pytest.raises(InconsistentInputError, match="not symmetric"):
            recover_path_sums(fig4_graph, PathSumMatrix(obs.nodes, vals), mask)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_bad_tolerance_rejected(self, fig4_graph, fig4_family, tol):
        # a NaN or infinite tol would pass every consistency check
        p = path_sum_matrix(fig4_family)
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        with pytest.raises(ValueError, match="tol"):
            recover_path_sums(fig4_graph, p.restrict(mask.observed), mask, tol=tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(70 + seed)
        g = random_block_graph(rng, max_nodes=14)
        fam = random_delta(g, rng)
        eligible = [v for v in g.nodes if g.clique_degree(v) >= 3]
        latent = list(rng.choice(eligible, size=min(2, len(eligible)), replace=False)) \
            if eligible else []
        mask = ObservationMask.from_latent(g, latent)
        p = path_sum_matrix(fam)
        rec = recover_path_sums(g, p.restrict(mask.observed), mask)
        assert np.abs(rec.values - p.values).max() <= 1e-10

    def test_anchor_choice_independence(self, fig4_graph, fig4_family):
        # every valid anchor triple reproduces the same latent-to-anchor sum
        g = fig4_graph
        p = path_sum_matrix(fig4_family)
        a = "3"
        directions = {}
        for x in g.nodes:
            if x == a:
                continue
            w = g.path_nodes(a, x)[1]
            directions.setdefault(g.clique_of_edge(a, w), []).append(x)
        cliques = sorted(directions)
        for ci in cliques:
            for ibar in directions[ci]:
                expect = p.entry(a, ibar)
                for cj in cliques:
                    for cy in cliques:
                        if len({ci, cj, cy}) != 3:
                            continue
                        for jbar in directions[cj]:
                            for ybar in directions[cy]:
                                got = 0.5 * (p.entry(ibar, jbar) + p.entry(ibar, ybar)
                                             - p.entry(ybar, jbar))
                                assert got == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("graph, latent, edge", [
        ("fig4", ["3"], ("3", "4")),      # latent - observed
        ("chain", ["a", "b"], ("a", "b")),  # latent - latent
    ])
    def test_anchor_quadruple_independence(self, fig4_graph, fig4_family, graph, latent, edge):
        # every valid anchor quadruple gives the same edge parameter
        if graph == "fig4":
            g, fam = fig4_graph, fig4_family
        else:
            g = hub_chain()
            fam = random_delta(g, np.random.default_rng(19))
        p = path_sum_matrix(fam)
        mask = ObservationMask.from_latent(g, latent)
        values = quadruple_values(g, p, mask.observed, *edge)
        assert len(values) > 1
        for got in values:
            assert got == pytest.approx(fam.delta2(*edge), abs=1e-10)
        rec = recover_path_sums(g, p.restrict(mask.observed), mask)
        assert rec.entry(*edge) == pytest.approx(fam.delta2(*edge), abs=1e-12)

    def test_relabeling_commutes(self, fig4_graph, fig4_family):
        mapping = {v: f"w{9 - int(v)}" for v in fig4_graph.nodes}
        g2 = build_block_graph([mapping[v] for v in FIG4_NODES],
                               [(mapping[a], mapping[b]) for a, b in FIG4_EDGES])
        fam2 = validate_delta(g2, {(mapping[a], mapping[b]): v
                                   for (a, b), v in fig4_family.edge_params.items()})
        mask1 = ObservationMask.from_latent(fig4_graph, ["3"])
        mask2 = ObservationMask.from_latent(g2, [mapping["3"]])
        rec1 = recover_path_sums(
            fig4_graph, path_sum_matrix(fig4_family).restrict(mask1.observed), mask1)
        rec2 = recover_path_sums(
            g2, path_sum_matrix(fam2).restrict(mask2.observed), mask2)
        for i, vi in enumerate(rec1.nodes):
            for j, vj in enumerate(rec1.nodes):
                assert rec1.values[i, j] == pytest.approx(
                    rec2.entry(mapping[vi], mapping[vj]), abs=1e-10)


class TestRecoverEdgeParams:
    def test_single_edge(self):
        g = build_block_graph(["a", "b"], [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 1.3})
        p = path_sum_matrix(fam)
        rec = recover_edge_params(p, g)
        assert rec.delta2("a", "b") == pytest.approx(1.3)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_is_identity(self, seed):
        rng = np.random.default_rng(80 + seed)
        g = random_block_graph(rng, max_nodes=12)
        fam = random_delta(g, rng)
        rec = recover_edge_params(path_sum_matrix(fam), g)
        for e, v in fam.edge_params.items():
            assert rec.edge_params[e] == pytest.approx(v, abs=1e-12)

    def test_fig4_nine_parameters(self, fig4_graph, fig4_family):
        mask = ObservationMask.from_latent(fig4_graph, ["3"])
        p = path_sum_matrix(fig4_family)
        rec_p = recover_path_sums(fig4_graph, p.restrict(mask.observed), mask)
        rec = recover_edge_params(rec_p, fig4_graph)
        assert len(rec.edge_params) == 9
        for e, v in fig4_family.edge_params.items():
            assert rec.edge_params[e] == pytest.approx(v, abs=1e-10)


class TestWitness:
    def test_degree_two_shift_hides_from_observed(self, fig1_graph, fig1_family):
        # node "6" sits in exactly two cliques of the example graph
        eta = 0.05
        other = nonidentifiable_witness(fig1_family, "6", eta)
        mask = ObservationMask.from_latent(fig1_graph, ["6"])
        p1 = path_sum_matrix(fig1_family).restrict(mask.observed)
        p2 = path_sum_matrix(other).restrict(mask.observed)
        assert np.abs(p1.values - p2.values).max() <= 1e-12
        changed = [e for e in fig1_family.edge_params
                   if "6" in e and abs(other.edge_params[e] - fig1_family.edge_params[e]) > 0]
        assert changed  # genuinely different families

    def test_degree_one_shift(self, fig4_graph, fig4_family):
        eta = 0.1
        other = nonidentifiable_witness(fig4_family, "1", eta)
        mask = ObservationMask.from_latent(fig4_graph, ["1"])
        p1 = path_sum_matrix(fig4_family).restrict(mask.observed)
        p2 = path_sum_matrix(other).restrict(mask.observed)
        assert np.abs(p1.values - p2.values).max() <= 1e-12
        assert other.delta2("1", "2") == pytest.approx(
            fig4_family.delta2("1", "2") + eta)

    def test_degree_three_rejected(self, fig4_graph, fig4_family):
        with pytest.raises(ValueError):
            nonidentifiable_witness(fig4_family, "3", 0.01)


class TestLatentChains:
    def test_adjacent_latent_pair(self):
        # two adjacent degree-3 hubs, each with three cliques
        nodes = ["a", "b", "c", "d", "e", "f", "g", "h"]
        edges = [("a", "b"),
                 ("a", "c"), ("a", "d"), ("c", "d"),
                 ("a", "e"),
                 ("b", "f"), ("b", "g"), ("f", "g"),
                 ("b", "h")]
        g = build_block_graph(nodes, edges)
        assert g.clique_degree("a") == 3 and g.clique_degree("b") == 3
        fam = random_delta(g, np.random.default_rng(17))
        mask = ObservationMask.from_latent(g, ["a", "b"])
        ok, _ = check_identifiable(g, mask)
        assert ok
        p = path_sum_matrix(fam)
        rec = recover_path_sums(g, p.restrict(mask.observed), mask)
        assert np.abs(rec.values - p.values).max() <= 1e-10

    def test_three_adjacent_latent_hubs(self):
        g = hub_chain()
        assert all(g.clique_degree(v) == 3 for v in "abc")
        fam = random_delta(g, np.random.default_rng(23))
        mask = ObservationMask.from_latent(g, ["a", "b", "c"])
        p = path_sum_matrix(fam)
        rec = recover_path_sums(g, p.restrict(mask.observed), mask)
        assert np.abs(rec.values - p.values).max() <= 1e-12
        params = recover_edge_params(rec, g).edge_params
        for e, v in fam.edge_params.items():
            assert params[e] == pytest.approx(v, abs=1e-12)
