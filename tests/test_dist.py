import math

import numpy as np
import pytest
from scipy.stats import norm

from extreme_blocks import (
    AllZeroWeightsError,
    MvnResult,
    NonPositiveCoordinateError,
    SubsetTooSmallError,
    build_block_graph,
    extremal_coefficient,
    extremal_coefficient_detailed,
    hr_cdf_detailed,
    nu_hr,
    pareto_cdf,
    pareto_cdf_detailed,
    path_sum_matrix,
    std_normal_cdf,
    stdf_hr_detailed,
    validate_delta,
)
from gen import clique_tree_edges, random_block_graph, random_delta
from oracle import mc_stdf


@pytest.fixture(scope="module")
def edge_setup():
    g = build_block_graph(["a", "b"], [("a", "b")])
    fam = validate_delta(g, {("a", "b"): 1.0})
    return g, fam, path_sum_matrix(fam)


@pytest.fixture(scope="module")
def fig2_psum(fig2_family):
    return path_sum_matrix(fig2_family)


class TestStdf:
    def test_bivariate_closed_form(self, edge_setup):
        _, _, p = edge_setup
        got = stdf_hr_detailed(p, [1.0, 1.0]).value
        assert abs(got - 2 * std_normal_cdf(1.0)) <= 1e-12

    def test_unit_weight_vector(self, fig2_psum):
        assert stdf_hr_detailed(fig2_psum, {"3": 1.0}) == MvnResult(1.0, 0.0, True, 0)

    @pytest.mark.parametrize("short", [None, 1])
    def test_detailed_sums_the_terms(self, fig2_psum, monkeypatch, short):
        # one MVN call stacks the stdf's terms; the first `short` calls come
        # back unconverged. Five nodes give terms of dimension 4, which the
        # lattice integrates.
        import dataclasses
        import extreme_blocks.dist as dist
        import extreme_blocks.mvn as mvn
        calls, rows = [], []
        real, integrand = dist.mvn_cdf, mvn._integrand

        def record(upper, cov, weights=None, **options):
            res = real(upper, cov, weights, **options)
            if short and len(calls) < short:
                res = dataclasses.replace(res, converged=False)
            calls.append(((upper, cov, weights), res))
            return res

        def counted(L, b, w):
            rows.append(w.shape[1])
            return integrand(L, b, w)

        monkeypatch.setattr(dist, "mvn_cdf", record)
        monkeypatch.setattr(mvn, "_integrand", counted)
        y = (1.0, 0.9, 0.7, 1.3, 1.1)
        res = stdf_hr_detailed(fig2_psum, dict(zip("12356", y)), rel_tol=1e-4)
        assert len(calls) == 1
        (upper, cov, weights), out = calls[0]
        assert upper.shape == (5, 4) and cov.shape == (5, 4, 4)
        assert tuple(weights) == y
        assert res == out
        assert res.converged is (short is None)
        # the points are every integrand row, summed over the terms' lattices
        assert res.points == sum(rows) > 0
        value, err = res
        assert (value, err) == (res.value, res.error)
        # the pooled value is the weighted sum of the terms evaluated alone
        terms = [real(u, c, rel_tol=1e-6) for u, c in zip(upper, cov)]
        assert value == pytest.approx(sum(w * t.value for w, t in zip(y, terms)), rel=1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_terms_gathered_at_once_are_the_anchored_ones(self, monkeypatch, seed):
        # term s is P over the support anchored at s, _anchor's covariance,
        # with bounds 2 p_s. + ln(y_s / y_v): one gather for all terms
        # gives the same bits
        import extreme_blocks.dist as dist
        from extreme_blocks.model import _anchor
        rng = np.random.default_rng(seed)
        fam = random_delta(random_block_graph(rng, 12), rng)
        p = path_sum_matrix(fam)
        y = rng.uniform(0.2, 2.0, len(p.nodes)) * (rng.random(len(p.nodes)) < 0.7)
        stacks = []
        monkeypatch.setattr(dist, "mvn_cdf", lambda *args, **options: stacks.append(args))
        stdf_hr_detailed(p, y, rel_tol=1e-2)
        support = np.flatnonzero(y > 0)
        ((upper, cov, weights),) = stacks
        mat, logy = p.values[np.ix_(support, support)], np.log(y[support])
        anchored = [_anchor(mat, s) for s in range(support.size)]
        assert np.array_equal(upper, [2.0 * row + (logy[s] - np.delete(logy, s))
                                      for s, (row, _) in enumerate(anchored)])
        assert np.array_equal(cov, [psi for _, psi in anchored])
        assert np.array_equal(weights, y[support])

    def test_detailed_three_nodes_spend_no_points(self, fig2_psum, monkeypatch):
        # three nodes give bivariate terms: the closed form evaluates them,
        # the error is its bound and no lattice point is drawn
        import extreme_blocks.dist as dist
        import extreme_blocks.mvn as mvn
        stacks = []
        real, integrand = dist.mvn_cdf, mvn._integrand

        def record(upper, cov, weights=None, **options):
            stacks.append((upper, cov, weights))
            return real(upper, cov, weights, **options)

        def refuse(*args):
            raise AssertionError("no lattice point may be evaluated")

        monkeypatch.setattr(dist, "mvn_cdf", record)
        monkeypatch.setattr(mvn, "_integrand", refuse)
        y = (1.0, 0.7, 1.3)
        res = stdf_hr_detailed(fig2_psum, dict(zip("135", y)), rel_tol=1e-9)
        assert res.points == 0 and res.converged
        assert 0 < res.error <= 1e-9 * res.value
        ((upper, cov, weights),) = stacks
        assert upper.shape == (3, 2)
        monkeypatch.setattr(mvn, "_integrand", integrand)
        ref = mvn._lattice_sum(upper, cov, weights, 1e-7, 0, 10, 256, 1 << 21)
        assert ref.converged
        assert abs(res.value - ref.value) <= ref.error + res.error

    @pytest.mark.parametrize("query", [
        lambda p, y: stdf_hr_detailed(p, y),
        lambda p, y: hr_cdf_detailed(p, y),
        lambda p, y: pareto_cdf(p, y),
    ])
    @pytest.mark.parametrize("values", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_misaligned_sequence_rejected(self, edge_setup, query, values):
        _, _, p = edge_setup
        with pytest.raises(ValueError, match="do not align"):
            query(p, values)

    def test_all_zero_weights(self, edge_setup):
        _, _, p = edge_setup
        with pytest.raises(AllZeroWeightsError):
            stdf_hr_detailed(p, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, float("inf")])
    def test_weights_must_be_finite_and_nonnegative(self, edge_setup, bad):
        _, _, p = edge_setup
        for weights in ([1.0, bad], {"a": bad, "b": 1.0}):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                stdf_hr_detailed(p, weights)

    def test_zero_weights_restrict(self, fig2_psum):
        # zeros drop coordinates; equals evaluating the restricted matrix
        full = stdf_hr_detailed(fig2_psum, [1.0, 0.0, 0.7, 0.0, 1.3, 0.0]).value
        sub = fig2_psum.restrict(["1", "3", "5"])
        restricted = stdf_hr_detailed(sub, {"1": 1.0, "3": 0.7, "5": 1.3}).value
        assert abs(full - restricted) <= 1e-12

    @pytest.mark.parametrize("t", [0.1, 2.0, 10.0])
    def test_homogeneity(self, fig2_psum, t):
        rng = np.random.default_rng(1)
        y = rng.uniform(0.2, 2.0, 6)
        a = stdf_hr_detailed(fig2_psum, t * y, rel_tol=1e-4).value
        b = t * stdf_hr_detailed(fig2_psum, y, rel_tol=1e-4).value
        assert abs(a - b) <= 1e-8 * abs(b)

    def test_bounds_random(self, fig2_psum):
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = rng.uniform(0.0, 3.0, 6)
            if not np.any(y > 0):
                continue
            val = stdf_hr_detailed(fig2_psum, y, rel_tol=1e-4).value
            slack = 1e-4 * y.sum()
            assert y.max() - slack <= val <= y.sum() + slack
        # exact-tolerance bounds on small subsets (univariate normal terms)
        sub = fig2_psum.restrict(["1", "4"])
        for _ in range(10):
            y = rng.uniform(0.05, 3.0, 2)
            val = stdf_hr_detailed(sub, y).value
            assert y.max() - 1e-9 <= val <= y.sum() + 1e-9

    def test_relabeling_invariance(self, fig2_graph, fig2_family):
        # renaming nodes must not change the value
        mapping = {v: f"z{9 - int(v)}" for v in fig2_graph.nodes}
        g2 = build_block_graph(
            [mapping[v] for v in fig2_graph.nodes],
            [(mapping[a], mapping[b]) for a, b in fig2_graph.edges])
        fam2 = validate_delta(
            g2, {(mapping[a], mapping[b]): v
                 for (a, b), v in fig2_family.edge_params.items()})
        p1 = path_sum_matrix(fig2_family)
        p2 = path_sum_matrix(fam2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            subset = list(rng.choice(list(fig2_graph.nodes), size=3, replace=False))
            w = {v: float(rng.uniform(0.2, 2.0)) for v in subset}
            w2 = {mapping[v]: x for v, x in w.items()}
            assert abs(stdf_hr_detailed(p1, w).value - stdf_hr_detailed(p2, w2).value) <= 1e-10

    def test_marginal_consistency(self, fig2_psum):
        subset = ["2", "4", "5"]
        weights = {"2": 0.9, "4": 1.4, "5": 0.5}
        sub = fig2_psum.restrict(subset)
        full_w = {v: weights.get(v, 0.0) for v in fig2_psum.nodes}
        full = stdf_hr_detailed(fig2_psum, full_w, rel_tol=1e-5).value
        restr = stdf_hr_detailed(sub, weights, rel_tol=1e-5).value
        assert abs(full - restr) <= 1e-12


class TestHrCdf:
    def test_large_point_tends_to_one(self, edge_setup):
        _, _, p = edge_setup
        assert hr_cdf_detailed(p, [1e9, 1e9]).value == pytest.approx(1.0, abs=1e-8)

    def test_single_node_unit_frechet(self, fig2_psum):
        sub = fig2_psum.restrict(["4"])
        for x in (0.5, 1.0, 3.0):
            assert hr_cdf_detailed(sub, [x]).value == pytest.approx(math.exp(-1.0 / x), abs=1e-15)

    def test_bivariate_value(self, edge_setup):
        _, _, p = edge_setup
        expect = math.exp(-2 * std_normal_cdf(1.0))
        assert hr_cdf_detailed(p, [1.0, 1.0]).value == pytest.approx(expect, abs=1e-12)

    def test_nonpositive_rejected(self, edge_setup):
        _, _, p = edge_setup
        with pytest.raises(NonPositiveCoordinateError):
            hr_cdf_detailed(p, [1.0, 0.0])

    def test_infinite_point_is_one(self, fig2_psum):
        # l(0) = 0, so H is exactly 1 with no stdf to evaluate; an infinite
        # coordinate beside finite ones is a zero stdf weight
        inf = float("inf")
        for x in ([inf] * 6, {"2": inf, "5": inf}):
            assert hr_cdf_detailed(fig2_psum, x) == MvnResult(1.0, 0.0, True, 0)
        assert hr_cdf_detailed(fig2_psum, {"2": inf, "5": 2.0}) == MvnResult(math.exp(-0.5), 0.0, True, 0)

    def test_nan_rejected(self, edge_setup):
        # a NaN coordinate is not strictly positive; it used to reach the
        # stdf as the weight 1/x and be reported as a bad weight
        _, _, p = edge_setup
        for x in ([1.0, float("nan")], {"a": float("nan"), "b": 1.0}):
            with pytest.raises(NonPositiveCoordinateError, match="strictly positive"):
                hr_cdf_detailed(p, x)

    def test_detailed_two_node_closed_form(self, edge_setup):
        # l(y) = y1 Phi(a + ln(y1/y2)/2a) + y2 Phi(a + ln(y2/y1)/2a), a = sqrt(p12) = 1
        _, _, p = edge_setup
        y1, y2 = 1 / 1.5, 1 / 0.8
        ell = (y1 * std_normal_cdf(1 + math.log(y1 / y2) / 2)
               + y2 * std_normal_cdf(1 + math.log(y2 / y1) / 2))
        res = hr_cdf_detailed(p, [1.5, 0.8])
        assert res.value == pytest.approx(math.exp(-ell), abs=1e-12)
        # both terms are univariate, hence exact
        assert (res.error, res.converged, res.points) == (0.0, True, 0)

    @staticmethod
    def shorted_hr_cdf(psum, x, monkeypatch):
        """hr_cdf_detailed at x with its one MVN call reported unconverged;
        returns (result, the stdf at 1/x, the MVN calls' bounds)."""
        import dataclasses
        import extreme_blocks.dist as dist
        ell = stdf_hr_detailed(psum, {v: 1 / t for v, t in x.items()}, rel_tol=1e-4)
        bounds = []
        real = dist.mvn_cdf

        def short(upper, cov, weights=None, **options):
            bounds.append(upper)
            return dataclasses.replace(real(upper, cov, weights, **options), converged=False)

        monkeypatch.setattr(dist, "mvn_cdf", short)
        res = hr_cdf_detailed(psum, x, rel_tol=1e-4)
        assert res.converged is False
        assert res.value == math.exp(-ell.value)
        assert res.error == pytest.approx(res.value * ell.error, rel=1e-15)
        assert res.error > 0
        assert res.points == ell.points
        return res, bounds

    def test_detailed_flags_an_unconverged_term(self, fig2_psum, monkeypatch):
        # five nodes: one MVN call for the stdf's five terms of dimension 4,
        # on the lattice
        x = {"1": 1.0, "2": 1.1, "3": 1.4, "5": 0.8, "6": 0.9}
        res, bounds = self.shorted_hr_cdf(fig2_psum, x, monkeypatch)
        assert [b.shape for b in bounds] == [(5, 4)]
        assert res.points > 0

    def test_detailed_closed_form_flags_an_unconverged_term(self, fig2_psum, monkeypatch):
        # three nodes: bivariate terms in closed form, no lattice point
        res, bounds = self.shorted_hr_cdf(fig2_psum, {"1": 1.0, "3": 1.4, "5": 0.8}, monkeypatch)
        assert [b.shape for b in bounds] == [(3, 2)]
        assert res.points == 0


class TestParetoCdf:
    def test_at_ones_is_zero(self, fig2_psum):
        assert pareto_cdf(fig2_psum, np.ones(6), rel_tol=1e-4) == 0.0

    def test_tends_to_one(self, fig2_psum):
        got = pareto_cdf(fig2_psum, np.full(6, 1e9), rel_tol=1e-4)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_bivariate_half(self, edge_setup):
        _, _, p = edge_setup
        assert pareto_cdf(p, [2.0, 2.0]) == pytest.approx(0.5, abs=1e-10)

    def test_monotone_on_grid(self, edge_setup):
        _, _, p = edge_setup
        grid = [0.5, 1.0, 1.5, 2.5, 4.0]
        vals = np.array([[pareto_cdf(p, [za, zb]) for zb in grid] for za in grid])
        assert np.all(np.diff(vals, axis=0) >= -1e-9)
        assert np.all(np.diff(vals, axis=1) >= -1e-9)

    def test_nonpositive_rejected(self, edge_setup):
        _, _, p = edge_setup
        with pytest.raises(NonPositiveCoordinateError):
            pareto_cdf(p, [-1.0, 2.0])

    def test_infinite_point_is_one(self, edge_setup):
        # [l(1) - l(0)] / l(1) = 1 with no stdf to evaluate; with one finite
        # coordinate z_b the value is 1 - l(0, 1/z_b) / l(1, 1)
        _, _, p = edge_setup
        inf = float("inf")
        for z in ([inf, inf], {"a": inf, "b": inf}):
            assert pareto_cdf_detailed(p, z) == MvnResult(1.0, 0.0, True, 0)
        expect = 1.0 - 0.5 / (2 * std_normal_cdf(1.0))
        assert pareto_cdf_detailed(p, [inf, 2.0]).value == pytest.approx(expect, abs=1e-12)

    def test_nan_rejected(self, edge_setup):
        _, _, p = edge_setup
        for run in (pareto_cdf, pareto_cdf_detailed):
            for z in ([2.0, float("nan")], {"a": float("nan"), "b": 2.0}):
                with pytest.raises(NonPositiveCoordinateError, match="strictly positive"):
                    run(p, z)

    def test_detailed_propagates_its_three_terms(self, fig2_psum):
        z = {"1": 2.0, "3": 0.5, "5": 3.0}
        res = pareto_cdf_detailed(fig2_psum, z, rel_tol=1e-3, seed=4)
        assert pareto_cdf(fig2_psum, z, rel_tol=1e-3, seed=4) == res.value
        sub = fig2_psum.restrict(z)
        zz = np.array([z[v] for v in sub.nodes])
        floor, at_z, one = (stdf_hr_detailed(sub, y, rel_tol=1e-3, seed=4)
                            for y in (1.0 / np.minimum(zz, 1.0), 1.0 / zz, np.ones(3)))
        v = (floor.value - at_z.value) / one.value
        assert res.value == v
        assert res.error == pytest.approx((floor.error + at_z.error + v * one.error) / one.value,
                                          rel=1e-12)
        assert res.error > 0
        assert res.points == floor.points + at_z.points + one.points
        assert res.converged

    def test_detailed_reuses_l1_when_every_z_at_least_one(self, fig2_psum, monkeypatch):
        # 1/min(z, 1) is then exactly ones: the floor term is l(1) itself
        import extreme_blocks.dist as dist
        z = {"1": 2.0, "3": 1.0, "5": 3.0}
        sub = fig2_psum.restrict(z)
        zz = np.array([z[v] for v in sub.nodes])
        floor, at_z, one = (stdf_hr_detailed(sub, y, rel_tol=1e-3, seed=4)
                            for y in (1.0 / np.minimum(zz, 1.0), 1.0 / zz, np.ones(3)))
        assert floor == one
        calls = []
        real = dist.stdf_hr_detailed

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dist, "stdf_hr_detailed", counted)
        res = pareto_cdf_detailed(fig2_psum, z, rel_tol=1e-3, seed=4)
        assert len(calls) == 2
        v = (floor.value - at_z.value) / one.value
        assert res.value == v > 0
        assert res.error == (floor.error + at_z.error + v * one.error) / one.value
        assert res.points == at_z.points + one.points
        assert res.converged


class TestExtremalCoefficient:
    def test_pair_closed_form(self, fig2_psum):
        for a, b in (("1", "2"), ("1", "5"), ("3", "6")):
            expect = 2 * std_normal_cdf(math.sqrt(fig2_psum.entry(a, b)))
            assert extremal_coefficient(fig2_psum, [a, b]) == pytest.approx(
                expect, abs=1e-12)

    def test_boundary_limits(self):
        g = build_block_graph(["a", "b"], [("a", "b")])
        near_zero = path_sum_matrix(validate_delta(g, {("a", "b"): 1e-10}))
        near_inf = path_sum_matrix(validate_delta(g, {("a", "b"): 1e4}))
        assert extremal_coefficient(near_zero, ["a", "b"]) == pytest.approx(1.0, abs=1e-4)
        assert extremal_coefficient(near_inf, ["a", "b"]) == pytest.approx(2.0, abs=1e-9)

    def test_subset_too_small(self, fig2_psum):
        with pytest.raises(SubsetTooSmallError):
            extremal_coefficient(fig2_psum, ["4"])

    def test_detailed_is_the_indicator_stdf(self, fig2_psum):
        res = extremal_coefficient_detailed(fig2_psum, ["5", "1", "3"], rel_tol=1e-3, seed=2)
        assert res == stdf_hr_detailed(fig2_psum, {"1": 1.0, "3": 1.0, "5": 1.0},
                                       rel_tol=1e-3, seed=2)
        assert extremal_coefficient(fig2_psum, ["1", "3", "5"], rel_tol=1e-3, seed=2) == res.value

    def test_triple_vs_monte_carlo(self):
        g = build_block_graph("123", [("1", "2"), ("1", "3"), ("2", "3")])
        fam = validate_delta(g, {("1", "2"): 1.0, ("1", "3"): 1.0, ("2", "3"): 1.0})
        p = path_sum_matrix(fam)
        exact = extremal_coefficient(p, ["1", "2", "3"], rel_tol=1e-7)
        est, se = mc_stdf(fam, "1", np.ones(3), 400000, 17)
        assert abs(est - exact) <= 3 * se
        assert 1.0 <= exact <= 3.0

    def test_range_random(self):
        rng = np.random.default_rng(6)
        g = random_block_graph(rng, max_nodes=8)
        fam = random_delta(g, rng)
        p = path_sum_matrix(fam)
        subset = list(g.nodes[: min(4, len(g.nodes))])
        if len(subset) >= 2:
            val = extremal_coefficient(p, subset, rel_tol=1e-5)
            assert 1.0 - 1e-9 <= val <= len(subset) + 1e-9


class TestPooledError:
    """A stdf is one MVN call stopped at the t-quantile error of its pooled
    estimate; seeded queries meet their tolerance against a reference at a
    100 times tighter tolerance and another seed."""

    def test_seeded_queries_meet_their_tolerance(self):
        rng = np.random.default_rng(7)
        nodes, edges = clique_tree_edges(rng, 12)
        p = path_sum_matrix(random_delta(build_block_graph(nodes, edges), rng))
        tol = 1e-3
        for i in range(100):
            kind = ("stdf", "ec", "stdf", "ec", "pareto")[i % 5]
            m = 3 + i % 3
            sub = sorted(rng.choice(nodes, m, replace=False))
            values = dict(zip(sub, rng.uniform(0.2, 2.0, m)))
            seed = int(rng.integers(1 << 31))

            def evaluate(rel_tol, seed):
                if kind == "stdf":
                    return stdf_hr_detailed(p, values, rel_tol=rel_tol, seed=seed)
                if kind == "ec":
                    return extremal_coefficient_detailed(p, sub, rel_tol=rel_tol, seed=seed)
                point = {v: 2.0 * x for v, x in values.items()}  # around the threshold 1
                return pareto_cdf_detailed(p, point, rel_tol=rel_tol, seed=seed)

            res, ref = evaluate(tol, seed), evaluate(tol / 100, seed + 1)
            assert res.converged, i
            if kind == "pareto":
                # rel_tol bounds each of its stdfs, and so the propagated error
                assert abs(res.value - ref.value) <= res.error, i
            else:
                assert abs(res.value - ref.value) <= tol * ref.value, i


class TestNuHr:
    @pytest.mark.parametrize("delta2", [0.25, 1.0, 2.0])
    def test_hr_bivariate_matches_lognormal(self, delta2):
        g = build_block_graph(["a", "b"], [("a", "b")])
        p = path_sum_matrix(validate_delta(g, {("a", "b"): delta2}))
        for x in (0.4, 1.0, 1.7, 3.0):
            got = nu_hr(p, "a", {"b": x})
            want = norm.cdf((math.log(x) + 2 * delta2) / math.sqrt(4 * delta2))
            assert abs(got.value - want) <= 1e-12
            assert got.error == 0.0 and got.points == 0 and got.converged

    @pytest.mark.parametrize("case", ["fig1", "random"])
    def test_matches_limit_field_monte_carlo(self, fig1_family, case):
        from extreme_blocks import sample_limit_field
        if case == "fig1":
            fam, u, x = fig1_family, "7", {"0": 0.5, "2": 0.6, "4": 0.8, "6": 1.0}
        else:
            rng = np.random.default_rng(31)
            g = build_block_graph(*clique_tree_edges(rng, 12))
            fam = random_delta(g, rng)
            u, *others = rng.choice(g.nodes, 5, replace=False)
            x = {str(v): float(rng.uniform(0.3, 1.5)) for v in others}
        n = 200_000
        field = sample_limit_field(fam, u, n, 2027)
        cols = [field.nodes.index(v) for v in x]
        hit = float(np.all(field.matrix[:, cols] <= np.array(list(x.values())), axis=1).mean())
        res = nu_hr(path_sum_matrix(fam), u, x, rel_tol=1e-5)
        assert res.converged and res.points > 0
        assert 0.05 < res.value < 0.95
        assert abs(hit - res.value) <= 4 * math.sqrt(res.value * (1 - res.value) / n) + res.error

    def test_nonpositive_point(self, fig1_family):
        p = path_sum_matrix(fig1_family)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(NonPositiveCoordinateError):
                nu_hr(p, "7", {"6": 1.0, "2": bad})

    def test_unknown_node(self, fig1_family):
        from extreme_blocks import UnknownNodeError
        p = path_sum_matrix(fig1_family)
        with pytest.raises(UnknownNodeError):
            nu_hr(p, "7", {"6": 1.0, "x": 1.0})
        with pytest.raises(UnknownNodeError):
            nu_hr(p, "x", {"6": 1.0})

    def test_anchor_or_empty_bounds_rejected(self, fig1_family):
        p = path_sum_matrix(fig1_family)
        for x in ({}, {"7": 1.0}, {"6": 1.0, "7": 2.0}):
            with pytest.raises(ValueError, match="anchor"):
                nu_hr(p, "7", x)


class TestMaxStableAttraction:
    """The max-stable CDF against a truncated point-process construction:
    componentwise maxima of limit-field draws scaled by reciprocal Poisson
    arrivals have exactly the law the CDF evaluates. Small edge parameters
    keep the truncation error far below the Monte-Carlo noise."""

    @staticmethod
    def _max_stable_sample(fam, u, n, trunc, seed):
        from extreme_blocks import sample_limit_field
        d = len(fam.graph.nodes)
        fields = sample_limit_field(fam, u, n * trunc, seed).matrix
        fields = fields.reshape(n, trunc, d)
        gaps = np.random.default_rng(seed + 1).standard_exponential((n, trunc))
        gamma = np.cumsum(gaps, axis=1)
        return (fields / gamma[:, :, None]).max(axis=1)

    def test_bivariate_cdf_and_margins(self):
        g = build_block_graph(["a", "b"], [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 0.3})
        p = path_sum_matrix(fam)
        n = 20000
        m = self._max_stable_sample(fam, "a", n, 200, 314)
        for z in ([0.8, 1.2], [1.0, 1.0], [2.0, 1.5]):
            emp = np.mean(np.all(m <= np.array(z), axis=1))
            exact = hr_cdf_detailed(p, z).value
            se = math.sqrt(exact * (1 - exact) / n)
            assert abs(emp - exact) <= 4 * se
        for x in (1.0, 2.0):
            emp = np.mean(m[:, 0] <= x)
            exact = math.exp(-1 / x)
            se = math.sqrt(exact * (1 - exact) / n)
            assert abs(emp - exact) <= 4 * se

    def test_three_clique_cdf(self):
        g = build_block_graph("123", [("1", "2"), ("1", "3"), ("2", "3")])
        fam = validate_delta(g, {("1", "2"): 0.25, ("1", "3"): 0.3,
                                 ("2", "3"): 0.2})
        p = path_sum_matrix(fam)
        n = 20000
        m = self._max_stable_sample(fam, "2", n, 200, 217)
        for z in ([1.0, 1.0, 1.0], [0.9, 1.4, 1.1]):
            emp = np.mean(np.all(m <= np.array(z), axis=1))
            exact = hr_cdf_detailed(p, z).value
            se = math.sqrt(exact * (1 - exact) / n)
            assert abs(emp - exact) <= 4 * se
