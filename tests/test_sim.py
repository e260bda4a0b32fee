import math

import numpy as np
import pytest

from extreme_blocks import (
    BlockGraph,
    DeltaFamily,
    SingularBlockError,
    build_block_graph,
    gaussian_limit,
    path_sum_matrix,
    sample_limit_field,
    sample_pareto_conditioned,
    std_normal_cdf,
    stdf_hr_detailed,
    validate_delta,
)
from extreme_blocks.model import _increment_law
from oracle import clique_limit_params, mc_stdf, philox_increments


@pytest.fixture(scope="module")
def star_family():
    # two cliques glued at s: a 3-clique {s, i, j} and an edge {s, t}
    g = build_block_graph(
        ["i", "j", "s", "t"],
        [("s", "i"), ("s", "j"), ("i", "j"), ("s", "t")])
    fam = validate_delta(g, {("i", "s"): 0.5, ("j", "s"): 0.4,
                             ("i", "j"): 0.6, ("s", "t"): 0.7})
    return g, fam


class TestIncrements:
    def test_structure(self, star_family):
        # anchored at s every other node is one increment from s, drawn
        # from its clique's own stream
        g, fam = star_family
        fs = sample_limit_field(fam, "s", 4, 1)
        z = philox_increments(fam, "s", 4, 1)
        assert fs.anchor == "s" and fs.nodes == g.nodes
        assert sorted(v for _, v in z) == ["i", "j", "t"]
        assert np.all(fs.matrix[:, fs.nodes.index("s")] == 1.0)
        for (s, v), zv in z.items():
            assert s == "s" and np.all(fs.matrix[:, fs.nodes.index(v)] > 0)
            np.testing.assert_allclose(fs.matrix[:, fs.nodes.index(v)], zv, rtol=1e-12, atol=0)

    def test_unit_mean_and_log_mean(self, star_family):
        # anchored at s the field equals the increments themselves
        g, fam = star_family
        n = 1000000
        fs = sample_limit_field(fam, "s", n, 123)
        z_i = fs.matrix[:, fs.nodes.index("i")]
        assert abs(z_i.mean() - 1.0) <= 4 * z_i.std(ddof=1) / math.sqrt(n)
        lnz = np.log(z_i)
        assert abs(lnz.mean() + 2 * 0.5) <= 4 * lnz.std(ddof=1) / math.sqrt(n)

    def test_cross_clique_independence(self, star_family):
        g, fam = star_family
        n = 200000
        fs = sample_limit_field(fam, "s", n, 7)
        lnz_i = np.log(fs.matrix[:, fs.nodes.index("i")])
        lnz_t = np.log(fs.matrix[:, fs.nodes.index("t")])
        corr = np.corrcoef(lnz_i, lnz_t)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(n)

    def test_within_clique_covariance(self, star_family):
        g, fam = star_family
        n = 200000
        fs = sample_limit_field(fam, "s", n, 8)
        lnz_i = np.log(fs.matrix[:, fs.nodes.index("i")])
        lnz_j = np.log(fs.matrix[:, fs.nodes.index("j")])
        expect = 2 * (0.5 + 0.4 - 0.6)
        got = np.cov(lnz_i, lnz_j)[0, 1]
        var_i, var_j = 4 * 0.5, 4 * 0.4
        se = math.sqrt((var_i * var_j + expect ** 2) / n)
        assert abs(got - expect) <= 4 * se

    def test_matches_clique_limit_params(self, star_family):
        # the law the sampler draws the clique from, against the oracle formula
        g, fam = star_family
        mean, psi = _increment_law(fam, g.cliques.index(frozenset("ijs")), g.index("s"))
        assert np.allclose(mean, [-1.0, -0.8])
        assert np.allclose(psi, [[2.0, 0.6], [0.6, 1.6]])
        for got, want in zip((mean, psi), clique_limit_params(fam, {"i", "j", "s"}, "s")):
            assert np.array_equal(got, want)


class TestLimitField:
    def test_anchor_column_is_one(self, fig2_family):
        fs = sample_limit_field(fig2_family, "4", 100, 1)
        assert np.all(fs.matrix[:, fs.nodes.index("4")] == 1.0)

    def test_fig1_path_factorization(self, fig1_family):
        z = {e: zs[0] for e, zs in philox_increments(fig1_family, "7", 1, 321).items()}
        fs = sample_limit_field(fig1_family, "7", 1, 321)
        a_70 = fs.matrix[:, fs.nodes.index("0")][0]
        expect = z[("7", "6")] * z[("6", "2")] * z[("2", "0")]
        assert a_70 == pytest.approx(expect, rel=1e-12)
        a_75 = fs.matrix[:, fs.nodes.index("5")][0]
        assert a_75 == pytest.approx(z[("7", "6")] * z[("6", "5")], rel=1e-12)

    def test_empirical_covariance(self, fig1_family):
        n = 100000
        lim = gaussian_limit(fig1_family, "7")
        fs = sample_limit_field(fig1_family, "7", n, 2024)
        cols = [k for k, v in enumerate(fs.nodes) if v != "7"]
        lna = np.log(fs.matrix[:, cols])
        var = np.diag(lim.cov)
        assert np.all(np.abs(lna.mean(axis=0) - lim.mean) <= 4 * np.sqrt(var / n))
        cov_hat = np.cov(lna, rowvar=False)
        se = np.sqrt((np.outer(var, var) + lim.cov ** 2) / n)
        assert np.all(np.abs(cov_hat - lim.cov) <= 4 * se)

    def test_bit_identical_given_seed(self, fig2_family):
        a = sample_limit_field(fig2_family, "1", 500, 42).matrix
        b = sample_limit_field(fig2_family, "1", 500, 42).matrix
        assert np.array_equal(a, b)

    def test_thread_count_does_not_change_output(self, fig1_family):
        a = sample_limit_field(fig1_family, "7", 2000, 5, threads=1).matrix
        b = sample_limit_field(fig1_family, "7", 2000, 5, threads=4).matrix
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cpus, threads, workers", [(2, 10_000, 2), (None, 48, 1), (8, 3, 3)])
    def test_workers_capped_at_cpu_count(self, fig1_family, monkeypatch, cpus, threads, workers):
        # a stand-in pool records the requested workers and runs the cliques
        # in the calling thread, so no thread is started
        import extreme_blocks.sim as sim
        requested = []

        class Inline:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", Inline)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        a = sample_limit_field(fig1_family, "7", 50, 5, threads=threads).matrix
        assert requested == [workers]
        assert np.array_equal(a, sample_limit_field(fig1_family, "7", 50, 5).matrix)

    def test_unfactorizable_block_raises(self):
        # delta^2 of 1, 1 and 10 on a triangle is not conditionally
        # negative definite: the increment covariance is indefinite
        g = build_block_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        fam = DeltaFamily(g, {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 10.0})
        for u in g.nodes:
            with pytest.raises(SingularBlockError):
                sample_limit_field(fam, u, 10, 1)
            with pytest.raises(SingularBlockError):
                sample_limit_field(fam, u, 10, 1, threads=2)

    def test_different_seeds_differ(self, fig2_family):
        a = sample_limit_field(fig2_family, "1", 100, 1).matrix
        b = sample_limit_field(fig2_family, "1", 100, 2).matrix
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 2.0, "1", None])
    def test_seed_outside_zero_to_two_to_the_64_rejected(self, fig2_family, seed):
        # seed -1 used to give the stream of 2**64 - 1, bit for bit
        draws = [lambda: sample_limit_field(fig2_family, "1", 5, seed),
                 lambda: sample_limit_field(fig2_family, "1", 5, seed, threads=2),
                 lambda: sample_pareto_conditioned(fig2_family, "1", 5, seed)]
        for draw in draws:
            with pytest.raises(ValueError, match="seed"):
                draw()

    def test_seed_range_ends_accepted(self, fig2_family):
        top = sample_limit_field(fig2_family, "1", 5, (1 << 64) - 1).matrix
        assert not np.array_equal(top, sample_limit_field(fig2_family, "1", 5, 0).matrix)
        assert np.array_equal(sample_limit_field(fig2_family, "1", 5, np.uint64(9)).matrix,
                              sample_limit_field(fig2_family, "1", 5, 9).matrix)

    def test_no_draws_rejected(self, fig2_family):
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least one draw"):
                sample_limit_field(fig2_family, "1", n, 1)

    @pytest.mark.parametrize("draw", [
        lambda fam: sample_limit_field(fam, "3", 5, 1),
        lambda fam: sample_limit_field(fam, "3", 5, 1, threads=2),
    ], ids=["field", "field-threads"])
    def test_one_anchored_walk_per_draw(self, fig1_family, monkeypatch, draw):
        calls = []
        real = BlockGraph._walk

        def counted(self, u):
            calls.append(u)
            return real(self, u)

        monkeypatch.setattr(BlockGraph, "_walk", counted)
        draw(fig1_family)
        assert calls == [fig1_family.graph.index("3")]


class TestPinnedOutputs:
    """Seeded outputs on Fig. 1, recorded as literals: a change to the
    Philox keys, the clique order, the targets or the increment laws
    changes them."""

    def test_field(self, fig1_family):
        expect = [
            [0.1929637691786705, 0.4549481445517294, 0.3947285987544601, 1.0,
             0.08030999179021246, 0.1560814208450299, 0.0579380687728469, 0.0031911035322808243],
            [0.471986690772045, 0.08659650067123192, 1.19345116502782, 1.0,
             0.4875752259480273, 0.53864041537878, 0.07980313009812268, 0.14821236643889674],
        ]
        got = sample_limit_field(fig1_family, "3", 2, 20211209).matrix
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)

    def test_increments(self, fig1_family):
        expect = {
            ("2", "0"): 1.2505949638693934, ("2", "1"): 0.4920796246213013,
            ("2", "3"): 0.7032938825871431, ("6", "2"): 0.09661295892536541,
            ("6", "4"): 0.7736189183316944, ("6", "5"): 0.284539894964543,
            ("6", "7"): 0.06970567168032067,
        }
        # anchored at 6 the field multiplies these along the paths from 6
        fs = sample_limit_field(fig1_family, "6", 1, 7)
        paths = {"0": "620", "1": "621", "2": "62", "3": "623", "4": "64", "5": "65", "7": "67"}
        for v, path in paths.items():
            want = math.prod(expect[e] for e in zip(path, path[1:]))
            np.testing.assert_allclose(fs.matrix[:, fs.nodes.index(v)], [want], rtol=1e-12, atol=0)
        np.testing.assert_array_equal(fs.matrix[:, fs.nodes.index("6")], [1.0])

    def test_pareto(self, fig1_family):
        expect = [
            [1.542161669642312, 4.91037198622993, 2.3338011244820405, 0.1186174009649322,
             0.2436045135668934, 0.2798521890667274, 0.869494891993206, 0.5182549922223167],
            [1.5591460544605928, 0.016364281681272855, 0.11203974597302342, 0.11832727623422122,
             0.01895388128924703, 0.04373399056418288, 0.005632212178408663, 0.000285483063565213],
        ]
        got = sample_pareto_conditioned(fig1_family, "0", 2, 11)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)

    def test_stdf(self, fig1_family):
        value, err = stdf_hr_detailed(path_sum_matrix(fig1_family),
                                      {"0": 1.0, "3": 0.5, "4": 2.0, "7": 0.8}, rel_tol=1e-4)
        # four trivariate terms in closed form: the value is 2.8e-5 from the
        # lattice's former 3.304440199101496 (error 2.75e-4) and 4.4e-16
        # from adaptive quadrature over scipy's bivariate normal
        np.testing.assert_allclose([value, err], [3.3044684961305197, 1.9515228331702967e-13],
                                   rtol=1e-12, atol=0)


class TestParetoConditioned:
    def test_anchor_marginally_unit_pareto(self, fig2_family):
        n = 100000
        y = sample_pareto_conditioned(fig2_family, "1", n, 11)
        col = y[:, 0]  # node "1" is first in sorted order
        assert col.min() >= 1.0
        for q in (2.0, 5.0, 10.0):
            phat = (col > q).mean()
            se = math.sqrt((1 / q) * (1 - 1 / q) / n)
            assert abs(phat - 1 / q) <= 4 * se

    def test_log_spacing_means(self, fig2_family):
        n = 200000
        g = fig2_family.graph
        y = sample_pareto_conditioned(fig2_family, "1", n, 12)
        lim = gaussian_limit(fig2_family, "1")
        iu = g.nodes.index("1")
        cols = [k for k in range(len(g.nodes)) if k != iu]
        spac = np.log(y[:, cols]) - np.log(y[:, [iu]])
        se = np.sqrt(np.diag(lim.cov) / n)
        assert np.all(np.abs(spac.mean(axis=0) - lim.mean) <= 4 * se)


class TestMcStdf:
    def test_anchor_indicator_is_exactly_one(self, fig2_family):
        est, se = mc_stdf(fig2_family, "4", {"4": 1.0}, 5000, 3)
        assert est == 1.0
        assert se == 0.0

    def test_bivariate_against_closed_form(self):
        g = build_block_graph(["a", "b"], [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 1.0})
        est, se = mc_stdf(fam, "a", np.ones(2), 100000, 99)
        assert abs(est - 2 * std_normal_cdf(1.0)) <= 3 * se

    def test_same_seed_same_estimate(self, fig2_family):
        a = mc_stdf(fig2_family, "1", np.ones(6), 20000, 5)
        b = mc_stdf(fig2_family, "1", np.ones(6), 20000, 5)
        assert a == b

    def test_anchor_consistency(self, fig2_family):
        x = {"2": 1.0, "5": 0.8}
        e1, s1 = mc_stdf(fig2_family, "1", x, 150000, 31)
        e2, s2 = mc_stdf(fig2_family, "4", x, 150000, 32)
        assert abs(e1 - e2) <= 4 * math.hypot(s1, s2)

    def test_log_field_moments_are_gaussian(self, fig2_family):
        from scipy.stats import kurtosis, skew
        n = 100000
        fs = sample_limit_field(fig2_family, "1", n, 77)
        cols = [k for k, v in enumerate(fs.nodes) if v != "1"]
        lna = np.log(fs.matrix[:, cols])
        assert np.all(np.abs(skew(lna, axis=0)) <= 0.1)
        assert np.all(np.abs(kurtosis(lna, axis=0)) <= 0.1)
