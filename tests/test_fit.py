import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from extreme_blocks import (
    ConstantColumnError,
    GaussianLimit,
    KOutOfRangeError,
    NumericalError,
    SampleSet,
    ScaleError,
    UnknownNodeError,
    build_block_graph,
    fit_delta,
    fit_delta_from_covariances,
    gaussian_limit,
    log_spacings,
    nnls_active_set,
    path_sum_matrix,
    rank_transform,
    sample_pareto_conditioned,
    validate_delta,
)
from extreme_blocks.fit import _normal_equations
from conftest import FIG2_DELTA
from gen import clique_tree_edges, random_block_graph, random_delta
from oracle import (
    cov_by_copies,
    normal_equations_by_copies,
    ranks_by_copies,
    sigma_coefficient_matrix,
    spacings_by_copies,
)


def noisy_spacings_61(seed: int = 1, k: int = 100):
    """Spacings at every anchor of a raw table on a 61-node clique tree:
    conditioned samples at four anchors plus a noise floor, so that many
    edges clamp (17 of 116 at seed 1)."""
    g = build_block_graph(*clique_tree_edges(np.random.default_rng(seed), 61))
    fam = random_delta(g, np.random.default_rng(seed), lo=0.4, hi=2.0)
    rng = np.random.default_rng(seed)
    raw = np.vstack([sample_pareto_conditioned(fam, u, 200, int(s))
                     for u, s in zip(rng.choice(g.nodes, 4, replace=False), rng.integers(0, 2**31, 4))])
    pareto = rank_transform(SampleSet(raw + rng.random(raw.shape), g.nodes, "raw"))
    return g, {u: log_spacings(pareto, u, k) for u in g.nodes}


class TestSampleSet:
    @pytest.mark.parametrize("data, nodes, scale, message", [
        (np.ones((5, 2)), ("a",), "raw", "shape"),
        (np.ones(5), ("a",), "raw", "shape"),
        (np.ones((1, 2)), ("a", "b"), "raw", "two observations"),
        (np.array([[1.0, 2.0], [np.nan, 1.0]]), ("a", "b"), "raw", "non-finite"),
        (np.array([[1.0, 2.0], [np.inf, 1.0]]), ("a", "b"), "raw", "non-finite"),
        (np.ones((3, 2)), ("a", "b"), "uniform", "scale tag"),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), ("a", "b"), "pareto", "strictly positive"),
    ])
    def test_bad_table_rejected(self, data, nodes, scale, message):
        with pytest.raises(ValueError, match=message):
            SampleSet(data, nodes, scale)

    def test_unknown_column(self):
        with pytest.raises(UnknownNodeError, match="'c'"):
            SampleSet(np.ones((3, 2)), ("a", "b")).column("c")


class TestRankTransform:
    def test_three_point_column(self):
        s = SampleSet(np.array([[3.0], [1.0], [2.0]]), ("a",))
        out = rank_transform(s)
        assert np.allclose(out.data[:, 0], [4.0, 4.0 / 3.0, 2.0])
        assert out.scale == "pareto"

    def test_extremes_map_to_known_values(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(25)
        out = rank_transform(SampleSet(col[:, None], ("a",)))
        n = 25
        assert out.data[np.argmax(col), 0] == pytest.approx(n + 1)
        assert out.data[np.argmin(col), 0] == pytest.approx((n + 1) / n)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(40)
        a = rank_transform(SampleSet(col[:, None], ("a",))).data
        b = rank_transform(SampleSet(np.exp(col)[:, None], ("a",))).data
        assert np.array_equal(a, b)

    def test_average_ranks_for_ties(self):
        out = rank_transform(SampleSet(np.array([[1.0], [1.0], [2.0]]), ("a",)))
        # tied pair gets rank 1.5 -> (n+1)/(n+1-1.5)
        assert np.allclose(out.data[:2, 0], 4.0 / 2.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scipy_average_ranks(self, seed):
        rng = np.random.default_rng(seed)
        data = np.column_stack([rng.standard_normal(300), rng.integers(0, 7, 300),
                                rng.integers(0, 60, 300), rng.exponential(size=300).round(1)])
        out = rank_transform(SampleSet(data, ("a", "b", "c", "d"))).data
        for j in range(data.shape[1]):
            r = scipy.stats.rankdata(data[:, j], method="average")
            assert np.array_equal(out[:, j], 301.0 / (301.0 - r))

    def test_ties_in_long_columns_match_scipy_average_ranks(self):
        # 6,000 rows, where numpy's default sort runs its vectorized kernel
        # and leaves the order inside a run of ties arbitrary
        rng = np.random.default_rng(17)
        n = 6000
        signed_zeros = rng.standard_normal(n)
        zero = rng.random(n) < 0.6
        signed_zeros[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        data = np.column_stack([
            rng.integers(0, 5, n),                                  # small integers
            np.repeat(rng.standard_normal(12), n // 12)[rng.permutation(n)],  # runs of 500
            np.sort(rng.integers(0, 40, n))[::-1],                  # sorted runs
            signed_zeros,                                           # 0.0 and -0.0 tie
            rng.standard_normal(n),
        ]).astype(float)
        assert np.signbit(data[zero, 3]).any() and not np.signbit(data[zero, 3]).all()
        out = rank_transform(SampleSet(data, ("a", "b", "c", "d", "e"))).data
        for j in range(data.shape[1]):
            r = scipy.stats.rankdata(data[:, j], method="average")
            assert np.array_equal(out[:, j], (n + 1) / (n + 1 - r))
        assert np.array_equal(out, ranks_by_copies(data))

    def test_first_constant_column_named_in_long_table(self):
        rng = np.random.default_rng(18)
        data = np.column_stack([rng.standard_normal(6000), np.full(6000, 2.0),
                                rng.standard_normal(6000), np.full(6000, -0.0)])
        data[::2, 3] = 0.0  # 0.0 and -0.0 are one value
        with pytest.raises(ConstantColumnError, match="'b'"):
            rank_transform(SampleSet(data, ("a", "b", "c", "d")))
        with pytest.raises(ConstantColumnError, match="'d'"):
            rank_transform(SampleSet(data[:, [0, 2, 3]], ("a", "c", "d")))

    def test_import_leaves_scipy_stats_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, extreme_blocks; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantColumnError):
            rank_transform(SampleSet(np.ones((5, 1)), ("a",)))

    def test_wrong_scale_rejected(self):
        s = SampleSet(np.ones((5, 1)) + np.arange(5)[:, None], ("a",), "pareto")
        with pytest.raises(ScaleError):
            rank_transform(s)


class TestLogSpacings:
    def test_exact_multiplicative_structure(self):
        rng = np.random.default_rng(2)
        n = 30
        x_u = 1.0 / (1.0 - rng.random(n))
        a = rng.uniform(0.5, 2.0, size=(n, 2))
        data = np.column_stack([a[:, 0] * x_u, a[:, 1] * x_u, x_u])
        s = SampleSet(data, ("a", "b", "u"), "pareto")
        k = 10
        rows = log_spacings(s, "u", k)
        top = np.argsort(-x_u, kind="stable")[:k]
        assert np.allclose(rows, np.log(a[top]), atol=1e-14)

    def test_k_boundaries(self):
        rng = np.random.default_rng(3)
        data = 1.0 / (1.0 - rng.random((10, 2)))
        s = SampleSet(data, ("a", "b"), "pareto")
        assert log_spacings(s, "a", 9).shape == (9, 1)
        with pytest.raises(KOutOfRangeError):
            log_spacings(s, "a", 0)
        with pytest.raises(KOutOfRangeError):
            log_spacings(s, "a", 10)

    def test_requires_pareto_scale(self):
        rng = np.random.default_rng(4)
        s = SampleSet(rng.standard_normal((10, 2)), ("a", "b"))
        with pytest.raises(ScaleError):
            log_spacings(s, "a", 5)

    def test_deterministic_tie_break(self):
        data = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        s = SampleSet(data, ("a", "b"), "pareto")
        rows = log_spacings(s, "a", 2)
        # all anchor values tie; rows 0 and 1 win by index
        assert np.allclose(rows[:, 0], np.log([1.0, 3.0]) - np.log(2.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_across_the_k_boundary_match_a_full_stable_sort(self, seed):
        # few distinct anchor values, so ties straddle the k-th largest
        rng = np.random.default_rng(seed)
        n = 200
        anchor = rng.integers(1, 8, n).astype(float)
        data = np.column_stack([anchor, rng.uniform(1.0, 5.0, n)])
        s = SampleSet(data, ("a", "b"), "pareto")
        for k in range(1, n):
            top = np.argsort(-anchor, kind="stable")[:k]
            expect = np.log(data[top, 1]) - np.log(anchor[top])
            assert np.array_equal(log_spacings(s, "a", k)[:, 0], expect)

    def test_simulated_spacings_center_on_minus_2p(self, fig2_family):
        n = 100000
        g = fig2_family.graph
        y = sample_pareto_conditioned(fig2_family, "2", n, 6)
        s = SampleSet(y, g.nodes, "pareto")
        rows = log_spacings(s, "2", n - 1)
        lim = gaussian_limit(fig2_family, "2")
        se = np.sqrt(np.diag(lim.cov) / (n - 1))
        assert np.all(np.abs(rows.mean(axis=0) - lim.mean) <= 4 * se)


class TestNnls:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 30, 6
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        ours = nnls_active_set(a.T @ a, a.T @ b)
        ref, _ = scipy.optimize.nnls(a, b)
        assert np.allclose(ours, ref, atol=1e-8)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((40, 7))
        b = rng.standard_normal(40)
        x = nnls_active_set(a.T @ a, a.T @ b)
        grad = a.T @ (b - a @ x)
        scale = np.abs(a.T @ b).max()
        assert np.all(x >= 0)
        assert np.all(grad[x == 0] <= 1e-9 * scale)
        assert np.all(np.abs(grad[x > 0]) <= 1e-9 * scale)

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_scale_equivariant(self, scale):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal(30)
        ref, _ = scipy.optimize.nnls(a, b)
        assert np.any(ref > 0)
        sa, sb = scale * a, scale * b
        np.testing.assert_allclose(nnls_active_set(a.T @ a, a.T @ sb), scale * ref,
                                   rtol=1e-8, atol=1e-8 * scale * ref.max())
        np.testing.assert_allclose(nnls_active_set(sa.T @ sa, sa.T @ b), ref / scale,
                                   rtol=1e-8, atol=1e-8 * ref.max() / scale)

    def test_zero_target_gives_zeros(self):
        a = np.random.default_rng(4).standard_normal((10, 3))
        assert np.array_equal(nnls_active_set(a.T @ a, a.T @ np.zeros(10)), np.zeros(3))


class TestFitDelta:
    def test_one_active_set_call_on_the_gram(self, fig2_graph, fig2_family, monkeypatch):
        # the fit assembles the (|E|, |E|) Gram G and solves it only inside
        # one active-set call on G and h, for exact moments (whose
        # unconstrained minimiser is the answer) and for moments that
        # clamp an edge alike; no decomposition decides identifiability
        import extreme_blocks.fit as fit_mod
        limits = {u: gaussian_limit(fig2_family, u) for u in fig2_graph.nodes}
        exact = {u: lim.cov for u, lim in limits.items()}, {u: lim.mean for u, lim in limits.items()}
        # covariances of a delta^2 with one negative entry: its minimiser is infeasible
        flipped = fig2_family.as_vector()
        flipped[0] = -0.5
        clamped = {u: sigma_coefficient_matrix(fig2_graph, u) @ flipped for u in fig2_graph.nodes}
        systems = []
        real_nnls = fit_mod.nnls_active_set

        def refuse(*args, **kwargs):
            raise AssertionError("the fit needs no eigh, svd, qr or lstsq")

        def nnls(a, b, **kwargs):
            systems.append((a.shape, b.shape))
            return real_nnls(a, b, **kwargs)

        for name in ("eigh", "svd", "qr", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(fit_mod, "nnls_active_set", nnls)
        n_edges = len(fig2_graph.edges)

        res = fit_delta_from_covariances(fig2_graph, *exact)
        assert systems == [((n_edges, n_edges), (n_edges,))]
        assert res.objective <= 1e-18
        for e, v in FIG2_DELTA.items():
            assert res.delta2_hat[e] == pytest.approx(v, abs=1e-9)

        systems.clear()
        res = fit_delta_from_covariances(fig2_graph, clamped)
        assert systems == [((n_edges, n_edges), (n_edges,))]
        assert res.as_vector(fig2_graph)[0] == 0.0
        assert np.all(res.as_vector(fig2_graph) >= 0) and res.objective > 0

    def test_noisy_fit_at_61_nodes_starts_from_the_minimiser(self, monkeypatch):
        # from x = 0 the active set took 104 passive solves here; from the
        # unconstrained minimiser, less its non-positive coordinates, it
        # takes 6. Reference: scipy's NNLS on R x = R^-T h with G = R'R
        import extreme_blocks.fit as fit_mod
        g, spacings = noisy_spacings_61()
        solves, systems = [], []
        real_solve, real_nnls = np.linalg.solve, fit_mod.nnls_active_set

        def solve(a, b):
            solves.append(a.shape)
            return real_solve(a, b)

        def nnls(gram, rhs):
            systems.append((gram, rhs))
            return real_nnls(gram, rhs)

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(fit_mod, "nnls_active_set", nnls)
        res = fit_delta(g, spacings)
        monkeypatch.undo()
        assert len(solves) < 10
        (gram, rhs), = systems
        r = np.linalg.cholesky(gram).T
        expect = scipy.optimize.nnls(r, np.linalg.solve(r.T, rhs))[0]
        got = res.as_vector(g)
        assert np.count_nonzero(got == 0) == np.count_nonzero(expect == 0) > 0
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9 * expect.max())

    def test_exhausted_active_set_budget_raises(self, monkeypatch):
        # the warm start leaves a clamped edge whose gradient is positive,
        # so this fit needs an outer step; without a budget for one the
        # unmet KKT test is raised, not returned
        import extreme_blocks.fit as fit_mod
        g, spacings = noisy_spacings_61()
        monkeypatch.setattr(fit_mod, "MAX_ITER_PER_UNKNOWN", 0)
        with pytest.raises(NumericalError, match="unconverged after 0 steps") as err:
            fit_delta(g, spacings)
        assert err.value.exit_code == 3

    @pytest.mark.parametrize("rows", [np.zeros((1, 5)), np.zeros((0, 5)), np.zeros(5)])
    def test_fewer_than_two_spacing_rows_rejected(self, fig2_graph, rows):
        spacings = {u: np.zeros((10, 5)) for u in fig2_graph.nodes}
        spacings["3"] = rows
        with pytest.raises(ValueError, match="anchor '3'.*two rows"):
            fit_delta(fig2_graph, spacings)

    def test_no_covariance_rejected(self, fig2_graph):
        with pytest.raises(ValueError, match="at least one anchor"):
            fit_delta_from_covariances(fig2_graph, {})

    def test_graph_without_edges_fits_to_nothing(self):
        g = build_block_graph(["a"], [])
        res = fit_delta_from_covariances(g, {"a": np.zeros((0, 0))}, {"a": np.zeros(0)})
        assert res.delta2_hat == {} and res.objective == 0.0
        pareto = rank_transform(SampleSet(np.arange(10.0)[:, None], ("a",)))
        res = fit_delta(g, {"a": log_spacings(pareto, "a", 5)})
        assert res.delta2_hat == {} and res.objective == 0.0
        assert res.diagnostics == {"a": {"rows": 5}}

    def test_exact_moments_recover_exactly(self, fig2_graph, fig2_family):
        covs = {u: gaussian_limit(fig2_family, u).cov for u in fig2_graph.nodes}
        res = fit_delta_from_covariances(fig2_graph, covs)
        assert res.objective <= 1e-18
        for e, v in FIG2_DELTA.items():
            assert res.delta2_hat[e] == pytest.approx(v, abs=1e-9)

    def test_single_edge_quarter_variance(self):
        g = build_block_graph(["a", "b"], [("a", "b")])
        covs = {"a": np.array([[2.9]])}
        res = fit_delta_from_covariances(g, covs)
        assert res.delta2_hat[("a", "b")] == pytest.approx(2.9 / 4.0)

    def test_single_anchor_suffices(self, fig2_graph, fig2_family):
        covs = {"1": gaussian_limit(fig2_family, "1").cov}
        res = fit_delta_from_covariances(fig2_graph, covs)
        for e, v in FIG2_DELTA.items():
            assert res.delta2_hat[e] == pytest.approx(v, abs=1e-9)

    def test_mean_condition_flag(self, fig2_graph, fig2_family):
        covs, means = {}, {}
        for u in fig2_graph.nodes:
            lim = gaussian_limit(fig2_family, u)
            covs[u], means[u] = lim.cov, lim.mean
        res = fit_delta_from_covariances(fig2_graph, covs, means)
        for e, v in FIG2_DELTA.items():
            assert res.delta2_hat[e] == pytest.approx(v, abs=1e-9)

    def test_equivariance_under_scaling(self, fig2_graph, fig2_family):
        covs = {u: gaussian_limit(fig2_family, u).cov for u in fig2_graph.nodes}
        base = fit_delta_from_covariances(fig2_graph, covs)
        scaled = fit_delta_from_covariances(
            fig2_graph, {u: 3.0 * c for u, c in covs.items()})
        for e in FIG2_DELTA:
            assert scaled.delta2_hat[e] == pytest.approx(3.0 * base.delta2_hat[e],
                                                         rel=1e-9)

    def test_equivariance_at_tiny_scale(self, fig2_graph, fig2_family):
        covs = {u: 1e-12 * gaussian_limit(fig2_family, u).cov for u in fig2_graph.nodes}
        res = fit_delta_from_covariances(fig2_graph, covs)
        for e, v in FIG2_DELTA.items():
            assert res.delta2_hat[e] == pytest.approx(1e-12 * v, rel=1e-9, abs=0.0)

    def test_objective_convexity_along_segments(self, fig2_graph, fig2_family):
        # three-point midpoint check of the quadratic objective
        edges = fig2_graph.edges_sorted()
        covs = {u: gaussian_limit(fig2_family, u).cov for u in fig2_graph.nodes}
        m = len(fig2_graph.nodes) - 1
        blocks = [sigma_coefficient_matrix(fig2_graph, u).reshape(m * m, len(edges))
                  for u in fig2_graph.nodes]
        design = np.vstack(blocks)
        target = np.concatenate([covs[u].reshape(-1) for u in fig2_graph.nodes])

        def objective(vec):
            r = design @ vec - target
            return r @ r

        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.uniform(0.0, 3.0, len(edges))
            b = rng.uniform(0.0, 3.0, len(edges))
            mid = objective((a + b) / 2)
            assert mid <= (objective(a) + objective(b)) / 2 + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_design_full_rank_on_random_graphs(self, seed):
        rng = np.random.default_rng(60 + seed)
        g = random_block_graph(rng, max_nodes=10)
        fam = random_delta(g, rng)
        limits = {u: gaussian_limit(fam, u) for u in g.nodes}
        covs = {u: lim.cov for u, lim in limits.items()}
        means = {u: lim.mean for u, lim in limits.items()}
        for res in (fit_delta_from_covariances(g, covs),
                    fit_delta_from_covariances(g, covs, means)):
            for e, v in fam.edge_params.items():
                assert res.delta2_hat[e] == pytest.approx(v, abs=1e-7)

    def test_exact_fit_memory_stays_small(self):
        # a stacked design and its thin U would trace about 130 MB here;
        # the fit holds n x n class sums and the (|E|, |E|) Gram
        g = build_block_graph(*clique_tree_edges(np.random.default_rng(5), 41))
        fam = random_delta(g, np.random.default_rng(6))
        covs = {u: gaussian_limit(fam, u).cov for u in g.nodes}
        tracemalloc.start()
        try:
            res = fit_delta_from_covariances(g, covs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        np.testing.assert_allclose(res.as_vector(g), fam.as_vector(), rtol=1e-9)

    def test_fit_at_151_nodes_holds_no_incidence(self):
        # the (n, n, |E|) path incidence alone would trace 55 MB here
        g = build_block_graph(*clique_tree_edges(np.random.default_rng(5), 151))
        fam = random_delta(g, np.random.default_rng(6))
        p = path_sum_matrix(fam)
        covs = {u: GaussianLimit.from_path_sums(p, u).cov for u in g.nodes}
        incidence_bytes = len(g.nodes) ** 2 * len(g.edges) * 8
        tracemalloc.start()
        try:
            res = fit_delta_from_covariances(g, covs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < incidence_bytes
        np.testing.assert_allclose(res.as_vector(g), fam.as_vector(), rtol=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_moments_at_61_nodes_recover_to_rounding(self, seed):
        # a minimiser from G's eigenvectors read these back at 3.5e-12 to
        # 1.1e-11 relative; the active set's first solve of G reads them at
        # 1.4e-13 to 5e-13
        g = build_block_graph(*clique_tree_edges(np.random.default_rng(seed), 61))
        fam = random_delta(g, np.random.default_rng(seed))
        p = path_sum_matrix(fam)
        limits = {u: GaussianLimit.from_path_sums(p, u) for u in g.nodes[:10]}
        res = fit_delta_from_covariances(g, {u: lim.cov for u, lim in limits.items()},
                                         {u: lim.mean for u, lim in limits.items()})
        np.testing.assert_allclose(res.as_vector(g), fam.as_vector(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_factor_matches_stacked_design(self, seed):
        # reference: the stacked design of every anchor's coefficient rows
        # (plus the -1/2-diagonal mean rows), solved by scipy's NNLS
        rng = np.random.default_rng(300 + seed)
        g = random_block_graph(rng, max_nodes=12)
        fam = random_delta(g, rng)
        m = len(g.nodes) - 1
        covs, means = {}, {}
        for u in g.nodes:
            lim = gaussian_limit(fam, u)
            noise = rng.normal(0.0, 0.3, (m, m))
            covs[u] = lim.cov + (noise + noise.T) / 2
            means[u] = lim.mean + rng.normal(0.0, 0.3, m)
        for given in (None, means):
            rows, target = [], []
            for u in g.nodes:
                coeffs = sigma_coefficient_matrix(g, u)
                rows.append(coeffs.reshape(m * m, -1))
                target.append(covs[u].reshape(-1))
                if given is not None:
                    rows.append(-0.5 * np.diagonal(coeffs).T)
                    target.append(given[u])
            design, target = np.vstack(rows), np.concatenate(target)
            expect = scipy.optimize.nnls(design, target)[0]
            resid = design @ expect - target
            res = fit_delta_from_covariances(g, covs, given)
            got = res.as_vector(g)
            np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9 * np.abs(expect).max())
            assert res.objective == pytest.approx(resid @ resid, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_asymmetric_covariance_matches_the_full_fold(self, seed):
        # the target sees (c_ij + c_ji) / 2; the objective still counts
        # every entry of an asymmetric Sigma_hat_u
        rng = np.random.default_rng(700 + seed)
        g = random_block_graph(rng, max_nodes=10)
        fam = random_delta(g, rng)
        m = len(g.nodes) - 1
        covs = {u: gaussian_limit(fam, u).cov + rng.normal(0.0, 0.3, (m, m)) for u in g.nodes}
        design = np.vstack([sigma_coefficient_matrix(g, u).reshape(m * m, -1) for u in g.nodes])
        target = np.concatenate([covs[u].reshape(-1) for u in g.nodes])
        expect = scipy.optimize.nnls(design, target)[0]
        resid = design @ expect - target
        res = fit_delta_from_covariances(g, covs)
        np.testing.assert_allclose(res.as_vector(g), expect, rtol=1e-9,
                                   atol=1e-9 * np.abs(expect).max())
        assert res.objective == pytest.approx(resid @ resid, rel=1e-9)

    @pytest.mark.parametrize("moment, anchor, spoil", [
        ("covs", "1", "nan"),
        ("covs", "2", "inf"),
        ("covs", "2", "shape"),
        ("means", "1", "nan"),
        ("means", "2", "-inf"),
        ("means", "1", "shape"),
        ("means", "1", "missing"),
    ])
    def test_moments_validated(self, fig2_graph, fig2_family, moment, anchor, spoil):
        # a non-finite entry would spread through G and h without a sound
        limits = {u: gaussian_limit(fig2_family, u) for u in ("1", "2")}
        given = {"covs": {u: lim.cov.copy() for u, lim in limits.items()},
                 "means": {u: lim.mean.copy() for u, lim in limits.items()}}
        spoiled = given[moment]
        if spoil == "missing":
            del spoiled[anchor]
        elif spoil == "shape":
            spoiled[anchor] = spoiled[anchor][:-1]
        else:
            spoiled[anchor].flat[1] = float(spoil)
        with pytest.raises(ValueError, match=f"anchor '{anchor}'"):
            fit_delta_from_covariances(fig2_graph, given["covs"], given["means"])

    def test_one_path_fill_without_trailing_axes(self, fig2_graph, fig2_family, monkeypatch):
        # no path incidence is filled: the fit's one path fill is the
        # (n, n) P of its estimate, anchored per anchor for the objective
        import extreme_blocks.model as model
        shapes = []
        real = model._path_fill

        def recorded(*args):
            out = real(*args)
            shapes.append(out.shape)
            return out

        covs = {u: gaussian_limit(fig2_family, u).cov for u in fig2_graph.nodes}
        monkeypatch.setattr(model, "_path_fill", recorded)
        fit_delta_from_covariances(fig2_graph, covs)
        n = len(fig2_graph.nodes)
        assert shapes == [(n, n)]

    def test_spacings_pipeline(self, fig2_graph, fig2_family):
        spacings = {}
        for j, u in enumerate(fig2_graph.nodes):
            y = sample_pareto_conditioned(fig2_family, u, 20000, 100 + j)
            iu = fig2_graph.nodes.index(u)
            cols = [i for i in range(len(fig2_graph.nodes)) if i != iu]
            spacings[u] = np.log(y[:, cols]) - np.log(y[:, [iu]])
        res = fit_delta(fig2_graph, spacings)
        assert res.diagnostics["1"]["rows"] == 20000
        for e, v in FIG2_DELTA.items():
            assert res.delta2_hat[e] == pytest.approx(v, rel=0.15)

    def test_single_edge_spacings_pipeline(self):
        # one spacing column per anchor: its covariance is a 1 x 1 matrix
        g = build_block_graph(["a", "b"], [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 0.7})
        spacings = {}
        for j, u in enumerate(g.nodes):
            y = sample_pareto_conditioned(fam, u, 2000, 10 + j)
            iu = g.nodes.index(u)
            spacings[u] = np.log(y[:, [1 - iu]]) - np.log(y[:, [iu]])
        res = fit_delta(g, spacings)
        assert res.diagnostics == {"a": {"rows": 2000}, "b": {"rows": 2000}}
        assert res.delta2_hat[("a", "b")] == pytest.approx(0.7, rel=0.15)


class TestSameBitsAsThePlainPath:
    """Ranks, spacings, G, h, delta2_hat and the objective equal, bit for
    bit, the plain path of tests/oracle.py: stable sorts, np.ix_ gathers,
    np.cov and the 16-gather Gram."""

    @staticmethod
    def raw_table(seed):
        # conditioned draws at three anchors on a clique tree, plus a noise
        # floor rounded to two decimals, so columns and anchors hold ties
        rng = np.random.default_rng(seed)
        g = build_block_graph(*clique_tree_edges(rng, int(rng.integers(5, 25))))
        fam = random_delta(g, rng, lo=0.4, hi=2.0)
        raw = np.vstack([sample_pareto_conditioned(fam, u, 400, int(s))
                         for u, s in zip(rng.choice(g.nodes, 3), rng.integers(0, 2**31, 3))])
        return g, np.round(raw + rng.random(raw.shape), 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_path(self, seed):
        g, raw = self.raw_table(900 + seed)
        pareto, ref_pareto = rank_transform(SampleSet(raw, g.nodes, "raw")), ranks_by_copies(raw)
        assert np.array_equal(pareto.data, ref_pareto)
        rng = np.random.default_rng(seed)
        for k in (2, 150, 600):
            spacings = {u: log_spacings(pareto, u, k) for u in g.nodes}
            ref_spacings = {u: spacings_by_copies(ref_pareto, g.nodes, u, k) for u in g.nodes}
            for u, mat in spacings.items():
                assert np.array_equal(mat, ref_spacings[u])
            covs = {u: cov_by_copies(mat) for u, mat in ref_spacings.items()}
            means = {u: mat.mean(axis=0) for u, mat in ref_spacings.items()}
            # fit_delta's covariances are np.cov's of the plain spacings (whose
            # memory layout counts too): every later step sees the same input
            res, ref = fit_delta(g, spacings), fit_delta_from_covariances(g, covs)
            assert np.array_equal(res.as_vector(g), ref.as_vector(g))
            assert res.objective == ref.objective
            subset = sorted(rng.choice(g.nodes, int(rng.integers(1, len(g.nodes) + 1)), replace=False))
            for anchors in (g.nodes, subset):
                for given in (None, means):
                    moments = {u: (covs[u], None if given is None else given[u]) for u in anchors}
                    gram, target = _normal_equations(g, moments)
                    ref_gram, ref_target = normal_equations_by_copies(g, moments)
                    assert np.array_equal(gram, ref_gram) and np.array_equal(target, ref_target)
                    got = fit_delta_from_covariances(g, {u: covs[u] for u in anchors},
                                                     None if given is None else {u: given[u] for u in anchors})
                    assert np.array_equal(got.as_vector(g), nnls_active_set(ref_gram, ref_target))
