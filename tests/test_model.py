import numpy as np
import pytest

from extreme_blocks import (
    GaussianLimit,
    MissingEdgeParamError,
    NonPositiveParamError,
    NotCNDError,
    NotSymmetricError,
    PathSumMatrix,
    build_block_graph,
    check_cnd,
    clique_limit_params,
    extremal_graph_check,
    gaussian_limit,
    path_sum_matrix,
    precision_matrix,
    sample_limit_field,
    validate_delta,
)
from extreme_blocks.model import (
    _anchor,
    _clique_precisions,
    _increment_law,
    sigma_coefficient_matrix,
)
from conftest import FIG2_DELTA
from gen import clique_tree_edges, random_block_graph, random_delta, random_tree


def triangle(d12, d13, d23):
    g = build_block_graph("123", [("1", "2"), ("1", "3"), ("2", "3")])
    return g, {("1", "2"): d12, ("1", "3"): d13, ("2", "3"): d23}


class TestValidateDelta:
    def test_two_clique_scalar_psi(self):
        g = build_block_graph("ab", [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 0.7})
        members, m = fam.clique_matrix(0)
        assert np.allclose(_anchor(m, 0)[1], [[2.8]])

    def test_unit_triangle_valid(self):
        g, params = triangle(1.0, 1.0, 1.0)
        fam = validate_delta(g, params)
        _, m = fam.clique_matrix(0)
        psi = _anchor(m, 0)[1]
        assert np.allclose(psi, [[4.0, 2.0], [2.0, 4.0]])
        assert np.allclose(np.linalg.eigvalsh(psi), [2.0, 6.0])

    def test_violating_triangle_rejected(self):
        g, params = triangle(1.0, 1.0, 5.0)
        # psi anchored at node 1 is [[4, -6], [-6, 4]] with eigenvalues -2, 10
        psi = _anchor(np.array([[0, 1, 1], [1, 0, 5.0], [1, 5.0, 0]]), 0)[1]
        assert np.allclose(np.linalg.eigvalsh(psi), [-2.0, 10.0])
        with pytest.raises(NotCNDError) as err:
            validate_delta(g, params)
        assert err.value.clique == ("1", "2", "3")

    def test_missing_and_extra_params(self, fig2_graph):
        short = dict(FIG2_DELTA)
        short.pop(("4", "5"))
        with pytest.raises(MissingEdgeParamError):
            validate_delta(fig2_graph, short)
        extra = dict(FIG2_DELTA)
        extra[("1", "5")] = 1.0
        with pytest.raises(MissingEdgeParamError):
            validate_delta(fig2_graph, extra)

    def test_nonpositive_param(self):
        g = build_block_graph("ab", [("a", "b")])
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveParamError, match="positive and finite"):
                validate_delta(g, {("a", "b"): value})


class TestPathSums:
    def test_edge_is_its_own_path(self, fig2_family):
        p = path_sum_matrix(fig2_family)
        for (a, b), v in FIG2_DELTA.items():
            assert p.entry(a, b) == pytest.approx(v, abs=1e-15)

    def test_zero_diagonal(self, fig2_family):
        p = path_sum_matrix(fig2_family)
        assert np.all(np.diag(p.values) == 0)

    def test_fig2_p15(self, fig2_family):
        p = path_sum_matrix(fig2_family)
        expect = FIG2_DELTA[("1", "2")] + FIG2_DELTA[("2", "4")] + FIG2_DELTA[("4", "5")]
        assert p.entry("1", "5") == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_shift_consistency(self, seed):
        rng = np.random.default_rng(seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        p = path_sum_matrix(fam)
        for u in g.nodes:
            for j in g.nodes:
                for i in g.path_nodes(u, j):
                    assert p.entry(u, i) + p.entry(i, j) == pytest.approx(
                        p.entry(u, j), abs=1e-12)


def case_analysis_cov(g, fam, p, u, i, j):
    """Independent derivation of the anchored covariance entry by the
    path-intersection case analysis."""
    pi, pj = g.path_nodes(u, i), g.path_nodes(u, j)
    a = u
    for x, y in zip(pi, pj):
        if x != y:
            break
        a = x
    if a == i:
        return 4.0 * p.entry(u, i)
    if a == j:
        return 4.0 * p.entry(u, j)
    k = pi[pi.index(a) + 1]
    l = pj[pj.index(a) + 1]
    if g.clique_of_edge(a, k) == g.clique_of_edge(a, l):
        return 4.0 * p.entry(u, a) + 2.0 * (
            fam.delta2(a, k) + fam.delta2(a, l) - fam.delta2(k, l))
    return 4.0 * p.entry(u, a)


class TestGaussianLimit:
    def test_fig2_row2_constant(self, fig2_family):
        lim = gaussian_limit(fig2_family, "1")
        i2 = lim.nodes.index("2")
        for v in ("3", "4", "5", "6"):
            assert lim.cov[i2, lim.nodes.index(v)] == pytest.approx(
                4 * FIG2_DELTA[("1", "2")], abs=1e-14)

    def test_fig2_entry_56(self, fig2_family):
        lim = gaussian_limit(fig2_family, "1")
        d = FIG2_DELTA
        expect = 4 * (d[("1", "2")] + d[("2", "4")]
                      + 0.5 * (d[("4", "5")] + d[("4", "6")] - d[("5", "6")]))
        assert lim.cov[lim.nodes.index("5"), lim.nodes.index("6")] == pytest.approx(
            expect, abs=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_diag_and_mean_vs_path_sums(self, seed):
        rng = np.random.default_rng(seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        p = path_sum_matrix(fam)
        for u in g.nodes:
            lim = gaussian_limit(fam, u)
            for k, v in enumerate(lim.nodes):
                assert lim.cov[k, k] == pytest.approx(4 * p.entry(u, v), abs=1e-12)
                assert lim.mean[k] == pytest.approx(-2 * p.entry(u, v), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_case_analysis_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        p = path_sum_matrix(fam)
        for u in g.nodes:
            lim = gaussian_limit(fam, u)
            for x, i in enumerate(lim.nodes):
                for y, j in enumerate(lim.nodes):
                    expect = case_analysis_cov(g, fam, p, u, i, j)
                    assert lim.cov[x, y] == pytest.approx(expect, abs=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_definite_everywhere(self, seed):
        rng = np.random.default_rng(20 + seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        for u in g.nodes:
            lim = gaussian_limit(fam, u)
            assert np.linalg.eigvalsh(lim.cov)[0] > 0

    def test_monte_carlo_covariance(self, fig2_family):
        # tri-case law checked against a direct simulation of the log field
        n = 200000
        lim = gaussian_limit(fig2_family, "1")
        fs = sample_limit_field(fig2_family, "1", n, 99)
        cols = [k for k, v in enumerate(fs.nodes) if v != "1"]
        ln_a = np.log(fs.matrix[:, cols])
        cov_hat = np.cov(ln_a, rowvar=False)
        var = np.diag(lim.cov)
        se = np.sqrt((np.outer(var, var) + lim.cov ** 2) / n)
        assert np.all(np.abs(cov_hat - lim.cov) <= 4 * se)


class TestPrecision:
    def test_hand_inverted_path_graph(self):
        g = build_block_graph("123", [("1", "2"), ("2", "3")])
        fam = validate_delta(g, {("1", "2"): 1.0, ("2", "3"): 1.0})
        lim = gaussian_limit(fam, "1")
        assert np.allclose(lim.cov, [[4.0, 4.0], [4.0, 8.0]])
        theta = precision_matrix(fam, "1")
        assert np.allclose(theta, [[0.5, -0.25], [-0.25, 0.25]], atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_and_zero_pattern(self, seed):
        rng = np.random.default_rng(30 + seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        for u in g.nodes:
            lim = gaussian_limit(fam, u)
            theta = precision_matrix(fam, u)
            m = len(lim.nodes)
            assert np.abs(theta @ lim.cov - np.eye(m)).max() < 1e-10
            for a in range(m):
                for b in range(a + 1, m):
                    if not g.has_edge(lim.nodes[a], lim.nodes[b]):
                        assert abs(theta[a, b]) <= 1e-9

    def test_tree_reduction_scalar_blocks(self):
        rng = np.random.default_rng(7)
        g = random_tree(rng, 9)
        fam = random_delta(g, rng)
        for ci, members in enumerate(g._members):
            for s in members:
                assert _increment_law(fam, ci, s)[1].shape == (1, 1)
        # dense inversion oracle agrees with the structural build
        for u in g.nodes:
            lim = gaussian_limit(fam, u)
            assert np.allclose(precision_matrix(fam, u), np.linalg.inv(lim.cov),
                               atol=1e-10)

    def test_in_place_compaction_matches_gather(self):
        # rows are moved in blocks inside the n x n sum; the result must be
        # the plain gather, bit for bit, with about one n x n matrix held
        import tracemalloc
        n = 1001
        rng = np.random.default_rng(101)
        nodes, edges = clique_tree_edges(rng, n)
        g = build_block_graph(nodes, edges)
        fam = random_delta(g, rng)
        full = _clique_precisions(fam)
        for u in (nodes[0], nodes[n // 2], nodes[-1]):
            rest = [i for i in range(n) if i != g.index(u)]
            tracemalloc.start()
            try:
                theta = precision_matrix(fam, u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(theta, full[np.ix_(rest, rest)])
            assert theta.shape == (n - 1, n - 1) and theta.flags.c_contiguous
            assert peak < 1.2 * full.nbytes


class TestCheckCnd:
    def test_two_by_two(self):
        assert check_cnd(np.array([[0.0, 0.7], [0.7, 0.0]]))

    def test_zero_matrix(self):
        assert not check_cnd(np.zeros((3, 3)))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            check_cnd(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_path_sum_matrices_are_cnd(self, seed):
        rng = np.random.default_rng(40 + seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        assert check_cnd(path_sum_matrix(fam))

    def test_definition_by_direct_sampling(self):
        rng = np.random.default_rng(11)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        m = path_sum_matrix(fam).values
        for _ in range(200):
            a = rng.standard_normal(m.shape[0])
            a -= a.mean()
            if np.abs(a).max() < 1e-12:
                continue
            assert a @ m @ a < 0


class TestExtremalGraphCheck:
    @staticmethod
    def check(fam, u, p=None, tolerance=None):
        lim = GaussianLimit.from_path_sums(path_sum_matrix(fam) if p is None else p, u)
        return extremal_graph_check(lim, precision_matrix(fam, u), tolerance)

    @staticmethod
    def pair_loop_report(fam, u):
        """Largest |Theta_u Sigma_u - I| entry, one row-column product at a
        time."""
        lim = gaussian_limit(fam, u)
        theta = precision_matrix(fam, u)
        m = len(lim.nodes)
        return max(abs(float(np.dot(theta[i], lim.cov[:, j])) - (i == j))
                   for i in range(m) for j in range(m))

    def test_fig2_random_delta(self, fig2_graph):
        fam = random_delta(fig2_graph, np.random.default_rng(3))
        for u in fig2_graph.nodes:
            report = self.check(fam, u)
            assert report.passed
            assert report.worst[0] == u

    def test_complete_graph_residual_measured(self):
        from itertools import combinations
        nodes = list("abcd")
        g = build_block_graph(nodes, combinations(nodes, 2))
        fam = random_delta(g, np.random.default_rng(4))
        report = self.check(fam, "b")
        assert report.passed
        assert report.worst[0] == "b" and "b" not in report.worst[1:]

    def test_tree_random_delta(self):
        rng = np.random.default_rng(5)
        g = random_tree(rng, 8)
        fam = random_delta(g, rng)
        assert all(self.check(fam, u).passed for u in g.nodes)

    def test_one_increment_law_per_clique(self, fig1_family, monkeypatch):
        # the check reads the matrices it is given and builds nothing itself
        import extreme_blocks.model as model
        calls = []
        real = model._increment_law

        def counted(d, ci, s):
            calls.append(ci)
            return real(d, ci, s)

        monkeypatch.setattr(model, "_increment_law", counted)
        assert self.check(fig1_family, "7").passed
        assert sorted(calls) == list(range(len(fig1_family.graph.cliques)))

    def test_planted_path_sum_fails(self, fig2_family):
        g = fig2_family.graph
        p = path_sum_matrix(fig2_family)
        i, j = next((i, j) for i in range(1, len(g.nodes)) for j in range(i + 1, len(g.nodes))
                    if not g.has_edge(g.nodes[i], g.nodes[j]))
        values = p.values.copy()
        values[i, j] += 0.3
        values[j, i] += 0.3
        planted = PathSumMatrix(p.nodes, values)
        report = self.check(fig2_family, g.nodes[0], planted)
        assert not report.passed
        assert report.max_violation > 0.1
        # Sigma_u moves only at (i, j), so only columns i and j of the product do
        assert report.worst[0] == g.nodes[0] and report.worst[2] in (g.nodes[i], g.nodes[j])
        assert not self.check(fig2_family, g.nodes[0], planted, tolerance=1e-3).passed

    @pytest.mark.parametrize("n", [61, 301, 601])
    def test_default_tolerance_on_clique_trees(self, n):
        rng = np.random.default_rng(101)
        g = build_block_graph(*clique_tree_edges(rng, n))
        fam = random_delta(g, rng)
        u = g.nodes[n // 2]
        p = path_sum_matrix(fam)
        report = self.check(fam, u, p)
        assert report.passed and 0.0 < report.max_violation
        # plant between two late nodes, so the residual lies in the last row block
        i = n - 2
        j = next(j for j in range(i - 1, 0, -1) if not g.has_edge(g.nodes[i], g.nodes[j]))
        values = p.values.copy()
        values[i, j] += 0.3
        values[j, i] += 0.3
        planted = GaussianLimit.from_path_sums(PathSumMatrix(p.nodes, values), u)
        theta = precision_matrix(fam, u)
        report = extremal_graph_check(planted, theta)
        dense = float(np.abs(theta @ planted.cov - np.eye(n - 1)).max())
        assert not report.passed
        assert abs(report.max_violation - dense) <= 1e-9 * dense

    def test_one_node_graph(self):
        fam = validate_delta(build_block_graph(["a"], []), {})
        report = self.check(fam, "a")
        assert (report.max_violation, report.worst, report.passed) == (0.0, None, True)

    def test_tolerance_override(self, fig1_family):
        report = self.check(fig1_family, "7", tolerance=1e-30)
        assert report.tolerance == 1e-30
        assert report.passed == (report.max_violation <= 1e-30)

    def test_rejects_mismatched_or_non_finite_theta(self, fig1_family):
        lim = gaussian_limit(fig1_family, "7")
        theta = precision_matrix(fig1_family, "7")
        with pytest.raises(ValueError, match="shape"):
            extremal_graph_check(lim, theta[1:, 1:])
        theta[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            extremal_graph_check(lim, theta)

    def test_matches_pair_loop_on_figures(self, fig1_family, fig2_family):
        for fam in (fig1_family, fig2_family):
            for u in fam.graph.nodes:
                report = self.check(fam, u)
                worst = self.pair_loop_report(fam, u)
                assert abs(report.max_violation - worst) <= report.tolerance

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pair_loop_on_random_graphs(self, seed):
        rng = np.random.default_rng(90 + seed)
        g = random_block_graph(rng, max_nodes=14) if seed % 2 else random_tree(rng, 10)
        fam = random_delta(g, rng)
        for u in g.nodes:
            report = self.check(fam, u)
            worst = self.pair_loop_report(fam, u)
            assert abs(report.max_violation - worst) <= report.tolerance


class TestCliqueLimitParams:
    def test_two_clique(self):
        g = build_block_graph("ab", [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 0.8})
        mean, psi = clique_limit_params(fam, {"a", "b"}, "a")
        assert np.allclose(mean, [-1.6])
        assert np.allclose(psi, [[3.2]])

    def test_psi_diagonal(self, fig2_family):
        mean, psi = clique_limit_params(fig2_family, {"2", "3", "4"}, "2")
        d = FIG2_DELTA
        assert np.allclose(np.diag(psi), [4 * d[("2", "3")], 4 * d[("2", "4")]])
        assert np.allclose(mean, [-2 * d[("2", "3")], -2 * d[("2", "4")]])

    def test_unit_three_clique(self):
        g = build_block_graph("123", [("1", "2"), ("1", "3"), ("2", "3")])
        fam = validate_delta(g, {("1", "2"): 1.0, ("1", "3"): 1.0, ("2", "3"): 1.0})
        mean, psi = clique_limit_params(fam, {"1", "2", "3"}, "1")
        assert np.allclose(mean, [-2.0, -2.0])
        assert np.allclose(psi, [[4.0, 2.0], [2.0, 4.0]])

    def test_node_not_in_clique(self, fig2_family):
        from extreme_blocks import NodeNotInCliqueError
        with pytest.raises(NodeNotInCliqueError):
            clique_limit_params(fig2_family, {"2", "3", "4"}, "5")


class TestLinearity:
    @pytest.mark.parametrize("seed", range(3))
    def test_coefficients_reproduce_covariance(self, seed):
        rng = np.random.default_rng(50 + seed)
        g = random_block_graph(rng)
        fam = random_delta(g, rng)
        vec = fam.as_vector()
        for u in g.nodes:
            coeffs = sigma_coefficient_matrix(g, u)
            assert np.allclose(coeffs @ vec, gaussian_limit(fam, u).cov, atol=1e-12)
            allowed = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0])
            assert np.all(np.isin(coeffs, allowed))


def test_duplicate_edge_param_rejected(fig2_graph):
    params = dict(FIG2_DELTA)
    params[("2", "1")] = 0.3  # same edge, swapped orientation
    with pytest.raises(MissingEdgeParamError):
        validate_delta(fig2_graph, params)


def test_restrict_unknown_node_typed_error(fig2_family):
    from extreme_blocks import UnknownNodeError
    p = path_sum_matrix(fig2_family)
    with pytest.raises(UnknownNodeError, match="unknown node 'zz'"):
        p.restrict(["1", "zz"])
    sub = p.restrict(["5", "2", "4"])
    for q in (p, sub):
        assert [q.index(v) for v in q.nodes] == list(range(len(q.nodes)))
    assert sub.entry("2", "5") == p.entry("5", "2")
    with pytest.raises(UnknownNodeError, match="unknown node '1'"):
        sub.index("1")
