import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import extreme_blocks.mvn as mvn
from extreme_blocks import (
    DimensionCapError, MvnResult, NotPDError, mvn_cdf, std_normal_cdf,
)

# frozen from a 30-digit erf evaluation
PHI_1 = 0.8413447460685429485852
PHI_HALF = 0.6914624612740131036377


def orthant_exact(rho):
    return 0.25 + math.asin(rho) / (2 * math.pi)


def trivariate_orthant_exact(rho):
    # P(X <= 0) for equicorrelated trivariate normals
    return 0.125 + 3 * math.asin(rho) / (4 * math.pi)


LATTICE = {name: arg.default for name, arg in inspect.signature(mvn_cdf).parameters.items()
           if name in ("randomizations", "start_points", "max_points")}


def lattice(upper, cov, weights=None, *, rel_tol=1e-6, seed=0,
            randomizations=LATTICE["randomizations"],
            start_points=LATTICE["start_points"], max_points=LATTICE["max_points"]):
    """mvn_cdf's randomized lattice path, which d >= 4 takes and d = 2, 3
    take only when the closed forms miss rel_tol, with mvn_cdf's defaults."""
    return mvn._lattice_sum(*mvn._stack(upper, cov, weights), rel_tol, seed,
                            randomizations, start_points, max_points)


def per_shift_cdf(upper, cov, rel_tol, seed, randomizations=LATTICE["randomizations"],
                  start_points=LATTICE["start_points"], max_points=LATTICE["max_points"]):
    """Reference copy of the lattice loop that runs each random shift in its
    own integrand calls of at most 2**14 rows, with the error at the t
    quantile; returns (value, error, points). The n-point lattice is
    {k z / n : k < n}; a doubling to n points adds its odd k."""
    from scipy.special import stdtrit
    d = len(upper)
    L, b = mvn._ordered_cholesky(cov, upper)
    z = [int(c) for c in mvn._LATTICE_Z[: d - 1]]
    shifts = np.random.Generator(np.random.Philox(key=seed)).random((randomizations, d - 1))
    sums, n = np.zeros(randomizations), start_points
    new = range(n)
    while True:
        for lo in range(0, len(new), 1 << 14):
            x = np.array([[k * c % n / n for c in z] for k in new[lo:lo + (1 << 14)]])
            for r in range(randomizations):
                w = np.abs(2.0 * np.modf(x + shifts[r])[0] - 1.0)
                sums[r] += float(mvn._integrand(L, b, np.ascontiguousarray(w.T)).sum())
        means = sums / n
        value = float(means.mean())
        spread = float(means.std(ddof=1)) / math.sqrt(randomizations)
        err = stdtrit(randomizations - 1, 0.99865) * spread
        if err <= rel_tol * value or n >= max_points:
            return value, err, n * randomizations
        n *= 2
        new = range(1, n, 2)


class TestStdNormal:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.0, 2.5, 6.0])
    def test_symmetry(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15

    def test_frozen_oracle_values(self):
        assert abs(std_normal_cdf(1.0) - PHI_1) <= 1e-15
        assert abs(std_normal_cdf(0.5) - PHI_HALF) <= 1e-15

    def test_tails(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0

    def test_trivariate_cut_is_scipy_ndtr(self):
        # written out so that importing mvn loads no scipy; math.erfc is
        # about 1e-14 off it, which would change the trivariate error bytes
        from scipy.special import ndtr
        assert mvn._CUT == float(ndtr(-mvn._LINE))


class TestMvnCdf:
    def test_dim1_delegates_exactly(self):
        res = mvn_cdf(np.array([1.3]), np.array([[4.0]]))
        assert res.value == std_normal_cdf(1.3 / 2.0)
        assert res.error == 0.0
        assert res.converged

    def test_diagonal_factorizes(self):
        cov = np.diag([1.0, 4.0, 0.25])
        upper = np.array([0.3, -0.2, 1.1])
        res = mvn_cdf(upper, cov)
        prod = (std_normal_cdf(0.3) * std_normal_cdf(-0.1) * std_normal_cdf(2.2))
        assert abs(res.value - prod) <= 1e-10

    def test_dim2_orthant_third(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = mvn_cdf(np.zeros(2), cov, rel_tol=1e-6)
        assert abs(res.value - 1.0 / 3.0) <= 1e-6 / 3.0 * 3  # 1e-6 relative

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_dim2_arcsine_family(self, rho):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        res = mvn_cdf(np.zeros(2), cov, rel_tol=1e-6)
        exact = orthant_exact(rho)
        assert abs(res.value - exact) <= 1e-6 * exact
        assert res.converged

    def test_dim2_quadrature_oracle(self):
        # independent check of the arcsine closed form by 2-D adaptive quadrature
        from scipy.integrate import dblquad
        rho = 0.5

        def dens(y, x):
            det = 1 - rho * rho
            q = (x * x - 2 * rho * x * y + y * y) / det
            return math.exp(-q / 2) / (2 * math.pi * math.sqrt(det))

        val, _ = dblquad(dens, -9, 0, -9, 0, epsabs=1e-12, epsrel=1e-12)
        assert abs(val - orthant_exact(rho)) <= 1e-10

    def test_not_pd_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPDError):
            mvn_cdf(np.zeros(2), cov)

    def test_asymmetric_rejected(self):
        cov = np.array([[1.0, 0.2], [0.4, 1.0]])
        with pytest.raises(NotPDError):
            mvn_cdf(np.zeros(2), cov)

    def test_dimension_cap(self):
        # the covariance is fine; only the lattice rule's dimension is capped
        with pytest.raises(DimensionCapError, match="cap of 25"):
            mvn_cdf(np.zeros(26), np.eye(26))

    def test_tolerance_flag_when_budget_exhausted(self):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        res = lattice(np.array([0.2, -0.1]), cov, rel_tol=1e-14,
                      start_points=256, max_points=512)
        assert not res.converged
        assert res.error > 0

    @pytest.mark.parametrize("rel_tol, max_points", [(1e-6, 1 << 21), (1e-14, 1 << 15)],
                             ids=["converged", "budget"])
    def test_each_lattice_point_evaluated_once(self, monkeypatch, rel_tol, max_points):
        # a doubling evaluates only the points it adds, also past the
        # 2**14-row blocks
        import extreme_blocks.mvn as mvn
        rows = []
        real = mvn._integrand

        def counted(L, b, w):
            rows.append(w.shape[1])
            return real(L, b, w)

        monkeypatch.setattr(mvn, "_integrand", counted)
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        res = lattice(np.array([0.4, -0.2, 1.1]), cov, rel_tol=rel_tol,
                      randomizations=5, start_points=256, max_points=max_points)
        assert res.points > 5 * 256  # the lattice doubled
        assert sum(rows) == res.points
        # one call covers every shift of a block, at most 2**14 points in all
        assert rows[0] == 5 * 256
        assert max(rows) <= 1 << 14
        assert res.converged == (rel_tol == 1e-6)

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-5])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 5, 7, 9, 2024])
    def test_matches_the_per_shift_loop(self, d, seed, rel_tol):
        # evaluating all shifts of a block in one call changes only the
        # order in which each shift's points are summed
        rng = np.random.default_rng([d, seed])
        a = rng.standard_normal((d, d))
        cov = a @ a.T + d * np.eye(d)
        upper = rng.standard_normal(d) + 0.5
        value, err, points = per_shift_cdf(upper, cov, rel_tol, seed)
        res = lattice(upper, cov, rel_tol=rel_tol, seed=seed)
        if d >= 4:  # mvn_cdf's only path from d = 4 on
            assert mvn_cdf(upper, cov, rel_tol=rel_tol, seed=seed) == res
        assert res.points == points
        assert res.value == pytest.approx(value, rel=1e-14, abs=0)
        # the error is a spread of per-shift means a few ulps of the value
        # apart, so its own relative change can reach 1e-11
        assert abs(res.error - err) <= 1e-15 * value

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_rel_tol_rejected(self, d, rel_tol):
        # a tolerance no estimate can meet would spend the whole point budget
        with pytest.raises(ValueError, match="rel_tol"):
            mvn_cdf(np.zeros(d), np.eye(d), rel_tol=rel_tol)

    @pytest.mark.parametrize("lattice, name", [
        ({"start_points": 0}, "start_points"),  # would never grow the lattice
        ({"start_points": -4}, "start_points"),  # would report negative points
        ({"randomizations": 1}, "randomizations"),  # no spread, so a nan error
        ({"randomizations": 0}, "randomizations"),  # no shift to average
    ])
    def test_bad_lattice_rejected(self, lattice, name):
        with pytest.raises(ValueError, match=name):
            mvn_cdf(np.zeros(2), np.eye(2), **lattice)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        cov = a @ a.T + 5 * np.eye(5)
        upper = rng.standard_normal(5)
        r1 = mvn_cdf(upper, cov, rel_tol=1e-4, seed=11)
        r2 = mvn_cdf(upper, cov, rel_tol=1e-4, seed=11)
        assert r1.value == r2.value and r1.error == r2.error

    @pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64), 1.0, "3", None])
    @pytest.mark.parametrize("d", [1, 4])
    def test_seed_outside_zero_to_two_to_the_64_rejected(self, d, seed):
        # a seed is an integer in [0, 2**64); the key of -1 used to be
        # masked to 2**128 - 1, the stream of another seed
        with pytest.raises(ValueError, match="seed"):
            mvn_cdf(np.zeros(d), np.eye(d), seed=seed)

    def test_seed_range_ends_and_numpy_integers_accepted(self):
        cov = np.array([[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.3, 0.2],
                        [0.1, 0.3, 1.5, 0.4], [0.0, 0.2, 0.4, 1.0]])
        upper = np.array([0.3, -0.2, 0.5, 0.1])
        top = mvn_cdf(upper, cov, rel_tol=1e-3, seed=(1 << 64) - 1)
        assert top.converged and top != mvn_cdf(upper, cov, rel_tol=1e-3, seed=0)
        for seed in (np.int64(7), np.uint64(7)):
            assert mvn_cdf(upper, cov, rel_tol=1e-3, seed=seed) == \
                mvn_cdf(upper, cov, rel_tol=1e-3, seed=7)

    def test_minus_infinity_limit(self):
        cov = np.eye(2)
        res = mvn_cdf(np.array([-np.inf, 1.0]), cov)
        assert res.value == 0.0

    def test_monotone_in_limits(self):
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        vals = [mvn_cdf(np.array([b, 0.3]), cov, rel_tol=1e-5).value
                for b in (-1.0, 0.0, 1.0, 2.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestTrivariateOrthant:
    @pytest.mark.parametrize("rho", [-0.3, 0.2, 0.6])
    def test_equicorrelated_closed_form(self, rho):
        cov = np.full((3, 3), rho)
        np.fill_diagonal(cov, 1.0)
        res = mvn_cdf(np.zeros(3), cov, rel_tol=1e-6)
        exact = trivariate_orthant_exact(rho)
        assert res.converged
        assert abs(res.value - exact) <= 1e-6 * exact


class TestDefaultStartAccuracy:
    """The default start stops at the first lattice whose t-quantile error
    estimate meets the tolerance. Against closed forms it misses the
    tolerance no more often than a 2048-point start on as many shifts."""

    @staticmethod
    def misses(upper, cov, exact, rel_tol, start_points):
        out = 0
        for seed in range(6):
            res = lattice(upper, cov, rel_tol=rel_tol, seed=seed,
                          start_points=start_points)
            assert res.converged
            assert abs(res.value - exact) <= 2 * rel_tol * exact
            out += abs(res.value - exact) > rel_tol * exact
        return out

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-5])
    @pytest.mark.parametrize("rho", [-0.3, 0.2, 0.6])
    def test_trivariate_orthants(self, rho, rel_tol):
        cov = np.full((3, 3), rho)
        np.fill_diagonal(cov, 1.0)
        args = np.zeros(3), cov, trivariate_orthant_exact(rho), rel_tol
        assert self.misses(*args, LATTICE["start_points"]) <= self.misses(*args, 2048)

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-5])
    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5, 0.9])
    def test_bivariate_arcsine(self, rho, rel_tol):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        args = np.zeros(2), cov, orthant_exact(rho), rel_tol
        assert self.misses(*args, LATTICE["start_points"]) <= self.misses(*args, 2048)


class TestStackedSpec:
    """A query may stack t terms of one dimension with nonnegative weights;
    mvn_cdf estimates sum_t w_t P(X_t <= upper_t) on one set of shifts."""

    @staticmethod
    def random_terms(rng, t, d):
        a = rng.standard_normal((t, d, d))
        cov = a @ a.transpose(0, 2, 1) + d * np.eye(d)
        return rng.standard_normal((t, d)) + 0.5, cov

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_term_stack_is_the_plain_spec(self, d):
        upper, cov = self.random_terms(np.random.default_rng(d), 1, d)
        plain = mvn_cdf(upper[0], cov[0], rel_tol=1e-5, seed=3)
        for weights in (None, [1.0]):
            stacked = mvn_cdf(upper, cov, rel_tol=1e-5, weights=weights, seed=3)
            assert stacked == plain

    def test_the_t_quantile_meets_the_tolerance(self):
        # under the former square-root-of-primes rule, three standard errors
        # over 10 shifts stopped this query at a true relative error of 1.51e-5
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        res = lattice(np.zeros(2), cov, rel_tol=1e-5, seed=4)
        assert res.converged
        assert abs(res.value - orthant_exact(0.9)) <= 1e-5 * orthant_exact(0.9)

    def test_weighted_sum_of_closed_forms(self):
        rhos, weights = [-0.5, 0.2, 0.9], np.array([0.3, 1.7, 1.0])
        cov = np.array([[[1.0, r], [r, 1.0]] for r in rhos])
        res = mvn_cdf(np.zeros((3, 2)), cov, rel_tol=1e-6, weights=weights, seed=1)
        exact = sum(w * orthant_exact(r) for w, r in zip(weights, rhos))
        assert res.converged
        assert abs(res.value - exact) <= 1e-6 * exact

    def test_d1_stack_is_exact(self):
        upper, var, weights = np.array([[0.3], [-1.2]]), np.array([[[4.0]], [[0.5]]]), [2.0, 0.5]
        res = mvn_cdf(upper, var, weights=weights)
        exact = 2.0 * std_normal_cdf(0.15) + 0.5 * std_normal_cdf(-1.2 / math.sqrt(0.5))
        assert res == MvnResult(exact, 0.0, True, 0)

    def test_terms_that_add_nothing_cost_nothing(self, monkeypatch):
        # a -inf bound or a zero weight adds exactly 0, and no lattice points
        import extreme_blocks.mvn as mvn
        rows = []
        real = mvn._integrand
        monkeypatch.setattr(mvn, "_integrand",
                            lambda L, b, w: rows.append(w.shape[1]) or real(L, b, w))
        upper, cov = self.random_terms(np.random.default_rng(5), 3, 4)
        alone = mvn_cdf(upper[0], cov[0], rel_tol=1e-4, seed=2)
        upper[1, 2] = -np.inf
        rows.clear()
        res = mvn_cdf(upper, cov, rel_tol=1e-4, weights=[1.0, 1.0, 0.0], seed=2)
        assert res == alone
        assert sum(rows) == res.points > 0
        for d in range(1, 5):
            upper, cov = self.random_terms(np.random.default_rng(d), 2, d)
            upper[0, -1] = -np.inf
            rows.clear()
            nothing = mvn_cdf(upper, cov, weights=[1.0, 0.0])
            assert nothing == MvnResult(0.0, 0.0, True, 0)
            assert rows == []

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dead_terms_are_not_factored(self, d):
        # a term that adds nothing is dropped before its variance or
        # Cholesky factor is looked at, in every dimension
        upper, cov = self.random_terms(np.random.default_rng(10 + d), 3, d)
        alone = mvn_cdf(upper[0], cov[0], rel_tol=1e-4, seed=1)
        cov[1] = 0.0
        cov[2] = -np.eye(d)
        upper[2, 0] = -np.inf
        res = mvn_cdf(upper, cov, rel_tol=1e-4, weights=[1.0, 0.0, 2.0], seed=1)
        assert res == alone
        with pytest.raises(NotPDError):
            mvn_cdf(upper[1:2], cov[1:2], rel_tol=1e-4)

    def test_the_noisiest_term_doubles(self, monkeypatch):
        # a term whose integrand is nearly constant keeps its starting
        # lattice; the points spent are every integrand row
        import extreme_blocks.mvn as mvn
        rows = {}
        real = mvn._integrand

        def counted(L, b, w):
            key = float(b.max())
            rows[key] = rows.get(key, 0) + w.shape[1]
            return real(L, b, w)

        monkeypatch.setattr(mvn, "_integrand", counted)
        cov = np.array([[[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]]] * 2)
        upper = np.array([[0.1, 0.2, 0.3], [9.0, 8.0, 7.0]])
        res = lattice(upper, cov, rel_tol=1e-6, randomizations=5, start_points=256)
        assert res.converged
        assert rows[9.0] == 5 * 256
        assert rows[0.3] > 5 * 256
        assert res.points == rows[9.0] + rows[0.3]

    def test_unconverged_only_when_no_term_can_double(self):
        upper, cov = self.random_terms(np.random.default_rng(6), 3, 3)
        res = lattice(upper, cov, rel_tol=1e-14, randomizations=4,
                      start_points=128, max_points=512)
        assert not res.converged
        assert res.points == 3 * 512 * 4
        assert res.error > 0

    @pytest.mark.parametrize("upper, cov, weights", [
        (np.zeros((2, 3)), np.stack([np.eye(3)] * 3), None),  # three covariances, two bounds
        (np.zeros((2, 3)), np.stack([np.eye(2)] * 2), None),  # covariances of another dimension
        (np.zeros(3), np.stack([np.eye(3)] * 2), None),  # a plain bound on a stack
        (np.zeros((2, 3)), np.stack([np.eye(3)] * 2), [1.0]),  # one weight for two terms
        (np.zeros((0, 3)), np.zeros((0, 3, 3)), None),  # no term
        (np.zeros((2, 3)), np.stack([np.eye(3)] * 2), [1.0, -0.5]),
        (np.zeros((2, 3)), np.stack([np.eye(3)] * 2), [1.0, math.nan]),
        (np.zeros((2, 3)), np.stack([np.eye(3)] * 2), [math.inf, 1.0]),
    ])
    def test_bad_stack_rejected(self, upper, cov, weights):
        with pytest.raises(ValueError):
            mvn_cdf(upper, cov, weights=weights)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("where", ["upper", "cov-nan", "cov-inf"])
    def test_missing_bound_or_covariance_rejected_before_any_point(self, d, where, monkeypatch):
        # a NaN bound once spent the whole point budget in d >= 2 and read
        # as converged in d = 1; a NaN covariance read as "not symmetric"
        def refuse(*args):
            raise AssertionError("no point may be evaluated")

        monkeypatch.setattr(mvn, "_integrand", refuse)
        upper, cov = np.zeros(d), np.eye(d)
        if where == "upper":
            upper[0] = math.nan
        else:
            cov[0, 0] = math.nan if where == "cov-nan" else math.inf
        with pytest.raises(ValueError, match="upper" if where == "upper" else "covariance"):
            mvn_cdf(upper, cov)

    @pytest.mark.parametrize("bad", [
        [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # not positive definite
        [[1.0, 0.2, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]],  # not symmetric
    ])
    def test_bad_covariance_in_any_term_rejected(self, bad):
        cov = np.stack([np.eye(3), np.array(bad), np.eye(3)])
        with pytest.raises(NotPDError):
            mvn_cdf(np.zeros((3, 3)), cov)


def bvn_by_quad(h, k, r):
    """Phi_2(h, k; r) as the integral over x <= h of phi(x) Phi((k - r x) / s)
    by adaptive quadrature; returns (value, quadrature error estimate)."""
    from scipy.integrate import quad
    from scipy.special import ndtr
    s = math.sqrt((1 - r) * (1 + r))
    val, err, *_ = quad(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
                        * float(ndtr((k - r * x) / s)),
                        -math.inf, h, epsabs=1e-300, epsrel=1e-13, limit=400, full_output=1)
    return val, err


BOUNDS = st.one_of(st.floats(-8.0, 8.0), st.just(0.0), st.just(math.inf))
CORRELATIONS = st.floats(-0.999, 0.999)
KERNEL_CASES = settings(max_examples=1000, deadline=None, derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])


class TestClosedForms:
    """d = 2 and 3 are served by Owen's T and one Gauss-Legendre line over
    it; the reported error is a bound, so every value must lie within it of
    an independent evaluation."""

    @KERNEL_CASES
    @given(h=BOUNDS, k=BOUNDS, r=CORRELATIONS)
    def test_bivariate_matches_scipy(self, h, k, r):
        from scipy.stats import multivariate_normal
        value, error = (float(a[0]) for a in mvn._bvn(np.array([h]), np.array([k]), np.array([r])))
        # scipy's bivariate routine (Genz's BVN) states an absolute error of 1e-15
        ref = multivariate_normal.cdf([h, k], cov=[[1.0, r], [r, 1.0]])
        assert 0.0 <= error < 1e-13
        assert abs(value - ref) <= error + 1e-15

    @KERNEL_CASES
    @given(h=BOUNDS, k=BOUNDS, r=CORRELATIONS,
           scale=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=2))
    def test_bivariate_covariances_through_mvn_cdf(self, h, k, r, scale):
        # mvn_cdf standardises the covariance; away from the tails the
        # closed form meets 1e-6 and spends no lattice point
        from scipy.stats import multivariate_normal
        sd = np.sqrt(scale)
        cov = np.array([[scale[0], r * sd[0] * sd[1]], [r * sd[0] * sd[1], scale[1]]])
        res = mvn_cdf(np.array([h, k]) * sd, cov, rel_tol=1e-6, max_points=1 << 10)
        if min(h, k) >= -2.0 and r >= -0.5:
            assert res.points == 0
        if res.points == 0:
            ref = multivariate_normal.cdf([h, k], cov=[[1.0, r], [r, 1.0]])
            assert abs(res.value - ref) <= res.error + 1e-15

    @KERNEL_CASES
    @given(h=st.floats(-8.0, 8.0), k=st.floats(-8.0, 8.0), r=CORRELATIONS)
    def test_bivariate_error_bounds_the_tails(self, h, k, r):
        # relative to the value: far tails cancel in the Owen's T sum, and
        # the bound must grow with the cancellation
        value, error = (float(a[0]) for a in mvn._bvn(np.array([h]), np.array([k]), np.array([r])))
        ref, ref_err = bvn_by_quad(h, k, r)
        assert abs(value - ref) <= error + ref_err

    @KERNEL_CASES
    @given(rho=st.floats(-0.499, 0.999))
    def test_trivariate_equicorrelated_orthant(self, rho):
        cov = np.full((3, 3), rho)
        np.fill_diagonal(cov, 1.0)
        value, error = (float(a[0]) for a in mvn._tvn(np.zeros((1, 3)), cov[None]))
        assert abs(value - trivariate_orthant_exact(rho)) <= error + 1e-15

    @settings(KERNEL_CASES, max_examples=400)  # each case runs an adaptive quadrature
    @given(h=st.lists(BOUNDS, min_size=3, max_size=3),
           r=st.lists(CORRELATIONS, min_size=3, max_size=3))
    def test_trivariate_matches_a_quadrature_line(self, h, r):
        from scipy.integrate import quad
        r01, r02, r12 = r
        corr = np.array([[1.0, r01, r02], [r01, 1.0, r12], [r02, r12, 1.0]])
        assume(np.linalg.eigvalsh(corr)[0] > 1e-3)
        value, error = (float(a[0]) for a in mvn._tvn(np.array([h]), corr[None]))
        # integrate over the first variable, whichever the kernel chose
        s1, s2 = math.sqrt(1 - r01 * r01), math.sqrt(1 - r02 * r02)
        rc = (r12 - r01 * r02) / (s1 * s2)

        def line(x):
            b = mvn._bvn(np.array([(h[1] - r01 * x) / s1]), np.array([(h[2] - r02 * x) / s2]),
                         np.array([rc]))
            return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * float(b[0][0])

        ref, ref_err, *_ = quad(line, -math.inf, h[0], epsabs=1e-15, epsrel=1e-12,
                                limit=400, full_output=1)
        assert abs(value - ref) <= error + ref_err + 1e-15

    def test_stack_mixing_fallback_and_exact_terms(self):
        # alone, the ordinary term meets 1e-4 in closed form and the
        # far-tail one does not: its Owen's T terms near 1e-7 cancel to
        # 9.6e-19. A stack falls back when the far tail carries it.
        cov = np.array([[[1.0, -0.3], [-0.3, 1.0]]] * 2)
        upper = np.array([[0.4, -0.3], [-5.0, -5.0]])
        exact = np.array([bvn_by_quad(*u, -0.3)[0] for u in upper])
        ordinary = mvn_cdf(upper[0], cov[0], rel_tol=1e-4)
        far = mvn_cdf(upper[1], cov[1], rel_tol=1e-4)
        assert ordinary.points == 0 and far.points > 0
        weights = np.array([1e-20, 1.0])
        res = mvn_cdf(upper, cov, rel_tol=1e-4, weights=weights, seed=3)
        assert res.converged and res.points > 0
        assert abs(res.value - weights @ exact) <= 1e-4 * (weights @ exact)
        # weighted the other way, the ordinary term carries the stack
        res = mvn_cdf(upper, cov, rel_tol=1e-4, weights=weights[::-1], seed=3)
        assert res.points == 0
        assert abs(res.value - weights[::-1] @ exact) <= res.error + 1e-15

    def test_unconverged_far_tail_stops_at_the_default_budget(self):
        # Phi_2(-7, -7.5; 0.3) = 1.28e-20: the closed form's bound misses
        # 1e-6 relative and falls back to the lattice, which cannot meet it
        # either. The budget is 2**20 points per shift, so the one term
        # stops after 20 * 2**20 rows (2**21 per shift spent twice that).
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        res = mvn_cdf(np.array([-7.0, -7.5]), cov, rel_tol=1e-6)
        assert not res.converged
        assert res.points == LATTICE["randomizations"] * 2**20 == 20 * 2**20
        assert res.value == pytest.approx(bvn_by_quad(-7.0, -7.5, 0.3)[0], rel=1e-5)

    def test_far_tail_query_falls_back_and_meets_its_tolerance(self):
        cov = np.array([[1.0, -0.3], [-0.3, 1.0]])
        res = mvn_cdf(np.array([-5.0, -5.5]), cov, rel_tol=1e-4, seed=1)
        exact = bvn_by_quad(-5.0, -5.5, -0.3)[0]
        assert res.points > 0 and res.converged
        assert abs(res.value - exact) <= 1e-4 * exact


def stack_by_quad(upper, cov, weights):
    """sum_t w_t Phi_4(upper_t; cov_t) of a stack of dimension 4 as one
    adaptive quadrature line; returns (value, error).

    Each term conditions on its first variable: Phi_4 is the integral over
    x <= h_0 of phi(x) Phi_3 of the other three given x, the trivariate
    factor by mvn._tvn. Term t's x runs over [-9, min(h_0, 9)], mapped onto
    one u in [0, 1] that all terms share. The error is quad's estimate plus
    the largest integrand of the _tvn bounds and the 2 Phi(-9) cut.
    """
    from scipy.integrate import quad
    cut = 9.0
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    h = upper / sd
    corr = cov / (sd[:, :, None] * sd[:, None, :])
    r0 = corr[:, 0, 1:]
    s = np.sqrt((1.0 - r0) * (1.0 + r0))
    cond = (corr[:, 1:, 1:] - r0[:, :, None] * r0[:, None, :]) / (s[:, :, None] * s[:, None, :])
    cond[:, range(3), range(3)] = 1.0
    top = np.clip(h[:, 0], -cut, cut)
    scale = weights * (top + cut) / math.sqrt(2 * math.pi)
    bound = [0.0]

    def line(u):
        x = -cut + (top + cut) * u
        value, err = mvn._tvn((h[:, 1:] - r0 * x[:, None]) / s, cond)
        wphi = scale * np.exp(-0.5 * x * x)
        bound[0] = max(bound[0], float(wphi @ err))
        return float(wphi @ value)

    val, err, *_ = quad(line, 0.0, 1.0, epsabs=1e-300, epsrel=1e-10, limit=400, full_output=1)
    return val, err + bound[0] + 2.0 * weights.sum() * std_normal_cdf(-cut)


class TestEmbeddedLattice:
    """The rank-1 lattice {k z / n} with the CBC generating vector z: its
    doublings, its generating vector, and its error's coverage."""

    @pytest.mark.parametrize("start, dims, block", [(128, 24, 1 << 14), (128, 4, 100), (3, 6, 7)])
    def test_doublings_evaluate_each_point_once(self, start, dims, block):
        z = mvn._LATTICE_Z[:dims]
        top = 8 * start
        seen = []
        for lo, hi in [(0, start), (start, 2 * start), (2 * start, 4 * start),
                       (4 * start, 8 * start)]:
            for num in mvn._lattice_numerators(z, lo, hi, block):
                assert num.shape[0] == dims and 0 < num.shape[1] <= block
                assert num.max() < hi
                seen.append(num.T.astype(np.int64) * (top // hi))
        seen = np.concatenate(seen)
        lattice_points = np.arange(top)[:, None] * z.astype(np.int64) % top
        assert len(seen) == top
        # z_1 = 1, so a point's first numerator is its index k
        assert np.array_equal(seen[np.argsort(seen[:, 0])], lattice_points)

    def test_generating_vector_is_the_cbc_search(self):
        # the first three components serve every d <= 4 query
        from oracle import embedded_cbc
        assert embedded_cbc(3) == tuple(int(c) for c in mvn._LATTICE_Z[:3])
        assert len(mvn._LATTICE_Z) == mvn.DIMENSION_CAP - 1

    @pytest.mark.parametrize("option", ["start_points", "max_points"])
    def test_lattice_past_two_to_the_31_rejected(self, monkeypatch, option):
        # past 2**31 points per shift, (k z mod n) k could overflow 64 bits
        def refuse(*args):
            raise AssertionError("no lattice may be built")

        monkeypatch.setattr(mvn, "_lattice_numerators", refuse)
        monkeypatch.setattr(mvn, "_integrand", refuse)
        with pytest.raises(ValueError, match=option):
            mvn_cdf(np.zeros(4), np.eye(4), **{option: (1 << 31) + 1})

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-5])
    def test_error_covers_stdf_stacks(self, rel_tol, stdf_references):
        over = missed = runs = 0
        for stack, ref in stdf_references:
            for seed in range(4):
                res = mvn_cdf(*stack, rel_tol=rel_tol, seed=seed)
                assert res.converged and res.points > 0
                runs += 1
                over += abs(res.value - ref) > res.error
                missed += abs(res.value - ref) > 2 * rel_tol * ref
        assert runs >= 400
        assert missed == 0
        assert over <= 0.02 * runs


@pytest.fixture(scope="module")
def stdf_references():
    """100 stdf stacks of dimension 4 with their values by quadrature: the
    stacks stdf_hr_detailed sends to mvn_cdf for 5 nodes of seeded 12-node
    clique trees, with weights in [0.2, 2] as the tail queries draw them."""
    import extreme_blocks.dist as dist
    from extreme_blocks import build_block_graph, path_sum_matrix, stdf_hr_detailed
    from gen import clique_tree_edges, random_delta
    stacks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "mvn_cdf", lambda upper, cov, weights, **options:
                   stacks.append((upper, cov, weights)) or MvnResult(0.0, 0.0, True, 0))
        for i in range(100):
            rng = np.random.default_rng([41, i])
            g = build_block_graph(*clique_tree_edges(rng, 12))
            p = path_sum_matrix(random_delta(g, rng))
            nodes = rng.choice(g.nodes, 5, replace=False)
            stdf_hr_detailed(p, dict(zip(nodes, rng.uniform(0.2, 2.0, 5))))
    out = []
    for stack in stacks:
        assert stack[0].shape == (5, 4)
        value, error = stack_by_quad(*stack)
        assert error <= 1e-8 * value
        out.append((stack, value))
    return out


def random_spd(rng, d, common=0.0):
    """A covariance with variances spread over three decades, and bounds
    with a few +-inf entries; common > 0 adds a common factor of that
    weight, which drives correlations toward +-1."""
    a = rng.standard_normal((d, d + int(rng.integers(0, 4))))
    a[:, 0] *= 1.0 + common
    scale = np.exp(rng.uniform(-3.5, 3.5, d))
    corr = a @ a.T / a.shape[1] + 1e-3 * np.eye(d)
    upper = rng.standard_normal(d) * scale
    upper[rng.random(d) < 0.1] = np.inf
    upper[rng.random(d) < 0.05] = -np.inf
    return scale[:, None] * corr * scale[None, :], upper


class TestFloatFactor:
    """_ordered_cholesky on Python floats against the numpy version it
    replaced (tests/oracle.py): the same pivots, and L to rounding."""

    @pytest.mark.parametrize("common", [0.0, 9.0], ids=["moderate", "common-factor"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 10, 16, 25])
    def test_same_pivots_and_factor(self, d, common):
        from oracle import ordered_cholesky_numpy
        rng = np.random.default_rng(100 + d)
        for _ in range(40):
            cov, upper = random_spd(rng, d, common)
            L, b = mvn._ordered_cholesky(cov, upper)
            L_ref, b_ref = ordered_cholesky_numpy(cov, upper)
            assert np.array_equal(b, b_ref)  # b is the bounds in pivot order
            assert np.array_equal(L == 0.0, L_ref == 0.0)  # lower triangular
            # the two differ by the order of their sums' roundings, which the
            # correlations' condition number amplifies: over 3,000 matrices of
            # each kind, at most 0.14 eps kappa
            sd = np.sqrt(np.diagonal(cov))
            kappa = np.linalg.cond(cov / np.outer(sd, sd))
            bound = max(1e-14, np.finfo(float).eps * kappa)
            assert np.max(np.abs(L - L_ref)) <= bound * np.max(np.abs(L_ref))

    @pytest.mark.parametrize("case", ["duplicate", "near-duplicate", "scaled", "sum", "zero",
                                      "indefinite"])
    @pytest.mark.parametrize("d", [3, 6, 25])
    def test_not_pd_on_the_same_inputs(self, case, d):
        from oracle import ordered_cholesky_numpy
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d + 2))
        if case in ("duplicate", "near-duplicate"):
            a[-1] = a[0]
        elif case == "scaled":
            a[-1] = 2.0 * a[1]
        elif case == "sum":
            a[-1] = a[0] + a[1]
        elif case == "zero":
            a[d // 2] = 0.0
        cov = a @ a.T
        if case == "near-duplicate":  # a conditional variance of about 4e-16 of its variance
            cov[-1, -1] *= 1.0 + 4e-16
        if case == "indefinite":
            cov[0, 1] = cov[1, 0] = 2.0 * math.sqrt(cov[0, 0] * cov[1, 1])
        upper = rng.standard_normal(d)
        for factor in (mvn._ordered_cholesky, ordered_cholesky_numpy):
            with pytest.raises(NotPDError):
                factor(cov, upper)


class TestSharedStartLattice:
    """A stack's start lattice is laid once; every term gets the per-shift
    sums it would get alone."""

    def test_start_sums_are_each_terms_own(self, monkeypatch):
        upper, cov = TestStackedSpec.random_terms(np.random.default_rng(8), 4, 5)
        factors = [mvn._ordered_cholesky(c, b) for c, b in zip(cov, upper)]
        z = mvn._LATTICE_Z[:4]
        shifts = np.random.default_rng(1).random((7, 4))
        start = 3000  # more than one block of at most 2**14 rows under 7 shifts
        laid = []
        real = mvn._lattice_numerators
        monkeypatch.setattr(mvn, "_lattice_numerators",
                            lambda *args: laid.append(args[1:3]) or real(*args))
        together = np.zeros((4, 7))
        mvn._add_points(factors, z, shifts, together, 0, start)
        assert laid == [(0, start)]
        for term, sums in zip(factors, together):
            alone = np.zeros((1, 7))
            mvn._add_points([term], z, shifts, alone, 0, start)
            assert np.array_equal(alone[0], sums)

    def test_start_lattice_built_once_per_stack(self, monkeypatch):
        laid = []
        real = mvn._lattice_numerators
        monkeypatch.setattr(mvn, "_lattice_numerators",
                            lambda *args: laid.append(args[1:3]) or real(*args))
        upper, cov = TestStackedSpec.random_terms(np.random.default_rng(9), 5, 4)
        res = mvn_cdf(upper, cov, rel_tol=1e-5, seed=4, randomizations=10, start_points=64)
        assert res.converged and len(laid) > 1
        assert laid[0] == (0, 64)
        # then one doubling per call, each of one term
        assert all(lo > 0 and hi == 2 * lo for lo, hi in laid[1:])
        assert res.points == 10 * (5 * 64 + sum(lo for lo, _ in laid[1:]))
