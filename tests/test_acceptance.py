"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or in
the captured output) and enforces the stated numeric tolerance. Wall-time
budgets are asserted with a generous safety factor for the
sub-millisecond structural checks, and as stated for the larger blocks.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kurtosis, skew

import extreme_blocks as eb
from conftest import (
    FIG1_DELTA,
    FIG1_EDGES,
    FIG1_NODES,
    FIG2_DELTA,
    FIG2_EDGES,
    FIG2_NODES,
    FIG4_EDGES,
    FIG4_NODES,
)
from gen import random_block_graph, random_delta
from oracle import check_cnd, mc_stdf, nonidentifiable_witness

_results = []


def report(num, name, ok, elapsed, budget):
    line = (f"ACCEPTANCE {num:02d} {name:<28s} "
            f"{'PASS' if ok else 'FAIL'}  ({elapsed * 1000:.1f} ms, budget {budget})")
    print(line)
    _results.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def random_instances():
    rng = np.random.default_rng(20260809)
    out = []
    for _ in range(200):
        g = random_block_graph(rng, max_nodes=15)
        out.append((g, random_delta(g, rng)))
    return out


def test_criterion_01_structural_fidelity():
    t0 = time.perf_counter()
    g = eb.build_block_graph(FIG1_NODES, FIG1_EDGES)
    path = g.shortest_path("7", "0")
    elapsed = time.perf_counter() - t0
    ok = ([sorted(c) for c in g.cliques]
          == [["0", "1", "2"], ["2", "3"], ["2", "4", "5", "6"], ["6", "7"]]
          and sorted(g.separators) == ["2", "6"]
          and path == (("7", "6"), ("6", "2"), ("2", "0")))
    report(1, "structural-fidelity", ok and elapsed < 0.05, elapsed, "<1ms")


def test_criterion_02_covariance_formulas():
    g = eb.build_block_graph(FIG2_NODES, FIG2_EDGES)
    fam = eb.validate_delta(g, FIG2_DELTA)
    d = FIG2_DELTA
    t0 = time.perf_counter()
    p = eb.path_sum_matrix(fam)
    lim = eb.gaussian_limit(fam, "1")
    elapsed = time.perf_counter() - t0

    i2 = lim.nodes.index("2")
    row2_ok = all(
        abs(lim.cov[i2, lim.nodes.index(v)] - 4 * d[("1", "2")]) <= 1e-12
        for v in ("3", "4", "5", "6"))
    expect_56 = 4 * (d[("1", "2")] + d[("2", "4")]
                     + 0.5 * (d[("4", "5")] + d[("4", "6")] - d[("5", "6")]))
    e56_ok = abs(lim.cov[lim.nodes.index("5"), lim.nodes.index("6")] - expect_56) <= 1e-12
    diag_ok = all(
        abs(lim.cov[k, k] - 4 * p.entry("1", v)) <= 1e-12
        and abs(lim.mean[k] + 2 * p.entry("1", v)) <= 1e-12
        for k, v in enumerate(lim.nodes))
    report(2, "covariance-formulas", row2_ok and e56_ok and diag_ok and elapsed < 0.05,
           elapsed, "<1ms")


def test_criterion_03_extremal_zero_pattern(random_instances):
    # Theta_u carries the graph's zero pattern; the check measures how far
    # it is from inverting the Sigma_u that P gives, at every anchor
    t0 = time.perf_counter()
    all_passed, worst_inv = True, 0.0
    for g, fam in random_instances:
        for u in g.nodes:
            check = eb.extremal_graph_check(eb.gaussian_limit(fam, u), eb.precision_matrix(fam, u))
            all_passed = all_passed and check.passed
            worst_inv = max(worst_inv, check.max_violation)
    elapsed = time.perf_counter() - t0
    ok = all_passed and worst_inv <= 1e-10 and elapsed < 5.0
    report(3, "precision-zero-pattern", ok, elapsed, "<5s")


def test_criterion_04_path_sums_cnd(random_instances):
    t0 = time.perf_counter()
    ok = all(check_cnd(eb.path_sum_matrix(fam).values) for _, fam in random_instances)
    elapsed = time.perf_counter() - t0
    report(4, "path-sum-matrix-cnd", ok and elapsed < 1.0, elapsed, "<1s")


def test_criterion_05_limit_field_moments():
    g = eb.build_block_graph(FIG1_NODES, FIG1_EDGES)
    fam = eb.validate_delta(g, FIG1_DELTA)
    n = 100000
    t0 = time.perf_counter()
    fs = eb.sample_limit_field(fam, "7", n, 2026)
    lim = eb.gaussian_limit(fam, "7")
    cols = [k for k, v in enumerate(fs.nodes) if v != "7"]
    lna = np.log(fs.matrix[:, cols])
    var = np.diag(lim.cov)
    mean_ok = np.all(np.abs(lna.mean(axis=0) - lim.mean) <= 4 * np.sqrt(var / n))
    cov_hat = np.cov(lna, rowvar=False)
    cov_se = np.sqrt((np.outer(var, var) + lim.cov ** 2) / n)
    cov_ok = np.all(np.abs(cov_hat - lim.cov) <= 4 * cov_se)
    shape_ok = (np.abs(skew(lna, axis=0)).max() <= 0.1
                and np.abs(kurtosis(lna, axis=0)).max() <= 0.1)
    elapsed = time.perf_counter() - t0
    report(5, "limit-field-monte-carlo", bool(mean_ok and cov_ok and shape_ok)
           and elapsed < 30.0, elapsed, "<30s")


def test_criterion_06_stdf_consistency():
    g = eb.build_block_graph(FIG2_NODES, FIG2_EDGES)
    fam = eb.validate_delta(g, FIG2_DELTA)
    p = eb.path_sum_matrix(fam)
    rng = np.random.default_rng(60)
    t0 = time.perf_counter()
    agree = True
    for j in range(10):
        w = rng.uniform(0.2, 2.0, size=6)
        est, se = mc_stdf(fam, "4", w, 200000, 777000 + j)
        exact, qerr = eb.stdf_hr_detailed(p, w, rel_tol=2e-4, seed=1)
        agree = agree and abs(est - exact) <= 3 * se + qerr
        agree = agree and (w.max() <= exact <= w.sum())
        for t in (0.1, 2.0, 10.0):
            scaled = eb.stdf_hr_detailed(p, t * w, rel_tol=2e-4, seed=1).value
            agree = agree and abs(scaled - t * exact) <= 1e-8 * t * exact
    elapsed = time.perf_counter() - t0
    report(6, "stdf-mc-vs-closed-form", agree and elapsed < 60.0, elapsed, "<60s")


def test_criterion_07_bivariate_closed_form():
    grid = [0.01, 0.25, 1.0, 4.0, 25.0]
    g = eb.build_block_graph(["a", "b"], [("a", "b")])
    families = [eb.validate_delta(g, {("a", "b"): d2}) for d2 in grid]
    psums = [eb.path_sum_matrix(f) for f in families]
    t0 = time.perf_counter()
    vals = [eb.stdf_hr_detailed(p, [1.0, 1.0]).value for p in psums]
    elapsed = time.perf_counter() - t0
    exact_ok = all(abs(v - 2 * eb.std_normal_cdf(math.sqrt(d2))) <= 1e-10
                   for v, d2 in zip(vals, grid))
    mono_ok = all(a < b for a, b in zip(vals, vals[1:]))
    ends_ok = vals[0] - 1.0 < 0.09 and 2.0 - vals[-1] < 1e-6
    report(7, "bivariate-edge-stdf", exact_ok and mono_ok and ends_ok
           and elapsed < 0.05, elapsed, "<1ms")


def test_criterion_08_identifiability_round_trip():
    g = eb.build_block_graph(FIG4_NODES, FIG4_EDGES)
    rng = np.random.default_rng(8)
    mask3 = eb.ObservationMask.from_latent(g, ["3"])
    mask1 = eb.ObservationMask.from_latent(g, ["1"])
    t0 = time.perf_counter()
    worst_p, worst_d = 0.0, 0.0
    for _ in range(100):
        fam = random_delta(g, rng, lo=0.4, hi=2.0)
        p = eb.path_sum_matrix(fam)
        rec = eb.recover_path_sums(g, p.restrict(mask3.observed), mask3)
        worst_p = max(worst_p, float(np.abs(rec.values - p.values).max()))
        rec_fam = eb.recover_edge_params(rec, g)
        worst_d = max(worst_d, max(abs(rec_fam.edge_params[e] - fam.edge_params[e])
                                   for e in fam.edge_params))
    identifiable, offending = eb.check_identifiable(g, mask1)
    fam = random_delta(g, rng, lo=0.4, hi=2.0)
    witness = nonidentifiable_witness(fam, "1", 0.25)
    pu_a = eb.path_sum_matrix(fam).restrict(mask1.observed).values
    pu_b = eb.path_sum_matrix(witness).restrict(mask1.observed).values
    differs = any(abs(witness.edge_params[e] - fam.edge_params[e]) > 1e-3
                  for e in fam.edge_params if "1" in e)
    elapsed = time.perf_counter() - t0
    ok = (worst_p <= 1e-10 and worst_d <= 1e-10
          and not identifiable and offending == ("1",)
          and np.abs(pu_a - pu_b).max() <= 1e-12 and differs
          and elapsed < 1.0)
    report(8, "latent-recovery-round-trip", ok, elapsed, "<1s")


def test_criterion_09_estimation_stability():
    g = eb.build_block_graph(FIG2_NODES, FIG2_EDGES)
    d_true = {("1", "2"): 0.9, ("2", "3"): 0.5, ("2", "4"): 0.7,
              ("3", "4"): 0.55, ("4", "5"): 0.8, ("4", "6"): 0.6,
              ("5", "6"): 1.1}
    fam = eb.validate_delta(g, d_true)
    truth = fam.as_vector()
    t0 = time.perf_counter()
    hits = 0
    for seed in range(1, 21):
        spacings = {}
        for j, u in enumerate(g.nodes):
            y = eb.sample_pareto_conditioned(fam, u, 10000, seed * 100 + j)
            iu = g.nodes.index(u)
            cols = [i for i in range(len(g.nodes)) if i != iu]
            spacings[u] = np.log(y[:, cols]) - np.log(y[:, [iu]])
        est = eb.fit_delta(g, spacings).as_vector(g)
        if np.all(np.abs(est - truth) / truth <= 0.10):
            hits += 1
    elapsed = time.perf_counter() - t0
    report(9, "estimation-stability", hits >= 18 and elapsed < 120.0, elapsed,
           "<2min")


def test_criterion_10_mvn_oracle():
    t0 = time.perf_counter()
    arcsine_ok = True
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        res = eb.mvn_cdf(np.zeros(2), cov, rel_tol=1e-6)
        exact = 0.25 + math.asin(rho) / (2 * math.pi)
        arcsine_ok = arcsine_ok and abs(res.value - exact) <= 1e-6 * exact
    one_d = eb.mvn_cdf(np.array([0.37]), np.array([[2.25]]))
    dim1_ok = one_d.value == eb.std_normal_cdf(0.37 / 1.5)
    cov = np.diag([1.0, 4.0, 9.0])
    upper = np.array([0.5, -1.0, 2.0])
    res = eb.mvn_cdf(upper, cov)
    prod = (eb.std_normal_cdf(0.5) * eb.std_normal_cdf(-0.5)
            * eb.std_normal_cdf(2.0 / 3.0))
    indep_ok = abs(res.value - prod) <= 1e-10
    elapsed = time.perf_counter() - t0
    report(10, "mvn-quadrature-oracle", arcsine_ok and dim1_ok and indep_ok
           and elapsed < 5.0, elapsed, "<5s")
