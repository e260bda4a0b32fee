"""The benchmark's own tests; they use its smoke mode (the Fig. 1 graph).

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def smoke(workload, trace, seed=3):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_result_line(workload, trace):
    detail, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert all(c["ok"] for c in detail["checks"]) and detail["checks"]
    assert detail["env"]["seed"] == 3 and detail["env"]["blas_threads"] == 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_are_a_function_of_the_seed(tmp_path):
    import workloads

    structure, tail = workloads.Structure(), workloads.TailQueries()
    a, b = (structure.setup(7, False, tmp_path) for _ in range(2))
    assert a["params"] == b["params"] and a["anchors"] == b["anchors"]
    assert len(a["nodes"]) == structure.n and a["latent"]
    assert structure.setup(8, False, tmp_path)["params"] != a["params"]
    assert tail.setup(7, False, tmp_path)["queries"] == tail.setup(7, False, tmp_path)["queries"]
    assert tail.setup(8, False, tmp_path)["queries"] != tail.setup(7, False, tmp_path)["queries"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_untraced_run_loads_no_wrappers():
    code = ("import sys; sys.argv[0] = 'run.py'; import run; "
            "run.main(['--workload', 'fit-sweep', '--seed', '1', '--seconds', '0.1', "
            "'--trace', '0', '--smoke']); print('spans' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_install_wraps_internal_calls_and_uninstall_restores():
    import extreme_blocks as eb
    from extreme_blocks import latent, model

    import spans
    import workloads

    original = model.path_sum_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert latent.path_sum_matrix is model.path_sum_matrix is eb.path_sum_matrix
        assert model.path_sum_matrix is not original
        nodes, edges, params, _ = workloads.graph_inputs(None, 8, True)
        fam = eb.validate_delta(eb.build_block_graph(nodes, edges), params)
        eb.gaussian_limit(fam, "2")
    finally:
        tracer.uninstall()
    assert model.path_sum_matrix is original and latent.path_sum_matrix is original
    names = [s[0] for s in tracer.spans]
    assert names.count("model.path_sum_matrix") == 1  # inside gaussian_limit
    child = names.index("model.path_sum_matrix")
    assert tracer.spans[child][3] == names.index("model.gaussian_limit")
    assert tracer.counters["graph.path_calls"] == 0


def test_layer_metrics_self_time_and_unaccounted():
    import spans

    tracer = spans.Tracer()
    tracer.spans = [
        ["model.gaussian_limit", 0.0, 3.0, -1],
        ["model.path_sum_matrix", 0.5, 2.5, 0],
        ["dist.stdf_hr_detailed", 4.0, 6.0, -1],
        ["mvn.mvn_cdf", 4.5, 5.0, 2],
        ["mvn.mvn_cdf", 5.0, 5.5, 2],
    ]
    m = spans.layer_metrics(tracer, wall_s=7.0)
    assert m["model.gaussian_limit_self_s"] == pytest.approx(1.0)
    assert m["model.path_sums_s"] == pytest.approx(2.0)
    assert m["dist.self_s"] == pytest.approx(1.0)
    assert m["mvn.calls"] == 2 and m["mvn.busy_s"] == pytest.approx(1.0)
    assert m["trace.unaccounted_s"] == pytest.approx(2.0)
    assert set(m) | {"trace.overhead_ratio", "tol_miss_ratio",
                     "fit_max_rel_err"} == set(spans.PER_LAYER)


def test_pass_time_takes_each_operations_fastest_repetition():
    import run

    # three passes of two operations; the second pass ran in a slow phase
    rows = [[1.0, 2.2], [1.5, 3.0], [1.1, 2.0]]
    walls = [3.3, 4.6, 3.2]
    assert run.op_best(rows) == [1.0, 2.0]
    assert run.pass_time(walls, rows) == pytest.approx(1.0 + 2.0 + 0.1)


def _record(workload, seed, value, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    return json.dumps({"record": "perfbench", "workload": workload, "seed": seed, "trace": 0,
                       "result": {"failed": failed, "metrics": metrics}})


@pytest.mark.parametrize("change, expect", [
    ([0.70, 0.71, 0.72, 0.70, 0.71, 0.69, 0.70, 0.72, 0.71, 0.70], "improved"),
    ([1.30, 1.31, 1.29, 1.32, 1.30, 1.31, 1.30, 1.29, 1.33, 1.30], "regressed"),
    ([1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 1.00, 0.99, 1.01, 1.00], "no worse"),
    ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1], "unresolved"),
])
def test_compare_verdicts(tmp_path, change, expect):
    import compare

    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    for side, values in (("a", parent), ("b", change)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "runs.txt").write_text(
            "\n".join(_record("tail-queries", s, v) for s, v in enumerate(values)) + "\n")
    rows = compare.compare(compare.load_records(tmp_path / "a"),
                           compare.load_records(tmp_path / "b"), BENCH)
    assert {r["verdict"] for r in rows} == {expect}
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
