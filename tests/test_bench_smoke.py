"""The benchmark's workloads run end to end and pass their own checks.

Each workload runs once on the paper's Fig. 1 graph (--smoke), which
exercises its checks: path sums against explicit paths, Sigma_u Theta_u
= I, latent recovery and thread independence of the field for the
structural workload, closed forms for the tail queries, the fit error for
the fit sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})  # leave perfbench/ untouched
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout.strip().splitlines()[-2][-2000:]
    return result


@pytest.mark.parametrize("workload", ["structure-n301", "tail-queries", "fit-sweep"])
def test_workload_smoke(workload):
    run_smoke(workload, 0)


def test_traced_tail_queries_see_every_mvn_term():
    # the trace wraps mvn.mvn_cdf where dist looks it up; a query path
    # that bypassed it would leave the MVN metrics at 0
    metrics = run_smoke("tail-queries", 1)["metrics"]
    for name in ("mvn.calls", "mvn.points", "dist.stdf_calls"):
        assert metrics[name]["value"] > 0, name
    # every stdf of the workload has at least two positive weights, so
    # each makes exactly one mvn_cdf call for all of its terms
    assert metrics["mvn.calls"]["value"] == metrics["dist.stdf_calls"]["value"]
    # no query of the workload may run out of its lattice budget
    assert metrics["mvn.unconverged"]["value"] == 0


@pytest.mark.parametrize("workload, layers", [
    ("structure-n301", ("graph.build_s", "model.path_sums_s", "model.precision_s", "sim.field_s",
                        "latent.recover_s")),
    ("fit-sweep", ("fit.fit_s", "fit.nnls_s", "model.path_sums_s")),
])
def test_traced_workload_sees_its_layers(workload, layers):
    # the trace wraps functions by name and binds some by argument name;
    # a renamed function or argument would leave its layer at 0 or fail
    metrics = run_smoke(workload, 1)["metrics"]
    for name in layers:
        assert metrics[name]["value"] > 0, name
