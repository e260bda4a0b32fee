import json
import math
import subprocess
import sys

import numpy as np
import pytest

from extreme_blocks import io as ebio
from extreme_blocks import std_normal_cdf
from extreme_blocks.cli import run
from conftest import FIG1_DELTA, FIG1_EDGES, FIG1_NODES, FIG2_DELTA, FIG2_EDGES, FIG2_NODES, FIG4_EDGES, FIG4_NODES


@pytest.fixture()
def fig1_files(tmp_path):
    gpath = tmp_path / "fig1.json"
    ppath = tmp_path / "fig1_params.json"
    ebio.dump_graph_json(gpath, FIG1_NODES, FIG1_EDGES)
    ebio.dump_params_json(ppath, FIG1_DELTA)
    return gpath, ppath


@pytest.fixture()
def fig2_files(tmp_path):
    gpath = tmp_path / "fig2.json"
    ppath = tmp_path / "fig2_params.json"
    ebio.dump_graph_json(gpath, FIG2_NODES, FIG2_EDGES)
    ebio.dump_params_json(ppath, FIG2_DELTA)
    return gpath, ppath


class TestValidate:
    def test_valid_graph_exit_zero(self, fig1_files, capsys):
        gpath, ppath = fig1_files
        assert run(["validate", "--graph", str(gpath), "--params", str(ppath)]) == 0
        out = capsys.readouterr().out
        assert "cliques (4):" in out

    def test_broken_graph_exit_two_with_diagnostic(self, tmp_path, capsys):
        gpath = tmp_path / "broken.json"
        edges = [e for e in FIG1_EDGES if e != ("2", "6")]
        ebio.dump_graph_json(gpath, FIG1_NODES, edges)
        assert run(["validate", "--graph", str(gpath)]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "NotBlockGraphError"
        assert diag["block"] == ["2", "4", "5", "6"]

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        gpath = tmp_path / "bad.json"
        gpath.write_text("{not json")
        assert run(["validate", "--graph", str(gpath)]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert run(["validate", "--graph", str(tmp_path / "absent.json")]) == 1

    def test_not_cnd_exit_two(self, tmp_path, capsys):
        gpath = tmp_path / "tri.json"
        ppath = tmp_path / "tri_params.json"
        ebio.dump_graph_json(gpath, ["1", "2", "3"],
                             [("1", "2"), ("1", "3"), ("2", "3")])
        ebio.dump_params_json(ppath, {("1", "2"): 1.0, ("1", "3"): 1.0,
                                      ("2", "3"): 5.0})
        assert run(["validate", "--graph", str(gpath), "--params", str(ppath)]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "NotCNDError"

    def test_usage_error_exit_one(self, capsys):
        assert run(["validate"]) == 1

    def test_json_format(self, fig1_files, capsys):
        gpath, _ = fig1_files
        assert run(["validate", "--graph", str(gpath), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["separators"] == ["2", "6"]


class TestParams:
    def test_outputs_and_identities(self, fig2_files, tmp_path, capsys):
        gpath, ppath = fig2_files
        out = tmp_path / "out"
        assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "1", "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["passed"] is True

        nodes, p = ebio.read_matrix_csv(out / "P.csv")
        snodes, sigma = ebio.read_matrix_csv(out / "sigma_1.csv")
        assert snodes == tuple(v for v in nodes if v != "1")
        # diagonal equals 4 * (P row of the anchor)
        prow = p[nodes.index("1"), [nodes.index(v) for v in snodes]]
        assert np.allclose(np.diag(sigma), 4 * prow)
        # row for the node adjacent to the anchor is constant
        i2 = snodes.index("2")
        assert np.allclose(sigma[i2, :], 4 * FIG2_DELTA[("1", "2")])

    def test_reemission_byte_identical(self, fig2_files, tmp_path):
        gpath, ppath = fig2_files
        out = tmp_path / "out"
        run(["params", "--graph", str(gpath), "--params", str(ppath),
             "--anchor", "1", "--out", str(out)])
        raw = (out / "P.csv").read_bytes()
        nodes, values = ebio.read_matrix_csv(out / "P.csv")
        ebio.write_matrix_csv(out / "P2.csv", nodes, values)
        assert (out / "P2.csv").read_bytes() == raw

    def test_path_sums_filled_once(self, fig2_files, tmp_path, monkeypatch):
        # P and the anchored limit come from one fill
        import extreme_blocks.model as model
        calls = []
        real = model._path_fill

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(model, "_path_fill", counted)
        gpath, ppath = fig2_files
        assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "1", "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_unknown_anchor_exit_two(self, fig2_files, tmp_path):
        gpath, ppath = fig2_files
        assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "zz", "--out", str(tmp_path / "x")]) == 2


class TestSimulate:
    def test_deterministic_across_runs(self, fig1_files, tmp_path, capsys):
        gpath, ppath = fig1_files
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                        "--anchor", "7", "--n", "1000", "--seed", "42",
                        "--out", str(out)]) == 0
        name = "samples_field_u7_n1000_seed42.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_required(self, fig1_files, tmp_path):
        gpath, ppath = fig1_files
        assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "7", "--n", "10", "--out", str(tmp_path)]) == 1

    def test_binary_format(self, fig1_files, tmp_path, capsys):
        gpath, ppath = fig1_files
        assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "7", "--n", "50", "--seed", "1", "--law", "pareto",
                    "--out", str(tmp_path), "--format", "binary"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        mat = ebio.read_matrix_binary(rec["written"])
        assert mat.shape == (50, 8)
        assert mat[:, 7 - 0].min() > 0

    def test_json_round_trips(self, fig1_files, tmp_path, capsys):
        gpath, ppath = fig1_files
        assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "7", "--n", "5", "--seed", "3",
                    "--out", str(tmp_path), "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        doc = json.loads(open(rec["written"]).read())
        assert doc["seed"] == 3
        assert np.array(doc["matrix"]).shape == (5, 8)


@pytest.fixture()
def first_stdf_short(monkeypatch):
    """Marks the MVN call of the first stdf a query evaluates as
    unconverged (one call per stdf); lists every call's result."""
    import dataclasses
    import extreme_blocks.dist as dist
    real = dist.mvn_cdf
    stdfs = []

    def first_short(spec, seed=0):
        res = real(spec, seed=seed)
        stdfs.append(res)
        return dataclasses.replace(res, converged=False) if len(stdfs) == 1 else res

    monkeypatch.setattr(dist, "mvn_cdf", first_short)
    return stdfs


class TestEvaluations:
    def test_stdf_single_edge(self, tmp_path, capsys):
        gpath = tmp_path / "e.json"
        ppath = tmp_path / "e_params.json"
        ebio.dump_graph_json(gpath, ["a", "b"], [("a", "b")])
        ebio.dump_params_json(ppath, {("a", "b"): 1.44})
        assert run(["stdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "a,b"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(2 * std_normal_cdf(math.sqrt(1.44)),
                                             abs=1e-12)
        assert rec["seed"] == 0
        assert rec["converged"] is True

    def test_stdf_record_flags_an_unconverged_term(self, fig1_files, capsys, first_stdf_short):
        gpath, ppath = fig1_files
        assert run(["stdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "0,3,4", "--tol", "1e-3"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert len(first_stdf_short) == 1
        assert rec["converged"] is False

    def test_pareto_cdf_record(self, tmp_path, capsys):
        gpath = tmp_path / "e.json"
        ppath = tmp_path / "e_params.json"
        ebio.dump_graph_json(gpath, ["a", "b"], [("a", "b")])
        ebio.dump_params_json(ppath, {("a", "b"): 1.0})
        assert run(["pareto-cdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "a,b", "--point", "2,2"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(0.5, abs=1e-9)
        # all three stdf terms are two-node closed forms
        assert rec["error_estimate"] == 0.0
        assert rec["converged"] is True

    def test_ec_record(self, fig2_files, capsys):
        gpath, ppath = fig2_files
        assert run(["ec", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "1,2"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == pytest.approx(
            2 * std_normal_cdf(math.sqrt(FIG2_DELTA[("1", "2")])), abs=1e-10)
        assert rec["error_estimate"] == 0.0
        assert rec["converged"] is True

    @pytest.mark.parametrize("command, extra", [
        ("ec", []),
        ("pareto-cdf", ["--point", "2,0.5,3"]),
    ])
    def test_record_flags_an_unconverged_term(self, fig1_files, capsys, first_stdf_short,
                                              command, extra):
        gpath, ppath = fig1_files
        assert run([command, "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "0,3,4", "--tol", "1e-3", *extra]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        # pareto-cdf evaluates three stdfs, each one MVN call
        assert len(first_stdf_short) == (1 if command == "ec" else 3)
        assert rec["converged"] is False
        assert 0.0 < rec["error_estimate"] <= 1e-3 * (3 if command == "ec" else 10)


    def test_stdf_over_the_dimension_cap_exits_three(self, tmp_path, capsys):
        # 27 nodes give anchored MVN terms of dimension 26; the path graph's
        # covariances are fine, only the lattice rule is capped
        nodes = [f"v{i}" for i in range(27)]
        gpath = tmp_path / "path.json"
        ppath = tmp_path / "path_params.json"
        ebio.dump_graph_json(gpath, nodes, list(zip(nodes, nodes[1:])))
        ebio.dump_params_json(ppath, {e: 0.5 for e in zip(nodes, nodes[1:])})
        assert run(["stdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", ",".join(nodes)]) == 3
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "DimensionCapError"
        assert "cap of 25" in diag["message"]


class TestFitCommand:
    def test_sweep_outputs(self, fig2_files, tmp_path, capsys):
        gpath, ppath = fig2_files
        # raw-looking data: simulated conditioned sample plus noise floor
        from extreme_blocks import build_block_graph, sample_pareto_conditioned, validate_delta
        g = build_block_graph(FIG2_NODES, FIG2_EDGES)
        fam = validate_delta(g, FIG2_DELTA)
        rng = np.random.default_rng(0)
        y = sample_pareto_conditioned(fam, "1", 4000, 5)
        data = y + rng.random(y.shape)
        dpath = tmp_path / "data.csv"
        ebio.write_samples_csv(dpath, g.nodes, data)
        out = tmp_path / "fit"
        assert run(["fit", "--graph", str(gpath), "--data", str(dpath),
                    "--k", "200,400", "--out", str(out)]) == 0
        sweep = (out / "ksweep.csv").read_text().splitlines()
        assert sweep[0].startswith("k,1-2,")
        assert len(sweep) == 3
        doc = json.loads((out / "fit.json").read_text())
        assert [r["k"] for r in doc["results"]] == [200, 400]
        back = ebio.load_params_json(out / "delta2_k200.json")
        assert set(back) == set(FIG2_DELTA)


class TestRecoverCommands:
    def test_recover_round_trip(self, tmp_path, capsys):
        from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix, validate_delta
        from gen import random_delta
        gpath = tmp_path / "fig4.json"
        ebio.dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
        g = build_block_graph(FIG4_NODES, FIG4_EDGES)
        fam = random_delta(g, np.random.default_rng(21), lo=0.4, hi=2.0)
        mask = ObservationMask.from_latent(g, ["3"])
        p_obs = path_sum_matrix(fam).restrict(mask.observed)
        mpath = tmp_path / "pobs.csv"
        ebio.write_matrix_csv(mpath, p_obs.nodes, p_obs.values)
        out = tmp_path / "rec"
        assert run(["recover", "--graph", str(gpath), "--latent", "3",
                    "--pathsums", str(mpath), "--out", str(out)]) == 0
        back = ebio.load_params_json(out / "delta2_recovered.json")
        for e, v in fam.edge_params.items():
            assert back[e] == pytest.approx(v, abs=1e-10)

    def test_recover_degree_two_exit_two(self, fig1_files, tmp_path, capsys):
        gpath, _ = fig1_files
        mpath = tmp_path / "pobs.csv"
        mpath.write_text(",\n")  # never read; identifiability fails first
        assert run(["recover", "--graph", str(gpath), "--latent", "6",
                    "--pathsums", str(mpath), "--out", str(tmp_path)]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "NotIdentifiableError"
        assert diag["offending"] == ["6"]

    def test_check_identifiable_exits(self, tmp_path, capsys):
        gpath = tmp_path / "fig4.json"
        ebio.dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
        assert run(["check-identifiable", "--graph", str(gpath), "--latent", "3"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["identifiable"] is True
        assert run(["check-identifiable", "--graph", str(gpath), "--latent", "1"]) == 2
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["offending"] == ["1"]

    def test_mask_json_file(self, tmp_path, capsys):
        gpath = tmp_path / "fig4.json"
        ebio.dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
        mask = tmp_path / "mask.json"
        mask.write_text('{"latent": ["3"]}')
        assert run(["check-identifiable", "--graph", str(gpath),
                    "--latent", str(mask)]) == 0


def test_console_entry_point(fig1_files):
    gpath, ppath = fig1_files
    proc = subprocess.run(
        [sys.executable, "-m", "extreme_blocks.cli", "validate",
         "--graph", str(gpath), "--params", str(ppath)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cliques (4):" in proc.stdout


def test_params_json_round_trips_through_parser(fig2_files, tmp_path):
    gpath, ppath = fig2_files
    out = tmp_path / "json_out"
    assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                "--anchor", "1", "--out", str(out), "--format", "json"]) == 0
    nodes, sigma = ebio.load_matrix_json(out / "sigma_1.json")
    assert nodes == ("2", "3", "4", "5", "6")
    assert np.allclose(np.diag(sigma) > 0, True)
    _, mu = ebio.load_matrix_json(out / "mu_1.json")
    assert mu.shape == (5,)


def test_recover_json_format(tmp_path):
    from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix
    from gen import random_delta
    gpath = tmp_path / "fig4.json"
    ebio.dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
    g = build_block_graph(FIG4_NODES, FIG4_EDGES)
    fam = random_delta(g, np.random.default_rng(33), lo=0.4, hi=2.0)
    mask = ObservationMask.from_latent(g, ["3"])
    p_obs = path_sum_matrix(fam).restrict(mask.observed)
    mpath = tmp_path / "pobs.csv"
    ebio.write_matrix_csv(mpath, p_obs.nodes, p_obs.values)
    out = tmp_path / "rec"
    assert run(["recover", "--graph", str(gpath), "--latent", "3",
                "--pathsums", str(mpath), "--out", str(out),
                "--format", "json"]) == 0
    nodes, values = ebio.load_matrix_json(out / "P_recovered.json")
    assert nodes == tuple(FIG4_NODES)
    full = path_sum_matrix(fam)
    assert np.abs(values - full.values).max() <= 1e-10


def test_every_command_accepts_format_json(fig2_files, tmp_path, capsys):
    gpath, ppath = fig2_files
    assert run(["stdf", "--graph", str(gpath), "--params", str(ppath),
                "--subset", "1,2", "--format", "json"]) == 0
    assert run(["ec", "--graph", str(gpath), "--params", str(ppath),
                "--subset", "1,2", "--format", "json"]) == 0
    assert run(["pareto-cdf", "--graph", str(gpath), "--params", str(ppath),
                "--subset", "1,2", "--point", "2,3", "--format", "json"]) == 0
    gpath4 = tmp_path / "fig4.json"
    ebio.dump_graph_json(gpath4, FIG4_NODES, FIG4_EDGES)
    assert run(["check-identifiable", "--graph", str(gpath4), "--latent", "3",
                "--format", "json"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        json.loads(line)  # every record parses as JSON


def test_recover_inconsistent_input_exit_three(tmp_path, capsys):
    from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix
    from gen import random_delta
    gpath = tmp_path / "fig4.json"
    ebio.dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
    g = build_block_graph(FIG4_NODES, FIG4_EDGES)
    fam = random_delta(g, np.random.default_rng(55), lo=0.4, hi=2.0)
    mask = ObservationMask.from_latent(g, ["3"])
    p_obs = path_sum_matrix(fam).restrict(mask.observed)
    values = p_obs.values.copy()
    i, j = p_obs.index("4"), p_obs.index("6")
    values[i, j] += 0.2
    values[j, i] += 0.2
    mpath = tmp_path / "bad.csv"
    ebio.write_matrix_csv(mpath, p_obs.nodes, values)
    assert run(["recover", "--graph", str(gpath), "--latent", "3",
                "--pathsums", str(mpath), "--out", str(tmp_path / "r")]) == 3
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "InconsistentInputError"


def test_recover_non_finite_input_exit_one(tmp_path, capsys):
    from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix
    from gen import random_delta
    gpath = tmp_path / "fig4.json"
    ebio.dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
    g = build_block_graph(FIG4_NODES, FIG4_EDGES)
    fam = random_delta(g, np.random.default_rng(55), lo=0.4, hi=2.0)
    mask = ObservationMask.from_latent(g, ["3"])
    p_obs = path_sum_matrix(fam).restrict(mask.observed)
    values = p_obs.values.copy()
    i, j = p_obs.index("4"), p_obs.index("5")
    values[i, j] = values[j, i] = np.inf
    mpath = tmp_path / "inf.csv"
    ebio.write_matrix_csv(mpath, p_obs.nodes, values)
    assert run(["recover", "--graph", str(gpath), "--latent", "3",
                "--pathsums", str(mpath), "--out", str(tmp_path / "r")]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and "finite" in diag["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9", "abc"])
def test_tol_must_be_finite_and_positive(fig2_files, tmp_path, capsys, tol):
    gpath, ppath = fig2_files
    model = ["--graph", str(gpath), "--params", str(ppath)]
    commands = [
        ["params", *model, "--anchor", "1", "--out", str(tmp_path / "p")],
        ["stdf", *model, "--subset", "1,2"],
        ["pareto-cdf", *model, "--subset", "1,2", "--point", "2,3"],
        ["ec", *model, "--subset", "1,2"],
        ["recover", "--graph", str(gpath), "--latent", "2", "--pathsums", str(tmp_path / "m.csv"),
         "--out", str(tmp_path / "r")],
    ]
    for argv in commands:
        assert run([*argv, f"--tol={tol}"]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "UsageError" and "--tol" in diag["message"]
    assert not (tmp_path / "p").exists()


def test_threads_default_from_environment(monkeypatch, fig1_files, tmp_path):
    from extreme_blocks.cli import build_parser
    monkeypatch.setenv("EXTREME_BLOCKS_THREADS", "3")
    gpath, ppath = fig1_files
    args = build_parser().parse_args(
        ["simulate", "--graph", str(gpath), "--params", str(ppath),
         "--anchor", "7", "--n", "10", "--seed", "1", "--out", str(tmp_path)])
    assert args.threads == 3


@pytest.mark.parametrize("flag, env", [("-3", None), ("0", None), ("1.5", None), ("abc", None),
                                       (None, "abc"), (None, "-3"), (None, "0")])
def test_threads_below_one_or_not_integer_rejected(monkeypatch, fig1_files, tmp_path, capsys,
                                                   flag, env):
    if env is None:
        monkeypatch.delenv("EXTREME_BLOCKS_THREADS", raising=False)
    else:
        monkeypatch.setenv("EXTREME_BLOCKS_THREADS", env)
    gpath, ppath = fig1_files
    argv = ["simulate", "--graph", str(gpath), "--params", str(ppath), "--anchor", "7",
            "--n", "10", "--seed", "1", "--out", str(tmp_path / "s")]
    if flag is not None:
        argv.append(f"--threads={flag}")
    assert run(argv) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "UsageError" and "--threads" in diag["message"]
    assert not (tmp_path / "s").exists()


def test_params_builds_clique_precisions_once(monkeypatch, fig2_files, tmp_path, capsys):
    import extreme_blocks.model as model
    calls = []
    real = model._clique_precisions

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(model, "_clique_precisions", counted)
    gpath, ppath = fig2_files
    assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                "--anchor", "4", "--out", str(tmp_path / "p")]) == 0
    assert len(calls) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["passed"] is True
    assert 0.0 <= record["graph_check_max_violation"] <= record["tolerance"] < 1e-9


def test_params_tol_overrides_graph_check_tolerance(fig2_files, tmp_path, capsys):
    gpath, ppath = fig2_files
    assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                "--anchor", "4", "--out", str(tmp_path / "p"), "--tol", "1e-300"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["tolerance"] == 1e-300
    assert record["passed"] is (record["graph_check_max_violation"] <= 1e-300)


def test_validate_rejects_boolean_delta2(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    ppath = tmp_path / "p.json"
    ebio.dump_graph_json(gpath, ["a", "b"], [("a", "b")])
    ppath.write_text('{"edges": [{"a": "a", "b": "b", "delta2": true}]}')
    assert run(["validate", "--graph", str(gpath), "--params", str(ppath)]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and "JSON number" in diag["message"]
