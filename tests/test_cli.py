import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from extreme_blocks import io as ebio
from extreme_blocks import (
    SampleSet,
    build_block_graph,
    extremal_coefficient_detailed,
    fit_delta,
    log_spacings,
    pareto_cdf_detailed,
    path_sum_matrix,
    rank_transform,
    sample_pareto_conditioned,
    std_normal_cdf,
    stdf_hr_detailed,
    validate_delta,
)
from extreme_blocks.cli import build_parser, run
from conftest import FIG1_DELTA, FIG1_EDGES, FIG1_NODES, FIG2_DELTA, FIG2_EDGES, FIG2_NODES, FIG4_EDGES, FIG4_NODES
from jsonfiles import dump_graph_json


@pytest.fixture()
def fig1_files(tmp_path):
    gpath = tmp_path / "fig1.json"
    ppath = tmp_path / "fig1_params.json"
    dump_graph_json(gpath, FIG1_NODES, FIG1_EDGES)
    ebio.dump_params_json(ppath, FIG1_DELTA)
    return gpath, ppath


@pytest.fixture()
def fig2_files(tmp_path):
    gpath = tmp_path / "fig2.json"
    ppath = tmp_path / "fig2_params.json"
    dump_graph_json(gpath, FIG2_NODES, FIG2_EDGES)
    ebio.dump_params_json(ppath, FIG2_DELTA)
    return gpath, ppath


# validate's record of Fig. 1 without parameters
FIG1_REPORT = {
    "nodes": ["0", "1", "2", "3", "4", "5", "6", "7"],
    "cliques": [["0", "1", "2"], ["2", "3"], ["2", "4", "5", "6"], ["6", "7"]],
    "separators": ["2", "6"],
}


class TestValidate:
    def test_valid_graph_exit_zero(self, fig1_files, capsys):
        gpath, ppath = fig1_files
        assert run(["validate", "--graph", str(gpath), "--params", str(ppath)]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report == {**FIG1_REPORT, "cnd": {"0-1-2": "ok", "2-3": "ok", "2-4-5-6": "ok", "6-7": "ok"}}

    def test_broken_graph_exit_two_with_diagnostic(self, tmp_path, capsys):
        gpath = tmp_path / "broken.json"
        edges = [e for e in FIG1_EDGES if e != ("2", "6")]
        dump_graph_json(gpath, FIG1_NODES, edges)
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
        dump_graph_json(gpath, ["1", "2", "3"],
                             [("1", "2"), ("1", "3"), ("2", "3")])
        ebio.dump_params_json(ppath, {("1", "2"): 1.0, ("1", "3"): 1.0,
                                      ("2", "3"): 5.0})
        assert run(["validate", "--graph", str(gpath), "--params", str(ppath)]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "NotCNDError"

    def test_usage_error_exit_one(self, capsys):
        assert run(["validate"]) == 1

    def test_json_format(self, fig1_files, capsys):
        # the graph alone: no "cnd" entry
        gpath, _ = fig1_files
        assert run(["validate", "--graph", str(gpath)]) == 0
        assert capsys.readouterr().out == json.dumps(FIG1_REPORT) + "\n"


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
        # mu_u is one row over Sigma_u's nodes: -2 times the anchor's P row
        mnodes, mu = ebio.read_samples_csv(out / "mu_1.csv")
        assert mnodes == snodes == ("2", "3", "4", "5", "6")
        assert np.array_equal(mu, -2 * prow[None, :])

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

    def test_one_node_graph_exit_two_before_writing(self, tmp_path, capsys):
        # validate accepts the graph, but mu_u, Sigma_u and Theta_u would be
        # empty: P.csv was once written before the mu CSV writer refused
        gpath, ppath, out = tmp_path / "one.json", tmp_path / "one_params.json", tmp_path / "out"
        dump_graph_json(gpath, ["a"], [])
        ebio.dump_params_json(ppath, {})
        model = ["--graph", str(gpath), "--params", str(ppath)]
        assert run(["validate", *model]) == 0
        capsys.readouterr()
        assert run(["params", *model, "--anchor", "a", "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "SubsetTooSmallError" and "leaves no other node" in diag["message"]
        assert not out.exists()


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

    @pytest.mark.parametrize("law", ["field", "pareto"])
    def test_thread_crossover_does_not_change_output(self, fig1_files, tmp_path, capsys,
                                                     monkeypatch, law):
        # a crossover of 0 puts 8 nodes x 100 draws on both CPUs, one of 801 on one thread
        import extreme_blocks.cli as cli
        threads = []
        for name in ("sample_limit_field", "sample_pareto_conditioned"):
            def recorded(*args, real=getattr(cli, name), **kwargs):
                threads.append(kwargs["threads"])
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, recorded)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        gpath, ppath = fig1_files
        written = []
        for crossover in (0, 8 * 100 + 1):
            monkeypatch.setattr(cli, "PARALLEL_VALUES", crossover)
            out = tmp_path / str(crossover)
            assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                        "--anchor", "7", "--n", "100", "--seed", "42", "--law", law,
                        "--out", str(out)]) == 0
            written.append((out / f"samples_{law}_u7_n100_seed42.csv").read_bytes())
        assert threads == [2, 1]
        assert written[0] == written[1]

    def test_seed_required(self, fig1_files, tmp_path):
        gpath, ppath = fig1_files
        assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "7", "--n", "10", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_fewer_than_one_draw_exit_one_and_write_nothing(self, fig1_files, tmp_path,
                                                            capsys, n, fmt):
        # the out directory is made only after the draws
        gpath, ppath = fig1_files
        out = tmp_path / "out"
        assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "7", "--n", n, "--seed", "1", "--format", fmt,
                    "--out", str(out)]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag == {"error": "ValueError", "message": "need at least one draw"}
        assert not out.exists()

    def test_binary_format(self, fig1_files, tmp_path, capsys):
        gpath, ppath = fig1_files
        assert run(["simulate", "--graph", str(gpath), "--params", str(ppath),
                    "--anchor", "7", "--n", "50", "--seed", "1", "--law", "pareto",
                    "--out", str(tmp_path), "--format", "binary"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        mat = ebio.read_matrix_binary(rec["written"])
        assert mat.shape == (50, 8)
        assert mat[:, 7 - 0].min() > 0


@pytest.fixture()
def first_stdf_short(monkeypatch):
    """Marks the MVN call of the first stdf a query evaluates as
    unconverged (one call per stdf); lists every call's result."""
    import dataclasses
    import extreme_blocks.dist as dist
    real = dist.mvn_cdf
    stdfs = []

    def first_short(upper, cov, weights=None, **options):
        res = real(upper, cov, weights, **options)
        stdfs.append(res)
        return dataclasses.replace(res, converged=False) if len(stdfs) == 1 else res

    monkeypatch.setattr(dist, "mvn_cdf", first_short)
    return stdfs


class TestEvaluations:
    def test_stdf_single_edge(self, tmp_path, capsys):
        gpath = tmp_path / "e.json"
        ppath = tmp_path / "e_params.json"
        dump_graph_json(gpath, ["a", "b"], [("a", "b")])
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
        dump_graph_json(gpath, ["a", "b"], [("a", "b")])
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

    @pytest.mark.parametrize("subset", ["6,1,4,3", "5,1,3,2,6"])
    @pytest.mark.parametrize("command, option, query", [
        ("stdf", "weights", stdf_hr_detailed),
        ("pareto-cdf", "point", pareto_cdf_detailed),
        ("ec", None, extremal_coefficient_detailed),
    ])
    def test_record_is_the_full_path_sums_one(self, fig2_files, fig2_family, capsys,
                                              command, option, query, subset):
        # the CLI reads only the subset's path sums; its record is byte for
        # byte the one evaluated on the whole of P
        gpath, ppath = fig2_files
        nodes = subset.split(",")
        values = [0.6, 1.7, 1.1, 2.5, 0.9][:len(nodes)]
        extra = [f"--{option}", ",".join(map(str, values))] if option else []
        assert run([command, "--graph", str(gpath), "--params", str(ppath), "--subset", subset,
                    "--tol", "1e-4", "--seed", "5", *extra]) == 0
        at = dict(zip(nodes, values)) if option else nodes
        res = query(path_sum_matrix(fig2_family), at, rel_tol=1e-4, seed=5)
        record = {"query": {"subset": nodes, **({option: values} if option else {})},
                  "value": res.value, "error_estimate": res.error,
                  "converged": res.converged, "seed": 5}
        assert capsys.readouterr().out == json.dumps(record) + "\n"

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
        dump_graph_json(gpath, nodes, list(zip(nodes, nodes[1:])))
        ebio.dump_params_json(ppath, {e: 0.5 for e in zip(nodes, nodes[1:])})
        assert run(["stdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", ",".join(nodes)]) == 3
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "DimensionCapError"
        assert "cap of 25" in diag["message"]

    @pytest.mark.parametrize("command, extra", [
        ("stdf", ["--weights", "1,2,3"]),
        ("pareto-cdf", ["--point", "2,3,4"]),
        ("ec", []),
    ])
    def test_repeated_subset_node_rejected(self, fig2_files, capsys, command, extra):
        # a repeated node once kept only its last weight while the record
        # echoed all of them
        gpath, ppath = fig2_files
        assert run([command, "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "1,2,1", *extra]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "ValueError" and "'1'" in diag["message"]


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

    def test_one_column_table_fits_no_edges(self, tmp_path, capsys):
        gpath, dpath, out = tmp_path / "one.json", tmp_path / "data.csv", tmp_path / "fit"
        dump_graph_json(gpath, ["a"], [])
        ebio.write_samples_csv(dpath, ("a",), np.random.default_rng(0).random((30, 1)))
        assert run(["fit", "--graph", str(gpath), "--data", str(dpath),
                    "--k", "5,10", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out.strip())["ks"] == [5, 10]
        for k in (5, 10):
            assert json.loads((out / f"delta2_k{k}.json").read_text()) == {"edges": []}
        assert [r["objective"] for r in json.loads((out / "fit.json").read_text())["results"]] == [0.0, 0.0]

    def test_two_node_graph_fits_its_edge(self, tmp_path, capsys):
        # one spacing column per anchor: its covariance is a 1 x 1 matrix
        g = build_block_graph(["a", "b"], [("a", "b")])
        fam = validate_delta(g, {("a", "b"): 0.7})
        raw = np.vstack([sample_pareto_conditioned(fam, u, 2000, j) for j, u in enumerate(g.nodes)])
        gpath, dpath, out = tmp_path / "ab.json", tmp_path / "data.csv", tmp_path / "fit"
        dump_graph_json(gpath, ["a", "b"], [("a", "b")])
        ebio.write_samples_csv(dpath, g.nodes, raw)
        assert run(["fit", "--graph", str(gpath), "--data", str(dpath),
                    "--k", "200", "--out", str(out)]) == 0
        pareto = rank_transform(SampleSet(ebio.read_samples_csv(dpath)[1], g.nodes, "raw"))
        expect = fit_delta(g, {u: log_spacings(pareto, u, 200) for u in g.nodes})
        got = ebio.load_params_json(out / "delta2_k200.json")
        assert got == expect.delta2_hat and 0 < got[("a", "b")] < np.inf

    @pytest.mark.parametrize("ks", [",", "", "10,10", "10,20,10", "10,", "10,,20"])
    def test_empty_or_repeated_k_usage_exit(self, fig2_files, tmp_path, capsys, ks):
        # an empty sweep would write an empty ksweep.csv, and a repeated k
        # would fit twice into one delta2_k<k>.json
        gpath, _ = fig2_files
        dpath = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        ebio.write_samples_csv(dpath, tuple(sorted(FIG2_NODES)), rng.random((50, len(FIG2_NODES))))
        out = tmp_path / "fit"
        assert run(["fit", "--graph", str(gpath), "--data", str(dpath),
                    "--k", ks, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out.strip())["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["20,1", "20,50", "0,20"])
    def test_k_outside_two_to_rows_less_one_exit_two(self, fig2_files, tmp_path, capsys, ks):
        # every k is checked before the first fit: a bad k once failed only
        # after the ks before it had written their delta2_k<k>.json
        gpath, _ = fig2_files
        dpath = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        ebio.write_samples_csv(dpath, tuple(sorted(FIG2_NODES)), rng.random((50, len(FIG2_NODES))))
        out = tmp_path / "fit"
        out.mkdir()
        assert run(["fit", "--graph", str(gpath), "--data", str(dpath),
                    "--k", ks, "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "KOutOfRangeError" and "[2, 49]" in diag["message"]
        assert list(out.iterdir()) == []


class TestRecoverCommands:
    def test_recover_round_trip(self, tmp_path, capsys):
        from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix, validate_delta
        from gen import random_delta
        gpath = tmp_path / "fig4.json"
        dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
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
        nodes, values = ebio.read_matrix_csv(out / "P_recovered.csv")
        assert nodes == tuple(FIG4_NODES)
        assert np.abs(values - path_sum_matrix(fam).values).max() <= 1e-10

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
        dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
        assert run(["check-identifiable", "--graph", str(gpath), "--latent", "3"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["identifiable"] is True
        assert run(["check-identifiable", "--graph", str(gpath), "--latent", "1"]) == 2
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["offending"] == ["1"]

    def test_mask_json_file(self, tmp_path, capsys):
        gpath = tmp_path / "fig4.json"
        dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
        mask = tmp_path / "mask.json"
        mask.write_text('{"latent": ["3"]}')
        assert run(["check-identifiable", "--graph", str(gpath),
                    "--latent", str(mask)]) == 0


class TestCommaLists:
    """Every comma list reads "" as the empty list and rejects an empty
    entry; --latent reads a mask file exactly when it ends in .json."""

    @pytest.fixture()
    def fig4_graph(self, tmp_path):
        gpath = tmp_path / "fig4.json"
        dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
        return str(gpath)

    def test_empty_latent_list(self, fig4_graph, capsys):
        assert run(["check-identifiable", "--graph", fig4_graph, "--latent", ""]) == 0
        assert json.loads(capsys.readouterr().out.strip()) == {"identifiable": True, "offending": []}

    def test_directory_is_a_node_id(self, fig4_graph, capsys):
        assert run(["check-identifiable", "--graph", fig4_graph, "--latent", "."]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "UnknownNodeError" and "'.'" in diag["message"]

    def test_repeated_latent_node_rejected(self, fig4_graph, tmp_path, capsys):
        for argv in (["check-identifiable"],
                     ["recover", "--pathsums", str(tmp_path / "m.csv"), "--out", str(tmp_path / "r")]):
            assert run([*argv, "--graph", fig4_graph, "--latent", "3,3"]) == 1
            diag = json.loads(capsys.readouterr().out.strip())
            assert diag == {"error": "ValueError", "message": "--latent repeats node '3'"}
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, option, extra", [
        ("ec", "subset", ["--subset", "1,,2"]),
        ("ec", "subset", ["--subset", ",1,2"]),
        ("stdf", "subset", ["--subset", "1,2,"]),
        ("stdf", "weights", ["--subset", "1,2", "--weights", "1,"]),
        ("pareto-cdf", "point", ["--subset", "1,2", "--point", "2,,3"]),
        ("check-identifiable", "latent", ["--latent", "3,"]),
        ("recover", "latent", ["--latent", "3,", "--pathsums", "m.csv", "--out", "r"]),
    ])
    def test_empty_entry_rejected(self, fig2_files, capsys, command, option, extra):
        gpath, ppath = fig2_files
        model = ["--params", str(ppath)] if command in ("ec", "stdf", "pareto-cdf") else []
        assert run([command, "--graph", str(gpath), *model, *extra]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "ValueError"
        assert diag["message"].startswith(f"--{option} has an empty entry")

    def test_weights_left_out_or_empty(self, fig2_files, capsys):
        gpath, ppath = fig2_files
        model = ["stdf", "--graph", str(gpath), "--params", str(ppath), "--subset", "1,2"]
        assert run(model) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["query"] == {"subset": ["1", "2"], "weights": [1.0, 1.0]}
        assert rec["value"] == pytest.approx(
            2 * std_normal_cdf(math.sqrt(FIG2_DELTA[("1", "2")])), abs=1e-10)
        assert run([*model, "--weights", ""]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag == {"error": "ValueError", "message": "--weights length must match --subset"}

    @pytest.mark.parametrize("command, extra", [("stdf", []), ("pareto-cdf", ["--point", ""]), ("ec", [])])
    def test_empty_subset_rejected(self, fig2_files, capsys, command, extra):
        # it once reached the library, which named neither the option nor
        # one error: AllZeroWeightsError, or SubsetTooSmallError for ec
        gpath, ppath = fig2_files
        assert run([command, "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "", *extra]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag == {"error": "ValueError", "message": "--subset lists no node"}

    def test_pareto_cdf_nan_coordinate_exit_two(self, fig2_files, capsys):
        # a NaN coordinate once reached the stdf as the weight 1/x and was
        # blamed on "weights", exit 1
        gpath, ppath = fig2_files
        assert run(["pareto-cdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "1,5", "--point", "nan,2"]) == 2
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "NonPositiveCoordinateError"

    def test_pareto_cdf_at_infinity(self, fig2_files, capsys):
        gpath, ppath = fig2_files
        assert run(["pareto-cdf", "--graph", str(gpath), "--params", str(ppath),
                    "--subset", "1,2", "--point", "inf,inf"]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert (rec["value"], rec["error_estimate"], rec["converged"]) == (1.0, 0.0, True)


def test_disconnected_graph_exit_two(tmp_path, capsys):
    gpath = tmp_path / "two.json"
    dump_graph_json(gpath, ["a", "b"], [])
    assert run(["validate", "--graph", str(gpath)]) == 2
    assert json.loads(capsys.readouterr().out.strip())["error"] == "DisconnectedGraphError"


def test_console_entry_point(fig1_files):
    gpath, ppath = fig1_files
    proc = subprocess.run(
        [sys.executable, "-m", "extreme_blocks.cli", "validate",
         "--graph", str(gpath), "--params", str(ppath)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["cliques"]) == 4


def test_only_normal_cdf_commands_load_scipy_special(fig2_files, tmp_path):
    # six commands run in one fresh interpreter without loading
    # scipy.special; stdf on three nodes, whose terms are bivariate normal
    # CDFs, loads it
    from extreme_blocks import path_sum_matrix
    gpath, ppath = fig2_files
    g = build_block_graph(FIG2_NODES, FIG2_EDGES)
    dpath, mpath = tmp_path / "data.csv", tmp_path / "pobs.csv"
    ebio.write_samples_csv(dpath, g.nodes, np.random.default_rng(0).random((60, len(g.nodes))))
    ebio.write_matrix_csv(mpath, g.nodes, path_sum_matrix(validate_delta(g, FIG2_DELTA)).values)
    model = ["--graph", str(gpath), "--params", str(ppath)]
    commands = [
        ["validate", *model],
        ["params", *model, "--anchor", "1", "--out", str(tmp_path / "params")],
        ["simulate", *model, "--anchor", "1", "--n", "20", "--seed", "1", "--out", str(tmp_path / "sim")],
        ["fit", "--graph", str(gpath), "--data", str(dpath), "--k", "20", "--out", str(tmp_path / "fit")],
        ["recover", "--graph", str(gpath), "--latent", "", "--pathsums", str(mpath),
         "--out", str(tmp_path / "rec")],
        ["check-identifiable", "--graph", str(gpath), "--latent", ""],
    ]
    script = (
        "import json, sys\n"
        "from extreme_blocks.cli import run\n"
        f"codes = [run(argv) for argv in {commands!r}]\n"
        "before = 'scipy.special' in sys.modules\n"
        f"codes.append(run({['stdf', *model, '--subset', '1,3,5']!r}))\n"
        "print(json.dumps([codes, before, 'scipy.special' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0] * 7
    assert not before and after


def test_readme_example_session(tmp_path):
    # the README's example block, run by bash -e with an extreme-blocks
    # shim on PATH that runs this interpreter on this checkout's package
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("Example session:\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    script = tmp_path / "example.sh"
    script.write_text(block + "\n")
    shim = tmp_path / "bin" / "extreme-blocks"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m extreme_blocks.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ,
           "PATH": os.pathsep.join([str(shim.parent), os.environ.get("PATH", "")]),
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(["bash", "-e", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "out" / "P.csv").exists()
    assert (tmp_path / "out" / "samples_pareto_u1_n100000_seed42.csv").exists()
    ec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert ec["query"] == {"subset": ["1", "5", "6"]} and ec["converged"] is True


def test_recover_inconsistent_input_exit_three(tmp_path, capsys):
    from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix
    from gen import random_delta
    gpath = tmp_path / "fig4.json"
    dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
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


def test_recover_non_positive_observed_edge_exit_three(tmp_path, capsys):
    # nothing latent: the observed edge (a, b) is read directly as -1
    gpath, mpath, latent = tmp_path / "path.json", tmp_path / "p.csv", tmp_path / "mask.json"
    dump_graph_json(gpath, ["a", "b", "c"], [("a", "b"), ("b", "c")])
    ebio.write_matrix_csv(mpath, ("a", "b", "c"),
                          np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]))
    latent.write_text(json.dumps({"latent": []}))
    assert run(["recover", "--graph", str(gpath), "--latent", str(latent),
                "--pathsums", str(mpath), "--out", str(tmp_path / "r")]) == 3
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "InconsistentInputError" and "non-positive" in diag["message"]
    assert not (tmp_path / "r").exists()


def test_recover_non_finite_input_exit_one(tmp_path, capsys):
    from extreme_blocks import ObservationMask, build_block_graph, path_sum_matrix
    from gen import random_delta
    gpath = tmp_path / "fig4.json"
    dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
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


def test_params_builds_clique_precisions_once(monkeypatch, fig2_files, tmp_path, capsys):
    # one inverse per clique: Theta_u is the clique precisions, each built once
    calls = []
    real = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    gpath, ppath = fig2_files
    assert run(["params", "--graph", str(gpath), "--params", str(ppath),
                "--anchor", "4", "--out", str(tmp_path / "p")]) == 0
    assert len(calls) == len(build_block_graph(FIG2_NODES, FIG2_EDGES).cliques)
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
    dump_graph_json(gpath, ["a", "b"], [("a", "b")])
    ppath.write_text('{"edges": [{"a": "a", "b": "b", "delta2": true}]}')
    assert run(["validate", "--graph", str(gpath), "--params", str(ppath)]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and "JSON number" in diag["message"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5", "abc"])
def test_seed_outside_zero_to_two_to_the_64_rejected(fig1_files, tmp_path, capsys, seed):
    # seed -1 used to draw the stream of 2**64 - 1 (simulate) or of
    # 2**128 - 1 (the tail queries)
    gpath, ppath = fig1_files
    model = ["--graph", str(gpath), "--params", str(ppath)]
    commands = [
        ["simulate", *model, "--anchor", "7", "--n", "10", "--out", str(tmp_path / "s")],
        ["stdf", *model, "--subset", "0,3,4"],
        ["pareto-cdf", *model, "--subset", "0,3", "--point", "2,3"],
        ["ec", *model, "--subset", "0,3"],
    ]
    for argv in commands:
        assert run([*argv, f"--seed={seed}"]) == 1
        diag = json.loads(capsys.readouterr().out.strip())
        assert diag["error"] == "UsageError" and "--seed" in diag["message"]
    assert not (tmp_path / "s").exists()


def test_largest_seed_accepted(fig1_files, tmp_path, capsys):
    gpath, ppath = fig1_files
    assert run(["simulate", "--graph", str(gpath), "--params", str(ppath), "--anchor", "7",
                "--n", "3", "--seed", str((1 << 64) - 1), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out.strip())["seed"] == (1 << 64) - 1


@pytest.mark.parametrize("command, option", [("stdf", "weights"), ("pareto-cdf", "point")])
@pytest.mark.parametrize("values", ["1,2", "1,2,3,4"])
def test_per_node_option_length_must_match_subset(fig2_files, capsys, command, option, values):
    gpath, ppath = fig2_files
    assert run([command, "--graph", str(gpath), "--params", str(ppath),
                "--subset", "1,2,3", f"--{option}", values]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and f"--{option} length" in diag["message"]


def test_fit_data_columns_must_be_the_graph_nodes(fig2_files, tmp_path, capsys):
    gpath, _ = fig2_files
    dpath = tmp_path / "data.csv"
    ebio.write_samples_csv(dpath, FIG2_NODES[:-1], np.random.default_rng(0).random((30, 5)))
    assert run(["fit", "--graph", str(gpath), "--data", str(dpath), "--k", "10",
                "--out", str(tmp_path / "fit")]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and "data columns" in diag["message"]
    assert not (tmp_path / "fit").exists()


def test_node_id_with_a_comma_exit_one(tmp_path, capsys):
    # P.csv would split "a,b" into two header cells and --subset could not name it
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    dump_graph_json(gpath, ["a,b", "c"], [("a,b", "c")])
    ebio.dump_params_json(ppath, {("a,b", "c"): 0.5})
    assert run(["params", "--graph", str(gpath), "--params", str(ppath), "--anchor", "c",
                "--out", str(tmp_path / "out")]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and "'a,b'" in diag["message"]
    assert not (tmp_path / "out").exists()


def test_recover_headers_must_be_the_observed_nodes(tmp_path, capsys):
    gpath, mpath = tmp_path / "fig4.json", tmp_path / "pobs.csv"
    dump_graph_json(gpath, FIG4_NODES, FIG4_EDGES)
    observed = [v for v in FIG4_NODES if v != "3"]
    ebio.write_matrix_csv(mpath, observed[::-1], np.zeros((6, 6)))
    assert run(["recover", "--graph", str(gpath), "--latent", "3", "--pathsums", str(mpath),
                "--out", str(tmp_path / "r")]) == 1
    diag = json.loads(capsys.readouterr().out.strip())
    assert diag["error"] == "ValueError" and "observed nodes" in diag["message"]
    assert not (tmp_path / "r").exists()


# The CLI surface, pinned: a flag added to or removed from a subcommand, or
# a changed set of choices, shows up as an edit to these lists.
CLI_OPTIONS = {
    "validate": ["--graph", "--params"],
    "params": ["--anchor", "--graph", "--out", "--params", "--tol"],
    "simulate": ["--anchor", "--format", "--graph", "--law", "--n", "--out", "--params", "--seed"],
    "stdf": ["--graph", "--params", "--seed", "--subset", "--tol", "--weights"],
    "pareto-cdf": ["--graph", "--params", "--point", "--seed", "--subset", "--tol"],
    "ec": ["--graph", "--params", "--seed", "--subset", "--tol"],
    "fit": ["--data", "--graph", "--k", "--out"],
    "recover": ["--graph", "--latent", "--out", "--pathsums", "--tol"],
    "check-identifiable": ["--graph", "--latent"],
}

CLI_CHOICES = {
    ("simulate", "--format"): ["csv", "binary"],
    ("simulate", "--law"): ["field", "pareto"],
}


def test_cli_surface():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
               for name, p in commands.items()}
    assert options == CLI_OPTIONS
    choices = {(name, a.option_strings[0]): list(a.choices)
               for name, p in commands.items() for a in p._actions if a.choices}
    assert choices == CLI_CHOICES
