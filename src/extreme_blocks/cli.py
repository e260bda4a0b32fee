"""Command-line front end.

Subcommands: validate, params, simulate, stdf, pareto-cdf, ec, fit,
recover, check-identifiable. Exit codes: 0 success, 1 usage or parse
problem, 2 validation failure, 3 numerical failure. Every command prints
one JSON record on stdout, errors included; matrices and tables go to
--out as exact CSV, or as EBLK1 binary under simulate --format binary.

Comma lists (--subset, --latent, --weights, --point, --k) read "" as the
empty list and reject an empty entry or a repeated node or k. --latent
names a mask JSON file exactly when its value ends in ".json".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io as ebio
from .dist import extremal_coefficient_detailed, pareto_cdf_detailed, stdf_hr_detailed
from .errors import ExtremeBlocksError, KOutOfRangeError, NotIdentifiableError, SubsetTooSmallError
from .fit import SampleSet, fit_delta, log_spacings, rank_transform
from .graph import build_block_graph
from .latent import ObservationMask, check_identifiable, recover_edge_params, recover_path_sums
from .model import (
    GaussianLimit,
    PathSumMatrix,
    _subset_path_sums,
    extremal_graph_check,
    path_sum_matrix,
    precision_matrix,
    validate_delta,
)
from .sim import sample_limit_field, sample_pareto_conditioned

USAGE_EXIT = 1

# nodes x draws at and above which simulate draws the cliques on every CPU.
# Fastest of 3 on 2 vCPUs, one BLAS thread, gen.py clique trees: two
# threads took 0.61-0.75 of one thread's time at n=301 with 10^5 draws and
# 0.86-0.97 at n=10001 with 3000, but 1.03-1.17 at n=10001 with 2000-2500
# (2e7-2.5e7 values) and 1.19-1.36 at n=301 with 200-1000.
PARALLEL_VALUES = 30_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": "UsageError", "message": message}))
        raise SystemExit(USAGE_EXIT)


def _seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {raw!r}")
    return value


def _tolerance(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {raw!r}")
    return value


def _add_common(p: argparse.ArgumentParser, *names):
    if "graph" in names:
        p.add_argument("--graph", required=True, help="graph JSON file")
    if "params" in names:
        p.add_argument("--params", required=True, help="edge-parameter JSON file")
    if "params-opt" in names:
        p.add_argument("--params", help="edge-parameter JSON file")
    if "anchor" in names:
        p.add_argument("--anchor", required=True, help="anchor node identifier")
    if "n" in names:
        p.add_argument("--n", type=int, required=True, help="number of draws")
    if "seed" in names:
        p.add_argument("--seed", type=_seed, default=0, help="random seed (default: 0)")
    if "tol" in names:
        p.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")
    if "out" in names:
        p.add_argument("--out", default=".", help="output directory")
    if "subset" in names:
        p.add_argument("--subset", required=True, help="comma-separated node ids")
    if "latent" in names:
        p.add_argument("--latent", required=True,
                       help="comma-separated latent node ids, or a mask JSON file ending in .json")


def _load_graph(args):
    return build_block_graph(*ebio.load_graph_json(args.graph))


def _load_model(args):
    g = _load_graph(args)
    return g, validate_delta(g, ebio.load_params_json(args.params))


def _comma_list(raw: str, option: str, parse=str) -> list:
    """Parsed entries of a comma list; "" is the empty list."""
    entries = raw.split(",") if raw else []
    if "" in entries:
        raise ValueError(f"--{option} has an empty entry: {raw!r}")
    return [parse(x) for x in entries]


def _node_list(g, raw: str, option: str) -> list[str]:
    """Distinct nodes of g from a comma list, in the order given."""
    nodes = _comma_list(raw, option)
    for i, v in enumerate(nodes):
        g.index(v)
        if v in nodes[:i]:
            raise ValueError(f"--{option} repeats node {v!r}")
    return nodes


def _latent_list(g, raw: str) -> list[str]:
    """A mask file exactly when the value ends in .json, else a node list."""
    return ebio.load_mask_json(raw) if raw.endswith(".json") else _node_list(g, raw, "latent")


def _emit(record: dict):
    print(json.dumps(record))


# -- subcommand implementations ------------------------------------------------


def cmd_validate(args) -> int:
    g = _load_graph(args)
    report = {
        "nodes": list(g.nodes),
        "cliques": [sorted(c) for c in g.cliques],
        "separators": sorted(g.separators),
    }
    if args.params:
        validate_delta(g, ebio.load_params_json(args.params))
        report["cnd"] = {"-".join(sorted(c)): "ok" for c in g.cliques}
    _emit(report)
    return 0


def cmd_params(args) -> int:
    g, fam = _load_model(args)
    u = args.anchor
    g.index(u)
    if len(g.nodes) < 2:
        raise SubsetTooSmallError(f"anchor {u!r} leaves no other node for mu_u, Sigma_u and Theta_u")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    p = path_sum_matrix(fam)
    lim = GaussianLimit.from_path_sums(p, u)
    theta = precision_matrix(fam, u)
    report = extremal_graph_check(lim, theta, tolerance=args.tol)

    ebio.write_matrix_csv(out / "P.csv", p.nodes, p.values)
    ebio.write_samples_csv(out / f"mu_{u}.csv", lim.nodes, lim.mean[None, :])
    ebio.write_matrix_csv(out / f"sigma_{u}.csv", lim.nodes, lim.cov)
    ebio.write_matrix_csv(out / f"theta_{u}.csv", lim.nodes, theta)
    _emit({
        "anchor": u,
        "graph_check_max_violation": report.max_violation,
        "tolerance": report.tolerance,
        "passed": report.passed,
    })
    return 0


def cmd_simulate(args) -> int:
    g, fam = _load_model(args)
    u = args.anchor
    # the draws do not depend on the thread count, only the time does
    threads = (os.cpu_count() or 1) if len(g.nodes) * args.n >= PARALLEL_VALUES else 1
    if args.law == "pareto":
        matrix = sample_pareto_conditioned(fam, u, args.n, args.seed, threads=threads)
    else:
        matrix = sample_limit_field(fam, u, args.n, args.seed, threads=threads).matrix
    out = Path(args.out)  # made after the draws, so a refused --n leaves nothing
    out.mkdir(parents=True, exist_ok=True)
    stem = f"samples_{args.law}_u{u}_n{args.n}_seed{args.seed}"
    if args.format == "binary":
        path = out / f"{stem}.bin"
        ebio.write_matrix_binary(path, matrix)
    else:
        path = out / f"{stem}.csv"
        ebio.write_samples_csv(path, g.nodes, matrix)
    _emit({"written": str(path), "anchor": u, "n": args.n,
           "seed": args.seed, "law": args.law})
    return 0


def _tail_query(args, evaluate, **lists) -> int:
    """Evaluate one tail query on P over --subset, read without filling
    the whole of P, and emit its record.

    lists holds the command's per-node option, if any, by name, None for
    all ones; evaluate gets the subset, or its mapping to those values.
    """
    g, fam = _load_model(args)
    subset = _node_list(g, args.subset, "subset")
    if not subset:
        raise ValueError("--subset lists no node")
    query, at = {"subset": subset}, subset
    for name, raw in lists.items():
        values = [1.0] * len(subset) if raw is None else _comma_list(raw, name, float)
        if len(values) != len(subset):
            raise ValueError(f"--{name} length must match --subset")
        query[name], at = values, dict(zip(subset, values))
    res = evaluate(_subset_path_sums(fam, subset), at, rel_tol=args.tol, seed=args.seed)
    _emit({"query": query, "value": res.value,
           "error_estimate": res.error, "converged": res.converged, "seed": args.seed})
    return 0


def cmd_stdf(args) -> int:
    return _tail_query(args, stdf_hr_detailed, weights=args.weights)


def cmd_pareto_cdf(args) -> int:
    return _tail_query(args, pareto_cdf_detailed, point=args.point)


def cmd_ec(args) -> int:
    return _tail_query(args, extremal_coefficient_detailed)


def cmd_fit(args) -> int:
    ks = _comma_list(args.k, "k", int)
    if not ks:
        raise ValueError("--k lists no tail size")
    if len(set(ks)) < len(ks):
        raise ValueError(f"--k repeats a tail size: {args.k}")
    g = _load_graph(args)
    file_nodes, data = ebio.read_samples_csv(args.data)
    if tuple(sorted(file_nodes)) != g.nodes:
        raise ValueError("data columns do not match the graph's node set")
    if not all(2 <= k < len(data) for k in ks):  # a spacing covariance needs two rows
        raise KOutOfRangeError(f"every k must be in [2, {len(data) - 1}], got --k {args.k}")
    order = [file_nodes.index(v) for v in g.nodes]
    raw = SampleSet(data[:, order], g.nodes, "raw")
    pareto = rank_transform(raw)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    edge_names = ["-".join(e) for e in g.edges_sorted()]
    results = []
    sweep_lines = ["k," + ",".join(edge_names) + ",objective"]
    for k in ks:
        spacings = {u: log_spacings(pareto, u, k) for u in g.nodes}
        res = fit_delta(g, spacings)
        vec = res.as_vector(g)
        results.append({
            "k": k,
            "delta2": {name: float(v) for name, v in zip(edge_names, vec)},
            "objective": res.objective,
            "diagnostics": res.diagnostics,
        })
        sweep_lines.append(
            f"{k}," + ",".join(ebio.fmt17(v) for v in vec) + f",{ebio.fmt17(res.objective)}")
        ebio.dump_params_json(out / f"delta2_k{k}.json", res.delta2_hat)
    (out / "ksweep.csv").write_text("\n".join(sweep_lines) + "\n")
    (out / "fit.json").write_text(json.dumps({"results": results}, indent=2) + "\n")
    _emit({"written": [str(out / "fit.json"), str(out / "ksweep.csv")],
           "ks": ks})
    return 0


def cmd_recover(args) -> int:
    g = _load_graph(args)
    mask = ObservationMask.from_latent(g, _latent_list(g, args.latent))
    ok, offending = check_identifiable(g, mask)
    if not ok:
        raise NotIdentifiableError(offending)
    obs_nodes, values = ebio.read_matrix_csv(args.pathsums)
    p_full = recover_path_sums(g, PathSumMatrix(obs_nodes, values), mask, tol=args.tol)
    fam = recover_edge_params(p_full, g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix_path = out / "P_recovered.csv"
    ebio.write_matrix_csv(matrix_path, p_full.nodes, p_full.values)
    ebio.dump_params_json(out / "delta2_recovered.json", fam.edge_params)
    _emit({"written": [str(matrix_path), str(out / "delta2_recovered.json")],
           "latent": list(mask.latent)})
    return 0


def cmd_check_identifiable(args) -> int:
    g = _load_graph(args)
    mask = ObservationMask.from_latent(g, _latent_list(g, args.latent))
    ok, offending = check_identifiable(g, mask)
    _emit({"identifiable": ok, "offending": list(offending)})
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="extreme-blocks",
                     description="Tail dependence on block graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph (and parameters)")
    _add_common(p, "graph", "params-opt")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("params", help="export P, mu, sigma, theta for an anchor")
    _add_common(p, "graph", "params", "anchor", "tol", "out")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("simulate", help="sample the limiting field or conditioned Pareto vectors")
    _add_common(p, "graph", "params", "anchor", "n", "out")
    p.add_argument("--format", choices=("csv", "binary"), default="csv", help="samples file layout")
    p.add_argument("--seed", type=_seed, required=True, help="random seed")
    p.add_argument("--law", choices=("field", "pareto"), default="field")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stdf", help="evaluate the stable tail dependence function")
    _add_common(p, "graph", "params", "subset", "seed", "tol")
    p.add_argument("--weights", help="comma-separated weights (default: all ones)")
    p.set_defaults(func=cmd_stdf, tol=1e-6)

    p = sub.add_parser("pareto-cdf", help="evaluate the multivariate Pareto CDF")
    _add_common(p, "graph", "params", "subset", "seed", "tol")
    p.add_argument("--point", required=True, help="comma-separated evaluation point")
    p.set_defaults(func=cmd_pareto_cdf, tol=1e-6)

    p = sub.add_parser("ec", help="extremal coefficient of a node subset")
    _add_common(p, "graph", "params", "subset", "seed", "tol")
    p.set_defaults(func=cmd_ec, tol=1e-6)

    p = sub.add_parser("fit", help="moment-based estimation from a raw sample CSV")
    _add_common(p, "graph", "out")
    p.add_argument("--data", required=True, help="samples CSV with node-id header")
    p.add_argument("--k", required=True, help="tail size k, or comma list for a sweep")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("recover", help="recover path sums and edge parameters with latent nodes")
    _add_common(p, "graph", "latent", "tol", "out")
    p.add_argument("--pathsums", required=True, help="restricted path-sum matrix CSV")
    p.set_defaults(func=cmd_recover, tol=1e-9)

    p = sub.add_parser("check-identifiable", help="latent-node identifiability check")
    _add_common(p, "graph", "latent")
    p.set_defaults(func=cmd_check_identifiable)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems via exit
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ExtremeBlocksError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        for key in ("block", "clique", "offending"):
            if hasattr(exc, key):
                diag[key] = list(getattr(exc, key))
        print(json.dumps(diag))
        return exc.exit_code
    except (OSError, ValueError) as exc:  # unreadable or malformed inputs
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return USAGE_EXIT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
