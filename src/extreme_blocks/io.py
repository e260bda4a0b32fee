"""File formats: graph/parameter/mask JSON, matrix CSV, compact binary.

Numeric CSV output uses 17 significant digits, which round-trips 64-bit
floats exactly; re-reading and re-emitting a file is byte-identical.
Format violations raise ValueError (the CLI maps those to the usage exit
code); semantic validation happens in the domain modules.
"""

from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graph import Edge, canonical_edge

BINARY_MAGIC = b"EBLK1"


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


# -- JSON inputs -----------------------------------------------------------

def load_graph_json(path: str | Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Parse {"nodes": [...], "edges": [[a, b], ...]}; duplicates rejected."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in ("nodes", "edges")):
        raise ValueError("graph file must be an object with 'nodes' and 'edges' lists")
    nodes = [str(v) for v in doc["nodes"]]
    for v in nodes:  # the CSV formats and comma-list options could not carry it
        if not v or any(c in v for c in ",\n\r"):
            raise ValueError(f"node identifier {v!r} is empty or holds a comma or line break")
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node identifiers")
    seen: set[Edge] = set()
    edges: list[tuple[str, str]] = []
    for item in doc["edges"]:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"edge entries must be pairs, got {item!r}")
        e = canonical_edge(str(item[0]), str(item[1]))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return nodes, edges


def dump_graph_json(path: str | Path, nodes: Sequence[str], edges: Iterable[Edge]):
    doc = {"nodes": list(nodes), "edges": [list(e) for e in sorted(edges)]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_params_json(path: str | Path) -> dict[Edge, float]:
    """Parse {"edges": [{"a": ..., "b": ..., "delta2": ...}, ...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise ValueError("parameter file must be an object with an 'edges' list")
    params: dict[Edge, float] = {}
    for item in doc["edges"]:
        try:
            e = canonical_edge(str(item["a"]), str(item["b"]))
            val = item["delta2"]
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise TypeError("delta2 must be a JSON number")
            val = float(val)  # an integer beyond the float range overflows
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad parameter entry {item!r}: {exc}") from exc
        if e in params:
            raise ValueError(f"duplicate parameter for edge {e}")
        params[e] = val
    return params


def dump_params_json(path: str | Path, params: dict[Edge, float]):
    doc = {
        "edges": [
            {"a": a, "b": b, "delta2": params[(a, b)]}
            for a, b in sorted(params)
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_mask_json(path: str | Path) -> list[str]:
    """Parse {"latent": [...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "latent" not in doc or not isinstance(doc["latent"], list):
        raise ValueError("mask file must be an object with a 'latent' list")
    return [str(v) for v in doc["latent"]]


# -- matrices as CSV with identifier headers --------------------------------

def _write_rows(path: str | Path, header: str, prefixes: Iterable[str], matrix: np.ndarray):
    """Write the header line, then each matrix row after its prefix, one
    row at a time: neither the lines nor the matrix as lists are held.
    "%.17g" formats a float exactly as fmt17 does."""
    template = "%s" + ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for prefix, row in zip(prefixes, matrix):
            fh.write(template % (prefix, *row.tolist()))


def write_matrix_csv(path: str | Path, nodes: Sequence[str], values: np.ndarray):
    _write_rows(path, "," + ",".join(nodes), [f"{v}," for v in nodes], np.asarray(values, dtype=float))


def read_matrix_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split(",")
    if header[0] != "":
        raise ValueError("matrix CSV must start with an empty header cell")
    nodes = tuple(header[1:])
    rows = []
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        if k >= len(nodes):
            raise ValueError(f"row {cells[0]!r} is beyond the {len(nodes)} header nodes")
        if cells[0] != nodes[k]:
            raise ValueError(f"row label {cells[0]!r} does not match column order")
        if len(cells) != len(nodes) + 1:
            raise ValueError(f"row {cells[0]!r} has {len(cells) - 1} values for {len(nodes)} header nodes")
        rows.append([float(x) for x in cells[1:]])
    if len(rows) != len(nodes):
        raise ValueError("matrix CSV row count does not match header")
    return nodes, np.array(rows)


def dump_matrix_json(path: str | Path, nodes: Sequence[str], values: np.ndarray):
    doc = {"nodes": list(nodes), "values": np.asarray(values, dtype=float).tolist()}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_matrix_json(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "nodes" not in doc or "values" not in doc:
        raise ValueError("matrix file must be an object with 'nodes' and 'values'")
    nodes = tuple(str(v) for v in doc["nodes"])
    values = np.asarray(doc["values"], dtype=float)
    if values.shape not in ((len(nodes),), (len(nodes), len(nodes))):
        raise ValueError("matrix values do not match the node list")
    return nodes, values


# -- sample tables -----------------------------------------------------------

def write_samples_csv(path: str | Path, nodes: Sequence[str], matrix: np.ndarray):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _write_rows(path, ",".join(nodes), itertools.repeat(""), matrix)


def read_samples_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError("empty samples file")
        nodes = tuple(header.split(","))
        data = []
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(nodes):
                raise ValueError(f"line {lineno} has {len(cells)} values for {len(nodes)} header nodes")
            data.append([float(x) for x in cells])
    if not data:
        raise ValueError("samples file has no data rows")
    return nodes, np.array(data)


# -- compact binary matrix ----------------------------------------------------

def write_matrix_binary(path: str | Path, matrix: np.ndarray):
    """Magic 'EBLK1', little-endian u64 dims, then row-major f64 payload."""
    matrix = np.ascontiguousarray(np.atleast_2d(matrix), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.tobytes(order="C"))


def read_matrix_binary(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise ValueError("bad magic; not a binary matrix file")
    off = len(BINARY_MAGIC) + 16
    if len(raw) < off:
        raise ValueError(f"binary matrix file is shorter than its {off}-byte header")
    rows, cols = struct.unpack_from("<QQ", raw, len(BINARY_MAGIC))
    expect = rows * cols * 8
    payload = raw[off:]
    if len(payload) != expect:
        raise ValueError("binary matrix payload has the wrong length")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
