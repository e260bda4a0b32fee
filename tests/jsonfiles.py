"""JSON file helpers that only the tests need: a graph writer for CLI
inputs and a reader for the CLI's JSON matrix outputs."""

import json
from pathlib import Path

import numpy as np


def dump_graph_json(path, nodes, edges):
    doc = {"nodes": list(nodes), "edges": [list(e) for e in sorted(edges)]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_matrix_json(path):
    """(nodes, values) of a {"nodes": [...], "values": [...]} file; the
    values are a vector or a square matrix over the nodes."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "nodes" not in doc or "values" not in doc:
        raise ValueError("matrix file must be an object with 'nodes' and 'values'")
    nodes = tuple(str(v) for v in doc["nodes"])
    values = np.asarray(doc["values"], dtype=float)
    if values.shape not in ((len(nodes),), (len(nodes), len(nodes))):
        raise ValueError("matrix values do not match the node list")
    return nodes, values
