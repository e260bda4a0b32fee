"""JSON file helpers that only the tests need: a graph writer for CLI
inputs."""

import json
from pathlib import Path


def dump_graph_json(path, nodes, edges):
    doc = {"nodes": list(nodes), "edges": [list(e) for e in sorted(edges)]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
