import os
from pathlib import Path

import pytest

from extreme_blocks import build_block_graph, validate_delta

# subprocesses started by the tests import the package from this checkout
# too, also when pytest put src/ on the path (pyproject's `pythonpath`)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))

# the example graph with four cliques {0,1,2}, {2,3}, {2,4,5,6}, {6,7}
FIG1_NODES = [str(i) for i in range(8)]
FIG1_EDGES = [
    ("0", "1"), ("0", "2"), ("1", "2"), ("2", "3"), ("2", "4"), ("2", "5"),
    ("2", "6"), ("4", "5"), ("4", "6"), ("5", "6"), ("6", "7"),
]
FIG1_DELTA = {
    ("0", "1"): 0.9, ("0", "2"): 0.4, ("1", "2"): 0.7, ("2", "3"): 0.5,
    ("2", "4"): 0.8, ("2", "5"): 0.6, ("2", "6"): 1.1, ("4", "5"): 0.45,
    ("4", "6"): 0.65, ("5", "6"): 0.85, ("6", "7"): 0.75,
}

# the six-node example with cliques {1,2}, {2,3,4}, {4,5,6}
FIG2_NODES = [str(i) for i in range(1, 7)]
FIG2_EDGES = [
    ("1", "2"), ("2", "3"), ("2", "4"), ("3", "4"), ("4", "5"), ("4", "6"),
    ("5", "6"),
]
FIG2_DELTA = {
    ("1", "2"): 0.9, ("2", "3"): 0.4, ("2", "4"): 0.7, ("3", "4"): 0.5,
    ("4", "5"): 0.8, ("4", "6"): 0.6, ("5", "6"): 1.1,
}

# the seven-node identifiability example with cliques {1,2,3}, {3,4,5}, {3,6,7}
FIG4_NODES = [str(i) for i in range(1, 8)]
FIG4_EDGES = [
    ("1", "2"), ("1", "3"), ("2", "3"), ("3", "4"), ("3", "5"), ("4", "5"),
    ("3", "6"), ("3", "7"), ("6", "7"),
]


@pytest.fixture(scope="session")
def fig1_graph():
    return build_block_graph(FIG1_NODES, FIG1_EDGES)


@pytest.fixture(scope="session")
def fig1_family(fig1_graph):
    return validate_delta(fig1_graph, FIG1_DELTA)


@pytest.fixture(scope="session")
def fig2_graph():
    return build_block_graph(FIG2_NODES, FIG2_EDGES)


@pytest.fixture(scope="session")
def fig2_family(fig2_graph):
    return validate_delta(fig2_graph, FIG2_DELTA)


@pytest.fixture(scope="session")
def fig4_graph():
    return build_block_graph(FIG4_NODES, FIG4_EDGES)
