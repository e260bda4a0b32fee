import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from extreme_blocks import (
    DisconnectedGraphError,
    NotBlockGraphError,
    UnknownNodeError,
    build_block_graph,
)
from conftest import FIG1_EDGES, FIG1_NODES, FIG2_EDGES, FIG2_NODES
from gen import clique_tree_edges, random_block_graph


def separator(g, u, clique):
    """The separator of a clique in the block-cut tree's walk away from u."""
    ci = g.cliques.index(frozenset(clique))
    return next(g.nodes[s] for c, s, _ in g._walk(g.index(u)) if c == ci)


def bfs_path(nodes, edges, u, v):
    """Independent breadth-first oracle returning one shortest edge path."""
    adj = {x: set() for x in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    parent = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = []
    while v != u:
        path.append((parent[v], v))
        v = parent[v]
    return tuple(reversed(path))


def all_simple_paths(nodes, edges, u, v):
    adj = {x: set() for x in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    stack = [(u, [u])]
    while stack:
        x, path = stack.pop()
        if x == v:
            out.append(path)
            continue
        for y in adj[x]:
            if y not in path:
                stack.append((y, path + [y]))
    return out


class TestBuild:
    def test_fig1_structure(self, fig1_graph):
        assert [sorted(c) for c in fig1_graph.cliques] == [
            ["0", "1", "2"], ["2", "3"], ["2", "4", "5", "6"], ["6", "7"]]
        assert sorted(fig1_graph.separators) == ["2", "6"]

    def test_single_edge(self):
        g = build_block_graph(["a", "b"], [("a", "b")])
        assert [sorted(c) for c in g.cliques] == [["a", "b"]]
        assert not g.separators

    def test_fig1_broken_block(self):
        edges = [e for e in FIG1_EDGES if e != ("2", "6")]
        with pytest.raises(NotBlockGraphError) as err:
            build_block_graph(FIG1_NODES, edges)
        assert err.value.block == ("2", "4", "5", "6")

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            build_block_graph(["a", "b", "c"], [("a", "b")])

    def test_disconnected_wins_over_non_block(self):
        # a 4-cycle a-b-c-d is no block graph, and e is unreachable
        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        with pytest.raises(DisconnectedGraphError, match="'e'"):
            build_block_graph("abcde", cycle)

    def test_self_loop_rejected(self):
        with pytest.raises(NotBlockGraphError):
            build_block_graph(["a", "b"], [("a", "b"), ("a", "a")])

    def test_undeclared_node(self):
        with pytest.raises(UnknownNodeError):
            build_block_graph(["a", "b"], [("a", "c")])

    def test_empty_graph_rejected(self):
        with pytest.raises(UnknownNodeError, match="at least one node"):
            build_block_graph([], [])

    def test_single_node_degenerate(self):
        g = build_block_graph(["solo"], [])
        assert g.nodes == ("solo",)
        assert g.cliques == ()

    def test_trees_validate_with_pair_cliques(self):
        g = build_block_graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
        assert all(len(c) == 2 for c in g.cliques)

    def test_complete_graph_single_clique(self):
        nodes = list("abcde")
        g = build_block_graph(nodes, combinations(nodes, 2))
        assert len(g.cliques) == 1
        assert not g.separators

    def test_four_cycle_rejected(self):
        with pytest.raises(NotBlockGraphError):
            build_block_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


class TestShortestPath:
    def test_fig1_7_to_0(self, fig1_graph):
        assert fig1_graph.shortest_path("7", "0") == (("7", "6"), ("6", "2"), ("2", "0"))

    def test_same_node_empty(self, fig1_graph):
        assert fig1_graph.shortest_path("3", "3") == ()

    def test_fig2_1_to_5_vs_bfs_oracle(self, fig2_graph):
        got = fig2_graph.shortest_path("1", "5")
        assert got == bfs_path(FIG2_NODES, FIG2_EDGES, "1", "5")
        assert got == (("1", "2"), ("2", "4"), ("4", "5"))

    def test_unknown_node(self, fig1_graph):
        with pytest.raises(UnknownNodeError):
            fig1_graph.shortest_path("7", "zz")

    @pytest.mark.parametrize("seed", range(5))
    def test_path_symmetry_random(self, seed):
        g = random_block_graph(np.random.default_rng(seed))
        for u in g.nodes:
            for v in g.nodes:
                fwd = g.shortest_path(u, v)
                rev = tuple((b, a) for a, b in reversed(fwd))
                assert rev == g.shortest_path(v, u)

    @pytest.mark.parametrize("seed", range(5))
    def test_path_concatenation_through_separator(self, seed):
        g = random_block_graph(np.random.default_rng(seed))
        for u in g.nodes:
            for c in g.cliques:
                s = separator(g, u, c)
                for v in sorted(c - {s}):
                    assert g.shortest_path(u, v) == g.shortest_path(u, s) + ((s, v),)

    @pytest.mark.parametrize("seed", range(5))
    def test_path_meets_clique_in_at_most_one_edge(self, seed):
        g = random_block_graph(np.random.default_rng(seed))
        for u in g.nodes:
            for v in g.nodes:
                path = g.shortest_path(u, v)
                per_clique = {}
                for a, b in path:
                    ci = g.clique_of_edge(a, b)
                    per_clique[ci] = per_clique.get(ci, 0) + 1
                assert all(k == 1 for k in per_clique.values())


    def test_clique_of_a_non_edge_raises(self, fig1_graph):
        # 0 and 3 lie in different cliques; 0 - 0 is no edge either
        for a, b in (("0", "3"), ("3", "0"), ("0", "0")):
            with pytest.raises(KeyError):
                fig1_graph.clique_of_edge(a, b)

class TestSeparatorNode:
    """A clique's separator toward u: its step's separator in u's walk."""

    def test_fig1_examples(self, fig1_graph):
        assert separator(fig1_graph, "7", {"0", "1", "2"}) == "2"
        assert separator(fig1_graph, "4", {"2", "4", "5", "6"}) == "4"

    def test_member_is_its_own_separator(self, fig2_graph):
        assert separator(fig2_graph, "2", {"2", "3", "4"}) == "2"

    def test_fig1_u4_c67_vs_enumeration_oracle(self, fig1_graph):
        s = separator(fig1_graph, "4", {"6", "7"})
        assert s == "6"
        # every simple path from 4 into the clique passes through s
        for v in ("6", "7"):
            for path in all_simple_paths(FIG1_NODES, FIG1_EDGES, "4", v):
                assert s in path

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_property(self, seed):
        g = random_block_graph(np.random.default_rng(seed))
        for u in g.nodes:
            parts = []
            for c in g.cliques:
                s = separator(g, u, c)
                parts.append(c - {s})
            union = set().union(*parts) if parts else set()
            assert union == set(g.nodes) - {u}
            assert sum(len(p) for p in parts) == len(union)


class TestCliqueDegree:
    def test_fig4_center(self, fig4_graph):
        assert fig4_graph.clique_degree("3") == 3

    def test_tree_leaf(self):
        g = build_block_graph("abc", [("a", "b"), ("b", "c")])
        assert g.clique_degree("a") == 1
        assert g.clique_degree("b") == 2

    def test_fig1_node6(self, fig1_graph):
        memberships = sum(1 for c in fig1_graph.cliques if "6" in c)
        assert fig1_graph.clique_degree("6") == memberships == 2

    def test_unknown_node(self, fig1_graph):
        with pytest.raises(UnknownNodeError):
            fig1_graph.clique_degree("nope")


class TestScale:
    def test_ten_thousand_nodes_build_in_linear_memory(self):
        nodes, edges = clique_tree_edges(np.random.default_rng(11), 10_000)
        tracemalloc.start()
        try:
            g = build_block_graph(nodes, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two dense n x n int64 tables alone would take 1.6 GB
        assert peak < 64e6
        assert len(g.nodes) == 10_000 and g.path_nodes(nodes[0], nodes[0]) == (nodes[0],)
        far = max(nodes[1:200], key=lambda v: len(g.path_nodes(nodes[0], v)))
        assert g.path_nodes(nodes[0], far)[0] == nodes[0]
