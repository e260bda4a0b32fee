"""Connected block graphs: construction, validation, and structural queries.

A block graph is a connected undirected graph in which every block
(maximal biconnected component) is a complete subgraph. Consequences used
throughout the library: any two maximal cliques share at most one node,
minimal separators between cliques are single nodes, and every pair of
nodes is joined by a unique shortest path.

Node identifiers are opaque strings. Internally they are mapped to dense
indices in sorted identifier order, which fixes matrix layouts across runs.

The structure every other module reads is one block-cut tree, rooted at
the first node. One depth-first search (Hopcroft-Tarjan) finds the
blocks, checks that each is complete, and yields each block with its
root-side separator, parents before children; in linear time and memory
that gives each node's parent, parent clique and depth, and the root
walk: every clique with its separator and its other members (its
targets). Other modules read the tree through the parent pointers and
through that walk, re-anchored at any node; a clique's separator toward
a node is its step's separator in that node's walk. The public queries
are paths between nodes and the cliques at a node or an edge.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DisconnectedGraphError, NotBlockGraphError, UnknownNodeError

Edge = tuple[str, str]

ROOT = 0  # dense index of the node the block-cut tree hangs from


def canonical_edge(a: str, b: str) -> Edge:
    """Unordered pair in sorted order; the canonical key for edge maps."""
    return (a, b) if a <= b else (b, a)


class BlockGraph:
    """Validated connected block graph with its rooted block-cut tree.

    Attributes
    ----------
    nodes : tuple of str
        Node identifiers in sorted order; positions define dense indices.
    edges : frozenset of (str, str)
        Canonical (sorted) node pairs.
    cliques : tuple of frozenset
        Maximal cliques, sorted by their sorted node tuples.
    separators : frozenset of str
        Minimal clique-separator nodes (the cut vertices).

    One block search roots the block-cut tree at the first node, in
    linear time and memory, and keeps its walk of (clique, separator,
    targets); path queries climb the parent pointers in O(path length).
    Instances are immutable after construction and safe for concurrent
    read access.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[Sequence[str]]):
        node_list = sorted({str(v) for v in nodes})
        if not node_list:
            raise UnknownNodeError("graph needs at least one node")
        self.nodes: tuple[str, ...] = tuple(node_list)
        self._index = {v: i for i, v in enumerate(self.nodes)}
        n = len(self.nodes)

        edge_set: set[Edge] = set()
        for pair in edges:
            a, b = str(pair[0]), str(pair[1])
            if a not in self._index or b not in self._index:
                raise UnknownNodeError(f"edge ({a}, {b}) references undeclared node")
            if a == b:
                raise NotBlockGraphError([a], f"self-loop at node {a}")
            edge_set.add(canonical_edge(a, b))
        self.edges: frozenset[Edge] = frozenset(edge_set)

        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            ia, ib = self._index[a], self._index[b]
            adj[ia].append(ib)
            adj[ib].append(ia)
        self._adj = [sorted(neigh) for neigh in adj]

        blocks = self._biconnected_components()

        # clique indices follow the sorted member tuples; dense indices are
        # in sorted identifier order, so this sorts the cliques by name
        by_members = sorted(range(len(blocks)), key=lambda b: blocks[b][0])
        self._members: list[list[int]] = [blocks[b][0] for b in by_members]
        self.cliques: tuple[frozenset, ...] = tuple(
            frozenset(self.nodes[i] for i in members) for members in self._members)
        cliques_at: list[list[int]] = [[] for _ in range(n)]
        for ci, members in enumerate(self._members):
            for v in members:
                cliques_at[v].append(ci)
        self._cliques_at: list[tuple[int, ...]] = [tuple(cs) for cs in cliques_at]
        self.separators: frozenset[str] = frozenset(
            self.nodes[v] for v, cs in enumerate(self._cliques_at) if len(cs) >= 2
        )

        # the blocks popped last lie nearest the root: reversed, they are
        # the root walk, each clique's targets hanging below its separator
        clique_of = {b: ci for ci, b in enumerate(by_members)}
        self._up = [ROOT] * n               # parent node; the root's is itself
        self._up_clique = [-1] * n          # the clique in which a node is a target
        self._depth = [0] * n               # hops from the root
        self._root_walk: list[tuple[int, int, list[int]]] = []
        for b in reversed(range(len(blocks))):
            members, s = blocks[b]
            ci = clique_of[b]
            targets = [t for t in members if t != s]
            for t in targets:
                self._up[t] = s
                self._up_clique[t] = ci
                self._depth[t] = self._depth[s] + 1
            self._root_walk.append((ci, s, targets))

    # -- construction internals ------------------------------------------

    def _biconnected_components(self) -> list[tuple[list[int], int]]:
        """Hopcroft-Tarjan, iterative, from the root; returns each block's
        sorted members and its separator, in the order the blocks pop.

        A block pops at the stack pair (u, v) when the search returns from
        v to u; u was reached first, so it is the block's member nearest
        the root. Every edge is pushed once, so a block of k members is a
        clique exactly when it pops k(k-1)/2 edges. A node the search
        never reaches makes the graph disconnected, which is reported
        before any block that is not a clique.
        """
        n = len(self.nodes)
        disc = [-1] * n
        low = [0] * n
        comps: list[tuple[list[int], int]] = []
        short: list[list[int]] = []  # members of blocks that are not cliques
        estack: list[tuple[int, int]] = []
        start = [0] * n  # where the tree edge into each node sits on estack
        disc[ROOT] = low[ROOT] = 0
        timer = 1
        stack = [(ROOT, -1, iter(self._adj[ROOT]))]
        while stack:
            v, parent, it = stack[-1]
            pushed = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] == -1:
                    start[w] = len(estack)
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(self._adj[w])))
                    pushed = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if pushed:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = estack[start[v]:]
                    del estack[start[v]:]
                    members = sorted({x for edge in block for x in edge})
                    if len(block) != len(members) * (len(members) - 1) // 2:
                        short.append(members)
                    comps.append((members, u))
        if timer != n:
            missing = [self.nodes[i] for i in range(n) if disc[i] == -1]
            raise DisconnectedGraphError(
                f"graph is not connected; unreachable from {self.nodes[ROOT]}: {missing[:5]}"
            )
        if short:
            raise NotBlockGraphError([self.nodes[i] for i in short[0]])
        return comps

    def _path(self, a: int, b: int) -> list[int]:
        """Node indices of the unique shortest path from a to b.

        Both ends climb toward the root until they meet, or until they are
        targets of one clique, which joins them by a single edge.
        """
        up, depth, pc = self._up, self._depth, self._up_clique
        head, tail = [a], [b]
        while a != b:
            if depth[a] > depth[b]:
                a = up[a]
                head.append(a)
            elif depth[b] > depth[a]:
                b = up[b]
                tail.append(b)
            elif pc[a] == pc[b]:
                break
            else:
                a, b = up[a], up[b]
                head.append(a)
                tail.append(b)
        if a == b:
            tail.pop()
        return head + tail[::-1]

    def _walk(self, u: int = ROOT) -> list[tuple[int, int, list[int]]]:
        """(clique, separator, targets) for every clique, ordered away from
        node u: a clique's separator is its member nearest u, and its
        targets are its other members.

        The cliques on the path from u up to the root turn around: u's
        parent clique comes first with separator u, then its parent's with
        separator u's parent, and so on. The others keep the root order and
        their root-side separator. A clique's separator is a target of an
        earlier clique, or u itself.
        """
        chain = []
        while u != ROOT:
            ci = self._up_clique[u]
            chain.append((ci, u, [t for t in self._members[ci] if t != u]))
            u = self._up[u]
        on_chain = {ci for ci, _, _ in chain}
        return chain + [step for step in self._root_walk if step[0] not in on_chain]

    def _first_cliques(self, a: int) -> list[int]:
        """For every node x, the clique at a that holds the first edge of the
        path from a to x; -1 for a itself."""
        label = [-1] * len(self.nodes)
        for ci, s, targets in self._walk(a):
            for t in targets:
                label[t] = ci if s == a else label[s]
        return label

    # -- queries ----------------------------------------------------------

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return canonical_edge(a, b) in self.edges

    def shortest_path(self, u: str, v: str) -> tuple[Edge, ...]:
        """Ordered edges of the unique shortest path from u to v.

        Empty when u == v.
        """
        path = [self.nodes[i] for i in self._path(self.index(u), self.index(v))]
        return tuple(zip(path, path[1:]))

    def path_nodes(self, u: str, v: str) -> tuple[str, ...]:
        """Node sequence of the unique shortest path, endpoints included."""
        return tuple(self.nodes[i] for i in self._path(self.index(u), self.index(v)))

    def parent_toward(self, u: str, v: str) -> str:
        """The node just before v on the shortest path from u; u if v == u."""
        path = self._path(self.index(u), self.index(v))
        return self.nodes[path[-2] if len(path) > 1 else path[0]]

    def clique_of_edge(self, a: str, b: str) -> int:
        """The clique holding edge (a, b); KeyError if it is not an edge."""
        if not self.has_edge(a, b):
            raise KeyError(canonical_edge(a, b))
        ia, ib = self._index[a], self._index[b]
        # an edge joins a parent and its child, or two targets of one clique
        return self._up_clique[ib] if self._up[ib] == ia else self._up_clique[ia]

    def cliques_at(self, v: str) -> tuple[int, ...]:
        """Indices of the maximal cliques containing v."""
        return self._cliques_at[self.index(v)]

    def clique_degree(self, v: str) -> int:
        return len(self.cliques_at(v))

    def edges_sorted(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def __repr__(self):
        return f"BlockGraph({len(self.nodes)} nodes, {len(self.edges)} edges, {len(self.cliques)} cliques)"


def build_block_graph(nodes: Iterable[str], edges: Iterable[Sequence[str]]) -> BlockGraph:
    """Validate and build a BlockGraph; see class docstring for guarantees."""
    return BlockGraph(nodes, edges)

