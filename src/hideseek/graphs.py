"""Immutable graphs and the structural queries the game is built on.

Two node-container types live here.  ``Graph``, a game instance over nodes
``0..n-1``, checks itself when built; ``from_edges`` only normalises an edge
list and refuses a repeat.  ``Subgraph`` is a fragment over any node subset,
such as the closed induced subgraph over a visit sequence.

All query functions are pure and accept either type.  ``path_profiles`` (and
its memoized ``cached_profiles``) answers every simple-path question the
engines ask from one breadth-first search from the source: on a graph with at
most one cycle each node has one or two simple paths, and both follow from
the BFS distances, the cycle's entrance and the node's anchor on the cycle.
The search tree's subtree sizes and preorder places tell in constant time
whether a node is on a path; the one edge the tree leaves out closes the
cycle, and its two ends climb the tree to meet at the entrance.
``must_pass``, ``simple_path_counts`` and ``closed_subgraph`` are brute,
definitional references that the tests and benchmarks check it against.
``graph_from_json`` checks a document's shape and raises
:class:`BadGraphFile` on anything else.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import (
    BadGraphFile,
    BadShape,
    DisconnectedGraph,
    DuplicateEdge,
    MultipleCycles,
    NodeOutOfRange,
    SelfLoop,
)

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def _build_adj(nodes: Iterable[int], edges: Iterable[Edge]) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


@dataclass(frozen=True)
class Graph:
    """Simple graph on ``0..n-1``, connected from its source, edges stored ``(u, v)``, ``u < v``."""

    n: int
    edges: frozenset[Edge]
    source: int = 0

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int:
            raise BadShape(f"node count {n!r} is not an integer")
        check_node(n, self.source, "source")
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int or not 0 <= u < v < n:
                if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                    raise NodeOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
                raise (SelfLoop(f"self loop at {u}") if u == v
                       else ValueError(f"edge ({u},{v}) not stored as (u, v) with u < v"))
        # the count goes first: it refuses a huge sparse n before adj is built
        if len(self.edges) < n - 1:
            raise DisconnectedGraph(f"{len(self.edges)} edges cannot connect {n} nodes")
        if len(dists := bfs_distances(self, self.source)) != n:
            missing = sorted(set(range(n)) - set(dists))
            raise DisconnectedGraph(f"nodes unreachable from source: {missing}")

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        return _build_adj(range(self.n), self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_leaf(self, v: int) -> bool:
        return len(self.adj[v]) == 1

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


@dataclass(frozen=True)
class Subgraph:
    """A graph fragment over an explicit node set (e.g. a closed induced subgraph)."""

    nodes: frozenset[int]
    edges: frozenset[Edge]

    @property
    def node_set(self) -> frozenset[int]:
        return self.nodes

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        return _build_adj(self.nodes, self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Cycle:
    """The node set of a cycle, stored in traversal order from its entrance."""

    order: tuple[int, ...]

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, v: int) -> bool:
        return v in self.node_set


def from_edges(n: int, edges: Iterable[tuple[int, int]], source: int = 0) -> Graph:
    """A Graph from edges in either orientation; :class:`DuplicateEdge` on a repeat."""
    seen: set[Edge] = set()
    for u, v in edges:
        e = norm_edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {e} repeated")
        seen.add(e)
    return Graph(n=n, edges=frozenset(seen), source=source)


def check_node(n: int, v, what: str = "node") -> None:
    """Raise :class:`NodeOutOfRange` unless ``v`` is one of the nodes ``0..n-1``,
    an ``int`` and not a ``bool``."""
    if type(v) is not int or not 0 <= v < n:
        raise NodeOutOfRange(f"{what} {v} outside 0..{n - 1}")


def _bfs_tree(g, s: int) -> tuple[dict[int, int], dict[int, int]]:
    """Hop distances from ``s`` to every reachable node, and the BFS parent of
    every reached node but ``s``, both in visiting order."""
    dist = {s: 0}
    parent: dict[int, int] = {}
    queue = deque([s])
    adj = g.adj
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
    return dist, parent


def bfs_distances(g, s: int) -> dict[int, int]:
    """Hop distances from ``s`` to every reachable node."""
    return _bfs_tree(g, s)[0]


def must_pass(g, s: int, t: int) -> frozenset[int]:
    """Nodes lying on every path from ``s`` to ``t``; always contains both ends."""
    if s == t:
        return frozenset({s})
    out = {s, t}
    adj = g.adj
    for blocked in g.node_set:
        if blocked in (s, t):
            continue
        seen = {s}
        queue = deque([s])
        reached = False
        while queue and not reached:
            u = queue.popleft()
            for w in adj[u]:
                if w == blocked or w in seen:
                    continue
                if w == t:
                    reached = True
                    break
                seen.add(w)
                queue.append(w)
        if not reached:
            out.add(blocked)
    return frozenset(out)


def _tree_cycle(g, dist: dict[int, int], parent: dict[int, int]) -> Cycle:
    """The cycle of a graph with one, from a BFS tree: the one edge the tree
    leaves out closes it, and climbing ``parent`` from both ends of that edge
    meets at the entrance, the cycle node closest to the tree's root."""
    chords = [(u, v) for u, v in g.edges if parent.get(u) != v and parent.get(v) != u]
    if len(chords) != 1:
        raise MultipleCycles(f"the search tree leaves out {len(chords)} edges (disconnected input?)")
    (a, b), = chords
    left, right = [a], [b]
    while left[-1] != right[-1]:
        if dist[left[-1]] >= dist[right[-1]]:
            left.append(parent[left[-1]])
        else:
            right.append(parent[right[-1]])
    return Cycle(tuple(reversed(left)) + tuple(right[:-1]))


def find_cycle(g) -> Cycle | None:
    """The unique cycle of a connected graph with at most one cycle, or ``None``.

    Its ``order`` starts at the entrance seen from the graph's source (from the
    least node of a :class:`Subgraph`).  :class:`MultipleCycles` on more edges.
    """
    return path_profiles(g, g.source if isinstance(g, Graph) else min(g.nodes)).cycle


@dataclass(frozen=True)
class PathProfile:
    """Simple-path structure from a fixed source in a <=1-cycle graph.

    Built from one breadth-first search from the source: its shortest-path
    tree answers ``on_path`` and ``on_every_path``, and the one edge it leaves
    out closes the ``cycle``.  ``lengths[v]`` holds the sorted lengths of all
    simple source->v paths: one entry for nodes the cycle does not split, two
    for the nodes whose paths leave the cycle at an ``anchor`` other than the
    ``entrance``, where the two arcs round the cycle differ.  A question about a
    distance bound ``d`` compares these lengths with ``d`` where it is asked.
    """

    cycle: Cycle | None
    lengths: dict[int, tuple[int, ...]]
    anchor: dict[int, int]          # last cycle node on both paths of each two-path node
    entrance: int | None            # cycle node closest to the source
    size: dict[int, int]            # node count of each node's subtree in the BFS tree
    first: dict[int, int]           # each node's place in a preorder of the BFS tree

    def distance(self, v: int) -> int:
        return self.lengths[v][0]

    def on_path(self, x: int, v: int) -> bool:
        """Whether ``x`` is on the tree's source->v path (a shortest one, and the only
        one within d when just one fits d): ``v``'s place falls in ``x``'s subtree's."""
        return 0 <= self.first[v] - self.first[x] < self.size[x]

    def on_every_path(self, x: int, v: int) -> bool:
        """Whether ``x`` is on every source->v path: each enters the cycle at the entrance
        and leaves it at ``v``'s anchor (``v`` on the cycle), going either way round."""
        return self.on_path(x, v) and (
            x not in self.cycle_nodes or x == self.entrance or x == self.anchor.get(v, v))

    @cached_property
    def cycle_nodes(self) -> frozenset[int]:
        return self.cycle.node_set if self.cycle is not None else frozenset()

    def passes_entrance(self, v: int) -> bool:
        """Whether ``v`` has one simple path and it passes the cycle entrance."""
        return len(self.lengths[v]) == 1 and self.entrance is not None and self.on_path(self.entrance, v)


def path_profiles(g, s: int) -> PathProfile:
    """All simple-path lengths from ``s`` (at most two per node), from one BFS."""
    n, m = len(g.node_set), g.edge_count
    if m > n:
        raise MultipleCycles(f"{m} edges over {n} nodes")
    dist, parent = _bfs_tree(g, s)
    cyc = _tree_cycle(g, dist, parent) if m == n else None
    on_cycle = frozenset() if cyc is None else cyc.node_set
    entrance = None if cyc is None else cyc.order[0]
    size = dict.fromkeys(dist, 1)
    for v, u in reversed(parent.items()):  # BFS order reversed: children before parents
        size[u] += size[v]
    # BFS order lists a node's children together, and each child's subtree
    # takes the next block of its parent's preorder places; every cycle node
    # but the entrance has two paths, and hands them on to the nodes behind it
    first = {s: 0}
    anchor: dict[int, int] = {}
    up = place = None
    for v, u in parent.items():
        if u != up:
            up, place = u, first[u] + 1
        first[v] = place
        place += size[v]
        if v in on_cycle and v != entrance:
            anchor[v] = v
        elif u in anchor:
            anchor[v] = anchor[u]
    lengths = {v: (d,) for v, d in dist.items()}
    for v, a in anchor.items():
        # the far arc round the cycle is longer by the cycle length less twice the near arc
        lengths[v] = (dist[v], dist[v] + len(cyc) - 2 * (dist[a] - dist[entrance]))
    return PathProfile(
        cycle=cyc, lengths=lengths, anchor=anchor, entrance=entrance, size=size, first=first,
    )


@lru_cache(maxsize=65536)
def cached_profiles(g, s: int) -> PathProfile:
    """Memoized :func:`path_profiles`; keyed on the (hashable) graph object."""
    return path_profiles(g, s)


def simple_path_counts(g, s: int, d: int, through: int | None = None) -> dict[int, int]:
    """Count simple paths of length <= ``d`` from ``s`` by explicit enumeration.

    With ``through`` set, only paths containing that node are counted.  This
    is the definitional (brute) counter; it stays independent of the
    structural profile machinery and doubles as its cross-check.
    """
    if g.edge_count > len(g.node_set):
        raise MultipleCycles("path enumeration limited to graphs with at most one cycle")
    counts: dict[int, int] = {v: 0 for v in g.node_set}
    adj = g.adj
    on_path = {s}

    def walk(u: int, length: int, has_u: bool) -> None:
        if has_u:
            counts[u] += 1
        if length == d:
            return
        for w in adj[u]:
            if w in on_path:
                continue
            on_path.add(w)
            walk(w, length + 1, has_u or w == through)
            on_path.remove(w)

    walk(s, 0, through is None or s == through)
    return counts


def closed_subgraph(g, xs: Iterable[int]) -> Subgraph:
    """Closed induced subgraph: ``xs``, their neighbours, and edges incident to ``xs``."""
    core = frozenset(xs)
    nodes = set(core)
    edges: set[Edge] = set()
    for u, v in g.edges:
        if u in core or v in core:
            edges.add(norm_edge(u, v))
            nodes.add(u)
            nodes.add(v)
    return Subgraph(nodes=frozenset(nodes), edges=frozenset(edges))


def graph_to_json(g: Graph, target: int | None = None) -> str:
    """Canonical JSON encoding; edges sorted lexicographically for golden files."""
    doc: dict = {"n": g.n, "source": g.source, "edges": [list(e) for e in sorted(g.edges)]}
    if target is not None:
        doc["target"] = target
    return json.dumps(doc, sort_keys=True)


def graph_from_json(text: str) -> tuple[Graph, int | None]:
    """Parse a :func:`graph_to_json` document; :class:`BadGraphFile` if it has another shape."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadGraphFile(f"not JSON: {exc}") from None
    if type(doc) is not dict:
        raise BadGraphFile("the document is not a JSON object")
    if type(doc.get("n")) is not int:
        raise BadGraphFile('"n" must be an integer')
    for key in ("source", "target"):
        if key in doc and type(doc[key]) is not int:
            raise BadGraphFile(f'"{key}" must be an integer where present')
    edges = doc.get("edges")
    if type(edges) is not list or not all(
        type(e) is list and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise BadGraphFile('"edges" must be a list of integer pairs')
    g = from_edges(doc["n"], [tuple(e) for e in edges], source=doc.get("source", 0))
    return g, doc.get("target")
