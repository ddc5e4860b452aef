"""Immutable graphs and the structural queries the game is built on.

Two node-container types live here.  ``Graph`` is the validated, dense
representation used for full game instances (nodes ``0..n-1``, source ``0``).
``Subgraph`` is a lightweight fragment over an arbitrary node subset, such as
the closed induced subgraph over a visit sequence.

All query functions are pure and accept either type.  ``path_profiles`` (and
its memoized ``cached_profiles``) answers every simple-path question the
engines ask from one breadth-first search from the source: on a graph with at
most one cycle each node has one or two simple paths, and both follow from
the BFS distances, the cycle's entrance and the node's anchor on the cycle.
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
    """Simple undirected connected graph over nodes ``0..n-1`` with a fixed source."""

    n: int
    edges: frozenset[Edge]
    source: int = 0

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        return _build_adj(range(self.n), self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[list[int]]:
        return [list(e) for e in sorted(self.edges)]

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
    """The node set of a cycle, stored in traversal order."""

    order: tuple[int, ...]

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, v: int) -> bool:
        return v in self.node_set


def from_edges(n: int, edges: Iterable[tuple[int, int]], source: int = 0) -> Graph:
    """Validate and build a Graph; raises typed errors on malformed input."""
    check_node(n, source, "source")
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise NodeOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self loop at {u}")
        e = norm_edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {e} repeated")
        seen.add(e)
    if len(seen) < n - 1:
        raise DisconnectedGraph(f"{len(seen)} edges cannot connect {n} nodes")
    g = Graph(n=n, edges=frozenset(seen), source=source)
    dists = bfs_distances(g, source)
    if len(dists) != n:
        missing = sorted(set(range(n)) - set(dists))
        raise DisconnectedGraph(f"nodes unreachable from source: {missing}")
    return g


def check_node(n: int, v, what: str = "node") -> None:
    """Raise :class:`NodeOutOfRange` unless ``v`` is one of the nodes ``0..n-1``."""
    if not isinstance(v, int) or not 0 <= v < n:
        raise NodeOutOfRange(f"{what} {v} outside 0..{n - 1}")


def bfs_distances(g, s: int) -> dict[int, int]:
    """Hop distances from ``s`` to every reachable node."""
    dist = {s: 0}
    queue = deque([s])
    adj = g.adj
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


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


def _two_core(g) -> set[int]:
    """Nodes remaining after repeatedly pruning degree-<=1 nodes."""
    deg = {v: len(g.adj[v]) for v in g.node_set}
    queue = deque(v for v, d in deg.items() if d <= 1)
    dead: set[int] = set()
    while queue:
        v = queue.popleft()
        if v in dead:
            continue
        dead.add(v)
        for w in g.adj[v]:
            if w in dead:
                continue
            deg[w] -= 1
            if deg[w] <= 1:
                queue.append(w)
    return set(g.node_set) - dead


def find_cycle(g) -> Cycle | None:
    """The unique cycle of a connected graph with at most one cycle.

    Returns ``None`` on trees and raises :class:`MultipleCycles` when the edge
    count implies more than one independent cycle.
    """
    n = len(g.node_set)
    m = g.edge_count
    if m > n:
        raise MultipleCycles(f"{m} edges over {n} nodes")
    if m <= n - 1:
        return None
    core = _two_core(g)
    if not core:
        raise MultipleCycles("edge count says cycle but none found (disconnected input?)")
    start = min(core)
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = next(w for w in g.adj[cur] if w in core and w != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return Cycle(tuple(order))


@dataclass(frozen=True)
class BoundedClassSets:
    """Node classes for one distance bound, precomputed in a single pass."""

    within: frozenset[int]       # at least one path fits the bound
    one_short: frozenset[int]    # exactly one path fits the bound
    two_short: frozenset[int]    # both paths fit the bound
    two_near: frozenset[int]     # both paths fit bound + 1


@dataclass(frozen=True)
class PathProfile:
    """Simple-path structure from a fixed source in a <=1-cycle graph.

    Built from one breadth-first search from the source: ``parent`` is its
    shortest-path tree, in visiting order.  ``lengths[v]`` holds the sorted
    lengths of all simple source->v paths: one entry for nodes the cycle does
    not split, two for the nodes whose paths leave the cycle at an ``anchor``
    other than the ``entrance``, where the two arcs round the cycle differ.
    """

    source: int
    cycle: Cycle | None
    lengths: dict[int, tuple[int, ...]]
    anchor: dict[int, int]          # last cycle node on both paths of each two-path node
    entrance: int | None            # cycle node closest to the source
    parent: dict[int, int]          # BFS predecessor of every other node, in BFS order

    def distance(self, v: int) -> int:
        return self.lengths[v][0]

    def shortest_path(self, v: int) -> tuple[int, ...]:
        """A shortest source->v path; the only path of length <= d when just one fits d."""
        path = [v]
        while path[-1] != self.source:
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))

    def cut_nodes(self, v: int) -> frozenset[int]:
        """Nodes on every source->v path, both ends included.

        That is the shortest path without the cycle nodes it merely crosses:
        every path enters the cycle at the entrance and leaves it at ``v``'s
        anchor (``v`` itself on the cycle), going either way round between.
        """
        keep = (self.entrance, self.anchor.get(v, v))
        return frozenset(x for x in self.shortest_path(v) if x not in self.cycle_nodes or x in keep)

    def bounded_sets(self, bound: int) -> BoundedClassSets:
        cache = self.__dict__.setdefault("_bounded_cache", {})
        hit = cache.get(bound)
        if hit is None:
            within = frozenset(v for v, ls in self.lengths.items() if ls[0] <= bound)
            two_short = frozenset(v for v in self.double_path if self.lengths[v][1] <= bound)
            hit = cache[bound] = BoundedClassSets(
                within=within,
                one_short=within - two_short,
                two_short=two_short,
                two_near=frozenset(v for v in self.double_path if self.lengths[v][1] <= bound + 1),
            )
        return hit

    @cached_property
    def cycle_nodes(self) -> frozenset[int]:
        return self.cycle.node_set if self.cycle is not None else frozenset()

    @cached_property
    def single_path(self) -> frozenset[int]:
        """Nodes reachable by exactly one simple path."""
        return frozenset(v for v, ls in self.lengths.items() if len(ls) == 1)

    @cached_property
    def double_path(self) -> frozenset[int]:
        return frozenset(self.anchor)

    @cached_property
    def through_entrance(self) -> frozenset[int]:
        """Single-path nodes whose unique path passes the cycle entrance."""
        if self.entrance is None:
            return frozenset()
        gate = {self.entrance}
        for v, u in self.parent.items():  # BFS order: a parent comes before its children
            if u in gate and v not in self.anchor:
                gate.add(v)
        return frozenset(gate)


def path_profiles(g, s: int) -> PathProfile:
    """All simple-path lengths from ``s`` (at most two per node), from one BFS."""
    cyc = find_cycle(g)
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
    on_cycle = frozenset() if cyc is None else cyc.node_set
    entrance = min(on_cycle, key=dist.__getitem__, default=None)
    # every cycle node but the entrance has two paths, and hands them on to
    # the nodes hanging behind it
    anchor: dict[int, int] = {}
    for v, u in parent.items():
        if v in on_cycle and v != entrance:
            anchor[v] = v
        elif u in anchor:
            anchor[v] = anchor[u]
    lengths = {v: (d,) for v, d in dist.items()}
    for v, a in anchor.items():
        # the far arc round the cycle is longer by the cycle length less twice the near arc
        lengths[v] = (dist[v], dist[v] + len(cyc) - 2 * (dist[a] - dist[entrance]))
    return PathProfile(
        source=s, cycle=cyc, lengths=lengths, anchor=anchor, entrance=entrance, parent=parent,
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
    doc: dict = {"n": g.n, "source": g.source, "edges": g.sorted_edges()}
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
