"""Immutable graphs and the structural queries the game is built on.

Two node-container types live here.  ``Graph`` is the validated, dense
representation used for full game instances (nodes ``0..n-1``, source ``0``).
``Subgraph`` is a lightweight fragment over an arbitrary node subset, such as
the closed induced subgraph over a visit sequence.

All query functions are pure and accept either type.  ``path_profiles`` (and
its memoized ``cached_profiles``) answers every simple-path question the
engines ask; ``must_pass``, ``simple_path_counts`` and ``closed_subgraph`` are
brute, definitional references that the tests and benchmarks check it
against.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import (
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

    ``lengths[v]`` holds the sorted lengths of all simple source->v paths
    (one entry off the cycle's influence, two entries otherwise).  The
    decomposition fields expose where each node hangs relative to the cycle,
    and ``parent`` is a shortest-path tree that the path queries walk.
    """

    source: int
    cycle: Cycle | None
    lengths: dict[int, tuple[int, ...]]
    anchor: dict[int, int]          # nearest cycle node for nodes outside the source tree
    source_tree: frozenset[int]     # nodes whose unique path stays inside the source's forest tree
    entrance: int | None            # cycle node closest to the source
    parent: dict[int, int]          # BFS predecessor of every other node, in BFS order

    def count_within(self, v: int, bound: int) -> int:
        return sum(1 for length in self.lengths.get(v, ()) if length <= bound)

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
        if hit is not None:
            return hit
        within: set[int] = set()
        one_short: set[int] = set()
        two_short: set[int] = set()
        two_near: set[int] = set()
        near = bound + 1
        for v, ls in self.lengths.items():
            fit = 0
            fit_near = 0
            for length in ls:
                if length <= bound:
                    fit += 1
                if length <= near:
                    fit_near += 1
            if fit:
                within.add(v)
                (one_short if fit == 1 else two_short).add(v)
            if fit_near == 2:
                two_near.add(v)
        hit = BoundedClassSets(
            within=frozenset(within),
            one_short=frozenset(one_short),
            two_short=frozenset(two_short),
            two_near=frozenset(two_near),
        )
        cache[bound] = hit
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
        return frozenset(v for v, ls in self.lengths.items() if len(ls) == 2)

    @cached_property
    def through_entrance(self) -> frozenset[int]:
        """Single-path nodes whose unique path passes the cycle entrance."""
        c = self.entrance
        if c is None:
            return frozenset()
        gate = {c}
        for v, u in self.parent.items():  # BFS order: a parent comes before its children
            if u in gate and v in self.source_tree:
                gate.add(v)
        return frozenset(gate)


def _bfs_parents(g, s: int) -> dict[int, int]:
    """Each node's predecessor in a breadth-first search from ``s``, in visiting order."""
    parent: dict[int, int] = {}
    queue = deque([s])
    adj = g.adj
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w != s and w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def path_profiles(g, s: int) -> PathProfile:
    """Compute all simple-path lengths from ``s`` (at most two per node)."""
    cyc = find_cycle(g)
    if cyc is None:
        dist = bfs_distances(g, s)
        return PathProfile(
            source=s,
            cycle=None,
            lengths={v: (d,) for v, d in dist.items()},
            anchor={},
            source_tree=frozenset(dist),
            entrance=None,
            parent=_bfs_parents(g, s),
        )
    cyc_set = cyc.node_set
    cycle_edges = set()
    order = cyc.order
    for i, u in enumerate(order):
        cycle_edges.add(norm_edge(u, order[(i + 1) % len(order)]))
    forest_adj: dict[int, list[int]] = {v: [] for v in g.node_set}
    for u, v in g.edges:
        if norm_edge(u, v) in cycle_edges:
            continue
        forest_adj[u].append(v)
        forest_adj[v].append(u)

    def forest_bfs(root: int) -> dict[int, int]:
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in forest_adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    src_dist = forest_bfs(s)
    source_tree = frozenset(src_dist)
    entrance_nodes = cyc_set & source_tree
    if len(entrance_nodes) != 1:
        raise MultipleCycles("source tree must meet the cycle exactly once")
    c = next(iter(entrance_nodes))
    ds = src_dist[c]
    idx = {v: i for i, v in enumerate(order)}
    length = len(order)
    lengths: dict[int, tuple[int, ...]] = {}
    anchor: dict[int, int] = {}
    for v in source_tree:
        lengths[v] = (src_dist[v],)
    for a in cyc_set:
        if a == c:
            continue
        j = (idx[a] - idx[c]) % length
        arc_a, arc_b = j, length - j
        for v, dv in forest_bfs(a).items():
            if v in source_tree:
                continue
            anchor[v] = a
            lengths[v] = tuple(sorted((ds + arc_a + dv, ds + arc_b + dv)))
    return PathProfile(
        source=s,
        cycle=cyc,
        lengths=lengths,
        anchor=anchor,
        source_tree=source_tree,
        entrance=c,
        parent=_bfs_parents(g, s),
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
    doc = json.loads(text)
    g = from_edges(doc["n"], [tuple(e) for e in doc["edges"]], source=doc.get("source", 0))
    return g, doc.get("target")
