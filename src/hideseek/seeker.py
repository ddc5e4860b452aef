"""Seeker-side machinery: the search state, search policies, and episode execution.

A policy only ever sees a :class:`SearchState` -- the ordered list of visited
nodes plus what the closed induced subgraph over them shows.  Every query the
state answers is a fact of that view, never of the hidden rest of the graph.

Policies return exact rational distributions over the frontier.  The depth
first family differs only in how the *active* node (whose unvisited
neighbours are eligible) is selected:

* ``dfs``       -- most recently visited node with an unvisited neighbour.
* ``dfs_d``     -- visits everything within distance ``d`` first; once the
                   view shows a cycle, nodes whose second short path was just
                   revealed are drained in first-seen order before returning
                   to normal operation.
* ``adfs``      -- after the cycle closes, exhausts nodes reachable by a
                   single path (via the cycle entrance) before any node that
                   has two paths from the source.
* ``sigma_star``-- plays dfs / adfs / dfs_d for the whole episode with
                   probabilities 3/8, 3/8, 1/4.
"""
from __future__ import annotations

import math
import random
from bisect import insort
from itertools import repeat
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .errors import EmptyFrontier, PolicyViolation
from .graphs import Graph, PathProfile, cached_profiles

Distribution = tuple[tuple[int, Fraction], ...]


class SearchState:
    """What the seeker knows after a visit sequence, kept current move by move.

    The view is the closed induced subgraph over the visited nodes: the
    visited nodes, the frontier, and every edge at a visited node.  ``push``
    visits a frontier node and ``pop`` takes the last visit back, each in
    O(deg) of the node moved, so the sampler extends one state per episode
    and the enumerator walks the whole decision tree on one state.

    Path facts come for free from the graph having at most one cycle.  The
    view is connected, so it is either a tree or holds the whole cycle.  In a
    tree view a node's one path is fixed when the node enters the view (its
    revealer's length + 1).  A view that holds the cycle holds every simple
    source path to each of its nodes, so the graph's own profile, restricted
    to the view, is the view's.
    """

    __slots__ = ("g", "visited", "visited_set", "frontier", "active_stack",
                 "_open", "_seen", "_depth", "_rank", "_inner", "_view_edges")

    def __init__(self, g: Graph, visited: Iterable[int] | None = None):
        n = g.n
        self.g = g
        self.visited: list[int] = []
        self.visited_set: set[int] = set()
        self.frontier: set[int] = {g.source}
        self.active_stack: list[int] = []  # visited nodes with unvisited neighbours, in visit order
        self._open = [0] * n   # unvisited neighbours of each visited node
        self._seen = [0] * n   # visited neighbours of each unvisited node
        self._depth = [0] * n  # path length in the view while the view is a tree
        self._rank = [0] * n   # place in the visit order
        self._inner = 0        # edges between visited nodes
        self._view_edges = 0
        for v in (g.source,) if visited is None else visited:
            self.push(v)

    def push(self, w: int) -> None:
        """Visit the frontier node ``w``."""
        self.frontier.remove(w)
        visited_set, open_, seen = self.visited_set, self._open, self._seen
        self._rank[w] = len(self.visited)
        self.visited.append(w)
        visited_set.add(w)
        fresh = 0
        for x in self.g.adj[w]:
            if x in visited_set:
                self._inner += 1
                open_[x] -= 1
                if not open_[x]:
                    self.active_stack.remove(x)
            else:
                fresh += 1
                seen[x] += 1
                if seen[x] == 1:
                    self.frontier.add(x)
                    self._depth[x] = self._depth[w] + 1
        open_[w] = fresh
        self._view_edges += fresh
        if fresh:
            self.active_stack.append(w)

    def pop(self) -> int:
        """Take back the last visit; the exact inverse of :meth:`push`."""
        w = self.visited.pop()
        visited_set, open_, seen = self.visited_set, self._open, self._seen
        visited_set.remove(w)
        if open_[w]:
            self.active_stack.pop()  # the latest visit sits on top
        fresh = open_[w] = self._rank[w] = 0
        for x in self.g.adj[w]:
            if x in visited_set:
                self._inner -= 1
                open_[x] += 1
                if open_[x] == 1:
                    insort(self.active_stack, x, key=self._rank.__getitem__)
            else:
                fresh += 1
                seen[x] -= 1
                if not seen[x]:
                    self.frontier.remove(x)
                    self._depth[x] = 0
        self._view_edges -= fresh
        self.frontier.add(w)
        return w

    def unvisited_neighbors(self, z: int) -> tuple[int, ...]:
        visited_set = self.visited_set
        return tuple([w for w in self.g.adj[z] if w not in visited_set])

    @property
    def cycle_among_visited(self) -> bool:
        return self._inner >= len(self.visited)

    @property
    def profile(self) -> PathProfile:
        """The view's path profile on frontier nodes, once the cycle is among the visited."""
        return cached_profiles(self.g, self.g.source)

    def frontier_within(self, d: int) -> set[int]:
        """Frontier nodes with a path of length at most ``d`` inside the view."""
        if self._view_edges >= len(self.visited) + len(self.frontier):  # the view holds the cycle
            return self.frontier & self.profile.bounded_sets(d).within
        depth = self._depth
        return {w for w in self.frontier if depth[w] <= d}


def _uniform(nodes) -> Distribution:
    nodes = sorted(nodes)
    if not nodes:
        raise EmptyFrontier("no eligible node to move to")
    return tuple(zip(nodes, repeat(Fraction(1, len(nodes)))))


class SeekerPolicy:
    """Base policy: a map from search states to frontier distributions.

    A policy reads a state only through its visit order, visited set,
    frontier, active stack, ``unvisited_neighbors``, ``cycle_among_visited``,
    ``frontier_within`` and ``profile``.
    """

    kind: str = "abstract"

    @property
    def identifier(self) -> str:
        return self.kind

    def distribution(self, state: SearchState) -> Distribution:
        raise NotImplementedError

    def state_key(self, state: SearchState) -> Hashable | None:
        """Collapse of the visit sequence to what this policy actually reads.

        ``None`` disables memoized enumeration for the policy.
        """
        return None


class _RecencyPolicy(SeekerPolicy):
    """Shared collapse for policies that read the sequence only through the
    ordered stack of still-active nodes."""

    def state_key(self, state: SearchState) -> Hashable:
        return (frozenset(state.visited_set), tuple(state.active_stack))


class DFSPolicy(_RecencyPolicy):
    kind = "dfs"

    def distribution(self, state: SearchState) -> Distribution:
        if not state.frontier:
            raise EmptyFrontier("all nodes visited")
        return _uniform(state.unvisited_neighbors(state.active_stack[-1]))


class BoundedDFSPolicy(_RecencyPolicy):
    """Depth-bounded randomized DFS with post-cycle-revision behaviour."""

    kind = "dfs_d"

    def __init__(self, d: int):
        check_bound(self.kind, d)
        self.d = d

    @property
    def identifier(self) -> str:
        return f"dfs_d[{self.d}]"

    def distribution(self, state: SearchState) -> Distribution:
        frontier = state.frontier
        if not frontier:
            raise EmptyFrontier("all nodes visited")
        stack = state.active_stack
        within = state.frontier_within(self.d)
        active = None
        if state.cycle_among_visited:
            prof = state.profile
            sets = prof.bounded_sets(self.d)
            # one short path, and the second one was revealed beyond / just at the bound
            revealed_deep = (frontier & sets.one_short & prof.double_path) - sets.two_near
            revealed_now = (frontier & sets.one_short & sets.two_near) - sets.two_short
            if revealed_deep:
                active = _last_with(state, stack, revealed_deep)
            elif revealed_now:
                active = _first_with(state, stack, revealed_now)
        if active is None:
            active = _last_with(state, stack, within) if within else stack[-1]
        nbrs = state.unvisited_neighbors(active)
        preferred = [w for w in nbrs if w in within]
        return _uniform(preferred if preferred else nbrs)


class AdjustedDFSPolicy(_RecencyPolicy):
    """DFS that, once the cycle is known, clears single-path nodes first."""

    kind = "adfs"

    def distribution(self, state: SearchState) -> Distribution:
        frontier = state.frontier
        if not frontier:
            raise EmptyFrontier("all nodes visited")
        stack = state.active_stack
        active = None
        if state.cycle_among_visited:
            prof = state.profile
            # nodes whose one path passes the cycle entrance have no second path
            if frontier & prof.through_entrance:
                active = _last_with(state, stack, frontier & prof.single_path)
            else:
                double = frontier & prof.double_path
                if double:
                    active = _last_with(state, stack, double)
        if active is None:
            active = stack[-1]
        return _uniform(state.unvisited_neighbors(active))


def _last_with(state: SearchState, stack, members: set[int]) -> int:
    """The latest stacked node next to ``members``, a set of frontier nodes."""
    return _first_with(state, reversed(stack), members)


def _first_with(state: SearchState, stack, members: set[int]) -> int:
    """The earliest stacked node next to ``members``, a set of frontier nodes."""
    adj = state.g.adj
    for z in stack:
        if not members.isdisjoint(adj[z]):
            return z
    raise EmptyFrontier("no stacked node borders the requested set")


class LabelOrderPolicy(SeekerPolicy):
    """Deterministic battery policy: always take the lowest (or highest) label."""

    def __init__(self, lowest: bool = True):
        self.lowest = lowest
        self.kind = "lowest_label" if lowest else "highest_label"

    def distribution(self, state: SearchState) -> Distribution:
        if not state.frontier:
            raise EmptyFrontier("all nodes visited")
        pick = min(state.frontier) if self.lowest else max(state.frontier)
        return ((pick, Fraction(1)),)

    def state_key(self, state: SearchState) -> Hashable:
        # reads only the visited set, not the order
        return (frozenset(state.visited_set),)


class BreadthPreferringPolicy(_RecencyPolicy):
    """Anti-DFS battery policy: the earliest visited node stays active."""

    kind = "breadth_first"

    def distribution(self, state: SearchState) -> Distribution:
        if not state.frontier:
            raise EmptyFrontier("all nodes visited")
        return _uniform(state.unvisited_neighbors(state.active_stack[0]))


class MixturePolicy(SeekerPolicy):
    """Upfront mixture: one component is drawn per episode and played throughout.

    ``pointwise=True`` switches to the per-step convex combination of the
    component distributions (exposed for comparison only; the exact analysis
    in :mod:`hideseek.analysis` covers the upfront form).
    """

    def __init__(self, components, kind: str, pointwise: bool = False):
        self.components: tuple[tuple[Fraction, SeekerPolicy], ...] = tuple(components)
        if sum(w for w, _ in self.components) != 1:
            raise ValueError("mixture weights must sum to 1")
        self.kind = kind
        self.pointwise = pointwise
        self.thresholds = cumulative_thresholds(w for w, _ in self.components)

    @property
    def identifier(self) -> str:
        inner = ",".join(f"{w}*{p.identifier}" for w, p in self.components)
        mode = "pointwise" if self.pointwise else "upfront"
        return f"{self.kind}[{mode}:{inner}]"

    def distribution(self, state: SearchState) -> Distribution:
        if not self.pointwise:
            raise PolicyViolation(
                "strategy-level mixture has no per-step distribution; "
                "execute/enumerate it componentwise or build with pointwise=True"
            )
        merged: dict[int, Fraction] = {}
        for w, policy in self.components:
            for v, p in policy.distribution(state):
                merged[v] = merged.get(v, Fraction(0)) + w * p
        return tuple(sorted(merged.items()))

    def state_key(self, state: SearchState) -> Hashable | None:
        if not self.pointwise:
            return None
        keys = tuple(p.state_key(state) for _, p in self.components)
        if any(k is None for k in keys):
            return None
        return keys


# The weight of each component of sigma_star, by policy kind, in draw order.
SIGMA_STAR_WEIGHTS: dict[str, Fraction] = {
    "dfs": Fraction(3, 8),
    "adfs": Fraction(3, 8),
    "dfs_d": Fraction(1, 4),
}


def check_bound(kind: str, d: int | None) -> None:
    """Refuse a bound ``d`` that the policy ``kind`` does not take: ``dfs_d``
    needs ``d >= 0`` and ``sigma_star`` needs ``d >= 1``; the rest ignore it."""
    if d is None and kind in ("dfs_d", "sigma_star"):
        raise ValueError(f"{kind} needs a bound d")
    if kind == "dfs_d" and d < 0:
        raise ValueError("bound must be non-negative")
    if kind == "sigma_star" and d < 1:
        raise ValueError("mixture needs a positive bound")


def sigma_star(d: int, pointwise: bool = False) -> MixturePolicy:
    """The 3/8 dfs + 3/8 adfs + 1/4 dfs_d seeker mixture."""
    check_bound("sigma_star", d)
    components = [(w, policy_from_id(kind, d=d)) for kind, w in SIGMA_STAR_WEIGHTS.items()]
    return MixturePolicy(components, kind="sigma_star", pointwise=pointwise)


def policy_from_id(kind: str, d: int | None = None, pointwise: bool = False) -> SeekerPolicy:
    """Resolve a CLI/config policy identifier."""
    if kind == "dfs":
        return DFSPolicy()
    if kind == "adfs":
        return AdjustedDFSPolicy()
    if kind == "dfs_d":
        return BoundedDFSPolicy(d)
    if kind == "sigma_star":
        return sigma_star(d, pointwise=pointwise)
    if kind == "lowest_label":
        return LabelOrderPolicy(lowest=True)
    if kind == "highest_label":
        return LabelOrderPolicy(lowest=False)
    if kind == "breadth_first":
        return BreadthPreferringPolicy()
    raise ValueError(f"unknown policy id {kind!r}")


def battery_policies(d: int) -> list[SeekerPolicy]:
    """The policy battery used for strategy-invariance checks."""
    return [
        DFSPolicy(),
        BoundedDFSPolicy(d),
        AdjustedDFSPolicy(),
        sigma_star(d),
        LabelOrderPolicy(lowest=True),
        LabelOrderPolicy(lowest=False),
        BreadthPreferringPolicy(),
    ]


@dataclass(frozen=True)
class Episode:
    """A complete seeking sequence (a permutation of the nodes, source first)."""

    sequence: tuple[int, ...]

    def pos(self, h: int) -> int:
        return self.sequence.index(h)


def draw(dist: Distribution, rng: random.Random) -> int:
    # a running float sum, not cumulative_thresholds: the two differ in the
    # last bit (thirds sum to 0.6666666666666666, the threshold of 2/3 is
    # 0.6666666666666667), so swapping them would change seeded rows
    r = rng.random()
    acc = 0.0
    for v, p in dist:
        acc += p.numerator / p.denominator
        if r < acc:
            return v
    return dist[-1][0]


def cumulative_thresholds(weights: Iterable[Fraction]) -> tuple[float, ...]:
    """For each running total ``acc`` of ``weights``, the smallest float ``t >= acc``.

    For every float ``r``, ``r < acc`` holds exactly when ``r < t`` does, so
    comparing a uniform draw with the thresholds picks what the exact
    comparison with the running totals picks.
    """
    out = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        t = float(acc)
        if t < acc:
            t = math.nextafter(t, math.inf)
        out.append(t)
    return tuple(out)


def pick_by_thresholds(items: Sequence, thresholds: Sequence[float], r: float):
    """The first item whose cumulative threshold exceeds ``r`` (else the last)."""
    for item, t in zip(items, thresholds):
        if r < t:
            return item
    return items[-1]


TRIE_ENTRIES = 1 << 18  # a decision trie stops growing once it holds this many moves


def _walk(
    policy: SeekerPolicy,
    g: Graph,
    rng: random.Random,
    stop_at: int | None,
    cache: dict | None,
) -> list[int]:
    if isinstance(policy, MixturePolicy) and not policy.pointwise:
        policy = pick_by_thresholds(policy.components, policy.thresholds, rng.random())[1]
    # the decision trie of (g, policy): [moves held, {source: root}], where a
    # node is (checked distribution, {next pick: child node})
    trie = [0, {}] if cache is None else cache.setdefault((g, policy.identifier), [0, {}])
    visited = [g.source]
    level = trie[1]
    while len(visited) < g.n and visited[-1] != stop_at:
        node = level.get(visited[-1])
        if node is None:
            break
        dist, level = node
        visited.append(draw(dist, rng))
    else:
        return visited
    # off the trie, and so for the rest of the episode: one replay, then the
    # state follows each move; the trie grows by the node where the walk left
    # it, so the prefixes that recur most are stored first
    state = SearchState(g, visited)
    grow = trie[0] < TRIE_ENTRIES
    while len(visited) < g.n and visited[-1] != stop_at:
        dist = policy.distribution(state)
        if not {w for w, _ in dist} <= state.frontier:
            raise PolicyViolation(f"policy {policy.identifier} proposed a node off the frontier")
        if grow:
            level[visited[-1]] = (dist, {})
            trie[0] += len(dist)
            grow = False
        w = draw(dist, rng)
        visited.append(w)
        state.push(w)
    return visited


def execute(
    policy: SeekerPolicy,
    g: Graph,
    rng: random.Random,
    cache: dict | None = None,
) -> Episode:
    """Run a policy to completion; deterministic given the rng stream.

    ``cache`` maps ``(graph, policy identifier)`` to that pair's decision
    trie and carries the tries from one episode to the next.
    """
    return Episode(tuple(_walk(policy, g, rng, None, cache)))


def sample_position(
    policy: SeekerPolicy,
    g: Graph,
    h: int,
    rng: random.Random,
    cache: dict | None = None,
) -> int:
    """Position of ``h`` in one sampled episode, stopping once it is found.

    Consumes the same rng prefix as :func:`execute`, so the value matches the
    full episode's ``pos(h)`` exactly.
    """
    return _walk(policy, g, rng, h, cache).index(h)
