"""Seeker-side machinery: the search state, search policies, and episode execution.

A policy only ever sees a :class:`SearchState` -- the ordered list of visited
nodes plus what the closed induced subgraph over them shows.  Every query the
state answers is a fact of that view, never of the hidden rest of the graph.

Each built-in policy draws uniformly among the frontier nodes it deems
eligible.  The depth first family differs only in how the *active* node
(whose unvisited neighbours are eligible) is selected:

* ``dfs``       -- most recently visited node with an unvisited neighbour.
* ``dfs_d``     -- visits everything within distance ``d`` first; once the
                   view shows a cycle, nodes whose second short path was just
                   revealed are drained in first-seen order before returning
                   to normal operation.
* ``adfs``      -- once the cycle is seen, the latest stacked node next to a
                   frontier node whose one path passes the entrance, if any.
* ``sigma_star``-- plays dfs / adfs / dfs_d for the whole episode with
                   probabilities 3/8, 3/8, 1/4.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right, insort
from itertools import accumulate, repeat
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .errors import EmptyFrontier, PolicyViolation
from .graphs import Graph, PathProfile, cached_profiles, check_node


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

    A replayed ``visited`` refuses a node that is not an ``int`` of the graph
    (``NodeOutOfRange``) or is off the frontier (``ValueError`` naming its step).
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
        try:
            for step, v in enumerate((g.source,) if visited is None else visited):
                if type(v) is not int:  # True == 1 would pass frontier.remove
                    check_node(n, v)
                self.push(v)
        except KeyError:  # push meets a node off the frontier first, at frontier.remove
            check_node(n, v)
            raise ValueError(f"step {step}: node {v} is not on the frontier") from None

    def push(self, w: int) -> None:
        """Visit the frontier node ``w``."""
        self.frontier.remove(w)
        visited_set, open_, seen = self.visited_set, self._open, self._seen
        self._rank[w] = len(self.visited)
        self.visited.append(w)
        visited_set.add(w)
        fresh = 0
        nbrs = self.g.adj[w]
        for x in nbrs:
            if x in visited_set:
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
        self._inner += len(nbrs) - fresh
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
            lengths = self.profile.lengths
            return {w for w in self.frontier if lengths[w][0] <= d}
        depth = self._depth
        return {w for w in self.frontier if depth[w] <= d}


# The running float sums of k weights 1/k, keyed by k: the draw of a uniform
# move among k.  Every k is the size of part of one node's neighbourhood, so
# the table holds at most one entry per k up to the largest degree; a k above
# UNIFORM_TABLE_K is built afresh on each call instead (all k up to a degree
# in the thousands would hold millions of floats).
_UNIFORM_TABLES: dict[int, tuple[float, ...]] = {}
UNIFORM_TABLE_K = 256


def uniform_table(k: int) -> tuple[float, ...]:
    """The running float sums of k weights 1/k that :func:`draw` bisects.  The
    last move's sum is left out: :func:`draw` takes the last move when every
    other sum is at most the uniform draw."""
    table = _UNIFORM_TABLES.get(k)
    if table is None:
        # a running float sum, not cumulative_thresholds: the two differ in the
        # last bit (thirds sum to 0.6666666666666666, the threshold of 2/3 is
        # 0.6666666666666667), so swapping them would change seeded rows
        table = tuple(accumulate(repeat(1 / k, k - 1)))
        if k <= UNIFORM_TABLE_K:
            _UNIFORM_TABLES[k] = table
    return table


class SeekerPolicy:
    """Base policy: a map from search states to the frontier nodes drawn uniformly among.

    A policy reads a state only through its visit order, visited set,
    frontier, active stack, ``unvisited_neighbors``, ``cycle_among_visited``,
    ``frontier_within`` and ``profile``.
    """

    kind: str = "abstract"
    # True when the policy reads no node label, only the graph's structure,
    # the source and the visit order: an automorphism that fixes the source
    # then maps each state's eligible nodes onto its image's
    label_free: bool = False

    @property
    def identifier(self) -> str:
        return self.kind

    def distribution(self, state: SearchState) -> tuple[int, ...]:
        """The nodes of :meth:`eligible`, sorted: each is the next visit with
        probability 1/k, k their number.  Refused once every node is visited."""
        if not state.frontier:
            raise EmptyFrontier("all nodes visited")
        nodes = self.eligible(state)
        if not nodes:
            raise EmptyFrontier("no eligible node to move to")
        return tuple(sorted(nodes))

    def eligible(self, state: SearchState) -> Sequence[int]:
        """The frontier nodes this policy draws uniformly among, for a state with a frontier."""
        raise NotImplementedError

    def state_key(self, state: SearchState) -> Hashable | None:
        """What this policy reads of the visit sequence beyond the visited set:
        two states with the same visited set and equal keys lead to the same
        decisions from there on.

        ``None`` disables memoized enumeration for the policy.
        """
        return None


class _RecencyPolicy(SeekerPolicy):
    """Shared collapse for policies that read the sequence only through the
    ordered stack of still-active nodes."""

    label_free = True

    def state_key(self, state: SearchState) -> Hashable:
        return tuple(state.active_stack)


class DFSPolicy(_RecencyPolicy):
    kind = "dfs"

    def eligible(self, state: SearchState) -> Sequence[int]:
        return state.unvisited_neighbors(state.active_stack[-1])


class BoundedDFSPolicy(_RecencyPolicy):
    """Depth-bounded randomized DFS with post-cycle-revision behaviour."""

    kind = "dfs_d"

    def __init__(self, d: int):
        check_bound(self.kind, d)
        self.d = d

    @cached_property
    def identifier(self) -> str:
        return f"dfs_d[{self.d}]"

    def eligible(self, state: SearchState) -> Sequence[int]:
        stack, d = state.active_stack, self.d
        within = state.frontier_within(d)
        revealed_deep = revealed_now = ()  # nothing is revealed before the cycle closes
        if state.cycle_among_visited:
            lengths = state.profile.lengths
            # within d, the longer path revealed beyond d + 1 / at d + 1 (a node
            # with one path never counts: that path fits d)
            revealed_deep = {w for w in within if lengths[w][-1] > d + 1}
            revealed_now = {w for w in within if lengths[w][-1] == d + 1}
        if revealed_deep:
            active = _last_with(state, stack, revealed_deep)
        elif revealed_now:
            active = _first_with(state, stack, revealed_now)
        else:
            active = _last_with(state, stack, within) if within else stack[-1]
        nbrs = state.unvisited_neighbors(active)
        return [w for w in nbrs if w in within] or nbrs


class AdjustedDFSPolicy(_RecencyPolicy):
    """DFS that, once the cycle is known, moves from the latest stacked node next to a
    frontier node whose one path passes the cycle entrance, if there is one.  On every
    state ``adfs`` reaches, that is the latest next to any one-path frontier node while
    one passes the entrance, else next to any two-path one; on a state only another
    policy or a hand-built sequence reaches, the two may differ."""

    kind = "adfs"

    def eligible(self, state: SearchState) -> Sequence[int]:
        stack = state.active_stack
        active = stack[-1]
        if state.cycle_among_visited:
            passes_entrance = state.profile.passes_entrance
            gates = {w for w in state.frontier if passes_entrance(w)}
            if gates:
                active = _last_with(state, stack, gates)
        return state.unvisited_neighbors(active)


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


class MixturePolicy(SeekerPolicy):
    """Upfront mixture: one component is drawn per episode and played throughout,
    so the mixture itself has no per-step distribution."""

    def __init__(self, components, kind: str):
        self.components: tuple[tuple[Fraction, SeekerPolicy], ...] = tuple(components)
        if sum(w for w, _ in self.components) != 1:
            raise ValueError("mixture weights must sum to 1")
        if any(w <= 0 for w, _ in self.components):
            raise ValueError("mixture weights must be positive")
        self.kind = kind
        self.thresholds = cumulative_thresholds(w for w, _ in self.components)

    @cached_property
    def identifier(self) -> str:
        inner = ",".join(f"{w}*{p.identifier}" for w, p in self.components)
        return f"{self.kind}[upfront:{inner}]"

    def distribution(self, state: SearchState) -> tuple[int, ...]:
        raise PolicyViolation("strategy-level mixture has no per-step distribution; "
                              "execute/enumerate it componentwise")


# The weight of each component of sigma_star, by policy kind, in draw order.
SIGMA_STAR_WEIGHTS: dict[str, Fraction] = {
    "dfs": Fraction(3, 8),
    "adfs": Fraction(3, 8),
    "dfs_d": Fraction(1, 4),
}


def check_bound(kind: str, d: int | None) -> None:
    """Refuse a bound ``d`` that the policy ``kind`` does not take: ``dfs_d``
    needs an ``int`` (not a ``bool``) ``d >= 0`` and ``sigma_star`` one ``d >= 1``;
    the rest ignore it."""
    if kind not in ("dfs_d", "sigma_star"):
        return
    if type(d) is not int:
        raise ValueError(f"{kind} needs a bound d" if d is None else f"bound {d!r} is not an integer")
    if kind == "dfs_d" and d < 0:
        raise ValueError("bound must be non-negative")
    if kind == "sigma_star" and d < 1:
        raise ValueError("mixture needs a positive bound")


def sigma_star(d: int) -> MixturePolicy:
    """The 3/8 dfs + 3/8 adfs + 1/4 dfs_d seeker mixture."""
    check_bound("sigma_star", d)
    components = [(w, policy_from_id(kind, d=d)) for kind, w in SIGMA_STAR_WEIGHTS.items()]
    return MixturePolicy(components, kind="sigma_star")


def policy_from_id(kind: str, d: int | None = None) -> SeekerPolicy:
    """The policy of a strategy id: ``dfs``, ``dfs_d``, ``adfs`` or ``sigma_star``."""
    if kind == "dfs":
        return DFSPolicy()
    if kind == "adfs":
        return AdjustedDFSPolicy()
    if kind == "dfs_d":
        return BoundedDFSPolicy(d)
    if kind == "sigma_star":
        return sigma_star(d)
    raise ValueError(f"unknown policy id {kind!r}")


def draw(moves: Sequence[int], sums: Sequence[float], rng: random.Random) -> int:
    """The first move whose running sum exceeds a uniform draw, with ``sums``
    as :func:`uniform_table` gives them."""
    return moves[bisect_right(sums, rng.random())]


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
    """The first item whose cumulative threshold exceeds ``r < 1``; the thresholds
    must increase to 1.0, as :func:`cumulative_thresholds` of positive weights do."""
    return items[bisect_right(thresholds, r)]


def checked_distribution(policy: SeekerPolicy, state: SearchState) -> tuple[int, ...]:
    """``policy.distribution(state)``, refused unless every move is onto the frontier."""
    moves = policy.distribution(state)
    if not state.frontier.issuperset(moves):
        raise PolicyViolation(f"policy {policy.identifier} proposed a node off the frontier")
    return moves


TRIE_ENTRIES = 1 << 18  # a decision trie stops growing once it holds this many moves


def _walk(
    policy: SeekerPolicy,
    g: Graph,
    rng: random.Random,
    stop_at: int | None,
    cache: dict,
) -> list[int]:
    if isinstance(policy, MixturePolicy):
        policy = pick_by_thresholds(policy.components, policy.thresholds, rng.random())[1]
    n = g.n
    last = g.source
    visited = [last]
    # the decision trie of (g, policy): [moves held, {source: root}], where a
    # node is (moves, running sums, {next pick: child node}), as draw reads
    # them, or (run, None, {run[-1]: child node}) for a run of forced moves,
    # each of which takes one draw's worth of the rng
    key = (g, policy.identifier)
    trie = cache.get(key)
    if trie is None:
        trie = cache[key] = [0, {}]
    level = trie[1]
    while last != stop_at:
        node = level.get(last)  # None once every node is visited: no walk stores a node there
        if node is None:
            break
        moves, sums, level = node
        if sums is None:
            if stop_at in moves:
                moves = moves[:moves.index(stop_at) + 1]
            visited += moves
            rng.getrandbits(64 * len(moves))  # the state len(moves) random() calls leave
            last = moves[-1]
        else:
            last = draw(moves, sums, rng)
            visited.append(last)
    if last == stop_at or len(visited) == n:
        return visited
    # off the trie, and so for the rest of the episode: one replay, then the
    # state follows each move; the trie grows by the node where the walk left
    # it, so the prefixes that recur most are stored first, and a forced node
    # is stored with the forced moves after it as one run
    state = SearchState(g, visited)
    visited = state.visited
    grow = trie[0] < TRIE_ENTRIES
    start = end = len(visited)  # the forced moves to store as one run are visited[start:end]
    while len(visited) < n and last != stop_at:
        moves = checked_distribution(policy, state)
        sums = uniform_table(len(moves))
        if grow:
            if len(moves) == 1:
                end += 1
            else:
                grow = False
                if start == end:
                    level[last] = (moves, sums, {})
                    trie[0] += len(moves)
        last = draw(moves, sums, rng)
        state.push(last)
    if end > start:
        level[visited[start - 1]] = (tuple(visited[start:end]), None, {})
        trie[0] += end - start
    return visited


def execute(
    policy: SeekerPolicy,
    g: Graph,
    rng: random.Random,
    cache: dict | None = None,
) -> tuple[int, ...]:
    """The visit sequence of one episode run to completion (a permutation of
    the nodes, source first); deterministic given the rng stream.

    ``cache`` maps ``(graph, policy identifier)`` to that pair's decision
    trie and carries the tries from one episode to the next.  Without one
    the walk starts on an empty trie, so it reads no stored move.
    """
    return tuple(_walk(policy, g, rng, None, {} if cache is None else cache))


def sample_position(
    policy: SeekerPolicy,
    g: Graph,
    h: int,
    rng: random.Random,
    cache: dict | None = None,
) -> int:
    """Position of ``h`` in one sampled episode, stopping once it is found.

    Consumes the same rng prefix as :func:`execute`, so the value is exactly
    the index of ``h`` in the full episode's visit sequence.
    """
    check_node(g.n, h, "target")
    return len(_walk(policy, g, rng, h, {} if cache is None else cache)) - 1
