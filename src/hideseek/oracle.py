"""Ground-truth engines: exact enumeration of randomized policies.

Everything here walks the full decision tree of a policy with exact rational
arithmetic, so results are suitable as an independent oracle for the closed
forms in :mod:`hideseek.analysis`.

Enumeration is sequence-keyed by default (no state is ever merged).  Passing
``memoized=True`` collapses the visit sequence to the policy's declared
sufficient statistic (``SeekerPolicy.state_key``); the two modes are required
to agree and that equality is part of the test suite.  Upfront mixtures are
always enumerated componentwise and recombined by their weights.

Each walk drives one :class:`~hideseek.seeker.SearchState` depth first,
pushing a move before it descends and popping it on the way back.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import TooLarge
from .graphs import Graph, bfs_distances
from .hider import BenefitFunction, HiderStrategy, all_trees
from .seeker import MixturePolicy, SearchState, SeekerPolicy, battery_policies

DEFAULT_NODE_LIMIT = 12
_MISS = object()


def _guard(g: Graph, node_limit: int | None) -> None:
    if node_limit is not None and g.n > node_limit:
        raise TooLarge(f"enumeration guard: n = {g.n} exceeds {node_limit}")


def _components(policy: SeekerPolicy):
    if isinstance(policy, MixturePolicy) and not policy.pointwise:
        return policy.components
    return None


def exact_expected_pos(
    policy: SeekerPolicy,
    g: Graph,
    h: int,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    memoized: bool = False,
) -> Fraction:
    """Exact expected 0-based position of ``h`` in the induced seeking sequence."""
    _guard(g, node_limit)
    comps = _components(policy)
    if comps is not None:
        return sum(
            (w * exact_expected_pos(p, g, h, node_limit=node_limit, memoized=memoized)
             for w, p in comps),
            Fraction(0),
        )
    if h == g.source:
        return Fraction(0)
    state = SearchState(g)
    memo: dict = {}

    def go() -> Fraction:
        key = policy.state_key(state) if memoized else None
        if key is not None:
            hit = memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        k = len(state.visited)
        total = Fraction(0)
        for w, p in policy.distribution(state):
            if w == h:
                total += p * k
            else:
                state.push(w)
                total += p * go()
                state.pop()
        if key is not None:
            memo[key] = total
        return total

    return go()


def exact_visit_prob(
    policy: SeekerPolicy,
    g: Graph,
    v: int,
    t: int,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    memoized: bool = False,
) -> Fraction:
    """Exact probability that ``v`` is visited strictly before ``t``."""
    if v == t:
        raise ValueError("nodes must be distinct")
    _guard(g, node_limit)
    comps = _components(policy)
    if comps is not None:
        return sum(
            (w * exact_visit_prob(p, g, v, t, node_limit=node_limit, memoized=memoized)
             for w, p in comps),
            Fraction(0),
        )
    if v == g.source:
        return Fraction(1)
    if t == g.source:
        return Fraction(0)
    state = SearchState(g)
    memo: dict = {}

    def go() -> Fraction:
        key = policy.state_key(state) if memoized else None
        if key is not None:
            hit = memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        total = Fraction(0)
        for w, p in policy.distribution(state):
            if w == v:
                total += p
            elif w != t:
                state.push(w)
                total += p * go()
                state.pop()
        if key is not None:
            memo[key] = total
        return total

    return go()


def exact_position_table(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    memoized: bool = True,
) -> dict[int, Fraction]:
    """Expected position of every node, from one pass over the decision tree."""
    _guard(g, node_limit)
    comps = _components(policy)
    if comps is not None:
        merged = {v: Fraction(0) for v in g.node_set}
        for w, p in comps:
            part = exact_position_table(p, g, node_limit=node_limit, memoized=memoized)
            for v, val in part.items():
                merged[v] += w * val
        return merged
    state = SearchState(g)
    memo: dict = {}
    full = g.node_set

    def go() -> dict[int, Fraction]:
        # expected number of further steps until each unvisited node is reached
        if len(state.visited) == g.n:
            return {}
        key = policy.state_key(state) if memoized else None
        if key is not None:
            hit = memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        acc = dict.fromkeys(full - state.visited_set, Fraction(1))
        for w, p in policy.distribution(state):
            state.push(w)
            child = go()
            state.pop()
            for v, offset in child.items():
                acc[v] += p * offset
        if key is not None:
            memo[key] = acc
        return acc

    offsets = go()
    table = {g.source: Fraction(0)}
    for v, offset in offsets.items():
        table[v] = offset  # offsets from a single visited node are absolute positions
    return table


def episode_distribution(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = 8,
) -> dict[tuple[int, ...], Fraction]:
    """Full distribution over seeking sequences (small instances only)."""
    _guard(g, node_limit)
    comps = _components(policy)
    if comps is not None:
        merged: dict[tuple[int, ...], Fraction] = {}
        for w, p in comps:
            for seq, q in episode_distribution(p, g, node_limit=node_limit).items():
                merged[seq] = merged.get(seq, Fraction(0)) + w * q
        return merged
    state = SearchState(g)
    out: dict[tuple[int, ...], Fraction] = {}

    def go(prob: Fraction) -> None:
        if len(state.visited) == g.n:
            seq = tuple(state.visited)
            out[seq] = out.get(seq, Fraction(0)) + prob
            return
        for w, p in policy.distribution(state):
            state.push(w)
            go(prob * p)
            state.pop()

    go(Fraction(1))
    return out


_TABLE_CACHE: dict[tuple[Graph, str], dict[int, Fraction]] = {}


def cached_position_table(policy: SeekerPolicy, g: Graph) -> dict[int, Fraction]:
    key = (g, policy.identifier)
    hit = _TABLE_CACHE.get(key)
    if hit is None:
        hit = exact_position_table(policy, g, node_limit=None, memoized=True)
        _TABLE_CACHE[key] = hit
    return hit


def best_response_hider(
    n: int,
    benefit: BenefitFunction,
    policy: SeekerPolicy,
) -> tuple[Graph, int, Fraction]:
    """Exhaustive best response over all labeled trees and hiding nodes."""
    if n > 8:
        raise TooLarge("best-response search capped at n = 8")
    best: tuple[Graph, int, Fraction] | None = None
    for g in all_trees(n):
        table = cached_position_table(policy, g)
        dist = bfs_distances(g, g.source)
        for h in range(n):
            payoff = benefit(dist[h]) * table[h]
            if best is None or payoff > best[2]:
                best = (g, h, payoff)
    assert best is not None
    return best


def hider_value(policy: SeekerPolicy, strategy: HiderStrategy, *, node_limit: int | None = DEFAULT_NODE_LIMIT) -> Fraction:
    """Expected position of the hidden node under a mixed hiding strategy."""
    return sum(
        (p * exact_expected_pos(policy, g, h, node_limit=node_limit, memoized=True)
         for g, h, p in strategy.atoms),
        Fraction(0),
    )


def adversarial_policy_battery(
    g: Graph,
    strategy: HiderStrategy,
    d: int | None = None,
    *,
    node_limit: int | None = 10,
) -> list[tuple[str, Fraction]]:
    """Expected positions for the whole policy battery against a hiding strategy."""
    _guard(g, node_limit)
    if d is None:
        dist = bfs_distances(g, g.source)
        d = max(dist[h] for _, h, _ in strategy.atoms)
    results = []
    for policy in battery_policies(max(d, 1)):
        results.append((policy.identifier, hider_value(policy, strategy, node_limit=node_limit)))
    return results


def reachable_observations(policy: SeekerPolicy, g: Graph) -> Iterator[SearchState]:
    """Every state reachable with positive probability under ``policy``.

    Each yielded state is a copy of its own, so it stays valid as the walk
    moves on.
    """
    state = SearchState(g)

    def go() -> Iterator[SearchState]:
        if len(state.visited) == g.n:
            return
        yield SearchState(g, state.visited)
        for w, _ in policy.distribution(state):
            state.push(w)
            yield from go()
            state.pop()

    yield from go()
