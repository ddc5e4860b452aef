"""Ground-truth engines: exact enumeration of randomized policies.

Every quantity here is a fold over one expansion of a policy's decision tree
(:func:`_expand`) with exact rational arithmetic, so results are suitable as
an independent oracle for the closed forms in :mod:`hideseek.analysis`.

Enumeration is sequence-keyed by default (no state is ever merged).  Passing
``memoized=True`` merges the states with equal ``SeekerPolicy.state_key``,
which turns the tree into a DAG; the two modes are required to agree and that
equality is part of the test suite.  Single-target quantities fold during the
expansion and stop at their targets; whole tables store the DAG and push
probability mass through it from the root.  Upfront mixtures are always
enumerated componentwise and recombined by their weights.  No table is kept
once its question is answered.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import TooLarge
from .graphs import Graph, bfs_distances, check_node
from .hider import BenefitFunction, HiderStrategy, all_trees
from .seeker import Distribution, MixturePolicy, SearchState, SeekerPolicy, battery_policies

DEFAULT_NODE_LIMIT = 12


def _guard(g: Graph, node_limit: int | None) -> None:
    if node_limit is not None and g.n > node_limit:
        raise TooLarge(f"enumeration guard: n = {g.n} exceeds {node_limit}")


def componentwise(policy: SeekerPolicy, quantity: Callable):
    """``quantity(policy)``, with an upfront mixture taken per component and
    recombined by its weights (value by value when ``quantity`` gives dicts)."""
    if not isinstance(policy, MixturePolicy) or policy.pointwise:
        return quantity(policy)
    parts = [(w, quantity(p)) for w, p in policy.components]
    if not isinstance(parts[0][1], dict):
        return sum((w * part for w, part in parts), Fraction(0))
    merged: dict = {}
    for w, part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, Fraction(0)) + w * value
    return merged


def _expand(policy: SeekerPolicy, g: Graph, memoized: bool, fold: Callable, stop=()):
    """Fold over the decision tree of ``policy`` on ``g``, children first.

    ``fold(state, edges)`` runs once per distinct state, with ``state`` at that
    point and ``edges`` its moves as ``(move, weight, child)``: ``child`` is
    what the fold gave for the state the move leads to, or ``None`` for a move
    onto a node in ``stop``, which is not expanded.  With ``memoized``, states
    with equal ``policy.state_key`` are expanded once and share that value.
    Returns the root's value.
    """
    state = SearchState(g)
    memo: dict = {}

    def go():
        key = policy.state_key(state) if memoized else None
        if key is not None:
            hit = memo.get(key)
            if hit is not None:
                return hit
        edges = []
        if len(state.visited) < g.n:
            for w, p in policy.distribution(state):
                if w in stop:
                    edges.append((w, p, None))
                else:
                    state.push(w)
                    edges.append((w, p, go()))
                    state.pop()
        value = fold(state, edges)
        if key is not None:
            memo[key] = value
        return value

    root = go()
    del go  # go's closure holds go itself: break that cycle so the memo is freed now
    return root


def _moves(policy: SeekerPolicy, g: Graph, memoized: bool) -> Iterator[tuple[tuple, int, Fraction]]:
    """Every move of the stored decision DAG as ``(visited, move, probability
    of reaching the state and taking the move)``, parents before children."""
    records: list = []  # (visited, edges with child indices); children first, the root last

    def record(state, edges):
        records.append((tuple(state.visited), edges))
        return len(records) - 1

    _expand(policy, g, memoized, record)
    mass = [Fraction(0)] * len(records)
    mass[-1] = Fraction(1)
    for i in reversed(range(len(records))):
        visited, edges = records[i]
        for w, p, child in edges:
            q = mass[i] * p
            mass[child] += q
            yield visited, w, q


def exact_expected_pos(
    policy: SeekerPolicy,
    g: Graph,
    h: int,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    memoized: bool = False,
) -> Fraction:
    """Exact expected 0-based position of ``h`` in the induced seeking sequence."""
    check_node(g.n, h, "target")
    _guard(g, node_limit)
    if h == g.source:
        return Fraction(0)

    def value(state, edges):
        k = len(state.visited)
        return sum((p * (k if child is None else child) for _, p, child in edges), Fraction(0))

    return componentwise(policy, lambda p: _expand(p, g, memoized, value, (h,)))


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
    check_node(g.n, v)
    check_node(g.n, t, "target")
    _guard(g, node_limit)
    if v == g.source:
        return Fraction(1)
    if t == g.source:
        return Fraction(0)

    def value(state, edges):
        return sum((p if w == v else p * child for w, p, child in edges if w != t), Fraction(0))

    return componentwise(policy, lambda p: _expand(p, g, memoized, value, (v, t)))


def exact_position_table(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
    memoized: bool = True,
) -> dict[int, Fraction]:
    """Expected position of every node, from one forward pass over the decision DAG."""
    _guard(g, node_limit)

    def table(p):
        out = dict.fromkeys(range(g.n), Fraction(0))
        for visited, w, q in _moves(p, g, memoized):
            out[w] += q * len(visited)
        return out

    return componentwise(policy, table)


def exact_visit_table(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
) -> dict[tuple[int, int], Fraction]:
    """P(``v`` visited strictly before ``t``) for every ordered pair ``(v, t)`` of
    distinct nodes, from one forward pass: each move onto ``t`` adds its
    probability to every ``(v, t)`` with ``v`` already visited."""
    _guard(g, node_limit)

    def table(p):
        out = {(v, t): Fraction(0) for t in range(g.n) for v in range(g.n) if v != t}
        for visited, t, q in _moves(p, g, True):
            for v in visited:
                out[v, t] += q
        return out

    return componentwise(policy, table)


def episode_distribution(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = 8,
) -> dict[tuple[int, ...], Fraction]:
    """Full distribution over seeking sequences (small instances only)."""
    _guard(g, node_limit)

    def sequences(p):
        leaves = {visited + (w,): q for visited, w, q in _moves(p, g, False) if len(visited) == g.n - 1}
        return leaves or {(g.source,): Fraction(1)}  # only a one-node graph has no move

    return componentwise(policy, sequences)


def cached_position_table(policy: SeekerPolicy, g: Graph) -> dict[int, Fraction]:
    """:func:`exact_position_table` without the guard."""
    # nothing in the package calls this; it stays only because
    # benchmarks/tracer.py looks it up by name (ROADMAP item 4 deletes it)
    return exact_position_table(policy, g, node_limit=None)


def best_response_hider(
    n: int,
    benefits: Sequence[BenefitFunction],
    policy: SeekerPolicy,
) -> list[tuple[Graph, int, Fraction]]:
    """Exhaustive best response to each of ``benefits`` over all labeled trees
    on ``n`` nodes and their hiding nodes, from one enumeration of the trees.

    Per benefit, the first ``(tree, hiding node, payoff)`` with the highest
    payoff benefit(distance) * expected position.  ``all_trees`` checks ``n``.
    """
    best: list = [None] * len(benefits)
    for g in all_trees(n):
        table = exact_position_table(policy, g, node_limit=None)
        dist = bfs_distances(g, g.source)
        for h in range(n):
            for i, benefit in enumerate(benefits):
                payoff = benefit(dist[h]) * table[h]
                if best[i] is None or payoff > best[i][2]:
                    best[i] = (g, h, payoff)
    return best


def hider_value(policy: SeekerPolicy, strategy: HiderStrategy, *, node_limit: int | None = DEFAULT_NODE_LIMIT) -> Fraction:
    """Expected position of the hidden node under a mixed hiding strategy."""
    graphs = {g for g, _, _ in strategy.atoms}
    tables = {g: exact_position_table(policy, g, node_limit=node_limit) for g in graphs}
    return sum((p * tables[g][h] for g, h, p in strategy.atoms), Fraction(0))


def adversarial_policy_battery(
    g: Graph,
    strategy: HiderStrategy,
    d: int | None = None,
    *,
    node_limit: int | None = 10,
) -> list[tuple[str, Fraction]]:
    """Expected positions for the whole policy battery against a hiding strategy.

    An upfront mixture is read off the values of its components, each
    computed once however many battery entries need it."""
    _guard(g, node_limit)
    if d is None:
        dist = bfs_distances(g, g.source)
        d = max(dist[h] for _, h, _ in strategy.atoms)
    values: dict[str, Fraction] = {}

    def value(policy: SeekerPolicy) -> Fraction:
        key = policy.identifier
        if key not in values:
            values[key] = hider_value(policy, strategy, node_limit=node_limit)
        return values[key]

    return [(policy.identifier, componentwise(policy, value)) for policy in battery_policies(max(d, 1))]


def reachable_observations(policy: SeekerPolicy, g: Graph,
                           look: Callable[[SearchState, Distribution], object]) -> None:
    """Call ``look(state, moves)`` at every state with a move left that is reachable
    with positive probability under ``policy``, sequence-keyed and children first;
    ``moves`` is the distribution the walk drew there and ``state`` is valid only
    during the call."""

    def fold(state, edges):
        if edges:
            look(state, tuple((w, p) for w, p, _ in edges))

    _expand(policy, g, False, fold)
