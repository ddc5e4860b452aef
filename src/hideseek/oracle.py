"""Ground-truth engines: exact enumeration of randomized policies.

Every quantity here is a fold over one expansion of a policy's decision tree
(:func:`_expand`) with exact arithmetic, so results are suitable as an
independent oracle for the closed forms in :mod:`hideseek.analysis`.  The
folds accumulate exact integers over a common denominator (one per state
for the children-first folds, one per decision DAG for the tables) and
return reduced ``fractions.Fraction`` values, each built once.

Single-target enumeration is sequence-keyed by default (no state is ever
merged).  Passing ``memoized=True`` merges the states with equal visited
sets and equal ``SeekerPolicy.state_key``, which turns the tree into a DAG;
the two modes are required to agree and that equality is part of the test
suite.  Single-target quantities fold during the expansion and stop at their
targets; whole tables always merge, store the DAG and push probability mass
through it from the root.  Upfront mixtures are always enumerated
componentwise and recombined by their weights.  No table is kept once its
question is answered.

A memoized walk of a ``label_free`` policy (``dfs``, ``dfs_d`` and ``adfs``)
whose fold reads no node label but the source's and its stop nodes' (``h``
of :func:`exact_expected_pos`, ``v`` and ``t`` of :func:`exact_visit_prob`)
also merges false twins, nodes with the same neighbours (:func:`twin_classes`):
it expands only the lowest of a state's moves in each twin class and gives
the others its value.  Swapping two unvisited twins fixes the state, so a
label-free policy makes them eligible together; a move onto a stop node is
taken first and the source is never a move, so the swap fixes every node
the fold reads.  Twins are thus visited in label order, and the plain
visited mask merges what a key counting twins alike would: ``palm_tree(n, d)``
takes n - 1 states for a crown target instead of 2**(n - d - 1) + d - 1.
:func:`search_value_range` splits the classes by hiding weight.  The tables
record visited labels, so they merge no twins.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Sequence

from .errors import TooLarge
from .graphs import Graph, bfs_distances, check_node
from .hider import BenefitFunction, HiderStrategy, tree_classes
from .seeker import MixturePolicy, SearchState, SeekerPolicy, checked_distribution

# twin merging makes larger palms cheap, but the limit stays: the Monte Carlo
# rows' exact column and the lemma2 suite's cap read it
DEFAULT_NODE_LIMIT = 12


def _guard(n: int, node_limit: int | None = DEFAULT_NODE_LIMIT) -> None:
    if node_limit is not None and n > node_limit:
        raise TooLarge(f"enumeration guard: n = {n} exceeds {node_limit}")


def componentwise(policy: SeekerPolicy, quantity: Callable):
    """``quantity(policy)``, with an upfront mixture taken per component and
    recombined by its weights (value by value when ``quantity`` gives dicts)."""
    if not isinstance(policy, MixturePolicy):
        return quantity(policy)
    parts = [(w, quantity(p)) for w, p in policy.components]
    if not isinstance(parts[0][1], dict):
        return _dot(parts)
    keys = dict.fromkeys(key for _, part in parts for key in part)
    return {key: _dot([(w, part.get(key, 0)) for w, part in parts]) for key in keys}


def twin_classes(g: Graph, weight: Sequence = ()) -> list[int]:
    """Each node's class of false twins, named by its lowest member: the nodes
    with the same neighbours and, given ``weight``, the same weight.

    Swapping two twins is an automorphism of ``g``, which maps a weight onto
    itself when the twins weigh the same."""
    lowest: dict = {}
    return [lowest.setdefault((g.adj[v], weight[v] if weight else None), v) for v in range(g.n)]


def _expand(policy: SeekerPolicy, g: Graph, memoized: bool, fold: Callable, stop=(), twins=None):
    """Fold over the decision tree of ``policy`` on ``g``, children first.

    ``fold(state, edges)`` runs once per distinct state, with ``state`` at that
    point and ``edges`` its k moves, each taken with probability 1/k, as
    ``(move, child)``: ``child`` is what the fold gave for the state the move
    leads to, or ``None`` for a move onto a node in ``stop``, which is not
    expanded.  With ``memoized``, states with equal visited sets and equal
    ``policy.state_key`` are expanded once and share that value.
    ``twins``, classes as :func:`twin_classes` gives them, says that the fold
    cannot tell apart two twins of one class outside ``stop``; with ``memoized`` and a
    ``label_free`` policy, only the lowest move in each class is expanded
    and the others share its value (the module docstring says why).
    A move off the frontier raises ``PolicyViolation``.  Returns the root's value.

    The walk keeps its own stack, one frame per visit, so its depth is not
    bounded by Python's recursion limit.
    """
    if twins is None or not (memoized and policy.label_free):
        twins = range(g.n)
    state = SearchState(g)
    mask = 1 << g.source  # the visited set
    root = policy.state_key(state) if memoized else None
    memoized = root is not None
    memo: dict = {}
    # the states on the current visit sequence, root first, each as (memo key,
    # its moves not yet taken, its edges so far, the value per twin class)
    frames = [_frame(policy, state, (mask, root) if memoized else None)]
    while True:
        key, moves, edges, shared = frames[-1]
        for w in moves:
            if w in stop:
                edges.append((w, None))
                continue
            value = shared.get(twins[w])
            if value is None:
                state.push(w)
                mask ^= 1 << w
                child = (mask, policy.state_key(state)) if memoized else None
                value = memo.get(child)
                if value is None:
                    frames.append(_frame(policy, state, child))
                    break
                state.pop()
                mask ^= 1 << w
                shared[twins[w]] = value
            edges.append((w, value))
        else:
            value = fold(state, edges)
            if key is not None:
                memo[key] = value
            frames.pop()
            if not frames:
                return value
            w = state.pop()
            mask ^= 1 << w
            _, _, edges, shared = frames[-1]
            edges.append((w, value))
            shared[twins[w]] = value


def _frame(policy: SeekerPolicy, state: SearchState, key) -> tuple:
    """A stack frame of :func:`_expand` for the state just entered."""
    if len(state.visited) == state.g.n:
        return key, iter(()), [], {}
    return key, iter(checked_distribution(policy, state)), [], {}


def _moves(policy: SeekerPolicy, g: Graph, memoized: bool) -> tuple[int, Iterator[tuple[tuple, int, int]]]:
    """The common denominator ``D`` of the stored decision DAG's move
    probabilities, and every move as ``(visited, move, D * probability of
    reaching the state and taking the move)``, parents before children.

    With ``L`` the lcm of the states' non-zero move counts k (each move's
    weight is 1/k), ``D = L**(n-1)``.  A state with a move left has taken at
    most n-2 moves, so its integer mass is a multiple of ``L`` and each move's
    share is exact."""
    records: list = []  # (visited, edges with child indices); children first, the root last

    def record(state, edges):
        records.append((tuple(state.visited), edges))
        return len(records) - 1

    _expand(policy, g, memoized, record)
    # a finished state has no move, and math.lcm(0, ...) is 0
    total = math.lcm(*{len(edges) for _, edges in records if edges}) ** (g.n - 1)

    def moves():
        mass = [0] * len(records)
        mass[-1] = total
        for i in reversed(range(len(records))):
            visited, edges = records[i]
            if not edges:
                continue
            q = mass[i] // len(edges)
            for w, child in edges:
                mass[child] += q
                yield visited, w, q

    return total, moves()


def _mean(terms, k: int) -> Fraction:
    """The sum of ``terms``, rationals, over ``k``, the state's move count, as one
    reduced ``Fraction``: the terms are summed as integers over the lcm of their denominators."""
    dens = [x.denominator for x in terms]
    lcm = math.lcm(*dens)
    return Fraction(sum(x.numerator * (lcm // den) for x, den in zip(terms, dens)), lcm * k)


def _dot(terms) -> Fraction:
    """The sum of ``a * b`` over ``terms``, pairs of rationals, as one reduced
    ``Fraction``: the products are summed as integers over the lcm of their denominators."""
    dens = [a.denominator * b.denominator for a, b in terms]
    lcm = math.lcm(*dens)
    return Fraction(sum(a.numerator * b.numerator * (lcm // den) for (a, b), den in zip(terms, dens)), lcm)


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
    _guard(g.n, node_limit)
    if h == g.source:
        return Fraction(0)

    def value(state, edges):
        k = len(state.visited)
        return _mean([k if child is None else child for _, child in edges], len(edges))

    twins = twin_classes(g)
    return componentwise(policy, lambda p: _expand(p, g, memoized, value, (h,), twins))


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
    _guard(g.n, node_limit)
    if v == g.source:
        return Fraction(1)
    if t == g.source:
        return Fraction(0)

    def value(state, edges):
        return _mean([1 if w == v else child for w, child in edges if w != t], len(edges))

    twins = twin_classes(g)
    return componentwise(policy, lambda p: _expand(p, g, memoized, value, (v, t), twins))


def exact_position_table(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = DEFAULT_NODE_LIMIT,
) -> dict[int, Fraction]:
    """Expected position of every node, from one forward pass over the decision DAG."""
    _guard(g.n, node_limit)

    def table(p):
        total, moves = _moves(p, g, True)
        out = [0] * g.n
        for visited, w, q in moves:
            out[w] += q * len(visited)
        return {w: Fraction(x, total) for w, x in enumerate(out)}

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
    _guard(g.n, node_limit)

    def table(p):
        total, moves = _moves(p, g, True)
        out = {(v, t): 0 for t in range(g.n) for v in range(g.n) if v != t}
        for visited, t, q in moves:
            for v in visited:
                out[v, t] += q
        return {pair: Fraction(x, total) for pair, x in out.items()}

    return componentwise(policy, table)


def episode_distribution(
    policy: SeekerPolicy,
    g: Graph,
    *,
    node_limit: int | None = 8,
) -> dict[tuple[int, ...], Fraction]:
    """Full distribution over seeking sequences (small instances only)."""
    _guard(g.n, node_limit)

    def sequences(p):
        total, moves = _moves(p, g, False)
        leaves = {visited + (w,): Fraction(q, total) for visited, w, q in moves if len(visited) == g.n - 1}
        return leaves or {(g.source,): Fraction(1)}  # only a one-node graph has no move

    return componentwise(policy, sequences)


def cached_position_table(policy: SeekerPolicy, g: Graph) -> dict[int, Fraction]:
    """:func:`exact_position_table` without the guard."""
    # nothing in the package calls this; it stays only because
    # benchmarks/tracer.py looks it up by name (ROADMAP item 7 deletes it)
    return exact_position_table(policy, g, node_limit=None)


def best_response_hider(
    n: int,
    benefits: Sequence[BenefitFunction],
    policy: SeekerPolicy,
) -> list[tuple[Graph, int, Fraction]]:
    """Exhaustive best response to each of ``benefits`` over all labeled trees
    on ``n`` nodes with source 0 and their hiding nodes, from one walk of the
    trees.  ``policy`` must be label-free, so that isomorphic rooted trees
    give equal payoffs and one tree per class stands for the whole class.

    Per benefit, the first ``(class representative, hiding node, payoff)``
    with the highest payoff benefit(distance) * expected position, in the
    order of :func:`tree_classes`, which checks ``n``.
    """
    best: list = [None] * len(benefits)
    for g, _ in tree_classes(n):
        table = exact_position_table(policy, g, node_limit=None)
        dist = bfs_distances(g, g.source)
        for h in range(n):
            for i, benefit in enumerate(benefits):
                payoff = benefit(dist[h]) * table[h]
                if best[i] is None or payoff > best[i][2]:
                    best[i] = (g, h, payoff)
    return best


def hider_value(policy: SeekerPolicy, strategy: HiderStrategy, *, node_limit: int | None = DEFAULT_NODE_LIMIT) -> Fraction:
    """Expected position of the hidden node under a mixed hiding strategy;
    every graph of the strategy is checked against ``node_limit`` before the first walk."""
    graphs = dict.fromkeys(g for g, _, _ in strategy.atoms)
    for g in graphs:
        _guard(g.n, node_limit)
    tables = {g: exact_position_table(policy, g, node_limit=None) for g in graphs}
    return sum((p * tables[g][h] for g, h, p in strategy.atoms), Fraction(0))


class _EverySearch(SeekerPolicy):
    """Every expanding search at once: the whole frontier is eligible, and a state
    is keyed by its visited set alone, all that the positions still to come depend on."""

    kind = "every_search"
    label_free = True

    def eligible(self, state: SearchState) -> Sequence[int]:
        return state.frontier

    def state_key(self, state: SearchState) -> Hashable:
        return ()


def search_value_range(strategy: HiderStrategy) -> tuple[Fraction, Fraction]:
    """The least and the greatest expected position of the hidden node over every
    expanding search of the strategy's one graph (``ValueError`` for more graphs).

    Any seeker, randomised or label-reading, mixes deterministic orders, so
    ``least == greatest`` holds every seeker to that value.  From k visited
    nodes a move onto ``w`` finds the hider there at position k, so a state's
    range is the min and the max over its moves of k * P(w) plus the child's."""
    graphs = {g for g, _, _ in strategy.atoms}
    if len(graphs) > 1:
        raise ValueError(f"the strategy is spread over {len(graphs)} graphs; the range needs one")
    g, = graphs
    _guard(g.n)
    denom = math.lcm(*(p.denominator for _, _, p in strategy.atoms))
    weight = [0] * g.n  # denom * P(hider at each node)
    for _, h, p in strategy.atoms:
        weight[h] += p.numerator * (denom // p.denominator)

    def value(state, edges):
        if not edges:
            return 0, 0
        k = len(state.visited)
        return (min(k * weight[w] + child[0] for w, child in edges),
                max(k * weight[w] + child[1] for w, child in edges))

    least, greatest = _expand(_EverySearch(), g, True, value, twins=twin_classes(g, weight))
    return Fraction(least, denom), Fraction(greatest, denom)


def reachable_observations(policy: SeekerPolicy, g: Graph,
                           look: Callable[[SearchState, tuple[int, ...]], object]) -> None:
    """Call ``look(state, moves)`` at every state with a move left that is reachable
    with positive probability under ``policy``, sequence-keyed and children first;
    ``moves`` are the nodes the walk drew uniformly among there and ``state`` is
    valid only during the call."""

    def fold(state, edges):
        if edges:
            look(state, tuple([w for w, _ in edges]))

    _expand(policy, g, False, fold)
