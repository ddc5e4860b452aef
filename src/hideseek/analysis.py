"""Closed-form engine: expectation formulas and pairwise visit-order tables.

The pairwise tables give, for ``dfs``, ``adfs`` and ``dfs_d``, the exact
probability that a node ``v`` is visited before the hiding node ``t`` on a
graph with at most one cycle.  Values depend only on coarse structural classes,
all read off the source's :class:`~hideseek.graphs.PathProfile`:

* how many simple paths reach a node and how many of them fit the bound ``d``:
  the ``within``, ``one_short`` and ``two_short`` fields of
  :class:`~hideseek.graphs.BoundedClassSets` (``prof.bounded_sets(d)``);
* whether a node sits on the cycle, strictly behind it, or before it;
* for nodes behind the cycle, where their paths leave it (the ``anchor``).

Each strategy's table is one ordered tuple of rows in :data:`RULES`: a
pattern over the pair's feature tuple (``_`` matches any value), a
``case_label`` and its probability.  The first row that matches answers.  A
row whose probability is ``None`` refuses with clause ``no-table-row``, so
combinations the tables do not cover are refused rather than extrapolated.
:data:`ROWS` maps each label to its probability, so coverage of the whole
table can be audited, and every returned probability is checked against the
enumeration oracle in the verification suites.

:func:`admitted_pairs` and :func:`pairwise_probability` read one derivation
that returns each refusal as ``(clause, detail)``; only the latter raises it,
as :class:`PreconditionViolated`.  Each node's classes are kept on its profile,
so the LRU of :func:`~hideseek.graphs.cached_profiles` bounds that cache.

``sigma_star`` has no table of its own.  It plays one component for the
whole episode, so its probability for a pair is the mixture of the three
component rows with the weights of :data:`hideseek.seeker.SIGMA_STAR_WEIGHTS`.
A pair is admitted only when every component admits it; otherwise the first
component's refusal answers, ``dfs_d`` asked first.  Its case label is
``sigma_star:`` followed by the ``dfs``, ``adfs`` and ``dfs_d`` labels joined
with ``|`` (no comma, so CSV rows keep six fields).

All arithmetic is exact (``fractions.Fraction``); floats never enter.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from .errors import NotATree, PreconditionViolated
from .graphs import Graph, PathProfile, cached_profiles, check_node, path_profiles
from .hider import BenefitFunction
from .seeker import SIGMA_STAR_WEIGHTS, check_bound

STRATEGIES = ("dfs", "dfs_d", "adfs", "sigma_star")

_ = None  # a pattern field that matches any value

# The rows dfs and adfs share, keyed by (class of t, class of v, degenerate
# exit); a probability of None refuses with the row's text as detail.
_UNBOUNDED_ROWS = [
    (("free", _, _), "free-target", Fraction(1, 2)),
    (("gate", "single", _), "gate-target:v-single", Fraction(1, 2)),
    (("cycle", "cycle", _), "cycle-pair", Fraction(1, 2)),
    (("cycle", _, _), "target on the cycle, v off it", None),
    (("behind", "cycle", _), "behind-target:v-cycle", Fraction(3, 4)),
    (("behind", "behind", _), "behind-target:v-behind", Fraction(1, 2)),
    (("behind", _, _), "target behind the cycle, single-path v", None),
]


def _named(strategy: str, rows: list) -> tuple[tuple[tuple, str, Fraction | None], ...]:
    """``rows`` with the strategy prefixed to each case label and refusal detail."""
    return tuple((pattern, f"{strategy}:{text}" if p is not None else f"{strategy}: {text}", p)
                 for pattern, text, p in rows)


# The pairwise tables: each strategy's rows, (feature pattern, case label or
# refusal detail, probability), tried in order; the first match answers.
RULES = {
    "dfs": _named("dfs", _UNBOUNDED_ROWS + [
        (("gate", _, _), "gate-target:v-double", Fraction(2, 3)),
    ]),
    "adfs": _named("adfs", _UNBOUNDED_ROWS + [
        (("gate", "cycle", _), "gate-target:v-cycle", Fraction(2, 3)),
        # The behind-the-cycle derivations picture the exit strictly between
        # the two entrance successors; a pendant hanging on a successor
        # collapses the independent coins they rely on.
        (("gate", _, True), "v hangs off an entrance successor (degenerate exit)", None),
        (("gate", _, _), "gate-target:v-behind", Fraction(1, 3)),
    ]),
    # (class of t, or far when v lies beyond d; class of v; t two-short;
    # v two-short; cycle fully short; v's exit and t on one tree path)
    "dfs_d": _named("dfs_d", [
        # everything within reach is visited before anything beyond it,
        # regardless of how much of the cycle the bound covers
        (("far", _, _, _, _, _), "far-v", Fraction(0)),
        (("free", _, _, _, _, _), "free-target", Fraction(1, 2)),
        (("gate", _, _, True, _, _), "gate-target:v-two-short", Fraction(2, 3)),
        (("gate", "single", _, _, _, _), "gate-target:v-single-short", Fraction(1, 2)),
        (("gate", _, _, _, True, _), "gate-target:v-one-short-cycle-reachable", Fraction(2, 3)),
        (("gate", _, _, _, _, _), "gate-target:v-one-short-cycle-partial", Fraction(1, 2)),
        # Both nodes one-short with one on the other's short path share the
        # entrance successor, so the visit order is forced rather than an
        # even coin; the tables do not cover them.
        (("cycle", "cycle", False, False, _, True), "aligned one-short cycle pair (forced order)", None),
        (("cycle", "cycle", _, _, _, _), "cycle-pair", Fraction(1, 2)),
        (("cycle", _, _, _, _, _), "target on the cycle, v off it", None),
        (("behind", "cycle", False, _, _, True), "behind-target:v-on-short-path", Fraction(1)),
        (("behind", "cycle", _, True, _, _), "behind-target:v-two-short", Fraction(3, 4)),
        (("behind", "cycle", _, _, _, _), "behind-target:v-one-short", Fraction(1, 2)),
        (("behind", "single", _, _, _, _), "target behind the cycle, single-path v", None),
        (("behind", "behind", True, False, _, _), "two-short target against one-short v is underived", None),
        # t's path within d is its only one: does v's exit lie on it?
        (("behind", "behind", False, True, True, True), "both-behind:reachable:exit-on-path", Fraction(5, 8)),
        (("behind", "behind", False, True, True, _), "both-behind:reachable:exit-off-path", Fraction(1, 2)),
        (("behind", "behind", True, True, True, _), "both-behind:reachable:both-short", Fraction(1, 2)),
        (("behind", "behind", False, False, True, _), "both-behind:reachable:both-one-short", Fraction(1, 2)),
        (("behind", "behind", False, True, False, _), "both-behind:partial:target-one-v-two", Fraction(3, 4)),
        (("behind", "behind", True, True, False, _), "both-behind:partial:both-short", Fraction(1, 2)),
        (("behind", "behind", False, False, False, _), "both-behind:partial:both-one-short", Fraction(1, 2)),
    ]),
}

# Each admitted row's case label and probability, and every case label each
# strategy's table can emit (used for coverage audits).
ROWS: dict[str, Fraction] = {
    label: p for rules in RULES.values() for _pattern, label, p in rules if p is not None}
ALL_CASE_LABELS: dict[str, frozenset[str]] = {
    strategy: frozenset(label for _pattern, label, p in rules if p is not None)
    for strategy, rules in RULES.items()
}


@dataclass(frozen=True)
class PairwiseCaseResult:
    probability: Fraction
    case_label: str


def tree_dfs_expected_positions(g: Graph, s: int, targets: Iterable[int] | None = None) -> list[Fraction]:
    """Expected position of each of ``targets`` (every node by default) under
    randomized DFS on a tree: (n + dist - m) / 2.

    ``m`` counts the nodes whose path from ``s`` passes through the target
    (including the target itself): its subtree in the BFS tree from ``s``.
    """
    if not g.is_tree():
        raise NotATree(f"graph has {g.edge_count} edges over {g.n} nodes")
    targets = range(g.n) if targets is None else list(targets)
    for what, x in [("source", s), *(("target", t) for t in targets)]:
        check_node(g.n, x, what)
    # not cached_profiles: the lemma1 suite visits each tree once, so a kept
    # profile would never be read again
    prof = path_profiles(g, s)
    return [Fraction(g.n + prof.distance(t) - prof.size[t], 2) for t in targets]


def tree_dfs_expected_position(g: Graph, s: int, t: int) -> Fraction:
    """:func:`tree_dfs_expected_positions` of the one target ``t``."""
    return tree_dfs_expected_positions(g, s, (t,))[0]


def palm_expected_position(n: int, d: int) -> Fraction:
    """Value of crown-uniform hiding on a palm tree: (n + d - 1) / 2."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"height {d} invalid for {n} nodes")
    return Fraction(n + d - 1, 2)


def hider_payoff(benefit: BenefitFunction, d: int, n: int) -> Fraction:
    """Hider payoff for hiding at distance ``d``: benefit(d) * (n + d - 1) / 2."""
    if not 0 <= d <= n - 1:
        raise ValueError(f"distance {d} out of range for {n} nodes")
    return benefit(d) * Fraction(n + d - 1, 2)


def mixture_capture_bound(n: int, d: int) -> Fraction:
    """Upper bound on expected capture position under the upfront mixture."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return Fraction(9 * n, 16) + Fraction(13 * d - 11, 16)


def _node_classes(g: Graph, prof: PathProfile) -> list[tuple[str | None, str, bool]]:
    """Each node's (class as t, class as v, degenerate exit), kept on the profile.  As v a
    node is single (one path), cycle or behind (two, off the cycle); as t a single one is gate
    (its path passes the entrance) or free, and it is ``None`` where the leaf guard refuses."""
    classes = prof.__dict__.get("_node_classes")
    if classes is None:
        classes = []
        for x in range(g.n):
            v_class = "single" if x in prof.single_path else "cycle" if x in prof.cycle_nodes else "behind"
            t_class = v_class if v_class != "single" else "gate" if x in prof.through_entrance else "free"
            refused = prof.cycle is not None and not (g.is_leaf(x) or x in prof.cycle_nodes)
            classes.append((None if refused else t_class, v_class,
                            v_class == "behind" and prof.anchor[x] in g.adj[prof.entrance]))
        prof.__dict__["_node_classes"] = classes
    return classes


@cache
def _first_row(strategy: str, features: tuple) -> PairwiseCaseResult | tuple[str, str]:
    """The answer of the first row that matches: its result, or ``("no-table-row", detail)``
    when the row has no probability.  sigma_star's features pair its dfs_d and unbounded
    ones.  The feature domain is finite, so this cache stays small."""
    if strategy == "sigma_star":  # the mixture of the module docstring, dfs_d asked first
        bounded, unbounded = features
        parts = {table: _first_row(table, bounded if table == "dfs_d" else unbounded)
                 for table in ("dfs_d", *SIGMA_STAR_WEIGHTS)}
        refused = [part for part in parts.values() if isinstance(part, tuple)]
        return refused[0] if refused else PairwiseCaseResult(
            sum(w * parts[table].probability for table, w in SIGMA_STAR_WEIGHTS.items()),
            "sigma_star:" + "|".join(parts[table].case_label for table in SIGMA_STAR_WEIGHTS))
    label, p = next((label, p) for pattern, label, p in RULES[strategy]
                    if all(want is None or want == got for want, got in zip(pattern, features)))
    return PairwiseCaseResult(p, label) if p is not None else ("no-table-row", label)


def _answers(strategy: str, g: Graph, prof: PathProfile, d: int | None,
             targets: Iterable[int], vs: Iterable[int]):
    """``(t, v, answer)`` for each ``t`` in ``targets`` and ``v`` in ``vs``: the table's result,
    or its first refusal as ``(clause, detail)``: shared guards, dfs_d's bound guards, rows."""
    classes = _node_classes(g, prof)
    bounded = strategy in ("dfs_d", "sigma_star")
    if bounded:
        two_short = prof.bounded_sets(d).two_short
        # the bounded-DFS rows are only derived when some cycle node is reachable
        # by two short paths; outside that domain the table refuses
        cycle_outside = bool(prof.cycle_nodes) and not prof.cycle_nodes & two_short
        # Every cycle node but the entrance has two paths, the longest going all the way
        # round to an entrance neighbour: the cycle is fully short when that walk fits d.
        fully_short = prof.cycle is None or prof.distance(prof.entrance) + len(prof.cycle) - 1 <= d
    for t in targets:
        t_class = classes[t][0]
        for v in vs:
            if v == t:
                answer = ("nodes-not-distinct", f"t = v = {t}")
            elif t_class is None:
                answer = ("target-not-leaf-or-cycle", f"t = {t}")
            elif prof.on_every_path(v, t):
                answer = ("v-on-every-target-path", f"v = {v}")
            elif prof.on_every_path(t, v):
                answer = ("target-on-every-v-path", f"t = {t}, v = {v}")
            elif bounded and prof.distance(t) > d:
                answer = ("target-beyond-bound", f"dist(s,{t}) > {d}")
            elif bounded and cycle_outside and prof.distance(v) <= d:
                answer = ("cycle-outside-bound", "dfs_d: no cycle node has two paths within d")
            else:
                _, v_class, degenerate = classes[v]
                features = (t_class, v_class, degenerate)
                if bounded:
                    exit_ = prof.anchor.get(v, v)  # where v's paths leave the cycle
                    dfs_d = ("far" if prof.distance(v) > d else t_class, v_class, t in two_short,
                             v in two_short, fully_short, prof.on_path(exit_, t) or prof.on_path(t, exit_))
                    features = dfs_d if strategy == "dfs_d" else (dfs_d, features)
                answer = _first_row(strategy, features)
            yield t, v, answer


def _checked_profile(strategy: str, d: int | None, g: Graph, s: int, *nodes: int) -> PathProfile:
    """The profile from ``s``, once the strategy, its bound, ``s`` and ``nodes`` (t, v) are checked."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    check_bound(strategy, d)
    for what, x in zip(("source", "target", "v"), (s, *nodes)):
        check_node(g.n, x, what)
    return cached_profiles(g, s)


def pairwise_probability(
    strategy: str,
    g: Graph,
    s: int,
    t: int,
    v: int,
    d: int | None = None,
) -> PairwiseCaseResult:
    """Exact probability that ``v`` precedes the hiding node ``t``.

    Raises :class:`PreconditionViolated` (with the failed clause) outside the
    table's domain; ``ValueError`` before that for a bound ``d`` the policy refuses,
    and :class:`NodeOutOfRange` for a node outside the graph.
    """
    prof = _checked_profile(strategy, d, g, s, t, v)
    [(_t, _v, answer)] = _answers(strategy, g, prof, d, [t], [v])
    if isinstance(answer, tuple):
        raise PreconditionViolated(*answer)
    return answer


def expected_position_from_tables(
    strategy: str,
    g: Graph,
    s: int,
    t: int,
    d: int | None = None,
) -> Fraction:
    """Expected position of ``t`` as the sum of pairwise probabilities.

    Nodes on every source->t path contribute 1; nodes reachable only through
    ``t`` contribute 0 (expanding search cannot reach them earlier).  A refused
    pair refuses the target, with the clause of the first refused ``v`` in node order.
    """
    prof = _checked_profile(strategy, d, g, s, t)
    total = Fraction(0)
    for v in range(g.n):
        if not prof.on_every_path(t, v):  # skip t itself and the nodes only t leads to
            total += 1 if prof.on_every_path(v, t) else pairwise_probability(strategy, g, s, t, v, d).probability
    return total


def admitted_pairs(strategy: str, g: Graph, s: int, d: int | None = None):
    """``(t, v, answer)`` for every ordered pair the table admits, in node order; the
    arguments are checked at the call, not at the first ``next()``."""
    prof = _checked_profile(strategy, d, g, s)
    nodes = range(g.n)
    return ((t, v, answer) for t, v, answer in _answers(strategy, g, prof, d, nodes, nodes)
            if not isinstance(answer, tuple))


def pairwise_csv_rows(
    instance: str,
    strategy: str,
    g: Graph,
    s: int,
    d: int | None = None,
) -> list[str]:
    """Serialize every admissible pairwise probability as CSV rows.

    Row format: ``instance,strategy,t,v,case_label,p/q``.
    """
    return [f"{instance},{strategy},{t},{v},{res.case_label},{res.probability}"
            for t, v, res in admitted_pairs(strategy, g, s, d)]
