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
combinations the tables do not cover raise :class:`PreconditionViolated`
rather than extrapolating.  :data:`ROWS` maps each label to its probability,
so coverage of the whole table can be audited, and every returned probability
is checked against the enumeration oracle in the verification suites.

``sigma_star`` has no table of its own.  It plays one component for the
whole episode, so its probability for a pair is the mixture of the three
component rows with the weights of :data:`hideseek.seeker.SIGMA_STAR_WEIGHTS`.
A pair is admitted only when every component admits it; otherwise the first
component's refusal is raised, ``dfs_d`` asked first.  Its case label is
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


def _target_class(g: Graph, prof: PathProfile, t: int, v: int) -> str:
    """Run the guards every table shares; the class of ``t``: free, gate, cycle or behind."""
    if v == t:
        raise PreconditionViolated("nodes-not-distinct", f"t = v = {t}")
    if prof.cycle is not None and not (g.is_leaf(t) or t in prof.cycle_nodes):
        raise PreconditionViolated("target-not-leaf-or-cycle", f"t = {t}")
    if prof.on_every_path(v, t):
        raise PreconditionViolated("v-on-every-target-path", f"v = {v}")
    if prof.on_every_path(t, v):
        raise PreconditionViolated("target-on-every-v-path", f"t = {t}, v = {v}")
    if t in prof.single_path:
        return "gate" if t in prof.through_entrance else "free"
    return "cycle" if t in prof.cycle_nodes else "behind"


def _v_class(prof: PathProfile, v: int) -> str:
    """single (one simple path), cycle (on the cycle, two paths) or behind (two paths, off it)."""
    if v in prof.single_path:
        return "single"
    return "cycle" if v in prof.cycle_nodes else "behind"


def _unbounded_features(g: Graph, prof: PathProfile, t_class: str, v: int) -> tuple:
    """The pair's features for ``dfs`` and ``adfs``: (class of t, class of v, degenerate exit)."""
    v_class = _v_class(prof, v)
    return t_class, v_class, v_class == "behind" and prof.anchor[v] in g.adj[prof.entrance]


def _bounded_features(prof: PathProfile, t_class: str, t: int, v: int, d: int) -> tuple:
    """The pair's features for ``dfs_d``, once its guards on the bound pass; see its rows."""
    if prof.distance(t) > d:
        raise PreconditionViolated("target-beyond-bound", f"dist(s,{t}) > {d}")
    sets = prof.bounded_sets(d)
    far = prof.distance(v) > d
    # the bounded-DFS rows are only derived when some cycle node is reachable
    # by two short paths; outside that domain the table refuses
    if not far and prof.cycle_nodes and not prof.cycle_nodes & sets.two_short:
        raise PreconditionViolated("cycle-outside-bound", "dfs_d: no cycle node has two paths within d")
    # Every cycle node but the entrance has two paths, and the longest of them
    # goes all the way round to an entrance neighbour: the cycle is fully short
    # when that walk fits d.
    cycle_fully_short = prof.cycle is None or prof.distance(prof.entrance) + len(prof.cycle) - 1 <= d
    exit_ = prof.anchor.get(v, v)  # where v's paths leave the cycle
    return ("far" if far else t_class, _v_class(prof, v), t in sets.two_short, v in sets.two_short,
            cycle_fully_short, prof.on_path(exit_, t) or prof.on_path(t, exit_))


@cache
def _first_row(strategy: str, features: tuple) -> tuple[str, Fraction | None]:
    # the feature domain is finite, so this cache stays small
    return next((label, p) for pattern, label, p in RULES[strategy]
                if all(want is None or want == got for want, got in zip(pattern, features)))


def _row_label(strategy: str, features: tuple) -> str:
    """The case label of the strategy's first row that matches ``features``."""
    text, p = _first_row(strategy, features)
    if p is None:
        raise PreconditionViolated("no-table-row", text)
    return text


@cache
def _mixture_row(labels: tuple[str, ...]) -> PairwiseCaseResult:
    # the mixture of the module docstring; few label triples occur, and
    # without the cache the Fraction sum costs as much as choosing the rows
    probability = sum(w * ROWS[label] for w, label in zip(SIGMA_STAR_WEIGHTS.values(), labels))
    return PairwiseCaseResult(probability, "sigma_star:" + "|".join(labels))


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
    t_class = _target_class(g, prof, t, v)
    if strategy == "sigma_star":
        # dfs_d first: a target or cycle beyond d refuses as dfs_d does
        bounded = _row_label("dfs_d", _bounded_features(prof, t_class, t, v, d))
        unbounded = _unbounded_features(g, prof, t_class, v)
        return _mixture_row(tuple(bounded if table == "dfs_d" else _row_label(table, unbounded)
                                  for table in SIGMA_STAR_WEIGHTS))
    label = _row_label(strategy, _bounded_features(prof, t_class, t, v, d) if strategy == "dfs_d"
                       else _unbounded_features(g, prof, t_class, v))
    return PairwiseCaseResult(ROWS[label], label)


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
    """``(t, v, answer)`` for every ordered pair the table admits, in node order."""
    _checked_profile(strategy, d, g, s)
    for t in range(g.n):
        for v in range(g.n):
            if v == t:
                continue
            try:
                res = pairwise_probability(strategy, g, s, t, v, d)
            except PreconditionViolated:
                continue
            yield t, v, res


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
