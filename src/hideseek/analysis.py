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

Every branch carries a ``case_label`` so coverage of the whole table can be
audited, and every returned probability is checked against the enumeration
oracle in the verification suites.  Branches are evaluated strictly in
listing order; combinations the tables do not cover raise
:class:`PreconditionViolated` rather than extrapolating.

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
from .graphs import Graph, PathProfile, cached_profiles, path_profiles
from .hider import BenefitFunction
from .seeker import SIGMA_STAR_WEIGHTS, check_bound

STRATEGIES = ("dfs", "dfs_d", "adfs", "sigma_star")

# Every row of the pairwise tables: its case label and its probability.  The
# value functions below pick a label; this map is the only place a row's
# probability lives.
ROWS: dict[str, Fraction] = {
    "dfs:free-target": Fraction(1, 2),
    "dfs:gate-target:v-single": Fraction(1, 2),
    "dfs:gate-target:v-double": Fraction(2, 3),
    "dfs:cycle-pair": Fraction(1, 2),
    "dfs:behind-target:v-cycle": Fraction(3, 4),
    "dfs:behind-target:v-behind": Fraction(1, 2),

    "adfs:free-target": Fraction(1, 2),
    "adfs:gate-target:v-single": Fraction(1, 2),
    "adfs:gate-target:v-cycle": Fraction(2, 3),
    "adfs:gate-target:v-behind": Fraction(1, 3),
    "adfs:cycle-pair": Fraction(1, 2),
    "adfs:behind-target:v-cycle": Fraction(3, 4),
    "adfs:behind-target:v-behind": Fraction(1, 2),

    "dfs_d:far-v": Fraction(0),
    "dfs_d:free-target": Fraction(1, 2),
    "dfs_d:gate-target:v-two-short": Fraction(2, 3),
    "dfs_d:gate-target:v-single-short": Fraction(1, 2),
    "dfs_d:gate-target:v-one-short-cycle-reachable": Fraction(2, 3),
    "dfs_d:gate-target:v-one-short-cycle-partial": Fraction(1, 2),
    "dfs_d:cycle-pair": Fraction(1, 2),
    "dfs_d:behind-target:v-on-short-path": Fraction(1),
    "dfs_d:behind-target:v-two-short": Fraction(3, 4),
    "dfs_d:behind-target:v-one-short": Fraction(1, 2),
    "dfs_d:both-behind:reachable:exit-on-path": Fraction(5, 8),
    "dfs_d:both-behind:reachable:exit-off-path": Fraction(1, 2),
    "dfs_d:both-behind:reachable:both-short": Fraction(1, 2),
    "dfs_d:both-behind:reachable:both-one-short": Fraction(1, 2),
    "dfs_d:both-behind:partial:target-one-v-two": Fraction(3, 4),
    "dfs_d:both-behind:partial:both-short": Fraction(1, 2),
    "dfs_d:both-behind:partial:both-one-short": Fraction(1, 2),

}

# Every case label each strategy's table can emit (used for coverage audits).
ALL_CASE_LABELS: dict[str, frozenset[str]] = {
    strategy: frozenset(label for label in ROWS if label.startswith(strategy + ":"))
    for strategy in dict.fromkeys(label.split(":", 1)[0] for label in ROWS)
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
    # not cached_profiles: the lemma1 suite visits each tree once, and keeping
    # a profile for each of its 1,440 trees up to n = 6 added 2.8 MB
    # (tracemalloc), over a tenth of the 26 MB peak of the exact benchmark
    prof = path_profiles(g, s)
    size = [1] * g.n
    for v, u in reversed(prof.parent.items()):  # BFS order reversed: children before parents
        size[u] += size[v]
    if targets is None:
        targets = range(g.n)
    return [Fraction(g.n + prof.distance(t) - size[t], 2) for t in targets]


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
    if v in prof.cut_nodes(t):
        raise PreconditionViolated("v-on-every-target-path", f"v = {v}")
    if t in prof.cut_nodes(v):
        raise PreconditionViolated("target-on-every-v-path", f"t = {t}, v = {v}")
    if t in prof.single_path:
        return "gate" if t in prof.through_entrance else "free"
    return "cycle" if t in prof.cycle_nodes else "behind"


def _no_row(strategy: str, detail: str):
    raise PreconditionViolated("no-table-row", f"{strategy}: {detail}")


def _unbounded_row(table: str, prof: PathProfile, t_class: str, v: int) -> str:
    """The free, cycle and behind rows, which ``dfs`` and ``adfs`` share."""
    if t_class == "free":
        return f"{table}:free-target"
    if t_class == "cycle":
        if v in prof.cycle_nodes:
            return f"{table}:cycle-pair"
        _no_row(table, "target on the cycle, v off it")
    if v in prof.cycle_nodes:
        return f"{table}:behind-target:v-cycle"
    if v in prof.double_path:
        return f"{table}:behind-target:v-behind"
    _no_row(table, "target behind the cycle, single-path v")


# Each table's value function maps (graph, profile, class of t, t, v, d) to a key of ROWS.

def _dfs_value(g: Graph, prof: PathProfile, t_class: str, t: int, v: int, d: int | None) -> str:
    if t_class != "gate":
        return _unbounded_row("dfs", prof, t_class, v)
    return "dfs:gate-target:v-single" if v in prof.single_path else "dfs:gate-target:v-double"


def _adfs_value(g: Graph, prof: PathProfile, t_class: str, t: int, v: int, d: int | None) -> str:
    if t_class != "gate":
        return _unbounded_row("adfs", prof, t_class, v)
    if v in prof.single_path:
        return "adfs:gate-target:v-single"
    if v in prof.cycle_nodes:
        return "adfs:gate-target:v-cycle"
    # The behind-the-cycle derivations picture the exit strictly between the
    # two entrance successors; a pendant hanging on a successor collapses the
    # independent coins they rely on.
    if prof.anchor[v] in g.adj[prof.entrance]:
        _no_row("adfs", "v hangs off an entrance successor (degenerate exit)")
    return "adfs:gate-target:v-behind"


def _dfs_d_value(g: Graph, prof: PathProfile, t_class: str, t: int, v: int, d: int) -> str:
    if prof.distance(t) > d:
        raise PreconditionViolated("target-beyond-bound", f"dist(s,{t}) > {d}")
    if prof.distance(v) > d:
        # everything within reach is visited before anything beyond it,
        # regardless of how much of the cycle the bound covers
        return "dfs_d:far-v"
    sets = prof.bounded_sets(d)
    # the bounded-DFS rows are only derived when some cycle node is reachable
    # by two short paths; outside that domain the table refuses
    if prof.cycle_nodes and not prof.cycle_nodes & sets.two_short:
        raise PreconditionViolated("cycle-outside-bound", "dfs_d: no cycle node has two paths within d")
    if t_class == "free":
        return "dfs_d:free-target"
    # the entrance (or the source itself, when it sits on the cycle) has a
    # single path by definition and does not count against full coverage
    cycle_fully_short = prof.cycle_nodes & prof.double_path <= sets.two_short
    if t_class == "gate":
        if v in sets.two_short:
            return "dfs_d:gate-target:v-two-short"
        if v in prof.single_path:
            return "dfs_d:gate-target:v-single-short"
        if cycle_fully_short:
            return "dfs_d:gate-target:v-one-short-cycle-reachable"
        return "dfs_d:gate-target:v-one-short-cycle-partial"
    if t_class == "cycle":
        if v in prof.cycle_nodes:
            # Both nodes one-short with one on the other's short path share the
            # entrance successor, so the visit order is forced rather than an
            # even coin; the tables do not cover them.
            if {t, v} <= sets.one_short and (v in prof.shortest_path(t) or t in prof.shortest_path(v)):
                _no_row("dfs_d", "aligned one-short cycle pair (forced order)")
            return "dfs_d:cycle-pair"
        _no_row("dfs_d", "target on the cycle, v off it")
    # target strictly behind the cycle (and within d, so one- or two-short)
    if v in prof.cycle_nodes:
        if t in sets.one_short and v in prof.shortest_path(t):
            return "dfs_d:behind-target:v-on-short-path"
        if v in sets.two_short:
            return "dfs_d:behind-target:v-two-short"
        return "dfs_d:behind-target:v-one-short"
    if v not in prof.double_path:
        _no_row("dfs_d", "target behind the cycle, single-path v")
    t_short, v_short = t in sets.two_short, v in sets.two_short
    if t_short and not v_short:
        _no_row("dfs_d", "two-short target against one-short v is underived")
    if cycle_fully_short:
        if not t_short and v_short:
            # t's path within d is its only one: does v's exit lie on it?
            if prof.anchor[v] in prof.shortest_path(t):
                return "dfs_d:both-behind:reachable:exit-on-path"
            return "dfs_d:both-behind:reachable:exit-off-path"
        if t_short and v_short:
            return "dfs_d:both-behind:reachable:both-short"
        return "dfs_d:both-behind:reachable:both-one-short"
    if not t_short and v_short:
        return "dfs_d:both-behind:partial:target-one-v-two"
    if t_short and v_short:
        return "dfs_d:both-behind:partial:both-short"
    return "dfs_d:both-behind:partial:both-one-short"


_VALUE_FUNCS = {"dfs": _dfs_value, "adfs": _adfs_value, "dfs_d": _dfs_d_value}


@cache
def _mixture_row(labels: tuple[str, ...]) -> PairwiseCaseResult:
    # the mixture of the module docstring; few label triples occur, and
    # without the cache the Fraction sum costs as much as choosing the rows
    probability = sum(w * ROWS[label] for w, label in zip(SIGMA_STAR_WEIGHTS.values(), labels))
    return PairwiseCaseResult(probability, "sigma_star:" + "|".join(labels))


def _check_strategy(strategy: str, d: int | None) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    check_bound(strategy, d)


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
    table's domain; ``ValueError`` before that for a bound ``d`` the policy refuses.
    """
    _check_strategy(strategy, d)
    prof = cached_profiles(g, s)
    t_class = _target_class(g, prof, t, v)
    if strategy == "sigma_star":
        # dfs_d first: a target or cycle beyond d refuses as dfs_d does
        bounded = _dfs_d_value(g, prof, t_class, t, v, d)
        return _mixture_row(tuple(
            bounded if table == "dfs_d" else _VALUE_FUNCS[table](g, prof, t_class, t, v, d)
            for table in SIGMA_STAR_WEIGHTS))
    label = _VALUE_FUNCS[strategy](g, prof, t_class, t, v, d)
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
    ``t`` contribute 0 (expanding search cannot reach them earlier).
    """
    _check_strategy(strategy, d)
    prof = cached_profiles(g, s)
    anchors = prof.cut_nodes(t)
    total = Fraction(len(anchors) - 1)
    for v in g.node_set - anchors:
        if t in prof.cut_nodes(v):
            continue
        total += pairwise_probability(strategy, g, s, t, v, d).probability
    return total


def admitted_pairs(strategy: str, g: Graph, s: int, d: int | None = None):
    """``(t, v, answer)`` for every ordered pair the table admits, in node order."""
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
