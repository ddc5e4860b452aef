"""Closed-form engine: expectation formulas and pairwise visit-order tables.

The pairwise tables give, for ``dfs``, ``adfs`` and ``dfs_d``, the exact
probability that a node ``v`` is visited before the hiding node ``t`` on a
graph with at most one cycle.  Values depend only on coarse structural classes:

* how many simple paths reach a node and how many of them fit the bound ``d``;
* whether a node sits on the cycle, strictly behind it, or before it;
* for nodes behind the cycle, where their paths leave it (the exit node).

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

from .errors import NotATree, PreconditionViolated
from .graphs import Graph, PathProfile, bfs_distances, cached_profiles
from .hider import BenefitFunction
from .seeker import SIGMA_STAR_WEIGHTS

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


def tree_dfs_expected_position(g: Graph, s: int, t: int) -> Fraction:
    """Expected position of ``t`` under randomized DFS on a tree: (n + dist - m) / 2.

    ``m`` counts the nodes whose path from ``s`` passes through ``t``
    (including ``t`` itself).
    """
    if not g.is_tree():
        raise NotATree(f"graph has {g.edge_count} edges over {g.n} nodes")
    dist_s = bfs_distances(g, s)
    dist_t = bfs_distances(g, t)
    m = sum(1 for v in g.node_set if dist_s[v] == dist_s[t] + dist_t[v])
    return Fraction(g.n + dist_s[t] - m, 2)


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


@dataclass(frozen=True)
class _PairContext:
    g: Graph
    t: int
    v: int
    d: int | None
    prof: PathProfile           # the simple-path structure from the source
    t_category: str             # free | gate | cycle | behind

    def one_short(self, node: int) -> bool:
        return self.d is not None and self.prof.count_within(node, self.d) == 1

    def two_short(self, node: int) -> bool:
        return self.d is not None and self.prof.count_within(node, self.d) == 2

    def cycle_fully_short(self) -> bool:
        # the entrance (or the source itself, when it sits on the cycle) has a
        # single path by definition and does not count against full coverage
        return all(
            self.two_short(w) for w in self.prof.cycle_nodes if w not in self.prof.single_path
        )

    def cycle_meets_short(self) -> bool:
        return any(self.two_short(w) for w in self.prof.cycle_nodes)

    def unique_short_path_contains(self, target: int, node: int) -> bool:
        """target has exactly one path of length <= d and it passes node."""
        return self.one_short(target) and node in self.prof.shortest_path(target)

    def aligned_cycle_pair(self) -> bool:
        """Both nodes one-short with one sitting on the other's short path.

        Such pairs share the entrance successor, so the visit order is forced
        rather than an even coin; the tables do not cover them.
        """
        if not (self.one_short(self.t) and self.one_short(self.v)):
            return False
        return (
            self.unique_short_path_contains(self.t, self.v)
            or self.unique_short_path_contains(self.v, self.t)
        )

    def exit_at_entrance_successor(self, node: int) -> bool:
        """Whether the node's paths leave the cycle right next to the entrance.

        The behind-the-cycle derivations picture the exit strictly between the
        two entrance successors; a pendant hanging on a successor collapses
        the independent coins they rely on.
        """
        anchor = self.prof.anchor.get(node)
        if anchor is None or self.prof.entrance is None:
            return False
        return anchor in self.g.adj[self.prof.entrance] and anchor in self.prof.cycle_nodes


def _build_context(strategy: str, g: Graph, s: int, t: int, v: int, d: int | None) -> _PairContext:
    prof = cached_profiles(g, s)
    if v == t:
        raise PreconditionViolated("nodes-not-distinct", f"t = v = {t}")
    if prof.cycle is not None and not (g.is_leaf(t) or t in prof.cycle_nodes):
        raise PreconditionViolated("target-not-leaf-or-cycle", f"t = {t}")
    if v in prof.cut_nodes(t):
        raise PreconditionViolated("v-on-every-target-path", f"v = {v}")
    if t in prof.cut_nodes(v):
        raise PreconditionViolated("target-on-every-v-path", f"t = {t}, v = {v}")
    if t in prof.single_path:
        t_category = "gate" if t in prof.through_entrance else "free"
    else:
        t_category = "cycle" if t in prof.cycle_nodes else "behind"
    if strategy == "dfs_d":
        if d is None:
            raise ValueError(f"{strategy} needs the bound d")
        if prof.distance(t) > d:
            raise PreconditionViolated("target-beyond-bound", f"dist(s,{t}) > {d}")
    return _PairContext(g=g, t=t, v=v, d=d, prof=prof, t_category=t_category)


def _no_row(strategy: str, detail: str):
    raise PreconditionViolated("no-table-row", f"{strategy}: {detail}")


def _dfs_value(ctx: _PairContext) -> str:
    v = ctx.v
    if ctx.t_category == "free":
        return "dfs:free-target"
    if ctx.t_category == "gate":
        if v in ctx.prof.single_path:
            return "dfs:gate-target:v-single"
        return "dfs:gate-target:v-double"
    if ctx.t_category == "cycle":
        if v in ctx.prof.cycle_nodes:
            return "dfs:cycle-pair"
        _no_row("dfs", "target on the cycle, v off it")
    if v in ctx.prof.cycle_nodes:
        return "dfs:behind-target:v-cycle"
    if v in ctx.prof.double_path:
        return "dfs:behind-target:v-behind"
    _no_row("dfs", "target behind the cycle, single-path v")


def _adfs_value(ctx: _PairContext) -> str:
    v = ctx.v
    if ctx.t_category == "free":
        return "adfs:free-target"
    if ctx.t_category == "gate":
        if v in ctx.prof.single_path:
            return "adfs:gate-target:v-single"
        if v in ctx.prof.cycle_nodes:
            return "adfs:gate-target:v-cycle"
        if ctx.exit_at_entrance_successor(v):
            _no_row("adfs", "v hangs off an entrance successor (degenerate exit)")
        return "adfs:gate-target:v-behind"
    if ctx.t_category == "cycle":
        if v in ctx.prof.cycle_nodes:
            return "adfs:cycle-pair"
        _no_row("adfs", "target on the cycle, v off it")
    if v in ctx.prof.cycle_nodes:
        return "adfs:behind-target:v-cycle"
    if v in ctx.prof.double_path:
        return "adfs:behind-target:v-behind"
    _no_row("adfs", "target behind the cycle, single-path v")


def _dfs_d_value(ctx: _PairContext) -> str:
    v, d = ctx.v, ctx.d
    assert d is not None
    if ctx.prof.distance(v) > d:
        # everything within reach is visited before anything beyond it,
        # regardless of how much of the cycle the bound covers
        return "dfs_d:far-v"
    # the bounded-DFS rows are only derived when some cycle node is reachable
    # by two short paths; outside that domain the table refuses
    if ctx.prof.cycle_nodes and not ctx.cycle_meets_short():
        raise PreconditionViolated("cycle-outside-bound", "dfs_d: no cycle node has two paths within d")
    if ctx.t_category == "free":
        return "dfs_d:free-target"
    if ctx.t_category == "gate":
        if ctx.two_short(v):
            return "dfs_d:gate-target:v-two-short"
        if v in ctx.prof.single_path:
            return "dfs_d:gate-target:v-single-short"
        if ctx.cycle_fully_short():
            return "dfs_d:gate-target:v-one-short-cycle-reachable"
        return "dfs_d:gate-target:v-one-short-cycle-partial"
    if ctx.t_category == "cycle":
        if v in ctx.prof.cycle_nodes:
            if ctx.aligned_cycle_pair():
                _no_row("dfs_d", "aligned one-short cycle pair (forced order)")
            return "dfs_d:cycle-pair"
        _no_row("dfs_d", "target on the cycle, v off it")
    # target strictly behind the cycle
    if v in ctx.prof.cycle_nodes:
        if ctx.unique_short_path_contains(ctx.t, v):
            return "dfs_d:behind-target:v-on-short-path"
        if ctx.two_short(v):
            return "dfs_d:behind-target:v-two-short"
        return "dfs_d:behind-target:v-one-short"
    if v not in ctx.prof.double_path:
        _no_row("dfs_d", "target behind the cycle, single-path v")
    t_short, v_short = ctx.two_short(ctx.t), ctx.two_short(v)
    if t_short and not v_short:
        _no_row("dfs_d", "two-short target against one-short v is underived")
    if ctx.cycle_fully_short():
        if not t_short and v_short:
            if ctx.unique_short_path_contains(ctx.t, ctx.prof.anchor[v]):
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


_VALUE_FUNCS = {
    "dfs": _dfs_value,
    "adfs": _adfs_value,
    "dfs_d": _dfs_d_value,
}


@cache
def _mixture_row(labels: tuple[str, ...]) -> PairwiseCaseResult:
    # the mixture of the module docstring; few label triples occur, and
    # without the cache the Fraction sum costs as much as choosing the rows
    probability = sum(w * ROWS[label] for w, label in zip(SIGMA_STAR_WEIGHTS.values(), labels))
    return PairwiseCaseResult(probability, "sigma_star:" + "|".join(labels))


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
    table's domain.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "sigma_star":
        if d is None:
            raise ValueError("sigma_star needs the bound d")
        ctx = _build_context("dfs_d", g, s, t, v, d)
        bounded = _dfs_d_value(ctx)  # first: a target or cycle beyond d refuses as dfs_d does
        return _mixture_row(tuple(bounded if kind == "dfs_d" else _VALUE_FUNCS[kind](ctx)
                                  for kind in SIGMA_STAR_WEIGHTS))
    label = _VALUE_FUNCS[strategy](_build_context(strategy, g, s, t, v, d))
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
    prof = cached_profiles(g, s)
    anchors = prof.cut_nodes(t)
    total = Fraction(len(anchors) - 1)
    for v in g.node_set - anchors:
        if t in prof.cut_nodes(v):
            continue
        total += pairwise_probability(strategy, g, s, t, v, d).probability
    return total


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
    rows = []
    for t in sorted(g.node_set):
        for v in sorted(g.node_set):
            if v == t:
                continue
            try:
                res = pairwise_probability(strategy, g, s, t, v, d)
            except PreconditionViolated:
                continue
            rows.append(f"{instance},{strategy},{t},{v},{res.case_label},{res.probability}")
    return rows
