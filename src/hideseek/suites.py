"""Named verification suites driven by the CLI and the acceptance tests.

Each suite re-derives a family of closed-form claims with the independent
enumeration oracle (or Monte Carlo sampling where enumeration is out of
reach) and reports one check per verified fact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import (
    ALL_CASE_LABELS,
    admitted_pairs,
    hider_payoff,
    mixture_capture_bound,
    palm_expected_position,
    tree_dfs_expected_positions,
)
from .corpus import default_corpus
from .graphs import bfs_distances
from .hider import (
    BenefitFunction,
    HiderStrategy,
    all_trees,
    example1_graph,
    example2_graph,
    optimal_hiding_depths,
    palm_crown_mixed,
    tree_sizes,
)
from .oracle import (
    adversarial_policy_battery,
    best_response_hider,
    componentwise,
    exact_expected_pos,
    exact_position_table,
    exact_visit_table,
    hider_value,
    reachable_observations,
)
from .seeker import (
    AdjustedDFSPolicy,
    BoundedDFSPolicy,
    DFSPolicy,
    policy_from_id,
    sigma_star,
)
from .simulate import monte_carlo


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check_id}" + (f" ({self.detail})" if self.detail else "")


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(check_id, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and bool(self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = [f"[{self.suite}] {c.line()}" for c in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"[{self.suite}] suite: {verdict} ({len(self.checks)} checks)")
        return out


def run_lemma1(max_n: int = 7) -> SuiteReport:
    """Exact expected DFS position on every labeled tree vs the closed form."""
    report = SuiteReport("lemma1")
    policy = DFSPolicy()
    for n in tree_sizes(range(3, max_n + 1)):
        trees = 0
        bad = None
        for g in all_trees(n):
            table = exact_position_table(policy, g, node_limit=None)
            for t, want in enumerate(tree_dfs_expected_positions(g, 0)):
                if table[t] != want:
                    bad = f"tree {sorted(g.edges)} target {t}: oracle {table[t]} formula {want}"
                    break
            trees += 1
            if bad:
                break
        report.add(
            f"trees n={n}",
            bad is None,
            bad or f"{trees} trees x {n} targets, exact match",
        )
    return report


def _check_palm_battery(report: SuiteReport, n: int, d: int, check_id: str, agree: str) -> None:
    """Crown-uniform hiding on the palm of height ``d`` holds every battery
    policy to (n+d-1)/2; the pass detail reads ``<count> policies <agree> <value>``."""
    strategy = palm_crown_mixed(n, d)
    want = palm_expected_position(n, d)
    results = adversarial_policy_battery(strategy.atoms[0][0], strategy, d)
    bad = [f"{name}: {value}" for name, value in results if value != want]
    report.add(check_id, not bad, "; ".join(bad) if bad else f"{len(results)} policies {agree} {want}")


def run_lemma2(max_n: int = 10) -> SuiteReport:
    """Crown-uniform hiding on palms pins every battery policy to (n+d-1)/2."""
    report = SuiteReport("lemma2")
    for n in range(2, max_n + 1):
        for d in range(1, n):
            _check_palm_battery(report, n, d, f"palm n={n} d={d}", "=")
    return report


def run_example1(mc_trials: int = 100_000, mc_seed: int = 2024) -> SuiteReport:
    """Decoy-cycle instance: DFS needs 2/3(n + d/2 - 1) steps in expectation."""
    report = SuiteReport("example1")
    policy = DFSPolicy()
    for n, d in [(7, 2), (10, 3), (12, 4)]:
        g, t = example1_graph(n, d)
        got = exact_expected_pos(policy, g, t, memoized=True)
        want = Fraction(2, 3) * (n + Fraction(d, 2) - 1)
        report.add(f"exact n={n} d={d}", got == want, f"oracle {got}, formula {want}")
    n, d = 30, 4
    g, t = example1_graph(n, d)
    want = Fraction(2, 3) * (n + Fraction(d, 2) - 1)
    res = monte_carlo(policy, HiderStrategy.pure(g, t), mc_trials, mc_seed)
    report.add(
        f"monte-carlo n={n} d={d}",
        res.covers(want),
        f"mean {res.mean:.4f} vs {float(want):.4f}, stderr {res.stderr:.5f}",
    )
    return report


def run_example2() -> SuiteReport:
    """Twin-path instance: bounded DFS needs 2/3(n + 1/2) steps in expectation."""
    report = SuiteReport("example2")
    for n, d in [(17, 5), (20, 6)]:
        g, t = example2_graph(n, d)
        got = exact_expected_pos(BoundedDFSPolicy(d), g, t, node_limit=None, memoized=True)
        want = Fraction(2, 3) * (n + Fraction(1, 2))
        report.add(f"exact n={n} d={d}", got == want, f"oracle {got}, formula {want}")
    return report


def run_examples(mc_trials: int = 100_000, mc_seed: int = 2024) -> SuiteReport:
    report = SuiteReport("examples")
    for sub in (run_example1(mc_trials, mc_seed), run_example2()):
        report.checks.extend(
            CheckResult(f"{sub.suite}:{c.check_id}", c.passed, c.detail) for c in sub.checks
        )
    return report


def _visit_tables(g, d: int) -> dict[str, dict[tuple[int, int], Fraction]]:
    """P(v before t) for every pair of ``g``, by strategy; sigma_star is mixed
    from its components' tables, so each component DAG is expanded once."""
    tables = {s: exact_visit_table(policy_from_id(s, d=d), g, node_limit=None)
              for s in ("dfs", "adfs", "dfs_d")}
    tables["sigma_star"] = componentwise(sigma_star(d), lambda p: tables[p.kind])
    return tables


def run_tables(corpus: str = "default") -> SuiteReport:
    """Table probabilities vs the oracle on the corpus, with branch coverage."""
    if corpus != "default":
        raise ValueError(f"unknown corpus {corpus!r}")
    report = SuiteReport("tables")
    fired: dict[str, int] = {}
    for instance in default_corpus():
        tables = _visit_tables(instance.graph, instance.d)
        for strategy, table in tables.items():
            bad = None
            pairs = 0
            for t, v, res in admitted_pairs(strategy, instance.graph, 0, instance.d):
                got = table[v, t]
                fired[res.case_label] = fired.get(res.case_label, 0) + 1
                pairs += 1
                if got != res.probability:
                    bad = f"(t={t}, v={v}) {res.case_label}: table {res.probability} oracle {got}"
                    break
            if bad:
                report.add(f"{instance.name}/{strategy}", False, bad)
            elif pairs:
                report.add(f"{instance.name}/{strategy}", True, f"{pairs} pairs exact")
    for strategy, labels in ALL_CASE_LABELS.items():
        missing = sorted(labels - set(fired))
        report.add(
            f"coverage/{strategy}",
            not missing,
            f"missing: {missing}" if missing else f"{len(labels)} branches fired",
        )
    return report


def run_prop1() -> SuiteReport:
    """Mixture bound 9n/16 + (13d-11)/16 plus the component-identity check."""
    report = SuiteReport("prop1")
    for instance in default_corpus():
        g, d = instance.graph, instance.d
        bound = mixture_capture_bound(g.n, d)
        dist = bfs_distances(g, 0)
        tables = _visit_tables(g, d)
        mixed = tables["sigma_star"]  # E[pos h] (0-based) = sum over v of P(v before h)
        h, value = max(((h, sum(mixed[v, h] for v in range(g.n) if v != h)) for h in range(g.n) if dist[h] <= d),
                       key=lambda hv: hv[1])
        report.add(
            f"{instance.name}/bound",
            value <= bound,
            f"max E[pos] = {value} at h={h}, bound {bound}",
        )
        bad = None
        pairs = 0
        for t, v, res in admitted_pairs("sigma_star", g, 0, d):
            # the paper's weights, stated apart from seeker.SIGMA_STAR_WEIGHTS
            combo = (Fraction(3, 8) * (tables["dfs"][v, t] + tables["adfs"][v, t])
                     + Fraction(1, 4) * tables["dfs_d"][v, t])
            pairs += 1
            if combo != res.probability:
                bad = f"(t={t}, v={v}): table {res.probability}, component mix {combo}"
                break
        report.add(
            f"{instance.name}/identity",
            bad is None,
            bad or f"{pairs} pairs: 3/8 dfs + 3/8 adfs + 1/4 dfs_d matches",
        )
    return report


def _equilibrium_benefits(n: int) -> list[BenefitFunction]:
    out = [BenefitFunction.step(cut, n) for cut in range(1, n)]
    out.append(BenefitFunction.geometric("1/2", n))
    out.append(BenefitFunction.geometric("0.9", n))
    return out


def run_equilibrium(
    ns: tuple[int, ...] = (5, 6, 7),
    benefit_specs: tuple[str, ...] | None = None,
) -> SuiteReport:
    """Exhaustive best responses against DFS and the seeker-side tie check.

    The depth score benefit(d) * (n+d-1)/2 is compared over d >= 1: depth 0
    means hiding at the source, which is found immediately and can never be a
    best response, and no palm of height 0 exists to realize the score.
    """
    report = SuiteReport("equilibrium")
    policy = DFSPolicy()
    for n in tree_sizes(ns):
        benefits = ([BenefitFunction.from_spec(spec, n) for spec in benefit_specs] if benefit_specs
                    else _equilibrium_benefits(n))
        tie_depths: set[int] = set()
        searched = best_response_hider(n, benefits, policy)
        for benefit, (_, _, best) in zip(benefits, searched):
            pure_scores = {d: hider_payoff(benefit, d, n) for d in range(1, n)}
            want = max(pure_scores.values())
            d_star = min(d for d, val in pure_scores.items() if val == want)
            tie_depths.add(d_star)
            crown_payoff = benefit(d_star) * hider_value(policy, palm_crown_mixed(n, d_star))
            report.add(
                f"best-response n={n} {benefit.kind}",
                best == want and crown_payoff == want,
                f"search max {best}, palm-crown payoff {crown_payoff}, target {want}",
            )
        for d_star in sorted(tie_depths):
            _check_palm_battery(report, n, d_star, f"seeker-tie n={n} d={d_star}", "tie at")
    if benefit_specs is None:
        tie = optimal_hiding_depths(BenefitFunction.geometric("0.9", 10), 10)
        report.add(
            "depth-tie rho=0.9 n=10",
            tie == frozenset({0, 1}),
            f"optimal depths {sorted(tie)}",
        )
    return report


def run_equivalence(max_n: int = 7) -> SuiteReport:
    """On trees, bound-n DFS and adjusted DFS match plain DFS observation-wise.

    The walk looks at a state's children before the state, so a failing tree
    names the first differing state in that order, and no later tree is walked.
    """
    report = SuiteReport("equivalence")
    dfs = DFSPolicy()
    adjusted = AdjustedDFSPolicy()
    for n in tree_sizes(range(2, max_n + 1)):
        others = ((f"dfs_{n}", BoundedDFSPolicy(n)), ("adfs", adjusted))
        observations = 0
        bad = None

        def look(state, moves):
            nonlocal observations, bad
            if bad:
                return
            for name, policy in others:
                if policy.distribution(state) != moves:
                    bad = f"{name} differs at {tuple(state.visited)} on {sorted(g.edges)}"
                    return
            observations += 1

        for g in all_trees(n):
            reachable_observations(dfs, g, look)
            if bad:
                break
        report.add(
            f"trees n={n}",
            bad is None,
            bad or f"{observations} observations, distributions identical",
        )
    return report


SUITES = {
    "lemma1": run_lemma1,
    "lemma2": run_lemma2,
    "tables": run_tables,
    "examples": run_examples,
    "prop1": run_prop1,
    "equilibrium": run_equilibrium,
    "equivalence": run_equivalence,
}
