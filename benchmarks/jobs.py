"""The four workloads as fixed job lists, each job with the check of its output.

A job is one call of the kind a ``hideseek eval`` / ``verify`` / ``batch`` run
makes.  Building a workload (graphs, corpus, policies, hider strategies) is
the set-up; the job list runs afterwards in a fixed order, because the
program's caches are process-global and carry from one job to the next.

Engines are reached as module attributes at call time (``simulate.monte_carlo``
rather than a name bound at import), so the traced run's rebinding applies.

Checks run after the timed list.  ``check`` returns ``None`` when the output
is right and a one-line reason otherwise; references that cost real work (the
tables on the random unicyclic graph, the oracle on the corpus) are computed
only there.  ``record`` turns an output into the JSON value kept in
``baseline.json``; a recorded value must be matched exactly, at the default
seed only when ``seeded`` is set, otherwise at every seed.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from hideseek import analysis, corpus, graphs, hider, oracle, seeker, simulate, suites
from hideseek.errors import PreconditionViolated

from .inputs import random_recursive_tree, random_unicyclic

STRATEGIES = ("dfs", "adfs", "dfs_d", "sigma_star")
MC_WIDTH = 4.0  # standard errors a sampled mean may sit from its reference


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], str | None]  # (output, outputs of all jobs) -> failure
    digest: Callable[[Any], str]              # canonical text of the output
    items: Callable[[Any], int]               # trials, targets, checks or rows produced
    record: Callable[[Any], Any] | None = None
    seeded: bool = False                      # the recorded value holds at the default seed only


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _one(_output) -> int:
    return 1


def _fail_unless(ok: bool, detail: str) -> str | None:
    return None if ok else detail


# ---------------------------------------------------------------- Monte Carlo

def _mc_job(name: str, policy, strategy, trials: int, seed: int, reference) -> Job:
    """``reference`` is a Fraction or a zero-argument callable producing one."""

    def run():
        return simulate.monte_carlo(policy, strategy, trials, seed, workers=1)

    def check(res, outputs):
        ref = reference() if callable(reference) else reference
        return _fail_unless(res.covers(ref, MC_WIDTH),
                            f"mean {res.mean!r} is more than {MC_WIDTH} standard errors "
                            f"({res.stderr!r}) from {ref}")

    return Job(name, run, check, lambda r: f"{r.mean!r},{r.stderr!r}",
               items=lambda r: r.trials,
               record=lambda r: [r.mean, r.stderr], seeded=True)


def _pure(g, t):
    return hider.HiderStrategy.pure(g, t)


def mc_small(seed: int) -> list[Job]:
    """Small instances whose episodes repeat, so the execution cache is hot."""
    g1, t1 = hider.example1_graph(30, 4)
    g2, t2 = hider.example2_graph(32, 5)
    crown = hider.palm_crown_mixed(10, 3)
    return [
        _mc_job("mc.ex1_30_4.dfs", seeker.DFSPolicy(), _pure(g1, t1), 12000, seed,
                Fraction(2, 3) * (30 + Fraction(4, 2) - 1)),
        _mc_job("mc.ex2_32_5.dfs_d", seeker.BoundedDFSPolicy(5), _pure(g2, t2), 1000, seed,
                Fraction(2, 3) * (32 + Fraction(1, 2))),
        _mc_job("mc.palm_crown_10_3.sigma_star", seeker.sigma_star(3), crown, 8000, seed,
                analysis.palm_expected_position(10, 3)),
    ]


def mc_large(seed: int) -> list[Job]:
    """Larger instances where almost no visit prefix repeats."""
    palm = hider.palm_tree(100, 3)
    tree = random_recursive_tree(300, seed)
    uni = random_unicyclic(150, seed)
    g2, t2 = hider.example2_graph(120, 8)

    def tables(strategy, g, t, d):
        return lambda: analysis.expected_position_from_tables(strategy, g, 0, t, d)

    return [
        _mc_job("mc.palm_100_3.dfs", seeker.DFSPolicy(), _pure(palm, 99), 48, seed,
                analysis.palm_expected_position(100, 3)),
        _mc_job("mc.rrt_300.dfs", seeker.DFSPolicy(), _pure(tree.graph, tree.target), 40, seed,
                lambda: analysis.tree_dfs_expected_position(tree.graph, 0, tree.target)),
        _mc_job("mc.uni_150.adfs", seeker.AdjustedDFSPolicy(), _pure(uni.graph, uni.target),
                40, seed, tables("adfs", uni.graph, uni.target, uni.d)),
        _mc_job("mc.uni_150.dfs_d", seeker.BoundedDFSPolicy(uni.d), _pure(uni.graph, uni.target),
                40, seed, tables("dfs_d", uni.graph, uni.target, uni.d)),
        _mc_job("mc.ex2_120_8.sigma_star", seeker.sigma_star(8), _pure(g2, t2), 48, seed,
                tables("sigma_star", g2, t2, 8)),
    ]


# ---------------------------------------------------------------------- exact

def _suite_job(runner_name: str, **kwargs) -> Job:
    def run():
        return getattr(suites, runner_name)(**kwargs)

    def check(report, outputs):
        if report.passed:
            return None
        failures = report.failures()
        return f"{failures[0].check_id}: {failures[0].detail}" if failures else "no checks"

    return Job(f"suite.{runner_name[4:]}", run, check, lambda r: "\n".join(r.lines()),
               items=lambda r: len(r.checks))


def exact(seed: int) -> list[Job]:
    """Enumeration: one deep merged walk, suite re-walks, thousands of tiny trees.

    Nothing here is random, so the seed only names the run.
    """
    palm = hider.palm_tree(16, 3)
    g1, t1 = hider.example1_graph(10, 3)
    mix = seeker.sigma_star(3)

    def palm_check(value, outputs):
        want = analysis.tree_dfs_expected_position(palm, 0, 15)
        return _fail_unless(value == want == analysis.palm_expected_position(16, 3),
                            f"oracle {value}, tree formula {want}")

    def seq_check(value, outputs):
        merged = oracle.exact_expected_pos(mix, g1, t1, memoized=True)
        return _fail_unless(value == merged, f"sequence-keyed {value} != memoized {merged}")

    return [
        Job("exact.palm_16_3.dfs",
            lambda: oracle.exact_expected_pos(seeker.DFSPolicy(), palm, 15,
                                              node_limit=None, memoized=True),
            palm_check, str, items=_one),
        _suite_job("run_tables"),
        _suite_job("run_prop1"),
        _suite_job("run_lemma2", max_n=8),
        _suite_job("run_lemma1", max_n=6),
        _suite_job("run_equivalence", max_n=6),
        Job("exact.seq_ex1_10_3.sigma_star",
            lambda: oracle.exact_expected_pos(mix, g1, t1, memoized=False),
            seq_check, str, items=_one, record=str),
    ]


# --------------------------------------------------------------------- closed

def _closed_job(name: str, strategy: str, g, t, d, check) -> Job:
    return Job(name,
               lambda: analysis.expected_position_from_tables(strategy, g, 0, t, d),
               check, str, items=_one, record=str)


def _paper(want: Fraction):
    return lambda value, outputs: _fail_unless(value == want, f"{value}, paper formula {want}")


def _out_of_range(g, t, value) -> str | None:
    """An expected position lies between the target's distance and n - 1."""
    lo = graphs.bfs_distances(g, 0)[t]
    return _fail_unless(lo <= value <= g.n - 1, f"target {t}: {value} outside [{lo}, {g.n - 1}]")


def _in_range(g, t):
    return lambda value, outputs: _out_of_range(g, t, value)


def _mixture(prefix: str):
    def check(value, outputs):
        """The upfront mixture is 3/8 dfs + 3/8 adfs + 1/4 dfs_d, by linearity."""
        parts = [outputs.get(f"{prefix}.{s}") for s in ("dfs", "adfs", "dfs_d")]
        if any(not isinstance(p, Fraction) for p in parts):
            return "a mixture component failed"
        want = Fraction(3, 8) * parts[0] + Fraction(3, 8) * parts[1] + Fraction(1, 4) * parts[2]
        return _fail_unless(value == want, f"{value} != 3/8 dfs + 3/8 adfs + 1/4 dfs_d = {want}")

    return check


def _every_target(instances, strategy: str):
    """(instance index, target, value or refusal clause) for every target."""
    out = []
    for k, inst in enumerate(instances):
        for t in range(inst.graph.n):
            try:
                value = analysis.expected_position_from_tables(strategy, inst.graph, 0, t, inst.d)
            except PreconditionViolated as exc:
                value = exc.clause
            out.append((k, t, value))
    return out


def refusal_counts(rows) -> dict[str, int]:
    """Targets admitted (``ok``) and refused, by ``PreconditionViolated.clause``."""
    return dict(sorted(Counter("ok" if isinstance(v, Fraction) else v
                               for *_, v in rows).items()))


def _uni_job(name: str, instances, strategy: str) -> Job:
    def check(rows, outputs):
        for k, t, v in rows:
            failure = isinstance(v, Fraction) and _out_of_range(instances[k].graph, t, v)
            if failure:
                return f"graph {k} {failure}"
        if all(isinstance(v, str) for *_, v in rows):
            return "the tables refused every target"
        return None

    return Job(name, lambda: _every_target(instances, strategy), check,
               lambda rows: ";".join(f"{k}:{t}:{v}" for k, t, v in rows), items=len,
               record=refusal_counts, seeded=True)


def _csv_rows(instances):
    return [row
            for inst in instances
            for strategy in STRATEGIES
            for row in analysis.pairwise_csv_rows(inst.name, strategy, inst.graph, 0, inst.d)]


def _csv_check(instances):
    by_name = {inst.name: inst for inst in instances}

    def check(rows, outputs):
        for row in rows:
            name, strategy, t, v, _label, prob = row.split(",")
            inst = by_name[name]
            policy = seeker.policy_from_id(strategy, d=inst.d)
            got = oracle.exact_visit_prob(policy, inst.graph, int(v), int(t),
                                          node_limit=None, memoized=True)
            if got != Fraction(prob):
                return f"{row}: oracle {got}"
        return None

    return check


def _tree_check(n: int):
    def check(values, outputs):
        # the positions of one episode are a permutation of 0..n-1
        total = sum(values)
        return _fail_unless(total == Fraction(n * (n - 1), 2),
                            f"expected positions sum to {total}, not {n * (n - 1) // 2}")

    return check


def closed(seed: int) -> list[Job]:
    """Closed forms: O(n^3) tables on the decoys and on random unicyclic graphs."""
    g1, t1 = hider.example1_graph(160, 3)
    g2, t2 = hider.example2_graph(120, 8)
    # six small graphs rather than one of n = 60: the cost of one graph's
    # targets swings with its shape, and the sum over six swings far less
    unis = [random_unicyclic(30, seed * 6 + k) for k in range(6)]
    instances = corpus.default_corpus()
    tree = random_recursive_tree(400, seed)
    n = tree.graph.n
    ex1 = Fraction(2, 3) * (160 + Fraction(3, 2) - 1)
    ex2 = Fraction(2, 3) * (120 + Fraction(1, 2))
    return [
        _closed_job("closed.ex1_160_3.dfs", "dfs", g1, t1, 3, _paper(ex1)),
        _closed_job("closed.ex1_160_3.adfs", "adfs", g1, t1, 3, _in_range(g1, t1)),
        _closed_job("closed.ex2_120_8.dfs", "dfs", g2, t2, 8, _in_range(g2, t2)),
        _closed_job("closed.ex2_120_8.adfs", "adfs", g2, t2, 8, _in_range(g2, t2)),
        _closed_job("closed.ex2_120_8.dfs_d", "dfs_d", g2, t2, 8, _paper(ex2)),
        _closed_job("closed.ex2_120_8.sigma_star", "sigma_star", g2, t2, 8,
                    _mixture("closed.ex2_120_8")),
        *[_uni_job(f"closed.uni_30x6.{s}", unis, s) for s in STRATEGIES],
        Job("closed.corpus_csv", lambda: _csv_rows(instances), _csv_check(instances),
            lambda rows: "\n".join(rows), items=len,
            record=lambda rows: sha("\n".join(rows))),
        Job("closed.rrt_400.tree_formula",
            lambda: [analysis.tree_dfs_expected_position(tree.graph, 0, t) for t in range(n)],
            _tree_check(n), lambda vals: ";".join(map(str, vals)), items=len),
    ]


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "mc_small": mc_small,
    "mc_large": mc_large,
    "exact": exact,
    "closed": closed,
}
