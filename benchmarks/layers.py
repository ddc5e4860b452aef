"""Per-layer metrics: their names and units, and how each is read off a run.

Two sources feed them.  Job-level times (ms per episode, seconds per target,
seconds per suite) come from the untraced repetitions of a traced run, so
they compare with untraced baselines.  Everything else (call counts, self
times, ratios, cache sizes) comes from the spans of the traced repetitions.
A metric whose layer does no work on a workload reads 0 and is named in the
run's list of metrics it could not measure.
"""
from __future__ import annotations

from collections import Counter

MC_JOBS = ("ex1_30_4.dfs", "ex2_32_5.dfs_d", "palm_crown_10_3.sigma_star", "palm_100_3.dfs",
           "rrt_300.dfs", "uni_150.adfs", "uni_150.dfs_d", "ex2_120_8.sigma_star")
KINDS = ("dfs", "dfs_d", "adfs", "lowest_label", "highest_label", "breadth_first")
CLAUSES = ("nodes-not-distinct", "target-not-leaf-or-cycle", "v-on-every-target-path",
           "target-on-every-v-path", "target-beyond-bound", "no-table-row",
           "cycle-outside-bound")
CLOSED_JOBS = ("ex1_160_3.dfs", "ex1_160_3.adfs", "ex2_120_8.dfs", "ex2_120_8.adfs",
               "ex2_120_8.dfs_d", "ex2_120_8.sigma_star", "uni_30x6.dfs", "uni_30x6.adfs",
               "uni_30x6.dfs_d", "uni_30x6.sigma_star")
SUITES = ("tables", "prop1", "lemma2", "lemma1", "equivalence")
ORACLE_JOBS = ("palm_16_3.dfs", "seq_ex1_10_3.sigma_star")
CLI_MODES = ("exact", "closed", "mc")

PER_LAYER: list[tuple[str, str]] = (
    [(f"simulate.ms_per_episode.{j}", "ms") for j in MC_JOBS]
    + [("simulate.trial_rng.self_ms", "ms"), ("seeker.draw.calls", "count")]
    + [(f"seeker.distribution.calls.{k}", "count") for k in KINDS]
    + [(f"seeker.distribution.self_ms.{k}", "ms") for k in KINDS]
    + [("seeker.state_key.calls", "count"), ("seeker.decision_reuse_ratio", "1"),
       ("graphs.closed_subgraph.calls", "count"), ("graphs.closed_subgraph.self_ms", "ms"),
       ("graphs.view_reuse_ratio", "1"),
       ("graphs.path_profiles.calls", "count"), ("graphs.path_profiles.self_ms", "ms"),
       ("graphs.cached_profiles.hit_ratio", "1"), ("graphs.cached_profiles.currsize", "count"),
       ("graphs.must_pass.calls", "count"), ("graphs.must_pass.self_ms", "ms"),
       ("graphs.simple_path_counts.calls", "count"), ("graphs.simple_path_counts.self_ms", "ms"),
       ("oracle.states_expanded", "count"), ("oracle.memo_hit_ratio", "1"),
       ("oracle.states_per_s", "1/s"), ("oracle.view_builds", "count"),
       ("oracle.self_ms", "ms")]
    + [(f"oracle.s.{j}", "s") for j in ORACLE_JOBS]
    + [("analysis.pairwise.calls", "count"), ("analysis.pairwise.self_ms", "ms"),
       ("analysis.admit_ratio", "1")]
    + [(f"analysis.refusals.{c}", "count") for c in CLAUSES]
    + [(f"analysis.s_per_target.{j}", "s") for j in CLOSED_JOBS]
    + [("analysis.tree_formula.ms_per_target", "ms")]
    + [(f"suites.s.{s}", "s") for s in SUITES]
    + [("suites.checks", "count"), ("hider.build_s", "s"), ("corpus.build_s", "s")]
    + [(f"cli.self_ms.{m}", "ms") for m in CLI_MODES]
    + [("trace.overhead_ratio", "1")]
)
UNITS = dict(PER_LAYER)


def job_metrics(jobs: list[dict]) -> dict[str, float]:
    """Metrics that are one job's time, per trial or target where it has them
    (a Monte Carlo job's items are its trials, a closed job's its targets)."""
    out: dict[str, float] = {}
    for job in jobs:
        secs, items = job["seconds"], job["items"]
        if not items:
            continue  # the job failed
        family, _, rest = job["name"].partition(".")
        if family == "mc":
            out[f"simulate.ms_per_episode.{rest}"] = 1000 * secs / items
        elif family == "exact":
            out[f"oracle.s.{rest}"] = secs
        elif family == "suite":
            out[f"suites.s.{rest}"] = secs
        elif rest == "rrt_400.tree_formula":
            out["analysis.tree_formula.ms_per_target"] = 1000 * secs / items
        elif family == "closed" and rest in CLOSED_JOBS:
            out[f"analysis.s_per_target.{rest}"] = secs / items
    return out


def span_metrics(rec, cache_info) -> dict[str, float]:
    """Counts, self times and ratios from one traced repetition's spans."""
    names, tags = rec.name, rec.tag
    self_s = rec.self_times()
    in_oracle = rec.nearest("oracle.")
    in_sim = rec.nearest("simulate.monte_carlo")
    calls: Counter = Counter(names)
    self_ms: Counter = Counter()
    for i, name in enumerate(names):
        self_ms[name] += 1000 * self_s[i]

    out: dict[str, float] = {
        "simulate.trial_rng.self_ms": self_ms["simulate.trial_rng"],
        "seeker.draw.calls": calls["seeker.draw"],
        "seeker.state_key.calls": calls["seeker.state_key"],
    }
    for stem in ("closed_subgraph", "path_profiles", "must_pass", "simple_path_counts"):
        out[f"graphs.{stem}.calls"] = calls[f"graphs.{stem}"]
        out[f"graphs.{stem}.self_ms"] = self_ms[f"graphs.{stem}"]

    kind_calls: Counter = Counter()
    kind_ms: Counter = Counter()
    sim_dist = sim_views = expanded = expanded_memo = oracle_keys = oracle_views = 0
    oracle_s = 0.0
    oracle_ms = hider_s = corpus_s = 0.0
    admitted = refused = 0
    clauses: Counter = Counter()
    in_hider = rec.nearest("hider.")
    for i, name in enumerate(names):
        o = in_oracle[i]
        if name == "seeker.distribution":
            kind_calls[tags[i]] += 1
            kind_ms[tags[i]] += 1000 * self_s[i]
            if o >= 0:
                expanded += 1
                expanded_memo += bool(tags[o])
            elif in_sim[i] >= 0:
                sim_dist += 1
        elif name == "seeker.state_key":
            oracle_keys += o >= 0
        elif name == "graphs.closed_subgraph":
            if o >= 0:
                oracle_views += 1
            elif in_sim[i] >= 0:
                sim_views += 1
        elif name.startswith("oracle."):
            oracle_ms += 1000 * self_s[i]
            if o < 0:
                oracle_s += rec.duration(i)
        elif name == "analysis.pairwise_probability":
            if tags[i] is None:
                admitted += 1
            else:
                refused += 1
                clauses[tags[i]] += 1
        elif name.startswith("hider.") and in_hider[i] < 0:
            hider_s += rec.duration(i)
        elif name == "corpus.default_corpus":
            corpus_s += rec.duration(i)

    for k in KINDS:
        out[f"seeker.distribution.calls.{k}"] = kind_calls[k]
        out[f"seeker.distribution.self_ms.{k}"] = kind_ms[k]
    draws = calls["seeker.draw"]
    if draws:
        out["seeker.decision_reuse_ratio"] = 1 - sim_dist / draws
        out["graphs.view_reuse_ratio"] = 1 - sim_views / draws
    lookups = cache_info.hits + cache_info.misses
    if lookups:
        out["graphs.cached_profiles.hit_ratio"] = cache_info.hits / lookups
    out["graphs.cached_profiles.currsize"] = cache_info.currsize
    out["oracle.states_expanded"] = expanded
    out["oracle.view_builds"] = oracle_views
    out["oracle.self_ms"] = oracle_ms
    if oracle_keys:
        out["oracle.memo_hit_ratio"] = 1 - expanded_memo / oracle_keys
    if oracle_s > 0:
        out["oracle.states_per_s"] = expanded / oracle_s
    out["analysis.pairwise.calls"] = calls["analysis.pairwise_probability"]
    out["analysis.pairwise.self_ms"] = self_ms["analysis.pairwise_probability"]
    if admitted + refused:
        out["analysis.admit_ratio"] = admitted / (admitted + refused)
    for c in CLAUSES:
        out[f"analysis.refusals.{c}"] = clauses[c]
    out["hider.build_s"] = hider_s
    out["corpus.build_s"] = corpus_s
    return out
