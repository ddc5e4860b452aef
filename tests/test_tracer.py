"""The benchmark tracer still finds every entry point it rebinds by name, and
every benchmark workload still builds its inputs.

``benchmarks/tracer.py`` looks the traced functions up with ``getattr``, so a
renamed or deleted one breaks ``benchmarks/run.py --trace 1``.  The rebinding
is global, so it runs in a child interpreter and leaks into no other test.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import hideseek.analysis as analysis
from hideseek import oracle, simulate, suites
from hideseek.hider import HiderStrategy, example1_graph
from hideseek.seeker import sigma_star
from tracer import Recorder, instrument

rec = Recorder()
instrument(rec)
g, t = example1_graph(10, 3)
analysis.expected_position_from_tables("dfs", g, 0, t)
for report in (suites.run_equivalence(max_n=3), suites.run_lemma1(max_n=4), suites.run_lemma2(max_n=3)):
    assert report.passed, report.lines()
simulate.monte_carlo(sigma_star(3), HiderStrategy.pure(g, t), 200, 7, workers=1)
oracle.exact_expected_pos(sigma_star(3), g, t, memoized=True)
kinds = {{tag for name, tag in zip(rec.name, rec.tag) if name == "seeker.distribution"}}
calls = [i for i, name in enumerate(rec.name) if name == "seeker.distribution"]
in_mc, in_pos = rec.nearest("simulate.monte_carlo"), rec.nearest("oracle.exact_expected_pos")
print(json.dumps({{"names": sorted(set(rec.name)), "kinds": sorted(kinds),
                  "in_monte_carlo": sum(in_mc[i] >= 0 for i in calls),
                  "in_memoized_pos": sum(in_pos[i] >= 0 and rec.tag[in_pos[i]] is True for i in calls)}}))
"""


def test_instrument_binds_and_records_a_closed_form():
    """The spans a traced run records, down to the policy calls inside the
    sampler and inside a memoized oracle walk, which
    ``seeker.decision_reuse_ratio`` and ``oracle.states_expanded`` count."""
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    names = set(out["names"])
    assert {
        "analysis.expected_position_from_tables",
        "analysis.pairwise_probability",
        "graphs.path_profiles",
        "oracle.reachable_observations",
        "oracle.exact_position_table",
        "seeker.state_key",
    } <= names
    # distribution is defined once, on the base policy class, and each span
    # is still tagged with the kind of the policy that ran it
    assert {"dfs", "dfs_d", "adfs"} <= set(out["kinds"])
    assert out["in_monte_carlo"] > 0
    assert out["in_memoized_pos"] > 0


MEMO_SCRIPT = """
import inspect, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from hideseek import oracle
from tracer import ORACLE_DEFAULT_MEMO

defaults = {{}}
for name in ORACLE_DEFAULT_MEMO:
    param = inspect.signature(getattr(oracle, name)).parameters.get("memoized")
    if param is not None:
        defaults[name] = param.default
print(json.dumps({{"table": ORACLE_DEFAULT_MEMO, "defaults": defaults}}))
"""


def test_memo_table_matches_the_oracle_defaults():
    """The tracer tags an oracle span whose call passes no ``memoized`` with its
    table's default, so each entry must be the function's own default."""
    script = MEMO_SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["defaults"], "no oracle function in the table takes memoized"
    assert out["defaults"] == {name: out["table"][name] for name in out["defaults"]}


WORKLOAD_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from benchmarks import jobs

print(json.dumps({{f"{{w}}/{{seed}}": len(jobs.WORKLOADS[w](seed))
                  for w in sorted(jobs.WORKLOADS) for seed in (0, 1)}}))
"""


def test_every_workload_builds_its_inputs():
    """A graph check that refuses one of the benchmark's inputs fails here, not
    only in a benchmark run.  Each workload's job list is built at two seeds,
    and no job runs."""
    script = WORKLOAD_SCRIPT.format(src=str(ROOT / "src"), root=str(ROOT))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert sorted(counts) == [f"{w}/{seed}" for w in ("closed", "exact", "mc_large", "mc_small")
                              for seed in (0, 1)]
    assert all(counts.values()), counts
