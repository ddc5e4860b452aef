"""The benchmark tracer still finds every entry point it rebinds by name.

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
from hideseek import suites
from hideseek.hider import example1_graph
from tracer import Recorder, instrument

rec = Recorder()
instrument(rec)
g, t = example1_graph(10, 3)
analysis.expected_position_from_tables("dfs", g, 0, t)
for report in (suites.run_equivalence(max_n=3), suites.run_lemma1(max_n=4), suites.run_lemma2(max_n=3)):
    assert report.passed, report.lines()
print(json.dumps(sorted(set(rec.name))))
"""


def test_instrument_binds_and_records_a_closed_form():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    names = set(json.loads(done.stdout))
    assert {
        "analysis.expected_position_from_tables",
        "analysis.pairwise_probability",
        "graphs.path_profiles",
        "oracle.reachable_observations",
        "oracle.exact_position_table",
    } <= names
