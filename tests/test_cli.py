import dataclasses
import functools
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek import __version__, oracle, suites
from hideseek.analysis import STRATEGIES
from hideseek.cli import MODES, SPEC_FIELDS, main, verify
from hideseek.corpus import default_corpus
from hideseek.graphs import graph_to_json
from hideseek.hider import TREE_ENUM_LIMIT, example1_graph


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestGen:
    def test_palm(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "palm.json"
        result = invoke(runner, "gen", "palm", "--n", "10", "--d", "3", "--out", str(out))
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 10 and len(doc["edges"]) == 9
        assert doc["edges"] == sorted(doc["edges"])

    def test_example1_has_target(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "ex1.json"
        result = invoke(runner, "gen", "example1", "--n", "10", "--d", "3", "--out", str(out))
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc["edges"]) == 10 and doc["target"] == 3

    def test_bad_shape_exit_code(self):
        runner = CliRunner()
        result = runner.invoke(main, ["gen", "example2", "--n", "4", "--d", "5"])
        assert result.exit_code == 2
        assert "BadShape" in result.output

    def test_tree_enum(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "trees.jsonl"
        result = invoke(runner, "gen", "tree-enum", "--n", "3", "--out", str(out))
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_manifest_written(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "palm.json"
        invoke(runner, "gen", "palm", "--n", "6", "--d", "2", "--out", str(out))
        manifest = json.loads((tmp_path / "palm.json.manifest.json").read_text())
        assert manifest["command"] == "gen palm"
        assert manifest["params"] == {"n": 6, "d": 2}


def _stalk(tmp_path) -> Path:
    """The corpus instance ``stalk_wide_d5``, whose target 10 has sigma_star's
    closed form 23/3 at d = 5."""
    graph = tmp_path / "stalk.json"
    instance = next(i for i in default_corpus() if i.name == "stalk_wide_d5")
    graph.write_text(graph_to_json(instance.graph))
    return graph


class TestEval:
    def _ex1(self, runner, tmp_path):
        out = tmp_path / "ex1.json"
        invoke(runner, "gen", "example1", "--n", "10", "--d", "3", "--out", str(out))
        return out

    def test_exact_dfs(self, tmp_path):
        runner = CliRunner()
        graph = self._ex1(runner, tmp_path)
        with runner.isolated_filesystem():
            result = invoke(runner, "eval", "--graph", str(graph), "--strategy", "dfs", "--mode", "exact")
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == "ex1,dfs,3,exact,7"

    def test_closed_palm(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "palm.json"
        invoke(runner, "gen", "palm", "--n", "10", "--d", "3", "--out", str(out))
        with runner.isolated_filesystem():
            result = invoke(
                runner, "eval", "--graph", str(out), "--strategy", "dfs",
                "--target", "5", "--mode", "closed",
            )
        assert result.output.splitlines()[1] == "palm,dfs,5,closed,6"

    def test_mc_byte_identical(self, tmp_path):
        runner = CliRunner()
        graph = self._ex1(runner, tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            invoke(
                runner, "eval", "--graph", str(graph), "--strategy", "dfs",
                "--mode", "mc", "--trials", "500", "--seed", "9", "--out", str(out),
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "instance,strategy,trials,seed,mean,stderr,ci_lo,ci_hi,exact"

    @pytest.mark.parametrize("n,exact", [(12, "7"), (13, "")])
    def test_mc_exact_column_follows_the_oracle_guard(self, tmp_path, n, exact):
        runner = CliRunner()
        out = tmp_path / "palm.json"
        invoke(runner, "gen", "palm", "--n", str(n), "--d", "3", "--out", str(out))
        with runner.isolated_filesystem():
            result = invoke(runner, "eval", "--graph", str(out), "--strategy", "dfs",
                            "--target", "5", "--mode", "mc", "--trials", "50")
        assert result.exit_code == 0
        assert result.output.splitlines()[1].rsplit(",", 1)[1] == exact

    def test_missing_target_rejected(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "palm.json"
        invoke(runner, "gen", "palm", "--n", "6", "--d", "2", "--out", str(out))
        result = runner.invoke(main, ["eval", "--graph", str(out), "--strategy", "dfs"])
        assert result.exit_code == 2

    def test_bounded_needs_d(self, tmp_path):
        runner = CliRunner()
        graph = self._ex1(runner, tmp_path)
        result = runner.invoke(main, ["eval", "--graph", str(graph), "--strategy", "dfs_d"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("mode", ["closed", "exact"])
    @pytest.mark.parametrize("strategy,bound,target,message", [
        ("dfs_d", [], "0", "dfs_d needs a bound d"),
        ("dfs_d", [], "5", "dfs_d needs a bound d"),
        ("sigma_star", [], "0", "sigma_star needs a bound d"),
        ("sigma_star", ["--d", "0"], "3", "mixture needs a positive bound"),
        ("dfs_d", ["--d", "-1"], "3", "bound must be non-negative"),
    ])
    def test_every_mode_refuses_the_bounds_the_policy_refuses(
            self, tmp_path, mode, strategy, bound, target, message):
        runner = CliRunner()
        graph = self._ex1(runner, tmp_path)
        result = runner.invoke(main, ["eval", "--graph", str(graph), "--strategy", strategy,
                                      "--mode", mode, "--target", target, *bound])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("mode,target", [("closed", "99"), ("closed", "-1"), ("exact", "99")])
    def test_target_out_of_range(self, tmp_path, mode, target):
        runner = CliRunner()
        out = tmp_path / "ex1.json"
        invoke(runner, "gen", "example1", "--n", "8", "--d", "2", "--out", str(out))
        result = runner.invoke(main, ["eval", "--graph", str(out), "--strategy", "dfs",
                                      "--mode", mode, "--target", target])
        assert result.exit_code == 2
        assert "NodeOutOfRange" in result.output and "EmptyFrontier" not in result.output

    def test_source_out_of_range(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "ex1.json"
        invoke(runner, "gen", "example1", "--n", "8", "--d", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["source"] = 20
        out.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--graph", str(out), "--strategy", "dfs"])
        assert result.exit_code == 2
        assert "NodeOutOfRange" in result.output


class TestBatch:
    def test_pointwise_closed_forms_refused(self, tmp_path):
        """A spec that asks for a per-step mixture (``"pointwise"``) is refused,
        not run as the upfront mixture in its place."""
        graph = _stalk(tmp_path)
        item = {"graph": str(graph), "strategy": "sigma_star", "target": 10, "d": 5, "mode": "closed"}
        spec = tmp_path / "batch.json"
        runner = CliRunner()
        with runner.isolated_filesystem():
            spec.write_text(json.dumps([{**item, "pointwise": True}]))
            result = runner.invoke(main, ["batch", "--spec", str(spec)])
            spec.write_text(json.dumps([item]))
            upfront = invoke(runner, "batch", "--spec", str(spec))
        assert result.exit_code == 2
        assert result.stderr == "error: bad batch spec: item 0: unknown key 'pointwise'\n"
        assert upfront.output.splitlines()[1] == "stalk,sigma_star,10,closed,23/3"

    @pytest.mark.parametrize("key, value", [("trails", 5), ("pointwize", True)])
    def test_unknown_key_refused(self, tmp_path, key, value):
        """A misspelt field would otherwise be dropped, and its default run in its place."""
        graph = _stalk(tmp_path)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps([{"graph": str(graph), "strategy": "dfs", "target": 10},
                                    {"graph": str(graph), "strategy": "dfs", key: value}]))
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["batch", "--spec", str(spec)])
            assert not Path("run-manifest.json").exists()
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"error: bad batch spec: item 1: unknown key {key!r}\n"

    def test_rows_sorted(self, tmp_path):
        runner = CliRunner()
        ex1 = tmp_path / "ex1.json"
        palm = tmp_path / "palm.json"
        invoke(runner, "gen", "example1", "--n", "10", "--d", "3", "--out", str(ex1))
        invoke(runner, "gen", "palm", "--n", "10", "--d", "3", "--out", str(palm))
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps([
            {"graph": str(palm), "strategy": "dfs", "target": 5, "mode": "closed"},
            {"graph": str(ex1), "strategy": "dfs", "mode": "exact"},
        ]))
        out = tmp_path / "rows.csv"
        result = invoke(runner, "batch", "--spec", str(spec), "--out", str(out))
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance,strategy,target,mode,value"
        assert lines[1:] == sorted(lines[1:])

    def test_missing_target_fails_like_eval(self, tmp_path):
        runner = CliRunner()
        palm = tmp_path / "palm.json"
        invoke(runner, "gen", "palm", "--n", "6", "--d", "2", "--out", str(palm))
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps([{"graph": str(palm), "strategy": "dfs"}]))
        result = runner.invoke(main, ["batch", "--spec", str(spec)])
        assert result.exit_code == 2
        assert "no target given and the graph file names none" in result.output
        assert "NodeOutOfRange" not in result.output


class TestEvalIsOneSpecBatch:
    """``eval`` runs as a batch of one spec: one set of defaults, checks and messages."""

    @pytest.fixture(scope="class")
    def graph(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ex1") / "ex1.json"
        path.write_text(graph_to_json(*example1_graph(10, 3)))
        return path

    # target_given: the target is named on the command line and in the spec,
    # instead of read from the graph file
    @pytest.mark.parametrize("mode,strategy,target_given", [
        *[(m, s, False) for m in MODES for s in STRATEGIES],
        ("closed", "dfs", True), ("exact", "sigma_star", True), ("mc", "sigma_star", True),
    ])
    def test_same_stdout(self, graph, tmp_path, mode, strategy, target_given):
        spec = {"graph": str(graph), "strategy": strategy, "mode": mode}
        args = ["eval", "--graph", str(graph), "--strategy", strategy, "--mode", mode]
        if strategy in ("dfs_d", "sigma_star"):
            spec["d"] = 3
            args += ["--d", "3"]
        if mode == "mc":
            spec.update(trials=300, seed=4)
            args += ["--trials", "300", "--seed", "4"]
        if target_given:
            spec["target"] = 7
            args += ["--target", "7"]
        (tmp_path / "spec.json").write_text(json.dumps([spec]))
        runner = CliRunner()
        with runner.isolated_filesystem():
            one = runner.invoke(main, args)
            both = runner.invoke(main, ["batch", "--spec", str(tmp_path / "spec.json")])
        assert (one.exit_code, one.stdout, one.stderr) == (both.exit_code, both.stdout, both.stderr)

    @pytest.mark.parametrize("strategy", ["lowest_label", "highest_label", "breadth_first"])
    def test_batch_takes_only_the_eval_strategies(self, graph, tmp_path, strategy):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"graph": str(graph), "strategy": strategy}]))
        result = CliRunner().invoke(main, ["batch", "--spec", str(spec)])
        assert result.exit_code == 2
        assert result.stderr == ("error: bad batch spec: item 0: strategy must be one of "
                                 "dfs, dfs_d, adfs, sigma_star\n")

    def test_null_target_reads_the_file(self, graph, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"graph": str(graph), "strategy": "dfs", "target": None}]))
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "batch", "--spec", str(spec))
        assert result.exit_code == 0
        assert result.output == "instance,strategy,target,mode,value\nex1,dfs,3,exact,7\n"

    def test_eval_manifest_names_the_spec_as_run(self, graph):
        runner = CliRunner()
        with runner.isolated_filesystem():
            invoke(runner, "eval", "--graph", str(graph), "--strategy", "dfs")
            manifest = json.loads(Path("run-manifest.json").read_text())
        assert manifest["params"] == {"graph": str(graph), "strategy": "dfs", "target": 3,
                                      "mode": "exact", "trials": 10000, "seed": 0}


# a value for each verify option, by the keyword its runner takes
OPTION_ARGS = {
    "max_n": ["--max-n", "4"],
    "ns": ["--n", "5"],
    "benefit_specs": ["--benefit", "constant"],
    "mc_trials": ["--trials", "5"],
    "mc_seed": ["--seed", "1"],
}


def _takes(suite: str) -> list[str]:
    """The keywords of a suite's runner: the verify options the suite takes."""
    return list(inspect.signature(suites.SUITES[suite]).parameters)


def _stub(suite: str):
    """Decorate a stub with the signature of the suite's runner, which ``verify`` reads."""
    return functools.wraps(suites.SUITES[suite])


def test_option_table_matches_the_runners():
    """Every keyword of every suite runner is a verify option, so verify can pass it on."""
    assert OPTION_ARGS.keys() == {p.name for p in verify.params} - {"suite"}
    for suite in suites.SUITES:
        assert set(_takes(suite)) <= OPTION_ARGS.keys(), suite


class TestVerify:
    @pytest.mark.parametrize("suite,keyword", [
        (suite, keyword) for suite in sorted(suites.SUITES) for keyword in OPTION_ARGS
        if keyword not in _takes(suite)
    ])
    def test_option_the_suite_does_not_take_is_refused(self, monkeypatch, suite, keyword):
        @_stub(suite)
        def sentinel(**kwargs):
            pytest.fail(f"suite {suite} ran with {kwargs}")

        monkeypatch.setitem(suites.SUITES, suite, sentinel)
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["verify", suite, *OPTION_ARGS[keyword]])
            assert not Path("run-manifest.json").exists()
        assert result.exit_code == 2
        assert result.stderr == f"error: suite {suite} takes no {OPTION_ARGS[keyword][0]}\n"

    @pytest.mark.parametrize("suite", sorted(suites.SUITES))
    def test_corpus_is_an_unknown_option(self, monkeypatch, suite):
        """``--corpus`` could only restate the one corpus; no suite takes it now."""
        @_stub(suite)
        def sentinel(**kwargs):
            pytest.fail(f"suite {suite} ran with {kwargs}")

        monkeypatch.setitem(suites.SUITES, suite, sentinel)
        result = CliRunner().invoke(main, ["verify", suite, "--corpus", "default"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--corpus" in result.stderr

    @pytest.mark.parametrize("suite", sorted(suites.SUITES))
    def test_manifest_lists_the_options_the_suite_took(self, monkeypatch, suite):
        took = {}

        @_stub(suite)
        def runner_stub(**kwargs):
            took.update(kwargs)
            report = suites.SuiteReport(suite)
            report.add("stub", True)
            return report

        monkeypatch.setitem(suites.SUITES, suite, runner_stub)
        args = [arg for keyword in _takes(suite) for arg in OPTION_ARGS[keyword]]
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", suite, *args)
            manifest = json.loads(Path("run-manifest.json").read_text())
        assert result.exit_code == 0
        assert took.keys() == set(_takes(suite))
        assert manifest["params"].keys() == {OPTION_ARGS[k][0][2:].replace("-", "_") for k in took}

    def test_lemma1_small(self):
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", "lemma1", "--max-n", "4")
            assert result.exit_code == 0
            assert "[lemma1] suite: PASS" in result.output
            manifest = json.loads(Path("run-manifest.json").read_text())
            assert manifest["command"] == "verify lemma1"
            assert manifest["params"] == {"max_n": 4}

    def test_equivalence_small(self):
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", "equivalence", "--max-n", "4")
            assert result.exit_code == 0
            assert "[equivalence] suite: PASS" in result.output

    @pytest.mark.parametrize("suite,max_n", [("lemma1", "2"), ("lemma2", "1"), ("equivalence", "1")])
    def test_suite_without_checks_is_bad_input(self, suite, max_n):
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", suite, "--max-n", max_n)
        assert result.exit_code == 2
        assert result.stderr == f"error: suite {suite} ran no checks with these options\n"

    @pytest.mark.parametrize("args", [
        ("lemma1", "--max-n", "10"),
        ("equivalence", "--max-n", "10"),
        ("equilibrium", "--n", "5", "--n", "12"),
    ])
    def test_oversized_trees_refused_before_enumeration(self, monkeypatch, args):
        def sentinel(n):
            pytest.fail(f"tree_classes({n}) ran before every size was checked")

        # lemma1 and equivalence walk the classes in suites, equilibrium in oracle
        monkeypatch.setattr(suites, "tree_classes", sentinel)
        monkeypatch.setattr(oracle, "tree_classes", sentinel)
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", *args)
        assert result.exit_code == 2
        assert result.stderr == f"error: tree enumeration capped at n = {TREE_ENUM_LIMIT}\n"

    def test_lemma2_beyond_the_oracle_limit_refused_before_any_palm(self, monkeypatch):
        def sentinel(*args, **kwargs):
            pytest.fail("a palm was searched before max_n was checked")

        monkeypatch.setattr(suites, "search_value_range", sentinel)
        limit = oracle.DEFAULT_NODE_LIMIT
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["verify", "lemma2", "--max-n", str(limit + 1)])
            assert not Path("run-manifest.json").exists()
        assert result.exit_code == 2
        assert result.stderr == f"error: enumeration guard: n = {limit + 1} exceeds {limit}\n"

    def test_lemma2_runs_up_to_the_oracle_limit(self):
        limit = oracle.DEFAULT_NODE_LIMIT
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", "lemma2", "--max-n", str(limit))
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[-2] == f"[lemma2] PASS palm n={limit} d={limit - 1} (every expanding search = {limit - 1})"
        assert lines[-1].startswith("[lemma2] suite: PASS")

    def test_a_repeated_size_runs_once(self):
        runner = CliRunner()
        with runner.isolated_filesystem():
            once = invoke(runner, "verify", "equilibrium", "--n", "4")
            twice = invoke(runner, "verify", "equilibrium", "--n", "4", "--n", "4")
        assert twice.exit_code == 0
        assert twice.output == once.output

    def test_negative_step_cutoff_refused(self):
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["verify", "equilibrium", "--n", "3", "--benefit", "step:-3"])
            assert not Path("run-manifest.json").exists()
        assert result.exit_code == 2
        assert result.stderr == "error: step cutoff must be non-negative\n"


def _formula_off_by_half(monkeypatch):
    formula = suites.tree_dfs_expected_positions
    monkeypatch.setattr(suites, "tree_dfs_expected_positions",
                        lambda g, s: [x + Fraction(1, 2) for x in formula(g, s)])


def _tables_off_by_one(monkeypatch):
    admitted = suites.admitted_pairs

    def bumped(*args):
        for t, v, res in admitted(*args):
            yield t, v, dataclasses.replace(res, probability=res.probability + 1)

    monkeypatch.setattr(suites, "admitted_pairs", bumped)


@pytest.mark.parametrize("args, break_closed_form, check_id, detail", [
    (["lemma1", "--max-n", "4"], _formula_off_by_half, "trees n=3",
     "tree [(0, 1), (1, 2)] target 0: oracle 0 formula 1/2"),
    (["tables"], _tables_off_by_one, "ring_tail/dfs",
     "(t=3, v=4) dfs:gate-target:v-double: table 5/3 oracle 2/3"),
    (["prop1"], _tables_off_by_one, "stalk_wide_d5/identity",
     "(t=2, v=8): table 3/2, component mix 1/2"),
])
def test_a_failing_check_exits_1(monkeypatch, args, break_closed_form, check_id, detail):
    """A suite whose closed-form side is off reports the FAIL on stdout, names
    the first failure on stderr and exits 1."""
    break_closed_form(monkeypatch)
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = invoke(runner, "verify", *args)
    suite = args[0]
    lines = result.stdout.splitlines()
    assert result.exit_code == 1
    assert f"[{suite}] FAIL {check_id} ({detail})" in lines
    assert lines[-1].startswith(f"[{suite}] suite: FAIL")
    assert result.stderr == f"first failure: {check_id}: {detail}\n"


@pytest.mark.parametrize("args, message", [
    (["gen", "palm", "--n", "5"], "palm needs --d"),
    (["batch", "--spec", "{bad}"], "bad batch spec: Expecting value: line 1 column 1 (char 0)"),
    (["eval", "--graph", "{bad}", "--strategy", "dfs"],
     "BadGraphFile: not JSON: Expecting value: line 1 column 1 (char 0)"),
    (["verify", "equilibrium", "--n", "5", "--benefit", "foo"],
     "benefit spec 'foo' is not step:<cutoff>, geometric:<ratio> or constant"),
    (["verify", "equilibrium", "--n", "5", "--benefit", "geometric:2"], "ratio must be in (0, 1]"),
    (["verify", "equilibrium", "--n", "5", "--benefit", "step:x"],
     "benefit spec 'step:x' is not step:<cutoff>, geometric:<ratio> or constant"),
    (["verify", "equilibrium", "--n", "5", "--benefit", "step"],
     "benefit spec 'step' is not step:<cutoff>, geometric:<ratio> or constant"),
    (["verify", "equilibrium", "--n", "5", "--benefit", "geometric:foo"],
     "benefit spec 'geometric:foo' is not step:<cutoff>, geometric:<ratio> or constant"),
    (["verify", "equilibrium", "--n", "3", "--benefit", "geometric:1/0"],
     "benefit spec 'geometric:1/0' is not step:<cutoff>, geometric:<ratio> or constant"),
    (["verify", "equilibrium", "--n", "1"], "tree enumeration needs n >= 2"),
    # one trial has standard error 0, so the 4-SE check could only demand the exact value
    (["verify", "examples", "--trials", "1"], "the Monte Carlo check needs at least 2 trials, got 1"),
], ids=["palm-without-d", "batch-spec-not-json", "graph-not-json", "unknown-benefit",
        "geometric-ratio-above-1", "step-cutoff-not-int", "step-without-cutoff",
        "geometric-ratio-not-a-number", "geometric-ratio-over-zero", "equilibrium-n-1",
        "examples-one-trial"])
def test_bad_input_exits_2(tmp_path, args, message):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, [arg.format(bad=bad) for arg in args])
        assert not Path("run-manifest.json").exists()
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_module_route_runs_without_install(tmp_path):
    """``PYTHONPATH=src python -m hideseek.cli`` serves where ``pip install -e .`` cannot."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "hideseek.cli", "--version"], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith(f"version {__version__}")


VALID_DOC = {"n": 3, "edges": [[0, 1], [1, 2]], "source": 0, "target": 2}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(-4, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _is_edge(e) -> bool:
    return type(e) is list and len(e) == 2 and all(type(x) is int for x in e)


@st.composite
def malformed_graph_docs(draw):
    """A graph document with one defect: its top level, a missing key or one bad value."""
    kind = draw(st.sampled_from(["top", "drop", "n", "edges", "source", "target"]))
    if kind == "top":
        return draw(json_values.filter(lambda x: type(x) is not dict))
    doc = dict(VALID_DOC)
    if kind == "drop":
        del doc[draw(st.sampled_from(["n", "edges"]))]
    elif kind == "edges":
        doc["edges"] = draw(json_values.filter(
            lambda x: type(x) is not list or not all(_is_edge(e) for e in x)))
    else:
        # any value but a valid one: wrong types, and integers out of range
        valid = {3} if kind == "n" else {0, 1, 2}
        doc[kind] = draw(json_values.filter(lambda x: type(x) is not int or x not in valid))
    return doc


@st.composite
def malformed_specs(draw, graph: str):
    """A batch spec with one defect; ``graph`` names a well-formed graph file."""
    item = {"graph": graph, "strategy": "dfs", "target": 2, "mode": "exact"}
    kind = draw(st.sampled_from(["top", "item", "drop", "mode", "field"]))
    if kind == "top":
        return draw(json_values.filter(lambda x: type(x) is not list))
    if kind == "item":
        return [item, draw(json_values.filter(lambda x: type(x) is not dict))]
    if kind == "drop":
        del item[draw(st.sampled_from(["graph", "strategy"]))]
    elif kind == "mode":
        item["mode"] = draw(st.text(max_size=6).filter(lambda m: m not in MODES))
    else:
        key = draw(st.sampled_from(sorted(SPEC_FIELDS)))
        item[key] = draw(json_values.filter(lambda x: x is not None and type(x) is not SPEC_FIELDS[key]))
    return [item]


def _assert_bad_input(result):
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and "Traceback" not in result.output


class TestMalformedInput:
    """Generated malformed graph files and batch specs fail at the boundary with exit 2."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("inputs")
        (path / "good.json").write_text(json.dumps(VALID_DOC))
        return path

    @settings(max_examples=100, deadline=None)
    @given(doc=malformed_graph_docs())
    def test_graph_documents(self, workdir, doc):
        graph = workdir / "bad.json"
        graph.write_text(json.dumps(doc))
        spec = workdir / "spec.json"
        spec.write_text(json.dumps([{"graph": str(graph), "strategy": "dfs"}]))
        runner = CliRunner()
        with runner.isolated_filesystem():
            _assert_bad_input(invoke(runner, "eval", "--graph", str(graph), "--strategy", "dfs"))
            _assert_bad_input(invoke(runner, "batch", "--spec", str(spec)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch_specs(self, workdir, data):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(data.draw(malformed_specs(str(workdir / "good.json")))))
        runner = CliRunner()
        with runner.isolated_filesystem():
            _assert_bad_input(invoke(runner, "batch", "--spec", str(spec)))

    @pytest.mark.parametrize("doc,message", [
        ({"edges": [[0, 1]]}, '"n" must be an integer'),
        ({"n": "3", "edges": [[0, 1], [1, 2]]}, '"n" must be an integer'),
        ([0, 1], "the document is not a JSON object"),
        ({"n": 3, "edges": [[0, 1], [1, 2]], "target": "2"}, '"target" must be an integer'),
    ])
    def test_graph_file_message(self, workdir, doc, message):
        graph = workdir / "bad.json"
        graph.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["eval", "--graph", str(graph), "--strategy", "dfs"])
        _assert_bad_input(result)
        assert f"BadGraphFile: {message}" in result.stderr

    def test_spec_object_rejected(self, workdir):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"graph": str(workdir / "good.json"), "strategy": "dfs"}))
        result = CliRunner().invoke(main, ["batch", "--spec", str(spec)])
        _assert_bad_input(result)
        assert "the spec must be a JSON list of objects" in result.stderr

    def test_empty_spec_rejected(self, workdir):
        spec = workdir / "empty.json"
        spec.write_text("[]")
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["batch", "--spec", str(spec)])
            assert not Path("run-manifest.json").exists()
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: bad batch spec: the spec lists no evaluations\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("args,golden", [
    (["tables"], "verify_tables.txt"),
    (["lemma1", "--max-n", "6"], "verify_lemma1_max_n_6.txt"),
    (["prop1"], "verify_prop1.txt"),
    (["lemma2"], "verify_lemma2.txt"),
    (["equivalence", "--max-n", "6"], "verify_equivalence_max_n_6.txt"),
    (["equilibrium", "--n", "5", "--n", "6"], "verify_equilibrium_n_5_6.txt"),
    (["examples", "--trials", "10000"], "verify_examples_trials_10000.txt"),
])
def test_verify_report_is_golden(args, golden):
    """Suite reports stay byte-identical to the recorded output."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = invoke(runner, "verify", *args)
    assert result.exit_code == 0
    assert result.output == (GOLDEN / golden).read_text()
