import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek import __version__, suites
from hideseek.cli import MODES, SPEC_FIELDS, main
from hideseek.corpus import default_corpus
from hideseek.graphs import graph_to_json
from hideseek.hider import TREE_ENUM_LIMIT


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


POINTWISE_CLOSED = "error: the closed forms cover the upfront sigma_star mixture only, not the pointwise one\n"


def _stalk(tmp_path) -> Path:
    """The corpus instance where the pointwise mixture's exact value (1481/192
    at target 10, d = 5) differs from the upfront mixture's closed form (23/3)."""
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

    def test_pointwise_closed_forms_refused(self, tmp_path):
        graph = _stalk(tmp_path)
        runner = CliRunner()
        args = ["eval", "--graph", str(graph), "--strategy", "sigma_star", "--target", "10", "--d", "5"]
        with runner.isolated_filesystem():
            result = runner.invoke(main, [*args, "--mode", "closed", "--pointwise"])
            assert result.exit_code == 2
            assert result.stderr == POINTWISE_CLOSED
            closed = invoke(runner, *args, "--mode", "closed")
            assert closed.output.splitlines()[1] == "stalk,sigma_star,10,closed,23/3"
            exact = invoke(runner, *args, "--mode", "exact", "--pointwise")
            assert exact.output.splitlines()[1] == "stalk,sigma_star,10,exact,1481/192"


class TestBatch:
    def test_pointwise_closed_forms_refused(self, tmp_path):
        graph = _stalk(tmp_path)
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps([{"graph": str(graph), "strategy": "sigma_star", "target": 10, "d": 5,
                                     "mode": "closed", "pointwise": True}]))
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, ["batch", "--spec", str(spec)])
        assert result.exit_code == 2
        assert result.stderr == POINTWISE_CLOSED.replace("error: ", "error: bad batch spec: ")

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


class TestVerify:
    def test_lemma1_small(self):
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", "lemma1", "--max-n", "4")
            assert result.exit_code == 0
            assert "[lemma1] suite: PASS" in result.output
            manifest = json.loads(Path("run-manifest.json").read_text())
            assert manifest["command"] == "verify lemma1"

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
            pytest.fail(f"all_trees({n}) ran before every size was checked")

        monkeypatch.setattr(suites, "all_trees", sentinel)
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = invoke(runner, "verify", *args)
        assert result.exit_code == 2
        assert result.stderr == f"error: tree enumeration capped at n = {TREE_ENUM_LIMIT}\n"


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("args,golden", [
    (["tables"], "verify_tables.txt"),
    (["lemma1", "--max-n", "6"], "verify_lemma1_max_n_6.txt"),
    (["prop1"], "verify_prop1.txt"),
    (["lemma2"], "verify_lemma2.txt"),
    (["equivalence", "--max-n", "6"], "verify_equivalence_max_n_6.txt"),
    (["equilibrium", "--n", "5", "--n", "6"], "verify_equilibrium_n_5_6.txt"),
])
def test_verify_report_is_golden(args, golden):
    """Suite reports stay byte-identical to the recorded output."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = invoke(runner, "verify", *args)
    assert result.exit_code == 0
    assert result.output == (GOLDEN / golden).read_text()
