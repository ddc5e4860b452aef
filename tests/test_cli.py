import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from hideseek.cli import main


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("args,golden", [
    (["tables"], "verify_tables.txt"),
    (["prop1"], "verify_prop1.txt"),
    (["lemma2"], "verify_lemma2.txt"),
    (["equivalence", "--max-n", "6"], "verify_equivalence_max_n_6.txt"),
])
def test_verify_report_is_golden(args, golden):
    """Suite reports stay byte-identical to the recorded output."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = invoke(runner, "verify", *args)
    assert result.exit_code == 0
    assert result.output == (GOLDEN / golden).read_text()
