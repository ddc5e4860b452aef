"""Experiment driver: generate instances, evaluate strategies, run verification suites.

Exit codes: 0 success, 1 verification failure, 2 bad input.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .analysis import expected_position_from_tables, tree_dfs_expected_position
from .errors import HideSeekError
from .graphs import Graph, check_node, graph_from_json, graph_to_json
from .hider import HiderStrategy, all_trees, example1_graph, example2_graph, palm_tree
from .oracle import DEFAULT_NODE_LIMIT, exact_expected_pos
from .seeker import policy_from_id
from .simulate import monte_carlo
from .suites import SUITES

GENERATORS = {
    "palm": lambda n, d: (palm_tree(n, d), None),
    "example1": lambda n, d: example1_graph(n, d),
    "example2": lambda n, d: example2_graph(n, d),
}


def _write_manifest(out_path: Path | None, command: str, params: dict) -> None:
    manifest = {
        "command": command,
        "params": {k: v for k, v in params.items() if v is not None},
        "version": __version__,
    }
    target = (
        out_path.with_suffix(out_path.suffix + ".manifest.json")
        if out_path is not None
        else Path("run-manifest.json")
    )
    target.write_text(json.dumps(manifest, sort_keys=True) + "\n")


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
@click.version_option(__version__)
def main():
    """Hide-and-seek search games on networks."""


@main.command()
@click.argument("kind", type=click.Choice(["palm", "example1", "example2", "tree-enum"]))
@click.option("--n", type=int, required=True, help="Node count.")
@click.option("--d", type=int, default=None, help="Height / tail length where applicable.")
@click.option("--out", type=click.Path(path_type=Path), default=None, help="Output file (default stdout).")
def gen(kind, n, d, out):
    """Generate a graph instance as canonical JSON (one per line for tree-enum)."""
    try:
        if kind == "tree-enum":
            lines = [graph_to_json(g) for g in all_trees(n)]
            payload = "\n".join(lines) + "\n"
        else:
            if d is None:
                _fail_input(f"{kind} needs --d")
            g, target = GENERATORS[kind](n, d)
            payload = graph_to_json(g, target=target) + "\n"
    except HideSeekError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    if out is None:
        click.echo(payload, nl=False)
    else:
        out.write_text(payload)
    _write_manifest(out, f"gen {kind}", {"n": n, "d": d})


def _evaluate_row(g: Graph, instance: str, strategy: str, target: int, mode: str,
                  d: int | None, trials: int, seed: int, pointwise: bool) -> str:
    check_node(g.n, target, "target")
    # built in every mode, so that the closed forms refuse the bounds the policies refuse
    policy = policy_from_id(strategy, d=d, pointwise=pointwise)
    if mode == "closed":
        if strategy == "sigma_star" and pointwise:
            raise ValueError("the closed forms cover the upfront sigma_star mixture only, "
                             "not the pointwise one")
        if strategy == "dfs" and g.is_tree():
            value = tree_dfs_expected_position(g, g.source, target)
        else:
            value = expected_position_from_tables(strategy, g, g.source, target, d)
        return f"{instance},{strategy},{target},closed,{value}"
    if mode == "exact":
        value = exact_expected_pos(policy, g, target, memoized=True)
        return f"{instance},{strategy},{target},exact,{value}"
    res = monte_carlo(policy, HiderStrategy.pure(g, target), trials, seed)
    exact = ""
    if g.n <= DEFAULT_NODE_LIMIT:
        exact = str(exact_expected_pos(policy, g, target, memoized=True))
    return (
        f"{instance},{strategy},{trials},{seed},{res.mean!r},{res.stderr!r},"
        f"{res.ci_lo!r},{res.ci_hi!r},{exact}"
    )


MC_HEADER = "instance,strategy,trials,seed,mean,stderr,ci_lo,ci_hi,exact"
VALUE_HEADER = "instance,strategy,target,mode,value"
MODES = ("exact", "mc", "closed")
# the type of each batch spec field; "d" and "target" may also be null
SPEC_FIELDS = {"graph": str, "strategy": str, "instance": str, "mode": str, "target": int,
               "d": int, "trials": int, "seed": int, "pointwise": bool}


def _spec_problem(specs) -> str | None:
    """Why ``specs`` is not a list of eval specs, or ``None`` when it is one."""
    if type(specs) is not list:
        return "the spec must be a JSON list of objects"
    for i, item in enumerate(specs):
        if type(item) is not dict:
            return f"item {i} is not a JSON object"
        for key in ("graph", "strategy"):
            if key not in item:
                return f"item {i} has no {key!r}"
        for key, value in item.items():
            want = SPEC_FIELDS.get(key)
            if want and type(value) is not want and not (value is None and key in ("d", "target")):
                return f"item {i}: {key!r} is not of type {want.__name__}"
        if item.get("mode", "exact") not in MODES:
            return f"item {i}: mode must be one of {', '.join(MODES)}"
    return None


@main.command("eval")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True)
@click.option("--strategy", type=click.Choice(["dfs", "dfs_d", "adfs", "sigma_star"]), required=True)
@click.option("--target", type=int, default=None, help="Hiding node (defaults to the file's target).")
@click.option("--mode", type=click.Choice(MODES), default="exact")
@click.option("--d", type=int, default=None, help="Distance bound for dfs_d / sigma_star.")
@click.option("--trials", type=int, default=10000)
@click.option("--seed", type=int, default=0)
@click.option("--pointwise", is_flag=True, help="Per-step mixture variant of sigma_star.")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def eval_cmd(graph_path, strategy, target, mode, d, trials, seed, pointwise, out):
    """Evaluate a strategy's expected capture position on one instance."""
    try:
        g, file_target = graph_from_json(graph_path.read_text())
        if target is None:
            target = file_target
        if target is None:
            _fail_input("no --target given and the graph file names none")
        header = MC_HEADER if mode == "mc" else VALUE_HEADER
        row = _evaluate_row(g, graph_path.stem, strategy, target, mode, d, trials, seed, pointwise)
    except HideSeekError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    except ValueError as exc:
        _fail_input(str(exc))
    payload = header + "\n" + row + "\n"
    if out is None:
        click.echo(payload, nl=False)
    else:
        out.write_text(payload)
    _write_manifest(out, "eval", {
        "graph": str(graph_path), "strategy": strategy, "target": target,
        "mode": mode, "d": d, "trials": trials, "seed": seed, "pointwise": pointwise or None,
    })


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True,
              help="JSON array of eval specs (graph/strategy/target/mode/d/trials/seed).")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def batch(spec_path, out):
    """Run a batch of evaluations from a config file; rows are sorted for stable output."""
    try:
        specs = json.loads(spec_path.read_text())
        problem = _spec_problem(specs)
        if problem:
            _fail_input(f"bad batch spec: {problem}")
        value_rows: list[str] = []
        mc_rows: list[str] = []
        for item in specs:
            g, file_target = graph_from_json(Path(item["graph"]).read_text())
            target = item.get("target", file_target)
            if target is None:
                _fail_input("no target given and the graph file names none")
            mode = item.get("mode", "exact")
            row = _evaluate_row(
                g,
                item.get("instance", Path(item["graph"]).stem),
                item["strategy"],
                target,
                mode,
                item.get("d"),
                item.get("trials", 10000),
                item.get("seed", 0),
                item.get("pointwise", False),
            )
            (mc_rows if mode == "mc" else value_rows).append(row)
    except HideSeekError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    except (OSError, ValueError) as exc:
        _fail_input(f"bad batch spec: {exc}")
    sections = []
    if value_rows:
        sections.append(VALUE_HEADER + "\n" + "\n".join(sorted(value_rows)))
    if mc_rows:
        sections.append(MC_HEADER + "\n" + "\n".join(sorted(mc_rows)))
    payload = "\n".join(sections) + "\n"
    if out is None:
        click.echo(payload, nl=False)
    else:
        out.write_text(payload)
    _write_manifest(out, "batch", {"spec": str(spec_path)})


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--max-n", type=int, default=None, help="Cap for tree-enumeration suites.")
@click.option("--corpus", type=click.Choice(["default"]), default="default",
              help="Instance corpus for the tables suite.")
@click.option("--n", "sizes", type=int, multiple=True,
              help="Node counts for the equilibrium suite (repeatable).")
@click.option("--benefit", "benefits", type=str, multiple=True,
              help="Benefit specs for the equilibrium suite, e.g. step:3, geometric:0.9.")
@click.option("--trials", type=int, default=100000, help="Monte Carlo trials (examples suite).")
@click.option("--seed", type=int, default=2024, help="Monte Carlo seed (examples suite).")
def verify(suite, max_n, corpus, sizes, benefits, trials, seed):
    """Run a named verification suite; exits 1 on the first failing fact."""
    runner = SUITES[suite]
    kwargs = {}
    if max_n is not None and suite in ("lemma1", "lemma2", "equivalence"):
        kwargs["max_n"] = max_n
    if suite == "tables":
        kwargs["corpus"] = corpus
    if suite == "equilibrium":
        if sizes:
            kwargs["ns"] = tuple(sizes)
        if benefits:
            kwargs["benefit_specs"] = tuple(benefits)
    if suite == "examples":
        kwargs["mc_trials"] = trials
        kwargs["mc_seed"] = seed
    try:
        report = runner(**kwargs)
    except (HideSeekError, ValueError) as exc:
        _fail_input(str(exc))
    if not report.checks:
        _fail_input(f"suite {suite} ran no checks with these options")
    for line in report.lines():
        click.echo(line)
    _write_manifest(None, f"verify {suite}", {
        "max_n": max_n, "corpus": corpus if suite == "tables" else None,
        "n": list(sizes) or None, "benefit": list(benefits) or None,
        "trials": trials, "seed": seed,
    })
    if not report.passed:
        first = report.failures()[0]
        click.echo(f"first failure: {first.check_id}: {first.detail}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
