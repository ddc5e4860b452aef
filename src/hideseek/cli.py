"""Experiment driver: generate instances, evaluate strategies, run verification suites.

``eval`` runs as a ``batch`` of one spec, so both read ``SPEC_DEFAULTS``, take
the strategies in ``analysis.STRATEGIES`` and go through one evaluation path.
``verify`` passes a suite only the options the user gave, and refuses one that
is not a keyword of the suite's runner; the runner's signature holds the defaults.
Exit codes: 0 success, 1 verification failure, 2 bad input.
"""
from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import click

from . import __version__
from .analysis import STRATEGIES, expected_position_from_tables
from .errors import HideSeekError
from .graphs import Graph, check_node, graph_from_json, graph_to_json
from .hider import HiderStrategy, all_trees, example1_graph, example2_graph, palm_tree
from .oracle import DEFAULT_NODE_LIMIT, exact_expected_pos
from .seeker import policy_from_id
from .simulate import monte_carlo
from .suites import SUITES

GENERATORS = {
    "palm": lambda n, d: (palm_tree(n, d), None),
    "example1": example1_graph,
    "example2": example2_graph,
}


def _emit(out: Path | None, payload: str, command: str, params: dict) -> None:
    """Write ``payload`` to ``out`` (stdout when ``None``), then the run manifest
    beside it (``run-manifest.json`` for stdout), leaving out ``None`` params."""
    if out is None:
        click.echo(payload, nl=False)
    else:
        out.write_text(payload)
    manifest = {"command": command, "params": {k: v for k, v in params.items() if v is not None},
                "version": __version__}
    path = Path("run-manifest.json") if out is None else out.with_suffix(out.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n")


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
    _emit(out, payload, f"gen {kind}", {"n": n, "d": d})


def _evaluate_row(g: Graph, spec: dict) -> str:
    """The CSV row of one eval spec, its defaults filled in and its target resolved."""
    strategy, target, mode, d = spec["strategy"], spec["target"], spec["mode"], spec["d"]
    instance = spec.get("instance", Path(spec["graph"]).stem)
    check_node(g.n, target, "target")
    if mode == "closed":
        value = expected_position_from_tables(strategy, g, g.source, target, d)
        return f"{instance},{strategy},{target},closed,{value}"
    policy = policy_from_id(strategy, d=d)
    if mode == "exact":
        value = exact_expected_pos(policy, g, target, memoized=True)
        return f"{instance},{strategy},{target},exact,{value}"
    trials, seed = spec["trials"], spec["seed"]
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
# the type of each eval spec field, and the only keys a spec may hold; "d" and
# "target" may also be null
SPEC_FIELDS = {"graph": str, "strategy": str, "instance": str, "mode": str, "target": int,
               "d": int, "trials": int, "seed": int}
# the value of each optional field a spec leaves out (or, for "target", gives as null:
# the graph file's target then stands in); "instance" defaults to the graph file's stem
SPEC_DEFAULTS = {"target": None, "mode": "exact", "d": None, "trials": 10000, "seed": 0}


def _spec_problem(specs) -> str | None:
    """Why ``specs`` is not a list of eval specs, or ``None`` when it is one."""
    if type(specs) is not list:
        return "the spec must be a JSON list of objects"
    if not specs:
        return "the spec lists no evaluations"
    for i, item in enumerate(specs):
        if type(item) is not dict:
            return f"item {i} is not a JSON object"
        for key in ("graph", "strategy"):
            if key not in item:
                return f"item {i} has no {key!r}"
        for key, value in item.items():
            want = SPEC_FIELDS.get(key)
            if want is None:
                return f"item {i}: unknown key {key!r}"
            if type(value) is not want and not (value is None and key in ("d", "target")):
                return f"item {i}: {key!r} is not of type {want.__name__}"
        for key, allowed in (("strategy", STRATEGIES), ("mode", MODES)):
            if {**SPEC_DEFAULTS, **item}[key] not in allowed:
                return f"item {i}: {key} must be one of {', '.join(allowed)}"
    return None


def _evaluate(specs, prefix: str) -> tuple[str, list[dict]]:
    """The CSV of a list of eval specs, value rows then Monte Carlo rows, each
    section sorted, and the specs as run: defaults filled in, targets resolved.

    Bad input exits 2; ``prefix`` heads the message of a malformed spec or of a
    value the engines refuse.
    """
    rows: dict[str, list[str]] = {VALUE_HEADER: [], MC_HEADER: []}
    ran = []
    try:
        problem = _spec_problem(specs)
        if problem:
            raise ValueError(problem)
        for spec in specs:
            spec = {**SPEC_DEFAULTS, **spec}
            g, file_target = graph_from_json(Path(spec["graph"]).read_text())
            if spec["target"] is None:
                spec["target"] = file_target
            if spec["target"] is None:
                _fail_input("no target given and the graph file names none")
            rows[MC_HEADER if spec["mode"] == "mc" else VALUE_HEADER].append(_evaluate_row(g, spec))
            ran.append(spec)
    except HideSeekError as exc:
        _fail_input(f"{type(exc).__name__}: {exc}")
    except (OSError, ValueError) as exc:
        _fail_input(f"{prefix}{exc}")
    sections = [header + "\n" + "\n".join(sorted(lines)) for header, lines in rows.items() if lines]
    return "\n".join(sections) + "\n", ran


@main.command("eval")
@click.option("--graph", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--strategy", type=click.Choice(STRATEGIES), required=True)
@click.option("--target", type=int, help="Hiding node (defaults to the file's target).")
@click.option("--mode", type=click.Choice(MODES))
@click.option("--d", type=int, help="Distance bound for dfs_d / sigma_star.")
@click.option("--trials", type=int)
@click.option("--seed", type=int)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def eval_cmd(out, **options):
    """Evaluate a strategy's expected capture position on one instance."""
    options["graph"] = str(options["graph"])
    payload, (spec,) = _evaluate([{k: v for k, v in options.items() if v is not None}], "")
    _emit(out, payload, "eval", spec)


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              required=True,
              help="JSON array of eval specs (graph/strategy/instance/target/mode/d/trials/seed).")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def batch(spec_path, out):
    """Run a batch of evaluations from a config file; rows are sorted for stable output."""
    try:
        specs = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        _fail_input(f"bad batch spec: {exc}")
    _emit(out, _evaluate(specs, "bad batch spec: ")[0], "batch", {"spec": str(spec_path)})


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--max-n", type=int, help="Cap for tree-enumeration suites.")
@click.option("--n", "ns", type=int, multiple=True,
              help="Node counts for the equilibrium suite (repeatable).")
@click.option("--benefit", "benefit_specs", type=str, multiple=True,
              help="Benefit specs for the equilibrium suite, e.g. step:3, geometric:0.9.")
@click.option("--trials", "mc_trials", type=int, help="Monte Carlo trials (examples suite).")
@click.option("--seed", "mc_seed", type=int, help="Monte Carlo seed (examples suite).")
def verify(suite, **options):
    """Run a named verification suite; exits 1 on the first failing fact."""
    flags = {p.name: p.opts[0] for p in verify.params}
    given = {k: v for k, v in options.items() if v not in (None, ())}
    takes = inspect.signature(SUITES[suite]).parameters
    refused = [flags[k] for k in given if k not in takes]
    if refused:
        _fail_input(f"suite {suite} takes no {' or '.join(refused)}")
    try:
        report = SUITES[suite](**given)
    except (HideSeekError, ValueError) as exc:
        _fail_input(str(exc))
    if not report.checks:
        _fail_input(f"suite {suite} ran no checks with these options")
    # the manifest names each option after its flag: --max-n as max_n, --n as n
    _emit(None, "".join(line + "\n" for line in report.lines()), f"verify {suite}",
          {flags[k][2:].replace("-", "_"): v for k, v in given.items()})
    if not report.passed:
        first = report.failures()[0]
        click.echo(f"first failure: {first.check_id}: {first.detail}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
