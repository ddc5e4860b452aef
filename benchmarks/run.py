"""Benchmark of the hideseek engines, end to end and layer by layer.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload mc_small --seed 1 --seconds 60 --trace 0

Workloads (see ``jobs.py``): ``mc_small``, ``mc_large``, ``exact``, ``closed``.
``BENCHMARK.json`` lists the two whose figures hold steady on a shared
two-core machine (``mc_small``, ``exact``); ``mc_large`` and ``closed`` run
the same way by hand, for the per-layer figures of their jobs.  Each
workload is a closed loop with one client: a fixed job list run back to back in a
fresh single-threaded interpreter (``worker.py``), with ``workers=1`` and no
``HIDESEEK_WORKERS``, in a scratch working directory under ``.bench_tmp/``.
No job gets a warm-up pass.  The run repeats the workload in new interpreters
until ``--seconds`` is spent (at least three times) and reports, for each
end-to-end metric, the mean over the repetitions without the highest and the
lowest one.  The first repetition checks every output; each later one
must reproduce its outputs exactly.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
``layers.py``, including the tracing overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` (at the default seed only) stores the outputs that later commits
must reproduce in ``baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))

from benchmarks.layers import PER_LAYER, UNITS, job_metrics  # noqa: E402

WORKLOADS = ("mc_small", "mc_large", "exact", "closed")
MIN_REPS = 3
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # start no repetition after this much of a run has passed

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_s_max": "s",
             "peak_rss_mb": "MB", "items_per_s": "1/s"}


class BenchError(Exception):
    pass


def _run_rep(args, tmp: Path, index: int, *, trace: bool, check: bool) -> dict:
    rep_dir = tmp / f"rep{index}"
    rep_dir.mkdir()
    out = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    env = {k: v for k, v in os.environ.items() if k not in ("HIDESEEK_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"  # the same str hashes, so dict layouts repeat across repetitions
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=rep_dir, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {index} ran past {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"repetition {index} exited with {proc.returncode}:\n{tail}")
    doc = json.loads(out.read_text())
    doc["setup_s"] = doc["setup_done"] - started
    doc["process_s"] = time.monotonic() - started
    doc["traced"] = trace
    return doc


def _repeat(args, tmp: Path) -> list[dict]:
    """Repetitions until ``--seconds`` is spent; with tracing, untraced and
    traced repetitions alternate."""
    start = time.monotonic()
    reps: list[dict] = []
    cycle = (False, True) if args.trace else (False,)
    min_reps = len(cycle) if args.trace else MIN_REPS
    while True:
        for trace in cycle:
            reps.append(_run_rep(args, tmp, len(reps), trace=trace, check=not reps))
        elapsed = time.monotonic() - start
        # the first repetition also checks, so later ones say how long one takes
        typical = statistics.median(r["process_s"] for r in reps[1:] or reps) * len(cycle)
        if len(reps) >= min_reps and (elapsed + typical > args.seconds
                                      or elapsed > RUN_LIMIT_S):
            return reps


def _failures(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): every job of every repetition is one
    attempt; the first repetition's checks vouch for later identical outputs."""
    first = {j["name"]: j for j in reps[0]["jobs"]}
    attempted = failed = 0
    reasons: list[str] = []
    for n, rep in enumerate(reps):
        for job in rep["jobs"]:
            attempted += 1
            ref = first[job["name"]]
            why = job["error"] or ref["error"] or ref["check"]
            if why is None and job["digest"] != ref["digest"]:
                why = "output differs from the first repetition"
            if why is not None:
                failed += 1
                reasons.append(f"rep {n} {job['name']}: {why}")
        for why in rep.get("cli_failures", []):
            failed += 1
            reasons.append(f"rep {n} {why}")
        attempted += 3 if rep["traced"] else 0
    return attempted, failed, reasons


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and the lowest value.

    A run holds few repetitions (under ten of ``exact`` in 60 s), and over so few
    the mean of the middle values varies less from run to run than their
    median, while one repetition caught by a burst on the host still counts
    for nothing.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def _end_to_end(reps: list[dict]) -> dict[str, float]:
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "job_s_max": [max(j["seconds"] for j in r["jobs"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "items_per_s": [sum(j["items"] for j in r["jobs"]) / r["wall_s"] for r in reps],
    }
    return {name: _trimmed_mean(values) for name, values in per_rep.items()}


def _per_layer(reps: list[dict]) -> tuple[dict[str, float], list[str]]:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    samples: dict[str, list[float]] = {}
    for rep in plain:
        for name, value in job_metrics(rep["jobs"]).items():
            samples.setdefault(name, []).append(value)
    for rep in traced:
        for name, value in rep["layers"].items():
            samples.setdefault(name, []).append(value)
    checks = [j["items"] for j in plain[0]["jobs"] if j["name"].startswith("suite.")]
    if checks:
        samples["suites.checks"] = [sum(checks)]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    samples["trace.overhead_ratio"] = [
        traced_wall / statistics.median(r["wall_s"] for r in plain) - 1]
    values, missing = {}, []
    for name, _unit in PER_LAYER:
        if name in samples:
            values[name] = statistics.median(samples[name])
        else:
            values[name] = 0
            missing.append(name)
    return values, missing


def _record(reps: list[dict], workload: str) -> None:
    path = BENCH / "baseline.json"
    baseline = json.loads(path.read_text())
    baseline["recorded"].update(reps[0].get("records", {}))
    baseline["recorded"] = dict(sorted(baseline["recorded"].items()))
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"recorded {len(reps[0].get('records', {}))} outputs of {workload} in {path.name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store the default-seed outputs in baseline.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hideseek" / "__init__.py").is_file():
        print(f"error: no hideseek sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    default_seed = json.loads((BENCH / "baseline.json").read_text())["default_seed"]
    if args.record and args.seed != default_seed:
        print(f"error: --record needs --seed {default_seed}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        reps = _repeat(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.record:
        _record(reps, args.workload)
    attempted, failed, reasons = _failures(reps)
    for why in reasons[:20]:
        print(f"FAIL {why}")
    plain = [r for r in reps if not r["traced"]]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(reps) - len(plain)} traced repetitions; failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    if args.trace:
        values, missing = _per_layer(reps)
        units = UNITS
        if missing:
            print(f"not measured on this workload (reported as 0): {', '.join(missing)}")
    else:
        values, units = _end_to_end(reps), E2E_UNITS
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
