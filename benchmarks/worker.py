"""One repetition of a workload in a fresh interpreter.

``run.py`` starts this script once per repetition, with ``HIDESEEK_WORKERS``
removed from the environment and a scratch directory as the working
directory.  It imports ``hideseek`` from the checkout's ``src``, builds the
workload's inputs (the set-up), runs the job list back to back, and writes
one JSON document to ``--out``:

* ``setup_done``: ``time.monotonic()`` when the inputs were built (the parent
  subtracts its own clock reading taken just before the start);
* ``wall_s``, ``cpu_s``, ``peak_rss_mb``: the timed job list;
* ``jobs``: per job its time, error, output digest, items and check result;
* ``layers`` (``--trace``): the span-derived per-layer metrics, plus one
  ``hideseek eval`` per mode through the CLI after the job list.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _load_baseline() -> dict:
    """Outputs recorded at the seed commit; seeded ones at ``default_seed``."""
    return json.loads((Path(__file__).parent / "baseline.json").read_text())


def _cli_probes(rec, seed: int) -> tuple[dict[str, int], list[str]]:
    """One ``hideseek eval`` per mode; returns the span of each and any failures."""
    from fractions import Fraction

    from hideseek import cli, graphs, hider

    g, t = hider.example1_graph(12, 3)
    Path("probe.json").write_text(graphs.graph_to_json(g, target=t))
    want = Fraction(2, 3) * (12 + Fraction(3, 2) - 1)
    spans: dict[str, int] = {}
    failures: list[str] = []
    for mode in ("exact", "closed", "mc"):
        args = ["eval", "--graph", "probe.json", "--strategy", "dfs", "--mode", mode]
        if mode == "mc":
            args += ["--trials", "400", "--seed", str(seed)]
        buf = io.StringIO()
        i = rec.enter("cli.eval", mode)
        try:
            with contextlib.redirect_stdout(buf):
                cli.main(args, standalone_mode=False)
        except Exception as exc:  # a probe failure is reported, not raised
            failures.append(f"cli {mode}: {type(exc).__name__}: {exc}")
        finally:
            rec.exit(i)
        spans[mode] = i
        # the value (or, for mc, the exact column) ends the row
        last = buf.getvalue().strip().rsplit(",", 1)[-1]
        if last != str(want):
            failures.append(f"cli {mode}: row ends in {last!r}, paper formula {want}")
    return spans, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true", help="check every output")
    ap.add_argument("--trace", action="store_true", help="record spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rec = None
    if args.trace:
        # instrument every module, the CLI included, before any input is built
        import hideseek.cli  # noqa: F401
        from benchmarks.tracer import Recorder, instrument

        rec = Recorder()
        instrument(rec)
    from benchmarks import jobs as workloads
    from hideseek import graphs

    job_list = workloads.WORKLOADS[args.workload](args.seed)
    setup_done = time.monotonic()

    outputs: dict = {}
    rows = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job in job_list:
        span = rec.enter("job", job.name) if rec else None
        t0 = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception as exc:  # one failed job must not hide the others
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if rec:
            rec.exit(span)
        outputs[job.name] = out
        rows.append({
            "name": job.name, "seconds": seconds, "error": error,
            "digest": None if error else workloads.sha(job.digest(out)),
            "items": 0 if error else job.items(out),
            "check": None,
        })
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    doc = {"setup_done": setup_done, "wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb": peak_rss_mb, "jobs": rows}
    if args.check:
        baseline = _load_baseline()
        recorded = baseline["recorded"]
        doc["records"] = {}
        for job, row in zip(job_list, rows):
            if row["error"]:
                continue
            out = outputs[job.name]
            try:
                row["check"] = job.check(out, outputs)
                if job.record is not None:
                    got = doc["records"][job.name] = job.record(out)
                    want = recorded.get(job.name)
                    if (row["check"] is None and want is not None
                            and (args.seed == baseline["default_seed"] or not job.seeded)
                            and got != want):
                        row["check"] = f"output {got}, recorded at the seed commit {want}"
            except Exception as exc:  # a check that crashes is a failed check
                row["check"] = f"check raised {type(exc).__name__}: {exc}"
    if rec:
        from benchmarks.layers import span_metrics

        doc["spans"] = len(rec)
        doc["layers"] = span_metrics(rec, graphs.cached_profiles.cache_info())
        # the CLI probes come after the job list and are kept out of its counts
        rec.clear()
        cli_spans, doc["cli_failures"] = _cli_probes(rec, args.seed)
        self_s = rec.self_times()
        for mode, i in cli_spans.items():
            doc["layers"][f"cli.self_ms.{mode}"] = 1000 * self_s[i]
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
