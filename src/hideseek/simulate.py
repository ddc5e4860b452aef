"""Seeded Monte Carlo harness for instances beyond exact-enumeration reach.

Per-trial generators are derived from the master seed by hashing
``seed:index``, so any subset of trials can be run on any worker in any
order and the merged result never changes.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass

from .errors import BadWorkerCount
from .hider import HiderStrategy
from .seeker import SeekerPolicy, cumulative_thresholds, pick_by_thresholds, sample_position

WORKERS_ENV = "HIDESEEK_WORKERS"


def trial_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _worker_count(workers: int | None) -> int:
    """``workers`` (else ``$HIDESEEK_WORKERS``, else 1), at most one per CPU."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise BadWorkerCount(f"{WORKERS_ENV}={raw!r} is not an integer") from None
    if type(workers) is not int:
        raise BadWorkerCount(f"worker count {workers!r} is not an integer")
    if workers < 1:
        raise BadWorkerCount(f"worker count {workers} is below 1")
    return min(workers, os.cpu_count() or 1)


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    seed: int
    mean: float
    stderr: float
    ci_lo: float
    ci_hi: float

    def covers(self, value, width: float = 4.0) -> bool:
        """Whether ``value`` lies within ``width`` standard errors of the mean."""
        return abs(self.mean - float(value)) <= width * self.stderr


def _run_chunk(args) -> tuple[int, int]:
    """Sums of positions and squared positions over a run of trial indices."""
    policy, strategy, seed, start, count = args
    total = 0
    total_sq = 0
    tries: dict = {}  # decision tries shared by the run's episodes
    atoms = strategy.atoms
    thresholds = cumulative_thresholds(p for _, _, p in atoms)
    for index in range(start, start + count):
        rng = trial_rng(seed, index)
        g, h, _ = pick_by_thresholds(atoms, thresholds, rng.random())
        pos = sample_position(policy, g, h, rng, tries)
        total += pos
        total_sq += pos * pos
    return total, total_sq


POOL_MIN_TRIALS = 5000  # fewer trials than this run in-process


def monte_carlo(
    policy: SeekerPolicy,
    strategy: HiderStrategy,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> MonteCarloResult:
    """Sample mean position with a normal-approximation 95% interval."""
    if type(trials) is not int:
        raise ValueError(f"trial count {trials!r} is not an integer")
    if trials < 1:
        raise ValueError("need at least one trial")
    workers = _worker_count(workers)
    if workers > 1 and trials > POOL_MIN_TRIALS:
        import multiprocessing

        size = -(-trials // workers)
        jobs = [(policy, strategy, seed, start, min(size, trials - start))
                for start in range(0, trials, size)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_run_chunk, jobs)
    else:
        parts = [_run_chunk((policy, strategy, seed, 0, trials))]
    total = sum(p for p, _ in parts)
    total_sq = sum(q for _, q in parts)
    mean = total / trials
    if trials > 1:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        stderr = math.sqrt(max(variance, 0.0) / trials)
    else:
        stderr = 0.0
    half = 1.96 * stderr
    return MonteCarloResult(
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        ci_lo=mean - half,
        ci_hi=mean + half,
    )
