"""Span recorder for the traced benchmark run.

The program is not edited: :func:`instrument` rebinds the public functions at
each layer boundary (in every ``hideseek`` module that imported them by name)
and the policy classes' ``distribution`` / ``state_key`` methods, so each call
records a span.  Spans live in flat lists until the run ends; a span's self
time is its duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# the oracle's decision-tree walks, with whether each merges states by default
ORACLE_DEFAULT_MEMO = {
    "exact_expected_pos": False,
    "exact_visit_prob": False,
    "exact_position_table": True,
    "cached_position_table": True,
    "episode_distribution": False,
    "reachable_observations": False,
}


class Recorder:
    """Spans as parallel lists: name, tag, start, end and parent index (-1 at the root)."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.name: list[str] = []
        self.tag: list = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def enter(self, name: str, tag=None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = [self.end[i] - self.start[i] for i in range(len(self.name))]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            cur_a = cur_b = None
            for a, b in sorted((max(self.start[k], lo), min(self.end[k], hi)) for k in kids):
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out[p] -= covered
        return out

    def nearest(self, prefix: str) -> list[int]:
        """For each span, the index of the closest enclosing span (itself
        excluded) whose name starts with ``prefix``; -1 when there is none."""
        out = [-1] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[i] = p if self.name[p].startswith(prefix) else out[p]
        return out


def _wrap(rec: Recorder, name: str, fn, tag_of=None):
    if inspect.isgeneratorfunction(fn):
        # each resume of the generator is one span, so work done while the
        # caller holds a yielded value is not charged to the generator
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            it = fn(*args, **kwargs)
            while True:
                i = rec.enter(name, tag)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.exit(i)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.enter(name, tag_of(args, kwargs) if tag_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(i)

    return wrapper


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _pairwise_wrapper(rec: Recorder, fn, refused_type):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.enter("analysis.pairwise_probability")
        try:
            return fn(*args, **kwargs)
        except refused_type as exc:
            rec.tag[i] = exc.clause
            raise
        finally:
            rec.exit(i)

    return wrapper


def instrument(rec: Recorder) -> None:
    """Rebind every traced entry point of the already imported ``hideseek``."""
    from hideseek import analysis, corpus, errors, graphs, hider, oracle, seeker, simulate, suites

    modules = [m for name, m in sys.modules.items()
               if (name == "hideseek" or name.startswith("hideseek.")) and m is not None]

    plain = {
        graphs: ["closed_subgraph", "path_profiles", "must_pass", "simple_path_counts"],
        simulate: ["monte_carlo", "trial_rng"],
        seeker: ["draw"],
        analysis: ["expected_position_from_tables", "tree_dfs_expected_position",
                   "pairwise_csv_rows"],
        hider: ["palm_tree", "palm_crown_mixed", "example1_graph", "example2_graph", "all_trees"],
        corpus: ["default_corpus"],
        suites: [n for n in vars(suites) if n.startswith("run_")],
    }
    for mod, names in plain.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        for fname in names:
            fn = getattr(mod, fname)
            _rebind(modules, fn, _wrap(rec, f"{layer}.{fname}", fn))

    for fname, default in ORACLE_DEFAULT_MEMO.items():
        fn = getattr(oracle, fname)

        def memo_tag(args, kwargs, default=default):
            return bool(kwargs.get("memoized", default))

        _rebind(modules, fn, _wrap(rec, f"oracle.{fname}", fn, memo_tag))

    fn = analysis.pairwise_probability
    _rebind(modules, fn, _pairwise_wrapper(rec, fn, errors.PreconditionViolated))

    def kind_tag(args, kwargs):
        return args[0].kind

    for cls in vars(seeker).values():
        if not (isinstance(cls, type) and issubclass(cls, seeker.SeekerPolicy)):
            continue
        own = vars(cls)
        if "distribution" in own:
            setattr(cls, "distribution",
                    _wrap(rec, "seeker.distribution", own["distribution"], kind_tag))
        if "state_key" in own:
            setattr(cls, "state_key", _wrap(rec, "seeker.state_key", own["state_key"]))
