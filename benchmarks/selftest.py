"""Self-tests of the benchmark's own machinery (not of hideseek).

Run from the root of a checkout with either of::

    python3 -m pytest -q benchmarks/selftest.py
    python3 benchmarks/selftest.py

The file name keeps these tests out of the repository's own test run.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks import jobs, run  # noqa: E402
from benchmarks.inputs import random_recursive_tree, random_unicyclic  # noqa: E402
from benchmarks.tracer import Recorder  # noqa: E402
from hideseek import analysis, graphs  # noqa: E402


def test_generators_repeat_for_a_seed():
    for make, n in ((random_recursive_tree, 120), (random_unicyclic, 90)):
        a, b, c = make(n, 7), make(n, 7), make(n, 8)
        assert a == b
        assert a.graph.edges != c.graph.edges


def test_tree_target_is_a_leaf():
    tree = random_recursive_tree(60, 3)
    assert tree.graph.is_leaf(tree.target)
    assert tree.graph.is_tree()


def test_unicyclic_target_is_admitted_by_every_table():
    for seed in range(4):
        uni = random_unicyclic(30, seed)
        g = uni.graph
        assert graphs.find_cycle(g).node_set == frozenset(uni.cycle)
        assert g.is_leaf(uni.target)
        for strategy in jobs.STRATEGIES:
            value = analysis.expected_position_from_tables(strategy, g, 0, uni.target, uni.d)
            assert graphs.bfs_distances(g, 0)[uni.target] <= value <= g.n - 1


def _spans(rec: Recorder, rows):
    """Load (name, start, end, parent) rows into a recorder without timing."""
    for name, start, end, parent in rows:
        rec.name.append(name)
        rec.tag.append(None)
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)


def test_self_time_subtracts_the_union_of_children():
    rec = Recorder()
    _spans(rec, [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 3.0, 0),
        ("c", 2.0, 5.0, 0),   # overlaps b: the union [1, 5] counts once
        ("d", 1.5, 2.0, 1),   # grandchild: charged to b, not to a
        ("e", 6.0, 7.0, 0),
    ])
    assert rec.self_times() == [5.0, 1.5, 3.0, 0.5, 1.0]
    assert rec.nearest("b") == [-1, -1, -1, 1, -1]


def test_nested_spans_partition_the_root():
    rec = Recorder()
    root = rec.enter("root")
    for _ in range(3):
        child = rec.enter("child")
        rec.exit(rec.enter("grandchild"))
        rec.exit(child)
    rec.exit(root)
    assert rec.parent == [-1, 0, 1, 0, 3, 0, 5]
    total = sum(rec.self_times())
    assert abs(total - rec.duration(root)) < 1e-9


def _rep(digest="x", check=None, error=None, traced=False):
    job = {"name": "mc.x", "seconds": 1.0, "error": error, "digest": digest,
           "items": 1, "check": check}
    return {"jobs": [job], "traced": traced, "wall_s": 1.0}


def test_a_wrong_value_counts_as_a_failure():
    g, t = jobs.hider.example1_graph(10, 3)
    wrong = jobs._mc_job("mc.wrong", jobs.seeker.DFSPolicy(), jobs._pure(g, t), 200, 1,
                         Fraction(1000))
    right = jobs._mc_job("mc.right", jobs.seeker.DFSPolicy(), jobs._pure(g, t), 200, 1,
                         Fraction(7))
    assert wrong.check(wrong.run(), {}) is not None
    assert right.check(right.run(), {}) is None
    assert jobs._paper(Fraction(7))(Fraction(8), {}) is not None

    attempted, failed, _ = run._failures([_rep(check="mean is off"), _rep()])
    assert (attempted, failed) == (2, 2)
    attempted, failed, _ = run._failures([_rep(), _rep(digest="y"), _rep()])
    assert (attempted, failed) == (3, 1)
    attempted, failed, _ = run._failures([_rep(), _rep(error="ValueError: boom")])
    assert (attempted, failed) == (2, 1)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
