"""Seeded input generators for the benchmark workloads.

Every random graph is a pure function of its size and the workload seed, and
reaches the program only as a ``Graph`` built by ``from_edges``.  The
generators keep their own structural bookkeeping (parents, depths, the cycle)
so that targets with a known closed form can be chosen without asking the
program anything.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from hideseek.graphs import Graph, from_edges


@dataclass(frozen=True)
class TreeInstance:
    graph: Graph
    target: int  # a leaf, so the tree formula applies


@dataclass(frozen=True)
class UnicyclicInstance:
    graph: Graph
    cycle: tuple[int, ...]  # entrance first, then the ring in order
    target: int             # a leaf whose only path avoids the cycle entrance
    d: int                  # bound that puts the whole ring within two short paths


def _rng(kind: str, n: int, seed: int) -> random.Random:
    # string seeds hash deterministically (unlike hash()), so inputs repeat
    # across interpreters for the same seed
    return random.Random(f"{kind}:{n}:{seed}")


def random_recursive_tree(n: int, seed: int) -> TreeInstance:
    """Node ``v`` attaches to a uniform earlier node; the target is a random leaf."""
    if n < 2:
        raise ValueError("a tree needs at least two nodes")
    rng = _rng("tree", n, seed)
    parent = [0] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
    g = from_edges(n, [(parent[v], v) for v in range(1, n)])
    has_child = set(parent[1:])
    return TreeInstance(g, rng.choice([v for v in range(1, n) if v not in has_child]))


def random_unicyclic(n: int, seed: int) -> UnicyclicInstance:
    """A random recursive tree grown around a ring that hangs one step from the source.

    Node 1 is the cycle entrance and nodes ``2..L`` close a ring of ``L`` nodes
    with it (``L`` drawn from 4..7).  Node ``L + 1`` hangs on the source, so
    some leaves always avoid the entrance; every later node attaches to a
    uniform earlier node, which puts nodes before, on, beside and behind the
    cycle.  The target is a uniform leaf outside the entrance's side, and
    ``d`` covers both the target and the whole ring, so every table admits it.
    """
    rng = _rng("unicyclic", n, seed)
    ring = rng.randint(4, 7)
    if n < ring + 3:
        raise ValueError(f"need at least {ring + 3} nodes")
    cycle = tuple(range(1, ring + 1))
    edges = [(0, 1)] + [(cycle[i], cycle[(i + 1) % ring]) for i in range(ring)]
    parent = [0] * n
    depth = [0] * n
    for v in cycle:
        parent[v] = 1 if v != 1 else 0
        depth[v] = 1 + min(v - 1, ring - v + 1)
    parent[ring + 1], depth[ring + 1] = 0, 1
    edges.append((0, ring + 1))
    free = {0, ring + 1}  # nodes whose unique path avoids the entrance
    for v in range(ring + 2, n):
        u = rng.randrange(v)
        parent[v], depth[v] = u, depth[u] + 1
        edges.append((u, v))
        if u in free:
            free.add(v)
    has_child = set(parent[v] for v in range(ring + 1, n))
    leaves = sorted(v for v in free if v != 0 and v not in has_child)
    target = rng.choice(leaves)
    g = from_edges(n, edges)
    return UnicyclicInstance(g, cycle, target, max(depth[target], ring))
