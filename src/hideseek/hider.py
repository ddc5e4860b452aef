"""Hider-side strategy space: benefit functions, graph constructions, tree enumeration."""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BadHeight, BadShape, TooLarge
from .graphs import Graph, check_node, from_edges

# the largest n that tree_sizes accepts: gen tree-enum prints n^(n-2) labelled
# trees (~4.8M at n=9), and the tree suites walk tree_classes up to it
TREE_ENUM_LIMIT = 9


@dataclass(frozen=True)
class BenefitFunction:
    """Non-increasing table of hiding benefits indexed by distance from the source."""

    values: tuple[Fraction, ...]
    kind: str = "table"

    def __post_init__(self):
        if not self.values:
            raise ValueError("benefit table must not be empty")
        for v in self.values:
            if type(v) not in (int, Fraction):  # a float or a bool would leave the exact routes
                raise ValueError(f"benefit {v!r} is not an int or a Fraction")
        if any(v < 0 for v in self.values):
            raise ValueError("benefits must be non-negative")
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("benefit table must be non-increasing")

    def __call__(self, distance: int) -> Fraction:
        if distance < 0:
            raise ValueError(f"distance {distance} is negative")
        if distance >= len(self.values):
            return self.values[-1]
        return self.values[distance]

    @staticmethod
    def step(cutoff: int, n: int) -> "BenefitFunction":
        if cutoff < 0:
            raise ValueError("step cutoff must be non-negative")
        vals = tuple(Fraction(1) if x <= cutoff else Fraction(0) for x in range(n))
        return BenefitFunction(vals, kind=f"step:{cutoff}")

    @staticmethod
    def geometric(rho, n: int) -> "BenefitFunction":
        # strings/Fractions keep 0.9 exact; a float literal would break tie detection
        ratio = Fraction(str(rho)) if isinstance(rho, float) else Fraction(rho)
        if not 0 < ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        vals = tuple(ratio**x for x in range(n))
        return BenefitFunction(vals, kind=f"geometric:{ratio}")

    @staticmethod
    def constant(n: int) -> "BenefitFunction":
        return BenefitFunction(tuple(Fraction(1) for _ in range(n)), kind="constant")

    @staticmethod
    def from_spec(spec: str, n: int) -> "BenefitFunction":
        """Parse compact CLI notation: ``step:3``, ``geometric:0.9``, ``constant``."""
        if spec == "constant":
            return BenefitFunction.constant(n)
        kind, _, arg = spec.partition(":")
        try:
            value = {"step": int, "geometric": Fraction}[kind](arg)
        except (KeyError, ValueError, ZeroDivisionError):
            raise ValueError(f"benefit spec {spec!r} is not step:<cutoff>, "
                             "geometric:<ratio> or constant") from None
        return BenefitFunction.step(value, n) if kind == "step" else BenefitFunction.geometric(value, n)


@dataclass(frozen=True)
class HiderStrategy:
    """Probability distribution over (graph, hiding node) pairs."""

    atoms: tuple[tuple[Graph, int, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("strategy needs at least one atom")
        for g, h, p in self.atoms:
            if type(p) not in (int, Fraction):  # a float or a bool would leave the exact routes
                raise ValueError(f"atom probability {p!r} is not an int or a Fraction")
            if p <= 0:
                raise ValueError("atom probabilities must be positive")
            check_node(g.n, h, "hiding node")
        total = sum(p for _, _, p in self.atoms)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @staticmethod
    def pure(g: Graph, h: int) -> "HiderStrategy":
        return HiderStrategy(((g, h, Fraction(1)),))


def palm_tree(n: int, d: int) -> Graph:
    """Trunk of ``d`` nodes from the source ending in a star over the rest."""
    if not 1 <= d <= n - 1:
        raise BadHeight(f"height {d} invalid for {n} nodes")
    edges = [(i, i + 1) for i in range(d - 1)]
    edges += [(d - 1, v) for v in range(d, n)]
    return from_edges(n, edges)


def palm_crown_mixed(n: int, d: int) -> HiderStrategy:
    """Uniform hiding over the crown of a single palm tree."""
    g = palm_tree(n, d)
    p = Fraction(1, n - d)
    return HiderStrategy(tuple((g, h, p) for h in range(d, n)))


def optimal_hiding_depths(benefit: BenefitFunction, n: int) -> frozenset[int]:
    """Depths maximizing benefit(d) * (n + d - 1) / 2, ties kept exactly."""
    if n < 2:
        raise ValueError("need at least two nodes")
    scores = {d: benefit(d) * Fraction(n + d - 1, 2) for d in range(n)}
    best = max(scores.values())
    return frozenset(d for d, v in scores.items() if v == best)


def example1_graph(n: int, d: int) -> tuple[Graph, int]:
    """A line of ``d+1`` nodes from the source plus a decoy cycle through the source.

    Nodes ``1..d`` form the tail (target at ``d``); nodes ``d+1..n-1`` close a
    cycle of ``n-d`` nodes with the source.  Uses exactly ``n`` edges.
    """
    if d < 1:
        raise BadShape("tail must have positive length")
    if n - d < 3:
        raise BadShape(f"cycle needs at least 3 nodes, got {n - d}")
    edges = [(i, i + 1) for i in range(d)]
    ring = [0] + list(range(d + 1, n))
    edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    return from_edges(n, edges), d


def example2_graph(n: int, d: int) -> tuple[Graph, int]:
    """Tail plus a cycle of ``2d-2`` nodes through the source, with pendants
    hung on the cycle node opposite the source so each is reachable by two
    paths of length exactly ``d``.
    """
    if d < 3:
        raise BadShape("need d >= 3 so the cycle has at least 4 nodes")
    if n < 3 * d - 1:
        raise BadShape(f"need n >= 3d-1 = {3 * d - 1} for at least one pendant")
    edges = [(i, i + 1) for i in range(d)]          # tail 0-1-...-d
    ring = [0] + list(range(d + 1, 3 * d - 2))       # source + 2d-3 cycle nodes
    edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    antipode = ring[d - 1]
    pendants = range(3 * d - 2, n)
    edges += [(antipode, v) for v in pendants]
    return from_edges(n, edges), d


def prufer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree encoded by a Prufer sequence of length n-2."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def tree_sizes(ns: Iterable[int]) -> list[int]:
    """The sizes ``ns``, each once and in order, once :func:`all_trees` and
    :func:`tree_classes` accept every one of them: :class:`BadShape` below 2
    nodes, :class:`TooLarge` above ``TREE_ENUM_LIMIT``.

    Both are lazy and check their size only when first iterated; a caller
    that enumerates several sizes passes them here first, so a bad last size
    is refused before the first tree is built.
    """
    ns = list(dict.fromkeys(ns))
    for n in ns:
        if n < 2:
            raise BadShape("tree enumeration needs n >= 2")
        if n > TREE_ENUM_LIMIT:
            raise TooLarge(f"tree enumeration capped at n = {TREE_ENUM_LIMIT}")
    return ns


def all_trees(n: int) -> Iterator[Graph]:
    """Every labeled tree on ``n`` nodes (Cayley: n^(n-2) of them), source 0."""
    tree_sizes([n])
    for seq in itertools.product(range(n), repeat=n - 2):
        yield from_edges(n, prufer_decode(seq, n))


def tree_classes(n: int) -> Iterator[tuple[Graph, int]]:
    """One tree per rooted unlabelled tree on ``n`` nodes (OEIS A000081), each
    rooted at source 0 and weighted by the number of labelled trees with
    source 0 in its class; the weights sum to n^(n-2).

    The classes come in reverse lexicographic order of their level
    sequences, from the path to the star.  A representative is labelled in
    preorder.  Its weight is (n-1)!/|Aut(root)|, read off the AHU codes: a
    node's |Aut| is the product of its children's, times k! for each k
    children with equal codes.
    """
    tree_sizes([n])
    for levels in _level_sequences(n):
        yield _level_tree(levels)


def _level_sequences(n: int) -> Iterator[list[int]]:
    """The canonical level sequence of each rooted tree on ``n`` nodes: node
    depths in preorder, children ordered by decreasing subtree sequence.
    From the path on, each step takes the last node ``p`` deeper than 1 and
    its parent ``q``, and refills the sequence from ``p`` on with copies of
    ``levels[q:p]`` (Beyer & Hedetniemi 1980).  One list is yielded, changed
    in place."""
    levels = list(range(n))
    while True:
        yield levels
        p = max((i for i in range(n) if levels[i] > 1), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - p + q]


def _level_tree(levels: Sequence[int]) -> tuple[Graph, int]:
    """The preorder-labelled tree of a level sequence and its labelling weight."""
    n = len(levels)
    children: list[list[int]] = [[] for _ in range(n)]
    path: list[int] = []  # the nodes from the root to the last one placed
    for v, level in enumerate(levels):
        del path[level:]
        if path:
            children[path[-1]].append(v)
        path.append(v)
    code: list[tuple] = [()] * n
    aut = [1] * n
    for v in reversed(range(n)):
        kids = sorted(code[c] for c in children[v])
        code[v] = tuple(kids)
        aut[v] = math.prod(aut[c] for c in children[v])
        for _, group in itertools.groupby(kids):
            aut[v] *= math.factorial(len(list(group)))
    edges = [(u, c) for u in range(n) for c in children[u]]
    return from_edges(n, edges), math.factorial(n - 1) // aut[0]
