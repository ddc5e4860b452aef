"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from hideseek.graphs import from_edges
from hideseek.hider import example1_graph, palm_tree


@st.composite
def at_most_one_cycle(draw, max_n: int):
    """A random connected graph on 2..max_n nodes: a random tree, maybe plus one edge."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if chords and draw(st.booleans()):
        edges.add(draw(st.sampled_from(chords)))
    label = draw(st.permutations(range(n)))
    return from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def with_false_twins(draw, max_n: int):
    """A graph from :func:`at_most_one_cycle` on up to ``max_n`` nodes with
    false twins (nodes with the same neighbours) added: two or three leaves
    on one node or, on a tree, a 4-cycle a-u-b-v through one node a, so that
    u and v share the neighbours a and b; then relabelled at random."""
    g = draw(at_most_one_cycle(max_n))
    n, edges = g.n, set(g.edges)
    a = draw(st.integers(0, n - 1))
    if g.is_tree() and draw(st.booleans()):
        u, b, v = n, n + 1, n + 2
        edges |= {(a, u), (u, b), (b, v), (a, v)}
        n += 3
    else:
        extra = draw(st.integers(2, 3))
        edges |= {(a, w) for w in range(n, n + extra)}
        n += extra
    label = draw(st.permutations(range(n)))
    return from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def long_chains(draw, max_n: int):
    """A graph on 3..max_n nodes made mostly of chains of degree-2 nodes, so
    that most of a seeker's moves are forced: a palm tree (a trunk ending in
    a star; a path when the star has one leaf) or an ``example1_graph`` (a
    tail and a cycle through the source); then relabelled at random."""
    n = draw(st.integers(3, max_n))
    if n < 4 or draw(st.booleans()):
        g = palm_tree(n, draw(st.integers(1, n - 1)))
    else:
        g, _ = example1_graph(n, draw(st.integers(1, n - 3)))
    label = draw(st.permutations(range(n)))
    return from_edges(n, [(label[u], label[v]) for u, v in g.edges])
