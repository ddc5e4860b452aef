"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from hideseek.graphs import from_edges


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
