"""Bad calls into the library fail with a typed error that names the problem."""
import random
from fractions import Fraction

import pytest

from hideseek.analysis import pairwise_probability
from hideseek.errors import DisconnectedGraph, NodeOutOfRange
from hideseek.graphs import from_edges
from hideseek.hider import example1_graph
from hideseek.oracle import exact_visit_prob
from hideseek.seeker import AdjustedDFSPolicy, DFSPolicy, MixturePolicy, sample_position


def _mixture(*weights):
    return lambda: MixturePolicy(zip(weights, (DFSPolicy(), AdjustedDFSPolicy())), kind="mix")


def _ex1():
    return example1_graph(7, 2)[0]


@pytest.mark.parametrize("call, error, message", [
    (lambda: from_edges(4, [(1, 2), (2, 3), (1, 3)]), DisconnectedGraph,
     "nodes unreachable from source: [1, 2, 3]"),
    (_mixture(Fraction(1, 4), Fraction(1, 4)), ValueError, "mixture weights must sum to 1"),
    # weights 3/2 and -1/2 sum to 1, but their thresholds (1.5, 1.0) do not increase
    (_mixture(Fraction(3, 2), Fraction(-1, 2)), ValueError, "mixture weights must be positive"),
    (_mixture(Fraction(1), Fraction(0)), ValueError, "mixture weights must be positive"),
    (lambda: exact_visit_prob(DFSPolicy(), _ex1(), 3, 3), ValueError, "nodes must be distinct"),
    (lambda: pairwise_probability("bfs", _ex1(), 0, 3, 1), ValueError, "unknown strategy 'bfs'"),
    # a walk that never meets its target would otherwise end at position n - 1
    (lambda: sample_position(DFSPolicy(), _ex1(), 7, random.Random(0)), NodeOutOfRange,
     "target 7 outside 0..6"),
], ids=["disconnected", "weights-sum-to-half", "negative-weight", "zero-weight",
        "visit-prob-same-node", "unknown-strategy", "sample-position-target"])
def test_bad_call_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
