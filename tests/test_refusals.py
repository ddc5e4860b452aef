"""Bad calls into the library fail with a typed error that names the problem, and
the edge cases next to them (a benefit past its table, one Monte Carlo trial) give
their documented values."""
import random
from fractions import Fraction

import pytest

from hideseek.analysis import (expected_position_from_tables, hider_payoff, mixture_capture_bound,
                               pairwise_probability, palm_expected_position)
from hideseek.errors import (BadShape, BadWorkerCount, DisconnectedGraph, EmptyFrontier, MultipleCycles,
                             NodeOutOfRange, SelfLoop)
from hideseek.graphs import Graph, Subgraph, check_node, from_edges, path_profiles, simple_path_counts
from hideseek.hider import (BenefitFunction, HiderStrategy, example1_graph, example2_graph,
                            optimal_hiding_depths, palm_tree)
from hideseek.oracle import exact_visit_prob
from hideseek.seeker import (AdjustedDFSPolicy, DFSPolicy, MixturePolicy, SearchState, SeekerPolicy,
                             policy_from_id, sample_position, sigma_star)
from hideseek.simulate import monte_carlo


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
    # True == 1 and 0 < True < 3, so only the type check tells it from a node
    (lambda: from_edges(3, [(0, True), (1, 2)]), NodeOutOfRange, "edge (0,True) outside 0..2"),
], ids=["disconnected", "weights-sum-to-half", "negative-weight", "zero-weight",
        "visit-prob-same-node", "unknown-strategy", "sample-position-target", "bool-edge-label"])
def test_bad_call_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def _outcome(call):
    """What ``call()`` gives: its value, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call, want", [
    (lambda: palm_expected_position(5, 0), (ValueError, "height 0 invalid for 5 nodes")),
    (lambda: hider_payoff(BenefitFunction.constant(5), 5, 5),
     (ValueError, "distance 5 out of range for 5 nodes")),
    (lambda: mixture_capture_bound(5, 0), (ValueError, "need n >= 2 and d >= 1")),
], ids=["palm-height-0", "payoff-distance-n", "capture-bound-d-0"])
def test_analysis_refusal(call, want):
    assert _outcome(call) == want


def _palm_atoms(*weights):
    return lambda: HiderStrategy(tuple((palm_tree(4, 1), h, w) for h, w in enumerate(weights, 1)))


@pytest.mark.parametrize("call, want", [
    (lambda: BenefitFunction(()), (ValueError, "benefit table must not be empty")),
    (lambda: BenefitFunction.constant(0), (ValueError, "benefit table must not be empty")),
    (lambda: BenefitFunction((Fraction(-1),)), (ValueError, "benefits must be non-negative")),
    # past the end of the table every distance gets the last value
    (lambda: BenefitFunction((Fraction(2), Fraction(1)))(7), Fraction(1)),
    # a negative index would read the table from its far end
    (lambda: BenefitFunction.step(2, 5)(-1), (ValueError, "distance -1 is negative")),
    (lambda: BenefitFunction.geometric("1/2", 5)(-2), (ValueError, "distance -2 is negative")),
    (_palm_atoms(), (ValueError, "strategy needs at least one atom")),
    (_palm_atoms(Fraction(1), Fraction(0)), (ValueError, "atom probabilities must be positive")),
    (_palm_atoms(Fraction(3, 2), Fraction(-1, 2)), (ValueError, "atom probabilities must be positive")),
    (lambda: HiderStrategy.pure(palm_tree(4, 1), 4), (NodeOutOfRange, "hiding node 4 outside 0..3")),
    (lambda: optimal_hiding_depths(BenefitFunction.constant(1), 1),
     (ValueError, "need at least two nodes")),
    (lambda: example1_graph(5, 0), (BadShape, "tail must have positive length")),
], ids=["empty-benefit", "constant-no-nodes", "negative-benefit", "benefit-past-table",
        "step-negative-distance", "geometric-negative-distance", "no-atoms",
        "zero-atom", "negative-atom", "atom-off-graph", "depths-one-node", "example1-no-tail"])
def test_hider_refusal(call, want):
    assert _outcome(call) == want


# a triangle and a 4-cycle: n edges over n nodes, but two components
_TWO_RINGS = frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)})


@pytest.mark.parametrize("n, edges, source, want", [
    (5, {(0, 1), (1, 2), (0, 2), (3, 4)}, 0, (DisconnectedGraph, "nodes unreachable from source: [3, 4]")),
    (7, _TWO_RINGS, 0, (DisconnectedGraph, "nodes unreachable from source: [3, 4, 5, 6]")),
    (3, {(0, 1), (1, 3)}, 0, (NodeOutOfRange, "edge (1,3) outside 0..2")),
    (3, {(0, 1), (1, 1), (1, 2)}, 0, (SelfLoop, "self loop at 1")),
    (3, {(1, 0), (0, 1), (1, 2)}, 0, (ValueError, "edge (1,0) not stored as (u, v) with u < v")),
    (3, {(0, 1), (1, 2)}, 7, (NodeOutOfRange, "source 7 outside 0..2")),
    # the edge count refuses a huge node count before any per-node structure is built
    (100_000, {(0, 1)}, 0, (DisconnectedGraph, "1 edges cannot connect 100000 nodes")),
    (2.5, {(0, 1)}, 0, (BadShape, "node count 2.5 is not an integer")),
    (3, {(0, 1), (1, 2)}, True, (NodeOutOfRange, "source True outside 0..2")),
    (3, {(0, 1.0), (1, 2)}, 0, (NodeOutOfRange, "edge (0,1.0) outside 0..2")),
], ids=["triangle-and-edge", "two-rings", "edge-out-of-range", "self-loop", "reversed-repeat",
        "source-out-of-range", "too-few-edges", "fractional-node-count", "bool-source",
        "float-endpoint"])
def test_graph_refused(n, edges, source, want):
    """``Graph(...)`` called directly checks what ``from_edges`` does, so no engine
    is handed a disconnected graph or a repeated, reversed or out-of-range edge."""
    assert _outcome(lambda: Graph(n, frozenset(edges), source)) == want


@pytest.mark.parametrize("call, want", [
    (lambda: simple_path_counts(from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]), 0, 2),
     (MultipleCycles, "path enumeration limited to graphs with at most one cycle")),
    # a Graph cannot be disconnected, so only a Subgraph view reaches the chord count
    (lambda: path_profiles(Subgraph(frozenset(range(7)), _TWO_RINGS), 0),
     (MultipleCycles, "the search tree leaves out 5 edges (disconnected input?)")),
    (lambda: check_node(3, True), (NodeOutOfRange, "node True outside 0..2")),
], ids=["path-counts-two-cycles", "profiles-two-components", "bool-node"])
def test_graphs_refusal(call, want):
    assert _outcome(call) == want


class _NoEligible(SeekerPolicy):
    def eligible(self, state):
        return ()


@pytest.mark.parametrize("call, want", [
    (lambda: sigma_star(2).state_key(SearchState(_ex1())), None),
    (lambda: MixturePolicy([(Fraction(1, 2), DFSPolicy()), (Fraction(1, 2), SeekerPolicy())],
                           kind="mix").state_key(SearchState(_ex1())), None),
    (lambda: _NoEligible().distribution(SearchState(_ex1())),
     (EmptyFrontier, "no eligible node to move to")),
    # a bound must be an int: 6.0 and True used to build dfs_d[6.0] and dfs_d[True]
    (lambda: policy_from_id("dfs_d", d=6.0), (ValueError, "bound 6.0 is not an integer")),
    (lambda: expected_position_from_tables("dfs_d", example2_graph(20, 6)[0], 0, 6, 6.0),
     (ValueError, "bound 6.0 is not an integer")),
    (lambda: sigma_star(True), (ValueError, "bound True is not an integer")),
    # a replayed visit sequence used to fail with a bare KeyError
    (lambda: SearchState(palm_tree(5, 2), [1]), (ValueError, "step 0: node 1 is not on the frontier")),
    (lambda: SearchState(palm_tree(5, 2), [0, 9]), (NodeOutOfRange, "node 9 outside 0..4")),
    (lambda: SearchState(palm_tree(5, 2), [0, 1, 1]), (ValueError, "step 2: node 1 is not on the frontier")),
    # True == 1 is on the frontier, so the replay used to visit it
    (lambda: SearchState(palm_tree(5, 2), [0, True]), (NodeOutOfRange, "node True outside 0..4")),
], ids=["upfront-mixture-key", "keyless-component-key", "no-eligible-node", "float-bound",
        "float-bound-closed-form", "bool-bound", "replay-off-frontier-first", "replay-out-of-range",
        "replay-repeat", "replay-bool"])
def test_seeker_refusal(call, want):
    assert _outcome(call) == want


def _mc(trials, workers=None):
    res = monte_carlo(DFSPolicy(), HiderStrategy.pure(*example1_graph(7, 2)), trials, seed=0, workers=workers)
    return res.stderr, res.ci_lo == res.mean == res.ci_hi


@pytest.mark.parametrize("call, want", [
    (lambda: _mc(0), (ValueError, "need at least one trial")),
    # one trial has no spread to estimate: standard error 0, the interval is the mean
    (lambda: _mc(1), (0.0, True)),
    # a float used to reach range() as a bare TypeError, and True ran one trial
    (lambda: _mc(2.5), (ValueError, "trial count 2.5 is not an integer")),
    (lambda: _mc(True), (ValueError, "trial count True is not an integer")),
    # 2.5 used to be cut to the CPU count, or reach range() where there are more CPUs;
    # "2" failed as a bare TypeError, and True ran as one worker
    (lambda: _mc(10, workers=2.5), (BadWorkerCount, "worker count 2.5 is not an integer")),
    (lambda: _mc(10, workers="2"), (BadWorkerCount, "worker count '2' is not an integer")),
    (lambda: _mc(10, workers=True), (BadWorkerCount, "worker count True is not an integer")),
], ids=["no-trials", "one-trial", "float-trials", "bool-trials", "float-workers", "str-workers",
        "bool-workers"])
def test_simulate_refusal(call, want):
    assert _outcome(call) == want
