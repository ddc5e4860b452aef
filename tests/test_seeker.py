import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek.errors import EmptyFrontier, PolicyViolation
from hideseek.graphs import Graph, bfs_distances, closed_subgraph, from_edges, path_profiles
from hideseek.hider import example1_graph, palm_tree, prufer_decode
from hideseek.seeker import (
    AdjustedDFSPolicy,
    BoundedDFSPolicy,
    DFSPolicy,
    MixturePolicy,
    SearchState,
    SeekerPolicy,
    execute,
    policy_from_id,
    sample_position,
    sigma_star,
)

from graph_strategies import at_most_one_cycle, long_chains
from policy_battery import BreadthPreferringPolicy, LabelOrderPolicy, battery_policies


def line(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def dfs_next(state):
    return DFSPolicy().distribution(state)


def dfs_d_next(state, d):
    return BoundedDFSPolicy(d).distribution(state)


def adfs_next(state):
    return AdjustedDFSPolicy().distribution(state)


@dataclass(frozen=True)
class BruteObservation:
    """Reference for :class:`SearchState`, rebuilt from scratch for one visit
    sequence: the closed induced subgraph over it and that view's own path
    profile, with no incremental bookkeeping."""

    g: Graph
    visited: tuple[int, ...]

    @cached_property
    def view(self):
        return closed_subgraph(self.g, self.visited)

    @cached_property
    def visited_set(self) -> frozenset[int]:
        return frozenset(self.visited)

    @cached_property
    def frontier(self) -> frozenset[int]:
        return self.view.nodes - self.visited_set

    def unvisited_neighbors(self, z):
        return tuple(w for w in self.view.adj[z] if w not in self.visited_set)

    @cached_property
    def active_stack(self) -> list[int]:
        return [z for z in self.visited if self.unvisited_neighbors(z)]

    @cached_property
    def cycle_among_visited(self) -> bool:
        vs = self.visited_set
        return sum(1 for u, v in self.view.edges if u in vs and v in vs) >= len(vs)

    @cached_property
    def profile(self):
        return path_profiles(self.view, self.visited[0])

    def frontier_within(self, d):
        return self.frontier & self.profile.bounded_sets(d).within


def brute(g, visited):
    return BruteObservation(g, tuple(visited))


class TestObservation:
    def test_view_is_closed_subgraph(self):
        g, _ = example1_graph(10, 3)
        state = SearchState(g, [0, 1])
        ref = brute(g, [0, 1])
        assert ref.view == closed_subgraph(g, [0, 1])
        assert state.frontier == ref.frontier == {2, 4, 9}

    def test_executed_views_match_reconstruction(self):
        g, _ = example1_graph(10, 3)
        rng = random.Random(11)
        episode = execute(DFSPolicy(), g, rng)
        state = SearchState(g)
        for k in range(1, g.n):
            prefix = episode[:k]
            if k > 1:
                state.push(prefix[-1])
            ref = brute(g, prefix)
            nodes = set(prefix)
            for u, v in g.edges:
                if u in set(prefix) or v in set(prefix):
                    nodes.update((u, v))
            assert ref.view.nodes == frozenset(nodes)
            assert ref.view.edges == frozenset(
                e for e in g.edges if e[0] in set(prefix) or e[1] in set(prefix)
            )
            assert state.visited_set | state.frontier == ref.view.nodes
            assert state.active_stack == ref.active_stack


class TestDFS:
    def test_star_uniform(self):
        g = palm_tree(4, 1)
        dist = dfs_next(SearchState(g, [0]))
        assert dist == (1, 2, 3)

    def test_line_forced(self):
        g = line(4)
        assert dfs_next(SearchState(g, [0, 1])) == (2,)

    def test_palm_after_trunk(self):
        g = palm_tree(10, 3)
        dist = dfs_next(SearchState(g, [0, 1, 2]))
        assert dist == tuple(range(3, 10))

    def test_empty_frontier(self):
        g = line(3)
        with pytest.raises(EmptyFrontier):
            dfs_next(SearchState(g, [0, 1, 2]))


@pytest.mark.parametrize("policy", [p for p in battery_policies(2) if not isinstance(p, MixturePolicy)],
                         ids=lambda p: p.kind)
def test_finished_state_refused(policy):
    """Every per-step policy of the battery refuses a state with no frontier.

    The battery's upfront sigma_star has no per-step distribution; its
    components stand in for it."""
    g = palm_tree(6, 2)
    state = SearchState(g, execute(DFSPolicy(), g, random.Random(1)))
    with pytest.raises(EmptyFrontier) as info:
        policy.distribution(state)
    assert str(info.value) == "all nodes visited"


class TestBoundedDFS:
    def test_matches_dfs_on_tree_within_bound(self):
        g = palm_tree(7, 2)
        for prefix in ([0], [0, 1], [0, 1, 3], [0, 1, 3, 2]):
            state = SearchState(g, prefix)
            assert dfs_d_next(state, 2) == dfs_next(state)

    def test_bound_n_equals_dfs_on_cycle_instance(self):
        g, _ = example1_graph(10, 3)
        rng = random.Random(5)
        episode = execute(DFSPolicy(), g, rng)
        for k in range(1, g.n):
            state = SearchState(g, episode[:k])
            assert dfs_d_next(state, g.n) == dfs_next(state)

    def test_defers_beyond_bound(self):
        # after the tail is exhausted the ring is explored; nodes whose view
        # distance exceeds the bound are only taken when nothing near remains
        g, t = example1_graph(10, 3)
        state = SearchState(g, [0, 1, 2, 3])
        assert dfs_d_next(state, 3) == (4, 9)

    def test_far_neighbors_unpreferred(self):
        # visited deep down one ring arm: the frontier node beyond reach is
        # skipped in favour of the near side
        g, _ = example1_graph(10, 3)
        state = SearchState(g, [0, 4, 5, 6])
        moves = dfs_d_next(state, 3)
        assert 7 not in moves  # view distance 4 > 3
        assert set(moves) <= {1, 9}


class TestAdjustedDFS:
    def test_matches_dfs_on_trees(self):
        g = palm_tree(7, 3)
        for prefix in ([0], [0, 1], [0, 1, 2], [0, 1, 2, 5]):
            state = SearchState(g, prefix)
            assert adfs_next(state) == dfs_next(state)

    def test_prioritizes_single_path_after_cycle(self):
        # stalk 0-1 into ring 2-3-4-5(-2), pendant 6 at the entrance, 7 behind
        g = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2), (2, 6), (4, 7)])
        state = SearchState(g, (0, 1, 2, 3, 4, 5))
        # hand trace: the ring is closed; 6 is reachable by one path through
        # the entrance while 7 has two paths, so the gate side is drained first
        assert adfs_next(state) == (6,)
        assert dfs_next(state) == (7,)

    def test_example1_tail_prioritized_after_cycle(self):
        g, t = example1_graph(7, 2)
        state = SearchState(g, (0, 3, 4, 5, 6))
        assert adfs_next(state) == (1,)


class TestSigmaStar:
    def test_weights(self):
        mix = sigma_star(3)
        assert sum(w for w, _ in mix.components) == 1
        assert [w for w, _ in mix.components] == [Fraction(3, 8), Fraction(3, 8), Fraction(1, 4)]

    def test_strategy_mixture_has_no_pointwise_distribution(self):
        g = palm_tree(4, 1)
        with pytest.raises(PolicyViolation):
            sigma_star(2).distribution(SearchState(g, [0]))

    def test_reduces_to_dfs_on_trees(self):
        g = palm_tree(6, 2)
        for prefix in ([0], [0, 1], [0, 1, 4]):
            state = SearchState(g, prefix)
            for _, component in sigma_star(5).components:
                assert component.distribution(state) == dfs_next(state), component.identifier


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class TestExecute:
    def test_line_deterministic(self):
        g = line(4)
        for seed in range(5):
            assert execute(DFSPolicy(), g, random.Random(seed)) == (0, 1, 2, 3)

    def test_permutation_and_draw_count(self):
        g, _ = example1_graph(10, 3)
        rng = _CountingRandom(3)
        episode = execute(DFSPolicy(), g, rng)
        assert sorted(episode) == list(range(10))
        assert rng.calls == g.n - 1

    def test_star_orders_equally_likely(self):
        g = palm_tree(4, 1)
        seen = {execute(DFSPolicy(), g, random.Random(s)) for s in range(200)}
        assert seen == {(0,) + p for p in itertools.permutations((1, 2, 3))}

    def test_policy_violation_detected(self):
        class Rogue(SeekerPolicy):
            kind = "rogue"

            def distribution(self, state):
                return (state.visited[0],)

        g = line(4)
        with pytest.raises(PolicyViolation):
            execute(Rogue(), g, random.Random(0))

    def test_mixture_runs_componentwise(self):
        g, _ = example1_graph(7, 2)
        episode = execute(sigma_star(2), g, random.Random(9))
        assert sorted(episode) == list(range(7))

    def test_bounded_visits_near_nodes_first_on_trees(self):
        g = palm_tree(8, 3)
        dist = bfs_distances(g, 0)
        for seed in range(20):
            episode = execute(BoundedDFSPolicy(2), g, random.Random(seed))
            seen_far = False
            for v in episode:
                if dist[v] > 2:
                    seen_far = True
                else:
                    assert not seen_far, episode


class TestPolicyRegistry:
    def test_ids(self):
        assert policy_from_id("dfs").kind == "dfs"
        assert policy_from_id("dfs_d", d=3).identifier == "dfs_d[3]"
        assert policy_from_id("adfs").kind == "adfs"
        assert isinstance(policy_from_id("sigma_star", d=2), MixturePolicy)
        with pytest.raises(ValueError):
            policy_from_id("dfs_d")
        with pytest.raises(ValueError):
            policy_from_id("nonsense")

    def test_battery_distinct(self):
        ids = [p.identifier for p in battery_policies(3)]
        assert len(ids) == len(set(ids)) == 7

    def test_label_order(self):
        g = palm_tree(4, 1)
        state = SearchState(g, [0])
        assert LabelOrderPolicy(lowest=True).distribution(state) == (1,)
        assert LabelOrderPolicy(lowest=False).distribution(state) == (3,)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 7), st.data())
def test_distributions_are_proper(n, data):
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    g = from_edges(n, prufer_decode(seq, n))
    episode = execute(DFSPolicy(), g, random.Random(data.draw(st.integers(0, 10_000))))
    k = data.draw(st.integers(1, n - 1))
    state = SearchState(g, episode[:k])
    for policy in (DFSPolicy(), BoundedDFSPolicy(2), AdjustedDFSPolicy(), BreadthPreferringPolicy(),
                   LabelOrderPolicy()):
        moves = policy.distribution(state)
        assert moves and list(moves) == sorted(set(moves))  # distinct, so each has weight 1/k
        assert state.frontier.issuperset(moves)


def _policies(n):
    return [DFSPolicy(), AdjustedDFSPolicy(), LabelOrderPolicy(True), LabelOrderPolicy(False),
            BreadthPreferringPolicy(),
            *(BoundedDFSPolicy(d) for d in (0, 1, 2, 3, n))]


def _slots(state):
    return {name: (list(v) if isinstance(v, list) else set(v) if isinstance(v, set) else v)
            for name in SearchState.__slots__ if name != "_profile"
            for v in [getattr(state, name)]}


@settings(max_examples=150, deadline=None)
@given(at_most_one_cycle(max_n=9), st.integers(0, 10_000), st.sampled_from(["dfs", "adfs", "dfs_d"]))
def test_search_state_matches_brute_observation(g, seed, driver):
    """Along a sampled episode the incremental state reads like the rebuilt view,
    every policy decides alike on both, and push then pop restores every slot."""
    episode = execute(policy_from_id(driver, d=2), g, random.Random(seed))
    state = SearchState(g)
    for k in range(1, g.n):
        if k > 1:
            state.push(episode[k - 1])
        ref = brute(g, episode[:k])
        assert state.visited == list(ref.visited)
        assert state.frontier == ref.frontier
        assert state.active_stack == ref.active_stack
        assert state.cycle_among_visited == ref.cycle_among_visited
        for z in state.visited:
            assert state.unvisited_neighbors(z) == ref.unvisited_neighbors(z)
        for d in range(g.n):
            assert state.frontier_within(d) == ref.frontier_within(d)
        if ref.view.edge_count >= len(ref.view.nodes):
            # a view holding the cycle has the whole graph's profile on its nodes
            whole, view = path_profiles(g, g.source), ref.profile
            nodes = ref.view.nodes
            assert {v: whole.lengths[v] for v in nodes} == view.lengths
            assert whole.through_entrance & nodes == view.through_entrance
            assert state.profile.lengths == whole.lengths
        for policy in _policies(g.n):
            assert policy.distribution(state) == policy.distribution(ref), policy.identifier
            assert policy.state_key(state) == policy.state_key(ref)
        before = _slots(state)
        assert before == _slots(SearchState(g, state.visited))  # as if replayed
        for w in sorted(state.frontier):
            state.push(w)
            assert state.pop() == w
            assert _slots(state) == before


@settings(max_examples=60, deadline=None)
@given(st.one_of(at_most_one_cycle(max_n=9), long_chains(max_n=30)), st.integers(0, 10_000))
def test_trie_walks_match_fresh_walks(g, seed):
    """Episodes read off a shared decision trie equal those computed afresh,
    and leave the rng where the fresh walk leaves it."""
    cache: dict = {}
    for policy in (DFSPolicy(), sigma_star(2), BoundedDFSPolicy(1)):
        for s in range(seed, seed + 5):
            rng = random.Random(s)
            fresh = execute(policy, g, rng)
            for _ in range(2):
                cached = random.Random(s)
                assert execute(policy, g, cached, cache) == fresh
                assert cached.getstate() == rng.getstate()


def test_trie_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr("hideseek.seeker.TRIE_ENTRIES", 12)
    g = palm_tree(9, 2)
    cache: dict = {}
    for s in range(40):
        fresh = execute(DFSPolicy(), g, random.Random(s))
        assert execute(DFSPolicy(), g, random.Random(s), cache) == fresh
    (held, _top), = cache.values()
    assert 12 <= held < 12 + g.n  # the last node added may overshoot by one distribution or run


def test_getrandbits_advances_like_random_calls():
    """A run of k forced moves advances the rng by ``getrandbits(64 * k)``,
    which must leave the state that k ``random()`` calls leave (two 32-bit
    words each); an interpreter where it does not would change seeded rows."""
    for seed in range(20):
        for k in (1, 2, 3, 17, 64, 65, 300):
            bits, calls = random.Random(seed), random.Random(seed)
            bits.getrandbits(64 * k)
            for _ in range(k):
                calls.random()
            assert bits.getstate() == calls.getstate(), (seed, k)


def _after_random_calls(seed, k):
    rng = random.Random(seed)
    for _ in range(k):
        rng.random()
    return rng.getstate()


class TestForcedRuns:
    """A forced node where a walk leaves the trie is stored together with the
    forced moves after it as one run, ``(run, None, children)``."""

    def test_a_run_reaches_the_last_node(self):
        g = line(7)
        cache: dict = {}
        assert execute(DFSPolicy(), g, random.Random(0), cache) == tuple(range(7))
        (held, top), = cache.values()
        assert held == 6
        assert top[0] == ((1, 2, 3, 4, 5, 6), None, {})
        rng = _CountingRandom(1)
        assert execute(DFSPolicy(), g, rng, cache) == tuple(range(7))
        assert rng.calls == 0  # the run takes its six draws in one call
        assert rng.getstate() == _after_random_calls(1, 6)

    def test_a_stop_inside_a_run(self):
        g = palm_tree(8, 4)  # trunk 0-1-2-3, leaves 4..7 on node 3
        cache: dict = {}
        assert sample_position(DFSPolicy(), g, 3, random.Random(5), cache) == 3
        (_held, top), = cache.values()
        assert top[0] == ((1, 2, 3), None, {})
        rng = random.Random(5)
        assert sample_position(DFSPolicy(), g, 1, rng, cache) == 1
        assert rng.getstate() == _after_random_calls(5, 1)  # cut at the stop, nothing drawn after

    def test_a_second_target_past_a_run(self):
        # targets on the trunk and in the crown share one trie: later walks
        # pass a run cut short by an earlier stop and grow the trie past it
        g = palm_tree(8, 4)
        cache: dict = {}
        for h in (2, 6, 3, 5, 1, 7):
            for s in range(10):
                want = execute(DFSPolicy(), g, random.Random(s)).index(h)
                assert sample_position(DFSPolicy(), g, h, random.Random(s), cache) == want
        (_held, top), = cache.values()
        run, sums, children = top[0]
        assert (run, sums) == ((1, 2), None)
        assert children[2][:2] == ((3,), None)
        assert children[2][2][3][0] == (4, 5, 6, 7)  # the crown branches
