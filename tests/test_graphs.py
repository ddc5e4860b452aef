import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    MultipleCycles,
    NodeOutOfRange,
    SelfLoop,
)
from hideseek.graphs import (
    bfs_distances,
    closed_subgraph,
    find_cycle,
    from_edges,
    graph_from_json,
    graph_to_json,
    must_pass,
    path_profiles,
    simple_path_counts,
)
from hideseek.hider import example1_graph, example2_graph, palm_tree, prufer_decode
from hideseek.seeker import execute, policy_from_id

from graph_strategies import at_most_one_cycle


def _buckets(counts) -> dict[int, frozenset[int]]:
    out: dict[int, set[int]] = {}
    for v, i in counts.items():
        if i > 0:
            out.setdefault(i, set()).add(v)
    return {i: frozenset(vs) for i, vs in out.items()}


def reachability_classes(g, s, d) -> dict[int, frozenset[int]]:
    """Nodes by the number of simple paths of length <= d from s, read off the profile."""
    sets = path_profiles(g, s).bounded_sets(d)
    return _buckets({v: (v in sets.within) + (v in sets.two_short) for v in g.node_set})


def restricted_classes(g, s, u, d) -> dict[int, frozenset[int]]:
    """Classes R^i of nodes reached by exactly i short paths through u, by enumeration."""
    return _buckets(simple_path_counts(g, s, d, through=u))


def entrance(g, cycle, s) -> int:
    """The cycle node closest to s (unique on <=1-cycle graphs)."""
    dist = bfs_distances(g, s)
    return min(cycle.node_set, key=lambda v: (dist[v], v))


def brute_simple_paths(g, s):
    """All simple paths from s, as node tuples (independent reference)."""
    paths = []

    def walk(path):
        paths.append(tuple(path))
        for w in g.adj[path[-1]]:
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    walk([s])
    return paths


def brute_cycle_nodes(g) -> frozenset[int]:
    """Nodes on the edges whose removal leaves ``g`` connected (independent reference)."""
    def connected_without(cut):
        start = min(g.node_set)
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for e in g.edges - {cut}:
                if u in e:
                    w = e[0] + e[1] - u
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return len(seen) == len(g.node_set)

    return frozenset(x for e in g.edges if connected_without(e) for x in e)


def check_cycle(g, s) -> None:
    """The profile's cycle from ``s``: the brute node set, entered nearest ``s``, walked edge by edge."""
    prof = path_profiles(g, s)
    expected = brute_cycle_nodes(g)
    found = find_cycle(g)  # rooted at the source of a Graph, the least node of a Subgraph
    assert (frozenset() if found is None else found.node_set) == expected
    if not expected:
        assert prof.cycle is None and prof.entrance is None
        return
    order = prof.cycle.order
    assert len(order) == len(set(order)) and prof.cycle.node_set == expected
    dist = bfs_distances(g, s)
    assert prof.entrance == order[0] == min(expected, key=dist.__getitem__)
    assert [dist[c] for c in expected].count(dist[prof.entrance]) == 1
    for u, v in zip(order, order[1:] + order[:1]):  # the last entry closes the round
        assert v in g.adj[u]


def line(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def even_cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestFromEdges:
    def test_smallest_connected_graph(self):
        g = from_edges(2, [(0, 1)])
        assert g.n == 2 and g.edge_count == 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            from_edges(4, [(0, 1), (2, 3)])

    def test_too_few_edges_rejected_before_search(self):
        # a node count far beyond the edges fails on the count, listing no nodes
        with pytest.raises(DisconnectedGraph, match="1 edges cannot connect 100000 nodes"):
            from_edges(100_000, [(0, 1)])

    def test_triangle_accepted(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert find_cycle(g) is not None

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            from_edges(3, [(0, 0), (0, 1), (1, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_out_of_range(self):
        with pytest.raises(NodeOutOfRange):
            from_edges(3, [(0, 3)])


class TestDistances:
    def test_palm_crown_distance(self):
        g = palm_tree(5, 2)
        dist = bfs_distances(g, 0)
        assert all(dist[v] == 2 for v in range(2, 5))

    def test_line(self):
        assert bfs_distances(line(4), 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_example1_target_distance(self):
        g, t = example1_graph(10, 3)
        # brute force: shortest over all simple paths
        best = min(len(p) - 1 for p in brute_simple_paths(g, 0) if p[-1] == t)
        assert best == 3
        assert bfs_distances(g, 0)[t] == 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_symmetry(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
        g = from_edges(n, prufer_decode(seq, n)) if n > 2 else line(2)
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        assert bfs_distances(g, u)[v] == bfs_distances(g, v)[u]


class TestMustPass:
    def test_line_end(self):
        assert must_pass(line(4), 0, 3) == frozenset({0, 1, 2, 3})

    def test_even_cycle_antipode(self):
        assert must_pass(even_cycle(6), 0, 3) == frozenset({0, 3})

    def test_example1_line_nodes(self):
        g, t = example1_graph(10, 3)
        on_all = set(range(10))
        for p in brute_simple_paths(g, 0):
            if p[-1] == t:
                on_all &= set(p)
        assert must_pass(g, 0, t) == frozenset(on_all) == frozenset({0, 1, 2, 3})

    def test_tree_path_size(self):
        g = palm_tree(7, 3)
        for t in range(7):
            assert len(must_pass(g, 0, t)) == bfs_distances(g, 0)[t] + 1


def on_path_nodes(g, prof, v):
    return {x for x in range(g.n) if prof.on_path(x, v)}


def on_every_path_nodes(g, prof, v):
    return {x for x in range(g.n) if prof.on_every_path(x, v)}


class TestProfilePathQueries:
    """``PathProfile.on_path`` and ``on_every_path`` against the brute references."""

    def test_even_cycle_antipode(self):
        g = even_cycle(6)
        prof = path_profiles(g, 0)
        assert on_every_path_nodes(g, prof, 3) == {0, 3}
        assert len(on_path_nodes(g, prof, 3)) == 4

    def test_example1_target_path(self):
        g, t = example1_graph(10, 3)
        prof = path_profiles(g, 0)
        assert on_path_nodes(g, prof, t) == {0, 1, 2, 3}
        assert on_every_path_nodes(g, prof, t) == {0, 1, 2, 3}

    @settings(max_examples=150, deadline=None)
    @given(at_most_one_cycle(max_n=9))
    def test_match_brute_on_random_graphs(self, g):
        prof = path_profiles(g, 0)
        for t in range(g.n):
            assert on_every_path_nodes(g, prof, t) == must_pass(g, 0, t)
        for d in range(g.n):
            unique = [t for t, k in simple_path_counts(g, 0, d).items() if k == 1]
            for x in range(g.n):
                through = simple_path_counts(g, 0, d, through=x)
                for t in unique:
                    # t's one path within d passes x exactly when x is on its shortest path
                    assert prof.on_path(x, t) == (through[t] == 1), (d, x, t)


class TestProfileAgainstBrutePaths:
    """Every ``PathProfile`` field against the simple paths enumerated from the source."""

    @settings(max_examples=150, deadline=None)
    @given(at_most_one_cycle(max_n=9), st.data())
    def test_fields_match_brute_paths(self, g, data):
        s = data.draw(st.integers(0, g.n - 1))
        prof = path_profiles(g, s)
        paths: dict[int, list[tuple[int, ...]]] = {}
        for p in brute_simple_paths(g, s):
            paths.setdefault(p[-1], []).append(p)
        cyc = prof.cycle_nodes
        if cyc:
            dist = bfs_distances(g, s)
            nearest = min(dist[c] for c in cyc)
            assert [c for c in cyc if dist[c] == nearest] == [prof.entrance]
        else:
            assert prof.entrance is None
        for v, ps in paths.items():
            shortest = min(len(p) for p in ps)
            # the tree path to v is one of its shortest paths, and v's subtree
            # holds the nodes whose tree path passes v
            assert on_path_nodes(g, prof, v) in [set(p) for p in ps if len(p) == shortest]
            assert prof.distance(v) == shortest - 1
            assert prof.size[v] == sum(prof.on_path(v, w) for w in range(g.n))
            if len(ps) == 2:
                assert {[x for x in p if x in cyc][-1] for p in ps} == {prof.anchor[v]}
            else:
                assert v not in prof.anchor
        single = {v for v, ps in paths.items() if len(ps) == 1}
        assert prof.through_entrance == {v for v in single if prof.entrance in paths[v][0]}
        for d in range(g.n + 1):
            sets = prof.bounded_sets(d)
            fit = {v: sum(len(p) - 1 <= d for p in ps) for v, ps in paths.items()}
            fit_near = {v: sum(len(p) - 2 <= d for p in ps) for v, ps in paths.items()}
            assert sets.within == {v for v, k in fit.items() if k >= 1}
            assert sets.one_short == {v for v, k in fit.items() if k == 1}
            assert sets.two_short == {v for v, k in fit.items() if k == 2}
            assert sets.two_near == {v for v, k in fit_near.items() if k == 2}


class TestFindCycle:
    def test_tree_has_none(self):
        assert find_cycle(palm_tree(6, 2)) is None

    def test_example1_cycle_size(self):
        g, _ = example1_graph(10, 3)
        cyc = find_cycle(g)
        assert len(cyc) == 7 and 0 in cyc

    def test_example2_cycle_size(self):
        g, _ = example2_graph(17, 5)
        assert len(find_cycle(g)) == 2 * 5 - 2

    def test_cycle_order_is_adjacent(self):
        g, _ = example1_graph(10, 3)
        cyc = find_cycle(g)
        order = cyc.order
        for i, u in enumerate(order):
            v = order[(i + 1) % len(order)]
            assert v in g.adj[u]

    def test_multiple_cycles_rejected(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
        with pytest.raises(MultipleCycles):
            find_cycle(g)

    def test_order_starts_at_the_entrance(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
        assert find_cycle(g).order[0] == path_profiles(g, 0).entrance == 1

    @settings(max_examples=150, deadline=None)
    @given(at_most_one_cycle(max_n=9), st.data())
    def test_matches_brute_cycle_edges(self, g, data):
        """Against the non-bridge edges, on random graphs and on closed views along an episode."""
        s = data.draw(st.integers(0, g.n - 1))
        check_cycle(g, s)
        visits = execute(policy_from_id("dfs"), g, random.Random(data.draw(st.integers(0, 999))))
        for k in range(1, g.n + 1):
            view = closed_subgraph(g, visits[:k])
            check_cycle(view, g.source)
        if g.edge_count == g.n:
            chords = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges]
            if chords:
                two = from_edges(g.n, [*g.edges, data.draw(st.sampled_from(chords))])
                with pytest.raises(MultipleCycles):
                    path_profiles(two, s)
                with pytest.raises(MultipleCycles):
                    find_cycle(two)


class TestReachabilityClasses:
    def test_tree_single_class(self):
        g = palm_tree(6, 2)
        classes = reachability_classes(g, 0, 2)
        assert classes[1] == frozenset(range(6))
        assert 2 not in classes

    def test_example2_pendants_two_short_paths(self):
        g, _ = example2_graph(17, 5)
        classes = reachability_classes(g, 0, 5)
        pendants = frozenset(range(3 * 5 - 2, 17))
        assert pendants <= classes[2]
        # three cycle nodes also sit at two short paths
        cyc = find_cycle(g).node_set
        assert len(classes[2] & cyc) == 3

    def test_triangle_bound_one(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
        classes = reachability_classes(g, 0, 1)
        assert classes[1] == frozenset({0, 1, 2})
        # every node is adjacent to the source here, each with one short path

    def test_matches_brute_counts(self):
        g, _ = example1_graph(10, 3)
        for d in range(11):
            classes = reachability_classes(g, 0, d)
            counts = simple_path_counts(g, 0, d)
            for v in range(10):
                assert next((i for i, vs in classes.items() if v in vs), 0) == counts[v]

    def test_source_trivial_path(self):
        g, _ = example1_graph(10, 3)
        assert reachability_classes(g, 0, 0)[1] == frozenset({0})

    def test_full_bound_covers_everything(self):
        g, _ = example2_graph(17, 5)
        classes = reachability_classes(g, 0, 17)
        assert classes[1] | classes[2] == frozenset(range(17))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 9), st.data())
    def test_profiles_match_brute_on_unicyclic(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        edges = prufer_decode(seq, n)
        g = from_edges(n, edges)
        present = {tuple(sorted(e)) for e in edges}
        extra = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in present and bfs_distances(g, u)[v] >= 2
        ]
        if extra:
            g = from_edges(n, edges + [data.draw(st.sampled_from(extra))])
        prof = path_profiles(g, 0)
        paths = brute_simple_paths(g, 0)
        for v in range(n):
            lengths = tuple(sorted(len(p) - 1 for p in paths if p[-1] == v))
            assert prof.lengths[v] == lengths


class TestRestrictedClasses:
    def test_tree_node_on_path(self):
        g = line(4)
        classes = restricted_classes(g, 0, 1, 4)
        assert 3 in classes[1]

    def test_example1_target_through_entrance(self):
        g, t = example1_graph(10, 3)
        cyc = find_cycle(g)
        gate = entrance(g, cyc, 0)
        assert gate == 0
        classes = restricted_classes(g, 0, gate, 10)
        assert t in classes[1]

    def test_node_off_every_path(self):
        g = palm_tree(5, 1)
        classes = restricted_classes(g, 0, 2, 5)
        assert all(3 not in members for i, members in classes.items() if i >= 1) or 3 not in classes.get(1, ())


class TestEntranceExit:
    def test_source_on_cycle(self):
        g, _ = example1_graph(10, 3)
        assert entrance(g, find_cycle(g), 0) == 0

    def test_stalk_attachment(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        assert entrance(g, find_cycle(g), 0) == 1

    def test_example2_entrance_is_source(self):
        g, _ = example2_graph(17, 5)
        assert entrance(g, find_cycle(g), 0) == 0

    def test_pendant_exit(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
        assert path_profiles(g, 0).anchor[4] == 3

    def test_entrance_pendant_exits_at_entrance(self):
        # a pendant on the stalk's entrance: its one path passes the cycle there
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
        prof = path_profiles(g, 0)
        assert prof.entrance == 1 and 4 not in prof.anchor
        assert prof.through_entrance == frozenset({1, 4})

    def test_example2_pendant_exit_is_antipode(self):
        g, _ = example2_graph(17, 5)
        prof = path_profiles(g, 0)
        antipode = None
        dist = bfs_distances(g, 0)
        for v in range(13, 17):
            ex = prof.anchor[v]
            # the exit carries two equal-length arcs back to the source
            assert ex in prof.cycle.node_set and dist[ex] == 4
            antipode = ex
        # confirmed against explicit path enumeration
        for p in brute_simple_paths(g, 0):
            if p[-1] == 16:
                assert antipode in p

    def test_source_side_not_behind(self):
        # the source sits on the cycle, so the tail's paths never pass through it
        g, _ = example1_graph(10, 3)
        prof = path_profiles(g, 0)
        assert prof.entrance == 0 and 2 not in prof.anchor
        assert {x for x in prof.cycle.node_set if prof.on_path(x, 2)} == {0}


class TestClosedSubgraph:
    def test_full_set_is_whole_graph(self):
        g, _ = example1_graph(10, 3)
        view = closed_subgraph(g, range(10))
        assert view.edges == g.edges and view.nodes == g.node_set

    def test_source_star(self):
        g = palm_tree(5, 1)
        view = closed_subgraph(g, [0])
        assert view.nodes == frozenset(range(5))
        assert view.edges == frozenset((0, v) for v in range(1, 5))

    def test_frontier_edges_excluded(self):
        # triangle 0-1-2 plus a chain; only edges incident to {0,1} survive
        g = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        view = closed_subgraph(g, [0, 1])
        assert view.nodes == frozenset({0, 1, 2})
        assert view.edges == frozenset({(0, 1), (0, 2), (1, 2)})


class TestEdgeCountCycleLink:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 9), st.data())
    def test_tree_iff_no_cycle(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        g = from_edges(n, prufer_decode(seq, n))
        assert g.edge_count == n - 1 and find_cycle(g) is None
        classes = reachability_classes(g, 0, n)
        assert classes == {1: frozenset(range(n))}


class TestJson:
    def test_roundtrip_and_sorted_edges(self):
        g, t = example1_graph(10, 3)
        text = graph_to_json(g, target=t)
        doc = json.loads(text)
        assert doc["edges"] == sorted(doc["edges"])
        g2, t2 = graph_from_json(text)
        assert g2 == g and t2 == t

    def test_golden_line(self):
        text = graph_to_json(line(3))
        assert text == '{"edges": [[0, 1], [1, 2]], "n": 3, "source": 0}'
