import math
import multiprocessing
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hideseek.cli import main
from hideseek.errors import BadWorkerCount
from hideseek.graphs import from_edges, graph_to_json
from hideseek.hider import HiderStrategy, example1_graph, example2_graph, palm_crown_mixed, palm_tree
from hideseek.oracle import exact_expected_pos, hider_value
from hideseek.seeker import (
    AdjustedDFSPolicy,
    BoundedDFSPolicy,
    DFSPolicy,
    battery_policies,
    cumulative_thresholds,
    draw,
    execute,
    pick_by_thresholds,
    sample_position,
    sigma_star,
)
from hideseek.simulate import WORKERS_ENV, monte_carlo, run_episode, trial_rng

from graph_strategies import at_most_one_cycle


def line(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestRunEpisode:
    def test_line_always_end(self):
        g = line(4)
        assert all(run_episode(DFSPolicy(), g, 3, seed=s, index=0) == 3 for s in range(5))

    def test_palm_crown_support(self):
        g = palm_tree(5, 2)
        positions = {run_episode(DFSPolicy(), g, 3, seed=1, index=i) for i in range(60)}
        assert positions == {2, 3, 4}

    def test_deterministic_per_seed_index(self):
        g, t = example1_graph(12, 3)
        a = run_episode(DFSPolicy(), g, t, seed=42, index=17)
        b = run_episode(DFSPolicy(), g, t, seed=42, index=17)
        assert a == b

    @settings(max_examples=80, deadline=None)
    @given(at_most_one_cycle(max_n=8), st.integers(1, 4), st.integers(0, 2**32))
    def test_sample_position_matches_full_episode(self, g, d, seed):
        tries: dict = {}  # one trie cache across every call, as each Monte Carlo chunk keeps
        for policy in battery_policies(d) + [sigma_star(d, pointwise=True)]:
            for index in range(2):
                for h in range(g.n):
                    full = execute(policy, g, trial_rng(seed, index)).pos(h)
                    assert sample_position(policy, g, h, trial_rng(seed, index), tries) == full
                    assert run_episode(policy, g, h, seed, index) == full

    def test_independent_streams(self):
        # different indices should not all coincide on a randomized instance
        g = palm_tree(8, 2)
        values = {run_episode(DFSPolicy(), g, 5, seed=9, index=i) for i in range(30)}
        assert len(values) > 1


class TestMonteCarlo:
    def test_palm_crown_covers_value(self):
        res = monte_carlo(DFSPolicy(), palm_crown_mixed(10, 3), trials=20_000, seed=5)
        assert res.covers(6)
        assert res.stderr < 0.05

    def test_deterministic(self):
        strategy = palm_crown_mixed(8, 3)
        a = monte_carlo(DFSPolicy(), strategy, trials=5000, seed=11)
        b = monte_carlo(DFSPolicy(), strategy, trials=5000, seed=11)
        assert a == b

    def test_worker_split_invariant(self):
        strategy = palm_crown_mixed(8, 3)
        seq = monte_carlo(sigma_star(3), strategy, trials=12_000, seed=3, workers=1)
        par = monte_carlo(sigma_star(3), strategy, trials=12_000, seed=3, workers=2)
        assert seq == par

    def test_consistency_with_oracle(self):
        g, t = example1_graph(9, 2)
        exact = exact_expected_pos(DFSPolicy(), g, t, memoized=True)
        strategy = HiderStrategy.pure(g, t)
        for seed in (1, 2, 3, 4, 5):
            res = monte_carlo(DFSPolicy(), strategy, trials=4000, seed=seed)
            assert res.covers(exact), (seed, res.mean, float(exact))

    def test_mixture_consistency(self):
        strategy = palm_crown_mixed(9, 3)
        exact = hider_value(sigma_star(3), strategy)
        res = monte_carlo(sigma_star(3), strategy, trials=6000, seed=8)
        assert res.covers(exact)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(DFSPolicy(), palm_crown_mixed(5, 2), trials=0, seed=0)


class TestLargeInstanceRuns:
    def test_example1_large(self):
        g, t = example1_graph(30, 4)
        res = monte_carlo(DFSPolicy(), HiderStrategy.pure(g, t), trials=100_000, seed=77)
        assert res.covers(Fraction(62, 3))

    def test_example2_large(self):
        g, t = example2_graph(32, 5)
        res = monte_carlo(
            BoundedDFSPolicy(5), HiderStrategy.pure(g, t), trials=100_000, seed=77, workers=2
        )
        assert res.covers(Fraction(65, 3))


def test_trial_rng_is_stable():
    # counter-based split: the same (seed, index) always yields one stream
    a = trial_rng(123, 45)
    b = trial_rng(123, 45)
    assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]


class TestSharedCache:
    def test_graphs_of_one_strategy_keep_apart(self):
        # two 4-node graphs share node labels and visit prefixes; their
        # decisions must still come from their own graph
        path = line(4)
        star = palm_tree(4, 1)
        strategy = HiderStrategy(((path, 3, Fraction(1, 2)), (star, 3, Fraction(1, 2))))
        exact = hider_value(DFSPolicy(), strategy)
        assert exact == Fraction(5, 2)
        res = monte_carlo(DFSPolicy(), strategy, trials=20_000, seed=0)
        assert res.covers(exact), (res.mean, res.stderr)


def _unicyclic(n, seed):
    """A 6-ring through node 1, one step from the source, with a seeded random tree around it."""
    rng = random.Random(seed)
    edges = [(0, 1)] + [(1 + i, 1 + (i + 1) % 6) for i in range(6)]
    edges += [(rng.randrange(v), v) for v in range(7, n)]
    return from_edges(n, edges)


class TestGoldenOutputs:
    """Seeded (mean, stderr) pairs recorded before the search state and the
    decision trie replaced the per-step view rebuild; the sampler must keep
    the same rng draw per step over the same sorted frontier."""

    @pytest.mark.parametrize("name, make, trials, want", [
        ("dfs ex1(30,4)",
         lambda: (DFSPolicy(), HiderStrategy.pure(*example1_graph(30, 4))), 3000,
         (20.483333333333334, 0.2163560841997329)),
        ("dfs_d[5] ex2(32,5)",
         lambda: (BoundedDFSPolicy(5), HiderStrategy.pure(*example2_graph(32, 5))), 1000,
         (20.834, 0.3822807640760683)),
        ("sigma_star(3) crown(10,3)",
         lambda: (sigma_star(3), palm_crown_mixed(10, 3)), 3000,
         (5.9736666666666665, 0.036555784833108854)),
        ("adfs unicyclic(40)",
         lambda: (AdjustedDFSPolicy(), HiderStrategy.pure(_unicyclic(40, 3), 39)), 1000,
         (17.192, 0.3424944356313522)),
        ("dfs_d[4] unicyclic(40)",
         lambda: (BoundedDFSPolicy(4), HiderStrategy.pure(_unicyclic(40, 3), 39)), 1000,
         (12.196, 0.1944360804721937)),
    ])
    def test_monte_carlo(self, name, make, trials, want):
        policy, strategy = make()
        res = monte_carlo(policy, strategy, trials=trials, seed=2024, workers=1)
        assert (res.mean, res.stderr) == want

    def test_cli_mc_row(self, tmp_path):
        g, t = example1_graph(12, 3)
        graph = tmp_path / "ex1.json"
        graph.write_text(graph_to_json(g, target=t))
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, [
                "eval", "--graph", str(graph), "--strategy", "sigma_star", "--d", "3",
                "--mode", "mc", "--trials", "2000", "--seed", "5",
            ], catch_exceptions=False)
        assert result.output == (
            "instance,strategy,trials,seed,mean,stderr,ci_lo,ci_hi,exact\n"
            "ex1,sigma_star,2000,5,7.623,0.08163802964269759,"
            "7.462989461900313,7.7830105380996875,31/4\n"
        )


def _exact_pick(weights, r):
    acc = Fraction(0)
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8),
       st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
def test_float_thresholds_pick_like_exact_sums(raw, draws):
    total = sum(raw)
    weights = [Fraction(x, total) for x in raw]
    thresholds = cumulative_thresholds(weights)
    boundary = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        near = float(acc)
        boundary += [near, math.nextafter(near, 0.0), math.nextafter(near, 1.0)]
    for r in draws + [b for b in boundary if 0 <= b < 1]:
        assert pick_by_thresholds(range(len(weights)), thresholds, r) == _exact_pick(weights, r), r


def test_draw_keeps_its_running_float_sum():
    """``draw`` sums the floats of the weights, which is not the thresholds'
    exact rule: at this draw over uniform thirds the two pick different
    nodes, so moving ``draw`` onto the thresholds would change seeded rows."""
    class Stub:
        def random(self):
            return 0.6666666666666666

    thirds = tuple((v, Fraction(1, 3)) for v in range(3))
    assert draw(thirds, Stub()) == 2
    assert pick_by_thresholds((0, 1, 2), cumulative_thresholds([Fraction(1, 3)] * 3), Stub().random()) == 1


class TestWorkers:
    strategy = palm_crown_mixed(6, 2)

    @pytest.mark.parametrize("raw", ["abc", "1.5", "", "0", "-3"])
    def test_bad_environment_value(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(BadWorkerCount):
            monte_carlo(DFSPolicy(), self.strategy, trials=10, seed=0)

    def test_bad_argument(self):
        with pytest.raises(BadWorkerCount):
            monte_carlo(DFSPolicy(), self.strategy, trials=10, seed=0, workers=0)

    def test_cli_exit_code(self, tmp_path):
        g, t = example1_graph(10, 3)
        graph = tmp_path / "ex1.json"
        graph.write_text(graph_to_json(g, target=t))
        runner = CliRunner()
        with runner.isolated_filesystem():
            result = runner.invoke(main, [
                "eval", "--graph", str(graph), "--strategy", "dfs", "--mode", "mc",
                "--trials", "10",
            ], env={WORKERS_ENV: "abc"})
        assert result.exit_code == 2
        assert "BadWorkerCount" in result.output

    @pytest.mark.parametrize("cpus, asked, pool_size", [(2, 8, 2), (4, 3, 3), (1, 6, None)])
    def test_capped_at_cpu_count(self, monkeypatch, cpus, asked, pool_size):
        sizes = []

        class SerialPool:
            """Stands in for a process pool: records its size, maps in-process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        res = monte_carlo(DFSPolicy(), self.strategy, trials=12_000, seed=1, workers=asked)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert res == monte_carlo(DFSPolicy(), self.strategy, trials=12_000, seed=1, workers=1)
