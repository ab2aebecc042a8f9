"""Sample-size bounds, stream derivation, and replication determinism."""

import dataclasses
import functools
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicnet.estimator
from dicnet.diffusion import run_policy
from dicnet.estimator import (PURPOSE_POLICY, PURPOSE_PROPERTIES,
                              PURPOSE_PRUNE, PURPOSE_SELECT, PURPOSE_WORLD,
                              Estimate, _StreamPool, _static_spread_total,
                              estimate_policy_spread, half_width,
                              hoeffding_samples, run_replications, substream)
from dicnet.data import generate_power_law, parse_preset
from dicnet.fixtures import fixture_g1, random_tiny_network, two_node_fixture
from dicnet.model import DicNetwork
from dicnet.oracle import exact_policy_value
from dicnet.realization import PartialRealization, sample_full
from dicnet.strategies import (AGreedyPolicy, RandomPolicy,
                               StaticSeedListPolicy, static_seed_factory)


def _one_node(p=0.5):
    return DicNetwork(1, (p,), (), 1)


def _roots(net, seeds):
    """The ascending nodes of a static seed list's one command."""
    return sorted(StaticSeedListPolicy(seeds).decide(net, PartialRealization())
                  or ())


def test_hoeffding_samples_reference_value():
    # 10^2 * ln(2/0.01) / (2 * 0.5^2) = 200 ln(200) -> ceil 1060
    assert hoeffding_samples(10, 0.5, 0.01) == 1060
    assert hoeffding_samples(1, 0.1, 0.05) == math.ceil(
        math.log(40.0) / 0.02)


def test_hoeffding_samples_quarters_with_eps():
    base = hoeffding_samples(10, 0.5, 0.01)
    finer = hoeffding_samples(10, 0.25, 0.01)
    assert finer == pytest.approx(4 * base, abs=2)
    with pytest.raises(ValueError):
        hoeffding_samples(10, 0.0, 0.01)
    with pytest.raises(ValueError):
        hoeffding_samples(10, 0.5, 1.0)


def test_half_width_formula_and_monotonicity():
    assert half_width(10, 1060, 0.01) == pytest.approx(
        10 * math.sqrt(math.log(200.0) / 2120))
    assert half_width(10, 1060, 0.01) <= 0.5 + 1e-9
    widths = [half_width(10, r, 0.01) for r in (100, 400, 1600, 6400)]
    assert widths == sorted(widths, reverse=True)
    assert widths[0] / widths[1] == pytest.approx(2.0)
    for delta in (0.0, 1.0, 5.0, -0.5):
        with pytest.raises(ValueError):
            half_width(10, 100, delta)


def test_substream_independence_and_determinism():
    a1 = substream(42, 0, 0).random(5)
    a2 = substream(42, 0, 0).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, substream(42, 1, 0).random(5))
    assert not np.array_equal(a1, substream(42, 0, 1).random(5))
    assert not np.array_equal(a1, substream(43, 0, 0).random(5))


def test_substream_rejects_keys_that_would_collide():
    # (index << 8) | purpose must fit 64 bits, or index 2**56 would alias 0
    for index, purpose in [(2 ** 56, 0), (-1, 0), (0, 256), (0, -1)]:
        with pytest.raises(ValueError):
            substream(42, index, purpose)
    assert np.array_equal(substream(42, 2 ** 56 - 1, 255).random(3),
                          substream(42, 2 ** 56 - 1, 255).random(3))
    # the master seed fills the other 64-bit word: 2**64 would alias 0
    for seed in (-1, 2 ** 64, 2 ** 70):
        with pytest.raises(ValueError):
            substream(seed, 0, 0)
        with pytest.raises(ValueError):
            _StreamPool(seed)
    assert not np.array_equal(substream(2 ** 64 - 1, 0, 0).random(3),
                              substream(0, 0, 0).random(3))
    factory = functools.partial(static_seed_factory, [0])
    for count in (0, 2 ** 56 + 1):
        with pytest.raises(ValueError):
            run_replications(two_node_fixture(), factory, count, 1)
        with pytest.raises(ValueError):
            estimate_policy_spread(two_node_fixture(), factory, count, 1)


def test_stream_pool_reproduces_substream_exactly():
    # at the largest master seed and index, for every purpose and several
    # kinds of draw; the first draw leaves a 32-bit half buffered (an odd
    # count of uint32 draws) and the second gets its stream straight after,
    # and the odd sizes leave 64-bit words buffered
    purposes = (PURPOSE_WORLD, PURPOSE_POLICY, PURPOSE_SELECT, PURPOSE_PRUNE,
                PURPOSE_PROPERTIES)
    uint32 = lambda g: g.integers(0, 2 ** 32, size=3, dtype=np.uint32)
    draws = (uint32, uint32,
             lambda g: g.random(7),
             lambda g: g.integers(0, 1000, size=5),
             lambda g: g.geometric(0.3, size=5),
             lambda g: g.choice(50, size=5, replace=False))
    for seed in (42, 2 ** 64 - 1):
        pool = _StreamPool(seed)
        for index in (0, 3, 7, 3, 2 ** 56 - 1, 0):
            for purpose in purposes:
                for k, draw in enumerate(draws):
                    got = draw(pool.get(index, purpose))
                    want = draw(substream(seed, index, purpose))
                    assert np.array_equal(got, want), (seed, index, purpose, k)


def test_policies_draw_from_their_replications_policy_stream():
    # replication i runs its policy on substream(seed, i, 1) over the world
    # of substream(seed, i, 0), and a driven estimate is the mean of the
    # runs' spreads
    net = fixture_g1()
    for factory in (RandomPolicy, functools.partial(AGreedyPolicy, net, 30)):
        rows = run_replications(net, factory, 12, master_seed=9)
        runs = [run_policy(net, factory(substream(9, i, 1)),
                           sample_full(net, substream(9, i, 0)))
                for i in range(12)]
        assert [(r.spread, r.rounds, r.seeds_used, r.gain_evaluations)
                for r in rows] == [(run.spread, run.rounds, len(run.seeds),
                                    run.gain_evaluations) for run in runs]
        est = estimate_policy_spread(net, factory, 12, master_seed=9)
        assert est.mean == sum(run.spread for run in runs) / 12


def test_run_replications_rows_and_worker_equality():
    net = two_node_fixture()
    factory = functools.partial(static_seed_factory, [0])
    rows1 = run_replications(net, factory, 40, master_seed=7, workers=1)
    assert [r.replication for r in rows1] == list(range(40))
    assert all(r.seeds_used == 1 and r.gain_evaluations == 0 for r in rows1)
    assert all(r.spread in (1, 2) for r in rows1)
    rows2 = run_replications(net, factory, 40, master_seed=7, workers=2)
    strip = lambda r: dataclasses.replace(r, wall_time_ms=0.0)
    assert [strip(r) for r in rows1] == [strip(r) for r in rows2]
    with pytest.raises(ValueError):
        run_replications(net, factory, 0, master_seed=7)


def test_estimate_two_node_exact_value():
    # seeding the source is worth exactly 1 + 0.48 in expectation
    net = two_node_fixture()
    factory = functools.partial(static_seed_factory, [0])
    est = estimate_policy_spread(net, factory, 20000, master_seed=1)
    assert isinstance(est, Estimate)
    assert est.replications == 20000 and est.master_seed == 1
    assert est.mean == pytest.approx(1.48, abs=0.02)
    assert est.half_width == pytest.approx(half_width(2, 20000, 0.01))


def test_estimate_one_node_coin():
    net = _one_node(0.5)
    factory = functools.partial(static_seed_factory, [0])
    est = estimate_policy_spread(net, factory, 40000, master_seed=2)
    assert est.mean == pytest.approx(0.5, abs=0.01)


def test_estimate_rejects_delta_before_any_run(monkeypatch):
    # a bad confidence level fails at once, not after every replication ran
    def no_run(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(dicnet.estimator, "run_policy", no_run)
    monkeypatch.setattr(dicnet.estimator, "_static_spread_total", no_run)
    net = two_node_fixture()
    for factory in (RandomPolicy, functools.partial(static_seed_factory, [0])):
        for delta in (1.5, 1.0, 0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="delta"):
                estimate_policy_spread(net, factory, 20000, master_seed=1,
                                       delta=delta)


def test_estimate_worker_equality():
    # the block-batched static path and the driven path alike
    g1 = fixture_g1()
    for net, factory in (
            (two_node_fixture(), functools.partial(static_seed_factory, [0])),
            (g1, functools.partial(static_seed_factory, [0, 2, 4])),
            (g1, functools.partial(static_seed_factory, ())),
            (g1, RandomPolicy)):
        e1 = estimate_policy_spread(net, factory, 500, master_seed=3, workers=1)
        e2 = estimate_policy_spread(net, factory, 500, master_seed=3, workers=2)
        assert e1 == e2


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    # a stand-in pool records its size and runs each chunk inline, so this
    # test starts no process, whatever CPU count it pretends
    sizes, submitted = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            submitted.append(0)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted[-1] += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(dicnet.estimator, "ProcessPoolExecutor", InlinePool)
    net = two_node_fixture()
    factory = functools.partial(static_seed_factory, [0])
    # (replications, workers, chunks, cpus): the pool gets the least of
    # workers, chunks and usable CPUs, while the chunks follow workers alone
    for reps, workers, chunks, cpus in ((2, 64, 2, 64), (3, 2, 3, 64),
                                        (30, 4, 15, 64), (30, 8, 30, 64),
                                        (30, 8, 30, 3), (1000, 5000, 1000, 2),
                                        (30, 4, 15, 1)):
        monkeypatch.setattr(dicnet.estimator, "_usable_cpus", lambda: cpus)
        est = estimate_policy_spread(net, factory, reps, master_seed=3,
                                     workers=workers)
        assert sizes[-1] == min(workers, chunks, cpus)
        assert submitted[-1] == chunks
        assert est == estimate_policy_spread(net, factory, reps,
                                             master_seed=3)


def test_hoeffding_coverage_holds_empirically():
    # 200 independent estimates of a known mean: the fraction falling outside
    # the half-width must not exceed delta (Hoeffding is conservative)
    net = _one_node(0.5)
    factory = functools.partial(static_seed_factory, [0])
    delta = 0.2
    misses = 0
    for seed in range(200):
        est = estimate_policy_spread(net, factory, 50, master_seed=seed,
                                     delta=delta)
        if abs(est.mean - 0.5) > est.half_width:
            misses += 1
    assert misses / 200 <= delta


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_estimate_within_half_width_of_exact_value(seed):
    # the Monte Carlo estimate of a static seed list agrees with the exact
    # value by enumeration, within its Hoeffding half-width at delta 1e-6
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=3)
    size = int(rng.integers(1, net.budget + 1))
    seeds = tuple(int(v) for v in rng.choice(net.node_count, size, replace=False))
    exact = exact_policy_value(net, lambda: StaticSeedListPolicy(seeds))
    est = estimate_policy_spread(net, functools.partial(static_seed_factory,
                                                        seeds),
                                 4000, master_seed=seed, delta=1e-6)
    assert abs(est.mean - exact) <= est.half_width


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_static_spread_sum_matches_driven_runs(seed):
    # the spread sum counts a static seed list's reach a block at a time,
    # without driving the rounds; over any replication range it equals the
    # driven runs' spreads, replication by replication and summed, for lists
    # that repeat nodes, run past the budget or are empty.  Blocks of 7 rows
    # make ranges start mid-block and cross several blocks.
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    seeds = rng.integers(0, net.node_count,
                         size=int(rng.integers(0, 6))).tolist()
    factory = functools.partial(static_seed_factory, seeds)
    spreads = [r.spread for r in run_replications(net, factory, 40,
                                                  master_seed=seed)]
    roots = _roots(net, seeds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dicnet.estimator, "BLOCK_ROWS", 7)
        for i, spread in enumerate(spreads):
            assert _static_spread_total(net, roots, seed, i, i + 1) == spread
        for _ in range(4):
            a, b = sorted(int(i) for i in rng.integers(0, 41, size=2))
            if a < b:
                assert (_static_spread_total(net, roots, seed, a, b)
                        == sum(spreads[a:b]))
        assert _static_spread_total(net, roots, seed, 0, 40) == sum(spreads)


def test_static_spread_sum_on_a_generated_net(monkeypatch):
    # a net with cycles and chains several hops long, in blocks of 7 rows
    monkeypatch.setattr(dicnet.estimator, "BLOCK_ROWS", 7)
    net = generate_power_law(60, 400, 5, parse_preset("f3:0.2,0.5,0.9"), 4,
                             skew=1.0)
    seeds = [3, 0, 3, 17, 42]
    factory = functools.partial(static_seed_factory, seeds)
    spreads = [r.spread for r in run_replications(net, factory, 30,
                                                  master_seed=11)]
    assert max(spreads) > 5
    assert (_static_spread_total(net, _roots(net, seeds), 11, 4, 30)
            == sum(spreads[4:]))


def test_any_factory_of_a_static_list_takes_the_block_path(monkeypatch):
    # the estimator recognises a static list by the policy its factory
    # builds, so a lambda's list is counted a block at a time, and only its
    # roots go to the workers: no run is driven at one worker or at two
    net = generate_power_law(60, 400, 5, parse_preset("f3:0.2,0.5,0.9"), 4,
                             skew=1.0)
    seeds = [3, 0, 3, 17, 42]
    driven = sum(r.spread for r in run_replications(
        net, lambda rng: StaticSeedListPolicy(seeds), 30, master_seed=11))

    def no_run(*args):
        raise AssertionError("a static list's run was driven")

    monkeypatch.setattr(dicnet.estimator, "run_policy", no_run)
    for factory in (lambda rng: StaticSeedListPolicy(seeds),
                    functools.partial(static_seed_factory, seeds)):
        for workers in (1, 2):
            est = estimate_policy_spread(net, factory, 30, master_seed=11,
                                         workers=workers)
            assert est.mean == driven / 30
    with pytest.raises(AssertionError):
        estimate_policy_spread(net, RandomPolicy, 30, master_seed=11)


def test_a_factory_that_draws_its_list_is_driven():
    # a static list drawn from the policy stream differs between
    # replications, so it is not counted as replication 0's list
    net = two_node_fixture()
    factory = lambda rng: StaticSeedListPolicy([int(rng.integers(2))])
    driven = sum(r.spread for r in run_replications(net, factory, 2000,
                                                    master_seed=5))
    est = estimate_policy_spread(net, factory, 2000, master_seed=5)
    assert est.mean == driven / 2000 == 1.232


def test_driven_estimate_holds_one_chunk_of_results(monkeypatch):
    # a driven estimate sums each chunk's spreads as the chunk arrives, so
    # its traced peak does not grow with the replication count: 4x the
    # replications, in chunks of 50, raise it by at most 20%
    monkeypatch.setattr(dicnet.estimator, "BLOCK_ROWS", 50)
    net = two_node_fixture()
    estimate_policy_spread(net, RandomPolicy, 100, master_seed=5)
    peaks = []
    for replications in (1000, 4000):
        tracemalloc.start()
        try:
            estimate_policy_spread(net, RandomPolicy, replications,
                                   master_seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks
