"""Policies, the live-edge world engine, and static selection."""

import contextlib
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dicnet.diffusion
import dicnet.strategies
from dicnet.data import generate_power_law, parse_preset
from dicnet.diffusion import (EMPTY_COMMAND, run_policy, run_to_quiescence,
                              start, step_round)
from dicnet.estimator import half_width
from dicnet.fixtures import (chain_network, random_tiny_network, star_network,
                             two_node_fixture)
from dicnet.model import DicNetwork, fixed_distribution
from dicnet.oracle import exact_marginal_gain
from dicnet.realization import FullRealization, sample_full
from dicnet.strategies import (AGreedyPolicy, RandomPolicy,
                               StaticSeedListPolicy, _bernoulli_positions,
                               _draw_below, _eligible_nodes, _flat_keys,
                               _flat_reach, h_greedy_prune,
                               observably_quiescent,
                               reach_totals, sample_worlds,
                               static_greedy_select, world_gain)


def _edgeless(n, activation, budget):
    acts = (activation,) * n if isinstance(activation, float) else tuple(activation)
    return DicNetwork(n, acts, (), budget)


def _reach(adj, v: int, excluded) -> set[int]:
    """Nodes reachable from v over a dict world's live edges without
    entering a node of `excluded` (v included): the depth-first reference
    for the flat search and the kernel."""
    seen = {v}
    stack = [v]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen and w not in excluded:
                seen.add(w)
                stack.append(w)
    return seen


def _appended_worlds(net, pieces, replications):
    """The reference dict worlds {source: [targets]} of live (rows, edges)
    pieces: live edge `edges[i]` appended to world `rows[i]`'s list for its
    source, piece after piece."""
    src, dst, _ = net.edge_arrays
    worlds = [{} for _ in range(replications)]
    for rows, edges in pieces:
        for r, u, w in zip(rows.tolist(), src[edges].tolist(),
                           dst[edges].tolist()):
            worlds[r].setdefault(u, []).append(w)
    return worlds


def _dict_worlds(net, live, replications):
    """The reference dict worlds of one live (rows, edges) piece."""
    return _appended_worlds(net, [live], replications)


def _batch_worlds(net, worlds, replications):
    """The dict worlds of a batch (tail, head, flags), each source's targets
    in the batch's order."""
    n = net.node_count
    adjs = [{} for _ in range(replications)]
    for k, h in zip(worlds[0].tolist(), worlds[1].tolist()):
        assert k // n == h // n                 # an edge stays in its world
        adjs[k // n].setdefault(k % n, []).append(h % n)
    return adjs


def _flat_worlds(net, live, replications):
    """The batch (tail, head, flags) of one live (rows, edges) piece,
    nothing flagged; past 2**31 keys its flags are a `_KeySet`, so no
    replications * n array is allocated."""
    if replications * net.node_count < 2 ** 31:
        return _flat_keys(net, [live], replications)
    with mock.patch.object(np, "zeros", lambda size, dtype: _KeySet()):
        return _flat_keys(net, [live], replications)


@contextlib.contextmanager
def _excluding(net, worlds, nodes):
    """Bit 0 set on the nodes of `nodes` in every world of the batch while
    the block runs, and cleared again after it."""
    columns = worlds[2].reshape(-1, net.node_count)
    columns[:, sorted(nodes)] |= 1
    try:
        yield
    finally:
        columns[:, sorted(nodes)] &= 0xFE


def _gain(net, worlds, v, active):
    """`world_gain` with bit 0 set on the nodes of `active` in every world."""
    with _excluding(net, worlds, active):
        return world_gain(net, worlds, v)


def _totals(net, worlds, replications, excluded, weight=None):
    """`reach_totals` with bit 0 set on the nodes of `excluded` in every
    world."""
    with _excluding(net, worlds, excluded):
        return reach_totals(net, worlds, replications, weight)


def test_random_policy_respects_budget_and_eligibility():
    net = _edgeless(3, 0.0, 3)          # every attempt fails
    x = sample_full(net, np.random.default_rng(4))
    policy = RandomPolicy(np.random.default_rng(5))
    run = run_policy(net, policy, x)
    assert len(run.seeds) == 3
    assert run.spread == 0


class _ScanningRandomPolicy:
    """The random rule by a fresh scan of every node at every decision:
    the reference for RandomPolicy's kept eligible list."""

    def __init__(self, rng):
        self.rng = rng

    def decide(self, net, partial):
        elig = _eligible_nodes(net, partial.active)
        if not elig:
            return None
        picks = self.rng.choice(elig, size=1, replace=False)
        return frozenset(int(v) for v in picks)


def test_random_policy_keeps_the_draws_of_a_full_scan():
    # the eligible list kept between decisions, with the newly active nodes
    # dropped, is the list a fresh scan gives, so every draw is unchanged:
    # on tiny nets and on a net whose cascades activate nodes mid-run
    nets = [random_tiny_network(np.random.default_rng(s), max_nodes=5,
                                budget=3) for s in range(20)]
    nets.append(generate_power_law(300, 3000, 5, parse_preset("f1:0.3"), 20))
    for i, net in enumerate(nets):
        x = sample_full(net, np.random.default_rng(i))
        kept = run_policy(net, RandomPolicy(np.random.default_rng(i)), x)
        scan = run_policy(net, _ScanningRandomPolicy(np.random.default_rng(i)),
                          x)
        assert kept == scan
    assert kept.spread > len(kept.seeds)        # cascades did run


def test_random_policy_picks_by_index_as_from_the_list():
    # a pick by index draws from the population size alone, as the pick
    # from the list does: the same picks, with the stream left in the same
    # state, at 2500 eligible nodes that never turn active and on a list
    # that shrinks to nothing
    for net in (_edgeless(2500, 0.0, 1000), _edgeless(300, 1.0, 300)):
        x = sample_full(net, np.random.default_rng(7))
        rngs = [np.random.default_rng(8), np.random.default_rng(8)]
        kept = run_policy(net, RandomPolicy(rngs[0]), x)
        scan = run_policy(net, _ScanningRandomPolicy(rngs[1]), x)
        assert kept.seeds == scan.seeds
        assert len(kept.seeds) == net.budget
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_static_seed_list_truncates_to_remaining_budget():
    net = _edgeless(5, 1.0, 2)
    x = sample_full(net, np.random.default_rng(6))
    run = run_policy(net, StaticSeedListPolicy([0, 1, 2, 3]), x)
    assert run.seeds == (0, 1)
    assert run.spread == 2


def test_bernoulli_positions():
    rng = np.random.default_rng(7)
    assert len(_bernoulli_positions(rng, 0, 0.5)) == 0
    assert len(_bernoulli_positions(rng, 100, 0.0)) == 0
    assert list(_bernoulli_positions(rng, 5, 1.0)) == [0, 1, 2, 3, 4]
    pos = _bernoulli_positions(rng, 200000, 0.03)
    assert pos.min() >= 0 and pos.max() < 200000
    assert np.all(np.diff(pos) > 0)
    # count within 4 sigma of Binomial(200000, 0.03)
    assert abs(len(pos) - 6000) < 4 * np.sqrt(200000 * 0.03 * 0.97)
    r1 = _bernoulli_positions(np.random.default_rng(8), 1000, 0.2)
    r2 = _bernoulli_positions(np.random.default_rng(8), 1000, 0.2)
    assert np.array_equal(r1, r2)


def test_bernoulli_positions_continues_past_the_first_batch():
    # gaps of 1 put every step of the first batch (78 at total=100, p=0.5)
    # inside, so a second batch must continue from the last position
    class UnitGaps:
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

    pos = _bernoulli_positions(UnitGaps(), 100, 0.5)
    assert np.array_equal(pos, np.arange(100))


def test_bernoulli_positions_peak_is_its_batch():
    # the gaps are summed in place and the positions are a prefix view of
    # them, so the peak is the one batch of 1.25x the expected output
    for total, p in ((2_000_000, 0.01), (200_000, 0.03), (1_000_000, 0.3)):
        tracemalloc.start()
        try:
            pos = _bernoulli_positions(np.random.default_rng(5), total, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pos.nbytes < 1.5, (total, p, peak / pos.nbytes)


def test_world_gain_matches_exact_gain():
    net = two_node_fixture()
    worlds = sample_worlds(net, 40000, np.random.default_rng(9))
    assert world_gain(net, worlds, 0) == pytest.approx(1.48, abs=0.02)
    assert world_gain(net, worlds, 1) == pytest.approx(1.0, abs=1e-12)
    # conditioning: with node 0 active the edge cannot carry the cascade
    assert _gain(net, worlds, 1, {0}) == pytest.approx(1.0, abs=1e-12)


def test_world_gain_on_chain():
    net = chain_network(4, 0.5, activation=0.8, budget=1)
    exact = exact_marginal_gain(net, frozenset(), 0)
    assert exact == pytest.approx(0.8 * (1 + 0.5 + 0.25 + 0.125), abs=1e-12)
    worlds = sample_worlds(net, 40000, np.random.default_rng(10))
    assert world_gain(net, worlds, 0) == pytest.approx(exact, abs=0.03)


def test_world_gain_conditions_on_the_active_set():
    net = chain_network(3, 0.5, activation=0.8, budget=1)
    worlds = sample_worlds(net, 40000, np.random.default_rng(11))
    est = world_gain(net, worlds, 0)
    assert est == pytest.approx(0.8 * (1 + 0.5 + 0.25), abs=0.03)
    # conditioned: node 1 already active, so seeding 0 gains only itself
    assert _gain(net, worlds, 0, {1}) == pytest.approx(0.8, abs=1e-12)


def test_sample_worlds_is_deterministic_and_sparse():
    net = star_network(5, 0.3, activation=1.0, budget=1)
    drawn = sample_worlds(net, 500, np.random.default_rng(12))
    again = sample_worlds(net, 500, np.random.default_rng(12))
    assert all(np.array_equal(x, y) for x, y in zip(drawn, again))
    assert np.all(np.diff(drawn[0]) >= 0) and drawn[0].max() < 500 * 6
    assert len(drawn[2]) == 500 * 6
    a = _batch_worlds(net, drawn, 500)
    assert len(a) == 500
    # only the hub has out-edges, and each leaf appears at most once
    assert all(set(adj) <= {0} for adj in a)
    lists = [adj[0] for adj in a if adj]
    assert all(len(ws) == len(set(ws)) and set(ws) <= set(range(1, 6))
               for ws in lists)
    live = sum(len(ws) for ws in lists)
    assert abs(live - 750) < 4 * np.sqrt(2500 * 0.3 * 0.7)
    edgeless = _edgeless(3, 1.0, 1)
    assert _batch_worlds(edgeless, sample_worlds(
        edgeless, 4, np.random.default_rng(0)), 4) == [{}] * 4


def _reference_sample_worlds(net, replications, rng):
    """`sample_worlds`' draws, one piece per distinct edge mean, built by the
    per-edge reference."""
    gen = np.random.Generator(np.random.Philox(key=int(rng.integers(0, 2 ** 63))))
    means = net.edge_arrays[2]
    pieces = []
    for p in np.unique(means):
        group = np.flatnonzero(means == p)
        g = len(group)
        positions = _bernoulli_positions(gen, replications * g, float(p))
        pieces.append((positions // g, group[positions % g]))
    return _appended_worlds(net, pieces, replications)


def _reference_static_worlds(net, replications, rng):
    """`static_greedy_select`'s draws, one piece per block, built by the
    per-edge reference."""
    pieces = []
    for lo, live in _draw_below(rng, replications, net.edge_arrays[2]):
        rows, edges = np.nonzero(live)
        pieces.append((rows + lo, edges))
    return _appended_worlds(net, pieces, replications)


def _static_greedy_batch(net, replications, rng):
    """The batch `static_greedy_select` draws from rng; its tail and head
    are as drawn, and its flags end with the picks' reach covered."""
    drawn = []
    keys = dicnet.strategies._flat_keys

    def keep(net, pieces, replications):
        drawn.append(keys(net, pieces, replications))
        return drawn[-1]

    with mock.patch.object(dicnet.strategies, "_flat_keys", keep):
        static_greedy_select(net, 1, replications, rng)
    return drawn[0]


_MIXED_LAWS = (parse_preset("f3:0.1,0.01,0.001").distribution,
               fixed_distribution(0.02), fixed_distribution(0.3),
               fixed_distribution(1.0))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_world_builder_matches_the_per_edge_reference(seed):
    # both samplers' batches, read in order, give the worlds of the
    # per-edge reference over their pieces, with each source's targets in
    # the same order, on nets whose edges mix an f3 preset's law with
    # per-edge laws of other means (several law groups), on edgeless nets,
    # and on sparse draws that leave worlds empty between non-empty ones and
    # at the end
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    edges = tuple((u, v, _MIXED_LAWS[int(rng.integers(len(_MIXED_LAWS)))])
                  for u in range(n) for v in range(n)
                  if u != v and rng.random() < 0.5)
    net = DicNetwork(n, (0.5,) * n, edges, 1)
    replications = int(rng.integers(1, 30))
    drawn = sample_worlds(net, replications, np.random.default_rng(seed))
    assert (_batch_worlds(net, drawn, replications)
            == _reference_sample_worlds(net, replications,
                                        np.random.default_rng(seed)))
    drawn = _static_greedy_batch(net, replications,
                                 np.random.default_rng(seed))
    assert (_batch_worlds(net, drawn, replications)
            == _reference_static_worlds(net, replications,
                                        np.random.default_rng(seed)))


def test_world_builder_keeps_piece_order_across_empty_worlds():
    # two pieces whose rows interleave, with a source hit by both in world
    # 2: its targets keep piece order, not edge order; worlds 1, 4 and 5
    # stay empty; the flat keys list each world's sources in ascending
    # order, each source's targets in piece order, then in the order within
    # a piece, and the flag bytes carry bit 1 on those sources' keys alone
    net = DicNetwork(4, (0.5,) * 4, tuple(
        (u, v, fixed_distribution(0.5)) for u, v in
        ((0, 1), (0, 2), (0, 3), (2, 1), (3, 0))), 1)
    pieces = [(np.array([0, 2, 2, 3]), np.array([1, 2, 4, 3])),
              (np.array([0, 2, 3]), np.array([3, 0, 4]))]
    tail, head, flags = _flat_keys(net, pieces, 6)
    worlds = _batch_worlds(net, (tail, head, flags), 6)
    assert worlds == _appended_worlds(net, pieces, 6)
    assert worlds[2] == {0: [3, 1], 3: [0]} and worlds[1] == {}
    assert worlds[4] == worlds[5] == {}
    assert list(zip(tail.tolist(), head.tolist())) == [
        (r * 4 + u, r * 4 + w) for r, adj in enumerate(worlds)
        for u in sorted(adj) for w in adj[u]]
    assert flags.dtype == np.uint8 and len(flags) == 6 * 4
    assert np.flatnonzero(flags).tolist() == [
        r * 4 + u for r, adj in enumerate(worlds) for u in sorted(adj)]
    assert set(flags.tolist()) == {0, 2}
    assert _batch_worlds(net, _flat_keys(net, [], 3), 3) == [{}, {}, {}]


class _KeySet:
    """A flag byte per key held as a dict of the keys whose byte is not 0,
    for batches whose replications * n keys are too many for a flag
    array."""

    def __init__(self):
        self.bytes = {}

    def __getitem__(self, keys):
        keys = np.asarray(keys)
        return np.fromiter((self.bytes.get(k, 0) for k in keys.tolist()),
                           np.uint8, keys.size)

    def __setitem__(self, keys, values):
        keys = np.asarray(keys).ravel()
        values = np.broadcast_to(values, keys.shape).tolist()
        for k, b in zip(keys.tolist(), values):
            if b:
                self.bytes[k] = b
            else:
                self.bytes.pop(k, None)


def _flag_bytes(flags):
    """{key: byte} of every key whose flag byte is not 0."""
    if isinstance(flags, _KeySet):
        return dict(flags.bytes)
    keys = np.flatnonzero(flags)
    return dict(zip(keys.tolist(), flags[keys].tolist()))


def _check_flat_search(net, live, replications, worlds, nodes=None):
    """From each node's keys without bit 0, the flat search of the batch
    `worlds` of `live` reaches exactly the keys of the nodes `_reach`
    reaches from it in each reference dict world without entering a node
    whose bit 0 is set (so its count is their summed sizes), and it leaves
    every flag byte, both bits, as it found it."""
    n = net.node_count
    flags = worlds[2]
    adjs = _dict_worlds(net, live, replications)
    found = _flag_bytes(flags)
    excluded = {r: {w for ws in adjs[r].values() for w in ws
                    if flags[[r * n + w]][0] & 1}
                for r in set(live[0].tolist())}
    for v in range(n) if nodes is None else nodes:
        start = np.arange(v, replications * n, n)
        start = start[(flags[start] & 1) == 0]
        got = _flat_reach(worlds, start)
        want = set(start.tolist())
        for key in start[np.isin(start // n, live[0])].tolist():
            r = key // n
            want |= {r * n + w for w in _reach(adjs[r], v, excluded[r])}
        assert len(got) == len(want) and set(got.tolist()) == want, v
        assert _flag_bytes(flags) == found


def test_reach_stops_at_excluded_nodes():
    # one world: a flagged node stops the search as the reference's
    # excluded set does
    net = DicNetwork(5, (0.5,) * 5, tuple(
        (u, w, fixed_distribution(0.5))
        for u, w in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))), 1)
    live = (np.zeros(5, dtype=np.int64), np.arange(5))
    adj = _dict_worlds(net, live, 1)[0]
    assert _reach(adj, 0, ()) == {0, 1, 2, 3, 4}
    assert _reach(adj, 0, {3}) == {0, 1, 2}
    assert _reach(adj, 4, ()) == {4}
    for excluded in ((), (3,)):
        worlds = _flat_worlds(net, live, 1)
        worlds[2][list(excluded)] |= 1
        _check_flat_search(net, live, 1, worlds)
    assert sorted(_flat_reach(worlds, [0]).tolist()) == [0, 1, 2]


def test_a_greedy_prefers_the_hub():
    net = star_network(6, 0.9, activation=1.0, budget=1)
    x = sample_full(net, np.random.default_rng(14))
    policy = AGreedyPolicy(net, 400, np.random.default_rng(15))
    run = run_policy(net, policy, x)
    assert run.seeds == (0,)
    assert run.gain_evaluations == policy.gain_evaluations > 0


def test_a_greedy_waits_out_cascades():
    # adaptive rule: new seeds are only placed on observably quiescent states
    net = chain_network(5, 1.0, activation=1.0, budget=2)
    x = sample_full(net, np.random.default_rng(16))
    policy = AGreedyPolicy(net, 200, np.random.default_rng(17))
    run = run_policy(net, policy, x)
    # node 0 covers the whole chain, so one seed suffices and the second
    # decide finds no eligible node left
    assert run.seeds == (0,)
    assert run.spread == 5


class _ExhaustiveGreedy:
    """Adaptive greedy as an exhaustive argmax over the batch AGreedyPolicy
    draws from the same rng: bit 0 set on the active nodes' keys, every
    eligible candidate scored by `world_gain` at every decision, ties to the
    smallest id, and one gain evaluation counted per candidate scored."""

    def __init__(self, net, replications, rng, candidates=None):
        self.replications = replications
        self.rng = rng
        self.candidates = candidates
        self.worlds = None
        self.gain_evaluations = 0

    def decide(self, net, partial):
        if not observably_quiescent(net, partial):
            return EMPTY_COMMAND
        elig = _eligible_nodes(net, partial.active, self.candidates)
        if not elig:
            return None
        if self.worlds is None:
            self.worlds = sample_worlds(net, self.replications, self.rng)
        for u in partial.active:
            self.worlds[2][u::net.node_count] |= 1
        self.gain_evaluations += len(elig)
        gains = [world_gain(net, self.worlds, v) for v in elig]
        return frozenset({elig[gains.index(max(gains))]})


def test_celf_matches_exhaustive_argmax():
    # the lazy queue must reproduce the exhaustive argmax selections exactly
    for t in range(12):
        net = random_tiny_network(np.random.default_rng(300 + t),
                                  max_nodes=5, budget=3)
        x = sample_full(net, np.random.default_rng(400 + t))
        lazy = AGreedyPolicy(net, 150, np.random.default_rng(500 + t))
        full = _ExhaustiveGreedy(net, 150, np.random.default_rng(500 + t))
        run_lazy = run_policy(net, lazy, x)
        run_full = run_policy(net, full, x)
        assert run_lazy.seeds == run_full.seeds, f"instance {t}"
        assert run_lazy.spread == run_full.spread
        assert lazy.gain_evaluations <= full.gain_evaluations


def test_h_greedy_prune_symmetric_ring_keeps_everyone():
    edges = tuple((i, (i + 1) % 6, fixed_distribution(0.3)) for i in range(6))
    net = DicNetwork(6, (0.5,) * 6, edges, 2)
    candidates, stats = h_greedy_prune(net, 500, np.random.default_rng(18))
    assert candidates == frozenset(range(6))
    assert stats["pruned_fraction"] == 0.0
    assert len(stats["estimates"]) == 6
    assert stats["threshold"] == pytest.approx(stats["mean"] - stats["std"])


def test_h_greedy_prune_drops_low_activation_nodes():
    # edgeless network: estimates equal the activation probabilities exactly,
    # so the mean-minus-std rule prunes precisely the two weak nodes
    net = _edgeless(10, (1.0,) * 8 + (0.05, 0.05), 2)
    candidates, stats = h_greedy_prune(net, 50, np.random.default_rng(19))
    assert candidates == frozenset(range(8))
    assert stats["pruned_fraction"] == pytest.approx(0.2)


def test_a_greedy_candidates_restrict_seeds():
    net = _edgeless(10, (1.0,) * 8 + (0.05, 0.05), 2)
    candidates, stats = h_greedy_prune(net, 50, np.random.default_rng(20))
    policy = AGreedyPolicy(net, 100, np.random.default_rng(20),
                           candidates=candidates)
    assert policy.candidates == frozenset(range(8))
    assert stats["pruned_fraction"] == pytest.approx(0.2)
    x = sample_full(net, np.random.default_rng(21))
    run = run_policy(net, policy, x)
    assert set(run.seeds) <= policy.candidates


def test_h_greedy_prune_estimates_are_world_gains():
    # the prune scores each node by world_gain on worlds drawn from its rng
    net = star_network(4, 0.4, activation=0.7, budget=1)
    _, stats = h_greedy_prune(net, 300, np.random.default_rng(25))
    worlds = sample_worlds(net, 300, np.random.default_rng(25))
    assert stats["estimates"] == tuple(world_gain(net, worlds, v)
                                       for v in range(5))


def test_static_greedy_select_orders_by_activation():
    # edgeless: expected spread of a seed is just its activation probability
    net = _edgeless(4, (0.9, 0.5, 0.7, 0.3), 2)
    picked, evals = static_greedy_select(net, 2, 2000,
                                         np.random.default_rng(22))
    assert picked == [0, 2]
    assert evals >= 4


def test_static_greedy_select_tie_break_and_no_failure_mode():
    net = _edgeless(3, 1.0, 2)
    # activation 1.0: every seeding succeeds, so all three nodes tie
    picked, _ = static_greedy_select(net, 2, 50, np.random.default_rng(23))
    assert picked == [0, 1]


def test_static_greedy_select_takes_the_hub_first():
    net = star_network(5, 0.9, activation=1.0, budget=2)
    picked, _ = static_greedy_select(net, 2, 1000, np.random.default_rng(24))
    assert picked[0] == 0


def test_static_greedy_select_draws_in_blocks(monkeypatch):
    # blocks of one row of each grid, and of 7 rows of the live-edge grid,
    # continue one stream, so they give the worlds, success bits, picks and
    # evaluation count of a single draw
    net = generate_power_law(60, 400, 5, parse_preset("f3:0.2,0.5,0.9"), 4,
                             skew=1.0)
    want = static_greedy_select(net, 4, 50, np.random.default_rng(26))
    for draw_bytes in (1, 8 * 7 * len(net.edges)):
        monkeypatch.setattr(dicnet.strategies, "_DRAW_BYTES", draw_bytes)
        assert static_greedy_select(net, 4, 50,
                                    np.random.default_rng(26)) == want


def _run_checking_states(net, policy, x, check):
    """run_policy(net, policy, x), calling check(state) on every state the
    run reaches: before and after each round."""
    original = dicnet.diffusion.step_round

    def checked_step(state, cmd):
        check(state)
        state = original(state, cmd)
        check(state)
        return state

    with mock.patch.object(dicnet.diffusion, "step_round", checked_step):
        return run_policy(net, policy, x)


def _quiescent_by_trace(net, state) -> bool:
    """Quiescence read off the trace alone: every out-edge of an active node
    points into the active set or starts at a node that did not turn active
    in the last round, and so has made its one attempt."""
    last = set(state.trace[-1][3]) if state.trace else set()
    active = state.partial.active
    return all(w in active or u not in last
               for u in active for _, w in net.out_edges[u])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_observably_quiescent(seed):
    # at every state an a-greedy, a random and a static run reach, the flag
    # step_round keeps from the newly active nodes equals the trace's rule
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    static = rng.permutation(net.node_count)[:net.budget].tolist()

    def check(state):
        assert (observably_quiescent(net, state.partial)
                == _quiescent_by_trace(net, state))

    for policy in (AGreedyPolicy(net, 60, rng), RandomPolicy(rng),
                   StaticSeedListPolicy(static)):
        _run_checking_states(net, policy, sample_full(net, rng), check)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_world_gain_tracks_exact_gain_at_every_reached_state(seed):
    # at every state of an a-greedy run and of a random run that seeds
    # mid-cascade: the simulator's quiescence flag equals the trace's rule,
    # and the world estimate of each eligible node's gain is within its
    # Hoeffding half-width of the exact conditional gain
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=4, budget=2)
    replications, delta = 4000, 1e-6
    worlds = sample_worlds(net, replications, rng)
    hw = half_width(net.node_count, replications, delta)
    checked = []

    def check(state):
        active = state.partial.active
        assert state.partial.quiescent == _quiescent_by_trace(net, state)
        for v in range(net.node_count):
            if v in active:
                continue
            est = _gain(net, worlds, v, active)
            assert abs(est - exact_marginal_gain(net, active, v)) <= hw
        checked.append(len(state.trace))

    for policy in (AGreedyPolicy(net, 200, rng),
                   RandomPolicy(rng)):
        checked.clear()
        run = _run_checking_states(net, policy, sample_full(net, rng), check)
        assert checked and checked[-1] == run.rounds


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reach_totals_equal_world_gain_at_every_reached_state(seed):
    # the all-candidates kernel sums, for every node outside the active set
    # (bit 0 set on its keys), the reach _reach finds over the dict worlds
    # of the same batch, and world_gain turns it into the same float, at
    # every state an a-greedy run and a random run reach; weighted by
    # seeding successes it gives each node static greedy's first score
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    flat = sample_worlds(net, 60, rng)
    worlds = _batch_worlds(net, flat, 60)

    def check(state):
        active = state.partial.active
        totals = _totals(net, flat, 60, active)
        for v in range(net.node_count):
            if v in active:
                continue
            assert totals[v] == sum(len(_reach(adj, v, active))
                                    for adj in worlds)
            assert (net.activation[v] * totals[v] / len(worlds)
                    == _gain(net, flat, v, active))

    for policy in (AGreedyPolicy(net, 60, rng), RandomPolicy(rng)):
        _run_checking_states(net, policy, sample_full(net, rng), check)

    replications = 40
    live = np.nonzero(rng.random((replications, len(net.edges)))
                      < net.edge_arrays[2])
    success = (rng.random((replications, net.node_count))
               < np.array(net.activation))
    static_worlds = _dict_worlds(net, live, replications)
    totals = reach_totals(net, _flat_worlds(net, live, replications),
                          replications, weight=success)
    for v in range(net.node_count):
        evaluate = sum(len(_reach(static_worlds[r], v, set()))
                       for r in np.flatnonzero(success[:, v]).tolist())
        assert totals[v] == evaluate


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reach_totals_on_dense_worlds_with_cycles(seed):
    # random dense worlds have nested cycles, cross edges into finished
    # components and excluded nodes inside cycles, which tiny nets rarely do
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    net = DicNetwork(n, (1.0,) * n, tuple(
        (u, w, fixed_distribution(0.3))
        for u in range(n) for w in range(n) if u != w), 1)
    live = np.nonzero(rng.random((5, len(net.edges))) < 0.3)
    worlds = _dict_worlds(net, live, 5)
    excluded = {v for v in range(n) if rng.random() < 0.2}
    totals = _totals(net, _flat_worlds(net, live, 5), 5, excluded)
    for v in set(range(n)) - excluded:
        assert totals[v] == sum(len(_reach(adj, v, excluded))
                                for adj in worlds)


def _kernel_case(rng, shape):
    """(net, live arrays, replications) of one shape of worlds: `sparse`
    and `dense` draw random worlds of up to 40 nodes, several strongly
    connected components each; in `wide` every world has a ring through its
    65 to 160 nodes, and world 0 has all of it live, so its bitsets take
    more than one word.  Some worlds are left empty, the last one among
    them at times."""
    if shape == "wide":
        n = int(rng.integers(65, 161))
        ring = [(u, (u + 1) % n) for u in range(n)]
        chords = [(int(u), int(w)) for u, w in rng.integers(0, n, (2 * n, 2))
                  if u != w and w != (u + 1) % n]
        pairs = list(dict.fromkeys(ring + chords))
        p_live = 0.9
    else:
        n = int(rng.integers(1, 41))
        density = 0.15 if shape == "sparse" else 0.8
        pairs = [(u, w) for u in range(n) for w in range(n)
                 if u != w and rng.random() < density]
        p_live = 0.3
    net = DicNetwork(n, (0.5,) * n, tuple(
        (u, w, fixed_distribution(0.5)) for u, w in pairs), 1)
    replications = int(rng.integers(1, 13))
    live = rng.random((replications, len(pairs))) < p_live
    live[rng.random(replications) < 0.25] = False
    if shape == "wide":
        live[0, :n] = True
    return net, np.nonzero(live), replications


@pytest.mark.parametrize("shape", ["sparse", "dense", "wide"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reach_totals_match_reach_on_every_shape_of_world(shape, seed):
    # the kernel against _reach summed over the dict worlds of the same live
    # arrays, with excluded nodes (inside cycles too), without and with a
    # weight matrix; slices of one world and of all worlds give equal totals.
    # Then with keys flagged world by world, as static greedy's covered keys
    # are: against _reach with each world's excluded set, a flagged key
    # reaching itself alone
    rng = np.random.default_rng(seed)
    net, live, replications = _kernel_case(rng, shape)
    n = net.node_count
    worlds = _dict_worlds(net, live, replications)
    flat = _flat_worlds(net, live, replications)
    excluded = frozenset(v for v in range(n) if rng.random() < 0.2)
    weight = rng.integers(0, 4, (replications, n))
    for w in (None, weight):
        want = [sum((1 if w is None else int(w[r, v]))
                    * len(_reach(adj, v, excluded))
                    for r, adj in enumerate(worlds))
                for v in range(n)]
        for slice_edges in (1, 1 << 20):
            with mock.patch.object(dicnet.strategies, "_REACH_SLICE",
                                   slice_edges):
                totals = _totals(net, flat, replications, excluded, w)
            assert [t for v, t in enumerate(totals) if v not in excluded] \
                == [t for v, t in enumerate(want) if v not in excluded]
    covered = [{v for v in range(n) if rng.random() < 0.2}
               for _ in range(replications)]
    for r, nodes in enumerate(covered):
        flat[2][[r * n + v for v in nodes]] |= 1
    for w in (None, weight):
        want = [sum((1 if w is None else int(w[r, v]))
                    * (1 if v in covered[r]
                       else len(_reach(adj, v, covered[r])))
                    for r, adj in enumerate(worlds))
                for v in range(n)]
        for slice_edges in (1, 1 << 20):
            with mock.patch.object(dicnet.strategies, "_REACH_SLICE",
                                   slice_edges):
                assert reach_totals(net, flat, replications, w) == want


@pytest.mark.parametrize("shape", ["sparse", "dense", "wide", "past-int32"])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_flat_search_matches_reach_on_every_shape_of_world(shape, seed):
    # the search from every node against _reach over the dict worlds of the
    # same live arrays: with nothing flagged, with active nodes flagged in
    # every world, and with covered keys flagged world by world.  In
    # `past-int32` a sparse case's worlds and nodes are the last ones of a
    # batch of replications * n >= 2**31 keys, which need int64; its flags
    # are a `_KeySet`, so no replications * n array is allocated
    rng = np.random.default_rng(seed)
    net, live, replications, checked = _flat_case(rng, shape)
    n = net.node_count
    worlds = _flat_worlds(net, live, replications)
    flags = worlds[2]
    _check_flat_search(net, live, replications, worlds, checked)
    active = checked[rng.random(len(checked)) < 0.2]
    flags[np.add.outer(np.arange(replications) * n, active).ravel()] |= 1
    _check_flat_search(net, live, replications, worlds, checked)
    keys = np.add.outer(np.unique(live[0]) * n, checked).ravel()
    flags[keys[rng.random(len(keys)) < 0.2]] |= 1
    _check_flat_search(net, live, replications, worlds, checked)


def _flat_case(rng, shape):
    """`_kernel_case` of `shape` with the nodes to check; `past-int32` moves
    a sparse case's worlds and nodes to the end of a batch of
    replications * n >= 2**31 keys."""
    net, live, replications = _kernel_case(
        rng, "sparse" if shape == "past-int32" else shape)
    n = nodes = net.node_count
    if shape == "past-int32":
        shift, n = 2 ** 21 - nodes, 2 ** 21
        net = DicNetwork(n, (0.5,) * n, tuple(
            (u + shift, w + shift, law) for u, w, law in net.edges), 1)
        live = (live[0] + 2 ** 10, live[1])
        replications += 2 ** 10
    return net, live, replications, np.arange(n - nodes, n)


@pytest.mark.parametrize("shape", ["sparse", "dense", "wide", "past-int32"])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_flat_keys_mark_the_keys_with_a_live_out_edge(shape, seed):
    # a new batch's flag bytes have bit 1 on exactly the keys of tail (the
    # keys with a live out-edge) and bit 0 on none
    net, live, replications, _ = _flat_case(np.random.default_rng(seed), shape)
    tail, _, flags = _flat_worlds(net, live, replications)
    assert _flag_bytes(flags) == dict.fromkeys(tail.tolist(), 2)


class _ReferenceGreedy:
    """Adaptive greedy as an exhaustive argmax, ties to the smallest id, of
    each eligible node's gain summed by `_reach` over the reference dict
    worlds of the batch AGreedyPolicy draws from the same rng."""

    def __init__(self, replications, rng):
        self.replications = replications
        self.rng = rng
        self.worlds = None

    def decide(self, net, partial):
        if not partial.quiescent:
            return EMPTY_COMMAND
        elig = _eligible_nodes(net, partial.active)
        if not elig:
            return None
        reps = self.replications
        if self.worlds is None:
            self.worlds = _batch_worlds(
                net, sample_worlds(net, reps, self.rng), reps)

        def gain(v):
            total = sum(len(_reach(adj, v, partial.active))
                        for adj in self.worlds)
            return net.activation[v] * total / reps

        return frozenset({max(elig, key=gain)})


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_lazy_queues_match_exhaustive_argmax(seed):
    # the lazy-forward queue re-scores every stale entry before trusting
    # it, so both greedy selections equal an exhaustive argmax on the same
    # worlds, ties to the smallest id; a-greedy's flags condition each gain
    # on the active set as the reference's excluded set does
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    draw = int(rng.integers(2 ** 32))
    x = sample_full(net, rng)
    lazy = AGreedyPolicy(net, 60, np.random.default_rng(draw))
    full = _ExhaustiveGreedy(net, 60, np.random.default_rng(draw))
    reference = _ReferenceGreedy(60, np.random.default_rng(draw))
    trace = run_policy(net, reference, x).trace
    assert run_policy(net, lazy, x).trace == trace
    assert run_policy(net, full, x).trace == trace

    # static greedy: rebuild its live edges and seeding successes from the
    # same draws, then pick the node whose addition covers the most
    replications = 40
    picked, _ = static_greedy_select(net, net.budget, replications,
                                     np.random.default_rng(draw))
    gen = np.random.default_rng(draw)
    live = gen.random((replications, len(net.edges))) < net.edge_arrays[2]
    success = (gen.random((replications, net.node_count))
               < np.array(net.activation))

    def covered(seeds):
        total = 0
        for r in range(replications):
            reached = {v for v in seeds if success[r, v]}
            stack = list(reached)
            while stack:
                for e, w in net.out_edges[stack.pop()]:
                    if live[r, e] and w not in reached:
                        reached.add(w)
                        stack.append(w)
            total += len(reached)
        return total

    expected: list[int] = []
    for _ in range(net.budget):
        totals = [-1 if v in expected else covered(expected + [v])
                  for v in range(net.node_count)]
        expected.append(totals.index(max(totals)))
    assert picked == expected


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2 ** 5 - 1))
def test_h_greedy_queue_matches_exhaustive_argmax_on_candidates(seed, mask):
    # h-greedy's rule: the lazy queue over a candidate subset picks what an
    # exhaustive argmax over the same subset and worlds picks, with no more
    # gain evaluations
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    candidates = [v for v in range(net.node_count) if mask >> v & 1]
    assume(candidates)
    draw = int(rng.integers(2 ** 32))
    x = sample_full(net, rng)
    lazy = AGreedyPolicy(net, 60, np.random.default_rng(draw),
                         candidates=candidates)
    full = _ExhaustiveGreedy(net, 60, np.random.default_rng(draw),
                             candidates=candidates)
    assert run_policy(net, lazy, x).trace == run_policy(net, full, x).trace
    assert lazy.gain_evaluations <= full.gain_evaluations


def _first_decisions(net, x, seeds, replications, draw):
    """The decisions of a fresh CELF a-greedy, a fresh `_ExhaustiveGreedy`
    and the reference, each on rng `draw`, at the quiescent state that
    seeding `seeds` on x and draining the cascade leaves; and that state's
    active set."""
    state = start(net, x)
    step_round(state, frozenset(seeds))
    partial = run_to_quiescence(state).partial
    return [policy.decide(net, partial) for policy in (
        AGreedyPolicy(net, replications, np.random.default_rng(draw)),
        _ExhaustiveGreedy(net, replications, np.random.default_rng(draw)),
        _ReferenceGreedy(replications, np.random.default_rng(draw)))
    ], partial.active


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_a_greedy_first_decision_with_nodes_already_active(seed):
    # a fresh policy handed a mid-run state flags the active nodes before
    # its first fill, so the CELF heap's first scores are conditioned on
    # them: both queues pick what the reference picks on the same worlds, on
    # random nets of three edge means whose seeds always succeed
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    net = DicNetwork(n, (0.5,) * n, tuple(
        (u, w, _MIXED_LAWS[1 + int(rng.integers(3))])
        for u in range(n) for w in range(n)
        if u != w and rng.random() < 0.3), 3)
    x = sample_full(net, rng)
    x = FullRealization(bytes([1]) * len(x.seed_bits), x.success)
    seeds = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
    (lazy, full, want), active = _first_decisions(
        net, x, seeds.tolist(), 40, int(rng.integers(2 ** 32)))
    assert active
    assert lazy == full == want


def test_a_greedy_first_decision_on_a_power_law_net():
    # the same on a 300-node net whose three first hubs were seeded, where a
    # first fill that ignored the active nodes would rank another node first
    net = generate_power_law(300, 3000, 5, parse_preset("f1:0.05"), 3)
    x = sample_full(net, np.random.default_rng(27))
    x = FullRealization(bytes([1]) * len(x.seed_bits), x.success)
    (lazy, full, want), active = _first_decisions(net, x, range(3), 30, 28)
    assert lazy == full == want
    totals = reach_totals(
        net, sample_worlds(net, 30, np.random.default_rng(28)), 30)
    elig = [v for v in range(net.node_count) if v not in active]
    assert want != frozenset({max(elig, key=totals.__getitem__)})


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_a_greedy_flag_bytes_keep_both_bits(seed):
    # after every decision, a-greedy's flag bytes carry bit 1 on exactly the
    # keys of tail and bit 0 on exactly the columns of the nodes it has
    # flagged, which are active: flagging a node keeps its bit 1
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    n = net.node_count
    policy = AGreedyPolicy(net, 30, rng)
    decide, decisions = policy.decide, []

    def checked(net, partial):
        command = decide(net, partial)
        if policy._worlds is not None:
            tail, _, flags = policy._worlds
            want = np.zeros(len(flags), dtype=np.uint8)
            want[tail] = 2
            want.reshape(-1, n)[:, sorted(policy._flagged)] |= 1
            assert policy._flagged <= partial.active
            assert flags.tolist() == want.tolist()
            decisions.append(command)
        return command

    policy.decide = checked
    run_policy(net, policy, sample_full(net, rng))
    assert decisions


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_runs_keep_limits_and_ignore_unobserved_coordinates(seed):
    # run_policy alone keeps a policy within the budget, and so each node
    # within its attempt vector; and a run reads only what it observed, so
    # redrawing the seed bits past those it used and every edge out of a
    # node it never activated leaves the whole run unchanged
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    x, y = sample_full(net, rng), sample_full(net, rng)
    draw = int(rng.integers(2 ** 32))
    order = [int(v) for v in rng.permutation(net.node_count)]
    for make in (lambda: RandomPolicy(np.random.default_rng(draw)),
                 lambda: AGreedyPolicy(net, 50, np.random.default_rng(draw)),
                 lambda: StaticSeedListPolicy(order)):
        run = run_policy(net, make(), x)
        used = Counter(run.seeds)
        assert len(run.seeds) <= net.budget
        assert all(k <= net.budget for k in used.values())
        active = {v for _, _, _, newly in run.trace for v in newly}
        assert run.spread == len(active)
        b = net.budget
        z = FullRealization(
            bytes((x if j < used[v] else y).seed_bits[v * b + j]
                  for v in range(net.node_count) for j in range(b)),
            bytes((x if u in active else y).success[e]
                  for e, (u, _, _) in enumerate(net.edges)))
        assert run_policy(net, make(), z) == run
