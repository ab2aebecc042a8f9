"""Round semantics, command validation, and live-edge spread counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicnet.diffusion import (EMPTY_COMMAND, InvalidCommand, run_policy,
                              run_to_quiescence, spread_count, start,
                              step_round)
from dicnet.fixtures import fixture_g1, random_tiny_network
from dicnet.realization import FullRealization, sample_full
from dicnet.strategies import AGreedyPolicy, RandomPolicy, StaticSeedListPolicy


def _g1_realization(seed_bits, edge_bits):
    """Hand-built realization for the 6-chain: seed_bits[v] is the length-3
    attempt vector, edge_bits[e] the attempt success."""
    return FullRealization(bytes(bit for bits in seed_bits for bit in bits),
                           bytes(edge_bits))


ALL_FAIL = _g1_realization([(0, 0, 0)] * 6, (0, 0, 0, 0, 0))
ALL_PASS = _g1_realization([(1, 1, 1)] * 6, (1, 1, 1, 1, 1))


def test_start_state():
    net = fixture_g1()
    s = start(net, ALL_PASS)
    assert s.budget_used == 0 and s.partial.quiescent and s.frontier == set()
    assert s.partial.active == set()


def test_full_chain_cascade_trace():
    # seed node 0 successfully; live chain carries it to all six nodes,
    # one hop per round
    net = fixture_g1()
    s = start(net, ALL_PASS)
    step_round(s, frozenset({0}))
    assert s.partial.active == {0}
    assert s.frontier == {0}
    assert not s.partial.quiescent
    assert s.used[0] == 1
    for k in range(1, 6):
        step_round(s, EMPTY_COMMAND)
        assert s.partial.active == set(range(k + 1))
    assert s.partial.quiescent
    assert len(s.trace) == 6


def test_failed_seed_is_observed_and_consumes_attempt():
    net = fixture_g1()
    s = start(net, ALL_FAIL)
    step_round(s, frozenset({2}))
    assert s.partial.active == set()
    assert s.used[2] == 1
    assert s.budget_used == 1
    assert s.partial.quiescent              # nothing is pending


def test_simultaneous_seed_and_propagation():
    # second round seeds node 3 while node 0's frontier fires edge 0->1
    net = fixture_g1()
    x = _g1_realization([(1, 0, 0), (0,) * 3, (0,) * 3, (1, 0, 0),
                         (0,) * 3, (0,) * 3], (1, 0, 0, 1, 0))
    s = start(net, x)
    step_round(s, frozenset({0}))
    step_round(s, frozenset({3}))
    assert s.partial.active == {0, 1, 3}
    assert s.frontier == {1, 3}
    # round 3: edge 1->2 fails, 3->4 succeeds
    step_round(s, EMPTY_COMMAND)
    assert s.partial.active == {0, 1, 3, 4}
    run_to_quiescence(s)
    assert s.partial.active == {0, 1, 3, 4}


def test_null_round_rejected_only_when_quiescent():
    net = fixture_g1()
    s = start(net, ALL_PASS)
    with pytest.raises(InvalidCommand):
        step_round(s, EMPTY_COMMAND)        # round 0 is quiescent
    step_round(s, frozenset({0}))
    step_round(s, EMPTY_COMMAND)            # fine: edge 0->1 is pending
    run_to_quiescence(s)
    with pytest.raises(InvalidCommand):
        step_round(s, EMPTY_COMMAND)


def test_seeding_active_node_rejected():
    net = fixture_g1()
    s = start(net, ALL_PASS)
    step_round(s, frozenset({0}))
    with pytest.raises(InvalidCommand):
        step_round(s, frozenset({0}))


def test_attempt_exhaustion_and_budget():
    net = fixture_g1()
    s = start(net, ALL_FAIL)
    step_round(s, frozenset({1}))
    step_round(s, frozenset({1}))
    step_round(s, frozenset({1}))
    assert s.budget_used == 3 and s.used[1] == 3
    # a fourth attempt on node 1 would read past its attempt vector; the
    # budget, spent on its three failures, refuses it first
    with pytest.raises(InvalidCommand, match="budget exceeded"):
        step_round(s, frozenset({1}))
    s2 = start(net, ALL_FAIL)
    step_round(s2, frozenset({0, 1}))
    with pytest.raises(InvalidCommand):     # global budget: 2 used, 2 asked
        step_round(s2, frozenset({2, 3}))


def test_spread_count_hand_cases():
    net = fixture_g1()
    x = _g1_realization([(1, 0, 0)] * 6, (1, 1, 0, 1, 1))
    # root 0 reaches {0,1,2}; edge 2->3 is dead
    assert spread_count(net, x, [0]) == 3
    assert spread_count(net, x, [3]) == 3     # {3,4,5}
    assert spread_count(net, x, [0, 3]) == 6
    assert spread_count(net, x, [1]) == 2     # {1,2}
    # first attempt fails, second succeeds: multiplicity matters
    x2 = _g1_realization([(0, 1, 0)] * 6, (1, 1, 1, 1, 1))
    assert spread_count(net, x2, [0]) == 0
    assert spread_count(net, x2, [0, 0]) == 6
    with pytest.raises(InvalidCommand):
        spread_count(net, x, [0, 1, 2, 3])    # budget 3
    with pytest.raises(InvalidCommand):
        spread_count(net, _g1_realization([(1, 1, 1)] * 6, (1,) * 5), [0] * 4)


def test_policy_sees_only_the_partial_observation():
    # the simulator must hand policies the observable partial realization,
    # never the latent full realization
    from dicnet.realization import PartialRealization

    observed = []

    class Probe:
        def decide(self, net, partial):
            observed.append(partial)
            if len(observed) == 1:
                return frozenset({0})
            return None

    net = fixture_g1()
    run_policy(net, Probe(), ALL_PASS)
    assert observed
    for partial in observed:
        assert isinstance(partial, PartialRealization)
        # no attribute of the observation exposes latent coordinates
        assert not any(isinstance(v, FullRealization)
                       for v in vars(partial).values())


def test_run_policy_matches_spread_count():
    # the static policy plays its whole list in one opening step
    net = fixture_g1()
    x = _g1_realization([(1, 0, 0), (0,) * 3, (0,) * 3, (0, 0, 0),
                         (0,) * 3, (0,) * 3], (1, 0, 1, 1, 1))
    run = run_policy(net, StaticSeedListPolicy([0, 3]), x)
    assert run.seeds == (0, 3)
    assert run.spread == spread_count(net, x, [0, 3])
    assert run.spread == 2                  # node 3's seeding fails; {0,1}
    assert run.gain_evaluations == 0
    # trace rows are (round, seeded, outcomes, newly_active)
    assert run.trace[0] == (1, (0, 3), (1, 0), (0,))
    assert run.trace[1] == (2, (), (), (1,))


class _Script:
    """Plays a fixed list of commands, then stops."""

    def __init__(self, commands):
        self.commands = list(commands)

    def decide(self, net, partial):
        return self.commands.pop(0) if self.commands else None


def test_step_round_records_the_trace_run_policy_returns():
    # seed 0, wait a round, seed 3 and 5 (5 fails) while 1 -> 2 fires, drain
    net = fixture_g1()
    x = _g1_realization([(1, 0, 0), (0,) * 3, (0,) * 3, (1, 0, 0),
                         (0,) * 3, (0,) * 3], (1, 1, 0, 1, 0))
    commands = [frozenset({0}), EMPTY_COMMAND, frozenset({5, 3})]
    s = start(net, x)
    for cmd in commands:
        step_round(s, cmd)
    run_to_quiescence(s)
    assert s.trace == [(1, (0,), (1,), (0,)), (2, (), (), (1,)),
                       (3, (3, 5), (1, 0), (2, 3)), (4, (), (), (4,)),
                       (5, (), (), ())]
    run = run_policy(net, _Script(commands), x)
    assert run.trace == s.trace
    assert run.seeds == tuple(v for _, seeded, _, _ in s.trace
                              for v in seeded) == (0, 3, 5)
    assert run.rounds == 5 and run.spread == len(s.partial.active) == 5


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_drained_spread_after_c_seeds_is_spread_count_of_the_prefix(seed):
    # each edge gets one attempt, so stopping a run after its c-th seed and
    # draining it reaches the live-edge closure of those c seeding attempts:
    # one run gives every budget checkpoint, as criterion 6 reads them
    rng = np.random.default_rng(seed)
    net = random_tiny_network(rng, max_nodes=5, budget=3)
    x = sample_full(net, rng)
    for policy in (RandomPolicy(rng), AGreedyPolicy(net, 30, rng)):
        run = run_policy(net, policy, x)
        for c in range(net.budget + 1):
            commands, played = [], 0
            for _, seeded, _, _ in run.trace:
                if played >= c:
                    break
                commands.append(frozenset(seeded))
                played += len(seeded)
            prefix = run_policy(net, _Script(commands), x)
            assert prefix.seeds == run.seeds[:c]
            assert prefix.spread == spread_count(net, x, run.seeds[:c])
