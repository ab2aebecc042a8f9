"""Prior sampling, partial realizations and likelihoods."""

import math

import numpy as np
import pytest

from dicnet.fixtures import TWO_POINT, fixture_g1, two_node_fixture
from dicnet.model import DicNetwork
from dicnet.realization import (FullRealization, empty_partial, probability_of,
                                sample_full)


def test_empty_partial_shape():
    net = fixture_g1()
    y = empty_partial(net)
    assert y.active == set()
    assert y.attempts == [[] for _ in range(6)]
    assert y.revealed_draws == {}
    assert y.resolved_attempts == {}
    assert y.round_index == 0


def test_partial_copy_is_deep():
    net = fixture_g1()
    y = empty_partial(net)
    z = y.copy()
    z.active.add(0)
    z.attempts[0].append(1)
    z.revealed_draws[0] = 0.4
    assert y.active == set() and y.attempts[0] == [] and y.revealed_draws == {}


def test_sample_full_shapes_and_determinism():
    net = fixture_g1()
    x1 = sample_full(net, np.random.default_rng(3))
    x2 = sample_full(net, np.random.default_rng(3))
    assert x1 == x2
    assert len(x1.seed_outcomes) == 6
    assert all(len(row) == 3 for row in x1.seed_outcomes)
    assert len(x1.edge_draws) == 5
    for value, success in x1.edge_draws:
        assert value in (0.4, 0.8)
        assert success in (0, 1)


def test_sample_full_marginal_laws():
    # empirical frequencies of each coordinate match the model within 3 sigma
    net = fixture_g1()
    rng = np.random.default_rng(11)
    reps = 20000
    seed_hits = 0
    draw_hi = 0
    succ_given_lo = [0, 0]
    for _ in range(reps):
        x = sample_full(net, rng)
        seed_hits += x.seed_outcomes[2][1]
        value, success = x.edge_draws[3]
        draw_hi += value == 0.8
        if value == 0.4:
            succ_given_lo[0] += 1
            succ_given_lo[1] += success
    assert seed_hits / reps == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(reps))
    assert draw_hi / reps == pytest.approx(0.2, abs=3 * 0.4 / math.sqrt(reps))
    assert succ_given_lo[1] / succ_given_lo[0] == pytest.approx(
        0.4, abs=3 * 0.5 / math.sqrt(succ_given_lo[0]))


def test_probability_of_hand_values():
    net = two_node_fixture()  # activation 1.0, budget 1, edge TWO_POINT
    x = FullRealization(((1,), (1,)), (((0.4, 1)),))
    # P = 1 * 1 * 0.8 * 0.4
    assert probability_of(net, x) == pytest.approx(math.log(0.8 * 0.4))
    x = FullRealization(((1,), (1,)), ((0.8, 0),))
    assert probability_of(net, x) == pytest.approx(math.log(0.2 * 0.2))
    # zero-probability coordinate: seeding failure under activation 1.0
    x = FullRealization(((0,), (1,)), ((0.4, 1),))
    assert probability_of(net, x) == float("-inf")
    # unsupported draw value
    x = FullRealization(((1,), (1,)), ((0.5, 1),))
    with pytest.raises(ValueError):
        probability_of(net, x)


def test_probability_of_sums_to_one_over_support():
    # all realizations of a 1-node, 1-edgeless... use a 2-node net, budget 1
    net = DicNetwork(2, (0.3, 0.6), ((0, 1, TWO_POINT),), 1)
    total = 0.0
    for s0 in (0, 1):
        for s1 in (0, 1):
            for value in (0.4, 0.8):
                for succ in (0, 1):
                    x = FullRealization(((s0,), (s1,)), ((value, succ),))
                    total += math.exp(probability_of(net, x))
    assert total == pytest.approx(1.0, abs=1e-12)
