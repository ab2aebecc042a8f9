"""Prior sampling, partial realizations and likelihoods."""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicnet.data import generate_power_law, parse_preset
from dicnet.fixtures import (TWO_POINT, fixture_g1, random_tiny_network,
                             two_node_fixture)
from dicnet.model import (DicNetwork, fixed_distribution,
                          quantize_exponential)
from dicnet.realization import (FullRealization, PartialRealization,
                                log_probability, sample_full)


def _sample_full_reference(net, rng):
    # the coordinate-by-coordinate mapping of one draw: a seed bit per
    # (node, attempt), then per edge a bisect over its law's cumulative
    # masses and the attempt's success bit
    n, b = net.node_count, net.budget
    m = len(net.edges)
    u = rng.random(n * b + 2 * m).tolist()
    seeds = bytes(u[v * b + j] < net.activation[v]
                  for v in range(n) for j in range(b))
    success = []
    for e, (_, _, dist) in enumerate(net.edges):
        k = bisect_left(dist.cum_masses, u[n * b + e])
        value = dist.values[min(k, len(dist.values) - 1)]
        success.append(u[n * b + m + e] < value)
    return FullRealization(seeds, bytes(success))


def test_empty_partial_shape():
    # the observation is the active set and the quiescence flag, nothing more
    y = PartialRealization()
    assert vars(y) == {"active": set(), "quiescent": True}


def test_sample_full_shapes_and_determinism():
    net = fixture_g1()
    x1 = sample_full(net, np.random.default_rng(3))
    x2 = sample_full(net, np.random.default_rng(3))
    assert x1 == x2
    assert type(x1.seed_bits) is bytes and type(x1.success) is bytes
    assert len(x1.seed_bits) == 6 * 3           # node-major, B = 3
    assert set(x1.seed_bits) <= {0, 1}
    assert len(x1.success) == 5
    assert set(x1.success) <= {0, 1}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(
    ["tiny", "shared", "f1:0.3", "f2:0.2,4", "f2:3.0,6", "f3:0.1,0.5,0.9"]))
def test_sample_full_equals_the_reference_mapping(seed, kind):
    # the (law, draw)-keyed searchsorted mapping gives the same bits as the
    # coordinate-by-coordinate bisect: on tiny nets (a law object per edge),
    # on small generated nets of each preset family (one law) and on
    # generated nets whose edges share laws in mixed order
    rng = np.random.default_rng(seed)
    if kind == "tiny":
        net = random_tiny_network(rng, max_nodes=5, budget=3)
    else:
        n = int(rng.integers(2, 16))
        pairs = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        preset = "f1:0.3" if kind == "shared" else kind
        net = generate_power_law(n, 2 * pairs, seed, parse_preset(preset),
                                 int(rng.integers(1, n + 1)), skew=1.0)
    if kind == "shared":
        pool = (TWO_POINT, fixed_distribution(0.4), quantize_exponential(0.3, 5))
        net = DicNetwork(net.node_count, net.activation,
                         tuple((a, b, pool[int(rng.integers(3))])
                               for a, b, _ in net.edges), net.budget)
    for draw in range(3):
        got = sample_full(net, np.random.default_rng([seed, draw]))
        want = _sample_full_reference(net, np.random.default_rng([seed, draw]))
        assert got == want and repr(got) == repr(want)


def test_sample_full_marginal_laws():
    # empirical frequencies of each coordinate match the model within 3 sigma
    net = fixture_g1()
    rng = np.random.default_rng(11)
    reps = 20000
    seed_hits = 0
    edge_hits = 0
    for _ in range(reps):
        x = sample_full(net, rng)
        seed_hits += x.seed_bits[2 * 3 + 1]    # node 2, second attempt
        edge_hits += x.success[3]
    assert seed_hits / reps == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(reps))
    # an edge succeeds with its law's mean: 0.8 * 0.4 + 0.2 * 0.8
    assert edge_hits / reps == pytest.approx(0.48, abs=3 * 0.5 / math.sqrt(reps))


def test_log_probability_hand_values():
    net = two_node_fixture()  # activation 1.0, budget 1, edge TWO_POINT
    # P = 1 * 1 * (0.8 * 0.4 + 0.2 * 0.8): the edge succeeds with its mean
    x = FullRealization(bytes([1, 1]), bytes([1]))
    assert log_probability(net, x) == pytest.approx(math.log(0.48))
    x = FullRealization(bytes([1, 1]), bytes([0]))
    assert log_probability(net, x) == pytest.approx(math.log(0.52))
    # zero-probability coordinate: seeding failure under activation 1.0
    x = FullRealization(bytes([0, 1]), bytes([1]))
    assert log_probability(net, x) == float("-inf")


def test_log_probability_sums_to_one_over_support():
    # every realization of a 2-node net at budget 1
    net = DicNetwork(2, (0.3, 0.6), ((0, 1, TWO_POINT),), 1)
    total = 0.0
    for s0 in (0, 1):
        for s1 in (0, 1):
            for succ in (0, 1):
                x = FullRealization(bytes([s0, s1]), bytes([succ]))
                total += math.exp(log_probability(net, x))
    assert total == pytest.approx(1.0, abs=1e-12)
