"""Exact enumeration machinery and backward-induction value pins.

Key constants are frozen from hand calculations:

* two-node instance, certain seeding: value 1 + 0.48 = 1.48.
* three-node chain, activation 0.5, two-point edges, budget 2, both seeds
  in the opening step (best pair {0,1}):
  0.25*(0 + 1.48 + (1 + 0.48 + 0.48^2) + 2.48) = 1.4176.
"""

import dataclasses
import hashlib
import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dicnet.diffusion import run_policy
from dicnet.estimator import substream
from dicnet.fixtures import (TWO_POINT, chain_network, fixture_g1,
                             random_tiny_network, star_network,
                             two_node_fixture)
from dicnet.model import DicNetwork
from dicnet.oracle import (EnumerationGuard, ExactGainPolicy, _check_guard,
                           _exact_argmax, _pattern_moves, build_auxiliary,
                           check_properties, enumerate_realizations,
                           enumerate_schedules, exact_marginal_gain,
                           exact_policy_value, greedy_adaptive_value,
                           optimal_adaptive_value, realization_count)
from dicnet.realization import log_probability
from dicnet.strategies import StaticSeedListPolicy, _eligible_nodes


def _three_path():
    edges = ((0, 1, TWO_POINT), (1, 2, TWO_POINT))
    return DicNetwork(3, (0.5,) * 3, edges, 2)


def _edgeless(n, activation, budget):
    return DicNetwork(n, tuple(activation), (), budget)


def test_auxiliary_graph_counts():
    aux = build_auxiliary(fixture_g1())          # 6 nodes, budget 3
    assert aux.node_count == 24                  # 6 core + 18 attempt nodes
    assert len(aux.attempt_edges) == 18
    assert len(aux.value_edges) == 10            # 5 edges x 2 support atoms
    assert aux.attempt_edges[0] == ((0, 0), 0)
    src, dst, k, value, mass = aux.value_edges[0]
    assert (src, dst, k, value, mass) == (0, 1, 0, 0.4, 0.8)
    tiny = build_auxiliary(_edgeless(1, (0.7,), 1))
    assert tiny.node_count == 2
    assert len(tiny.attempt_edges) == 1
    assert len(tiny.value_edges) == 0


def test_realization_count():
    assert realization_count(dataclasses.replace(fixture_g1(), budget=1)) == 65536
    assert realization_count(two_node_fixture()) == 16
    assert realization_count(_edgeless(1, (0.5,), 1)) == 2


def test_enumeration_masses_sum_to_one():
    net = two_node_fixture()
    items = list(enumerate_realizations(net))
    assert len(items) == 16
    assert math.fsum(p for _, p in items) == pytest.approx(1.0, abs=1e-12)
    # the branches of one edge's values with the same success bit yield
    # equal realizations: the likelihood of each distinct realization is
    # the sum of its branches' probabilities
    mass: dict = {}
    for x, p in items:
        mass[x] = mass.get(x, 0.0) + p
    for x, p in mass.items():
        want = math.log(p) if p > 0.0 else float("-inf")
        assert want == pytest.approx(log_probability(net, x))
    # activation 1.0 zeroes every seed-failure branch: only the four edge
    # branches (two values x success bit) carry mass, and they yield the
    # two success bits
    assert sum(1 for _, p in items if p > 0.0) == 4
    assert sum(1 for p in mass.values() if p > 0.0) == 2


def test_enumeration_guard_triggers():
    big = chain_network(30, 0.5, activation=0.5, budget=2)
    with pytest.raises(EnumerationGuard):
        list(enumerate_realizations(big))
    with pytest.raises(EnumerationGuard):
        optimal_adaptive_value(big, "adaptive")


def test_exact_policy_value_two_node():
    net = two_node_fixture()
    val = exact_policy_value(net, lambda: StaticSeedListPolicy([0]))
    assert val == pytest.approx(1.48, abs=1e-12)
    val = exact_policy_value(net, lambda: StaticSeedListPolicy([1]))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_exact_marginal_gain():
    net = two_node_fixture()
    assert exact_marginal_gain(net, set(), 0) == pytest.approx(1.48, abs=1e-12)
    assert exact_marginal_gain(net, set(), 1) == pytest.approx(1.0, abs=1e-12)
    assert exact_marginal_gain(net, {1}, 0) == pytest.approx(1.0, abs=1e-12)


def test_exact_marginal_gain_edge_guard():
    # the gain's guard is the engine's one guard: the message names the
    # realization count it checked
    net = star_network(25, 0.5)
    with pytest.raises(EnumerationGuard) as exc:
        exact_marginal_gain(net, set(), 0)
    assert exc.value.count == realization_count(net)


def _reference_gain(net, active, v):
    """v's activation probability times its expected reach among inactive
    nodes, by enumerating every live subset of the edges it could reach,
    with a breadth-first search in each: the reference for the belief
    engine's gains."""
    relevant = []
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for eidx, w in net.out_edges[u]:
            if w in active:
                continue
            relevant.append(eidx)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    k = len(relevant)
    means = net.edge_arrays[2][relevant].tolist()
    expected = 0.0
    for mask in range(2 ** k):
        prob = 1.0
        live = set()
        for i in range(k):
            if mask >> i & 1:
                prob *= means[i]
                live.add(relevant[i])
            else:
                prob *= 1.0 - means[i]
        if prob == 0.0:
            continue
        reach = {v}
        queue = deque((v,))
        while queue:
            u = queue.popleft()
            for eidx, w in net.out_edges[u]:
                if eidx in live and w not in reach and w not in active:
                    reach.add(w)
                    queue.append(w)
        expected += prob * len(reach)
    return net.activation[v] * expected


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gain_matches_the_live_subset_reference(seed):
    # the belief engine's drained cascade against the live-edge reach, at
    # every active set and every eligible node
    net = random_tiny_network(np.random.default_rng(seed), max_nodes=5,
                              budget=3)
    for r in range(net.node_count + 1):
        for active in itertools.combinations(range(net.node_count), r):
            for v in _eligible_nodes(net, active):
                assert abs(exact_marginal_gain(net, active, v)
                           - _reference_gain(net, set(active), v)) <= 1e-12


def test_adaptive_value_simple_instances():
    assert optimal_adaptive_value(_edgeless(1, (0.7,), 1),
                                  "adaptive") == pytest.approx(0.7)
    # budget 1 on an edgeless pair: pick the stronger node
    assert optimal_adaptive_value(_edgeless(2, (0.9, 0.1), 1),
                                  "adaptive") == pytest.approx(0.9)
    # budget 2: seed the strong node, then on success take the weak one and
    # on failure retry the strong one: 0.9*(1 + 0.1) + 0.1*0.9 = 1.08
    assert optimal_adaptive_value(_edgeless(2, (0.9, 0.1), 2),
                                  "adaptive") == pytest.approx(1.08)
    with pytest.raises(ValueError):
        optimal_adaptive_value(_edgeless(1, (0.7,), 1), "bogus")


def test_three_path_pattern_sweep():
    net = _three_path()
    assert optimal_adaptive_value(net, (2,)) == pytest.approx(1.4176, abs=1e-9)
    assert optimal_adaptive_value(net, (1, 1)) == pytest.approx(1.4912, abs=1e-9)
    assert optimal_adaptive_value(net, (1, 0, 1)) == pytest.approx(1.5376, abs=1e-9)
    adaptive = optimal_adaptive_value(net, "adaptive")
    assert adaptive == pytest.approx(1.5376, abs=1e-9)
    # the adaptive schedule dominates every explicit pattern, strictly
    # beating the all-at-once one
    for sched in enumerate_schedules(2, 3):
        assert optimal_adaptive_value(net, sched) <= adaptive + 1e-9
    assert optimal_adaptive_value(net, (2,)) < adaptive - 1e-3


def test_pattern_validation():
    net = _three_path()
    with pytest.raises(ValueError):
        optimal_adaptive_value(net, (3,))       # exceeds budget
    with pytest.raises(ValueError):
        optimal_adaptive_value(net, (0, 2))     # empty first step


def test_enumerate_schedules():
    assert set(enumerate_schedules(2, 3)) == {(2,), (1, 1), (1, 0, 1)}
    scheds = set(enumerate_schedules(3, 3))
    assert (3,) in scheds and (1, 1, 1) in scheds and (1, 0, 2) in scheds
    assert all(sum(s) == 3 and s[0] >= 1 and s[-1] != 0 for s in scheds)


def test_greedy_matches_optimal_on_the_path():
    net = _three_path()
    assert greedy_adaptive_value(net) == pytest.approx(1.5376, abs=1e-9)


def test_g1_chain_values_are_pinned_bit_for_bit():
    # five edges of two-atom laws: greedy's gains run deep cascades with
    # reveals, and greedy picks the optimum's seeds
    net = fixture_g1().with_budget(2)
    assert greedy_adaptive_value(net) == 1.8613359616000007
    assert optimal_adaptive_value(net, "adaptive") == 1.8613359616000007


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 4), st.integers(1, 3))
def test_greedy_guarantee_on_random_instances(seed, max_nodes, budget):
    # property (c): the exact greedy value is within (1 - 1/e) of the exact
    # optimum (Golovin & Krause, adaptive submodularity)
    net = random_tiny_network(np.random.default_rng(seed), max_nodes=max_nodes,
                              budget=budget)
    opt = optimal_adaptive_value(net, "adaptive")
    greedy = greedy_adaptive_value(net)
    assert (1.0 - 1.0 / math.e) * opt - 1e-9 <= greedy <= opt + 1e-9


def test_greedy_induction_agrees_with_simulator_policy():
    # same strategy through two independent code paths: belief-state
    # backward induction vs. exhaustive enumeration driving the simulator
    for t in range(6):
        net = random_tiny_network(np.random.default_rng(700 + t))
        via_induction = greedy_adaptive_value(net)
        via_simulator = exact_policy_value(net, ExactGainPolicy)
        assert via_induction == pytest.approx(via_simulator, abs=1e-9)


def test_pattern_induction_agrees_with_simulator_static_seeds():
    # the all-at-once pattern through two independent code paths: belief-state
    # backward induction vs. the best static seed set driving the simulator
    for t in range(6):
        net = random_tiny_network(np.random.default_rng(1100 + t), max_nodes=3)
        via_induction = optimal_adaptive_value(net, (net.budget,))
        via_simulator = max(
            exact_policy_value(net, lambda: StaticSeedListPolicy(seeds))
            for seeds in itertools.combinations(range(net.node_count),
                                                net.budget))
        assert via_induction == pytest.approx(via_simulator, abs=1e-9)


# sha256 of the value lines below; a change that moves any exact value, even
# in its last bit, changes it
_TINY_VALUES_SHA256 = (
    "76266ee6fbdb957700e6a62ab031d0fb0371f56d768cd059ebf6315825b4bcb0")


def test_exact_values_are_pinned_bit_for_bit():
    # budgets up to 3, so nodes are re-seeded after failed attempts and
    # every explicit schedule of up to four steps is solved
    lines = []
    for k in range(20):
        net = random_tiny_network(substream(k, 0, 0), max_nodes=3, budget=3)
        lines.append(repr(optimal_adaptive_value(net, "adaptive")))
        for sched in enumerate_schedules(net.budget, 4):
            lines.append(f"{sched}: {optimal_adaptive_value(net, sched)!r}")
        lines.append(repr(greedy_adaptive_value(net)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _TINY_VALUES_SHA256


def _reference_round_branches(net, belief, seeds):
    """One round's outcomes rebuilt from the belief at every call, with each
    edge's reveal options rebuilt per branch: the reference for the
    induction's memoised rounds."""
    active, spent, pending = belief
    options = []
    for v in seeds:
        p = net.activation[v]
        options.append(((v, p), (None, 1.0 - p)))
    for eidx, value in pending:
        options.append(((net.edges[eidx][1], value), (None, 1.0 - value)))
    new_spent = spent + len(seeds)
    out = []
    for combo in itertools.product(*options):
        prob = 1.0
        newly = set()
        for hit, p in combo:
            prob *= p
            if hit is not None:
                newly.add(hit)
        if prob == 0.0:
            continue
        newly -= active
        new_active = active | newly
        reveal_opts = []
        for z in sorted(newly):
            for eidx, w in net.out_edges[z]:
                if w in new_active:
                    continue
                dist = net.edges[eidx][2]
                reveal_opts.append(tuple(
                    ((eidx, value), mass)
                    for value, mass in zip(dist.values, dist.masses)))
        for reveal in itertools.product(*reveal_opts):
            rprob = prob
            for _, mass in reveal:
                rprob *= mass
            if rprob == 0.0:
                continue
            out.append((rprob, (new_active, new_spent,
                                tuple(sorted(draw for draw, _ in reveal)))))
    return out


def _reference_induction(net, moves):
    """Backward induction that recomputes every round's outcomes."""
    memo = {}

    def value(belief, step):
        key = (belief, step)
        if key in memo:
            return memo[key]
        options = moves(belief, step)
        if options is None:
            result = float(len(belief[0]))
        else:
            seed_sets, after = options
            result = max(sum(p * value(b, after) for p, b in
                             _reference_round_branches(net, belief, seeds))
                         for seeds in seed_sets)
        memo[key] = result
        return result

    _check_guard(net)
    return value((frozenset(), 0, ()), 0)


def _reference_adaptive_moves(net, greedy):
    """The adaptive rule with greedy's pick computed at every state, from
    the live-subset reference gains."""

    def moves(belief, step):
        active, spent, pending = belief
        if pending:
            return ((),), step
        elig = _eligible_nodes(net, active)
        if spent >= net.budget or not elig:
            return None
        if greedy:
            pick = _exact_argmax(lambda a, v: _reference_gain(net, a, v),
                                 active, elig)
            return ((pick,),), step
        return [(v,) for v in elig], step

    return moves


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 3))
def test_induction_matches_the_reference_bit_for_bit(seed, max_nodes, budget):
    # memoised rounds, the reveal table, the one-branch shortcut, greedy's
    # pick per active set and its gains from the belief engine change no
    # value in its last bit
    net = random_tiny_network(np.random.default_rng(seed),
                              max_nodes=max_nodes, budget=budget)
    assume(any(len(dist.values) == 2 for _, _, dist in net.edges))
    assert optimal_adaptive_value(net, "adaptive") == _reference_induction(
        net, _reference_adaptive_moves(net, False))
    assert greedy_adaptive_value(net) == _reference_induction(
        net, _reference_adaptive_moves(net, True))
    for sched in enumerate_schedules(net.budget, 4):
        assert optimal_adaptive_value(net, sched) == _reference_induction(
            net, _pattern_moves(net, sched)), sched


def test_exact_gain_policy_runs():
    net = _three_path()
    x = next(iter(enumerate_realizations(net)))[0]
    policy = ExactGainPolicy()
    run = run_policy(net, policy, x)
    assert policy.gain_evaluations > 0
    assert run.seeds != ()


def test_check_properties_no_violations():
    rng = np.random.default_rng(800)
    report = check_properties(fixture_g1(), 300, rng)
    assert report["trials"] == 300
    assert report["monotonicity_violations"] == 0
    assert report["submodularity_violations"] == 0
    for t in range(5):
        net = random_tiny_network(np.random.default_rng(900 + t))
        report = check_properties(net, 200, np.random.default_rng(t))
        assert report["monotonicity_violations"] == 0
        assert report["submodularity_violations"] == 0
