"""Exact machinery for tiny instances.

Provides the auxiliary-graph expansion (one attempt node per seeding slot,
one parallel edge per support value), exhaustive enumeration of full
realizations, exact policy values, and one belief-state engine for the rest:
its backward induction gives the exact values of the optimal adaptive, the
exact-greedy and each explicit seeding pattern, and its drained cascades give
greedy's exact conditional gains.  Everything here is guarded by one
realization count to desk-scale instances and exists to cross-check the Monte
Carlo side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .diffusion import EMPTY_COMMAND, run_policy, spread_count
from .model import DicNetwork
from .realization import FullRealization, sample_full
from .strategies import _eligible_nodes, observably_quiescent

ENUMERATION_GUARD = 2 ** 24


class EnumerationGuard(RuntimeError):
    """Instance too large for exhaustive treatment."""

    def __init__(self, count):
        super().__init__(f"instance requires {count} enumerated realizations "
                         f"(guard {ENUMERATION_GUARD})")
        self.count = count


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Expanded graph: N core nodes, B attempt nodes per core node, and one
    parallel value edge per support atom of each original edge."""

    core_count: int
    attempts_per_node: int
    attempt_edges: tuple[tuple[tuple[int, int], int], ...]   # ((node, slot), node)
    value_edges: tuple[tuple[int, int, int, float, float], ...]  # (src, dst, k, value, mass)

    @property
    def node_count(self) -> int:
        return self.core_count * self.attempts_per_node + self.core_count


def build_auxiliary(net: DicNetwork, budget: int | None = None) -> AuxiliaryGraph:
    b = net.budget if budget is None else budget
    attempt_edges = tuple(((i, j), i)
                          for i in range(net.node_count) for j in range(b))
    value_edges = []
    for src, dst, dist in net.edges:
        for k, (value, mass) in enumerate(zip(dist.values, dist.masses)):
            value_edges.append((src, dst, k, value, mass))
    return AuxiliaryGraph(net.node_count, b, attempt_edges, tuple(value_edges))


def realization_count(net: DicNetwork) -> int:
    count = (2 ** net.budget) ** net.node_count
    for _, _, dist in net.edges:
        count *= 2 * len(dist.values)
    return count


def _check_guard(net: DicNetwork):
    count = realization_count(net)
    if count > ENUMERATION_GUARD:
        raise EnumerationGuard(count)


def enumerate_realizations(net: DicNetwork):
    """Yield every (FullRealization, probability); probabilities sum to one.

    Each edge branches on its drawn value and then on its success bit.  The
    realization keeps only the success bit, so the branches of one edge's
    values with the same bit yield equal realizations, each with its own
    probability."""
    _check_guard(net)
    node_options = [[(bits, math.prod(p if bit else 1.0 - p for bit in bits))
                     for bits in itertools.product((0, 1), repeat=net.budget)]
                    for p in net.activation]
    edge_options = [[(bit, mass * (value if bit else 1.0 - value))
                     for value, mass in zip(dist.values, dist.masses)
                     for bit in (1, 0)]
                    for _, _, dist in net.edges]
    n = net.node_count
    for combo in itertools.product(*node_options, *edge_options):
        seed_bits = bytes(bit for bits, _ in combo[:n] for bit in bits)
        yield (FullRealization(seed_bits, bytes(s for s, _ in combo[n:])),
               math.prod(p for _, p in combo))


def exact_policy_value(net: DicNetwork, policy_factory) -> float:
    """Expected spread of a deterministic policy, by full enumeration."""
    total = 0.0
    for x, prob in enumerate_realizations(net):
        if prob == 0.0:
            continue
        total += prob * run_policy(net, policy_factory(), x).spread
    return total


# ---------------------------------------------------------------------------
# belief-state engine
#
# A belief (active, spent, pending) captures everything future dynamics can
# depend on: the active set, the number of seeding attempts spent so far, and
# the pending revealed draws on frontier out-edges toward inactive targets
# (those get attempted next round).  Attempt bits are i.i.d., so how the spent
# attempts fall on nodes says nothing about any next attempt and is not kept.
# Revealed draws on edges toward already-active targets never matter again and
# are marginalized out.  Spent edges are not recorded: only active nodes attempt
# edges, and a node turning active was inactive until now, so none of its
# out-edges is spent.
# ---------------------------------------------------------------------------


def _round_branches(net: DicNetwork, active, pending, seeds, reveals):
    """All outcomes of one simultaneous round, as (prob, active, pending);
    `reveals[eidx]` is edge eidx's ((eidx, value), mass) options."""
    # each seeding attempt and each pending edge attempt either hits its
    # node or misses (None)
    options = []
    for v in seeds:
        p = net.activation[v]
        options.append(((v, p), (None, 1.0 - p)))
    for eidx, value in pending:
        options.append(((net.edges[eidx][1], value), (None, 1.0 - value)))
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
        if not newly:                   # nothing turns active, nothing revealed
            out.append((prob, active, ()))
            continue
        new_active = active | newly
        # reveal draws on the new frontier's out-edges toward inactive targets
        reveal_opts = [reveals[eidx] for z in sorted(newly)
                       for eidx, w in net.out_edges[z] if w not in new_active]
        for reveal in itertools.product(*reveal_opts):
            rprob = prob
            for _, mass in reveal:
                rprob *= mass
            if rprob == 0.0:
                continue
            out.append((rprob, new_active,
                        tuple(sorted(draw for draw, _ in reveal))))
    return out


class _Engine:
    """One call's belief engine.  A round's outcomes do not depend on the
    attempts spent, so they are memoised under (active, pending, seeds), and
    the value recursion and greedy's gains share them.  The memo lives as
    long as the engine: one induction or one greedy decision."""

    def __init__(self, net: DicNetwork):
        _check_guard(net)
        self.net = net
        self.rounds: dict = {}
        self.drained: dict = {}
        self.reveals = [tuple(((eidx, value), mass)
                              for value, mass in zip(dist.values, dist.masses))
                        for eidx, (_, _, dist) in enumerate(net.edges)]

    def branches(self, active, pending, seeds):
        key = (active, pending, seeds)
        if key not in self.rounds:
            self.rounds[key] = _round_branches(self.net, active, pending,
                                               seeds, self.reveals)
        return self.rounds[key]

    def drain(self, active, pending) -> float:
        """Expected active count once the cascade settles, seeding nothing."""
        if not pending:
            return float(len(active))
        key = (active, pending)
        if key not in self.drained:
            self.drained[key] = sum(p * self.drain(a, d) for p, a, d
                                    in self.branches(active, pending, ()))
        return self.drained[key]

    def gain(self, active, v) -> float:
        """Exact conditional gain of seeding v at quiescence: the expected
        active count after v's round and the cascade it starts, minus the
        active count now."""
        return sum(p * self.drain(a, d) for p, a, d
                   in self.branches(active, (), (v,))) - len(active)

    def solve(self, moves) -> float:
        """Backward induction over (belief, step) states.

        `moves(belief, step)` is None once the run has ended, and the state
        is worth its active count.  Otherwise it is (seed sets, next step)
        and the state is worth the best seed set's expectation over one
        round.
        """
        memo: dict = {}
        branches = self.branches

        def value(belief, step) -> float:
            key = (belief, step)
            if key in memo:
                return memo[key]
            options = moves(belief, step)
            if options is None:
                result = float(len(belief[0]))
            else:
                active, spent, pending = belief
                seed_sets, after = options
                result = max(
                    sum(p * value((a, spent + len(seeds), d), after)
                        for p, a, d in branches(active, pending, seeds))
                    for seeds in seed_sets)
            memo[key] = result
            return result

        return value((frozenset(), 0, ()), 0)  # nothing active, spent or pending


def exact_marginal_gain(net: DicNetwork, active, v) -> float:
    """Exact conditional gain of seeding v now, given the active set: v's
    activation probability times the expected number of inactive nodes v
    reaches (v included), computed by the belief engine."""
    return _Engine(net).gain(frozenset(active), v)


def _adaptive_moves(net: DicNetwork, gain=None):
    """One seed at each quiescence until the budget runs out: the best
    eligible node for the optimum or, given `gain(active, v)`, greedy's node
    of largest gain, computed once per active set."""
    picks: dict = {}

    def moves(belief, step):
        active, spent, pending = belief
        if pending:
            return ((),), step              # wait for the cascade to settle
        elig = _eligible_nodes(net, active)
        if spent >= net.budget or not elig:
            return None
        if gain is not None:
            if active not in picks:
                picks[active] = _exact_argmax(gain, active, elig)
            return ((picks[active],),), step
        return [(v,) for v in elig], step

    return moves


def _pattern_moves(net: DicNetwork, schedule):
    """Step i seeds schedule[i] nodes (as many as are left); after the
    schedule the cascade drains.  The schedule's sum is within the budget,
    so no step reads how much is spent."""

    def moves(belief, i):
        active, _, pending = belief
        if i == len(schedule):
            return (((),), i) if pending else None
        elig = _eligible_nodes(net, active)
        k = min(schedule[i], len(elig))
        return itertools.combinations(elig, k), i + 1

    return moves


def _exact_argmax(gain, active, eligible):
    """The eligible node with the largest `gain(active, v)`; ties (within
    1e-12) go to the earliest in `eligible`."""
    best, best_gain = None, -1.0
    for v in eligible:
        g = gain(active, v)
        if g > best_gain + 1e-12:
            best, best_gain = v, g
    return best


class ExactGainPolicy:
    """Adaptive greedy with exactly computed conditional gains.

    Behaves like the Monte Carlo greedy policy but scores each candidate
    with the belief engine's exact gain, so its runs are deterministic given
    the realization.  Each decision builds one engine, so its candidates
    share round outcomes.
    """

    def __init__(self):
        self.gain_evaluations = 0

    def decide(self, net, partial):
        if not observably_quiescent(net, partial):
            return EMPTY_COMMAND
        elig = _eligible_nodes(net, partial.active)
        if not elig:
            return None
        self.gain_evaluations += len(elig)
        return frozenset({_exact_argmax(_Engine(net).gain,
                                         frozenset(partial.active), elig)})


def greedy_adaptive_value(net: DicNetwork) -> float:
    """Exact expected spread of the adaptive greedy strategy whose marginal
    gains are computed exactly (no Monte Carlo noise).  The gains and the
    value recursion share one engine's round outcomes."""
    engine = _Engine(net)
    return engine.solve(_adaptive_moves(net, engine.gain))


def optimal_adaptive_value(net: DicNetwork, pattern) -> float:
    """Exact value of the optimal adaptive strategy under a seeding pattern.

    `pattern` is either the string "adaptive" (seed one node at each
    quiescence until the budget runs out) or an explicit schedule tuple.
    """
    if isinstance(pattern, str):
        if pattern != "adaptive":
            raise ValueError(f"unknown pattern {pattern!r}")
        return _Engine(net).solve(_adaptive_moves(net))
    schedule = tuple(int(a) for a in pattern)
    if sum(schedule) > net.budget:
        raise ValueError("schedule exceeds budget")
    if schedule and schedule[0] < 1 and sum(schedule) > 0:
        raise ValueError("first scheduled step must seed at least one node")
    return _Engine(net).solve(_pattern_moves(net, schedule))


def enumerate_schedules(budget: int, max_steps: int):
    """All explicit schedules using the full budget with a nonempty first
    step, trailing zeros stripped."""
    for length in range(1, max_steps + 1):
        for combo in itertools.product(range(budget + 1), repeat=length):
            if sum(combo) == budget and combo[0] >= 1 and combo[-1] != 0:
                yield combo


def check_properties(net: DicNetwork, trials: int, rng) -> dict:
    """Sample (x, V1 ⊆ V2, v') tuples and count monotonicity/submodularity
    violations of the live-edge spread count.  Both counts must be zero."""
    b = net.budget
    mono_viol = sub_viol = 0
    for _ in range(trials):
        x = sample_full(net, rng)
        size2 = int(rng.integers(0, b))          # leave room for v'
        v2 = [int(rng.integers(0, net.node_count)) for _ in range(size2)]
        keep = rng.random(len(v2)) < 0.5
        v1 = [v for v, k in zip(v2, keep) if k]
        # the extra seed must be a node absent from V2 (and hence from V1):
        # only then do both sides consult the same first attempt bit
        extra_candidates = [v for v in range(net.node_count) if v not in v2]
        if not extra_candidates:
            continue
        v_extra = int(rng.choice(extra_candidates))
        s1 = spread_count(net, x, v1)
        s2 = spread_count(net, x, v2)
        if s1 > s2:
            mono_viol += 1
        s1e = spread_count(net, x, v1 + [v_extra])
        s2e = spread_count(net, x, v2 + [v_extra])
        if s2e - s2 > s1e - s1:
            sub_viol += 1
    return {"trials": trials,
            "monotonicity_violations": mono_viol,
            "submodularity_violations": sub_viol}
