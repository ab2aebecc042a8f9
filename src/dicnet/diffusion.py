"""Round-by-round diffusion engine.

Each round is simultaneous: nodes named in the seed command consume their next
seeding-attempt bit while every node of the previous frontier attempts its
out-edges toward targets that were inactive at the start of the round.
Newly active nodes (seeded or infected) form the next frontier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .model import DicNetwork
from .realization import FullRealization, PartialRealization


class InvalidCommand(ValueError):
    """Raised for null rounds, seeding active nodes, or budget violations."""


EMPTY_COMMAND = frozenset()     # a command is the set of nodes to seed


@dataclass
class DiffusionState:
    net: DicNetwork
    partial: PartialRealization
    frontier: set[int]
    budget_used: int
    used: list[int]            # per node, attempts so far: its next bit's index
    _x: FullRealization = field(repr=False)
    # one row per round: (round, seeded, outcome bits, newly active)
    trace: list = field(default_factory=list)


def start(net: DicNetwork, x: FullRealization) -> DiffusionState:
    """Fresh state at round zero with the empty observation."""
    return DiffusionState(net, PartialRealization(), set(), 0,
                          [0] * net.node_count, x)


def step_round(state: DiffusionState, seeds: frozenset[int]) -> DiffusionState:
    """Execute one simultaneous round of seeding plus frontier propagation,
    and append its row to `state.trace`.

    A node is in the frontier only in the round after it turns active, so
    each edge is attempted at most once and no attempted edge is recorded.
    The state is quiescent when no newly active node has an out-edge into
    an inactive node: older active nodes have made their attempts."""
    net, partial, x = state.net, state.partial, state._x
    if not seeds and partial.quiescent:
        raise InvalidCommand("null round: empty command on a quiescent state")
    for v in seeds:
        if v in partial.active:
            raise InvalidCommand(f"node {v} is already active")
    if state.budget_used + len(seeds) > net.budget:
        raise InvalidCommand("budget exceeded")

    active = partial.active
    seeded = tuple(sorted(seeds))
    outcomes = []
    newly: set[int] = set()
    for v in seeded:
        bit = x.seed_bits[v * net.budget + state.used[v]]
        state.used[v] += 1
        outcomes.append(bit)
        if bit:
            newly.add(v)
    for u in state.frontier:
        for eidx, w in net.out_edges[u]:
            if w not in active and x.success[eidx]:
                newly.add(w)
    newly -= active
    active |= newly
    state.trace.append((len(state.trace) + 1, seeded, tuple(outcomes),
                        tuple(sorted(newly))))
    state.frontier = newly
    state.budget_used += len(seeds)
    partial.quiescent = all(w in active
                            for u in newly for _, w in net.out_edges[u])
    return state


def run_to_quiescence(state: DiffusionState) -> DiffusionState:
    """Let the cascade play out with empty commands until nothing can move."""
    while not state.partial.quiescent:
        step_round(state, EMPTY_COMMAND)
    return state


def spread_count(net: DicNetwork, x: FullRealization, seed_plan) -> int:
    """Number of nodes reachable over live edges from successful seed roots.

    `seed_plan` is an iterable of node ids with repetition (a multiset); a
    node with multiplicity m is a root iff any of its first m attempt bits
    is set.  Raises InvalidCommand when the plan exceeds the budget.
    """
    mult: dict[int, int] = {}
    for v in seed_plan:
        mult[v] = mult.get(v, 0) + 1
    total = sum(mult.values())
    if total > net.budget:
        raise InvalidCommand("seed plan exceeds budget")
    b = net.budget
    roots = [v for v, m in mult.items() if any(x.seed_bits[v * b:v * b + m])]
    seen = set(roots)
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        for eidx, w in net.out_edges[u]:
            if w not in seen and x.success[eidx]:
                seen.add(w)
                queue.append(w)
    return len(seen)


@dataclass
class PolicyRun:
    spread: int
    trace: list           # the state's rows (round, seeded, outcomes, newly)
    seeds: tuple[int, ...]  # executed seed multiset, in order
    rounds: int
    gain_evaluations: int = 0


def run_policy(net: DicNetwork, policy, x: FullRealization) -> PolicyRun:
    """Drive the cascade with a policy until budget exhaustion and quiescence.

    `policy.decide(net, partial)` sees only the partial realization.  It
    returns a frozenset of nodes to seed (empty to wait a round) or None to
    stop.
    """
    state = start(net, x)
    while state.budget_used < net.budget:
        cmd = policy.decide(net, state.partial)
        if cmd is None:
            break
        step_round(state, cmd)
    run_to_quiescence(state)
    seeds = tuple(v for _, seeded, _, _ in state.trace for v in seeded)
    evals = getattr(policy, "gain_evaluations", 0)
    return PolicyRun(len(state.partial.active), state.trace, seeds,
                     len(state.trace), evals)
