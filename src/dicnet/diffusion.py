"""Round-by-round diffusion engine.

Each round is simultaneous: nodes named in the seed command consume their next
seeding-attempt bit while every node of the previous frontier attempts its
untried out-edges toward targets that were inactive at the start of the round.
Newly active nodes (seeded or infected) form the next frontier and have the
draws of their out-edges revealed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .model import DicNetwork
from .realization import FullRealization, PartialRealization, empty_partial


class InvalidCommand(ValueError):
    """Raised for null rounds, seeding active nodes, or budget violations."""


@dataclass(frozen=True)
class SeedCommand:
    nodes: frozenset[int] = frozenset()


EMPTY_COMMAND = SeedCommand()


@dataclass
class DiffusionState:
    net: DicNetwork
    partial: PartialRealization
    frontier: set[int]
    budget_used: int
    _x: FullRealization = field(repr=False, default=None)


def is_quiescent(net: DicNetwork, partial: PartialRealization, nodes) -> bool:
    """True when no node of `nodes` has an unresolved edge to an inactive
    node.  Over the whole active set this is observable quiescence.
    `step_round` scans only the frontier: a node leaves the frontier after
    its one round of attempts, when each of its out-edges is resolved or
    points at an active node, so the two scans agree."""
    for u in nodes:
        for eidx, w in net.out_edges[u]:
            if w not in partial.active and eidx not in partial.resolved_attempts:
                return False
    return True


def start(net: DicNetwork, x: FullRealization) -> DiffusionState:
    """Fresh state at round zero with the empty observation."""
    return DiffusionState(net, empty_partial(net), set(), 0, x)


def step_round(state: DiffusionState, cmd: SeedCommand) -> DiffusionState:
    """Execute one simultaneous round of seeding plus frontier propagation."""
    net, partial, x = state.net, state.partial, state._x
    if not cmd.nodes and partial.quiescent:
        raise InvalidCommand("null round: empty command on a quiescent state")
    for v in cmd.nodes:
        if v in partial.active:
            raise InvalidCommand(f"node {v} is already active")
        if len(partial.attempts[v]) >= net.budget:
            raise InvalidCommand(f"node {v} has no seeding attempts left")
    if state.budget_used + len(cmd.nodes) > net.budget:
        raise InvalidCommand("budget exceeded")

    active_at_start = partial.active
    newly: set[int] = set()
    for v in sorted(cmd.nodes):
        j = len(partial.attempts[v])
        bit = x.seed_outcomes[v][j]
        partial.attempts[v].append(bit)
        if bit:
            newly.add(v)
    for u in sorted(state.frontier):
        for eidx, w in net.out_edges[u]:
            if w in active_at_start or eidx in partial.resolved_attempts:
                continue
            bit = x.edge_draws[eidx][1]
            partial.resolved_attempts[eidx] = bit
            if bit:
                newly.add(w)
    newly -= active_at_start
    partial.active |= newly
    for v in sorted(newly):
        for eidx, _ in net.out_edges[v]:
            partial.revealed_draws[eidx] = x.edge_draws[eidx][0]
    partial.round_index += 1
    state.frontier = newly
    state.budget_used += len(cmd.nodes)
    partial.quiescent = is_quiescent(net, partial, newly)
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
    if total > net.budget or any(m > net.budget for m in mult.values()):
        raise InvalidCommand("seed plan exceeds budget")
    roots = [v for v, m in mult.items() if any(x.seed_outcomes[v][:m])]
    seen = set(roots)
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        for eidx, w in net.out_edges[u]:
            if w not in seen and x.edge_draws[eidx][1]:
                seen.add(w)
                queue.append(w)
    return len(seen)


@dataclass
class PolicyRun:
    spread: int
    trace: list           # rows of (round, seeded, outcomes, newly_active)
    seeds: tuple[int, ...]  # executed seed multiset, in order
    rounds: int
    gain_evaluations: int = 0


def run_policy(net: DicNetwork, policy, x: FullRealization,
               collect_trace: bool = True) -> PolicyRun:
    """Drive the cascade with a policy until budget exhaustion and quiescence.

    The policy sees only the partial realization.  It returns a SeedCommand
    (possibly empty while the cascade is still running) or None to stop.
    """
    state = start(net, x)
    trace = []
    executed: list[int] = []
    while True:
        if state.budget_used >= net.budget:
            break
        cmd = policy.decide(net, state.partial, net.budget - state.budget_used)
        if cmd is None:
            break
        seeded = tuple(sorted(cmd.nodes))
        step_round(state, cmd)
        executed.extend(seeded)
        if collect_trace:
            outcomes = tuple(state.partial.attempts[v][-1] for v in seeded)
            trace.append((state.partial.round_index, seeded, outcomes,
                          tuple(sorted(state.frontier))))
    while not state.partial.quiescent:
        step_round(state, EMPTY_COMMAND)
        if collect_trace:
            trace.append((state.partial.round_index, (), (),
                          tuple(sorted(state.frontier))))
    evals = getattr(policy, "gain_evaluations", 0)
    return PolicyRun(len(state.partial.active), trace, tuple(executed),
                     state.partial.round_index, evals)
