"""The four shipped strategies.

Policies are small state machines confined to a single run:
`decide(net, partial)` receives the network and the observation, the
active set and the quiescence flag, and returns a frozenset of nodes to seed
(empty = wait a round) or None to stop.  `run_policy` calls `decide` only
while budget remains and keeps the budget itself; only the static list reads
it, as `net.budget`.  So a run's decisions never depend on the budget left,
and the drained spread after its first c seeds is
`spread_count(net, x, run.seeds[:c])`.
"""

from __future__ import annotations

import heapq

import numpy as np

from .diffusion import EMPTY_COMMAND
from .model import DicNetwork
from .realization import PartialRealization


def observably_quiescent(net: DicNetwork, partial: PartialRealization) -> bool:
    """True when no active node has an unattempted edge to an inactive
    node, i.e. the cascade cannot move without new seeds (kept by
    `step_round` from the newly active nodes alone)."""
    return partial.quiescent


def _eligible_nodes(net: DicNetwork, active, candidates=None):
    """The inactive nodes of `candidates` (all nodes when None), ascending.
    Attempt bits are i.i.d., so a node may be seeded again after any number
    of failed attempts; the budget is the only limit, and `step_round`
    keeps it."""
    pool = range(net.node_count) if candidates is None else sorted(candidates)
    return [v for v in pool if v not in active]


class RandomPolicy:
    """Seeds one uniformly random eligible node each round, without waiting
    for quiescence, until no node is eligible."""

    def __init__(self, rng):
        self.rng = rng

    def decide(self, net, partial):
        elig = _eligible_nodes(net, partial.active)
        if not elig:
            return None
        picks = self.rng.choice(elig, size=1, replace=False)
        return frozenset(int(v) for v in picks)


class StaticSeedListPolicy:
    """Executes a precomputed seed list in a single opening step."""

    def __init__(self, seeds):
        self.seeds = tuple(seeds)
        self.done = False

    def decide(self, net, partial):
        if self.done:
            return None
        self.done = True
        take = self.seeds[:net.budget]
        if not take:
            return None
        return frozenset(take)


# module-level so that functools.partial(...) of it pickles for workers
def static_seed_factory(seeds, rng):
    return StaticSeedListPolicy(seeds)


# ---------------------------------------------------------------------------
# live-edge world engine
#
# A world is one draw of every edge's single attempt, each edge live with its
# mean propagation probability, stored as {source: (target, ...)} over the
# live edges.  Worlds are read-only: their node ints and one-target tuples are
# shared.  Every greedy strategy scores candidates by how many nodes they
# reach in a shared batch of worlds (common random numbers).
# ---------------------------------------------------------------------------

_LIVE_EDGE_SLICE = 4096     # live edges sorted into worlds at a time
_DRAW_BYTES = 1 << 20       # uniforms static greedy draws at a time


def _bernoulli_positions(rng, total: int, p: float) -> np.ndarray:
    """Indices of successes in a length-`total` iid Bernoulli(p) sequence,
    sampled sparsely via geometric inter-success gaps."""
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks = []
    pos = -1
    batch = int(total * p * 1.25) + 16
    while True:
        steps = rng.geometric(p, size=batch)
        np.cumsum(steps, out=steps)
        steps += pos
        # gaps are >= 1, so the steps ascend: those below total are a prefix
        inside = steps[:steps.searchsorted(total)]
        chunks.append(inside)
        if len(inside) < len(steps):
            break
        pos = int(steps[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _worlds_from_live(net: DicNetwork, pieces, replications: int) -> list[dict]:
    """`replications` worlds from live (rows, edges) array pairs, each with
    ascending rows: edge `edges[i]` is live in world `rows[i]`.

    World r is {source: tuple of targets}, each source's targets in piece
    order and in order within a piece.  Every node is one shared int and
    every single-target source maps to one shared 1-tuple, so a world costs
    a dict entry per source and a tuple per source with several targets.
    The live pairs are stable-sorted by (row, source) one slice of whole
    worlds, about `_LIVE_EDGE_SLICE` live edges, at a time.
    """
    n = net.node_count
    src, dst, _ = net.edge_arrays
    ids = np.empty(n, dtype=object)
    ids[:] = range(n)
    ones = [(v,) for v in ids]
    worlds: list[dict] = [{} for _ in range(replications)]
    pieces = [piece for piece in pieces if len(piece[0])]
    if not pieces:
        return worlds
    if len(pieces) == 1:         # used as drawn: no copy of the whole draw
        (rows, edges), = pieces
    else:                        # merge the pieces' ascending runs of rows
        rows = np.concatenate([r for r, _ in pieces])
        edges = np.concatenate([e for _, e in pieces])
        order = np.argsort(rows, kind="stable")
        rows, edges = rows[order], edges[order]
    del pieces
    step = max(1, replications * _LIVE_EDGE_SLICE // len(rows))
    cuts = rows.searchsorted(range(0, replications + step, step)).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:
            continue
        first = int(rows[lo])
        part = edges[lo:hi]
        key = (rows[lo:hi] - first) * n + src[part]
        # sort the keys as the smallest unsigned type that holds them: numpy's
        # stable sort is a radix sort for keys of up to 16 bits
        order = np.argsort(key.astype(np.min_scalar_type(key.max())),
                           kind="stable")
        key = key[order]
        targets = ids[dst[part[order]]].tolist()
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        bounds = heads.tolist()
        bounds.append(len(key))
        world, source = np.divmod(key[heads], n)
        for r, u, i, j in zip((world + first).tolist(), ids[source].tolist(),
                              bounds, bounds[1:]):
            worlds[r][u] = (ones[targets[i]] if j - i == 1
                            else tuple(targets[i:j]))
    return worlds


def sample_worlds(net: DicNetwork, replications: int, rng) -> list[dict]:
    """`replications` live-edge worlds, drawn sparsely: one Bernoulli grid
    per distinct edge mean, on a Philox stream keyed by one draw from rng."""
    seed = int(rng.integers(0, 2 ** 63))
    gen = np.random.Generator(np.random.Philox(key=seed))
    means = net.edge_arrays[2]

    def live():                  # one (rows, edges) piece per law group
        for p in np.unique(means):
            group = np.flatnonzero(means == p)
            g = len(group)
            rows, edges = np.divmod(
                _bernoulli_positions(gen, replications * g, float(p)), g)
            edges = group[edges]
            yield rows, edges

    return _worlds_from_live(net, live(), replications)


def _reach(adj, v: int, excluded) -> set[int]:
    """Nodes reachable from v over the world's live edges without entering
    a node of `excluded` (v included)."""
    seen = {v}
    stack = [v]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen and w not in excluded:
                seen.add(w)
                stack.append(w)
    return seen


_CLOSED = float("inf")      # low-link of a node whose component is finished


def _reach_sizes(adj, excluded) -> dict[int, int]:
    """`len(_reach(adj, v, excluded))` for every source v of the world outside
    `excluded`, from one depth-first pass without recursion.

    Tarjan's algorithm closes strongly connected components sinks first, so a
    component's reach is known when it closes: the bits of its own nodes ORed
    with the reaches of the components its edges enter (the condensation
    reach counting of Ohsaka et al., AAAI 2014).  Bit i stands for the i-th
    node the pass visits.
    """
    low: dict[int, int] = {}       # visit order, then lowest order reached
    bits: dict[int, int] = {}      # reach found so far; final once closed
    path: list[int] = []           # visited nodes of unfinished components
    sizes: dict[int, int] = {}
    for root in adj:
        if root in low or root in excluded:
            continue
        i = len(low)
        low[root] = i
        bits[root] = 1 << i
        path.append(root)
        stack = [(root, i, iter(adj[root]))]
        while stack:
            v, order, succ = stack[-1]
            for w in succ:
                if w in excluded:
                    continue
                if w not in low:
                    i = len(low)
                    bits[w] = 1 << i
                    if w not in adj:           # a sink is its own component
                        low[w] = _CLOSED
                        bits[v] |= bits[w]
                        continue
                    low[w] = i
                    path.append(w)
                    stack.append((w, i, iter(adj[w])))
                    break
                bits[v] |= bits[w]
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                stack.pop()
                if low[v] == order:            # v roots a component: close it
                    reach = bits[v]
                    size = reach.bit_count()
                    while True:
                        w = path.pop()
                        low[w] = _CLOSED
                        bits[w] = reach
                        sizes[w] = size        # only sources enter the path
                        if w == v:
                            break
                if stack:
                    u = stack[-1][0]
                    bits[u] |= bits[v]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return sizes


def reach_totals(net: DicNetwork, worlds, active, weight=None) -> list[int]:
    """For every node v outside `active`, the sum over worlds r of
    `weight[r, v] * len(_reach(worlds[r], v, active))` (weight 1 when None):
    the integer that `world_gain`'s loop sums for each candidate, for all
    candidates at once, in one condensation pass per world."""
    if weight is None:
        totals = [len(worlds)] * net.node_count
        for adj in worlds:
            for v, size in _reach_sizes(adj, active).items():
                totals[v] += size - 1
        return totals
    totals = weight.sum(axis=0).tolist()     # every node reaches itself
    for adj, row in zip(worlds, weight):
        row = row.tolist()
        for v, size in _reach_sizes(adj, active).items():
            totals[v] += row[v] * (size - 1)
    return totals


def world_gain(net: DicNetwork, worlds, v: int, active) -> float:
    """Estimated conditional marginal gain of seeding v now: its activation
    probability times the mean number of inactive nodes it reaches per world
    (v included).

    Conditioning on the active set alone is exact.  An edge's single attempt
    is made by its source while that source is in the frontier, and draws are
    revealed only on out-edges of active nodes; a reach that never enters an
    active node therefore never meets an observed edge.
    """
    total = 0
    for adj in worlds:
        total += len(_reach(adj, v, active)) if v in adj else 1
    return net.activation[v] * total / len(worlds)


def _lazy_forward(heap, stamp: int, score, excluded=()):
    """CELF's lazy-forward step: pop the (-gain, node, stamp) heap until its
    top entry was scored at `stamp`, re-scoring stale entries and dropping
    nodes of `excluded`; returns that entry's (node, gain)."""
    while True:
        neg_gain, v, scored_at = heapq.heappop(heap)
        if v in excluded:
            continue
        if scored_at == stamp:
            return v, -neg_gain
        heapq.heappush(heap, (-score(v), v, stamp))


class AGreedyPolicy:
    """Adaptive greedy: at each quiescence, seed the candidate with maximal
    estimated conditional gain, using a lazy-forward queue over cached gains.

    All gains within one run are estimated on a single batch of live-edge
    worlds sampled at the first decision (common random numbers).  As the
    active set grows each candidate's estimated gain can only shrink, so
    cached gains are valid upper bounds and the lazy queue selects exactly
    the same node an exhaustive re-evaluation would.  Eligibility only
    shrinks too (it is the inactive candidates, and the active set only
    grows), so the queue is filled once, at that first decision.
    """

    def __init__(self, net: DicNetwork, replications: int, rng,
                 celf: bool = True, candidates=None):
        self.net = net
        self.replications = replications
        self.rng = rng
        self.celf = celf
        self.candidates = (frozenset(range(net.node_count))
                           if candidates is None else frozenset(candidates))
        self.step = 0
        self.gain_evaluations = 0
        self._heap: list = []          # (-gain, node, stamp)
        self._worlds = None

    def _gain(self, v, active):
        self.gain_evaluations += 1
        return world_gain(self.net, self._worlds, v, active)

    def decide(self, net, partial):
        if not observably_quiescent(net, partial):
            return EMPTY_COMMAND
        active = partial.active
        if self.candidates <= active:            # every candidate is active
            return None
        if self._worlds is None:
            self._worlds = sample_worlds(self.net, self.replications, self.rng)
            if self.celf:
                # one kernel pass scores the whole first fill; re-evaluations
                # of single candidates use world_gain
                elig = _eligible_nodes(net, active, self.candidates)
                totals = reach_totals(self.net, self._worlds, active)
                self.gain_evaluations += len(elig)
                act, reps = self.net.activation, len(self._worlds)
                self._heap = [(-(act[v] * totals[v] / reps), v, 0)
                              for v in elig]
                heapq.heapify(self._heap)
        if self.celf:
            # the heap holds candidates only, so an ineligible one is active
            chosen, gain = _lazy_forward(
                self._heap, self.step, lambda v: self._gain(v, active), active)
            # keep the chosen node queued with its latest gain for later steps
            heapq.heappush(self._heap, (-gain, chosen, self.step))
        else:
            chosen, best = None, -1.0
            # ascending ids: ties go to the smallest
            for v in _eligible_nodes(net, active, self.candidates):
                g = self._gain(v, active)
                if g > best:
                    chosen, best = v, g
        self.step += 1
        return frozenset({chosen})


def h_greedy_prune(net: DicNetwork, pre_replications: int, rng):
    """Estimate every node's single-seed expected spread and keep the nodes
    at or above the population mean minus one standard deviation.

    Returns (candidate set, stats) where stats carries the per-node
    estimates, the population mean/std, and the pruned fraction.
    """
    worlds = sample_worlds(net, pre_replications, rng)
    totals = reach_totals(net, worlds, frozenset())
    estimates = tuple(net.activation[v] * totals[v] / len(worlds)
                      for v in range(net.node_count))
    mu = float(np.mean(estimates))
    sigma = float(np.std(estimates))
    threshold = mu - sigma
    candidates = frozenset(v for v, e in enumerate(estimates)
                           if e >= threshold - 1e-12)
    stats = {
        "estimates": estimates,
        "mean": mu,
        "std": sigma,
        "threshold": threshold,
        "pruned_fraction": 1.0 - len(candidates) / net.node_count,
    }
    return candidates, stats


def _draw_below(rng, rows: int, p):
    """`rng.random((rows, len(p))) < p` as (first row, block) pairs of about
    `_DRAW_BYTES` of uniforms each.  Successive draws continue one stream,
    so the blocks hold exactly the rows of a single draw."""
    step = max(1, _DRAW_BYTES // (8 * max(1, len(p))))
    for lo in range(0, rows, step):
        yield lo, rng.random((min(step, rows - lo), len(p))) < p


def static_greedy_select(net: DicNetwork, budget: int, replications: int, rng):
    """Hill-climbing selection on the mean-field network.

    Collapses every edge distribution to its mean, then CELF-greedily picks
    `budget` nodes maximizing the Monte Carlo expected spread of the set
    seeded all at once.  Returns (ordered seed list, gain evaluation count).
    """
    n = net.node_count
    pieces = []
    for lo, live in _draw_below(rng, replications, net.edge_arrays[2]):
        rows, edges = np.nonzero(live)
        pieces.append((rows + lo, edges))
    worlds = _worlds_from_live(net, pieces, replications)
    del pieces
    success = np.empty((replications, n), dtype=bool)
    for lo, block in _draw_below(rng, replications, np.array(net.activation)):
        success[lo:lo + len(block)] = block
    covered: list[set[int]] = [set() for _ in range(replications)]
    evaluations = 0

    def new_reaches(v: int):
        """(world, nodes v adds to that world's covered set) per world where
        v's seeding succeeds and v is not covered yet."""
        for r in np.flatnonzero(success[:, v]).tolist():
            if v not in covered[r]:
                yield r, _reach(worlds[r], v, covered[r])

    def evaluate(v: int) -> float:
        nonlocal evaluations
        evaluations += 1
        return sum(len(reached) for _, reached in new_reaches(v)) / replications

    totals = reach_totals(net, worlds, (), weight=success)
    evaluations += n
    heap = [(-(totals[v] / replications), v, 0) for v in range(n)]
    heapq.heapify(heap)
    picked: list[int] = []
    for round_no in range(1, min(budget, n) + 1):
        v, _ = _lazy_forward(heap, round_no, evaluate)
        picked.append(v)
        for r, reached in new_reaches(v):
            covered[r] |= reached
    return picked, evaluations
