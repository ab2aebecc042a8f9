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

import bisect
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
    for quiescence, until no node is eligible.

    The ascending eligible list is kept between decisions: each decision
    drops the nodes that turned active since the last one."""

    def __init__(self, rng):
        self.rng = rng
        self._elig = None                # eligible at the last decision
        self._dropped: set[int] = set()  # the active nodes it leaves out

    def decide(self, net, partial):
        if self._elig is None:
            self._elig = list(range(net.node_count))
        elig = self._elig
        # the simulator grows one active set in place, so keep a copy
        newly = partial.active - self._dropped
        for v in newly:
            del elig[bisect.bisect_left(elig, v)]
        self._dropped |= newly
        if not elig:
            return None
        # the pick by index draws as a pick from the list would
        i = self.rng.choice(len(elig), size=1, replace=False)[0]
        return frozenset((elig[i],))


class StaticSeedListPolicy:
    """Executes a precomputed seed list in a single opening step: one
    command, the distinct nodes of its first `budget` entries."""

    def __init__(self, seeds):
        self.seeds = tuple(seeds)
        self.done = False

    def decide(self, net, partial):
        if self.done:
            return None
        self.done = True
        return frozenset(self.seeds[:net.budget]) or None


# module-level so that functools.partial(...) of it pickles for workers
def static_seed_factory(seeds, rng):
    return StaticSeedListPolicy(seeds)


# ---------------------------------------------------------------------------
# live-edge world engine
#
# A world is one draw of every edge's single attempt, each edge live with its
# mean propagation probability.  Every greedy strategy scores candidates by
# how many nodes they reach in a shared batch of worlds (common random
# numbers).  A batch is one format, built by `_flat_keys` alone: node u of
# world r is the key r * n + u, the live edges are (tail, head) key pairs
# sorted by tail, and one flag byte per key has bit 0 on a key no count may
# enter (set with `|= 1`, tested with `& 1`) and bit 1, set once when the
# batch is built, on a key with a live out-edge.  `reach_totals` scores
# every node at once from it, and the re-evaluations of single candidates
# search it (`_flat_reach`).
# ---------------------------------------------------------------------------

_REACH_SLICE = 8192         # live edges whose worlds reach_totals counts at once
_DRAW_BYTES = 1 << 20       # uniforms static greedy and the static estimate
                            # draw at a time; the size changes no result


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


def _flat_keys(net: DicNetwork, pieces, replications: int):
    """The batch (tail, head, flags) of live-edge worlds drawn as (rows,
    edges) pieces, each with ascending rows, in draw order: live edge
    `edges[i]` of a piece runs from key `rows[i] * n + source` to key
    `rows[i] * n + target`.  The keys are stable-sorted by tail, so within
    a world a source's targets keep piece order, then the order within a
    piece; the uint8 flag per key has bit 1 set on the keys of `tail` and
    nothing else.  The keys are int32 while replications * n < 2**31 and
    int64 past it.  Each piece is released once keyed, and the sort's order
    is the only whole-batch int64 temporary, freed before the flags are
    allocated."""
    n = net.node_count
    src, dst, _ = net.edge_arrays
    dtype = np.int32 if replications * n < 2 ** 31 else np.int64
    src, dst = src.astype(dtype), dst.astype(dtype)

    def keyed(rows, edges):
        base = np.empty(len(rows), dtype=dtype)
        np.multiply(rows, n, out=base, casting="unsafe")
        return base + src[edges], base + dst[edges]

    keys = [keyed(*piece) for piece in pieces] or [(np.empty(0, dtype),) * 2]
    tail, head = (np.concatenate(k) for k in zip(*keys))
    del keys
    order = np.argsort(tail, kind="stable")
    tail, head = tail[order], head[order]
    del order
    flags = np.zeros(replications * n, dtype=np.uint8)
    flags[tail] = 2
    return tail, head, flags


def sample_worlds(net: DicNetwork, replications: int, rng):
    """A batch of `replications` live-edge worlds, drawn sparsely: one
    Bernoulli grid per distinct edge mean, on a Philox stream keyed by one
    draw from rng.  Within a world a source's live edges go by ascending
    mean, then by edge id."""
    seed = int(rng.integers(0, 2 ** 63))
    gen = np.random.Generator(np.random.Philox(key=seed))
    means = net.edge_arrays[2]

    def live():                  # one (rows, edges) piece per law group
        for p in np.unique(means):
            group = np.flatnonzero(means == p)
            g = len(group)
            rows, edges = np.divmod(
                _bernoulli_positions(gen, replications * g, float(p)), g)
            edges = group[edges]    # frees the divmod array before the yield
            yield rows, edges

    return _flat_keys(net, live(), replications)


def _flat_reach(worlds, front) -> np.ndarray:
    """The keys reached from the distinct keys `front` over the live edges of
    `worlds` = (tail, head, flags), `front` included, without entering a
    key whose bit 0 is set in `flags`; no key of `front` may have it set.  A
    level-synchronous search of every world at once: each level's keys get
    bit 0 while it runs, only those with bit 1 are searched in `tail`, and
    bit 0 alone is cleared on every key it entered before it returns, so
    every byte of `flags` is left as found."""
    tail, head, flags = worlds
    front = np.asarray(front).astype(tail.dtype, copy=False)
    reached = []
    while len(front):
        bits = flags[front]
        flags[front] = bits | 1
        reached.append(front)
        front = front[bits > 1]         # the keys with a live out-edge
        lo = tail.searchsorted(front)
        count = tail.searchsorted(front, "right") - lo
        at = np.repeat(lo - np.cumsum(count) + count, count)
        at += np.arange(len(at))
        heads = head[at]
        # a sort, not np.unique: its hash table's first call maps about
        # 1.5 MB more of numpy's code into the process
        heads = np.sort(heads[(flags[heads] & 1) == 0])
        first = np.empty(len(heads), dtype=bool)     # not a repeat
        first[:1] = True
        np.not_equal(heads[1:], heads[:-1], out=first[1:])
        front = heads[first]
    keys = np.concatenate([front, *reached])
    flags[keys] &= 0xFE
    return keys


def _search(start, ptr, to, within):
    """Boolean mask of the nodes of `within` reached from the nodes `start`
    (which must lie in `within`) over the edges grouped by tail: the heads
    of node u's edges are `to[ptr[u]:ptr[u + 1]]`.  A breadth-first search
    from every start node of every world at once."""
    seen = np.zeros(len(within), dtype=bool)
    seen[start] = True
    front = start
    while len(front):
        lo = ptr[front]
        count = ptr[front + 1] - lo
        ends = np.cumsum(count)
        heads = to[np.arange(ends[-1]) + np.repeat(lo - ends + count, count)]
        heads = heads[within[heads] & ~seen[heads]]
        fresh = np.zeros_like(seen)
        fresh[heads] = True
        seen |= fresh
        front = np.flatnonzero(fresh)
    return seen


def _slice_reaches(n: int, key_s, key_t):
    """Reach sizes in one slice of worlds, given as the live edges from key
    `key_s[i]` to key `key_t[i]`, node u of world r being the key r * n + u,
    grouped by source key.

    Each key on a live edge gets a compact id and a bit of its world's
    bitset.  In each world, the strongly connected component of the source
    with the most live out-edges (its hub) is contracted: every node of it
    reaches what the hub reaches, found by a forward search, and the
    component is what of that reaches the hub back.  Then a semi-naive fixed
    point ORs the reach bitsets of the targets that grew in the last round
    into their sources, until none grows.  Returns (world, node, reach size
    - 1) per key; a node on no live edge of a world reaches itself alone.
    """
    worlds = int(key_s[-1]) // n + 1
    on_edge = np.zeros(worlds * n, dtype=bool)
    on_edge[key_s] = True
    on_edge[key_t] = True
    keys = np.flatnonzero(on_edge)
    del on_edge
    pairs = len(keys)
    pair_id = np.empty(worlds * n, dtype=np.min_scalar_type(pairs))
    pair_id[keys] = np.arange(pairs)
    es, et = pair_id[key_s], pair_id[key_t]
    del pair_id
    # the ids ascend with the keys, so the edges stay grouped by source; find
    # their order by target: a stable sort of ids of up to 16 bits is a radix
    # sort
    by_head = np.argsort(et, kind="stable")
    es, et = es.astype(np.intp), et.astype(np.intp)
    pair_world, node = np.divmod(keys, n)
    count = np.bincount(pair_world, minlength=worlds)
    start = np.cumsum(count) - count
    bit = np.arange(pairs) - start[pair_world]
    width = (int(count.max()) + 63) // 64        # 64-bit words per bitset
    reach = np.zeros((pairs, width), dtype=np.uint64)
    reach[np.arange(pairs), bit >> 6] = np.left_shift(
        np.uint64(1), (bit & 63).astype(np.uint64))

    # each world's hub, ties to the larger id, and its component
    degree = np.bincount(es, minlength=pairs)
    hub = np.maximum.reduceat(degree * pairs + np.arange(pairs),
                              start[count > 0]) % pairs
    ptr = np.zeros(pairs + 1, dtype=np.intp)
    np.cumsum(degree, out=ptr[1:])
    from_hub = _search(hub, ptr, et, np.ones(pairs, dtype=bool))
    ptr[1:] = np.cumsum(np.bincount(et, minlength=pairs))
    component = _search(hub, ptr, es[by_head], from_hub)
    hub_bits = np.zeros((worlds, width * 64), dtype=bool)
    hub_bits[pair_world[from_hub], bit[from_hub]] = True
    hub_bits = np.packbits(hub_bits, axis=1, bitorder="little").view("<u8")
    reach[component] = hub_bits[pair_world[component]]

    # the fixed point over the other sources' edges
    outside = ~component[es]
    es, et = es[outside], et[outside]
    grew = np.ones(pairs, dtype=bool)
    while True:
        take = grew[et]
        src, gathered = es[take], reach[et[take]]
        if not len(src):
            break
        firsts = np.flatnonzero(np.diff(src, prepend=-1))
        src = src[firsts]
        old = reach[src]
        new = np.bitwise_or.reduceat(gathered, firsts, axis=0)
        new |= old
        changed = (new != old).any(axis=1)
        reach[src[changed]] = new[changed]
        grew = np.zeros(pairs, dtype=bool)
        grew[src[changed]] = True
    size = np.bitwise_count(reach).sum(axis=1, dtype=np.int64)
    return pair_world, node, size - 1


def reach_totals(net: DicNetwork, worlds, replications: int,
                 weight=None) -> list[int]:
    """For every node v, the sum over the `replications` worlds r of the
    batch `worlds` = (tail, head, flags) of `weight[r, v]` (1 when None)
    times the number of keys v's key in world r reaches without entering a
    key whose bit 0 is set, its own included; a key whose bit 0 is set
    reaches itself alone.  For the nodes without bit 0 this is the integer
    that `world_gain` counts for each candidate, for all candidates at once.

    Live edges that touch a key with bit 0 are dropped, and the rest are
    counted by `_slice_reaches` one slice of whole worlds, about
    `_REACH_SLICE` live edges, at a time.
    """
    n = net.node_count
    tail, head, flags = worlds
    if weight is None:
        totals = np.full(n, replications, dtype=np.int64)
    else:
        totals = weight.sum(axis=0, dtype=np.int64)   # every node reaches itself
    # whole worlds of about _REACH_SLICE live edges, and at most
    # 16 * _REACH_SLICE (world, node) cells for the kernel's map of pairs
    step = max(1, min(replications * _REACH_SLICE // max(1, len(tail)),
                      16 * _REACH_SLICE // n))
    starts = np.arange(0, replications, step) * n
    cuts = [*tail.searchsorted(starts.astype(tail.dtype)).tolist(), len(tail)]
    for lo, hi in zip(cuts, cuts[1:]):
        s, t = tail[lo:hi], head[lo:hi]
        kept = ((flags[s] | flags[t]) & 1) == 0
        if not kept.any():
            continue
        first = int(s[0]) // n              # the slice's first world
        world, node, extra = _slice_reaches(n, s[kept] - first * n,
                                            t[kept] - first * n)
        if weight is not None:
            extra *= weight[world + first, node]
        totals += np.bincount(node, extra, n).astype(np.int64)
    return totals.tolist()


def world_gain(net: DicNetwork, worlds, v: int) -> float:
    """Estimated conditional marginal gain of seeding v now, in the batch
    `worlds` = (tail, head, flags) of `_flat_keys` with bit 0 set on the
    keys of the active nodes of every world and no other: v's activation
    probability times the mean number of inactive nodes it reaches per world
    (v included).

    Conditioning on the active set alone is exact.  An edge's single attempt
    is made by its source while that source is in the frontier, and draws are
    revealed only on out-edges of active nodes; a reach that never enters an
    active node therefore never meets an observed edge.
    """
    n = net.node_count
    size = len(worlds[2])
    total = len(_flat_reach(worlds, np.arange(v, size, n)))
    return net.activation[v] * total / (size // n)


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
    cached gains are valid upper bounds and the lazy queue, the one pick
    rule, selects exactly the node an exhaustive argmax of `world_gain`
    would, ties to the smallest id.  Eligibility only shrinks too (it is the
    inactive `candidates`, and the active set only grows), so the queue is
    filled once, at that first decision.
    """

    def __init__(self, net: DicNetwork, replications: int, rng,
                 candidates=None):
        self.net = net
        self.replications = replications
        self.rng = rng
        self.candidates = (frozenset(range(net.node_count))
                           if candidates is None else frozenset(candidates))
        self.step = 0
        self.gain_evaluations = 0
        self._heap: list = []          # (-gain, node, stamp)
        self._worlds = None            # (tail, head, flags) of the batch
        self._flagged: set[int] = set()  # the active nodes flagged in it

    def _gain(self, v):
        self.gain_evaluations += 1
        return world_gain(self.net, self._worlds, v)

    def decide(self, net, partial):
        if not observably_quiescent(net, partial):
            return EMPTY_COMMAND
        active = partial.active
        if self.candidates <= active:            # every candidate is active
            return None
        first = self._worlds is None
        if first:
            self._worlds = sample_worlds(self.net, self.replications, self.rng)
        # flag the nodes that turned active since the last decision in every
        # world; the simulator grows one active set in place, so keep a copy
        flags, n = self._worlds[2], net.node_count
        newly = active - self._flagged
        for u in newly:
            flags[u::n] |= 1
        self._flagged |= newly
        if first:
            # one kernel pass scores the whole first fill; re-evaluations of
            # single candidates search the batch
            reps = self.replications
            elig = _eligible_nodes(net, active, self.candidates)
            totals = reach_totals(self.net, self._worlds, reps)
            self.gain_evaluations += len(elig)
            act = self.net.activation
            self._heap = [(-(act[v] * totals[v] / reps), v, 0) for v in elig]
            heapq.heapify(self._heap)
        # the heap holds candidates only, so an ineligible one is active
        chosen, gain = _lazy_forward(self._heap, self.step, self._gain, active)
        # keep the chosen node queued with its latest gain for later steps
        heapq.heappush(self._heap, (-gain, chosen, self.step))
        self.step += 1
        return frozenset({chosen})


def h_greedy_prune(net: DicNetwork, pre_replications: int, rng):
    """Estimate every node's single-seed expected spread and keep the nodes
    at or above the population mean minus one standard deviation.

    Returns (candidate set, stats) where stats carries the per-node
    estimates, the population mean/std, and the pruned fraction.
    """
    totals = reach_totals(net, sample_worlds(net, pre_replications, rng),
                          pre_replications)
    estimates = tuple(net.activation[v] * totals[v] / pre_replications
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

    def live():                  # one (rows, edges) piece per block
        for lo, block in _draw_below(rng, replications, net.edge_arrays[2]):
            rows, edges = np.nonzero(block)
            yield rows + lo, edges

    worlds = _flat_keys(net, live(), replications)
    covered = worlds[2]         # bit 0: the picks' reach
    success = np.empty((replications, n), dtype=bool)
    for lo, block in _draw_below(rng, replications, np.array(net.activation)):
        success[lo:lo + len(block)] = block
    totals = reach_totals(net, worlds, replications, weight=success)
    evaluations = n
    best = None     # (heap key, keys reached) of the round's best evaluation

    def evaluate(v: int) -> float:
        """v's mean addition to the covered keys, over the worlds where its
        seeding succeeds and it is not covered yet."""
        nonlocal evaluations, best
        evaluations += 1
        start = np.flatnonzero(success[:, v]) * n + v
        reached = _flat_reach(worlds, start[(covered[start] & 1) == 0])
        gain = len(reached) / replications
        if best is None or (-gain, v) < best[0]:
            best = (-gain, v), reached
        return gain

    heap = [(-(totals[v] / replications), v, 0) for v in range(n)]
    heapq.heapify(heap)
    picked: list[int] = []
    for round_no in range(1, min(budget, n) + 1):
        best = None
        v, _ = _lazy_forward(heap, round_no, evaluate)
        # the pick is the top entry scored this round, and every entry scored
        # this round stays queued until popped, so it is the round's best
        # evaluation; the covered keys have not changed since it
        picked.append(v)
        covered[best[1]] |= 1
    return picked, evaluations
