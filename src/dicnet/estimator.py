"""Monte Carlo spread estimation with deterministic parallel replications.

Replication i always draws from counter-based streams keyed on
(master_seed, i, purpose), so results are bit-identical for any worker
count; the reduction sums partial results in replication-index order.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diffusion import run_policy
from .model import DicNetwork
from .realization import PartialRealization, map_uniforms, sample_full
from .strategies import (_DRAW_BYTES, StaticSeedListPolicy, _flat_keys,
                         _flat_reach)

# every stream's purpose, in one table: distinct purposes never collide
PURPOSE_WORLD = 0           # replication i's world
PURPOSE_POLICY = 1          # replication i's policy
PURPOSE_SELECT = 10         # static greedy's selection, indexed by budget
PURPOSE_PRUNE = 11          # h-greedy's prune, indexed by budget
PURPOSE_PROPERTIES = 42     # the oracle's property trials, index 0

SEED_LIMIT = 1 << 64        # a master seed is one 64-bit word of the key
INDEX_LIMIT = 1 << 56       # the other packs (index << 8) | purpose into 64 bits

# a block of static replications holds about `_DRAW_BYTES` of uniforms, in
# at most BLOCK_ROWS rows; the block size changes no result
BLOCK_ROWS = 4096


def _check_master_seed(master_seed: int) -> None:
    # a seed outside the word would silently alias one inside it
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"master seed {master_seed} outside [0, 2**64)")


def substream(master_seed: int, index: int, purpose: int = 0):
    """Independent generator for one replication, derived from the key alone
    (counter-based, so no state is shared between indices).  Distinct
    (master_seed, index, purpose) triples in [0, 2**64) x [0, 2**56) x
    [0, 256) give distinct streams."""
    _check_master_seed(master_seed)
    if not 0 <= index < INDEX_LIMIT:
        raise ValueError(f"stream index {index} outside [0, 2**56)")
    if not 0 <= purpose < 256:
        raise ValueError(f"stream purpose {purpose} outside [0, 256)")
    key = np.array([master_seed, (index << 8) | purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_delta(delta: float):
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")


def hoeffding_samples(n: float, eps: float, delta: float) -> int:
    """Minimal replication count R such that the sample mean of [0, n]-bounded
    draws satisfies P(|mean - mu| >= eps) <= delta."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_delta(delta)
    return math.ceil(n * n * math.log(2.0 / delta) / (2.0 * eps * eps))


def half_width(n: float, replications: int, delta: float) -> float:
    """Hoeffding confidence half-width for [0, n]-bounded samples."""
    _check_delta(delta)
    return n * math.sqrt(math.log(2.0 / delta) / (2.0 * replications))


@dataclass(frozen=True)
class Estimate:
    mean: float
    replications: int
    half_width: float
    master_seed: int


@dataclass(frozen=True)
class ReplicationResult:
    replication: int
    spread: int
    rounds: int
    seeds_used: int
    gain_evaluations: int
    wall_time_ms: float          # per-seed-selection wall time


class _StreamPool:
    """Reusable generators producing exactly the `substream` streams, without
    paying bit-generator construction per replication: `get` re-keys one
    Philox per purpose from a state template of plain ints, which the state
    setter copies without converting a numpy scalar."""

    def __init__(self, master_seed: int):
        _check_master_seed(master_seed)
        self.master_seed = master_seed
        self._slots: dict[int, tuple] = {}

    def get(self, index: int, purpose: int):
        slot = self._slots.get(purpose)
        if slot is None:
            bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
            key = [self.master_seed, 0]
            template = {
                "bit_generator": "Philox",
                "state": {"counter": (0, 0, 0, 0), "key": key},
                "buffer": (0, 0, 0, 0),
                "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            slot = (bitgen, np.random.Generator(bitgen), template, key)
            self._slots[purpose] = slot
        bitgen, gen, template, key = slot
        key[1] = (index << 8) | purpose
        bitgen.state = template            # the setter copies the ints
        return gen


def _run_chunk(net: DicNetwork, policy_factory, master_seed: int,
               start: int, stop: int) -> list[ReplicationResult]:
    pool = _StreamPool(master_seed)
    rows = []
    for i in range(start, stop):
        x = sample_full(net, pool.get(i, PURPOSE_WORLD))
        policy = policy_factory(pool.get(i, PURPOSE_POLICY))
        t0 = time.perf_counter()
        run = run_policy(net, policy, x)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        per_seed = elapsed_ms / max(1, len(run.seeds))
        rows.append(ReplicationResult(i, run.spread, run.rounds,
                                      len(run.seeds), run.gain_evaluations,
                                      per_seed))
    return rows


def _static_spread_total(net: DicNetwork, roots, master_seed: int,
                         start: int, stop: int) -> int:
    """Spread total over a replication range of the run whose one command,
    a static seed list's, seeds the ascending nodes `roots`.

    It ends with what the roots whose first attempt succeeds reach over
    successful edges, so it needs no round-by-round driver.  Each
    replication's uniforms come from its own world stream, as `sample_full`
    draws them, into one row of a block; each block is mapped once and every
    row's reach is counted by one search of the block's flat keys from the
    roots whose seeding succeeded.
    """
    n, b = net.node_count, net.budget
    width = n * b + 2 * len(net.edges)
    roots = np.array(roots, dtype=np.intp)
    pool = _StreamPool(master_seed)
    block = np.empty((max(1, min(BLOCK_ROWS, _DRAW_BYTES // (8 * width))),
                      width))
    total = 0
    for lo in range(start, stop, len(block)):
        u = block[:min(len(block), stop - lo)]
        for row, i in zip(u, range(lo, stop)):
            pool.get(i, PURPOSE_WORLD).random(out=row)
        bits, success = map_uniforms(net, u)
        worlds = _flat_keys(net, [np.nonzero(success)], len(u))
        world, root = np.nonzero(bits[:, roots * b])
        total += len(_flat_reach(worlds, world * n + roots[root]))
    return total


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(chunk_fn, net: DicNetwork, arg, master_seed: int,
                replications: int, workers: int):
    """Yields `chunk_fn(net, arg, master_seed, start, stop)` over chunks of
    [0, replications) in replication order: serially in chunks of at most
    `BLOCK_ROWS` replications, or on `workers` processes.  A caller that
    reduces each result as it arrives holds one chunk at a time.  The chunks
    depend on `workers` alone; the pool has no more processes than chunks
    or usable CPUs."""
    # replication indices must stay below INDEX_LIMIT so that every
    # replication gets its own streams
    if not 1 <= replications <= INDEX_LIMIT:
        raise ValueError(f"replications must be in [1, 2**56], got {replications}")
    if workers <= 1:
        for s in range(0, replications, BLOCK_ROWS):
            yield chunk_fn(net, arg, master_seed, s,
                           min(s + BLOCK_ROWS, replications))
        return
    chunk = max(1, -(-replications // (workers * 4)))
    starts = range(0, replications, chunk)
    size = min(workers, len(starts), _usable_cpus())
    with ProcessPoolExecutor(max_workers=size) as pool:
        futures = deque(pool.submit(chunk_fn, net, arg, master_seed,
                                    s, min(s + chunk, replications))
                        for s in starts)
        while futures:                  # submission order; drop each once read
            yield futures.popleft().result()


def run_replications(net: DicNetwork, policy_factory, replications: int,
                     master_seed: int, workers: int = 1) -> list[ReplicationResult]:
    """One policy run per replication, in replication order.

    `policy_factory(rng) -> policy` must be picklable when workers > 1
    (a module-level function or class, or functools.partial of one).
    """
    return [row for rows in _map_chunks(_run_chunk, net, policy_factory,
                                        master_seed, replications, workers)
            for row in rows]


def estimate_policy_spread(net: DicNetwork, policy_factory, replications: int,
                           master_seed: int, delta: float = 0.01,
                           workers: int = 1) -> Estimate:
    """Mean spread of the policy over `replications` independent realizations,
    with a Hoeffding half-width at confidence 1 - delta.

    When replication 0's policy is a `StaticSeedListPolicy` built without a
    draw from its stream, every one is taken to seed that list: its
    command's spread is counted a block at a time, and only the command goes
    to the workers."""
    _check_delta(delta)                 # before any replication runs
    rng = substream(master_seed, 0, PURPOSE_POLICY)
    policy = policy_factory(rng)
    state = rng.bit_generator.state     # a draw moves the counter
    if (type(policy) is StaticSeedListPolicy and state["buffer_pos"] == 4
            and not state["state"]["counter"].any()):
        roots = sorted(policy.decide(net, PartialRealization()) or ())
        total = sum(_map_chunks(_static_spread_total, net, roots, master_seed,
                                replications, workers))
    else:                        # one chunk of results alive at a time
        total = sum(sum(r.spread for r in rows)
                    for rows in _map_chunks(_run_chunk, net, policy_factory,
                                            master_seed, replications, workers))
    return Estimate(total / replications, replications,
                    half_width(net.node_count, replications, delta),
                    master_seed)
