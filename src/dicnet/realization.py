"""Full and partial realizations of the cascade's random outcomes.

A full realization fixes every random coordinate a run reads, as two byte
strings: per node a length-B vector of seeding-attempt outcome bits,
consumed in order, and per edge its single attempt's success bit (the drawn
propagation value decides the bit and is not kept).  A partial realization
records only what the policies read of the observation; the simulator keeps
the full realization, and where each node's next attempt bit is read,
private.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DicNetwork


@dataclass(frozen=True)
class FullRealization:
    """Flat, as `map_uniforms` lays the coordinates out: bit j of node v at
    `seed_bits[v*B + j]`, and edge e's success bit at `success[e]`; each
    byte is 0 or 1."""

    seed_bits: bytes                             # node-major
    success: bytes


@dataclass
class PartialRealization:
    """Observable history as the policies read it: the active set and
    whether the observed cascade is quiescent (kept up to date by
    `step_round`).  The outcome of each round is in the state's trace."""

    active: set[int] = field(default_factory=set)
    quiescent: bool = True


def map_uniforms(net: DicNetwork, u: np.ndarray):
    """Map a K x (n*B + 2m) block of uniforms, one realization per row, to
    its coordinates: seed bits (K x n*B, node-major) and edge success bits
    (K x m).

    Seed bit j of node v is `u[v*B + j] < activation[v]`; edge e's value is
    the first atom of its law whose cumulative mass is >= `u[nB + e]`, or
    the law's last atom (the comparisons `bisect_left` makes, done by one
    `searchsorted` over `net.atom_table` keyed by (law, draw)); its attempt
    succeeds when `u[nB + m + e] < value`.
    """
    base = net.node_count * net.budget
    m = len(net.edges)
    atom_keys, atom_values, edge_last = net.atom_table
    keys = np.empty((u.shape[0], m), dtype=np.complex128)
    keys.real = net.edge_laws[1]
    keys.imag = u[:, base:base + m]
    k = np.searchsorted(atom_keys, keys, side="left")
    values = atom_values[np.minimum(k, edge_last, out=k)]
    return u[:, :base] < net.attempt_activation, u[:, base + m:] < values


def sample_full(net: DicNetwork, rng) -> FullRealization:
    """Draw a full realization from the prior.

    Consumes randomness in a fixed order (seed bits, then edge draws, then
    edge attempts) so replications are reproducible from the stream alone.
    """
    n, b = net.node_count, net.budget
    m = len(net.edges)
    u = rng.random(n * b + 2 * m)            # one draw call: seeds, draws, attempts
    seeds, success = map_uniforms(net, u.reshape(1, -1))
    return FullRealization(seeds[0].tobytes(), success[0].tobytes())


def log_probability(net: DicNetwork, x: FullRealization) -> float:
    """Log-probability of a full realization under the network's law: each
    seed bit under its node's activation, each success bit under its edge's
    mean propagation probability."""
    logp = 0.0

    def _ln(p: float) -> float:
        return math.log(p) if p > 0.0 else float("-inf")

    b = net.budget
    for v in range(net.node_count):
        p = net.activation[v]
        for bit in x.seed_bits[v * b:(v + 1) * b]:
            logp += _ln(p) if bit else _ln(1.0 - p)
    for mean, success in zip(net.edge_arrays[2].tolist(), x.success):
        logp += _ln(mean) if success else _ln(1.0 - mean)
    return logp
