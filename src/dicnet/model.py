"""Core network data model: edge propagation distributions and the cascade network."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

ABS_TOL = 1e-9
MAX_BINS = 10 ** 6      # most bins an exponential law is quantized into


@dataclass(frozen=True)
class PropagationDistribution:
    """Finite-support law of an edge's propagation probability.

    `values` are probabilities in [0, 1], strictly increasing; `masses` are the
    corresponding point masses summing to one.  Construction does not validate;
    call `check()` (or go through the factory functions below, which do raise).
    """

    values: tuple[float, ...]
    masses: tuple[float, ...]

    def check(self) -> str | None:
        """Return a violation message, or None if the distribution is valid."""
        if len(self.values) == 0:
            return "empty support"
        if len(self.values) != len(self.masses):
            return "values/masses length mismatch"
        for v in self.values:
            if not (0.0 <= v <= 1.0):
                return f"value {v} outside [0,1]"
        for m in self.masses:
            if not (0.0 < m <= 1.0):
                return f"mass {m} outside (0,1]"
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                return f"values not strictly increasing at {a}, {b}"
        total = math.fsum(self.masses)
        if abs(total - 1.0) > ABS_TOL:
            return f"mass sum {total}"
        return None

    @cached_property
    def cum_masses(self) -> tuple[float, ...]:
        acc, out = 0.0, []
        for m in self.masses:
            acc += m
            out.append(acc)
        out[-1] = 1.0
        return tuple(out)


def mean_propagation(d: PropagationDistribution) -> float:
    """Expected propagation probability, sum of value * mass."""
    return math.fsum(v * m for v, m in zip(d.values, d.masses))


def fixed_distribution(p: float) -> PropagationDistribution:
    """Degenerate distribution putting all mass on a single probability."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0,1]")
    return PropagationDistribution((float(p),), (1.0,))


def uniform_discrete_distribution(values) -> PropagationDistribution:
    """Equal mass on each of the given distinct probabilities."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("empty value set")
    if len(set(vals)) != len(vals):
        raise ValueError("duplicate values")
    for v in vals:
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"value {v} outside [0,1]")
    vals.sort()
    n = len(vals)
    return PropagationDistribution(tuple(vals), (1.0 / n,) * n)


def quantize_exponential(mean: float, bins: int) -> PropagationDistribution:
    """Discretize an exponential law, clipped to [0,1], into equal-mass bins.

    The exponential with the given mean is split at its own quantiles into
    `bins` bins of mass 1/bins, at most MAX_BINS; each atom sits at the
    conditional mean of min(X, 1) over its bin.  Mass beyond 1 collapses
    into a top atom at 1.
    """
    if not 0.0 < mean < math.inf:
        raise ValueError(f"mean {mean} must be positive and finite")
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins {bins} outside [1, {MAX_BINS}]")
    mu = float(mean)
    tail_at_1 = math.exp(-1.0 / mu)  # P[X > 1]
    atoms: list[float] = []
    for i in range(bins):
        lo_tail = 1.0 - i / bins           # e^{-a/mu}
        hi_tail = 1.0 - (i + 1) / bins     # e^{-b/mu}, 0 for the last bin
        a = -mu * math.log(lo_tail)
        if lo_tail <= tail_at_1:
            # whole bin lies beyond the clip point
            atoms.append(1.0)
        elif hi_tail >= tail_at_1:
            # whole bin below 1: shifted truncated exponential, numerically stable
            if hi_tail == 0.0:
                atoms.append(a + mu)
            else:
                c = mu * math.log(lo_tail / hi_tail)  # bin width b - a
                r = math.exp(-c / mu)
                atoms.append(a + mu - c * r / (1.0 - r))
        else:
            # bin straddles 1: integral part below 1 plus clipped mass at 1
            part = (a + mu) * lo_tail - (1.0 + mu) * tail_at_1
            clipped = tail_at_1 - hi_tail
            atoms.append(min(1.0, (part + clipped) / (1.0 / bins)))
    # merge any atoms clipped to 1 into one top atom
    n_top = sum(1 for v in atoms if v >= 1.0)
    if n_top > 1:
        atoms = atoms[: bins - n_top] + [1.0]
        masses = (1.0 / bins,) * (bins - n_top) + (n_top / bins,)
    else:
        masses = (1.0 / bins,) * bins
    return PropagationDistribution(tuple(min(1.0, v) for v in atoms), masses)


@dataclass(frozen=True)
class DicNetwork:
    """Directed network with per-node seed-activation probability and
    per-edge propagation-probability distribution, plus a seeding budget."""

    node_count: int
    activation: tuple[float, ...]
    edges: tuple[tuple[int, int, PropagationDistribution], ...]
    budget: int

    def with_budget(self, budget: int) -> DicNetwork:
        """This network at another budget, sharing every view computed so
        far that does not read the budget."""
        net = replace(self, budget=budget)
        for name in ("out_edges", "edge_laws", "atom_table", "edge_arrays"):
            if name in vars(self):
                vars(net)[name] = vars(self)[name]
        return net

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, tuple of (edge index, target)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for idx, (src, dst, _) in enumerate(self.edges):
            adj[src].append((idx, dst))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def attempt_activation(self) -> np.ndarray:
        """Per seeding attempt, node-major (node v's B attempts at columns
        v*B .. v*B + B - 1), the activation probability of its node."""
        return np.repeat(np.array(self.activation, dtype=np.float64),
                         self.budget)

    @cached_property
    def edge_laws(self) -> tuple[tuple[PropagationDistribution, ...], np.ndarray]:
        """The distinct law objects in order of first use, and per edge the
        index of its law among them."""
        index: dict[int, int] = {}
        laws: list[PropagationDistribution] = []
        for _, _, dist in self.edges:
            if index.setdefault(id(dist), len(laws)) == len(laws):
                laws.append(dist)
        of_edge = np.fromiter((index[id(d)] for _, _, d in self.edges),
                              dtype=np.intp, count=len(self.edges))
        return tuple(laws), of_edge

    @cached_property
    def atom_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every law's atoms end to end, in law order, so that one
        `searchsorted` serves all edges whatever their laws: per atom the
        key `law index + 1j * cumulative mass`, which numpy orders by law
        and then by mass, and the atom's value; per edge the position of
        its law's last atom."""
        laws, of_edge = self.edge_laws
        keys = np.empty(sum(len(d.values) for d in laws), dtype=np.complex128)
        keys.real = [i for i, d in enumerate(laws) for _ in d.values]
        keys.imag = [c for d in laws for c in d.cum_masses]
        values = np.array([v for d in laws for v in d.values], dtype=np.float64)
        last = np.cumsum([len(d.values) for d in laws], dtype=np.intp) - 1
        return keys, values, last[of_edge]

    @cached_property
    def edge_arrays(self):
        """(src, dst, mean) numpy arrays over edges, for vectorized masking;
        each law's mean is computed once."""
        m = len(self.edges)
        src = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=m)
        dst = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=m)
        laws, of_edge = self.edge_laws
        means = np.array([mean_propagation(d) for d in laws], dtype=np.float64)
        return src, dst, means[of_edge]


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of `mask`, or its length if none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def validate_network(net: DicNetwork) -> str | None:
    """Return the first violated invariant as a message, or None when valid.

    Edges are checked in order, each for endpoints in range, then for a
    self-loop, a repeat of an earlier edge and its law, as one loop over
    them would; the checks run over `edge_arrays` and `edge_laws`, which
    the network keeps, and each law's `check()` runs once, at its first
    edge, if no edge before that one failed."""
    n = net.node_count
    if n < 1:
        return "node count must be positive"
    if len(net.activation) != n:
        return f"activation list has {len(net.activation)} entries for {n} nodes"
    for v, p in enumerate(net.activation):
        if not (0.0 <= p <= 1.0):
            return f"activation[{v}] = {p} outside [0,1]"
    if not (1 <= net.budget <= n):
        return f"budget {net.budget} outside [1, {n}]"
    try:
        src, dst, _ = net.edge_arrays
    except OverflowError:               # an endpoint beyond int64: out of range
        src, dst = (np.array([e[k] for e in net.edges], dtype=object)
                    for k in (0, 1))
    stop = _first((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
    # the edges before the first out-of-range one fit in [0, n)
    src, dst = src[:stop].astype(np.int64), dst[:stop].astype(np.int64)
    loop = _first(src == dst)
    order = np.lexsort((dst, src))      # stable: a repeat sorts after its first
    repeat = ((src[order[1:]] == src[order[:-1]])
              & (dst[order[1:]] == dst[order[:-1]]))
    bad = min(stop, loop, int(order[1:][repeat].min(initial=stop)))
    laws, of_edge = net.edge_laws
    _, first_use = np.unique(of_edge, return_index=True)
    for dist, i in zip(laws, first_use.tolist()):   # laws in first-use order
        if i >= bad:
            break
        msg = dist.check()
        if msg is not None:
            u, w, _ = net.edges[i]
            return f"edge ({u},{w}): {msg}"
    if bad == len(net.edges):
        return None
    u, w, _ = net.edges[bad]
    if bad == stop:
        return f"edge ({u},{w}) endpoint out of range"
    if bad == loop:
        return f"self-loop at node {u}"
    return f"duplicate edge ({u},{w})"
