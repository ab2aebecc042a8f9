"""Network ingestion, synthesis, and serialization.

Covers a preferential-attachment power-law generator,
propagation/activation presets, and a JSON format that round-trips
DicNetwork exactly.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass

import numpy as np

from .model import (DicNetwork, PropagationDistribution, fixed_distribution,
                    quantize_exponential, uniform_discrete_distribution,
                    validate_network)


class SchemaError(ValueError):
    """Malformed network file or preset."""


def _json_number(x, kinds=(int, float)):
    """x if its type is one of `kinds`: a JSON bool or numeric string is no
    number, and a fraction is no integer."""
    if type(x) not in kinds:
        raise TypeError(f"expected {kinds[-1].__name__}, got {x!r}")
    return x


@dataclass(frozen=True)
class PresetSpec:
    """One propagation distribution applied to every edge, plus a scalar
    activation probability applied to every node."""

    distribution: PropagationDistribution
    activation: float = 0.5


def parse_preset(text: str, activation: float = 0.5) -> PresetSpec:
    """Parse 'f1:p', 'f2:mean,bins', or 'f3:v1,v2,...' preset strings."""
    if type(activation) not in (int, float) or not 0.0 <= activation <= 1.0:
        raise SchemaError(f"activation {activation!r} outside [0, 1]")
    try:
        name, _, arg = text.partition(":")
        name = name.lower()
        if name == "f1":
            dist = fixed_distribution(float(arg))
        elif name == "f2":
            mean_s, bins_s = arg.split(",")
            dist = quantize_exponential(float(mean_s), int(bins_s))
        elif name == "f3":
            dist = uniform_discrete_distribution(
                [float(v) for v in arg.split(",")])
        else:
            raise ValueError(f"unknown preset family {name!r}")
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"bad preset {text!r}: {exc}") from None
    return PresetSpec(dist, activation)


def _pick(weights: np.ndarray, prefix: np.ndarray, u: float) -> int:
    """The node that `Generator.choice(len(weights), p=weights / s)` gives
    for the uniform u, where `prefix` is the exact cumulative sum of the
    integer `weights` and s its last entry.

    The pick is the first index whose prefix exceeds u * s.  Choice's own
    steps (normalise, cumulative sum, renormalise, `searchsorted`) round,
    so they can decide differently only when u lies within their rounding
    error of a boundary prefix[k] / s; there this falls back to them.
    """
    s = prefix.item(-1)
    x = u * s
    t = int(prefix.searchsorted(x, side="right"))
    # With eps = 2**-53, i = len(weights) and P_k = prefix[k] / s (s itself
    # is exact): each w / s rounds once (eps), so a float cumsum of k + 1
    # terms is within (k + 1) eps P_k of P_k, and dividing by the cumsum's
    # last entry (itself within i eps of 1) and rounding again adds i eps +
    # eps.  So, to first order, choice's cdf[k] lies within (2i + 2) eps of
    # P_k, and x / s within eps of u.  Both paths agree unless u is within
    # (2i + 3) eps of the nearest P_k on either side; the margin, 8 (i + 4)
    # eps, covers that and the rounding of the two differences below with
    # room to spare.
    tol = (len(prefix) + 4) * 2.0 ** -50 * s
    if (t < len(prefix) and prefix.item(t) - x > tol
            and (not t or x - prefix.item(t - 1) > tol)):
        return t
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def generate_power_law(n: int, edges_target: int, rng_seed: int,
                       preset: PresetSpec, budget: int,
                       skew: float = 0.0) -> DicNetwork:
    """Preferential-attachment graph with reciprocated edges and a
    heavy-tailed degree sequence, hitting edges_target directed edges.

    Nodes arrive in order; node i brings a stub count skewed toward early
    arrivals (so hubs emerge even at a high average degree) and wires each
    stub to an existing node chosen with probability proportional to the
    square of its degree, which sharpens the hub hierarchy.  A node's
    picks are distinct earlier nodes, so every pair is new and the stub
    counts alone hit the target: no top-up pass is needed.  Every
    undirected pair is stored as two directed edges.  `skew` controls how
    steeply the stub budget concentrates on early arrivals (larger values
    give a denser core and more degree-poor fringe nodes).

    Each pick turns one double of the Philox `random()` stream into a node
    as `Generator.choice` would.  The squared degrees are integers, so their
    running sums are exact float64 integers while 2 pair_target (n - 1) <
    2**53 (checked up front): a node's prefix sums are built once, a pick
    is a `searchsorted` of u times their total, and the picked weight is
    subtracted from the prefixes after it.  Only when u lies within a
    rounding margin of a boundary does `_pick` take choice's own rounded
    steps, so the nets are the ones those steps give, byte for byte.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if edges_target % 2:
        raise ValueError("edges_target must be even (edges are reciprocated)")
    pair_target = edges_target // 2
    max_pairs = n * (n - 1) // 2
    if not (n - 1 <= pair_target <= max_pairs):
        raise ValueError(f"edges_target {edges_target} not achievable "
                         f"with {n} nodes")
    # a squared-degree prefix is at most (largest degree) x (degree sum)
    # < (n - 1) x 2 pair_target, which must stay an exact float64 integer
    if 2 * pair_target * (n - 1) >= 2 ** 53:
        raise ValueError(f"{n} nodes and {edges_target} edges exceed the "
                         f"generator's exact range")
    # `validate_network`'s checks of what the caller supplies; the wiring
    # gives endpoints in range, no self-loops and no duplicate edges
    if not 0.0 <= preset.activation <= 1.0:
        raise SchemaError(f"activation[0] = {preset.activation} outside [0,1]")
    if not 1 <= budget <= n:
        raise SchemaError(f"budget {budget} outside [1, {n}]")
    problem = preset.distribution.check()
    if problem:                         # its first edge is always (0, 1)
        raise SchemaError(f"edge (0,1): {problem}")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    # every arriving node brings one connecting stub plus a rank-skewed share
    # of the remaining pair budget; early arrivals carry the surplus so the
    # degree sequence stays heavy-tailed even at high average degree
    raw = np.arange(1, n, dtype=float) ** -skew  # weight of arriving node i
    extra = pair_target - (n - 1)
    stubs = 1 + np.floor(raw * extra / raw.sum()).astype(int)
    stubs = np.minimum(stubs, np.arange(1, n))   # node i has only i predecessors
    # the floors undershoot the target and the caps sum to max_pairs, so one
    # pass, highest weight first, raises stubs up to their caps to close it
    diff = pair_target - int(stubs.sum())
    for j in np.argsort(-raw, kind="stable").tolist():
        if not diff:
            break
        room = min(diff, j + 1 - int(stubs[j]))
        stubs[j] += room
        diff -= room
    degree = np.zeros(n)
    degree[0] = 1.0                               # seed weight for the first pick
    pairs: list[tuple[int, int]] = []
    for i in range(1, n):
        weights = degree[:i] ** 2.0
        prefix = weights.cumsum()                 # exact: integers below 2**53
        for u in rng.random(int(stubs[i - 1])).tolist():
            t = _pick(weights, prefix, u)
            pairs.append((t, i))
            prefix[t:] -= weights[t]              # integers: stays exact
            weights[t] = 0.0                      # no duplicate pairs from one node
            degree[t] += 1.0
            degree[i] += 1.0
    law = preset.distribution
    edges = tuple(e for u, w in pairs for e in ((u, w, law), (w, u, law)))
    return DicNetwork(n, (preset.activation,) * n, edges, budget)


def _dist_to_json(dist: PropagationDistribution) -> dict:
    if len(dist.values) == 1:
        return {"type": "fixed", "p": dist.values[0]}
    if len(set(dist.masses)) == 1:
        return {"type": "uniform", "values": list(dist.values)}
    return {"type": "discrete",
            "support": [[v, m] for v, m in zip(dist.values, dist.masses)]}


def _dist_from_json(obj: dict, where: str) -> PropagationDistribution:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: dist must be an object")
    try:
        kind = obj["type"]
        if kind == "fixed":
            return fixed_distribution(_json_number(obj["p"]))
        if kind == "uniform":
            return uniform_discrete_distribution(
                [_json_number(v) for v in obj["values"]])
        if kind == "discrete":
            support = obj["support"]
            return PropagationDistribution(
                tuple(float(_json_number(v)) for v, _ in support),
                tuple(float(_json_number(m)) for _, m in support))
        if kind == "exp":
            return quantize_exponential(_json_number(obj["mean"]),
                                        _json_number(obj["bins"], (int,)))
    except KeyError as exc:
        raise SchemaError(f"{where}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: bad dist: {exc}") from None
    raise SchemaError(f"{where}: unknown dist type {kind!r}")


def save_network(net: DicNetwork, path: str) -> None:
    """Write `net` as the bytes `json.dumps` gives for its document, with
    each law object encoded once: equal laws may still print differently
    (1 against 1.0), so laws are told apart by identity."""
    laws = {id(d): d for _, _, d in net.edges}
    dists = {key: json.dumps(_dist_to_json(d)) for key, d in laws.items()}
    header = json.dumps({
        "nodes": net.node_count,
        "budget": net.budget,
        "activation": (net.activation[0]
                       if len(set(net.activation)) == 1
                       else list(net.activation)),
    })
    # an int prints as json.dumps prints it; any other endpoint goes through
    # json.dumps itself
    edges = ", ".join(
        f'{{"src": {u if type(u) is int else json.dumps(u)}, '
        f'"dst": {w if type(w) is int else json.dumps(w)}, '
        f'"dist": {dists[id(d)]}}}'
        for u, w, d in net.edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{header[:-1]}, "edges": [{edges}]}}\n')


def _reject_edge(e, where: str):
    """Raise the SchemaError of an edge object that is not
    {"src": int, "dst": int, "dist": ...}, naming its first fault."""
    if not isinstance(e, dict):
        raise SchemaError(f"{where}: edge must be an object")
    for field in ("src", "dst", "dist"):
        if field not in e:
            raise SchemaError(f"{where}: missing field {field!r}")
    for field in ("src", "dst"):
        try:
            _json_number(e[field], (int,))
        except TypeError as exc:
            raise SchemaError(f"{where}: bad endpoint: {exc}") from None


def load_network(path: str) -> DicNetwork:
    """The network in the JSON file at `path`, validated; a malformed file
    raises SchemaError naming its first fault.  The edges are read in one
    pass, which parses each distinct law once and hands the network its
    `edge_laws` view."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    for field in ("nodes", "budget", "activation", "edges"):
        if field not in doc:
            raise SchemaError(f"{path}: missing field {field!r}")
    items = doc.pop("edges")
    if not isinstance(items, list):
        raise SchemaError(f"{path}: edges must be a list")
    try:
        n = _json_number(doc["nodes"], (int,))
        budget = _json_number(doc["budget"], (int,))
        act = doc["activation"]
        activation = (tuple(float(_json_number(a)) for a in act)
                      if isinstance(act, list)
                      else (float(_json_number(act)),) * n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad nodes, budget or activation: {exc}") from None
    # one parsed law per distinct dist value.  The key is its marshal bytes,
    # which tell `true` from 1 and 2.0 from the integer 2 where == would
    # not; version 2 writes no back-references, so equal values give equal
    # bytes whatever objects they share.
    dumps = marshal.dumps
    index: dict[bytes, int] = {}
    laws: list[PropagationDistribution] = []
    of_edge: list[int] = []
    edges = []
    for i, e in enumerate(items):
        try:
            src, dst, dist = e["src"], e["dst"], e["dist"]
        except (TypeError, KeyError):
            src = dst = None
        if type(src) is not int or type(dst) is not int:
            _reject_edge(e, f"{path}: edges[{i}]")
        k = index.setdefault(dumps(dist, 2), len(laws))
        if k == len(laws):
            laws.append(_dist_from_json(dist, f"{path}: edges[{i}]"))
        of_edge.append(k)
        edges.append((src, dst, laws[k]))
    del items                   # the parsed edge objects, before validating
    net = DicNetwork(n, activation, tuple(edges), budget)
    vars(net)["edge_laws"] = (tuple(laws), np.array(of_edge, dtype=np.intp))
    problem = validate_network(net)
    if problem:
        raise SchemaError(f"{path}: {problem}")
    return net
