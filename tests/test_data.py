"""Presets, the power-law generator, and JSON round-trips."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dicnet.data import (PresetSpec, SchemaError, _dist_from_json,
                         _dist_to_json, _json_number, _pick,
                         generate_power_law, load_network, parse_preset,
                         save_network)
from dicnet.fixtures import fixture_g1, two_node_fixture
from dicnet.model import DicNetwork, PropagationDistribution, validate_network
from test_model import _reference_validate

PRESET = parse_preset("f1:0.1")
INF = float("inf")


def test_parse_preset_families():
    p = parse_preset("f1:0.25", activation=0.7)
    assert p.distribution.values == (0.25,)
    assert p.activation == 0.7
    p = parse_preset("f2:0.05,8")
    assert len(p.distribution.values) == 8
    assert p.distribution.check() is None
    p = parse_preset("f3:0.1,0.01,0.001")
    assert p.distribution.values == (0.001, 0.01, 0.1)
    for bad in ("f4:0.1", "f1:x", "f2:0.05", "f3:", "f1:1.5", "f2:nan,3",
                "f2:inf,3", "f2:0.1,100000000000"):
        with pytest.raises(SchemaError):
            parse_preset(bad)


def test_generator_determinism_and_exact_edge_count():
    net1 = generate_power_law(200, 2000, 7, PRESET, budget=5)
    net2 = generate_power_law(200, 2000, 7, PRESET, budget=5)
    assert net1 == net2
    assert len(net1.edges) == 2000
    assert validate_network(net1) is None
    net3 = generate_power_law(200, 2000, 8, PRESET, budget=5)
    assert net3 != net1


def test_generator_edges_are_reciprocated():
    net = generate_power_law(50, 400, 3, PRESET, budget=2)
    pairs = {(u, w) for u, w, _ in net.edges}
    assert all((w, u) in pairs for u, w in pairs)
    assert len(pairs) == 400


def test_generator_degree_distribution_is_heavy_tailed():
    # top 1% of nodes must hold a large share of the edge endpoints
    net = generate_power_law(1000, 10000, 42, PRESET, budget=10)
    deg = np.zeros(1000)
    for u, _, _ in net.edges:
        deg[u] += 1
    top = np.sort(deg)[-10:].sum()
    assert top / deg.sum() >= 0.10


def test_generator_minimal_and_invalid_targets():
    tiny = generate_power_law(2, 2, 0, PRESET, budget=1)
    assert sorted((u, w) for u, w, _ in tiny.edges) == [(0, 1), (1, 0)]
    with pytest.raises(ValueError):
        generate_power_law(10, 2001, 0, PRESET, 1)       # odd target
    with pytest.raises(ValueError):
        generate_power_law(10, 4, 0, PRESET, 1)          # below n-1 pairs
    with pytest.raises(ValueError):
        generate_power_law(10, 200, 0, PRESET, 1)        # above complete graph
    with pytest.raises(ValueError):
        generate_power_law(1, 2, 0, PRESET, 1)
    # the caller's budget, activation and law, checked before the draw with
    # the messages `validate_network` gives for the net they would build
    bad_law = PropagationDistribution((0.2, 0.1), (0.5, 0.5))
    for preset, budget, message in (
            (PRESET, 0, r"^budget 0 outside \[1, 10\]$"),
            (PRESET, 11, r"^budget 11 outside \[1, 10\]$"),
            (PresetSpec(PRESET.distribution, 1.5), 1,
             r"^activation\[0\] = 1.5 outside \[0,1\]$"),
            (PresetSpec(PRESET.distribution, float("nan")), 1,
             r"^activation\[0\] = nan outside \[0,1\]$"),
            (PresetSpec(bad_law), 1,
             r"^edge \(0,1\): values not strictly increasing at 0.2, 0.1$"),
            (PresetSpec(PropagationDistribution((0.2,), (0.5,))), 1,
             r"^edge \(0,1\): mass sum 0.5$")):
        with pytest.raises(SchemaError, match=message):
            generate_power_law(10, 40, 0, preset, budget)


def _choice_wired_pairs(n, edges_target, seed, skew):
    """The generator's undirected pairs as it drew them before it inlined
    `Generator.choice`: one `rng.choice(i, p=...)` call per pick.  Its
    top-up pass for a short count is replaced by the assert that says it
    never ran."""
    pair_target = edges_target // 2
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = np.arange(1, n, dtype=float) ** -skew
    extra = pair_target - (n - 1)
    stubs = 1 + np.floor(raw * extra / raw.sum()).astype(int)
    stubs = np.minimum(stubs, np.arange(1, n))
    diff = pair_target - int(stubs.sum())
    order = np.argsort(-raw, kind="stable")
    idx = 0
    while diff != 0:
        j = order[idx % len(order)]
        cap = j + 1
        if diff > 0 and stubs[j] < cap:
            room = min(diff, cap - stubs[j])
            stubs[j] += room
            diff -= room
        elif diff < 0 and stubs[j] > 1:
            room = min(-diff, stubs[j] - 1)
            stubs[j] -= room
            diff += room
        idx += 1
    degree = np.zeros(n)
    degree[0] = 1.0
    pairs = []
    for i in range(1, n):
        want = int(stubs[i - 1])
        weights = degree[:i] ** 2.0
        picked = []
        for _ in range(want):
            if weights.sum() <= 0:
                break
            t = int(rng.choice(i, p=weights / weights.sum()))
            picked.append(t)
            weights[t] = 0.0
        for t in picked:
            pairs.append((min(i, t), max(i, t)))
            degree[t] += 1.0
            degree[i] += 1.0
        if degree[i] == 0.0:
            degree[i] = 1.0
    assert len(pairs) == pair_target
    return pairs


@st.composite
def _generator_args(draw):
    n = draw(st.integers(2, 80))
    pair_target = draw(st.integers(n - 1, n * (n - 1) // 2))
    return (n, 2 * pair_target, draw(st.integers(0, 2 ** 32)),
            draw(st.sampled_from([0.0, 0.5, 1.5, 3.0])))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_generator_args())
@example((2, 2, 0, 0.0))
@example((80, 2 * 79, 5, 3.0))
@example((80, 80 * 79, 5, 0.0))
@example((80, 80 * 79, 6, 3.0))
@example((57, 2 * 56 + 2, 1, 1.5))
@example((57, 57 * 56 - 2, 2, 0.5))
@example((2500, 26000, 47, 0.0))                 # the paper net
@example((200, 14000, 47, 1.5))                  # the dense-prune net
def test_generator_matches_choice_wiring(args):
    # the inline wiring draws the same edges as one rng.choice per pick
    n, edges_target, seed, skew = args
    net = generate_power_law(n, edges_target, seed, PRESET, 1, skew=skew)
    want = tuple((u, w, PRESET.distribution)
                 for t, i in _choice_wired_pairs(n, edges_target, seed, skew)
                 for u, w in ((t, i), (i, t)))
    assert net.edges == want


def _choice_pick(weights, u):
    """Generator.choice's own steps for one pick: normalise, cumsum,
    renormalise, searchsorted."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize("weights", [
    [81.0, 49.0, 100.0],
    [49.0, 36.0, 9.0, 9.0, 0.0, 0.0, 0.0],
    [100.0, 4.0, 1.0, 100.0, 0.0, 36.0],
    [0.0, 1.0, 0.0, 4.0, 9.0, 0.0],
])
def test_pick_falls_back_to_choice_at_prefix_boundaries(weights):
    # u exactly at a boundary prefix[k] / s and one double either side: in
    # each case the exact prefix alone decides some of these differently
    # from choice's rounded cdf, and the fallback must give choice's answer
    weights = np.array(weights)
    prefix = weights.cumsum()
    s = prefix[-1]
    bare_differs = False
    for k in range(len(prefix)):
        edge = prefix[k] / s
        for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            u = float(u)
            if not 0.0 <= u < 1.0:
                continue
            want = _choice_pick(weights, u)
            assert _pick(weights, prefix, u) == want
            bare = int(prefix.searchsorted(u * s, side="right"))
            bare_differs |= bare != want
    assert bare_differs             # each case needs the fallback somewhere


def test_generator_exactness_guard_raises_before_allocating(monkeypatch):
    # 2 pair_target (n - 1) must stay below 2**53; the guard runs before
    # the first array of n entries is made
    def no_arrays(*args, **kwargs):
        raise AssertionError("allocated")
    monkeypatch.setattr(np, "arange", no_arrays)
    n = 2 ** 26 + 1                              # 2 (n-1) (n-1) == 2**53
    with pytest.raises(ValueError, match="exact range"):
        generate_power_law(n, 2 * (n - 1), 0, PRESET, 1)
    with pytest.raises(AssertionError, match="allocated"):
        generate_power_law(n - 1, 2 * (n - 2), 0, PRESET, 1)   # just inside


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(2, 80), st.booleans(), st.integers(0, 2 ** 32),
       st.sampled_from([0.0, 0.5, 1.5, 3.0]))
def test_generator_hits_extreme_targets_exactly(n, complete, seed, skew):
    # a tree of n-1 pairs and the complete graph: each node's picks are
    # distinct earlier nodes, so the stub counts alone give the target
    edges_target = n * (n - 1) if complete else 2 * (n - 1)
    if complete:
        skew = 3.0
    net = generate_power_law(n, edges_target, seed, PRESET, 1, skew=skew)
    pairs = [(u, w) for u, w, _ in net.edges]
    distinct = set(pairs)
    assert len(pairs) == len(distinct) == edges_target
    assert all(u != w and (w, u) in distinct for u, w in pairs)
    assert {u for u, _ in pairs} == set(range(n))        # every degree >= 1


def test_json_round_trip_preserves_network(tmp_path):
    for net in (fixture_g1(), two_node_fixture(),
                generate_power_law(30, 120, 5, parse_preset("f2:0.05,4"), 3)):
        path = str(tmp_path / "net.json")
        save_network(net, path)
        assert load_network(path) == net


def test_json_round_trip_heterogeneous_activation(tmp_path):
    import dataclasses
    net = dataclasses.replace(fixture_g1(),
                              activation=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    path = str(tmp_path / "net.json")
    save_network(net, path)
    assert load_network(path) == net


def test_saved_bytes_match_the_pure_python_encoder(tmp_path):
    # json.dumps (the C encoder) over one JSON object per law writes the
    # bytes json.dump wrote with one object per edge; the two fixed laws
    # are equal but print as 1 and 1.0
    import dataclasses
    g1 = fixture_g1()
    laws = (g1.edges[0][2], PropagationDistribution((1,), (1.0,)),
            PropagationDistribution((1.0,), (1.0,)))
    hetero = dataclasses.replace(
        g1, activation=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
        edges=tuple((u, w, laws[k % 3]) for k, (u, w, _) in enumerate(g1.edges)))
    generated = generate_power_law(60, 600, 4, parse_preset("f3:0.1,0.01"), 2)
    # endpoints that are no int print as json.dumps prints them
    odd = DicNetwork(3, (0.5,) * 3, ((True, 2, laws[0]), (2.0, 0, laws[1]),
                                     (0, 1, laws[0])), 1)
    for net in (hetero, generated, odd):
        doc = {"nodes": net.node_count, "budget": net.budget,
               "activation": (net.activation[0]
                              if len(set(net.activation)) == 1
                              else list(net.activation)),
               "edges": [{"src": u, "dst": w, "dist": _dist_to_json(d)}
                         for u, w, d in net.edges]}
        want = tmp_path / "want.json"
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        got = tmp_path / "got.json"
        save_network(net, str(got))
        assert got.read_bytes() == want.read_bytes()


def test_load_network_errors(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_network(path)
    with open(path, "w") as fh:                          # past the recursion limit
        fh.write("[" * 200000 + "]" * 200000)
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_network(path)
    doc = {"nodes": 2, "budget": 1,
           "edges": [{"src": 0, "dst": 1, "dist": {"type": "fixed", "p": 0.5}}]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SchemaError, match="activation"):
        load_network(path)
    doc["activation"] = 0.5
    doc["edges"][0]["dist"] = {"type": "fixed"}          # missing p
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SchemaError, match="edges\\[0\\]"):
        load_network(path)
    doc["edges"][0]["dist"] = {"type": "mystery"}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SchemaError, match="unknown dist type"):
        load_network(path)
    doc["edges"][0] = {"src": 0, "dist": {"type": "fixed", "p": 0.5}}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SchemaError, match="dst"):
        load_network(path)


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "top-level value must be an object"),
    ({"nodes": 2, "budget": 1, "activation": 0.5, "edges": 5},
     "edges must be a list"),
    ({"nodes": 2, "budget": 1, "activation": 0.5, "edges": [7]},
     "edge must be an object"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1, "dist": [0.5]}]},
     "dist must be an object"),
    # integers too large for a float: 1e400 in the file parses as inf
    ({"nodes": INF, "budget": 1, "activation": 0.5, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": INF, "activation": 0.5, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": INF, "dst": 1, "dist": {"type": "fixed", "p": 0.5}}]},
     "bad endpoint"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": INF, "dist": {"type": "fixed", "p": 0.5}}]},
     "bad endpoint"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "exp", "mean": 0.1, "bins": INF}}]},
     "bad dist"),
    # integer fields take JSON integers only, and no number field takes a
    # bool: none of these is truncated or coerced into a network
    ({"nodes": 2.9, "budget": 1, "activation": 0.5, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": "2", "budget": 1, "activation": 0.5, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": 1.7, "activation": 0.5, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": True, "activation": 0.5, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": 1, "activation": True, "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": 1, "activation": [0.5, False], "edges": []},
     "bad nodes, budget or activation"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0.99, "dst": 1, "dist": {"type": "fixed", "p": 0.5}}]},
     "bad endpoint"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": "1", "dist": {"type": "fixed", "p": 0.5}}]},
     "bad endpoint"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1, "dist": {"type": "fixed", "p": True}}]},
     "bad dist"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "exp", "mean": 0.1, "bins": 2.5}}]},
     "bad dist"),
    # an exponential law needs a finite positive mean
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "exp", "mean": float("nan"), "bins": 3}}]},
     "bad dist"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "exp", "mean": INF, "bins": 3}}]},
     "bad dist"),
    # equal laws are parsed once, but a bad law behind an equal-valued good
    # one is still rejected and named by its own edge
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1, "dist": {"type": "fixed", "p": 1}},
                {"src": 1, "dst": 0, "dist": {"type": "fixed", "p": True}}]},
     "edges\\[1\\]: bad dist"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1, "dist": {"type": "fixed", "p": 0}},
                {"src": 1, "dst": 0, "dist": {"type": "fixed", "p": False}}]},
     "edges\\[1\\]: bad dist"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "exp", "mean": 0.1, "bins": 2}},
                {"src": 1, "dst": 0,
                 "dist": {"type": "exp", "mean": 0.1, "bins": 2.0}}]},
     "edges\\[1\\]: bad dist"),
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "uniform", "values": [0.5, 1]}},
                {"src": 1, "dst": 0,
                 "dist": {"type": "uniform", "values": [0.5, True]}}]},
     "edges\\[1\\]: bad dist"),
    # an exponential law has at most MAX_BINS bins, checked before any bin
    # is built
    ({"nodes": 2, "budget": 1, "activation": 0.5,
      "edges": [{"src": 0, "dst": 1,
                 "dist": {"type": "exp", "mean": 0.1, "bins": 10 ** 11}}]},
     "bad dist"),
])
def test_load_network_rejects_wrong_json_shapes(tmp_path, doc, message):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc).replace("Infinity", "1e400"))
    with pytest.raises(SchemaError, match=message):
        load_network(path)


# a JSON value of any shape, with numbers near the edges of each field's range
_JSON = st.recursive(
    st.none() | st.booleans()
    | st.integers(-3, 8) | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "fixed", "uniform", "discrete", "exp", "0.5", "1"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["type", "p", "values", "support",
                                       "mean", "bins", "src", "dst", "dist",
                                       "x"]), inner, max_size=4),
    max_leaves=8)

_VALID_DOC = {
    "edges": [
        {"src": 0, "dst": 1, "dist": {"type": "fixed", "p": 0.3}},
        {"src": 1, "dst": 2, "dist": {"type": "uniform", "values": [0.1, 0.4]}},
        {"src": 2, "dst": 0,
         "dist": {"type": "discrete", "support": [[0.2, 0.5], [0.6, 0.5]]}},
        {"src": 0, "dst": 2, "dist": {"type": "exp", "mean": 0.2, "bins": 4}},
    ],
    "activation": [0.5, 0.2, 1.0], "budget": 2, "nodes": 3}


def _mutate(data, doc):
    """Walk from the root to a random entry and replace or delete it."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if (isinstance(child, (dict, list)) and child
                and data.draw(st.integers(0, 3)) > 0):
            node = child
            continue
        if data.draw(st.booleans()):
            node[key] = data.draw(_JSON)
        else:
            del node[key]
        return


def _reference_load_network(path: str) -> DicNetwork:
    """`load_network` as one loop over the edges, each checked and its law
    keyed by repr on its own, then `_reference_validate`: the reference
    the one-pass loader is compared against."""
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
    if not isinstance(doc["edges"], list):
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
    edges = []
    laws: dict[str, PropagationDistribution] = {}
    for i, e in enumerate(doc["edges"]):
        where = f"{path}: edges[{i}]"
        if not isinstance(e, dict):
            raise SchemaError(f"{where}: edge must be an object")
        for field in ("src", "dst", "dist"):
            if field not in e:
                raise SchemaError(f"{where}: missing field {field!r}")
        try:
            ends = (_json_number(e["src"], (int,)),
                    _json_number(e["dst"], (int,)))
        except TypeError as exc:
            raise SchemaError(f"{where}: bad endpoint: {exc}") from None
        key = repr(e["dist"])
        if key not in laws:
            laws[key] = _dist_from_json(e["dist"], where)
        edges.append((*ends, laws[key]))
    net = DicNetwork(n, activation, tuple(edges), budget)
    problem = _reference_validate(net)
    if problem:
        raise SchemaError(f"{path}: {problem}")
    return net


def _load_outcome(load, path: str):
    """The network `load` reads from `path`, or its SchemaError's text."""
    try:
        return load(path)
    except SchemaError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_network_accepts_or_rejects_mutated_documents(tmp_path, data):
    # a valid document with an endpoint replaced (by one of another type,
    # out of range or beyond int64, or one that makes a self-loop or a
    # repeat) and a few entries replaced or deleted loads or raises
    # SchemaError, the error that `dicnet` turns into exit code 2, as the
    # per-edge reference does: an equal net with the same law objects per
    # edge, or the same message; a huge scalar-activation node count would
    # only exhaust memory
    doc = json.loads(json.dumps(_VALID_DOC))
    if data.draw(st.booleans()):
        doc["activation"] = 0.5
    if data.draw(st.booleans()):
        edge = doc["edges"][data.draw(st.integers(0, 3))]
        edge[data.draw(st.sampled_from(["src", "dst"]))] = data.draw(
            st.sampled_from([True, 0.99, -1, 2 ** 70, -2 ** 70, 0, 1, 2, 3]))
    for _ in range(data.draw(st.integers(0, 3))):
        edges = doc.get("edges")
        deep = isinstance(edges, list) and data.draw(st.booleans())
        _mutate(data, edges if deep else doc)
    nodes = doc.get("nodes")
    assume(not (type(nodes) is int and nodes > 10 ** 5))
    path = str(tmp_path / "net.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    net = _load_outcome(load_network, path)
    want = _load_outcome(_reference_load_network, path)
    assert net == want
    if isinstance(net, DicNetwork):
        assert validate_network(net) is None
        laws, of_edge = DicNetwork(net.node_count, net.activation, net.edges,
                                   net.budget).edge_laws
        assert len(net.edge_laws[0]) == len(laws)
        assert all(a is b for a, b in zip(net.edge_laws[0], laws))
        assert (net.edge_laws[1].tolist() == of_edge.tolist()
                == want.edge_laws[1].tolist())
