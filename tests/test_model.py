"""Distribution factories, quantization, and network validation."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import dicnet.model
from dicnet.model import (MAX_BINS, DicNetwork, PropagationDistribution,
                          fixed_distribution, mean_propagation,
                          quantize_exponential,
                          uniform_discrete_distribution, validate_network)
from dicnet.fixtures import TWO_POINT, fixture_g1


def test_two_point_mean():
    # 0.4 * 0.8 + 0.8 * 0.2, computable by hand
    assert mean_propagation(TWO_POINT) == pytest.approx(0.48, abs=1e-12)


def test_fixed_distribution():
    d = fixed_distribution(0.25)
    assert d.values == (0.25,)
    assert d.masses == (1.0,)
    assert d.check() is None
    assert mean_propagation(d) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        fixed_distribution(1.5)
    with pytest.raises(ValueError):
        fixed_distribution(-0.1)


def test_uniform_discrete_distribution():
    d = uniform_discrete_distribution([0.1, 0.01, 0.001])
    assert d.values == (0.001, 0.01, 0.1)      # sorted ascending
    assert all(m == pytest.approx(1 / 3) for m in d.masses)
    assert d.check() is None
    assert mean_propagation(d) == pytest.approx(0.111 / 3)
    with pytest.raises(ValueError):
        uniform_discrete_distribution([])
    with pytest.raises(ValueError):
        uniform_discrete_distribution([0.1, 0.1])
    with pytest.raises(ValueError):
        uniform_discrete_distribution([0.1, 1.2])


def test_check_reports_violations():
    assert "mass sum" in PropagationDistribution((0.1, 0.2), (0.5, 0.6)).check()
    assert "empty" in PropagationDistribution((), ()).check()
    assert "increasing" in PropagationDistribution((0.2, 0.1), (0.5, 0.5)).check()
    assert "outside" in PropagationDistribution((1.2,), (1.0,)).check()


def test_quantize_exponential_against_quadrature():
    # independent check: each atom must equal the conditional mean of
    # min(X, 1) over its equal-mass quantile bin, X ~ Exp(mean)
    for mean, bins in [(0.01, 2), (0.01, 5), (0.3, 4), (2.0, 3)]:
        d = quantize_exponential(mean, bins)
        assert d.check() is None
        assert abs(math.fsum(d.masses) - 1.0) < 1e-12

        def pdf(x):
            return math.exp(-x / mean) / mean

        # reconstruct per-bin conditional means numerically
        total = 0.0
        for i in range(bins):
            lo = -mean * math.log(1 - i / bins)
            hi = math.inf if i == bins - 1 else -mean * math.log(1 - (i + 1) / bins)
            clip_hi = min(hi, 1.0) if hi != math.inf else 1.0
            contrib = 0.0
            if lo < 1.0:
                contrib += integrate.quad(lambda x: x * pdf(x), lo, clip_hi)[0]
            # mass of the bin that lies beyond the clip point sits at 1
            if hi == math.inf:
                tail = math.exp(-max(lo, 1.0) / mean)
            else:
                tail = max(0.0, math.exp(-max(lo, 1.0) / mean)
                           - math.exp(-max(hi, 1.0) / mean)) if hi > 1.0 else 0.0
            contrib += tail
            total += contrib
        assert mean_propagation(d) == pytest.approx(total, abs=1e-6)


def test_quantize_exponential_two_bin_atoms():
    # frozen from the quadrature cross-check above
    d = quantize_exponential(0.01, 2)
    assert d.masses == (0.5, 0.5)
    assert d.values[0] == pytest.approx(0.0030685281944005469, abs=1e-12)
    assert d.values[1] == pytest.approx(0.0169314718055994, abs=1e-9)


def test_quantize_exponential_preserves_the_clipped_mean():
    # equal-mass bins with conditional-mean atoms keep E[min(X,1)] exactly,
    # which equals mean*(1 - exp(-1/mean)), at every bin count
    for mean in (0.01, 0.3, 1.0):
        target = mean * (1.0 - math.exp(-1.0 / mean))
        for bins in (1, 2, 4, 8, 16):
            d = quantize_exponential(mean, bins)
            assert mean_propagation(d) == pytest.approx(target, abs=1e-9)


def test_quantize_exponential_large_mean_clips():
    d = quantize_exponential(5.0, 4)     # most mass beyond 1
    assert d.values[-1] == 1.0
    assert d.check() is None
    for mean in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            quantize_exponential(mean, 2)
    # bins outside [1, MAX_BINS] are rejected before any bin is built
    for bins in (0, MAX_BINS + 1, 10 ** 11):
        with pytest.raises(ValueError):
            quantize_exponential(0.1, bins)


def test_network_cached_views():
    net = fixture_g1()
    assert net.node_count == 6
    assert net.out_edges[0] == ((0, 1),)
    assert net.out_edges[5] == ()
    src, dst, means = net.edge_arrays
    assert means.tolist() == pytest.approx([0.48] * 5)
    assert list(src) == [0, 1, 2, 3, 4]
    assert list(dst) == [1, 2, 3, 4, 5]


def test_edge_laws_atom_table_and_means_once_per_law(monkeypatch):
    # the distinct law objects in order of first use, each edge's law index,
    # the atoms end to end keyed by (law, cumulative mass); each law's mean
    # is computed once and equals the per-edge mean bit for bit
    other = fixed_distribution(0.3)
    net = DicNetwork(4, (0.5,) * 4, ((0, 1, TWO_POINT), (1, 2, other),
                                     (2, 3, TWO_POINT), (3, 0, TWO_POINT)), 2)
    laws, of_edge = net.edge_laws
    assert laws == (TWO_POINT, other) and of_edge.tolist() == [0, 1, 0, 0]
    keys, values, last = net.atom_table
    assert keys.real.tolist() == [0.0] * len(TWO_POINT.values) + [1.0]
    assert keys.imag.tolist() == list(TWO_POINT.cum_masses + other.cum_masses)
    assert values.tolist() == list(TWO_POINT.values + other.values)
    two = len(TWO_POINT.values)
    assert last.tolist() == [two - 1, two, two - 1, two - 1]
    calls = []
    real = dicnet.model.mean_propagation
    monkeypatch.setattr(dicnet.model, "mean_propagation",
                        lambda d: calls.append(d) or real(d))
    assert net.edge_arrays[2].tolist() == [real(d) for _, _, d in net.edges]
    assert calls == [TWO_POINT, other]
    empty = DicNetwork(2, (0.5, 0.5), (), 1)
    assert empty.edge_laws[0] == () and empty.atom_table[0].size == 0


def test_validate_network():
    good = fixture_g1()
    assert validate_network(good) is None
    bad = DicNetwork(2, (0.5, 1.5), ((0, 1, TWO_POINT),), 1)
    assert "activation" in validate_network(bad)
    bad = DicNetwork(2, (0.5, 0.5), ((0, 0, TWO_POINT),), 1)
    assert "self-loop" in validate_network(bad)
    bad = DicNetwork(2, (0.5, 0.5), ((0, 1, TWO_POINT), (0, 1, TWO_POINT)), 1)
    assert "duplicate" in validate_network(bad)
    bad = DicNetwork(2, (0.5, 0.5), ((0, 1, TWO_POINT),), 3)
    assert "budget" in validate_network(bad)
    bad_dist = PropagationDistribution((0.4,), (0.9,))
    bad = DicNetwork(2, (0.5, 0.5), ((0, 1, bad_dist),), 1)
    assert "mass sum" in validate_network(bad)
    # each law object is checked once, and the first failing edge is named
    ring = tuple((u, w, TWO_POINT) for u in range(3) for w in range(3) if u != w)
    with mock.patch.object(PropagationDistribution, "check", autospec=True,
                           side_effect=PropagationDistribution.check) as check:
        assert validate_network(DicNetwork(3, (0.5,) * 3, ring, 1)) is None
        assert check.call_count == 1
        bad = DicNetwork(3, (0.5,) * 3, ((0, 1, TWO_POINT), (1, 2, bad_dist),
                                         (2, 0, bad_dist)), 1)
        assert validate_network(bad).startswith("edge (1,2): mass sum")
        assert check.call_count == 3


def _reference_validate(net: DicNetwork) -> str | None:
    """`validate_network` as one loop over the edges: the reference its
    array checks are compared against."""
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
    seen: set[tuple[int, int]] = set()
    valid: set[int] = set()             # ids of the laws that passed check()
    for src, dst, dist in net.edges:
        if not (0 <= src < n and 0 <= dst < n):
            return f"edge ({src},{dst}) endpoint out of range"
        if src == dst:
            return f"self-loop at node {src}"
        if (src, dst) in seen:
            return f"duplicate edge ({src},{dst})"
        seen.add((src, dst))
        if id(dist) not in valid:
            msg = dist.check()
            if msg is not None:
                return f"edge ({src},{dst}): {msg}"
            valid.add(id(dist))
    return None


# good laws, two of them equal but distinct objects, and bad ones
_GOOD_LAWS = (TWO_POINT, fixed_distribution(0.3), fixed_distribution(0.3))
_BAD_LAWS = (PropagationDistribution((0.4,), (0.9,)),
             PropagationDistribution((), ()),
             PropagationDistribution((0.2, 1.5), (0.5, 0.5)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_validate_network_matches_the_edge_loop(data):
    # distinct edges of a small net with up to three faults injected at any
    # position (an endpoint out of range, beyond int64 too, a self-loop or a
    # repeat of an earlier edge) and bad laws before or after good ones:
    # the same message as one loop over the edges, and the same check() calls
    n = data.draw(st.integers(2, 5))
    pairs = data.draw(st.permutations(
        [(u, w) for u in range(n) for w in range(n) if u != w]))
    edges = [list(p) for p in pairs[:data.draw(st.integers(0, 10))]]
    for _ in range(data.draw(st.integers(0, 3)) if edges else 0):
        j = data.draw(st.integers(0, len(edges) - 1))
        fault = data.draw(st.sampled_from(["range", "loop", "repeat"]))
        if fault == "range":
            edges[j][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(
                [-1, n, 2 ** 63 - 1, 2 ** 63, 2 ** 70, -2 ** 63 - 1,
                 -2 ** 70]))
        elif fault == "loop":
            edges[j][1] = edges[j][0]
        else:
            edges[j] = list(edges[data.draw(st.integers(0, j))])
    law = st.one_of(*[st.sampled_from(_GOOD_LAWS)] * 4,
                    st.sampled_from(_BAD_LAWS))
    edges = tuple((u, w, data.draw(law)) for u, w in edges)
    calls = {}
    for name, validate in (("arrays", validate_network),
                           ("loop", _reference_validate)):
        net = DicNetwork(n, (0.5,) * n, edges, 1)
        real = PropagationDistribution.check
        with mock.patch.object(PropagationDistribution, "check",
                               autospec=True, side_effect=real) as check:
            calls[name] = (validate(net), check.call_args_list)
    assert calls["arrays"] == calls["loop"]
