"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test prints one CRITERION line with PASS/FAIL and the measured numbers,
then asserts.  Heavyweight fixtures (the 2500-node power-law sweep) are
computed once per session.
"""

import functools
import math
import time

import numpy as np
import pytest

from dicnet.cli import main as cli_main
from dicnet.data import generate_power_law, parse_preset
from dicnet.diffusion import run_policy, spread_count
from dicnet.estimator import estimate_policy_spread, half_width, substream
from dicnet.fixtures import TWO_POINT, fixture_g1, random_tiny_network, two_node_fixture
from dicnet.model import DicNetwork, fixed_distribution
from dicnet.oracle import (build_auxiliary, check_properties,
                           enumerate_schedules, exact_policy_value,
                           greedy_adaptive_value, optimal_adaptive_value)
from dicnet.realization import sample_full
from dicnet.strategies import (AGreedyPolicy, RandomPolicy, h_greedy_prune,
                               static_greedy_select, static_seed_factory)
from test_strategies import _ExhaustiveGreedy


def _report(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. oracle/sampler agreement on the two-node fixture
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_sampler_agreement():
    net = two_node_fixture()
    from dicnet.strategies import StaticSeedListPolicy
    exact = exact_policy_value(net, lambda: StaticSeedListPolicy([0]))
    t0 = time.perf_counter()
    est = estimate_policy_spread(net, functools.partial(static_seed_factory, [0]),
                                 10 ** 6, master_seed=1, delta=0.001)
    elapsed = time.perf_counter() - t0
    hw = half_width(2, 10 ** 6, 0.001)
    exact_ok = abs(exact - 1.48) < 1e-9
    mc_ok = abs(est.mean - exact) <= hw
    time_ok = elapsed < 30.0
    ok = exact_ok and mc_ok and time_ok
    _report(1, ok, f"exact={exact:.6f} mc={est.mean:.6f} "
                   f"|diff|={abs(est.mean - exact):.6f} hw={hw:.6f} "
                   f"runtime={elapsed:.1f}s")
    assert exact_ok and mc_ok and time_ok


# ---------------------------------------------------------------------------
# 2. monotonicity/submodularity property suite
# ---------------------------------------------------------------------------

def _random_eight_node(rng):
    acts = tuple(round(float(rng.uniform(0.2, 1.0)), 2) for _ in range(8))
    edges = []
    for u in range(8):
        for w in range(8):
            if u == w or rng.random() > 0.25:
                continue
            if rng.random() < 0.5:
                edges.append((u, w, TWO_POINT))
            else:
                edges.append((u, w, fixed_distribution(
                    round(float(rng.uniform(0.1, 0.9)), 2))))
    return DicNetwork(8, acts, tuple(edges), 3)


def test_criterion_2_property_suite():
    t0 = time.perf_counter()
    mono = sub = trials = 0
    for k in range(25):
        net = _random_eight_node(np.random.default_rng(1000 + k))
        report = check_properties(net, 40, np.random.default_rng(2000 + k))
        trials += report["trials"]
        mono += report["monotonicity_violations"]
        sub += report["submodularity_violations"]
    elapsed = time.perf_counter() - t0
    ok = trials >= 1000 and mono == 0 and sub == 0 and elapsed < 60.0
    _report(2, ok, f"trials={trials} monotonicity_violations={mono} "
                   f"submodularity_violations={sub} runtime={elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3/4. exact optimality of the adaptive pattern and the greedy guarantee
# ---------------------------------------------------------------------------

def _guarded_instances():
    """The shipped desk-scale suite: a three-node path plus ten random
    instances with at most 4 nodes, budget 2, two-point edge supports."""
    path = DicNetwork(3, (0.5,) * 3,
                      ((0, 1, TWO_POINT), (1, 2, TWO_POINT)), 2)
    nets = [path]
    for t in range(10):
        nets.append(random_tiny_network(np.random.default_rng(600 + t),
                                        max_nodes=4, budget=2))
    return nets


def test_criterion_3_adaptive_pattern_optimality():
    t0 = time.perf_counter()
    strict = 0
    details = []
    for i, net in enumerate(_guarded_instances()):
        best = optimal_adaptive_value(net, "adaptive")
        max_gap = 0.0
        for sched in enumerate_schedules(net.budget, net.node_count):
            val = optimal_adaptive_value(net, sched)
            assert val <= best + 1e-9, (i, sched, val, best)
            max_gap = max(max_gap, best - val)
        if max_gap > 1e-6:
            strict += 1
        details.append(f"inst{i}: adaptive={best:.4f} max_gap={max_gap:.4f}")
    elapsed = time.perf_counter() - t0
    ok = strict >= 1 and elapsed < 300.0
    _report(3, ok, f"instances=11 strict_wins={strict} "
                   f"runtime={elapsed:.1f}s | " + " ".join(details))
    assert ok


def test_criterion_4_greedy_guarantee():
    t0 = time.perf_counter()
    bound = 1.0 - 1.0 / math.e
    margins = []
    ok = True
    for i, net in enumerate(_guarded_instances()):
        opt = optimal_adaptive_value(net, "adaptive")
        greedy = greedy_adaptive_value(net)
        floor = bound * opt
        margins.append(f"inst{i}: greedy={greedy:.4f} opt={opt:.4f} "
                       f"margin={greedy - floor:.4f}")
        if greedy < floor - 1e-9 or greedy > opt + 1e-9:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(4, ok, f"runtime={elapsed:.1f}s | " + " ".join(margins))
    assert ok


# ---------------------------------------------------------------------------
# 5. lazy-forward equivalence under common random numbers
# ---------------------------------------------------------------------------

def _celf_instance(t):
    rng = np.random.default_rng(50 + t)
    n = int(rng.integers(20, 31))
    acts = tuple(round(float(rng.uniform(0.3, 1.0)), 2) for _ in range(n))
    edges = tuple((u, w, TWO_POINT) for u in range(n) for w in range(n)
                  if u != w and rng.random() < 0.15)
    return DicNetwork(n, acts, edges, 6)


def test_criterion_5_celf_equivalence():
    equal = fewer = 0
    for t in range(20):
        net = _celf_instance(t)
        x = sample_full(net, substream(50 + t, 0, 0))
        lazy = AGreedyPolicy(net, 200, substream(50 + t, 0, 1))
        full = _ExhaustiveGreedy(net, 200, substream(50 + t, 0, 1))
        if run_policy(net, lazy, x).seeds == run_policy(net, full, x).seeds:
            equal += 1
        if lazy.gain_evaluations < full.gain_evaluations:
            fewer += 1
    ok = equal == 20 and fewer >= 15
    _report(5, ok, f"identical_selections={equal}/20 "
                   f"strictly_fewer_evaluations={fewer}/20")
    assert ok


# ---------------------------------------------------------------------------
# 6/7. power-law strategy sweeps
# ---------------------------------------------------------------------------

CHECKPOINTS = (10, 20, 30)


def _ci95(values):
    arr = np.asarray(values, dtype=float)
    hw = 1.96 * arr.std(ddof=1) / math.sqrt(len(arr))
    return float(arr.mean()), float(hw)


@pytest.fixture(scope="module")
def powerlaw_sweep():
    seed, reps, r_gain, r_pre, r_select = 2, 200, 100, 300, 400
    preset = parse_preset("f1:0.01", 0.5)
    net = generate_power_law(2500, 26000, seed, preset, budget=30)
    candidates, _ = h_greedy_prune(net, r_pre, substream(seed, 0, 11))
    greedy_seeds, _ = static_greedy_select(net, 30, r_select,
                                           substream(seed, 0, 10))
    res = {s: {c: [] for c in CHECKPOINTS} for s in ("a", "h", "g", "r")}
    for i in range(reps):
        x = sample_full(net, substream(seed, i, 0))
        # the drained spread after a run's first c seeds is the spread of
        # those c seeds, so one run per policy serves every checkpoint
        policies = {"a": AGreedyPolicy(net, r_gain, substream(seed, i, 1)),
                    "h": AGreedyPolicy(net, r_gain, substream(seed, i, 1),
                                       candidates=candidates),
                    "r": RandomPolicy(substream(seed, i, 2))}
        plans = {s: run_policy(net, p, x).seeds for s, p in policies.items()}
        plans["g"] = greedy_seeds
        for s, plan in plans.items():
            for c in CHECKPOINTS:
                res[s][c].append(spread_count(net, x, plan[:c]))
    return res


def test_criterion_6_strategy_ordering(powerlaw_sweep):
    res = powerlaw_sweep
    ok = True
    details = []
    for c in CHECKPOINTS:
        stats = {s: _ci95(res[s][c]) for s in ("a", "h", "g", "r")}
        (ma, ha), (mh, _), (mg, hg), (mr, _) = (stats["a"], stats["h"],
                                                stats["g"], stats["r"])
        ordering = ma >= mh >= mg >= mr
        separated = (ma - ha) > (mg + hg)   # 95% intervals must not overlap
        ok = ok and ordering and separated
        details.append(f"B={c}: A={ma:.1f}±{ha:.1f} H={mh:.1f} "
                       f"G={mg:.1f}±{hg:.1f} R={mr:.1f} "
                       f"ordering={'y' if ordering else 'N'} "
                       f"separated={'y' if separated else 'N'}")
    # per-seed margin on the aggregate over all three budgets
    per_seed_a = sum(np.mean(res["a"][c]) for c in CHECKPOINTS) / sum(CHECKPOINTS)
    per_seed_g = sum(np.mean(res["g"][c]) for c in CHECKPOINTS) / sum(CHECKPOINTS)
    margin = per_seed_a / per_seed_g - 1.0
    margin_ok = margin >= 0.25
    ok = ok and margin_ok
    _report(6, ok, f"per_seed A={per_seed_a:.2f} G={per_seed_g:.2f} "
                   f"margin={margin:.1%} (need >=25%) | " + " ".join(details))
    assert ok


def test_criterion_7_pruning_economics():
    t0 = time.perf_counter()
    seed, reps, r_gain, r_pre = 7, 60, 100, 300
    preset = parse_preset("f3:0.1,0.01,0.001", 0.5)
    net = generate_power_law(200, 14000, seed, preset, budget=10, skew=1.5)
    candidates, stats = h_greedy_prune(net, r_pre, substream(seed, 0, 11))
    spreads = {"a": [], "h": []}
    # H-Greedy pays for its own prepass: one estimate per node
    evals = {"a": 0, "h": net.node_count}
    for i in range(reps):
        x = sample_full(net, substream(seed, i, 0))
        pa = AGreedyPolicy(net, r_gain, substream(seed, i, 1))
        spreads["a"].append(run_policy(net, pa, x).spread)
        evals["a"] += pa.gain_evaluations
        ph = AGreedyPolicy(net, r_gain, substream(seed, i, 1),
                           candidates=candidates)
        spreads["h"].append(run_policy(net, ph, x).spread)
        evals["h"] += ph.gain_evaluations
    pruned = stats["pruned_fraction"]
    ratio = evals["h"] / evals["a"]
    mean_a = float(np.mean(spreads["a"]))
    mean_h = float(np.mean(spreads["h"]))
    gap = abs(mean_a - mean_h) / mean_a
    elapsed = time.perf_counter() - t0
    ok = pruned >= 0.3 and ratio <= 0.8 and gap <= 0.10 and elapsed < 1800.0
    _report(7, ok, f"pruned_fraction={pruned:.2f} (need >=0.30) "
                   f"eval_ratio={ratio:.2f} (need <=0.80) "
                   f"spread A={mean_a:.1f} H={mean_h:.1f} gap={gap:.1%} "
                   f"(need <=10%) runtime={elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. harness determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_8_csv_determinism(tmp_path):
    outs = []
    for workers in (1, 4, 8):
        out = str(tmp_path / f"w{workers}.csv")
        rc = cli_main(["run", "--fixture", "g1", "--budgets", "1..3",
                       "--reps", "30", "--R", "200", "--R-pre", "100",
                       "--seed", "9", "--workers", str(workers),
                       "--strategies", "random,greedy,a-greedy,h-greedy",
                       "--out", out])
        assert rc == 0
        outs.append(out)

    def normalized(path):
        lines = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                cols = line.rstrip("\n").split(",")
                cols[7] = ""            # wall_time_ms is timing noise
                lines.append(",".join(cols))
        return lines

    base = normalized(outs[0])
    ok = all(normalized(p) == base for p in outs[1:])
    _report(8, ok, f"rows={len(base) - 1} identical across workers 1/4/8 "
                   f"(wall_time_ms column excluded)")
    assert ok


# ---------------------------------------------------------------------------
# 9. auxiliary-graph structure
# ---------------------------------------------------------------------------

def test_criterion_9_auxiliary_structure():
    aux = build_auxiliary(fixture_g1(), 3)
    ok = (aux.node_count == 24 and len(aux.attempt_edges) == 18
          and len(aux.value_edges) == 10)
    _report(9, ok, f"nodes={aux.node_count} (need 24) "
                   f"attempt_edges={len(aux.attempt_edges)} (need 18) "
                   f"value_edges={len(aux.value_edges)} (need 10)")
    assert ok
