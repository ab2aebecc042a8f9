"""The benchmark's workloads, their output checks, and the measuring loop.

Run by `run.py` as a child process, one workload per process, with `src` on
the import path.  The last line of standard output is one JSON object with
the workload's metrics and the raw figures behind them.

Workloads (see BENCHMARK.json for why each was chosen):

  paper-sweep      `dicnet run` on the 2500-node, 26000-edge power-law net,
                   one invocation each for random, greedy and a-greedy.
  dense-prune      `dicnet run --net` on the 200-node, 14000-edge net of
                   acceptance criterion 7, once for a-greedy, once for h-greedy.
  exact-agreement  `estimate_policy_spread` on the two-node fixture against
                   its exact value, then the exact optimal and greedy adaptive
                   values over a seeded batch of tiny random networks.

An op is one `dicnet run` invocation, one estimate or one oracle instance,
together with its output checks.  A failed check or an exception fails it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import dicnet.cli
import dicnet.estimator
import dicnet.oracle
from dicnet.cli import CSV_HEADER
from dicnet.data import generate_power_law, parse_preset, save_network
from dicnet.fixtures import random_tiny_network, two_node_fixture
from dicnet.strategies import StaticSeedListPolicy, static_seed_factory

import tracing
from run import exact_counts

TWO_NODE_EXACT = 1.48          # exact expected spread of seeding node 0
DELTA = 0.01                   # confidence of the Hoeffding half-widths
GREEDY_RATIO = 1.0 - 1.0 / math.e
TOL = 1e-9
SETUP_REPEATS = 8              # set-ups spread over a run; it reports the median

# The reference loop: a fixed pure-Python loop that calls no dicnet code,
# timed before a pass and after each cell of it.  Its time gauges how fast
# the host runs the interpreter at that moment; see `measure`.
REF_LOOP = 150_000             # iterations of one reference loop
REF_REPEATS = 3                # a reference time is the fastest of this many
REF_NOMINAL_S = 0.016          # the reference time on the nominal host

# Per workload and scale: the sizes of one pass.  "full" is what the
# benchmark measures; "small" is the scaled-down pass of the self-check.
SIZES = {
    "paper-sweep": {
        "full": {"gen": (2500, 26000), "static_reps": 3, "static_R": 100,
                 "static_budgets": "10..30:10", "adaptive_reps": 1,
                 "adaptive_R": 1000, "adaptive_budgets": "30"},
        "small": {"gen": (300, 3000), "static_reps": 1, "static_R": 20,
                  "static_budgets": "10..30:10", "adaptive_reps": 1,
                  "adaptive_R": 50, "adaptive_budgets": "30"},
    },
    "dense-prune": {
        "full": {"gen": (200, 14000), "budget": 10, "reps": 1, "R": 100,
                 "R_pre": 300},
        "small": {"gen": (60, 1200), "budget": 5, "reps": 1, "R": 20,
                  "R_pre": 30},
    },
    "exact-agreement": {
        "full": {"estimate_reps": 50000, "instances": 500},
        "small": {"estimate_reps": 2000, "instances": 10},
    },
}

# the cells whose throughput each workload reports, in print order
CELLS = {
    "paper-sweep": ("random", "greedy", "a-greedy"),
    "dense-prune": ("a-greedy", "h-greedy"),
    "exact-agreement": ("estimate", "oracle"),
}
CELL_UNIT = {"oracle": "instances_per_s"}


def cell_metric(cell: str) -> str:
    return f"{cell}.{CELL_UNIT.get(cell, 'reps_per_s')}"


# Every cell's throughput is a per-layer metric of the traced run, so that
# each run records it; a workload reports 0 for the cells it does not run.
CELL_METRICS = tuple(dict.fromkeys(
    cell_metric(c) for cells in CELLS.values() for c in cells))


@dataclass
class OpResult:
    """One op's outcome: `units` replications (or oracle instances) done in
    `elapsed` seconds, a digest of its deterministic outputs, its exact
    counts, and the checks it failed."""

    name: str
    cell: str
    units: int
    elapsed: float
    digest: str = ""
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def group(self) -> str:
        """Reference digests are kept per invocation, and once for the whole
        oracle batch, so that a pinned seed needs a handful of entries."""
        return "oracle" if self.cell == "oracle" else self.name


def _op(name: str, cell: str, fn):
    """Label an op callable, so that an exception in it is reported under
    its name and cell."""
    fn.op_name, fn.op_cell = name, cell
    return fn


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# dicnet run invocations
# ---------------------------------------------------------------------------

def _check_run_outputs(out: str, stdout: str, strategy: str, budgets, reps: int,
                       seed: int, n: int, problems: list):
    """Check one `dicnet run` output set; return (digest, counts)."""
    rows_expected = reps * len(budgets)
    if stdout != f"wrote {rows_expected} rows to {out}\n":
        problems.append(f"unexpected stdout {stdout!r}")
    with open(out, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if table[0] != CSV_HEADER.split(","):
        problems.append(f"CSV header {table[0]}")
    rows = table[1:]
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected reps x budgets = "
                        f"{rows_expected}")
    expected_keys = [(strategy, str(b), str(i), str(seed))
                     for b in budgets for i in range(reps)]
    if [(r[0], r[1], r[2], r[8]) for r in rows] != expected_keys:
        problems.append("rows out of (strategy, budget, replication) order "
                        "or wrong master_seed")
    gain_evals = rounds = 0
    for r in rows:
        budget, _, spread, rounds_used, seeds_used, evals = map(int, r[1:7])
        if not 0 <= spread <= n:
            problems.append(f"spread {spread} outside [0, {n}]")
        if not 0 <= seeds_used <= budget:
            problems.append(f"seeds_used {seeds_used} outside [0, {budget}]")
        if float(r[7]) < 0:
            problems.append(f"negative wall_time_ms {r[7]}")
        gain_evals += evals
        rounds += rounds_used
        r[7] = ""                       # the one column that is timing noise
    with open(out + ".summary.csv", encoding="utf-8") as fh:
        summary = fh.read()
    with open(out + ".meta.json", encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    for b, cell in zip(budgets, cells):
        spreads = [int(r[3]) for r in rows if r[1] == str(b)]
        if spreads and cell["mean_spread"] != sum(spreads) / len(spreads):
            problems.append(f"budget {b}: meta mean_spread disagrees with CSV")
    if len(cells) != len(budgets):
        problems.append(f"{len(cells)} meta cells for {len(budgets)} budgets")
    counts = {"gain_evals": gain_evals, "rounds": rounds}
    if strategy == "greedy":
        counts["select_evals"] = sum(c["selection_gain_evaluations"]
                                     for c in cells)
        for b, c in zip(budgets, cells):
            if len(set(c["selected_seeds"])) != min(b, n):
                problems.append(f"budget {b}: {c['selected_seeds']} is not "
                                f"{min(b, n)} distinct seeds")
    if strategy == "h-greedy":
        counts["prune_kept_fraction"] = [1.0 - c["pruned_fraction"]
                                         for c in cells]
        for c in cells:
            if c["candidates"] != round((1.0 - c["pruned_fraction"]) * n):
                problems.append("pruned_fraction disagrees with candidates")
    digest = _sha("\n".join(",".join(r) for r in table),
                  summary, json.dumps(cells, sort_keys=True))
    return digest, counts


def _run_op(name: str, strategy: str, args: list, budgets_text: str,
            reps: int, seed: int, n: int, out: str):
    """One `dicnet run` invocation through `dicnet.cli.main`, in-process."""

    def op() -> OpResult:
        argv = ["run", *args, "--strategies", strategy, "--budgets",
                budgets_text, "--reps", str(reps), "--seed", str(seed),
                "--workers", "1", "--out", out]
        budgets = dicnet.cli.parse_budgets(budgets_text)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = dicnet.cli.main(argv)
        elapsed = time.perf_counter() - t0
        res = OpResult(name, strategy, reps * len(budgets), elapsed)
        if rc != 0:
            res.problems.append(f"dicnet run exited {rc}")
            return res
        res.digest, res.counts = _check_run_outputs(
            out, buf.getvalue(), strategy, budgets, reps, seed, n,
            res.problems)
        return res

    return _op(name, strategy, op)


def build_paper_sweep(seed: int, workdir: str, size: dict, faults: dict):
    n, m = size["gen"]
    net_args = ["--gen", f"{n},{m},{seed}", "--preset", "f1:0.01"]
    ops = []
    for strategy in ("random", "greedy"):
        ops.append(_run_op(
            strategy, strategy, net_args + ["--R", str(size["static_R"])],
            size["static_budgets"], size["static_reps"], seed, n,
            os.path.join(workdir, f"{strategy}.csv")))
    ops.append(_run_op(
        "a-greedy", "a-greedy", net_args + ["--R", str(size["adaptive_R"])],
        size["adaptive_budgets"], size["adaptive_reps"], seed, n,
        os.path.join(workdir, "a-greedy.csv")))
    return ops


def build_dense_prune(seed: int, workdir: str, size: dict, faults: dict):
    n, m = size["gen"]
    # the criterion-7 recipe: three-point edge law, activation 0.5, skewed core
    preset = parse_preset("f3:0.1,0.01,0.001", 0.5)
    net = generate_power_law(n, m, seed, preset, budget=size["budget"],
                             skew=1.5)
    path = os.path.join(workdir, "dense.json")
    save_network(net, path)
    net_args = ["--net", path, "--R", str(size["R"]),
                "--R-pre", str(size["R_pre"])]
    return [_run_op(s, s, net_args, str(size["budget"]), size["reps"], seed,
                    n, os.path.join(workdir, f"{s}.csv"))
            for s in ("a-greedy", "h-greedy")]


# ---------------------------------------------------------------------------
# estimator and oracle
# ---------------------------------------------------------------------------

def build_exact_agreement(seed: int, workdir: str, size: dict, faults: dict):
    fixture = two_node_fixture()
    reps = size["estimate_reps"]
    factory = functools.partial(static_seed_factory, (0,))
    gen = dicnet.estimator.substream(seed, 0, 0)
    instances = [random_tiny_network(gen, max_nodes=4, budget=2)
                 for _ in range(size["instances"])]
    shift = faults.get("exact_offset", 0.0)

    def estimate() -> OpResult:
        exact = dicnet.oracle.exact_policy_value(
            fixture, lambda: StaticSeedListPolicy([0])) + shift
        t0 = time.perf_counter()
        est = dicnet.estimator.estimate_policy_spread(fixture, factory, reps,
                                                      seed, DELTA)
        elapsed = time.perf_counter() - t0
        res = OpResult("estimate", "estimate", reps, elapsed,
                       _sha(repr(est.mean), repr(exact)))
        if abs(exact - TWO_NODE_EXACT) > TOL:
            res.problems.append(f"exact value {exact!r} != {TWO_NODE_EXACT}")
        if abs(est.mean - exact) > est.half_width:
            res.problems.append(f"estimate {est.mean} outside {exact} +- "
                                f"{est.half_width}")
        return res

    def oracle_instance(i: int, net):
        def op() -> OpResult:
            t0 = time.perf_counter()
            opt = dicnet.oracle.optimal_adaptive_value(net, "adaptive")
            greedy = dicnet.oracle.greedy_adaptive_value(net)
            elapsed = time.perf_counter() - t0
            res = OpResult(f"oracle-{i}", "oracle", 1, elapsed,
                           _sha(repr(opt), repr(greedy)))
            if not GREEDY_RATIO * opt - TOL <= greedy <= opt + TOL:
                res.problems.append(f"instance {i}: greedy {greedy} outside "
                                    f"[(1-1/e) x {opt}, {opt}]")
            if not 0.0 <= opt <= net.node_count:
                res.problems.append(f"instance {i}: optimal {opt} outside "
                                    f"[0, {net.node_count}]")
            return res
        return op

    return [_op("estimate", "estimate", estimate)] + [
        _op(f"oracle-{i}", "oracle", oracle_instance(i, net))
        for i, net in enumerate(instances)]


BUILDERS = {
    "paper-sweep": build_paper_sweep,
    "dense-prune": build_dense_prune,
    "exact-agreement": build_exact_agreement,
}


# ---------------------------------------------------------------------------
# passes, digests and determinism
# ---------------------------------------------------------------------------

def _digest_groups(results: list[OpResult]) -> dict[str, str]:
    groups: dict[str, list[str]] = {}
    for r in results:
        groups.setdefault(r.group, []).append(r.digest)
    return {k: v[0] if len(v) == 1 else _sha(*v) for k, v in groups.items()}


def reference_time() -> float:
    """Seconds for the reference loop: the fastest of REF_REPEATS runs."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(REF_LOOP):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def import_time() -> float:
    """Seconds to import dicnet.cli in a fresh interpreter, which inherits
    this process's import path."""
    code = ("import time; t = time.perf_counter(); import dicnet.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-s", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(ops, tracer=None):
    """Run every op once.  Return the pass's start and end times, the ops'
    results, and per cell the mean of the reference times taken just before
    and just after its ops (none in a traced pass, whose wall time must not
    include them)."""
    results = []
    refs: dict[str, float] = {}
    gc.collect()                # start each pass from a settled heap
    before = reference_time() if tracer is None else 0.0
    t0 = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for i, op in enumerate(ops):
            try:
                results.append(op())
            except Exception as exc:            # an exception fails the op
                results.append(OpResult(op.op_name, op.op_cell, 0, 0.0,
                                        problems=[repr(exc)]))
            if tracer is None and (i + 1 == len(ops)
                                   or ops[i + 1].op_cell != op.op_cell):
                after = reference_time()
                refs[op.op_cell] = (before + after) / 2
                before = after
    if threading.active_count() > 1:
        # another thread would slow the reference loop and so flatter the
        # normalised times
        results[0].problems.append(f"{threading.active_count() - 1} threads "
                                   f"besides the main one were running")
    return t0, time.perf_counter(), results, refs


def check_pass(results, digests, reference, first) -> dict[str, list[str]]:
    """Compare a pass with the pinned reference digests and with the first
    pass of the run.  Returns problems keyed by digest group (an op name, or
    "oracle" for the whole oracle batch)."""
    problems: dict[str, list[str]] = {}
    for key, digest in digests.items():
        want = reference.get(key)
        if want is not None and want != digest:
            problems.setdefault(key, []).append(
                f"digest {digest[:12]} differs from the reference {want[:12]}")
        if first is not None and first[0].get(key) != digest:
            problems.setdefault(key, []).append(
                "nondeterministic: digest differs from the first pass")
    if first is not None:
        for r in results:
            if first[1].get(r.name) != r.counts:
                problems.setdefault(r.name, []).append(
                    f"nondeterministic: counts {r.counts} differ from "
                    f"{first[1].get(r.name)}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _spread(values) -> float:
    """(max - min) / median of the values, 0 for a single value."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def _geomean(values) -> float:
    values = list(values)
    if min(values) <= 0.0:          # a cell whose every op failed
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def cell_totals(results: list[OpResult]) -> tuple[dict, dict]:
    """Per cell: the units (replications or instances) done, and the
    seconds its ops took."""
    units: dict[str, int] = {}
    secs: dict[str, float] = {}
    for r in results:
        units[r.cell] = units.get(r.cell, 0) + r.units
        secs[r.cell] = secs.get(r.cell, 0.0) + r.elapsed
    return units, secs


def layer_metrics(tracer, wall: float, overhead: float) -> dict:
    lt = tracer.layer_times()
    c = tracer.counters
    s = {name: t for name, (t, _) in lt.items()}
    calls = {name: k for name, (_, k) in lt.items()}
    decide_s = s["strategies.decide"]
    unattributed = wall - tracer.root_time()
    values = {
        "data.generate_s": (s["data.generate"], "s"),
        "data.generate_calls": (calls["data.generate"], "count"),
        "data.load_s": (s["data.load"], "s"),
        "data.load_calls": (calls["data.load"], "count"),
        "realization.sample_full_s": (s["realization.sample_full"], "s"),
        "realization.sample_full_calls": (calls["realization.sample_full"],
                                          "count"),
        "diffusion.step_round_s": (s["diffusion.step_round"], "s"),
        "diffusion.step_round_calls": (calls["diffusion.step_round"], "count"),
        "diffusion.run_policy_self_s": (s["diffusion.run_policy"], "s"),
        "diffusion.rounds": (c["rounds"], "count"),
        "strategies.decide_s": (decide_s, "s"),
        "strategies.first_decide_s": (tracer.first_decide_s, "s"),
        "strategies.gain_evals": (c["gain_evals"], "count"),
        "strategies.gain_evals_per_s": (
            c["gain_evals"] / decide_s if decide_s > 0 else 0.0, "1/s"),
        "strategies.celf_eval_fraction": (
            c["gain_evals"] / c["celf_denominator"]
            if c["celf_denominator"] else 0.0, "ratio"),
        "strategies.quiescence_s": (s["strategies.quiescence"], "s"),
        "strategies.quiescence_calls": (calls["strategies.quiescence"],
                                        "count"),
        "strategies.select_s": (s["strategies.select"], "s"),
        "strategies.select_evals": (c["select_evals"], "count"),
        "strategies.prune_s": (s["strategies.prune"], "s"),
        "strategies.prune_kept_fraction": (
            statistics.fmean(c["prune_kept"]) if c["prune_kept"] else 0.0,
            "ratio"),
        "estimator.self_s": (s["estimator"], "s"),
        "estimator.reps": (c["reps"], "count"),
        "oracle.optimal_s": (s["oracle.optimal"], "s"),
        "oracle.greedy_s": (s["oracle.greedy"], "s"),
        "oracle.exact_value_s": (s["oracle.exact_value"], "s"),
        "cli.self_s": (s["cli"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------

def measure(cfg: dict) -> dict:
    workload, seed = cfg["workload"], cfg["seed"]
    size = SIZES[workload][cfg.get("scale", "full")]
    faults = cfg.get("faults", {})
    reference = cfg.get("reference", {})
    workdir = os.path.join(cfg["workdir"], workload)
    os.makedirs(workdir, exist_ok=True)

    # Set-up is an import of dicnet.cli in a fresh interpreter plus a build
    # of the inputs.  Before each untraced pass it is repeated until the run
    # has had one per seconds / SETUP_REPEATS gone by, and it is topped up to
    # SETUP_REPEATS at the end, so that its median spans the whole run
    # rather than one moment of the host.
    import_times: list[float] = []
    build_times: list[float] = []

    def set_up():
        import_times.append(import_time())
        gc.collect()            # a build does not pay for the last one's garbage
        t0 = time.perf_counter()
        built = BUILDERS[workload](seed, workdir, size, faults)
        build_times.append(time.perf_counter() - t0)
        return built

    ops = set_up()
    setup_every = cfg["seconds"] / SETUP_REPEATS
    traced = bool(cfg["trace"])
    passes = []
    tracers = []
    first = None
    attempted = failed = 0
    failures: list[str] = []
    t_start = time.perf_counter()
    while True:
        use_trace = traced and len(passes) % 2 == 1  # untraced, traced, ...
        while (passes and not use_trace and setup_every > 0
               and time.perf_counter() - t_start
               >= len(build_times) * setup_every):
            ops = set_up()
        tracer = tracing.Tracer() if use_trace else None
        t0, t1, results, refs = run_pass(ops, tracer)
        wall = t1 - t0
        digests = _digest_groups(results)
        counts = {r.name: r.counts for r in results}
        extra = check_pass(results, digests, reference, first)
        if first is None:
            first = (digests, counts)
        # group problems go to the group's first op, pass-level ones to the
        # pass's first op, so that failed never exceeds attempted
        pass_problems = []
        if tracer is not None:
            pass_problems += tracer.span_problems(t0, t1)
        pass_problems += [f"tracing wrapper left installed: {w}"
                          for w in tracing.installed_wrappers()]
        seen = set()
        for i, r in enumerate(results):
            problems = list(r.problems)
            if r.group not in seen:
                seen.add(r.group)
                problems += extra.get(r.group, [])
            if i == 0:
                problems += pass_problems
            attempted += 1
            if problems:
                failed += 1
                failures += [f"pass {len(passes)} {r.name}: {p}"
                             for p in problems]
        units, secs = cell_totals(results)
        passes.append({"traced": use_trace, "wall_s": wall, "units": units,
                       "cell_s": secs, "ref_s": refs, "digests": digests,
                       "counts": counts})
        tracers.append(tracer)
        # start another pass only if it should end within the window
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > cfg["seconds"] and (not traced or len(passes) >= 2):
            break

    # The host's speed drifts by up to 2x over seconds to minutes, which
    # moves every raw time of a 40 s run together.  The reference loop,
    # timed between the cells of every untraced pass, drifts with it; so the
    # gated times are normalised to the time they would take on a host where
    # the reference loop takes REF_NOMINAL_S: raw median x REF_NOMINAL_S /
    # the run's median reference time.  A change to dicnet moves the raw
    # times and not the reference.  Raw times are printed, recorded and
    # reported by the traced run.
    while len(build_times) < SETUP_REPEATS:
        set_up()
    untraced = [p for p in passes if not p["traced"]]
    cells = CELLS[workload]
    setup_s = statistics.median(import_times) + statistics.median(build_times)
    out = {"attempted": attempted, "failed": failed, "failures": failures,
           "passes": passes, "import_s": import_times,
           "build_s": build_times, "setup_s": setup_s,
           "digests": first[0], "numpy": np.__version__}
    cell_s = {c: statistics.median(p["cell_s"][c] for p in untraced)
              for c in cells}
    raw_rates = {c: statistics.median(p["units"][c] / p["cell_s"][c]
                                      if p["cell_s"][c] else 0.0
                                      for p in untraced)
                 for c in cells}
    raw_wall = sum(cell_s.values())
    ref_s = statistics.median(r for p in untraced for r in p["ref_s"].values())
    scale = REF_NOMINAL_S / ref_s
    out["raw"] = {"wall_s": raw_wall, "ref_s": ref_s,
                  **{cell_metric(c): r for c, r in raw_rates.items()}}
    if not traced:
        out["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "norm_wall_s": {"value": raw_wall * scale, "unit": "s"},
            "norm_reps_per_s": {"value": _geomean(raw_rates.values()) / scale,
                                "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        out["cells"] = {cell_metric(c): r / scale
                        for c, r in raw_rates.items()}
        # how much of the result each cell takes: a cell with share f that
        # slows by a factor r moves norm_wall_s by 1 + f (r - 1)
        out["cell_share"] = {c: t / raw_wall for c, t in cell_s.items()}
        out["pass_spread"] = {
            "wall_s": _spread([sum(p["cell_s"][c] for c in cells)
                               for p in untraced]),
            "ref_s": _spread([r for p in untraced
                              for r in p["ref_s"].values()]),
            **{cell_metric(c): _spread([p["cell_s"][c] for p in untraced])
               for c in cells}}
    else:
        idx = [i for i, p in enumerate(passes) if p["traced"]]
        walls = sorted((passes[i]["wall_s"], i) for i in idx)
        rep_wall, rep = walls[(len(walls) - 1) // 2]   # the median pass
        overhead = statistics.median(
            sum(passes[i]["cell_s"].values()) for i in idx) / raw_wall
        out["metrics"] = layer_metrics(tracers[rep], rep_wall, overhead)
        out["metrics"].update({name: {"value": out["raw"].get(name, 0.0),
                                      "unit": "1/s"}
                               for name in CELL_METRICS})
        out["metrics"]["wall_s"] = {"value": raw_wall, "unit": "s"}
        out["metrics"]["host.ref_s"] = {"value": out["raw"]["ref_s"],
                                        "unit": "s"}
        exact = [exact_counts(layer_metrics(tracers[i], passes[i]["wall_s"],
                                            overhead)) for i in idx]
        if any(e != exact[0] for e in exact):
            failed += 1
            out["failed"] = failed
            failures.append(f"nondeterministic: exact counts differ between "
                            f"traced passes: {exact}")
        out["exact_counts"] = exact[0]
        with open(os.path.join(cfg["workdir"],
                               f"trace-{workload}-seed{seed}.jsonl"),
                  "w", encoding="utf-8") as fh:
            tracers[rep].write(fh)
    out["wrappers_left"] = tracing.installed_wrappers()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="JSON object with the run settings")
    cfg = json.loads(parser.parse_args(argv).config)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(dicnet.cli.__file__).startswith(src + os.sep):
        print(f"error: dicnet imported from {dicnet.cli.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    result = measure(cfg)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
