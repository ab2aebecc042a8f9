"""Run-to-run spread of the benchmark's metrics, as a gate would see it.

    python3 perfbench/spread.py --workload dense-prune --seeds 1..10
    python3 perfbench/spread.py --workload paper-sweep --seeds 3,3 --trace 1

Runs `run.py` once per seed, one run at a time, and prints for each metric
the median, the quartiles, and the interquartile distance as a share of the
median next to the metric's bound in BENCHMARK.json (and a third of it, the
steadiness target).  Distinct seeds give distinct inputs, so their spread
mixes differences in work with timing noise; repeating one seed
(`--seeds 3,3,3,3,3`) shows the timing noise alone.  Runs that repeat a seed
must report identical exact counts; any difference is printed as
nondeterminism and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import exact_counts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(t) for t in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    counts_by_seed: dict[int, dict] = {}
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in out["metrics"].items()}
        counts = exact_counts(out["metrics"])
        print(f"seed {seed}: correct={out['correct']} attempted="
              f"{out['attempted']} failed={out['failed']} " +
              " ".join(f"{k}={v:.6g}" for k, v in metrics.items()
                       if k in bounds or k.endswith("_s")), flush=True)
        if not out["correct"]:
            status = 1
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)
        if seed in counts_by_seed and counts_by_seed[seed] != counts:
            print(f"seed {seed}: NONDETERMINISTIC exact counts "
                  f"{counts} != {counts_by_seed[seed]}")
            status = 1
        counts_by_seed.setdefault(seed, counts)
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6} {'bound/3':>7}")
    for k, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        flag = "" if bound is None else (
            "  over bound" if share > bound else
            "  over bound/3" if share > bound / 3 else "")
        print(f"{k:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%} "
              f"{'' if bound is None else f'{bound:6.2f}'} "
              f"{'' if bound is None else f'{bound / 3:7.3f}'}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
