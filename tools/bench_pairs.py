"""Paired benchmark runs: a parent checkout against this one.

    git clone --quiet . ../parent        # or check out any parent revision
    python3 tools/bench_pairs.py --pr N --parent-dir ../parent --seed 11 \
        --workloads exact-agreement=10,paper-sweep=5,dense-prune=5

Runs `perfbench/run.py --trace 0` for `run_seconds` of BENCHMARK.json on
the parent checkout and on this one alternately, one pair at a time,
switching which side goes first from pair to pair so that a drift of the
host's speed falls on both sides alike.  Writes `BENCH_<pr>.json` at the
root of this checkout: every run's end-to-end metrics and per-cell
normalised rates and shares, per workload and metric or cell the median and
interquartile range of each side and the number of pairs the change won,
and the machine and both sides' commits and source digests as the runs' own
perfbench records give them.  A side whose `src/`
differs from its commit is marked `"uncommitted": true`: its `git_commit`
then names the commit its source was changed from.

Exit codes: 0 the file was written, 1 a run failed, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-sweep", "dense-prune", "exact-agreement")
RECORD_PREFIX = "  record: "        # the line where run.py names its record


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def parse_workloads(text: str) -> dict[str, int]:
    """'name=pairs,...' to {name: pairs}."""
    out: dict[str, int] = {}
    for item in text.split(","):
        name, sep, count = item.partition("=")
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        if not sep or not count.isdigit() or int(count) < 1:
            raise ValueError(f"{name}: give a pair count >= 1 as {name}=N")
        out[name] = int(count)
    return out


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One `perfbench/run.py` run in `checkout`: its closing JSON object and
    the record it wrote."""
    proc = subprocess.run(
        [sys.executable, "-s", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {checkout}: run.py exited "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    path = [ln[len(RECORD_PREFIX):] for ln in lines
            if ln.startswith(RECORD_PREFIX)][-1]
    with open(checkout / path, encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


def uncommitted(checkout: Path) -> bool:
    """True when git reports changes under the checkout's `src/`."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.returncode == 0 and bool(proc.stdout.strip())


def _compare(side: dict, pairs: list, better: str) -> dict:
    """One summary entry from {side: {pair: value}}: each side's median and
    IQR, and how many pairs the change won (strictly better in the sense of
    `better`, so a tie counts for neither side)."""
    lower = better == "lower"
    wins = sum((side["change"][p] < side["parent"][p]) if lower
               else (side["change"][p] > side["parent"][p])
               for p in pairs)
    entry = {}
    for s, values in side.items():
        q1, q2, q3 = _quartiles([values[p] for p in pairs])
        entry[s] = {"median": q2, "iqr": q3 - q1}
    return {**entry, "change_wins": wins, "pairs": len(pairs),
            "better": better}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload, an entry of `_compare` for each end-to-end metric and
    for each cell's normalised rate (higher is better); a cell's entry gives
    each side's median share of norm_wall_s too."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})

        def side(read):
            return {s: {r["pair"]: read(r) for r in mine if r["side"] == s}
                    for s in ("parent", "change")}

        table = {spec["name"]: _compare(
                     side(lambda r: r["metrics"][spec["name"]]["value"]),
                     pairs, spec["better"])
                 for spec in metrics}
        for cell in dict.fromkeys(c for r in mine for c in r.get("cells", {})):
            entry = table[cell] = _compare(
                side(lambda r: r["cells"][cell]), pairs, "higher")
            shares = side(lambda r: r["cell_share"][cell.split(".")[0]])
            for s, values in shares.items():
                entry[s]["share"] = statistics.median(values.values())
        out[workload] = table
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent-dir", type=Path, required=True,
                        help="a checkout of the parent revision")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated name=pairs list")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        plan = parse_workloads(args.workloads)
    except ValueError as exc:
        parser.error(str(exc))
    if not (args.parent_dir / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.parent_dir}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {"pr": args.pr, "seed": args.seed,
              "seconds": bench["run_seconds"], "runs": []}
    sides = {"parent": args.parent_dir.resolve(), "change": ROOT}
    machines = {}
    try:
        for workload, pairs in plan.items():
            for pair in range(pairs):
                order = (("parent", "change") if pair % 2 == 0
                         else ("change", "parent"))
                for position, side in enumerate(order):
                    result, run_record = run_once(
                        sides[side], workload, args.seed, bench["run_seconds"])
                    machines.setdefault(side, run_record["machine"])
                    record["runs"].append({
                        "workload": workload, "pair": pair, "side": side,
                        "position": position, **result,
                        "cells": run_record["cells"],
                        "cell_share": run_record["cell_share"]})
                    print(f"{workload} pair {pair} {side}: norm_wall_s = "
                          f"{result['metrics']['norm_wall_s']['value']:.4g}"
                          f", failed {result['failed']}", file=sys.stderr)
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["machine"] = {k: v for k, v in machines["change"].items()
                         if k not in ("git_commit", "src_sha256")}
    # each side's git_commit is its checkout's HEAD and its src_sha256 names
    # the source it ran, committed or not
    record["commits"] = {side: {"git_commit": m["git_commit"],
                                "src_sha256": m["src_sha256"],
                                "uncommitted": uncommitted(sides[side])}
                         for side, m in machines.items()}
    record["summary"] = summarize(record["runs"], bench["end_to_end"])
    out = ROOT / f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
