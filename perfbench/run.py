"""dicnet benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a dicnet checkout; the program is imported from
`src/`.  Each workload runs in its own child process.  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced pass.  Every run
also writes a record (machine, versions, commit, seed, load average, raw
per-pass figures) under `.perfbench_work/records/`.

Exit codes: 0 a result was printed (its "correct" field says whether every
output check passed), 1 the child failed or timed out, 2 no dicnet source
tree next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("paper-sweep", "dense-prune", "exact-agreement")
TIME_LIMIT_S = 170.0           # a run must end within 180 s


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat bit for bit between runs at one seed:
    every count, and the fractions of counts."""
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] == "count" or k.endswith("_fraction")}


def _child_cmd(*args: str) -> list[str]:
    # -s: ignore user site-packages, so only the checkout's src is imported
    return [sys.executable, "-s", *args]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: str = "full", faults=None, reference=None) -> dict:
    """Measure one workload in a child process and return its result dict."""
    if reference is None:
        reference = load_reference().get(workload, {}).get(str(seed), {})
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "scale": scale, "faults": faults or {},
           "reference": reference, "workdir": str(WORK)}
    WORK.mkdir(exist_ok=True)
    proc = subprocess.run(
        _child_cmd(str(BENCH / "workloads.py"), json.dumps(cfg)),
        env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=TIME_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the source tree, which identifies the code also where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "src_sha256": _src_digest()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, trace: int, result: dict,
           record_path: Path) -> dict:
    """Print the human-readable lines and return the contract's JSON object."""
    metrics = result["metrics"]
    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"{len(result['passes'])} passes, {result['attempted']} ops, "
          f"{result['failed']} failed")
    spread = result.get("pass_spread", {})
    for name, m in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"  (median import {statistics.median(result['import_s']):.4f} s"
                    f" + median build {statistics.median(result['build_s']):.4f} s)")
        elif name in spread:
            note = f"  (max-min over passes: {spread[name]:.1%} of median)"
        print(f"  {name} = {_fmt(m['value'])} {m['unit']}{note}")
    share = result.get("cell_share", {})
    for name, value in result.get("cells", {}).items():
        print(f"  norm {name} = {_fmt(value)} 1/s  "
              f"({share[name.split('.')[0]]:.0%} of norm_wall_s)")
    raw = result["raw"]
    for name, value in raw.items():
        note = (f"  (max-min over passes: {spread[name]:.1%} of median)"
                if name in spread else "")
        unit = "s" if name in ("wall_s", "ref_s") else "1/s"
        print(f"  raw {name} = {_fmt(value)} {unit}{note}")
    print(f"  ops_attempted = {result['attempted']} count")
    print(f"  ops_failed = {result['failed']} count")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def pin(workload: str, seed: int, digests: dict) -> None:
    """Store this run's output digests as the reference for its seed."""
    ref = load_reference()
    have = ref.setdefault(workload, {}).get(str(seed))
    if have is not None and have != digests:
        raise SystemExit(f"{workload} seed {seed}: digests differ from the "
                         f"pinned reference; not overwriting")
    ref[workload][str(seed)] = digests
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="store this run's output digests as the "
                             "reference for its seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "dicnet" / "__init__.py").is_file():
        print(f"error: no dicnet source tree at {ROOT / 'src'}; run the "
              f"benchmark from a dicnet checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    machine = machine_record()
    for workload in workloads:
        load_before = os.getloadavg()
        started = time.time()
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record = {"workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "started": started, "load_before": load_before,
                  "load_after": os.getloadavg(),
                  "machine": {**machine, "numpy": result["numpy"]},
                  **result}
        records = WORK / "records"
        records.mkdir(parents=True, exist_ok=True)
        path = records / (f"{time.strftime('%Y%m%dT%H%M%S')}-{workload}-"
                          f"seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        if args.pin:
            if result["failed"]:
                print("error: not pinning a run with failed ops",
                      file=sys.stderr)
                return 1
            pin(workload, args.seed, result["digests"])
        print(json.dumps(report(workload, args.seed, args.trace, result,
                                path)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
