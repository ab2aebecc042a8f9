"""Self-check: the benchmark's gates fire, on a scaled-down pass of each
workload.

    python3 perfbench/selfcheck.py

For every workload it runs small passes through `run.run_workload` and
expects:

  1. a clean pass: no failed op, every end-to-end metric present;
  2. the same pass against its own digests as the reference: no failed op;
  3. the same pass against a corrupted reference digest: failed ops > 0;
  4. (exact-agreement) a wrong exact value: failed ops > 0;
  5. a traced run: no failed op, every per-layer metric present, and no
     tracing wrapper left installed afterwards.

It also checks in-process that leaving a Tracer restores every original,
even when the traced code raises, that the span-nesting check flags spans
that do not nest, and that a pass during which a second thread runs fails;
and that the command exits non-zero without printing a result where there
is no dicnet source tree.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]
import tracing  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402


def _corrupt(digests: dict) -> dict:
    key = sorted(digests)[0]
    bad = dict(digests)
    bad[key] = ("0" if digests[key][0] != "0" else "1") + digests[key][1:]
    return bad


def check_workload(workload: str, bench: dict, seed: int = 5) -> list[str]:
    errors = []

    def small(**kwargs):
        return run.run_workload(workload, seed, 0, scale="small", **kwargs)

    def expect(label, result, failed):
        ok = result["failed"] > 0 if failed else result["failed"] == 0
        print(f"  {workload}: {label}: failed={result['failed']} "
              f"[{'ok' if ok else 'UNEXPECTED'}]")
        if not ok:
            errors.append(f"{workload}: {label}: {result['failures'][:3]}")

    clean = small(trace=0, reference={})
    expect("clean pass", clean, failed=False)
    missing = ({m["name"] for m in bench["end_to_end"]}
               - set(clean["metrics"]))
    if missing:
        errors.append(f"{workload}: end-to-end metrics missing: {missing}")
    expect("own digests as reference",
           small(trace=0, reference=clean["digests"]), failed=False)
    expect("corrupted reference digest",
           small(trace=0, reference=_corrupt(clean["digests"])), failed=True)
    if workload == "exact-agreement":
        expect("wrong exact value",
               small(trace=0, reference={}, faults={"exact_offset": 0.25}),
               failed=True)
    traced = small(trace=1, reference={})
    expect("traced run", traced, failed=False)
    missing = ({m["name"] for m in bench["per_layer"]}
               - set(traced["metrics"]))
    if missing:
        errors.append(f"{workload}: per-layer metrics missing: {missing}")
    if traced["wrappers_left"]:
        errors.append(f"{workload}: wrappers left installed after the "
                      f"traced run: {traced['wrappers_left']}")
    return errors


def check_tracer_restores() -> list[str]:
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    try:
        with tracing.Tracer():
            if not tracing.installed_wrappers():
                return ["Tracer installed no wrappers"]
            raise KeyError("raised inside the traced block")
    except KeyError:
        pass
    now = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    if tracing.installed_wrappers() or any(
            a is not b for a, b in zip(originals, now)):
        return ["wrappers left installed after an exception in the block"]
    return []


def check_span_nesting() -> list[str]:
    """Well-nested spans pass; a child that outlasts its parent, a root
    span outside the pass and overlapping siblings are each flagged."""

    def problems(spans):
        tracer = tracing.Tracer()
        for parent, start, end in spans:
            tracer.layer.append(0)
            tracer.parent.append(parent)
            tracer.rep.append(-1)
            tracer.start.append(start)
            tracer.end.append(end)
        return tracer.span_problems(0.0, 10.0)

    errors = []
    cases = {
        "well nested": ([(-1, 1.0, 5.0), (0, 2.0, 3.0), (0, 3.0, 4.0),
                         (-1, 6.0, 7.0)], False),
        "child outlasts its parent": ([(-1, 1.0, 5.0), (0, 2.0, 6.0)], True),
        "root span outside the pass": ([(-1, 9.0, 11.0)], True),
        "overlapping siblings": ([(-1, 1.0, 5.0), (0, 2.0, 3.5),
                                  (0, 3.0, 4.0)], True),
    }
    for label, (spans, flagged) in cases.items():
        got = problems(spans)
        ok = bool(got) == flagged
        print(f"  span check, {label}: {len(got)} problems "
              f"[{'ok' if ok else 'UNEXPECTED'}]")
        if not ok:
            errors.append(f"span check, {label}: {got}")
    return errors


def check_thread_guard() -> list[str]:
    """A pass during which a second thread runs fails its first op, since
    that thread would slow the reference loop."""
    stop = threading.Event()
    threads = []

    def op():
        threads.append(threading.Thread(target=stop.wait))
        threads[-1].start()
        return workloads.OpResult("op", "cell", 1, 0.0)

    op.op_name, op.op_cell = "op", "cell"
    try:
        _, _, results, _ = workloads.run_pass([op])
    finally:
        stop.set()
        for t in threads:
            t.join()
    if not results[0].problems:
        return ["a pass with a second thread running did not fail"]
    print(f"  thread guard: {results[0].problems[0]} [ok]")
    return []


def check_bare_directory() -> list[str]:
    """The command must fail, printing no result, without a source tree."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(bare / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run([*command, "--workload", "exact-agreement", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}"]
    print(f"  bare directory: exit {proc.returncode}, no result [ok]")
    return []


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = (check_tracer_restores() + check_span_nesting()
              + check_thread_guard())
    for workload in run.WORKLOADS:
        errors += check_workload(workload, bench)
    errors += check_bare_directory()
    for e in errors:
        print(f"SELF-CHECK FAILED: {e}")
    print("self-check:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
