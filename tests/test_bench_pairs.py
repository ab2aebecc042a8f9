"""The paired-benchmark tool's record of each side's source."""

import importlib.util
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_uncommitted_source_is_marked(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    assert not bench_pairs.uncommitted(tmp_path)
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert not bench_pairs.uncommitted(tmp_path)
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert bench_pairs.uncommitted(tmp_path)
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "src" / "b.py").write_text("y = 1\n")     # untracked
    assert bench_pairs.uncommitted(tmp_path)


def _run(workload, pair, side, wall, rate, share):
    return {"workload": workload, "pair": pair, "side": side,
            "metrics": {"norm_wall_s": {"value": wall}},
            "cells": {"a-greedy.reps_per_s": rate},
            "cell_share": {"a-greedy": share}}


def test_summarize_gives_medians_iqrs_and_change_wins():
    # four pairs: the change is faster in pairs 0 and 1, ties in pair 2 and
    # is slower in pair 3; a tie counts for neither side
    parent = [(1.0, 2.0, 0.5), (2.0, 2.0, 0.4), (3.0, 4.0, 0.5),
              (4.0, 4.0, 0.6)]
    change = [(0.5, 3.0, 0.3), (1.0, 2.5, 0.3), (3.0, 4.0, 0.2),
              (5.0, 3.0, 0.4)]
    runs = [_run("w", p, s, *values)
            for s, sides in (("parent", parent), ("change", change))
            for p, values in enumerate(sides)]
    summary = bench_pairs.summarize(
        runs, [{"name": "norm_wall_s", "better": "lower"}])
    assert list(summary) == ["w"]
    wall = summary["w"]["norm_wall_s"]
    assert (wall["change_wins"], wall["pairs"], wall["better"]) == (2, 4,
                                                                    "lower")
    # inclusive quartiles of 1, 2, 3, 4: 1.75, 2.5, 3.25
    assert wall["parent"] == {"median": 2.5, "iqr": 1.5}
    assert wall["change"] == {"median": 2.0, "iqr": 3.5 - 0.875}
    cell = summary["w"]["a-greedy.reps_per_s"]
    # higher is better: the change wins pairs 0 and 1, ties pair 2
    assert (cell["change_wins"], cell["pairs"], cell["better"]) == (2, 4,
                                                                    "higher")
    assert cell["parent"] == {"median": 3.0, "iqr": 2.0, "share": 0.5}
    assert cell["change"] == {"median": 3.0, "iqr": 3.25 - 2.875,
                              "share": 0.3}
