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
