"""``tools/detector_replay.py`` end to end, in a separate process: the tool
re-imports ramseykit, which would swap the modules under the other tests."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "detector_replay.py"


def _replay(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "cli-roundtrip", "--repeat", "1", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_replay_on_the_recording_tree_gives_the_recorded_answers():
    done = _replay()
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split("\t") == ["kind", "calls", "hits", "seconds"]
    kinds = {row.split("\t")[0]: int(row.split("\t")[1]) for row in rows}
    assert kinds.get("Path", 0) > 0, done.stdout


def test_replay_fails_on_a_tree_whose_test_answers_differently(tmp_path):
    # the path test of a scratch tree asks for one vertex too many
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    patterns = src / "ramseykit" / "patterns.py"
    text = patterns.read_text()
    right = "return partial(_grow, (1 << n) - 1, order - 2)"
    assert text.count(right) == 1
    patterns.write_text(text.replace(right, "return partial(_grow, (1 << n) - 1, order - 1)"))
    done = _replay("--src", str(src))
    assert done.returncode == 1
    assert "replayed answers differ from the recorded ones" in done.stderr
