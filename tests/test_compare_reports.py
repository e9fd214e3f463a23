"""``tools/compare_reports.py``, the gate that a change leaves every CLI
output byte-identical: it finds no difference between a tree and itself,
and finds the one a changed float format makes."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def compare(parent: Path, change: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "tools/compare_reports.py", str(parent), str(change),
         "--workload", workload, "--seed", "1", "--specs", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["decomposition", "block-membership", "trajectories"])
def test_a_tree_matches_itself(workload):
    done = compare(ROOT, ROOT, workload)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 of 3 specs differ"]


def test_a_float_format_of_16_digits_differs(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "maccretive" / "cli.py"
    text = cli.read_text()
    assert text.count('format(float(x), ".17g")') == 1
    cli.write_text(text.replace('format(float(x), ".17g")', 'format(float(x), ".16g")'))
    done = compare(ROOT, tmp_path, "trajectories")
    assert done.returncode == 1, done.stderr
    *listed, total = done.stdout.splitlines()
    assert listed and all(line.startswith("spec ") and "report.json" in line for line in listed)
    assert total == f"{len(listed)} of 3 specs differ"
