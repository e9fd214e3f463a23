"""``tools/compare_reports.py``, the gate that a change leaves every CLI
output byte-identical: it finds no difference between a tree and itself,
and finds the one a changed float format makes, for one pairing of a
workload with a seed or several in one call."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def compare(parent: Path, change: Path, *workloads: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "tools/compare_reports.py", str(parent), str(change),
         "--workload", *workloads, "--seed", "1", "--specs", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["decomposition", "block-membership", "trajectories"])
def test_a_tree_matches_itself(workload):
    done = compare(ROOT, ROOT, workload)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 of 3 specs differ"]


def test_two_workloads_in_one_call_print_a_total_each():
    done = compare(ROOT, ROOT, "decomposition", "block-membership")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "decomposition seed 1: 0 of 3 specs differ",
        "block-membership seed 1: 0 of 3 specs differ",
    ]


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


def test_a_difference_in_one_of_two_workloads_fails_the_call(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "maccretive" / "cli.py"
    text = cli.read_text()
    old = 'body = {"samples": p["samples"],'
    assert text.count(old) == 1
    cli.write_text(text.replace(old, 'body = {"samples": p["samples"] + 1,'))
    done = compare(ROOT, tmp_path, "trajectories", "decomposition")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "trajectories seed 1: 0 of 3 specs differ"
    assert lines[1:] == [
        *(f"decomposition seed 1: spec {i}: report.json differ (exit codes 0, 0)" for i in range(3)),
        "decomposition seed 1: 3 of 3 specs differ",
    ]
