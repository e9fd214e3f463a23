"""The README's examples, run as written.

The library example is executed as a script and must print the boundary
identity it claims; the run spec of the "Command line" section is run
through ``cli.main`` and must give the verdict of a non-accretive ``K``.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from maccretive.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced ``language`` block after the line ``after``."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_the_boundary_identity():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("python", "## Library example"), "README.md", "exec"), {})
    left, equals, right = out.getvalue().split()
    assert equals == "="
    assert math.isfinite(float(left))
    assert float(left) == pytest.approx(float(right), rel=1e-12)


def test_wave_impedance_spec_fails_on_a_non_accretive_k(tmp_path):
    spec = json.loads(_block("json", "A run spec names one command"))
    assert spec["command"] == "wave-impedance"
    spec_path, out_dir = tmp_path / "runspec.json", tmp_path / "results"
    spec_path.write_text(json.dumps(spec))
    assert main(["--spec", str(spec_path), "--out", str(out_dir)]) == 1
    report = json.loads((out_dir / "report.json").read_text())
    assert report["first_failure"] == "K_not_accretive"
    assert report["accretive_K"] is False
    assert (out_dir / "data.csv").is_file()
