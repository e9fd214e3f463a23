"""Smoke test of the benchmark itself, on tiny specs.

Run from the repository root with ``python3 -m pytest benchmarks/test_smoke.py``.
"""

import json
from pathlib import Path

import pytest

import oracle
import run
import specgen

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(specgen, "DECOMPOSITION_SAMPLES", 2)
    monkeypatch.setattr(specgen, "BLOCK_STATES", 2)
    monkeypatch.setattr(specgen, "TRAJECTORY_STEPS", (2, 3))
    monkeypatch.setattr(run, "BATCH", 10)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WORK", tmp_path)


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return env, json.loads(lines[-1])


@pytest.mark.parametrize("workload", specgen.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_appears_with_its_unit(tiny, capsys, workload, trace):
    env, result = _run(capsys, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert env["python"] and env["numpy"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(specgen.WORKLOADS)


def test_decomposition_never_touches_the_block_layer(tiny, capsys):
    _, result = _run(capsys, "decomposition", 1)
    assert result["metrics"]["blockop.bd_project.calls"]["value"] == 0
    assert result["metrics"]["funcspace.l2_inner.calls"]["value"] > 0


def _wave_spec(k):
    return {"command": "wave-impedance", "seed": 1,
            "params": {"interval": {"a": 0.0, "b": 1.0}, "K": k, "tau": 0.2, "steps": 3}}


def test_oracle_verdicts(tmp_path):
    assert not oracle.expected_pass(_wave_spec([[-1.0, 0.0], [0.0, -1.0]]))
    assert oracle.expected_pass(_wave_spec([[1.0, 0.0], [0.0, 1.0]]))
    assert oracle.expected_pass(specgen.make_spec("decomposition", 0, 0))
    runner = run.Runner(run.load_cli(), tmp_path)
    negative = runner.run(_wave_spec([[-1.0, 0.0], [0.0, -1.0]]))
    assert negative.error is None and negative.passed is False and negative.agrees


def test_specs_repeat_for_a_seed():
    for workload in specgen.WORKLOADS:
        assert specgen.make_specs(workload, 5, 4) == specgen.make_specs(workload, 5, 4)
        assert specgen.make_spec(workload, 5, 1) != specgen.make_spec(workload, 6, 1)


def test_intervals_are_fresh_within_their_sign_class():
    specs = specgen.make_specs("decomposition", 5, 30) + specgen.make_specs("trajectories", 5, 90)
    intervals = [(s["params"]["interval"]["a"], s["params"]["interval"]["b"]) for s in specs]
    assert len(set(intervals)) == len(intervals)
    signs = {(a == 0.0, a < 0.0 < b, b <= 0.0) for a, b in intervals}
    assert signs == {(True, False, False), (False, True, False), (False, False, True)}
    for spec in specs:
        iv = spec["params"]["interval"]
        if spec["command"] == "evolve":
            assert -1.0 <= iv["a"] < iv["b"] <= 1.0


def _outcome(passed, expected=True):
    return run.Outcome("check-decomposition", 0.01, None, passed, expected, None, {}, 0.001)


def test_false_fails_beyond_roundoff_make_the_run_incorrect():
    tally = run.Tally(run.ROUNDOFF_FAIL_SHARE["decomposition"])
    for _ in range(999):
        tally.add(_outcome(True))
    for _ in range(run.ROUNDOFF_FAILS):
        tally.add(_outcome(False))
    assert tally.correct and tally.false_fails == run.ROUNDOFF_FAILS
    tally.add(_outcome(False))
    assert not tally.correct
    counted = run.Tally(None)
    for _ in range(50):
        counted.add(_outcome(False))
    assert counted.correct
    wrong_pass = run.Tally(None)
    wrong_pass.add(_outcome(True, expected=False))
    assert not wrong_pass.correct


def test_times_are_scaled_by_the_probes_around_them():
    fast = _outcome(True)
    fast.probe = run.PROBE_REFERENCE_S
    slow = _outcome(True)
    slow.probe = 2 * run.PROBE_REFERENCE_S
    for outcome, after in ((fast, fast.probe), (slow, slow.probe)):
        outcome.scaled_seconds = run.scaled(outcome.seconds, [outcome.probe, after])
    assert fast.scaled_seconds == pytest.approx(0.01)
    assert slow.scaled_seconds == pytest.approx(0.005)
    metrics = run.end_to_end([fast, slow], [0.1], 50.0)
    assert metrics["runs_per_s"][0] == pytest.approx(2 / 0.015)
