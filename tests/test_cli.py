import json
import math
from pathlib import Path

import pytest

from maccretive.cli import main


def run_cli(tmp_path: Path, spec: dict, name: str = "spec.json", extra=()) -> tuple[int, Path]:
    spec_path = tmp_path / name
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    code = main(["--spec", str(spec_path), "--out", str(out_dir), *extra])
    return code, out_dir


def load_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def test_check_decomposition_default_passes(tmp_path):
    code, out = run_cli(tmp_path, {"command": "check-decomposition", "params": {"samples": 60}})
    assert code == 0
    report = load_report(out)
    assert report["passed"] is True
    assert report["interval"] == {"a": 0.0, "b": 1.0}
    assert report["seed"] == 42
    assert report["checks"]["orthogonality_defect"] < 1e-10
    assert report["tolerances"]["defect"] == 1e-10


def test_reports_are_byte_identical(tmp_path):
    spec = {"command": "check-decomposition", "seed": 7, "params": {"samples": 40}}
    _, out1 = run_cli(tmp_path, spec, name="a.json")
    text1 = (out1 / "report.json").read_bytes()
    (out1 / "report.json").unlink()
    _, out2 = run_cli(tmp_path, spec, name="b.json")
    assert text1 == (out2 / "report.json").read_bytes()


def test_seed_changes_are_visible_but_deterministic(tmp_path):
    spec = {"command": "check-decomposition", "params": {"samples": 40}}
    _, out1 = run_cli(tmp_path, spec, name="a.json", extra=("--seed", "1"))
    r1 = load_report(out1)
    assert r1["seed"] == 1


def test_unknown_field_is_schema_error(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "check-decomposition", "bogus": 1})
    assert code == 2


def test_unknown_command_is_schema_error(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "frobnicate"})
    assert code == 2


def test_unknown_param_is_schema_error(tmp_path):
    code, _ = run_cli(
        tmp_path, {"command": "check-decomposition", "params": {"nope": 3}}
    )
    assert code == 2


def test_missing_spec_file_is_schema_error(tmp_path):
    out_dir = tmp_path / "out"
    code = main(["--spec", str(tmp_path / "absent.json"), "--out", str(out_dir)])
    assert code == 2


def test_st_criterion_failure_names_injective(tmp_path):
    spec = {
        "command": "st-criterion",
        "params": {"S": [[1.0, 0.0], [0.0, 1.0]], "T": [[-1.0, 0.0], [0.0, -1.0]]},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["passed"] is False
    assert report["first_failure"] == "injective"
    assert "injective" in report["criterion"]["which_failed"]


def test_st_criterion_pass(tmp_path):
    spec = {
        "command": "st-criterion",
        "params": {"S": [[1.0, 0.0], [0.0, 1.0]], "T": [[0.0, 0.0], [0.0, 0.0]]},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    report = load_report(out)
    assert report["criterion"]["holds"] is True
    assert report["criterion"]["norm_value"] == pytest.approx(1.0, abs=1e-9)


def test_wave_impedance_negated_identity_fails_with_increase_step(tmp_path):
    spec = {
        "command": "wave-impedance",
        "params": {"K": [[-1.0, 0.0], [0.0, -1.0]], "steps": 50},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["accretive_K"] is False
    assert report["energy_first_increase_step"] is not None
    assert report["energy_first_increase_step"] <= 50
    csv_lines = (out / "data.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "step,time,norm,energy"
    assert len(csv_lines) >= 2


def test_wave_impedance_identity_passes(tmp_path):
    spec = {
        "command": "wave-impedance",
        "params": {"K": [[1.0, 0.0], [0.0, 1.0]], "steps": 15},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    report = load_report(out)
    assert report["accretive_K"] is True
    assert report["realisation_accretive_sampled"] is True
    assert report["resolvent_solvable"] is True
    assert report["energy_first_increase_step"] is None


def test_resolve_command_worked_example(tmp_path):
    spec = {
        "command": "resolve",
        "params": {
            "g": {"kind": "constant", "value": 0.0},
            "rhs": [{"rate": 0.0, "coeffs": [1.0]}],
            "tau": 1.0,
        },
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    report = load_report(out)
    assert report["passed"] is True
    solution = {item["rate"]: item["coeffs"] for item in report["solution"]}
    assert solution[0.0][0] == pytest.approx(1.0)
    assert solution[-1.0][0] == pytest.approx(-math.e / (math.e + 1.0), abs=1e-12)


def test_lipschitz_transfer_flags_violation(tmp_path):
    slope = math.e * (1.0 + 1e-3)
    spec = {
        "command": "lipschitz-transfer",
        "params": {"g": {"kind": "linear", "slope": slope}, "samples": 16},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["first_failure"] == "bound_holds"
    assert report["result"]["violations"]


def test_lipschitz_transfer_equality_case_passes(tmp_path):
    spec = {
        "command": "lipschitz-transfer",
        "params": {"g": {"kind": "linear", "slope": math.e}, "samples": 16},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    assert (out / "data.csv").exists()


def test_cayley_command(tmp_path):
    spec = {
        "command": "cayley",
        "params": {"f_matrix": [[0.0, 0.5], [-0.5, 0.0]], "points": 50},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    report = load_report(out)
    assert report["roundtrip_max_error"] < 1e-9


def test_block_equivalence_command(tmp_path):
    spec = {
        "command": "block-equivalence",
        "seed": 3,
        "params": {
            "realization": {"kind": "M", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "states": 50,
        },
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    report = load_report(out)
    assert report["disagreements"] == 0
    assert report["m_accretive"] is True


def test_evolve_command_with_distance(tmp_path):
    spec = {
        "command": "evolve",
        "params": {
            "kind": "derivative",
            "g": {"kind": "linear", "slope": 0.5},
            "u0": [{"rate": 1.0, "coeffs": [1.0]}],
            "v0": [{"rate": -1.0, "coeffs": [0.5]}],
            "tau": 0.25,
            "steps": 8,
        },
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    report = load_report(out)
    assert report["distance_monotone"] is True
    lines = (out / "data.csv").read_text().strip().splitlines()
    assert lines[0] == "step,time,norm,distance"
    assert len(lines) == 10


def test_input_file_merging(tmp_path):
    (tmp_path / "problem.json").write_text(
        json.dumps({"S": [[1.0, 0.0], [0.0, 1.0]], "T": [[1.0, 0.0], [0.0, 1.0]]})
    )
    spec = {"command": "st-criterion", "input": "problem.json"}
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    assert load_report(out)["criterion"]["holds"] is True


def test_evolve_with_v0_solves_each_trajectory_once(tmp_path, monkeypatch):
    import maccretive.cli as cli

    calls = []
    resolve = cli.resolve

    def counting_resolve(realization, rhs, tau):
        calls.append(tau)
        return resolve(realization, rhs, tau)

    monkeypatch.setattr(cli, "resolve", counting_resolve)
    spec = {
        "command": "evolve",
        "params": {
            "kind": "derivative",
            "g": {"kind": "linear", "slope": 0.5},
            "u0": [{"rate": 1.0, "coeffs": [1.0]}],
            "v0": [{"rate": -1.0, "coeffs": [0.5]}],
            "tau": 0.25,
            "steps": 8,
        },
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    assert load_report(out)["distance_monotone"] is True
    assert len(calls) == 2 * 8


def test_evolve_step_failure_writes_report(tmp_path):
    # resonant steps raise the degree by one each, until the cap stops the run
    spec = {
        "command": "evolve",
        "params": {
            "interval": {"a": 0, "b": 1},
            "kind": "derivative",
            "g": {"kind": "linear", "slope": 0.5},
            "tau": 0.01,
            "steps": 200,
        },
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["passed"] is False
    assert report["first_failure"] == "run_failed"
    step = report["run_failed_at_step"]
    assert 1 <= step <= 200
    lines = (out / "data.csv").read_text().strip().splitlines()
    assert lines[0] == "step,time,norm"
    assert len(lines) == 1 + step  # steps 0 .. step-1 completed


def test_wave_impedance_rejects_v0(tmp_path):
    spec = {
        "command": "wave-impedance",
        "params": {
            "K": [[1.0, 0.0], [0.0, 1.0]],
            "steps": 5,
            "v0": {"u": [{"rate": 0.0, "coeffs": [1.0]}], "v": []},
        },
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert not (out / "report.json").exists()


LINEAR_G = {"kind": "linear", "slope": 0.5}
RHS = [{"rate": 0.0, "coeffs": [1.0]}]


@pytest.mark.parametrize(
    "command, params",
    [
        # counts below 1 used to give a vacuous PASS
        ("check-decomposition", {"samples": -3}),
        ("check-decomposition", {"samples": 0}),
        ("lipschitz-transfer", {"g": LINEAR_G, "samples": -3}),
        ("block-equivalence", {"states": -3}),
        ("cayley", {"points": 0}),
        ("cayley", {"dim": 0}),
        ("evolve", {"g": LINEAR_G, "steps": 0}),
        # degrees outside [0, DEGREE_CAP] and non-integer counts used to crash
        ("check-decomposition", {"max_degree": -1}),
        ("check-decomposition", {"max_degree": 80}),
        ("check-decomposition", {"samples": "many"}),
        ("check-decomposition", {"samples": 2.5}),
        ("check-decomposition", {"samples": True}),
        # malformed boundary functions used to raise ValueError / KeyError
        ("resolve", {"g": {"kind": "cubic"}, "rhs": RHS}),
        ("resolve", {"g": {"kind": "linear"}, "rhs": RHS}),
        ("resolve", {"g": [], "rhs": RHS}),
        ("lipschitz-transfer", {"g": {"kind": "table", "knots": [[0.0, 1.0]]}}),
        ("evolve", {"g": {"kind": "constant"}}),
        # non-finite numbers used to be accepted
        ("resolve", {"g": LINEAR_G, "rhs": [{"rate": math.nan, "coeffs": [1.0]}]}),
        ("resolve", {"g": LINEAR_G, "rhs": [{"rate": 0.0, "coeffs": [1.0, math.inf]}]}),
        ("resolve", {"g": {"kind": "linear", "slope": math.nan}, "rhs": RHS}),
        ("evolve", {"g": LINEAR_G, "u0": [{"rate": 1.0, "coeffs": [-math.inf]}]}),
    ],
)
def test_malformed_parameters_are_schema_errors(tmp_path, command, params):
    code, out = run_cli(tmp_path, {"command": command, "params": params})
    assert code == 2
    assert not (out / "report.json").exists()


def test_count_and_degree_limits_are_inclusive(tmp_path):
    spec = {
        "command": "check-decomposition",
        "params": {"samples": 1, "max_degree": 64},
    }
    code, out = run_cli(tmp_path, spec)
    assert code in (0, 1)
    assert load_report(out)["samples"] == 1
    spec["params"] = {"samples": 3.0, "max_degree": 0}
    code, out = run_cli(tmp_path, spec, name="b.json")
    assert code == 0
    assert load_report(out)["samples"] == 3
