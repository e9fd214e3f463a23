import functools
import gc
import json
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maccretive.cli import COMMANDS, COUNT_LIMITS, RunSpec, _limited_count, _parse, main
from maccretive.relations import NORM_TOL, SPECTRAL_RTOL


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


def reference_decomposition_checks(iv, samples: int, max_degree: int, seed: int) -> dict:
    """The checks of ``check-decomposition`` with one scalar pairing per
    sample and per check, on the suite's samples."""
    from maccretive.cli import _random_exppoly
    from maccretive.derivative import _pi_coeffs, pi_zero
    from maccretive.funcspace import ExpPoly, differentiate, graph_inner, graph_norm, l2_inner

    ctx = iv
    rng = np.random.default_rng(seed)
    ep = ExpPoly.exponential(1.0)
    em = ExpPoly.exponential(-1.0)
    gram_pp = graph_inner(ep, ep, iv)
    gram_mm = graph_inner(em, em, iv)
    max_recon = max_ortho = max_identity = max_oracle = 0.0
    for _ in range(samples):
        u = _random_exppoly(rng, max_degree)
        ua, ub = u(iv.a), u(iv.b)
        c1, cm = _pi_coeffs(ctx, ua, ub)
        p0 = pi_zero(ctx, u)
        scale = 1.0 + graph_norm(u, iv)
        recon = graph_norm(p0 + c1 * ep + cm * em - u, iv)
        max_recon = max(max_recon, recon / scale)
        sq = scale**2
        max_ortho = max(
            max_ortho,
            abs(graph_inner(p0, ep, iv) * c1) / sq,
            abs(graph_inner(p0, em, iv) * cm) / sq,
            abs(graph_inner(c1 * ep, cm * em, iv)) / sq,
        )
        lhs = l2_inner(differentiate(u), u, iv)
        mid = c1**2 * ctx.denom_plus / 2.0 - cm**2 * ctx.denom_minus / 2.0
        rhs = (ub**2 - ua**2) / 2.0
        max_identity = max(
            max_identity, abs(lhs - mid) / (1 + abs(rhs)), abs(lhs - rhs) / (1 + abs(rhs))
        )
        oracle_p = graph_inner(u, ep, iv) / gram_pp
        oracle_m = graph_inner(u, em, iv) / gram_mm
        max_oracle = max(
            max_oracle,
            abs(c1 - oracle_p) / (1 + abs(c1)),
            abs(cm - oracle_m) / (1 + abs(cm)),
        )
    return {
        "reconstruction_defect": max_recon,
        "orthogonality_defect": max_ortho,
        "inner_product_identity_defect": max_identity,
        "projection_oracle_defect": max_oracle,
    }


@pytest.mark.parametrize("max_degree", [4, 10])
@pytest.mark.parametrize(
    "interval", [{"a": 0.0, "b": 1.3}, {"a": -0.8, "b": 0.9}, {"a": -1.6, "b": -0.7}]
)
def test_check_decomposition_matches_per_sample_pairings(tmp_path, interval, max_degree):
    from maccretive.funcspace import Interval

    spec = {
        "command": "check-decomposition",
        "seed": 11,
        "params": {"interval": interval, "samples": 40, "max_degree": max_degree},
    }
    code, out = run_cli(tmp_path, spec)
    checks = load_report(out)["checks"]
    reference = reference_decomposition_checks(Interval.from_jsonable(interval), 40, max_degree, 11)
    assert code == 0
    assert checks.keys() == reference.keys()
    for name, value in checks.items():
        assert value < 1e-10, name
        assert abs(value - reference[name]) <= 1e-11, name


def test_check_decomposition_above_the_chunk_size_at_the_degree_cap(tmp_path):
    spec = {"command": "check-decomposition", "params": {"samples": 600, "max_degree": 64}}
    code, out = run_cli(tmp_path, spec)
    report = load_report(out)
    assert code == 0
    assert report["samples"] == 600
    assert all(value < 1e-10 for value in report["checks"].values())


# Specs 5693 of seed 42, 5450 of 44, 5015 of 47, 2159 of 48, and 7034 and 7826
# of 50 of the benchmark's decomposition workload. Each FAILed
# inner_product_identity_defect, between 1.2e-10 and 5.0e-10, when the
# pairings were read off a Gram matrix of series moments, whose rounding is
# on the scale of the terms' pairwise integrals.
FORMER_FALSE_FAILS = [
    (1412532575, -1.5399252195015347, -0.744950343520294, 9),
    (1378047493, -1.5857666171397145, -0.9006841829361735, 9),
    (1816805637, -1.7899709464279816, -0.8348624492599525, 8),
    (507361489, -1.5505744301532782, -0.5717756763050461, 10),
    (1740700373, -1.8309339742449677, -0.9053871181210377, 6),
    (569226030, -1.6064976654766505, -0.8643840367247676, 9),
]


@pytest.mark.parametrize("seed, a, b, max_degree", FORMER_FALSE_FAILS)
def test_check_decomposition_passes_its_former_false_fails(tmp_path, seed, a, b, max_degree):
    spec = {"command": "check-decomposition", "seed": seed, "params": {
        "interval": {"a": a, "b": b}, "samples": 24, "max_degree": max_degree}}
    code, out = run_cli(tmp_path, spec)
    report = load_report(out)
    assert code == 0
    assert report["passed"] is True
    assert report["checks"]["inner_product_identity_defect"] < 1e-10


def test_check_decomposition_memory_does_not_grow_with_samples(tmp_path, monkeypatch):
    from maccretive import cli

    monkeypatch.setattr(cli, "STATE_CHUNK", 50)
    peaks = []
    for samples in (100, 800):
        spec = {"command": "check-decomposition", "params": {"samples": samples, "max_degree": 20}}
        tracemalloc.start()
        code, _ = run_cli(tmp_path, spec, name=f"{samples}.json")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert code == 0
    assert peaks[1] < 1.3 * peaks[0]


def constructor_random_exppoly(rng: np.random.Generator, max_degree: int):
    """``cli._random_exppoly``'s draws, normalised by ``ExpPoly``'s constructor."""
    from maccretive.funcspace import ExpPoly

    terms = []
    for _ in range(rng.integers(1, 4)):
        mu = float(rng.integers(-2, 3))
        deg = int(rng.integers(0, max_degree + 1))
        terms.append((mu, tuple(rng.uniform(-2.0, 2.0, size=deg + 1))))
    return ExpPoly(tuple(terms))


@pytest.mark.parametrize("max_degree", [0, 2, 4, 10])
def test_probe_draws_have_the_constructors_terms_and_generator_state(max_degree):
    from maccretive.cli import _random_exppoly

    for seed in range(200):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = _random_exppoly(rng, max_degree)
            want = constructor_random_exppoly(reference, max_degree)
            assert repr(got.terms) == repr(want.terms), seed
            assert rng.bit_generator.state == reference.bit_generator.state, seed


def crafted_probes():
    """``u`` with and without ``e^{+-t}`` terms, and with ``-0.0`` coefficients
    on them."""
    from maccretive.funcspace import ExpPoly

    return [
        ExpPoly(((0.0, (1.5, -2.0)),)),
        ExpPoly(((-1.0, (0.25,)), (1.0, (0.75, -1.0)), (2.0, (1.0,)))),
        ExpPoly(((1.0, (0.7,)),)),
        ExpPoly(((-1.0, (-0.0, 3.0)), (1.0, (-0.0, 1.0)))),
        ExpPoly(((-2.0, (1.0,)), (-1.0, (0.3,)))),
    ]


#: Zero ``c`` of either sign, ``c`` that cancels a ``t^0`` coefficient of a
#: crafted probe exactly (dropping its term, or not), and non-finite ``c``.
CRAFTED_MODE_COEFFS = [0.0, -0.0, 0.3, -1.25, 0.7, 0.25, 0.75, math.inf, -math.inf, math.nan]


def test_pi_zero_formed_on_rows_has_the_bits_of_without_modes():
    from maccretive.cli import _rows_without_modes
    from maccretive.derivative import _without_modes
    from maccretive.funcspace import ExpBasis, ExpPoly

    cases = [(u, c1, cm) for u in crafted_probes()
             for c1 in CRAFTED_MODE_COEFFS for cm in CRAFTED_MODE_COEFFS]
    modes = [ExpPoly.exponential(1.0), ExpPoly.exponential(-1.0)]
    basis = ExpBasis.spanning([u for u, _, _ in cases] + modes)
    c1, cm = np.array([(c1, cm) for _, c1, cm in cases]).T
    with np.errstate(invalid="ignore"):  # inf - inf, as _merge adds it
        got = _rows_without_modes(basis, basis.rows([u for u, _, _ in cases]), c1, cm)
    want = basis.rows([_without_modes(u, c1, cm) for u, c1, cm in cases])
    for case, row, ref in zip(cases, got.tolist(), want.tolist()):
        assert repr(row) == repr(ref), case


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.6, -0.7), (-0.8, 2.3)])
def test_pi_zero_formed_on_rows_has_the_bits_of_pi_zero(interval):
    from maccretive.cli import _random_exppoly, _rows_without_modes
    from maccretive.derivative import _projection_coeffs, pi_zero
    from maccretive.funcspace import ExpBasis, ExpPoly, Interval

    ctx = Interval(*interval)
    rng = np.random.default_rng(7)
    polys = crafted_probes()
    polys += [_random_exppoly(rng, max_degree) for max_degree in (0, 2, 4, 10) for _ in range(50)]
    modes = [ExpPoly.exponential(1.0), ExpPoly.exponential(-1.0)]
    basis = ExpBasis.spanning(polys + modes)
    c1, cm = np.array([_projection_coeffs(ctx, u) for u in polys]).T
    got = _rows_without_modes(basis, basis.rows(polys), c1, cm)
    want = basis.rows([pi_zero(ctx, u) for u in polys])
    assert repr(got.tolist()) == repr(want.tolist())


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


def test_seed_override_does_not_carry_to_the_next_call(tmp_path):
    """The argument parser is shared between calls; its defaults are not."""
    spec = {"command": "check-decomposition", "seed": 5, "params": {"samples": 20}}
    _, out = run_cli(tmp_path, spec, extra=("--seed", "3"))
    assert load_report(out)["seed"] == 3
    _, out = run_cli(tmp_path, spec)
    assert load_report(out)["seed"] == 5


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


def test_wave_impedance_zero_k_runs_to_its_end(tmp_path):
    # K = 0 is accretive: the energy run takes all 50 steps, each with a
    # monotone energy
    spec = {"command": "wave-impedance", "seed": 42,
            "params": {"K": [[0.0, 0.0], [0.0, 0.0]], "tau": 0.2, "steps": 50}}
    code, out = run_cli(tmp_path, spec)
    report = load_report(out)
    assert code == 0
    assert report["energy_first_increase_step"] is None
    assert report["run_failed_at_step"] is None


@pytest.mark.parametrize("iv", [(-0.7, 1.3), (-3.0, -1.0), (2.0, 5.0), (600.0, 720.0)], ids=str)
def test_wave_impedance_probe_sizes_are_the_states_norms_bit_for_bit(iv):
    """The sampled-accretivity sizes from one node table against
    ``state_l2_norm`` of each difference's ``bd_exppoly`` state, on
    differences with a zero ``u``, a zero ``v``, zero coefficients, squares
    past the float range, and, on [600, 720], node values of ``e^t`` that
    overflow where no ``e^t`` term reads them."""
    from maccretive.blockop import BlockState, bd_exppoly, state_l2_norm
    from maccretive.cli import _bd_state_norms
    from maccretive.funcspace import Interval

    iv = Interval(*iv)
    diffs = np.random.default_rng(7).uniform(-2.0, 2.0, size=(30, 4))
    diffs[0, :2] = 0.0  # u = 0
    diffs[1, 2:] = 0.0  # v = 0
    diffs[2, 0::2] = -0.0  # no e^t term
    diffs[3, 1::2] = 0.0  # no e^{-t} term
    diffs[4] *= 1e200
    diffs[5] = 0.0
    want = [state_l2_norm(BlockState(bd_exppoly(d[:2]), bd_exppoly(d[2:])), iv) for d in diffs]
    assert repr(_bd_state_norms(diffs, iv)) == repr(want)


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


def test_resolve_without_a_certified_contraction_is_unsolvable(tmp_path):
    # the boundary equation's rate is 100/e * 0.245 = 9.0 at tau = 0.5: the
    # solve is a certified contraction or nothing (this spec used to PASS)
    spec = {"command": "resolve", "params": {"g": STEEP_G, "rhs": RHS, "tau": 0.5}}
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["first_failure"] == "solvable"
    assert report["solution"] is None


def test_evolve_without_a_certified_contraction_stops(tmp_path):
    spec = {"command": "evolve", "params": {"g": STEEP_G, "tau": 0.5, "steps": 3}}
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["first_failure"] == "run_failed"
    assert report["run_failed_at_step"] == 1


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


@pytest.mark.parametrize("states", [20, 21])
def test_block_equivalence_report_does_not_depend_on_chunk_size(tmp_path, monkeypatch, states):
    # the states after the last chunk feed the resolvent draws, so a lost
    # or extra draw would change max_resolvent_residual
    from maccretive import cli

    spec = {"command": "block-equivalence", "seed": 5, "params": {"states": states}}
    (tmp_path / "whole").mkdir()
    (tmp_path / "chunked").mkdir()
    _, whole = run_cli(tmp_path / "whole", spec)
    monkeypatch.setattr(cli, "STATE_CHUNK", 7)
    _, chunked = run_cli(tmp_path / "chunked", spec)
    assert (whole / "report.json").read_bytes() == (chunked / "report.json").read_bytes()
    assert load_report(chunked)["states"] == states


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
    from maccretive.derivative import _StepMap

    # both trajectories step as one batch of coefficient rows: one advance
    # per step, one row per trajectory
    calls = []
    step = _StepMap.advance

    def counting_step(self, rows):
        calls.append(rows.shape)
        return step(self, rows)

    monkeypatch.setattr(_StepMap, "advance", counting_step)
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
    assert [shape[0] for shape in calls] == [2] * 8


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
STEEP_G = {"kind": "linear", "slope": 100.0}  # beyond the Lipschitz bound e on [0, 1]
RHS = [{"rate": 0.0, "coeffs": [1.0]}]
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
NAN_I = [[math.nan, 0.0], [0.0, 1.0]]
FIVE_I = [[5.0, 0.0], [0.0, 5.0]]  # not a contraction
BLOCK_M = {"kind": "M", "matrix": IDENTITY}
NO_COEFFS = {"u": [{"rate": 0.0}], "v": []}
NAN_RATE = {"u": [{"rate": math.nan, "coeffs": [1.0]}], "v": []}


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
        # time steps that are not positive finite numbers
        ("resolve", {"g": LINEAR_G, "rhs": RHS, "tau": -1}),
        ("resolve", {"g": LINEAR_G, "rhs": RHS, "tau": "x"}),
        ("resolve", {"g": LINEAR_G, "rhs": RHS, "tau": 0}),
        ("resolve", {"g": LINEAR_G, "rhs": RHS, "tau": math.nan}),
        ("evolve", {"g": LINEAR_G, "steps": 1, "tau": -1}),
        ("evolve", {"g": LINEAR_G, "steps": 1, "tau": "x"}),
        ("evolve", {"g": LINEAR_G, "steps": 1, "tau": 0}),
        ("block-equivalence", {"states": 1, "tau": -1}),
        ("block-equivalence", {"states": 1, "tau": "x"}),
        ("block-equivalence", {"states": 1, "tau": 0}),
        # non-finite intervals and matrices
        ("check-decomposition", {"samples": 1, "interval": {"a": 0.0, "b": math.inf}}),
        ("block-equivalence", {"states": 1, "realization": {"kind": "M", "matrix": NAN_I}}),
        ("wave-impedance", {"steps": 1, "K": NAN_I}),
        ("st-criterion", {"S": NAN_I, "T": IDENTITY}),
        # malformed block realizations
        ("block-equivalence", {"states": 1, "realization": [IDENTITY]}),
        ("block-equivalence", {"states": 1, "realization": {"kind": "f"}}),
        ("block-equivalence", {"states": 1, "realization": {"kind": "f", "matrix": FIVE_I}}),
        # malformed block states
        ("wave-impedance", {"steps": 1, "K": IDENTITY, "u0": NO_COEFFS}),
        ("wave-impedance", {"steps": 1, "K": IDENTITY, "u0": NAN_RATE}),
        ("evolve", {"kind": "block", "steps": 1, "realization": BLOCK_M, "u0": NO_COEFFS}),
        # intervals whose BD Gram entries vanish or overflow used to crash
        ("check-decomposition", {"samples": 1, "interval": {"a": 0.0, "b": 1e-17}}),
        ("check-decomposition", {"samples": 1, "interval": {"a": 0.0, "b": 400.0}}),
        # a 3-D matrix used to reach the solver
        ("st-criterion", {"dim": 1, "S": [[[1.0]]], "T": [[[2.0]]]}),
    ],
)
def test_malformed_parameters_are_schema_errors(tmp_path, command, params):
    code, out = run_cli(tmp_path, {"command": command, "params": params})
    assert code == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("interval", [(7.0, 8.0), (-8.0, -6.0), (0.0, 15.0)])
@pytest.mark.parametrize(
    "command, params",
    [
        ("block-equivalence", {"states": 20}),
        ("wave-impedance", {"K": IDENTITY, "steps": 5}),
        ("evolve", {"kind": "block", "realization": BLOCK_M, "steps": 5}),
    ],
)
def test_block_commands_give_verdicts_far_from_zero(tmp_path, interval, command, params):
    # the BD Gram entries are about e^{2|a+b|} apart on these intervals,
    # which a relative positive-definiteness test used to reject
    a, b = interval
    spec = {"command": command, "params": {**params, "interval": {"a": a, "b": b}}}
    code, out = run_cli(tmp_path, spec)
    assert code in (0, 1)
    assert load_report(out)["passed"] is (code == 0)


@pytest.mark.parametrize(
    "command, params, failure",
    [
        ("block-equivalence", {"tau": 0.001}, "resolvent_solvable"),
        ("wave-impedance", {"K": IDENTITY, "tau": 0.001}, "equivalence"),
        (
            "resolve",
            {
                "interval": {"a": -1.0, "b": 0.0},
                "g": {"kind": "constant", "value": 0.0},
                "rhs": [{"rate": 0.0, "coeffs": [1.0]}],
                "tau": 0.001,
            },
            "solvable",
        ),
        (
            # e^{-10 t} underflows on [200, 201]; this used to end in a
            # ZeroDivisionError traceback
            "resolve",
            {"interval": {"a": 200.0, "b": 201.0}, "g": LINEAR_G, "rhs": RHS, "tau": 0.1},
            "solvable",
        ),
    ],
)
def test_resolvent_modes_that_overflow_fail_with_a_report(tmp_path, command, params, failure):
    # e^{+-t/tau} overflows (or the 1-D mode underflows) on the interval: the
    # resolvent plan cannot be built, which the report names as an
    # unsolvable resolvent
    code, out = run_cli(tmp_path, {"command": command, "params": params})
    assert code == 1
    report = load_report(out)
    assert report["passed"] is False
    assert report["first_failure"] == failure
    if command == "wave-impedance":
        assert report["resolvent_solvable"] is False


@pytest.mark.parametrize("interval", [(5.0, 6.0), (6.0, 7.5), (7.0, 8.0), (0.0, 15.0), (-8.0, -6.0)])
def test_accretive_impedance_is_solvable_far_from_zero(tmp_path, interval):
    # the modes' BD columns differ in size by up to 1e15 here; a least
    # squares boundary solve once dropped the small one and reported the
    # resolvent of K = I as unsolvable at step 1. The energy runs still
    # stop after a few steps (ROADMAP item 2), so `passed` is not
    # asserted; a run that stops is a FAIL (on [5, 6], at step 9).
    a, b = interval
    spec = {"command": "wave-impedance", "seed": 42,
            "params": {"K": IDENTITY, "tau": 0.2, "interval": {"a": a, "b": b}}}
    code, out = run_cli(tmp_path, spec)
    report = load_report(out)
    assert report["resolvent_solvable"] is True
    assert report["first_failure"] != "equivalence"
    assert report["run_failed_at_step"] is None or (code, report["first_failure"]) == (1, "run_failed")


@pytest.mark.parametrize("tau", [0.02, 0.01])
def test_block_evolve_at_a_small_tau_takes_its_first_step(tmp_path, tau):
    # e^{t/tau} is about 1e43 on [0, 1] at tau 0.01
    spec = {"command": "evolve", "params": {
        "kind": "block", "realization": {"kind": "f", "matrix": [[0.5, 0.0], [0.0, 0.5]]},
        "tau": tau, "steps": 200,
    }}
    code, out = run_cli(tmp_path, spec)
    assert load_report(out).get("run_failed_at_step", math.inf) > 1


F_HALF = {"kind": "f", "matrix": [[0.5, 0], [0, 0.5]]}


@pytest.mark.parametrize(
    "params, stop",
    [
        # the closing membership test fails on roundoff of cancelling terms
        ({"kind": "block", "realization": F_HALF, "tau": 0.01, "steps": 200}, 7),
        ({"kind": "block", "realization": F_HALF, "tau": 0.02, "steps": 200}, 9),
        # the resonant mode gains a degree per step until the cap
        ({"kind": "derivative", "g": {"kind": "linear", "slope": 0.5}, "tau": 0.01, "steps": 200}, 66),
    ],
)
def test_named_stops_come_no_earlier(tmp_path, params, stop):
    code, out = run_cli(tmp_path, {"command": "evolve", "params": params})
    assert load_report(out).get("run_failed_at_step", math.inf) >= stop


def library_evolve(params: dict) -> tuple:
    """``(exit code, run_failed_at_step, distance_monotone, states kept,
    distances reported)`` of an ``evolve`` spec with ``u0`` and ``v0`` by a
    loop of ``resolve`` or ``block_resolve`` on ExpPoly states, which raise
    at a non-member: ``u`` runs until a step raises, ``v`` as many steps
    as ``u`` kept, and the distances are read step by step up to the
    first that rises by more than 1e-8."""
    from maccretive.blockop import block_resolve, state_l2_norm
    from maccretive.cli import _block_realization, _block_state, _boundary_function, _exppoly
    from maccretive.derivative import Realization1D, resolve
    from maccretive.funcspace import Interval, l2_norm

    iv = Interval(0.0, 1.0)
    ctx, tau = iv, params["tau"]
    if params.get("kind", "derivative") == "derivative":
        real = Realization1D(ctx, _boundary_function(params["g"], "g"))
        parse, solve, norm = _exppoly, resolve, l2_norm
    else:
        real = _block_realization(ctx, params["realization"])
        parse, solve, norm = _block_state, block_resolve, state_l2_norm

    def run(state, steps: int) -> tuple:
        states = [state]
        for k in range(1, steps + 1):
            try:
                states.append(solve(real, states[-1], tau))
            except Exception:  # noqa: BLE001 - any error stops a run, as in the CLI
                return states, k
        return states, None

    us, failed = run(parse(params["u0"], "u0"), params["steps"])
    vs, v_failed = run(parse(params["v0"], "v0"), len(us) - 1)
    distances = [norm(u - v, iv) for u, v in zip(us, vs)]
    rise = next((k for k in range(1, len(distances)) if distances[k] > distances[k - 1] + 1e-8), None)
    monotone = reported = None
    if rise is not None:
        monotone, reported = False, rise + 1
    elif v_failed is not None:
        failed = v_failed
    else:
        monotone, reported = True, len(distances)
    return int(failed is not None or monotone is False), failed, monotone, len(us), reported


E_T = [{"rate": 1.0, "coeffs": [1.0]}]


def scaled_e_t(scale: float) -> dict:
    return {"u": [{"rate": 1.0, "coeffs": [scale]}], "v": [{"rate": 1.0, "coeffs": [scale]}]}


@pytest.mark.parametrize("params", [
    # slope 3 is beyond the Lipschitz bound e: the distance falls at step 1 and rises at step 2
    {"g": {"kind": "linear", "slope": 3.0}, "tau": 1.0, "steps": 10,
     "u0": E_T, "v0": [{"rate": -1.0, "coeffs": [0.5]}]},
    # M = -2 I is not accretive, and the states grow about 2.8-fold a step: from
    # step 29 on the squares of the closing test's defect overflow, so u's run
    # is cut there whatever the rounding; v, the same run, is never judged there
    {"kind": "block", "realization": {"kind": "M", "matrix": [[-2.0, 0.0], [0.0, -2.0]]},
     "tau": 0.2, "steps": 40, "u0": scaled_e_t(1e140), "v0": scaled_e_t(1e140)},
    # v's first step is a non-member for the same reason, and u runs to its end
    {"kind": "block", "realization": F_HALF, "tau": 0.2, "steps": 10,
     "u0": scaled_e_t(1.0), "v0": scaled_e_t(1e300)},
    # u's first step is a non-member; v, whose resonant term would pass the cap
    # at step 3, is never judged past u's record
    {"kind": "block", "realization": F_HALF, "tau": 0.01, "steps": 10, "u0": scaled_e_t(1e300),
     "v0": {"u": [{"rate": -100.0, "coeffs": [0.0] * 62 + [1.0]}], "v": []}},
    # the resonant mode gains a degree per step: v reaches the cap, u is 0 and runs to its end
    {"g": LINEAR_G, "tau": 0.01, "steps": 80, "u0": [], "v0": E_T},
    {"g": LINEAR_G, "tau": 0.01, "steps": 80, "u0": E_T, "v0": []},
], ids=["inadmissible-g", "u-non-member", "v-non-member", "v-past-u", "v-degree-cap", "u-degree-cap"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy notes the overflow it meets
def test_evolve_judges_both_runs_as_the_library_does(tmp_path, params):
    """The two runs of ``evolve`` step as one batch and are judged after the
    loop; their verdicts are those of the library's step-by-step run."""
    code, out = run_cli(tmp_path, {"command": "evolve", "params": params})
    report = load_report(out)
    lines = (out / "data.csv").read_text().strip().splitlines()
    reported = sum(len(line.split(",")) == 4 for line in lines[1:]) if "distance" in lines[0] else None
    cli = (code, report.get("run_failed_at_step"), report["distance_monotone"], len(lines) - 1, reported)
    assert cli == library_evolve(params)
    assert code == 1


@pytest.mark.parametrize("params", [
    {"g": LINEAR_G, "tau": 0.25, "steps": 8, "u0": E_T,
     "v0": [{"rate": -4.0, "coeffs": [0.3]}, {"rate": 1.0, "coeffs": [-0.5]}]},
    {"kind": "block", "realization": F_HALF, "tau": 0.2, "steps": 30,
     "u0": scaled_e_t(1.0), "v0": {"u": [], "v": [{"rate": 1.0, "coeffs": [-0.5]}]}},
], ids=["derivative", "block"])
def test_evolve_steps_u0_with_the_bits_of_its_run_alone(tmp_path, params):
    # each row of the batch takes the matrix products of a row stepped alone;
    # v0 has no rate that u0 lacks, so both specs step on one basis
    code, out = run_cli(tmp_path, {"command": "evolve", "params": params})
    (tmp_path / "alone").mkdir()
    alone = {key: value for key, value in params.items() if key != "v0"}
    code_alone, out_alone = run_cli(tmp_path / "alone", {"command": "evolve", "params": alone})
    norms = [line.split(",")[:3] for line in (out / "data.csv").read_text().splitlines()[1:]]
    norms_alone = [line.split(",") for line in (out_alone / "data.csv").read_text().splitlines()[1:]]
    assert code == code_alone == 0
    assert norms == norms_alone
    assert load_report(out)["final_norm"] == load_report(out_alone)["final_norm"]


@pytest.mark.parametrize("g", [{"kind": "linear"}, {"kind": "scaledsin"}])
def test_evolve_at_the_lipschitz_bound_and_a_long_step_runs_through(tmp_path, g):
    # tau = 300 on [-0.7, -0.69] with g at the bound e^{a+b}: the boundary
    # solve cancels large terms, and the closing test reads the result as
    # in_domain does
    bound = math.exp(-0.7 - 0.69)
    g = {**g, "slope": bound} if g["kind"] == "linear" else {**g, "amplitude": bound}
    code, out = run_cli(tmp_path, {"command": "evolve", "params": {
        "kind": "derivative", "interval": {"a": -0.7, "b": -0.69}, "g": g, "tau": 300.0, "steps": 50,
    }})
    assert code == 0
    assert "run_failed_at_step" not in load_report(out)


def test_block_evolve_without_a_unique_resolvent_fails_at_step_one(tmp_path):
    # S = T = diag(1, 0) is the relation u_1 = v_1 of dimension 3, whose
    # resolvent equation has a line of solutions; a least squares boundary
    # solve used to pick one of them and pass
    half = [[1.0, 0.0], [0.0, 0.0]]
    spec = {"command": "evolve", "params": {
        "kind": "block", "realization": {"kind": "ST", "S": half, "T": half}, "steps": 5,
    }}
    code, out = run_cli(tmp_path, spec)
    assert code == 1
    report = load_report(out)
    assert report["first_failure"] == "run_failed"
    assert report["run_failed_at_step"] == 1


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


# every count parameter, with what its command needs besides it
BOUNDED_COUNTS = [
    ("check-decomposition", "samples", {}),
    ("lipschitz-transfer", "samples", {"g": LINEAR_G}),
    ("cayley", "points", {}),
    ("cayley", "dim", {}),
    ("st-criterion", "dim", {"S": IDENTITY, "T": IDENTITY}),
    ("block-equivalence", "states", {}),
    ("wave-impedance", "steps", {"K": IDENTITY}),
    ("evolve", "steps", {"g": LINEAR_G}),
]


def test_bounded_counts_cover_every_count_parameter():
    declared = {
        (command, name)
        for command, spec in COMMANDS.items()
        for name, (convert, _) in spec.params.items()
        if convert is _limited_count
    }
    assert declared == {(command, name) for command, name, _ in BOUNDED_COUNTS}


@pytest.mark.parametrize("command, name, params", BOUNDED_COUNTS)
def test_counts_above_their_limit_are_schema_errors(tmp_path, capsys, command, name, params):
    high = COUNT_LIMITS[name]
    # the limit itself parses (checked without running the suite)
    assert _parse(RunSpec(command, params={**params, name: high}))[0][name] == high
    code, out = run_cli(tmp_path, {"command": command, "params": {**params, name: high + 1}})
    assert code == 2
    assert not (out / "report.json").exists()
    assert f"{name} must be in [1, {high}], got {high + 1}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, extra",
    [
        ({"seed": -3}, ()),
        ({"tol": "x"}, ()),
        ({"tol": math.nan}, ()),  # used to pass vacuously: defect >= nan is false
        ({"params": [1, 2]}, ()),
        ({}, ("--seed", "-3")),
        ({}, ("--tol", "nan")),
    ],
)
def test_malformed_seed_tol_and_params_are_schema_errors(tmp_path, fields, extra):
    spec = {"command": "check-decomposition", "params": {"samples": 2}, **fields}
    code, out = run_cli(tmp_path, spec, extra=extra)
    assert code == 2
    assert not (out / "report.json").exists()


def test_st_criterion_reports_library_tolerances_and_takes_no_tol(tmp_path):
    spec = {"command": "st-criterion", "params": {"S": IDENTITY, "T": [[0.5, 0.0], [0.0, 0.5]]}}
    for name in ("plain", "spec_tol", "flag_tol"):
        (tmp_path / name).mkdir()
    code, out = run_cli(tmp_path / "plain", spec)
    assert code == 0
    tolerances = load_report(out)["tolerances"]
    assert tolerances == {"norm_slack": NORM_TOL, "spectral_rtol": SPECTRAL_RTOL}
    code, out = run_cli(tmp_path / "spec_tol", {**spec, "tol": 1e-3})
    assert code == 2
    assert not (out / "report.json").exists()
    code, out = run_cli(tmp_path / "flag_tol", spec, extra=("--tol", "1e-3"))
    assert code == 2
    assert not (out / "report.json").exists()


# ----------------------------------------------------------------------
# fuzzing the CLI contract: mutated valid specs of every command
# ----------------------------------------------------------------------

STATE = {"u": [{"rate": 0.0, "coeffs": [1.0, 0.5]}], "v": [{"rate": 1.0, "coeffs": [0.5]}]}
VALID_SPECS = [
    {"command": "check-decomposition", "seed": 1, "tol": 1e-10,
     "params": {"interval": {"a": -1.0, "b": 0.5}, "samples": 2, "max_degree": 3}},
    {"command": "lipschitz-transfer", "seed": 2,
     "params": {"interval": {"a": 0.0, "b": 1.0}, "samples": 3,
                "g": {"kind": "table", "knots": [[-1.0, 0.0], [0.0, 0.5], [1.0, 0.0]]}}},
    {"command": "resolve", "tol": 1e-9,
     "params": {"g": {"kind": "scaledsin", "amplitude": 0.5, "frequency": 2.0},
                "rhs": [{"rate": 1.0, "coeffs": [1.0, -0.5]}], "tau": 0.5}},
    {"command": "cayley", "seed": 3,
     "params": {"dim": 2, "gram": [[2.0, 0.0], [0.0, 1.0]],
                "f_matrix": [[0.0, 0.5], [-0.5, 0.0]], "points": 3}},
    {"command": "st-criterion",
     "params": {"dim": 2, "gram": IDENTITY, "S": IDENTITY, "T": [[0.5, 0.0], [0.0, 0.5]]}},
    {"command": "block-equivalence", "seed": 4, "tol": 1e-9,
     "params": {"interval": {"a": 0.0, "b": 1.0}, "states": 2, "tau": 0.8,
                "realization": {"kind": "ST", "S": IDENTITY, "T": [[2.0, 0.0], [0.0, 2.0]]}}},
    {"command": "wave-impedance", "seed": 5,
     "params": {"interval": {"a": 0.0, "b": 1.0}, "K": [[1.0, 0.5], [-0.5, 1.0]],
                "tau": 0.2, "steps": 2, "u0": STATE}},
    {"command": "evolve", "tol": 1e-8,
     "params": {"kind": "derivative", "g": {"kind": "linear", "slope": 0.5},
                "u0": [{"rate": 0.0, "coeffs": [1.0, 0.5]}], "v0": [{"rate": 0.0, "coeffs": [0.5]}],
                "tau": 0.25, "steps": 2}},
    {"command": "evolve",
     "params": {"interval": {"a": -0.5, "b": 0.5}, "kind": "block",
                "realization": {"kind": "f", "matrix": [[0.2, 0.0], [0.1, -0.3]]},
                "u0": STATE, "v0": STATE, "tau": 0.3, "steps": 3}},
]
BAD_VALUES = [math.nan, math.inf, -math.inf, -1, 0, "x", [1, 2], None]
# dropping these would run their large defaults
KEEP = {"params", "samples", "states", "points", "steps"}


def _paths(value, path=()):
    """Every key path into a JSON value."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_specs(draw, base):
    spec = json.loads(json.dumps(base))  # a deep copy that shares no nodes
    path = draw(st.sampled_from(list(_paths(spec))))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], spec)
    value = draw(st.sampled_from(BAD_VALUES + ([] if path[-1] in KEEP else ["drop"])))
    if value == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec


@pytest.mark.parametrize("base", VALID_SPECS, ids=lambda s: s["command"])
def test_fuzzed_specs_keep_the_cli_contract(base):
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(spec=mutated_specs(base))
    def check(spec):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_cli(Path(tmp), spec)
            assert code in (0, 1, 2)
            assert (out / "report.json").exists() == (code in (0, 1))
            if code != 2:
                report = load_report(out)
                assert report["passed"] == (code == 0)
                assert (report["first_failure"] is None) == report["passed"]

    check()


# ----------------------------------------------------------------------
# norms, intervals and overflow
# ----------------------------------------------------------------------

# Runs whose energies the former Gram-form norm clamped to exactly 0:
# seed-1 trajectories spec 160, seed-2 spec 151, and a run from e^{1.9 t}.
CLAMPED_TO_ZERO = [
    {"command": "wave-impedance", "seed": 835970464, "params": {
        "interval": {"a": -1.2077648741659348, "b": -0.3957861684537054}, "tau": 0.2, "steps": 43,
        "K": [[1.0601023677031445, -0.6361296828320897], [0.3152154976104867, 1.174449914707029]],
        "u0": {"u": [{"rate": 2.0, "coeffs": [-0.6265064305650807, -0.25413454101873034]}],
               "v": [{"rate": -1.0, "coeffs": [-1.4505817041517086, -0.06776392596969827,
                                                -1.2254037229674026]}]}}},
    {"command": "wave-impedance", "seed": 656062033, "params": {
        "interval": {"a": -1.2082397295870093, "b": -0.23995388850656585}, "tau": 0.1, "steps": 34,
        "K": [[1.6953672612277089, 1.036086922640393], [-0.8628894874442368, 1.7311656981015955]],
        "u0": {"u": [{"rate": 2.0, "coeffs": [-0.8778344831080789, 1.499375615859197,
                                               -1.0907952688327072]}],
               "v": [{"rate": 1.0, "coeffs": [-0.563100968259689, 1.1347933498153928]}]}}},
    {"command": "wave-impedance", "params": {
        "K": IDENTITY, "tau": 0.5, "u0": {"u": [{"rate": 1.9, "coeffs": [1.0]}], "v": []}}},
]


@pytest.mark.parametrize("spec", CLAMPED_TO_ZERO)
def test_no_energy_reads_exactly_zero(tmp_path, spec):
    code, out = run_cli(tmp_path, spec)
    assert code in (0, 1)
    assert load_report(out)["final_energy"] > 0.0
    rows = (out / "data.csv").read_text().splitlines()[1:]
    assert rows and all(float(row.split(",")[3]) > 0.0 for row in rows)


def test_no_interval_outlives_its_cli_run(tmp_path, monkeypatch):
    from maccretive.funcspace import Interval

    made = []
    post_init = Interval.__post_init__

    def recording(self):
        post_init(self)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Interval, "__post_init__", recording)
    specs = [
        {"command": "check-decomposition", "params": {"samples": 3}},
        {"command": "block-equivalence", "params": {"states": 3}},
        {"command": "wave-impedance", "params": {"K": IDENTITY, "steps": 3}},
        VALID_SPECS[-2],
        VALID_SPECS[-1],
    ]
    for i, spec in enumerate(specs):
        code, _ = run_cli(tmp_path, spec, name=f"{i}.json")
        assert code in (0, 1)
    gc.collect()
    assert made and all(ref() is None for ref in made)


@pytest.mark.parametrize(
    "spec",
    [
        # e^{800 t} overflows on [0, 1]; this used to raise OverflowError
        {"command": "resolve", "params": {"g": LINEAR_G, "rhs": [{"rate": 800.0, "coeffs": [1.0]}]}},
        # e^{-2e4 t} spans more than the floating-point range on [0, 1]
        {"command": "resolve", "params": {"g": LINEAR_G, "rhs": [{"rate": -2e4, "coeffs": [1.0]}]}},
        {"command": "evolve", "params": {"g": LINEAR_G, "u0": [{"rate": 900.0, "coeffs": [1.0]}]}},
        {"command": "wave-impedance", "params": {
            "K": IDENTITY, "u0": {"u": [], "v": [{"rate": -900.0, "coeffs": [1.0]}]}}},
        # K + K^T overflows, or kappa* K kappa does on this interval
        {"command": "wave-impedance", "params": {"K": [[1e308, 0.0], [0.0, 1e308]]}},
        {"command": "wave-impedance", "params": {
            "interval": {"a": 2.0, "b": 3.0}, "K": [[1e307, 0.0], [0.0, 1e307]]}},
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy notes the overflow it meets
def test_data_that_overflows_on_the_interval_is_a_schema_error(tmp_path, spec):
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert not (out / "report.json").exists()


def test_a_step_too_short_for_the_norms_is_a_schema_error(tmp_path, capsys):
    # the state's mode e^{-t/tau} has reach 0.5/tau = 5e4 on [0, 1], beyond
    # every Gauss rule of the norms; this used to end in an ArithmeticError
    spec = {"command": "evolve", "params": {
        "g": LINEAR_G, "tau": 1e-5, "steps": 3, "v0": [{"rate": 0, "coeffs": [0.5]}]}}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert not (out / "report.json").exists()
    assert "reach 50000" in capsys.readouterr().err


def test_moments_beyond_the_float_range_are_a_schema_error(tmp_path, capsys):
    # the rate-0 moment t^128 on [0, 350] is beyond the floating-point
    # range; this used to end in an OverflowError traceback
    spec = {"command": "check-decomposition", "params": {
        "interval": {"a": 0.0, "b": 350.0}, "max_degree": 64, "samples": 3}}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert not (out / "report.json").exists()
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("b", [300.0, 340.0])
def test_samples_beyond_the_float_range_are_a_schema_error(tmp_path, capsys, b):
    # on [0, 340] t^10 e^{2t} leaves the float range at the nodes; on
    # [0, 300] it stays inside, but its pairings and the e^t coefficient of
    # some samples do not. Both used to end in nan defects and a FAIL.
    spec = {"command": "check-decomposition", "params": {
        "interval": {"a": 0.0, "b": b}, "max_degree": 10, "samples": 5}}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert not (out / "report.json").exists()
    assert "overflows" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, passed", [(1e300, True), (-1e300, False)])
def test_wave_impedance_with_a_huge_k_gives_a_verdict(tmp_path, scale, passed):
    # the relation's basis is near 1e300; its normal equations used to
    # overflow into a LinAlgError. The sizes of its probes overflow
    # without a warning, as the norms' do
    spec = {"command": "wave-impedance", "params": {"K": [[scale, 0.0], [0.0, scale]], "steps": 5}}
    code, out = run_cli(tmp_path, spec)
    report = load_report(out)
    assert code == (0 if passed else 1)
    assert report["passed"] is passed
    assert math.isfinite(report["final_energy"])
