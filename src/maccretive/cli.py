"""Batch verification entry point.

Reads a JSON run specification, executes the named suite, and writes
``report.json`` (and ``data.csv`` where the suite produces rows) into
the output directory. Reports are deterministic: keys are sorted,
floats are printed with 17 significant digits, and all randomness is
driven by the seed in the spec, so identical specs produce
byte-identical reports.

Every command's parameters are declared once, in :data:`COMMANDS`, and
are checked by :func:`_parse` before the suite runs. :func:`run` adds
the envelope every report shares: ``command``, ``seed``, ``interval``
(when the command takes one), ``passed`` and ``first_failure``.

Exit codes: 0 all verdicts pass, 1 a verdict failed (the report names
the first failing check), 2 the spec or its inputs do not parse.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .blockop import (
    BlockRealization,
    BlockState,
    bd_space,
    state_l2_norm,
)
from .derivative import (
    BoundaryFunction,
    Realization1D,
    _pi_coeffs,
    boundary_function_from_jsonable,
    check_lipschitz_transfer,
    in_domain,
    resolve,
)
from .errors import NormOutOfReach, RootNotFound, SchemaError
from .evolution import evolve
from .funcspace import (
    DEGREE_CAP,
    ExpBasis,
    ExpPoly,
    Interval,
    _eval_pair,
    _merge,
    _state_norms,
    differentiate,
    l2_norm,
)
from .impedance1d import (
    impedance_realization,
    is_K_accretive,
)
from .relations import (
    NORM_TOL,
    SPECTRAL_RTOL,
    ContractionMap,
    InnerSpace,
    LinearRelation,
    OperatorPair,
    cayley_to_relation,
    is_m_accretive_linear,
    operator_norm,
    relation_to_cayley,
    st_criterion,
    st_relation,
)

_RUNSPEC_KEYS = {"command", "seed", "tol", "params", "input"}

#: ``block-equivalence`` and ``check-decomposition`` draw and test their
#: states this many at a time, so memory does not grow with ``states`` or
#: ``samples``.
STATE_CHUNK = 256


@dataclass
class RunSpec:
    """Run request: command, seed, tolerance override, parameters.

    ``seed``, ``tol`` and ``params`` are checked by :func:`_parse` when
    the spec is run, so command-line overrides obey the same rules.
    """

    command: str
    seed: int = 42
    tol: Optional[float] = None
    params: dict = field(default_factory=dict)

    @classmethod
    def from_jsonable(cls, data: dict, base_dir: Path) -> "RunSpec":
        if not isinstance(data, dict):
            raise SchemaError("run spec must be a JSON object")
        unknown = set(data) - _RUNSPEC_KEYS
        if unknown:
            raise SchemaError(f"unknown run spec fields: {sorted(unknown)}")
        command = data.get("command")
        if not isinstance(command, str) or command not in COMMANDS:
            raise SchemaError(f"unknown command: {command!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("params must be a JSON object")
        if "input" in data:
            path = base_dir / str(data["input"])
            try:
                loaded = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise SchemaError(f"cannot read input file {path}: {exc}") from exc
            if not isinstance(loaded, dict):
                raise SchemaError("input file must hold a JSON object")
            params = {**loaded, **params}
        return cls(command, data.get("seed", 42), data.get("tol"), dict(params))


# ----------------------------------------------------------------------
# deterministic serialisation
# ----------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _serialise(value, out: list) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _serialise(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _serialise(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(value)!r}")


def render_report(report: dict) -> str:
    out: list = []
    _serialise(report, out)
    return "".join(out) + "\n"


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                _format_float(x) if isinstance(x, float) else str(x) for x in row
            )
        )
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# parameter converters: ``convert(value, name)`` returns the parsed
# value or raises ``SchemaError``
# ----------------------------------------------------------------------


def _interval(data, name: str) -> Interval:
    try:
        iv = Interval.from_jsonable(data)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {name}: {exc}") from exc
    if not (math.isfinite(iv.a) and math.isfinite(iv.b)):
        raise SchemaError(f"bad {name}: endpoints must be finite")
    # every boundary formula divides by the entries of the BD Gram matrix
    try:
        gram_ok = all(math.isfinite(g) and g > 0.0 for g in (iv.denom_plus, iv.denom_minus))
    except OverflowError:
        gram_ok = False
    if not gram_ok:
        raise SchemaError(
            f"bad {name}: the boundary-data Gram entries e^2b - e^2a and "
            "e^-2a - e^-2b must be finite and positive"
        )
    return iv


def _count(value, name: str, low: int = 1, high=None) -> int:
    """Integer parameter ``name`` within ``[low, high]``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise SchemaError(f"{name} must be {bounds}, got {value}")
    return value


#: The largest value each count parameter accepts: far above any run the
#: suites are meant for, and low enough that a mistyped spec cannot ask
#: for unbounded work or memory.
COUNT_LIMITS = {
    "samples": 100_000,
    "states": 100_000,
    "points": 100_000,
    "steps": 10_000,
    "dim": 256,
}


def _limited_count(value, name: str) -> int:
    """Count parameter ``name`` within ``[1, COUNT_LIMITS[name]]``."""
    return _count(value, name, high=COUNT_LIMITS[name])


def _degree(value, name: str) -> int:
    return _count(value, name, low=0, high=DEGREE_CAP)


def _positive(value, name: str) -> float:
    """Positive finite number (``tau``, ``tol``)."""
    try:
        x = float(value)
    except (OverflowError, TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or not (math.isfinite(x) and x > 0.0):
        raise SchemaError(f"{name} must be a positive finite number, got {value!r}")
    return x


def _finite(value) -> bool:
    """Whether every float in nested lists, tuples and dicts is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _exppoly(data, name: str) -> ExpPoly:
    try:
        f = ExpPoly.from_jsonable(data)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {name}: {exc}") from exc
    if not _finite(f.terms):
        raise SchemaError(f"bad {name}: rates and coefficients must be finite")
    return f


def _block_state(data, name: str) -> BlockState:
    if not isinstance(data, dict) or set(data) != {"u", "v"}:
        raise SchemaError(f"bad {name}: expected an object with keys 'u' and 'v'")
    return BlockState(_exppoly(data["u"], f"{name}.u"), _exppoly(data["v"], f"{name}.v"))


#: Largest ``|rate| * (b - a)`` of a term of the data: ``e^{rate t}`` then
#: varies by less than the floating-point range across the interval.
_MAX_RATE_SPAN = math.log(sys.float_info.max)


def _finite_on(iv: Interval, state, name: str):
    """``state``, an ExpPoly or a BlockState, if its values at both ends of
    ``iv`` are finite and no term varies by more than the floating-point
    range across ``iv``; the suites' solvers and norms need both."""
    for f in (state.u, state.v) if isinstance(state, BlockState) else (state,):
        try:
            finite = all(map(math.isfinite, _eval_pair(f, iv.a, iv.b)))
        except OverflowError:
            finite = False
        if not finite or any(abs(rate) * iv.length > _MAX_RATE_SPAN for rate in f.rates):
            raise SchemaError(
                f"bad {name}: a term overflows, or spans more than the "
                "floating-point range, on the interval"
            )
    return state


def _boundary_function(data, name: str) -> BoundaryFunction:
    try:
        g = boundary_function_from_jsonable(data)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad boundary function {name!r}: {exc!r}") from exc
    if not _finite((g.lipschitz_cert, g.descriptor)):
        raise SchemaError(f"bad boundary function {name!r}: numbers must be finite")
    return g


def _matrix(data, name: str, shape=None) -> np.ndarray:
    try:
        m = np.asarray(data, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {name}: {exc}") from exc
    if m.ndim > 2:
        raise SchemaError(f"bad {name}: expected at most 2 dimensions, got {m.ndim}")
    if shape is not None and m.shape != shape:
        raise SchemaError(f"bad {name}: expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SchemaError(f"bad {name}: entries must be finite")
    return m


def _impedance_k(data, name: str) -> np.ndarray:
    m = _matrix(data, name, (2, 2))
    if np.max(np.abs(m)) > 0.5 * sys.float_info.max:
        raise SchemaError(f"bad {name}: K + K^T overflows")
    return m


def _space(p: dict) -> InnerSpace:
    """The space of dimension ``dim`` with Gram matrix ``gram`` (identity)."""
    dim = p["dim"]
    gram = _matrix(p["gram"], "gram", (dim, dim)) if "gram" in p else np.eye(dim)
    try:
        return InnerSpace(dim, gram)
    except ValueError as exc:
        raise SchemaError(f"bad gram: {exc}") from exc


def _block_realization(iv: Interval, data) -> BlockRealization:
    space = bd_space(iv)
    try:
        kind = data.get("kind")
        if kind == "f":
            matrix = _matrix(data["matrix"], "f matrix", (2, 2))
            return BlockRealization.from_f(iv, ContractionMap.from_matrix(space, matrix))
        if kind == "M":
            matrix = _matrix(data["matrix"], "relation matrix", (2, 2))
            basis = np.array([np.stack([e, matrix @ e]) for e in np.eye(2)])
            return BlockRealization.from_relation(iv, LinearRelation(space, basis))
        if kind == "ST":
            s_mat = _matrix(data["S"], "S", (2, 2))
            t_mat = _matrix(data["T"], "T", (2, 2))
            return BlockRealization.from_st(iv, OperatorPair(space, s_mat, t_mat))
    except (AttributeError, KeyError, ValueError) as exc:
        raise SchemaError(f"bad realization: {exc!r}") from exc
    raise SchemaError(f"unknown block realization kind: {kind!r}")


def _random_exppolys(rng: np.random.Generator, count: int, max_degree: int) -> list:
    """``count`` random probe states: each of one to three terms, integer
    rates in [-2, 2], degree uniform in 0..``max_degree``, coefficients
    uniform in [-2, 2); terms of equal rate merge.

    The draw layout is part of the seeded report contract: a report is a
    function of its spec's ``seed``, so any change to these four array
    draws (term counts, rates, coefficient counts, then coefficients, each
    drawn for three terms of the largest degree and cut to what a function
    uses) changes the reports of every suite that draws probes. The terms
    are Python floats, so one :func:`_merge` gives the normal form
    ``ExpPoly``'s constructor would.
    """
    n_terms = rng.integers(1, 4, count).tolist()
    rates = rng.integers(-2, 3, (count, 3)).astype(float).tolist()
    lengths = rng.integers(1, max_degree + 2, (count, 3)).tolist()
    coeffs = rng.uniform(-2.0, 2.0, (count, 3, max_degree + 1)).tolist()
    return [
        ExpPoly._trusted(_merge([(mu[j], c[j][: n[j]]) for j in range(k)]))
        for k, mu, n, c in zip(n_terms, rates, lengths, coeffs)
    ]


def _random_block_states(rng: np.random.Generator, count: int) -> list:
    """``count`` random states ``(u, v)``, paired from ``2 count`` draws of
    :func:`_random_exppolys` of degree up to 2."""
    polys = _random_exppolys(rng, 2 * count, 2)
    return [BlockState(u, v) for u, v in zip(polys[0::2], polys[1::2])]


# ----------------------------------------------------------------------
# suites: ``suite(params, seed, tol)`` returns the report body, the
# names of the failed checks in order, and the CSV data or ``None``
# ----------------------------------------------------------------------


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``x`` with the same row of ``y``."""
    return np.einsum("ij,ij->i", x, y)


def _block_resolves(realization: BlockRealization, rhss: list, tau: float):
    """``(basis, rows, solutions)`` of the block resolvents of ``rhss`` at ``tau``,
    one batch of rows ``(u, v)`` over their shared basis, the solutions up to
    the first that fails the closing membership test, where a loop of
    ``block_resolve`` would raise :class:`RootNotFound`. The CLI's
    realizations are linear, so no row's boundary solve raises."""
    polys = [f for rhs in rhss for f in (rhs.u, rhs.v)]
    try:
        step = realization._step_map(tau, polys, 1)
    except RootNotFound:
        return None, None, ()
    rows = step.basis.rows(polys).reshape(len(rhss), -1)
    out, ends = step(rows)
    member = step.member(ends)
    return step.basis, rows, out[: len(out) if member.all() else int(np.argmin(member))]


def _energy_run(realization, state: BlockState, tau: float, steps: int, iv: Interval):
    """``(energies, first increase, stop)`` of the energy run from ``state``:
    :func:`evolve` with ``until`` the first step whose energy exceeds the
    one before by more than 1e-10 relative. A run that stops keeps the
    energies before its stop and reports no increase."""
    energies, rises = [state_l2_norm(state, iv) ** 2], []

    def rose(norm) -> bool:
        energies.append(norm ** 2)
        if energies[-1] > energies[-2] * (1 + 1e-10):
            rises.append(len(energies) - 1)
        return bool(rises)

    (stop,) = evolve(realization, [(state.u, state.v)], tau, steps, until=rose).stops
    return energies[:stop], rises[0] if rises and stop is None else None, stop


@np.errstate(over="ignore", invalid="ignore")  # a pairing that overflows raises below
def _suite_check_decomposition(p: dict, seed: int, tol: float):
    iv = p["interval"]
    rng = np.random.default_rng(seed)
    modes = [ExpPoly.exponential(1.0), ExpPoly.exponential(-1.0)]

    checks = dict.fromkeys(
        ("reconstruction_defect", "orthogonality_defect",
         "inner_product_identity_defect", "projection_oracle_defect"),
        0.0,
    )
    for start in range(0, p["samples"], STATE_CHUNK):
        size = min(STATE_CHUNK, p["samples"] - start)
        polys = _random_exppolys(rng, size, p["max_degree"])
        ua, ub = np.array([_eval_pair(u, iv.a, iv.b) for u in polys]).T
        c1, cm = _pi_coeffs(iv, ua, ub)
        polys += modes
        basis = ExpBasis.spanning(polys)
        rows = basis.rows(polys)
        u_rows, mode_rows = rows[:-2], rows[-2:]
        # p0 = u - c1 e^t - cm e^{-t} and p0 + c1 e^t + cm e^{-t} - u,
        # formed on the coefficient rows
        p0_rows = u_rows - c1[:, None] * mode_rows[0] - cm[:, None] * mode_rows[1]
        recon_rows = p0_rows + c1[:, None] * mode_rows[0] + cm[:, None] * mode_rows[1] - u_rows
        rows = np.vstack([u_rows, p0_rows, recon_rows, mode_rows])
        # Every pairing sums products of weighted values at the nodes of one
        # Gauss-Legendre rule; the values of a derivative are those of its
        # row ``x D``, which rounds as ``differentiate`` does.
        table = basis.values(iv)
        vals, d_vals = rows @ table, (rows @ basis.derivative()) @ table
        graph_sq = _row_dots(vals, vals) + _row_dots(d_vals, d_vals)
        graph_exp = vals @ vals[-2:].T + d_vals @ d_vals[-2:].T  # with e^t, e^{-t}
        lhs = _row_dots(d_vals[:size], vals[:size])  # <u', u>
        if not all(np.isfinite(x).all() for x in (graph_sq, graph_exp, lhs)):
            raise OverflowError(f"a pairing leaves the floating-point range on [{iv.a}, {iv.b}]")
        (gram_pp, gram_pm), (_, gram_mm) = graph_exp[-2:]
        u_sq, recon_sq = graph_sq[:size], graph_sq[2 * size : 3 * size]
        u_exp, p0_exp = graph_exp[:size], graph_exp[size : 2 * size]
        scale = 1.0 + np.sqrt(u_sq)
        sq = scale**2
        recon = np.sqrt(recon_sq)
        mid = c1**2 * iv.denom_plus / 2.0 - cm**2 * iv.denom_minus / 2.0
        rhs = (ub**2 - ua**2) / 2.0
        # independent Gram-projection oracle
        oracle_p, oracle_m = u_exp[:, 0] / gram_pp, u_exp[:, 1] / gram_mm
        defects = {
            "reconstruction_defect": recon / scale,
            "orthogonality_defect":
                np.abs([p0_exp[:, 0] * c1, p0_exp[:, 1] * cm, c1 * cm * gram_pm]) / sq,
            "inner_product_identity_defect": np.abs([lhs - mid, lhs - rhs]) / (1 + np.abs(rhs)),
            "projection_oracle_defect":
                np.abs([c1 - oracle_p, cm - oracle_m]) / (1 + np.abs([c1, cm])),
        }
        for name, values in defects.items():
            # a nan defect stays nan, and fails
            checks[name] = float(np.max(values, initial=checks[name]))

    failures = [name for name, value in checks.items() if not value < tol]
    body = {"samples": p["samples"], "tolerances": {"defect": tol}, "checks": checks}
    return body, failures, None


def _suite_lipschitz_transfer(p: dict, seed: int, tol: float):
    iv, g = p["interval"], p["g"]
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(-3.0, 3.0, (p["samples"], 2))
    report_data = check_lipschitz_transfer(iv, g, pairs, tol=tol)
    failures = []
    if report_data.max_identity_defect >= tol:
        failures.append("distance_identities")
    if not report_data.equivalence_ok:
        failures.append("equivalence")
    if not report_data.bound_holds:
        failures.append("bound_holds")
    body = {
        "g": g.descriptor,
        "lipschitz_cert": g.lipschitz_cert,
        "admissible_bound": iv.lipschitz_bound,
        "tolerances": {"identity": tol},
        "result": report_data.to_jsonable(),
    }
    rows = [
        (i, r.c, r.d, r.x_dist, r.h_dist, r.g_gap, r.bound_rhs)
        for i, r in enumerate(report_data.samples)
    ]
    return body, failures, (["index", "c", "d", "x_dist", "h_dist", "g_gap", "bound_rhs"], rows)


def _suite_resolve(p: dict, seed: int, tol: float):
    iv = p["interval"]
    rhs, tau = _finite_on(iv, p["rhs"], "rhs"), p["tau"]
    realization = Realization1D(iv, p["g"])
    failures = []
    solution = residual = None
    try:
        solution = resolve(realization, rhs, tau)
        residual = l2_norm(solution + tau * differentiate(solution) - rhs, iv)
        if residual >= tol * (1 + l2_norm(rhs, iv)):
            failures.append("residual")
        if not in_domain(realization, solution, tol):
            failures.append("membership")
    except RootNotFound:
        failures.append("solvable")
    body = {
        "g": p["g"].descriptor,
        "tau": tau,
        "tolerances": {"residual": tol},
        "solution": None if solution is None else solution.to_jsonable(),
        "residual_norm": residual,
    }
    return body, failures, None


def _suite_cayley(p: dict, seed: int, tol: float):
    space = _space(p)
    dim = space.dim
    rng = np.random.default_rng(seed)
    if "f_matrix" in p:
        matrix = _matrix(p["f_matrix"], "f_matrix", (dim, dim))
        try:
            f = ContractionMap.from_matrix(space, matrix)
        except ValueError as exc:
            raise SchemaError(f"f_matrix is not a contraction: {exc}") from exc
    else:
        raw = rng.standard_normal((dim, dim))
        f = ContractionMap.from_matrix(space, 0.9 * raw / operator_norm(space, raw), 0.9)
    relation = cayley_to_relation(f)
    back = relation_to_cayley(space, relation.resolvent)
    worst = 0.0
    accretive_ok = True
    for _ in range(p["points"]):
        x = space.random_vectors(rng, 1)[0]
        worst = max(worst, space.norm(back(x) - f(x)) / (1 + space.norm(x)))
        z1, z2 = space.random_vectors(rng, 2)
        u1, u2 = relation.resolvent(z1), relation.resolvent(z2)
        pairing = space.inner(u1 - u2, (z1 - u1) - (z2 - u2))
        if pairing < -tol * (1 + space.norm(z1) + space.norm(z2)) ** 2:
            accretive_ok = False
    failures = []
    if worst >= tol:
        failures.append("roundtrip")
    if not accretive_ok:
        failures.append("accretivity")
    body = {
        "dim": dim,
        "points": p["points"],
        "tolerances": {"roundtrip": tol},
        "roundtrip_max_error": worst,
        "accretive_sampled": accretive_ok,
    }
    return body, failures, None


def _suite_st_criterion(p: dict, seed: int, tol: None):
    try:
        pair = OperatorPair(_space(p), p["S"], p["T"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    result = st_criterion(pair)
    agrees = result.holds == is_m_accretive_linear(st_relation(pair))
    failures = []
    if not agrees:
        failures.append("criterion_vs_relation")
    if not result.holds:
        failures.extend(sorted(result.which_failed))
    body = {
        "tolerances": {"norm_slack": NORM_TOL, "spectral_rtol": SPECTRAL_RTOL},
        "criterion": result.to_jsonable(),
        "agrees_with_relation_test": agrees,
    }
    return body, failures, None


def _suite_block_equivalence(p: dict, seed: int, tol: float):
    iv = p["interval"]
    rng = np.random.default_rng(seed)
    if "realization" in p:
        realization = _block_realization(iv, p["realization"])
    else:
        raw = rng.standard_normal((2, 2))
        space = bd_space(iv)
        realization = BlockRealization.from_f(
            iv, ContractionMap.from_matrix(space, 0.9 * raw / operator_norm(space, raw), 0.9)
        )
    tau = p["tau"]
    disagreements = 0
    for start in range(0, p["states"], STATE_CHUNK):
        size = min(STATE_CHUNK, p["states"] - start)
        chunk = _random_block_states(rng, size)
        verdicts = np.array(list(realization.domain_test_many(chunk, tol).values()))
        disagreements += int(np.count_nonzero(verdicts.any(axis=0) & ~verdicts.all(axis=0)))
    max_residual = 0.0
    solved = True
    if realization.is_m_accretive:
        basis, rows, out = _block_resolves(realization, _random_block_states(rng, 10), tau)
        solved = len(out) == 10
        if len(out):
            n, d, table = basis.dim, basis.derivative(), basis.values(iv)
            rows = rows[: len(out)]
            res = np.hstack([out[:, :n] + tau * out[:, n:] @ d, out[:, n:] + tau * out[:, :n] @ d]) - rows
            worst = np.maximum(_state_norms(res[:, :n], table), _state_norms(res[:, n:], table))
            max_residual = float(np.max(worst / (1 + _state_norms(rows, table))))
    failures = []
    if disagreements:
        failures.append("description_agreement")
    if not solved:
        failures.append("resolvent_solvable")
    if max_residual >= tol:
        failures.append("resolvent_residual")
    body = {
        "states": p["states"],
        "tau": tau,
        "tolerances": {"membership": tol},
        "m_accretive": realization.is_m_accretive,
        "disagreements": disagreements,
        "max_resolvent_residual": max_residual,
    }
    return body, failures, None


def _suite_wave_impedance(p: dict, seed: int, tol: float):
    iv = p["interval"]
    k, tau, steps = p["K"], p["tau"], p["steps"]
    rng = np.random.default_rng(seed)
    try:
        realization = impedance_realization(iv, k)
    except ValueError as exc:
        raise SchemaError(f"bad K on this interval: {exc}") from exc
    accretive_k = is_K_accretive(k)

    # (a) sampled accretivity over pairs of members built from boundary data,
    # from the BD coefficients of their differences and their endpoint values
    w = realization.relation.basis
    coeffs = rng.uniform(-2.0, 2.0, size=(60, 2))
    members = np.hstack([coeffs @ w[:, 0, :], (coeffs @ w[:, 1, :]) * [1.0, -1.0]])
    diffs = members[0::2] - members[1::2]
    ends = np.hstack([diffs[:, :2] @ iv.endpoint_matrix.T, diffs[:, 2:] @ iv.endpoint_matrix.T])
    # <A diff, diff> = int (u v)' = u(b) v(b) - u(a) v(a)
    pairing = ends[:, 1] * ends[:, 3] - ends[:, 0] * ends[:, 2]
    # each difference's norm, its columns (cm, cp) per function over e^{-t}, e^t
    sizes = _state_norms(diffs[:, [1, 0, 3, 2]], ExpBasis(((-1.0, 1), (1.0, 1))).values(iv))
    with np.errstate(over="ignore"):  # a size past the float range reads as inf
        accretive_sampled = not np.any(pairing < -tol * (1 + sizes * sizes))
    # (b) solvability with nonexpansive differences
    basis, rows, out = _block_resolves(realization, _random_block_states(rng, 20), tau)
    solvable = len(out) == 20
    if solvable:
        table = basis.values(iv)
        gap_in = _state_norms(rows[0::2] - rows[1::2], table)
        solvable = not np.any(_state_norms(out[0::2] - out[1::2], table) > gap_in + tol)

    # energy run, stopping at the first certified increase
    state = _finite_on(iv, p["u0"], "u0")
    energies, first_increase, run_failed_at = _energy_run(realization, state, tau, steps, iv)

    failures = []
    if accretive_k != (accretive_sampled and solvable):
        failures.append("equivalence")
    if run_failed_at is not None:
        failures.append("run_failed")
    if accretive_k and first_increase is not None:
        failures.append("energy_monotonicity")
    if not accretive_k:
        if first_increase is None and run_failed_at is None:
            failures.append("expected_energy_increase_not_detected")
        failures.append("K_not_accretive")
    body = {
        "K": k.tolist(),
        "tau": tau,
        "steps_requested": steps,
        "tolerances": {"pairing": tol, "energy_increase_rtol": 1e-10},
        "accretive_K": accretive_k,
        "realisation_accretive_sampled": accretive_sampled,
        "resolvent_solvable": solvable,
        "energy_first_increase_step": first_increase,
        "run_failed_at_step": run_failed_at,
        "final_energy": energies[-1],
    }
    rows = [(i, i * tau, math.sqrt(e), e) for i, e in enumerate(energies)]
    return body, failures, (["step", "time", "norm", "energy"], rows)


def _suite_evolve(p: dict, seed: int, tol: float):
    iv = p["interval"]
    kind, tau, steps = p["kind"], p["tau"], p["steps"]

    # the state type, the default u0 and the needed parameter depend on kind
    if kind == "derivative":
        if "g" not in p:
            raise SchemaError("evolve: derivative kind needs 'g'")
        realization = Realization1D(iv, p["g"])
        parse_state, parts = _exppoly, lambda s: (s,)
        u0 = ExpPoly.exponential(1.0)
    elif kind == "block":
        if "realization" not in p:
            raise SchemaError("evolve: block kind needs 'realization'")
        realization = _block_realization(iv, p["realization"])
        parse_state, parts = _block_state, lambda s: (s.u, s.v)
        u0 = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    else:
        raise SchemaError(f"evolve: unknown kind {kind!r}")
    if "u0" in p:
        u0 = _finite_on(iv, parse_state(p["u0"], "u0"), "u0")
    v0 = _finite_on(iv, parse_state(p["v0"], "v0"), "v0") if "v0" in p else None
    starts = (u0,) if v0 is None else (u0, v0)

    # u's record ends before its stop; v is judged on its states within it
    run = evolve(realization, [parts(s) for s in starts], tau, steps)
    run_failed_at, norms = run.stops[0], run.norms.tolist()
    distances = monotone = None
    failures = []
    if v0 is not None:
        gaps = run.distances
        rises = np.flatnonzero(gaps[1:] > gaps[:-1] + tol)
        if rises.size:
            failures.append("distance_monotonicity")
            monotone, distances = False, [math.nan] * (int(rises[0]) + 2)
        elif len(gaps) < len(norms):  # v stopped inside u's record
            run_failed_at = run.stops[1]
        else:
            monotone, distances = True, gaps.tolist()
    if run_failed_at is not None:
        failures.insert(0, "run_failed")
    body = {
        "kind": kind,
        "tau": tau,
        "steps": steps,
        "tolerances": {"per_step": tol},
        "final_norm": norms[-1],
        "distance_monotone": monotone,
    }
    if run_failed_at is not None:
        body["run_failed_at_step"] = run_failed_at
    rows = [(i, i * tau, n, *(distances or [])[i : i + 1]) for i, n in enumerate(norms)]
    header = ["step", "time", "norm"] + (["distance"] if distances is not None else [])
    return body, failures, (header, rows)


# ----------------------------------------------------------------------
# the command table
# ----------------------------------------------------------------------

#: Marks a parameter without a default.
_REQUIRED = object()


@dataclass(frozen=True)
class _Command:
    """One CLI command: its suite, its default ``tol`` and its parameters.

    ``params`` maps each parameter name to ``(converter, default)``. The
    default is spec JSON, converted like a given value, or
    ``_REQUIRED``, or ``None`` for an optional parameter without one. A
    ``None`` converter leaves the value to the suite, whose parsing
    depends on other parameters. ``tol`` is ``None`` for a command that
    takes no tolerance.
    """

    suite: Callable
    tol: Optional[float]
    params: dict


_INTERVAL = {"interval": (_interval, {"a": 0.0, "b": 1.0})}
_SPACE = {"dim": (_limited_count, 2), "gram": (None, None)}

COMMANDS = {
    "check-decomposition": _Command(_suite_check_decomposition, 1e-10, {
        **_INTERVAL, "samples": (_limited_count, 500), "max_degree": (_degree, 4),
    }),
    "lipschitz-transfer": _Command(_suite_lipschitz_transfer, 1e-11, {
        **_INTERVAL, "g": (_boundary_function, _REQUIRED), "samples": (_limited_count, 64),
    }),
    "resolve": _Command(_suite_resolve, 1e-9, {
        **_INTERVAL,
        "g": (_boundary_function, _REQUIRED),
        "rhs": (_exppoly, _REQUIRED),
        "tau": (_positive, 1.0),
    }),
    "cayley": _Command(_suite_cayley, 1e-9, {
        **_SPACE, "f_matrix": (None, None), "points": (_limited_count, 100),
    }),
    "st-criterion": _Command(_suite_st_criterion, None, {
        **_SPACE, "S": (_matrix, _REQUIRED), "T": (_matrix, _REQUIRED),
    }),
    "block-equivalence": _Command(_suite_block_equivalence, 1e-9, {
        **_INTERVAL,
        "realization": (None, None),
        "states": (_limited_count, 200),
        "tau": (_positive, 0.8),
    }),
    "wave-impedance": _Command(_suite_wave_impedance, 1e-9, {
        **_INTERVAL,
        "K": (_impedance_k, _REQUIRED),
        "tau": (_positive, 0.2),
        "steps": (_limited_count, 50),
        "u0": (_block_state, {
            "u": [{"rate": 1.0, "coeffs": [1.0]}, {"rate": -1.0, "coeffs": [1.0]}],
            "v": [{"rate": 0.0, "coeffs": [0.5]}],
        }),
    }),
    "evolve": _Command(_suite_evolve, 1e-8, {
        **_INTERVAL,
        "kind": (None, "derivative"),
        "g": (_boundary_function, None),
        "realization": (None, None),
        "u0": (None, None),
        "v0": (None, None),
        "tau": (_positive, 0.1),
        "steps": (_limited_count, 10),
    }),
}


def _parse(spec: RunSpec):
    """``(params, seed, tol)`` of ``spec``, checked against its command's table."""
    command = COMMANDS[spec.command]
    unknown = set(spec.params) - set(command.params)
    if unknown:
        raise SchemaError(f"{spec.command}: unknown parameters {sorted(unknown)}")
    params = {}
    for name, (convert, default) in command.params.items():
        if name in spec.params:
            value = spec.params[name]
        elif default is _REQUIRED:
            raise SchemaError(f"{spec.command}: missing parameter {name!r}")
        elif default is None:
            continue
        else:
            value = default
        params[name] = value if convert is None else convert(value, name)
    seed = _count(spec.seed, "seed", low=0)
    if spec.tol is not None and command.tol is None:
        raise SchemaError(f"{spec.command} takes no tolerance")
    tol = command.tol if spec.tol is None else _positive(spec.tol, "tol")
    return params, seed, tol


def run(spec: RunSpec, out_dir: Path) -> int:
    """Execute the suite named by ``spec`` and write its reports."""
    params, seed, tol = _parse(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        body, failures, csv_data = COMMANDS[spec.command].suite(params, seed, tol)
    except NormOutOfReach as exc:
        # a step too short for the interval: the states' steepest terms
        # vary by more than the floating-point range across it
        raise SchemaError(f"{spec.command}: {exc}") from exc
    except OverflowError as exc:
        # data whose integrals on the interval leave the floating-point range
        raise SchemaError(f"{spec.command}: a value overflows on the interval ({exc})") from exc
    report = {
        **body,
        "command": spec.command,
        "seed": seed,
        "passed": not failures,
        "first_failure": failures[0] if failures else None,
    }
    if "interval" in params:
        report["interval"] = params["interval"].to_jsonable()
    (out_dir / "report.json").write_text(render_report(report))
    if csv_data is not None:
        header, rows = csv_data
        write_csv(out_dir / "data.csv", header, rows)
    return 0 if report["passed"] else 1


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="maccretive",
        description="Run verification suites for boundary realizations.",
    )
    parser.add_argument("--spec", required=True, help="path to the run spec JSON")
    parser.add_argument("--out", default=".", help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--tol", type=float, default=None, help="override the tolerance")
    return parser


def main(argv=None) -> int:
    args = _argument_parser().parse_args(argv)

    spec_path = Path(args.spec)
    try:
        raw = json.loads(spec_path.read_text())
        spec = RunSpec.from_jsonable(raw, spec_path.parent)
        if args.seed is not None:
            spec.seed = args.seed
        if args.tol is not None:
            spec.tol = args.tol
        return run(spec, Path(args.out))
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
