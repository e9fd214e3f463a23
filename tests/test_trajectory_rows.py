"""Trajectories as coefficient rows over one basis.

``evolution.evolve`` steps implicit-Euler trajectories as rows over one
``ExpBasis`` (``_StepMap``), through one loop (``evolution.run_rows``) that
keeps every coefficient each step gives and returns each row's stop;
these tests compare such runs and the batched resolvents with the term
algebra they replaced (``composed_step``), and check the stops the loop
reads: a step that raises, a closing membership test that fails, and the
caller's ``until``.
"""

import itertools
import math

import numpy as np
import pytest

from composed_step import ROUNDING, composed_block_resolve, term_majorant

from maccretive import cli
from maccretive.blockop import BlockState, block_resolve, state_l2_norm
from maccretive.derivative import Realization1D, _StepMap
from maccretive.errors import RootNotFound
from maccretive.evolution import evolve, run_rows
from maccretive.funcspace import ExpPoly, Interval, _state_norms
from maccretive.impedance1d import impedance_realization
from maccretive.relations import ContractionMap, operator_norm

# seed-1 trajectories spec 19 (block evolve) and spec 30 (accretive
# wave-impedance), as specgen draws them
BLOCK_EVOLVE = {
    "interval": {"a": 0.0, "b": 0.7650142474102115}, "tau": 0.2,
    "realization": {"kind": "f", "matrix": [
        [-0.06869937547722955, 0.2426029676115064], [0.03033032202287956, -0.06824726056247442]]},
    "u0": {"u": [{"rate": 0.0, "coeffs": [-0.8421109813473606, 1.0618616840230484]}],
           "v": [{"rate": 0.0, "coeffs": [1.0648342253479033, 1.0752324637317452, 0.6443372058535792]}]},
}
ACCRETIVE_WAVE = {
    "interval": {"a": -0.7111651990641046, "b": 0.6265105592809823}, "tau": 0.1,
    "K": [[1.9971686104829063, -0.6022798526589985], [0.6055268622347805, 1.9899304395138324]],
    "u0": {"u": [{"rate": 2.0, "coeffs": [1.3503419854785377]},
                 {"rate": 0.0, "coeffs": [0.048106399969676916, -0.49852449130172505]}],
           "v": [{"rate": 2.0, "coeffs": [-1.4531100559268457, 1.040983611081332]}]},
}


def _realization(params: dict, ctx: Interval):
    if "K" in params:
        return impedance_realization(ctx, np.asarray(params["K"], dtype=float))
    return cli._block_realization(ctx, params["realization"])


@pytest.mark.parametrize("params", [BLOCK_EVOLVE, ACCRETIVE_WAVE], ids=["evolve-block", "wave-accretive"])
def test_50_vector_steps_match_50_composed_steps(params):
    """Each of 50 steps on rows against the same steps in the term
    algebra: within ``ROUNDING`` of the largest term majorant of the run so
    far, since each step is nonexpansive and adds its own rounding."""
    iv = Interval.from_jsonable(params["interval"])
    ctx, tau = iv, params["tau"]
    real = _realization(params, ctx)
    ref = cli._block_state(params["u0"], "u0")
    step = real._step_map(tau, (ref.u, ref.v), 50)
    x, table, scale = step.basis.rows((ref.u, ref.v)).ravel(), step.basis.values(iv), 0.0
    for _ in range(50):
        y, ends = step(x)
        out, member = composed_block_resolve(real, ref, tau)
        assert member and step.member(ends)[0]
        x, ref = y, out
        state = BlockState(*step.basis.polys(x.reshape(2, -1)))
        scale = max(scale, term_majorant((ref.u, ref.v), iv))
        assert state_l2_norm(state - ref, iv) <= ROUNDING * scale
        # the norm from the basis's node table is the state's norm
        norm = state_l2_norm(state, iv)
        assert _state_norms(x[None], table)[0] == pytest.approx(norm, rel=1e-12, abs=1e-15 * scale)


def _raising_at(step, k: int, error=RootNotFound):
    """``step`` whose ``k``-th step, a call or an ``advance``, raises
    ``error``: by default a boundary solve that does not converge."""
    calls = itertools.count(1)

    def raising(run):
        def stepped(x):
            if next(calls) == k:
                raise error(f"step {k}")
            return run(x)

        return stepped

    stepped = raising(step)
    stepped.advance = raising(step.advance)
    stepped.closing, stepped.member = step.closing, step.member
    return stepped


def _two_runs(steps: int):
    """The step map and the rows of ``BLOCK_EVOLVE``'s ``u0`` and of a second
    state on the same basis, for ``steps`` steps."""
    iv = Interval.from_jsonable(BLOCK_EVOLVE["interval"])
    u0 = cli._block_state(BLOCK_EVOLVE["u0"], "u0")
    v0 = BlockState(u0.v * -0.5, u0.u + ExpPoly.constant(0.25))
    step = _realization(BLOCK_EVOLVE, iv)._step_map(
        BLOCK_EVOLVE["tau"], (u0.u, u0.v, v0.u, v0.v), steps)
    return step, step.basis.rows((u0.u, u0.v, v0.u, v0.v)).reshape(2, -1)


def _growing_runs(steps: int):
    """The step map of M = -2 I and rows from 1 and from 1e140, whose
    second first fails the closing test at step 29."""
    ctx = Interval(0.0, 1.0)
    real = cli._block_realization(ctx, {"kind": "M", "matrix": [[-2.0, 0.0], [0.0, -2.0]]})
    u0, v0 = (BlockState(ExpPoly.exponential(1.0, c), ExpPoly.exponential(1.0, c)) for c in (1.0, 1e140))
    step = real._step_map(0.2, (u0.u, u0.v, v0.u, v0.v), steps)
    return step, step.basis.rows((u0.u, u0.v, v0.u, v0.v)).reshape(2, -1)


def _bits(states: list, row: int = 0) -> str:
    return repr([x[row].tolist() for x in states])


@pytest.mark.parametrize("k", [1, 7])
def test_a_run_of_two_rows_that_raises_goes_on_with_the_first_alone(k):
    step, x = _two_runs(30)
    states, stops = run_rows(_raising_at(step, k), x, 30)
    alone, alone_stops = run_rows(step, x[:1], 30)
    assert stops == [None, k] and alone_stops == [None]
    assert [len(y) for y in states] == [2] * k + [1] * (31 - k)
    assert _bits(states) == _bits(alone)
    # the steps before k are those of the second row alone, too
    second, _ = run_rows(step, x[1:], k - 1)
    assert _bits(states[:k], 1) == _bits(second)


@pytest.mark.parametrize("k", [1, 7])
def test_a_run_of_one_row_that_raises_stops_there(k):
    step, x = _two_runs(30)
    states, stops = run_rows(_raising_at(step, k), x[:1], 30)
    assert stops == [k] and len(states) == k
    assert _bits(states) == _bits(run_rows(step, x[:1], k - 1)[0])


def test_a_step_that_raises_a_fault_propagates(monkeypatch):
    """A step that raises what no step documents, here ``TypeError``, is a
    fault of the step: it leaves ``run_rows`` and ``evolve`` as it is,
    instead of stopping the run."""
    step, x = _two_runs(30)
    with pytest.raises(TypeError, match="step 3"):
        run_rows(_raising_at(step, 3, TypeError), x, 30)

    def advance(self, rows):
        raise TypeError("a fault")

    monkeypatch.setattr(_StepMap, "advance", advance)
    iv = Interval.from_jsonable(BLOCK_EVOLVE["interval"])
    u0 = cli._block_state(BLOCK_EVOLVE["u0"], "u0")
    runs = [
        (_realization(BLOCK_EVOLVE, iv), (u0.u, u0.v)),
        (Realization1D(iv, cli._boundary_function({"kind": "linear", "slope": 0.5}, "g")), (u0.u,)),
    ]
    for real, start in runs:
        with pytest.raises(TypeError, match="a fault"):
            evolve(real, [start], BLOCK_EVOLVE["tau"], 5)


@pytest.mark.parametrize("j", [1, 7, 30])
def test_until_ends_a_run_after_the_step_it_flags(j):
    step, x = _two_runs(30)
    seen = []

    def until(y):
        seen.append(y)
        return len(seen) == j

    states, stops = run_rows(step, x, 30, until)
    assert stops == [None, None] and len(states) == j + 1
    # until reads each step's rows, those the run keeps
    assert all(y is state for y, state in zip(seen, states[1:], strict=True))
    assert _bits(states) == _bits(run_rows(step, x, 30)[0][: j + 1])


def test_a_one_row_run_past_the_degree_cap_stops_at_that_step():
    """The resonant mode of ``g = 0.5 t`` at tau 0.01 gains a degree per
    step: the step past ``DEGREE_CAP`` raises ``ValueError``, which ends
    the run of its one row there instead of escaping."""
    ctx = Interval(0.0, 1.0)
    real = Realization1D(ctx, cli._boundary_function({"kind": "linear", "slope": 0.5}, "g"))
    u0 = ExpPoly.exponential(1.0)
    step = real._step_map(0.01, (u0,), 80)
    states, stops = run_rows(step, step.basis.rows((u0,)).reshape(1, -1), 80)
    assert stops == [len(states)] and 1 < len(states) <= 80
    with pytest.raises(ValueError, match="exceeds cap"):
        step(states[-1][:, None])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the defect's squares overflow
def test_a_non_member_of_the_second_row_leaves_the_first_running_to_its_end():
    """M = -2 I grows each state about 2.8-fold a step: from 1e140 the
    closing test of the second row fails once its defect's squares
    overflow, at step 29, while the first row, from 1, passes all 40. A
    row that fails the test steps on; its stop is read after the loop."""
    step, x = _growing_runs(40)
    states, stops = run_rows(step, x, 40)
    assert stops == [None, 29]
    assert [len(y) for y in states] == [2] * 41
    assert run_rows(step, x[1:], 40)[1] == [29]
    assert _bits(states) == _bits(run_rows(step, x[:1], 40)[0])


def _stepwise_run(step, x: np.ndarray, steps: int, until=None):
    """``run_rows`` as a loop that reads each step's closing endpoint values
    by ``step(x)`` and tests them by ``member`` after every step: a row's
    stop is its first non-member step, or the step at which it raised."""
    states, stops = [x], [None] * len(x)
    while len(states) <= steps and len(x):
        try:
            y, ends = step(x[:, None])
        except (ValueError, ArithmeticError, RootNotFound):
            stops[len(x) - 1] = stops[len(x) - 1] or len(states)
            x = x[:-1]
            continue
        x = y[:, 0]
        states.append(x)
        for r in np.flatnonzero(~step.member(ends)):
            stops[r] = stops[r] or len(states) - 1
        if until is not None and until(x):
            break
    return states, stops


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the defect's squares overflow
@pytest.mark.parametrize("runs, raises_at, until_at, stops", [
    (_two_runs, 7, None, [None, 7]),  # a batch of 2, then of 1
    (_two_runs, None, 12, [None, None]),
    (_growing_runs, None, None, [None, 29]),
    (_growing_runs, 33, None, [None, 29]),  # a non-member, then a raise
    (_growing_runs, 20, None, [None, 20]),  # a raise before the non-member
    (_growing_runs, 33, 35, [None, 29]),
], ids=["raise", "until", "non-member", "non-member-then-raise", "raise-first", "until-after-both"])
def test_the_closing_read_once_per_run_gives_the_stops_of_a_test_per_step(runs, raises_at, until_at, stops):
    """``run_rows`` forms every closing read of a run in one
    ``step.closing`` after the loop; a loop that calls ``step(x)`` and
    ``member`` after every step gives the same states and stops."""
    step, x = runs(40)

    def run(runner):
        seen = []

        def until(y):
            seen.append(y)
            return len(seen) == until_at

        stepped = step if raises_at is None else _raising_at(step, raises_at)
        return runner(stepped, x, 40, None if until_at is None else until)

    states, got = run(run_rows)
    ref_states, want = run(_stepwise_run)
    assert got == want == stops
    assert repr([y.tolist() for y in states]) == repr([y.tolist() for y in ref_states])
    assert len(states) == len(ref_states) == (41 if until_at is None else until_at + 1)


def test_batched_resolves_match_block_resolve():
    """One batch of rows, as the solvability checks make it, against one
    ``block_resolve`` per right-hand side."""
    ctx = Interval(-0.7, 1.3)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((2, 2))
    space = cli.bd_space(ctx)
    real = cli.BlockRealization.from_f(ctx, ContractionMap.from_matrix(space, 0.9 * raw / operator_norm(space, raw)))
    rhss = [cli._random_block_state(rng) for _ in range(12)]
    basis, rows, out = cli._block_resolves(real, rhss, 0.5)
    assert len(out) == len(rhss)
    for rhs, x in zip(rhss, out):
        state = BlockState(*basis.polys(x.reshape(2, -1)))
        ref = block_resolve(real, rhs, 0.5)
        scale = term_majorant((ref.u, ref.v, rhs.u, rhs.v), ctx)
        assert state_l2_norm(state - ref, ctx) <= ROUNDING * scale


def test_batched_resolves_stop_where_block_resolve_raises():
    # S = T = diag(1, 0) is a relation of dimension 3: no resolvent plan
    half = np.diag([1.0, 0.0])
    ctx = Interval(0.0, 1.0)
    real = cli._block_realization(ctx, {"kind": "ST", "S": half.tolist(), "T": half.tolist()})
    rhss = [BlockState(ExpPoly.constant(1.0), ExpPoly.exponential(1.0))]
    with pytest.raises(RootNotFound):
        block_resolve(real, rhss[0], 0.5)
    assert cli._block_resolves(real, rhss, 0.5) == (None, None, ())


@pytest.mark.parametrize("bad", [
    # the defect's squares overflow
    BlockState(ExpPoly.constant(1e300), ExpPoly.exponential(1.0, -1e300)),
    BlockState(ExpPoly.constant(math.nan), ExpPoly.exponential(1.0)),
], ids=["overflow", "nan"])
@np.errstate(over="ignore", invalid="ignore")
def test_batches_stop_where_a_loop_of_block_resolve_stops(bad):
    """Right-hand sides third and fifth of five whose solves are not
    members: the batched resolves keep the two solutions before the first,
    and the same rows stepped one at a time, each a one-step run of
    ``run_rows`` as a trajectory suite steps them, stop at the third and
    the fifth, where a loop of ``block_resolve`` raises."""
    ctx = Interval(0.0, 1.0)
    real = cli._block_realization(ctx, {"kind": "M", "matrix": [[0.0, 0.5], [-0.5, 0.0]]})
    rng = np.random.default_rng(5)
    rhss = [cli._random_block_state(rng) for _ in range(2)] + [bad, cli._random_block_state(rng), bad]
    raised = []
    for n, rhs in enumerate(rhss, 1):
        try:
            block_resolve(real, rhs, 0.5)
        except RootNotFound:
            raised.append(n)
    assert raised == [3, 5]
    assert len(cli._block_resolves(real, rhss, 0.5)[2]) == 2
    polys = [f for rhs in rhss for f in (rhs.u, rhs.v)]
    step = real._step_map(0.5, polys, 1)
    stops = [run_rows(step, row[None], 1)[1][0] for row in step.basis.rows(polys).reshape(len(rhss), -1)]
    assert [n for n, stop in enumerate(stops, 1) if stop == 1] == [3, 5]
