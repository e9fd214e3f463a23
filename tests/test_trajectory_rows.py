"""Trajectories as coefficient rows over one basis.

The CLI steps implicit-Euler trajectories as rows over one ``ExpBasis``
(``_StepMap``); these tests compare such runs and the batched resolvents
with the term algebra they replaced (``composed_step``).
"""

import math

import numpy as np
import pytest

from composed_step import ROUNDING, composed_block_resolve, term_majorant

from maccretive import cli
from maccretive.blockop import BlockState, block_resolve, state_l2_norm
from maccretive.derivative import DerivativeContext
from maccretive.errors import RootNotFound
from maccretive.evolution import TERM_COUNT_CAP, _row_postprocessor, trajectory_postprocessor
from maccretive.funcspace import ExpBasis, ExpPoly, Interval, _state_norms
from maccretive.impedance1d import ImpedanceK, impedance_realization
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


def _realization(params: dict, ctx: DerivativeContext):
    if "K" in params:
        return impedance_realization(ctx, ImpedanceK.from_matrix(params["K"]))
    return cli._block_realization(ctx, params["realization"])


@pytest.mark.parametrize("params", [BLOCK_EVOLVE, ACCRETIVE_WAVE], ids=["evolve-block", "wave-accretive"])
def test_50_vector_steps_match_50_composed_steps(params):
    """Each of 50 pruned steps on rows against the same steps in the term
    algebra: within ``ROUNDING`` of the largest term majorant of the run so
    far, since each step is nonexpansive and adds its own rounding."""
    iv = Interval.from_jsonable(params["interval"])
    ctx, tau = DerivativeContext(iv), params["tau"]
    real = _realization(params, ctx)
    ref = cli._block_state(params["u0"], "u0")
    step = real._step_map(tau, (ref.u, ref.v), 50)
    clean_rows, clean = _row_postprocessor(iv, step.basis), trajectory_postprocessor(iv)
    x, table, scale = step.basis.rows((ref.u, ref.v)).ravel(), step.basis.values(iv), 0.0
    for _ in range(50):
        y, ends = step(x)
        out, member = composed_block_resolve(real, ref, tau)
        assert member and step.member(ends)[0]
        x, ref = clean_rows(y), clean(out)
        state = BlockState(*step.basis.polys(x.reshape(2, -1)))
        scale = max(scale, term_majorant((ref.u, ref.v), iv))
        assert state_l2_norm(state - ref, iv) <= ROUNDING * scale
        # the norm from the basis's node table is the state's norm
        norm = state_l2_norm(state, iv)
        assert _state_norms(x[None], table)[0] == pytest.approx(norm, rel=1e-12, abs=1e-15 * scale)


def test_row_postprocessor_cleans_each_state_of_a_batch_alone():
    """A batch of two states, one over ``TERM_COUNT_CAP`` and one under it,
    is cleaned to the bits of cleaning each state alone: the count and the
    pruning are each state's own."""
    iv = Interval(-0.4, 1.7)
    basis = ExpBasis.merging({-2.0: 30, 0.0: 20})
    rng = np.random.default_rng(11)
    over = rng.standard_normal(2 * basis.dim) * 10.0 ** rng.uniform(-30, 0, 2 * basis.dim)
    under = np.zeros(2 * basis.dim)
    under[: 30 + 10] = over[:40]  # 40 terms of u, small ones among them, and none of v
    clean = _row_postprocessor(iv, basis)
    assert (over != 0).sum() > TERM_COUNT_CAP >= (under != 0).sum()
    batch = clean(np.stack([over, under]))
    alone = np.stack([clean(over), clean(under)])
    assert repr(batch.tolist()) == repr(alone.tolist())
    assert (batch[0] == 0).any() and batch[1].tolist() == under.tolist()


def test_batched_resolves_match_block_resolve():
    """One batch of rows, as the solvability checks make it, against one
    ``block_resolve`` per right-hand side."""
    ctx = DerivativeContext(Interval(-0.7, 1.3))
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
        scale = term_majorant((ref.u, ref.v, rhs.u, rhs.v), ctx.interval)
        assert state_l2_norm(state - ref, ctx.interval) <= ROUNDING * scale


def test_batched_resolves_stop_where_block_resolve_raises():
    # S = T = diag(1, 0) is a relation of dimension 3: no resolvent plan
    half = np.diag([1.0, 0.0])
    ctx = DerivativeContext(Interval(0.0, 1.0))
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
    and the closing tests of the same rows stepped one at a time, read as a
    trajectory suite reads them, first fail at the third, where a loop of
    ``block_resolve`` raises first."""
    ctx = DerivativeContext(Interval(0.0, 1.0))
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
    ends = [step(row)[1] for row in step.basis.rows(polys).reshape(len(rhss), -1)]
    assert cli._first_false(step.member(np.vstack(ends))) == 3
