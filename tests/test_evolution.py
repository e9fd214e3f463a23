import math

import numpy as np
import pytest

from maccretive import cli
from maccretive.blockop import (
    BlockRealization,
    BlockState,
    bd_space,
    state_l2_norm,
)
from maccretive.derivative import (
    BoundaryFunction,
    Realization1D,
    accretivity_witness,
    resolve,
)
from maccretive.errors import RootNotFound
from maccretive.evolution import convergence_order, evolve
from maccretive.funcspace import ExpPoly, Interval
from maccretive.impedance1d import impedance_realization
from maccretive.relations import LinearRelation, OperatorPair

CTX = Interval(0.0, 1.0)
UNIT = CTX


def state_dist(x: BlockState, y: BlockState) -> float:
    return state_l2_norm(x - y, UNIT)


def e_t_coefficient(f: ExpPoly) -> float:
    return sum(c[0] for rate, c in f.terms if rate == 1.0)


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------


def test_eigenfunction_benchmark_exact_decay():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    run = evolve(r, [(ExpPoly.exponential(1.0),)], 0.1, 10)
    assert run.stops == [None] and len(run.states) == len(run.norms) == 11
    for k, x in enumerate(run.states):
        (state,) = run.basis.polys(x)
        assert e_t_coefficient(state) == pytest.approx(1.1 ** (-k), abs=1e-12)


def test_zero_initial_state_stays_zero():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    run = evolve(r, [(ExpPoly.zero(),)], 0.2, 5)
    assert run.stops == [None] and run.norms.tolist() == [0.0] * 6


def test_single_step_is_one_resolvent_application():
    r = Realization1D(CTX, BoundaryFunction.linear(0.5))
    u0 = ExpPoly.polynomial([1.0, -0.5])
    run = evolve(r, [(u0,)], 0.4, 1)
    assert run.basis.polys(run.states[1]) == [resolve(r, u0, 0.4)]  # identical stored coefficients


def test_block_eigenpair_benchmark():
    space = bd_space(CTX)
    basis = [np.stack([e, e]) for e in np.eye(2)]
    real = BlockRealization.from_relation(CTX, LinearRelation(space, np.array(basis)))
    u0 = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    tau = 0.25
    run = evolve(real, [(u0.u, u0.v)], tau, 8)
    assert run.stops == [None]
    for k, x in enumerate(run.states):
        scale = (1.0 + tau) ** (-k)
        assert state_dist(BlockState(*run.basis.polys(x.reshape(2, -1))), scale * u0) <= 1e-10 * scale
        assert run.norms[k] == pytest.approx(scale * state_l2_norm(u0, UNIT), rel=1e-10)


def test_evolve_stops_both_runs_at_step_one_without_a_resolvent_plan():
    # S = T = diag(1, 0) is a relation of dimension 3: the plan raises RootNotFound
    half = np.diag([1.0, 0.0])
    real = BlockRealization.from_st(CTX, OperatorPair(bd_space(CTX), half, half))
    u0 = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    v0 = BlockState(ExpPoly.constant(0.5), ExpPoly.zero())
    run = evolve(real, [(u0.u, u0.v), (v0.u, v0.v)], 0.5, 5)
    assert run.basis is None and run.states == [] and run.stops == [1, 1]
    assert run.norms.tolist() == [state_l2_norm(u0, UNIT)]
    assert run.distances.tolist() == [state_dist(u0, v0)]
    assert evolve(real, [(u0.u, u0.v)], 0.5, 5).distances is None


# ----------------------------------------------------------------------
# contraction
# ----------------------------------------------------------------------


def test_evolve_distances_monotone_for_admissible_g():
    rng = np.random.default_rng(0)
    r = Realization1D(CTX, BoundaryFunction.scaled_sin(0.8 * CTX.lipschitz_bound))
    for _ in range(3):
        u0 = ExpPoly(((float(rng.integers(-2, 3)), tuple(rng.uniform(-1, 1, 2))),))
        v0 = ExpPoly(((float(rng.integers(-2, 3)), tuple(rng.uniform(-1, 1, 2))),))
        run = evolve(r, [(u0,), (v0,)], 0.3, 12)
        assert run.stops == [None, None] and len(run.distances) == 13
        assert np.all(run.distances[1:] <= run.distances[:-1] + 1e-8)


def test_evolve_distances_of_identical_states_are_zero():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u0 = ExpPoly.exponential(1.0)
    run = evolve(r, [(u0,), (u0,)], 0.5, 5)
    assert run.distances.tolist() == [0.0] * 6


def test_contraction_violated_for_witness_pair():
    # slope 3 > e on [0,1]: the witness pair must expand for small tau
    g = BoundaryFunction.linear(3.0)
    witness = accretivity_witness(CTX, g, 1.0, 0.0)
    run = evolve(Realization1D(CTX, g), [(witness.u,), (witness.v,)], 0.02, 5)
    assert run.distances[1] > run.distances[0] + 1e-8


# ----------------------------------------------------------------------
# convergence order
# ----------------------------------------------------------------------


def test_convergence_order_first_order_benchmark():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u0 = ExpPoly.exponential(1.0)
    horizon = 1.0
    taus = [0.2, 0.1, 0.05, 0.025]
    order = convergence_order(r, (u0,), taus, horizon)
    assert 0.8 <= order <= 1.2
    exact = ExpPoly.exponential(1.0, math.exp(-horizon))
    order_exact = convergence_order(r, (u0,), taus, horizon, exact_final=(exact,))
    assert 0.8 <= order_exact <= 1.2


def test_halving_tau_roughly_halves_error():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u0 = ExpPoly.exponential(1.0)
    horizon = 1.0
    exact = math.exp(-horizon)

    def endpoint_error(tau: float) -> float:
        state = u0
        for _ in range(round(horizon / tau)):
            state = resolve(r, state, tau)
        # the e^t coefficient: the solve also leaves a roundoff-size e^{-t/tau} term
        return abs(e_t_coefficient(state) - exact)

    e1, e2 = endpoint_error(0.1), endpoint_error(0.05)
    assert e1 / e2 == pytest.approx(2.0, rel=0.25)


def test_convergence_order_degenerate_zero_state():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    assert math.isnan(convergence_order(r, (ExpPoly.zero(),), [0.2, 0.1], 1.0))


def test_convergence_order_validates_inputs():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    with pytest.raises(ValueError):
        convergence_order(r, (ExpPoly.zero(),), [0.1, 0.2], 1.0)
    with pytest.raises(ValueError):
        convergence_order(r, (ExpPoly.zero(),), [0.3], 1.0)


def test_convergence_order_raises_where_a_run_stops():
    # the resonant mode of g = 0.5 t at tau 0.01 passes the degree cap before t = 1
    r = Realization1D(CTX, BoundaryFunction.linear(0.5))
    with pytest.raises(RootNotFound, match="stops at step"):
        convergence_order(r, (ExpPoly.exponential(1.0),), [0.02, 0.01], 1.0)


# ----------------------------------------------------------------------
# wave energy runs
# ----------------------------------------------------------------------

WAVE_U0 = BlockState(ExpPoly.exponential(1.0) + ExpPoly.exponential(-1.0), ExpPoly.constant(0.5))


def test_energy_decays_with_accretive_K():
    for k_matrix in (np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], [[2.0, 0.5], [-0.5, 1.0]]):
        real = impedance_realization(CTX, np.asarray(k_matrix, dtype=float))
        run = evolve(real, [(WAVE_U0.u, WAVE_U0.v)], 0.2, 20)
        assert run.stops == [None]
        energies = run.norms ** 2
        assert np.all(energies[1:] <= energies[:-1] + 1e-8)


def test_energy_increases_with_negated_identity_K():
    real = impedance_realization(CTX, -np.eye(2))
    run = evolve(real, [(WAVE_U0.u, WAVE_U0.v)], 0.2, 50)
    energies = run.norms ** 2
    assert np.any(energies[1:] > energies[:-1] * (1 + 1e-10))


def test_until_ends_an_energy_run_at_the_first_increase():
    """K = -I: ``until``, given the norm of each step's state, ends the run
    after the first step whose energy rises, as ``wave-impedance``'s energy
    run does; the norms it was given are those the run returns."""
    real = impedance_realization(CTX, -np.eye(2))
    start = (WAVE_U0.u, WAVE_U0.v)
    full = evolve(real, [start], 0.2, 50)
    energies = (full.norms ** 2).tolist()
    rise = next(k for k in range(1, len(energies)) if energies[k] > energies[k - 1] * (1 + 1e-10))
    seen = []

    def rose(norm) -> bool:
        seen.append(norm)
        return len(seen) == rise

    run = evolve(real, [start], 0.2, 50, until=rose)
    assert run.stops == [None] and len(run.states) == rise + 1 < len(full.states)
    assert run.norms.tolist() == full.norms[: rise + 1].tolist() and seen == run.norms[1:].tolist()
    assert cli._energy_run(real, WAVE_U0, 0.2, 50, UNIT)[1:] == (rise, None)
