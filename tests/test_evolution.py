import math

import numpy as np
import pytest

from maccretive.blockop import (
    BlockRealization,
    BlockState,
    bd_space,
    block_resolve,
    state_l2_norm,
)
from maccretive.derivative import (
    BoundaryFunction,
    DerivativeContext,
    Realization1D,
    accretivity_witness,
    resolve,
)
from maccretive.errors import ContractionViolated, EvolutionStepFailed
from maccretive.evolution import (
    TERM_COUNT_CAP,
    SchemeConfig,
    contraction_report,
    convergence_order,
    evolve,
    trajectory_postprocessor,
)
from maccretive.funcspace import ExpPoly, Interval, l2_norm
from maccretive.impedance1d import ImpedanceK, impedance_realization
from maccretive.relations import LinearRelation

CTX = DerivativeContext(Interval(0.0, 1.0))
UNIT = CTX.interval


def derivative_resolvent(realization: Realization1D):
    return lambda state, tau: resolve(realization, state, tau)


def block_resolvent(realization: BlockRealization):
    return lambda state, tau: block_resolve(realization, state, tau)


def l2_dist(x: ExpPoly, y: ExpPoly) -> float:
    return l2_norm(x - y, UNIT)


def state_dist(x: BlockState, y: BlockState) -> float:
    return state_l2_norm(x - y, UNIT)


def pair_distances(resolvent, u0, v0, cfg: SchemeConfig, dist) -> list[float]:
    """Distances between the trajectories from ``u0`` and ``v0``."""
    states = evolve(resolvent, u0, cfg, norm=lambda s: 0.0).states
    return contraction_report(resolvent, states, v0, cfg, dist)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.0, steps=1)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, steps=0)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, steps=1, tol=0.0)


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------


def test_eigenfunction_benchmark_exact_decay():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    cfg = SchemeConfig(tau=0.1, steps=10)
    record = evolve(
        derivative_resolvent(r),
        ExpPoly.exponential(1.0),
        cfg,
        norm=lambda s: l2_norm(s, UNIT),
    )
    assert len(record) == 11
    for k, state in enumerate(record.states):
        expected = (1.1) ** (-k)
        coeff = dict()
        for rate, coeffs in state.terms:
            coeff[rate] = coeffs[0]
        assert coeff.get(1.0, 0.0) == pytest.approx(expected, abs=1e-12)
    assert record.timestamps[-1] == pytest.approx(1.0)


def test_zero_initial_state_stays_zero():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    record = evolve(
        derivative_resolvent(r),
        ExpPoly.zero(),
        SchemeConfig(tau=0.2, steps=5),
        norm=lambda s: l2_norm(s, UNIT),
    )
    assert all(n == 0.0 for n in record.norms)


def test_single_step_is_one_resolvent_application():
    r = Realization1D(CTX, BoundaryFunction.linear(0.5))
    u0 = ExpPoly.polynomial([1.0, -0.5])
    record = evolve(
        derivative_resolvent(r),
        u0,
        SchemeConfig(tau=0.4, steps=1),
        norm=lambda s: l2_norm(s, UNIT),
    )
    direct = resolve(r, u0, 0.4)
    assert record.states[1] == direct  # identical stored coefficients


def test_block_eigenpair_benchmark():
    space = bd_space(CTX)
    basis = [np.stack([e, e]) for e in np.eye(2)]
    real = BlockRealization.from_relation(CTX, LinearRelation(space, np.array(basis)))
    u0 = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    tau = 0.25
    record = evolve(
        block_resolvent(real),
        u0,
        SchemeConfig(tau=tau, steps=8),
        norm=lambda s: state_l2_norm(s, UNIT),
    )
    for k, state in enumerate(record.states):
        scale = (1.0 + tau) ** (-k)
        assert state_dist(state, scale * u0) <= 1e-10 * scale


def test_evolution_step_failure_carries_index():
    def broken(state, tau):
        raise RuntimeError("boom")

    with pytest.raises(EvolutionStepFailed) as err:
        evolve(broken, ExpPoly.zero(), SchemeConfig(tau=0.1, steps=3), norm=lambda s: 0.0)
    assert err.value.step == 1


def test_evolution_step_failure_carries_partial_record():
    def fails_at_third(state, tau):
        if state.terms[0][1][0] < 0.85:  # 1/1.1^2 = 0.83 enters step 3
            raise RuntimeError("boom")
        return (1.0 / (1.0 + tau)) * state

    with pytest.raises(EvolutionStepFailed) as err:
        evolve(
            fails_at_third,
            ExpPoly.constant(1.0),
            SchemeConfig(tau=0.1, steps=5),
            norm=lambda s: l2_norm(s, UNIT),
        )
    assert err.value.step == 3
    assert len(err.value.record) == 3  # the initial state and two steps


def stored(state) -> int:
    """The coefficients a state stores, the count the prune is triggered by."""
    polys = (state.u, state.v) if isinstance(state, BlockState) else (state,)
    return sum(len(coeffs) for f in polys for _, coeffs in f.terms)


def noisy(count: int) -> ExpPoly:
    """``1 + t**k`` with ``1e-16 t**j`` between, plus ``e^t`` times a noise
    polynomial: ``count`` stored coefficients, all but two below the prune's
    cut, the first ``count // 2`` of them on rate 0."""
    half = count // 2
    return ExpPoly(((0.0, (1.0, *[1e-16] * (half - 2), 1.0)), (1.0, (1e-16,) * (count - half))))


def test_postprocessor_prunes_only_above_cap():
    clean = trajectory_postprocessor(UNIT)
    small = ExpPoly.polynomial([1.0, 1e-16])
    assert clean(small) is small
    big = noisy(TERM_COUNT_CAP + 3)
    cleaned = clean(big)
    assert stored(cleaned) < stored(big)
    assert cleaned == ExpPoly(((0.0, (1.0, *[0.0] * (stored(big) // 2 - 2), 1.0)),))
    assert l2_norm(cleaned - big, UNIT) <= 1e-12


def test_postprocessor_keeps_a_state_at_the_cap_as_it_is():
    at_cap = noisy(TERM_COUNT_CAP)
    assert stored(at_cap) == TERM_COUNT_CAP
    assert trajectory_postprocessor(UNIT)(at_cap) is at_cap
    assert stored(trajectory_postprocessor(UNIT)(noisy(TERM_COUNT_CAP + 1))) == TERM_COUNT_CAP // 2


def test_postprocessor_on_zero_states():
    clean, zero = trajectory_postprocessor(UNIT), ExpPoly.zero()
    assert clean(zero) is zero
    state = BlockState(zero, zero)
    assert clean(state) is state
    # a zero component leaves the other's count and cut as they are
    big = noisy(TERM_COUNT_CAP + 3)
    for state in (BlockState(big, zero), BlockState(zero, big)):
        cleaned = clean(state)
        assert cleaned.u == (clean(big) if state.u is big else zero)
        assert cleaned.v == (clean(big) if state.v is big else zero)


# ----------------------------------------------------------------------
# contraction diagnostics
# ----------------------------------------------------------------------


def test_contraction_report_monotone_for_admissible_g():
    rng = np.random.default_rng(0)
    r = Realization1D(CTX, BoundaryFunction.scaled_sin(0.8 * CTX.lipschitz_bound))
    for _ in range(3):
        u0 = ExpPoly(((float(rng.integers(-2, 3)), tuple(rng.uniform(-1, 1, 2))),))
        v0 = ExpPoly(((float(rng.integers(-2, 3)), tuple(rng.uniform(-1, 1, 2))),))
        distances = pair_distances(
            derivative_resolvent(r), u0, v0, SchemeConfig(tau=0.3, steps=12), l2_dist
        )
        assert all(b <= a + 1e-8 for a, b in zip(distances, distances[1:]))


def test_contraction_report_identical_states():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u0 = ExpPoly.exponential(1.0)
    distances = pair_distances(
        derivative_resolvent(r), u0, u0, SchemeConfig(tau=0.5, steps=5), l2_dist
    )
    assert all(d <= 1e-13 for d in distances)


def test_contraction_violated_for_witness_pair():
    # slope 3 > e on [0,1]: the witness pair must expand for small tau
    g = BoundaryFunction.linear(3.0)
    witness = accretivity_witness(CTX, g, 1.0, 0.0)
    r = Realization1D(CTX, g)
    with pytest.raises(ContractionViolated) as err:
        pair_distances(
            derivative_resolvent(r),
            witness.u,
            witness.v,
            SchemeConfig(tau=0.02, steps=5),
            l2_dist,
        )
    assert err.value.step == 1


# ----------------------------------------------------------------------
# convergence order
# ----------------------------------------------------------------------


def test_convergence_order_first_order_benchmark():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u0 = ExpPoly.exponential(1.0)
    horizon = 1.0
    taus = [0.2, 0.1, 0.05, 0.025]
    order = convergence_order(derivative_resolvent(r), u0, taus, horizon, l2_dist)
    assert 0.8 <= order <= 1.2
    exact = ExpPoly.exponential(1.0, math.exp(-horizon))
    order_exact = convergence_order(
        derivative_resolvent(r), u0, taus, horizon, l2_dist, exact_final=exact
    )
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
        coeff = sum(c[0] for rate, c in state.terms if rate == 1.0)
        return abs(coeff - exact)

    e1, e2 = endpoint_error(0.1), endpoint_error(0.05)
    assert e1 / e2 == pytest.approx(2.0, rel=0.25)


def test_convergence_order_degenerate_zero_state():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    order = convergence_order(
        derivative_resolvent(r), ExpPoly.zero(), [0.2, 0.1], 1.0, l2_dist
    )
    assert math.isnan(order)
    record = evolve(
        derivative_resolvent(r),
        ExpPoly.zero(),
        SchemeConfig(tau=0.1, steps=5),
        norm=lambda s: l2_norm(s, UNIT),
    )
    assert all(n == 0.0 for n in record.norms)


def test_convergence_order_validates_inputs():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    with pytest.raises(ValueError):
        convergence_order(derivative_resolvent(r), ExpPoly.zero(), [0.1, 0.2], 1.0, l2_dist)
    with pytest.raises(ValueError):
        convergence_order(derivative_resolvent(r), ExpPoly.zero(), [0.3], 1.0, l2_dist)


# ----------------------------------------------------------------------
# wave energy runs
# ----------------------------------------------------------------------


def wave_energy_history(
    k_matrix, u0: BlockState, tau: float, steps: int, stop_on_increase: bool = False
) -> list[float]:
    """Stepwise energies; optionally stops at the first certified increase."""
    real = impedance_realization(CTX, ImpedanceK.from_matrix(k_matrix))
    resolvent = block_resolvent(real)
    clean = trajectory_postprocessor(UNIT)
    state = u0
    energies = [state_l2_norm(state, UNIT) ** 2]
    for _ in range(steps):
        state = clean(resolvent(state, tau))
        energies.append(state_l2_norm(state, UNIT) ** 2)
        if stop_on_increase and energies[-1] > energies[-2] * (1 + 1e-10):
            break
    return energies


def test_energy_decays_with_accretive_K():
    u0 = BlockState(
        ExpPoly.exponential(1.0) + ExpPoly.exponential(-1.0),
        ExpPoly.constant(0.5),
    )
    for k_matrix in (np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], [[2.0, 0.5], [-0.5, 1.0]]):
        energies = wave_energy_history(k_matrix, u0, tau=0.2, steps=20)
        assert all(b <= a + 1e-8 for a, b in zip(energies, energies[1:]))


def test_energy_increases_with_negated_identity_K():
    u0 = BlockState(
        ExpPoly.exponential(1.0) + ExpPoly.exponential(-1.0),
        ExpPoly.constant(0.5),
    )
    energies = wave_energy_history(-np.eye(2), u0, tau=0.2, steps=50, stop_on_increase=True)
    grew = [k for k in range(len(energies) - 1) if energies[k + 1] > energies[k] * (1 + 1e-10)]
    assert grew and grew[0] < 50
