import math

import numpy as np
import pytest

from maccretive.blockop import (
    BlockState,
    apply_block,
    bd_exppoly,
    bd_project,
    block_resolve,
    g_bd,
    state_l2_inner,
    state_l2_norm,
)
from maccretive.derivative import DerivativeContext
from maccretive.errors import RootNotFound
from maccretive.funcspace import ExpPoly, Interval, differentiate, graph_norm, l2_inner
from maccretive.impedance1d import (
    ImpedanceK,
    gamma0,
    gammaN,
    impedance_map_matrix,
    impedance_realization,
    is_K_accretive,
    kappa,
    kappa_adjoint,
    kappa_adjoint_matrix,
    trace_norm,
)

E = math.e
CTX = DerivativeContext(Interval(0.0, 1.0))
UNIT = CTX.interval


def random_poly(rng: np.random.Generator) -> ExpPoly:
    terms = []
    for _ in range(rng.integers(1, 3)):
        mu = float(rng.integers(-2, 3))
        deg = int(rng.integers(0, 3))
        terms.append((mu, tuple(rng.uniform(-1.5, 1.5, size=deg + 1))))
    return ExpPoly(tuple(terms))


def member_state(ctx, k: ImpedanceK, rng: np.random.Generator) -> BlockState:
    """Member built directly from the boundary-data description."""
    w = impedance_map_matrix(ctx, k)
    u = random_poly(rng)
    u_bd = bd_project(ctx, u)
    phi_coeffs = w @ u_bd
    phi_bd = [phi_coeffs[0], -phi_coeffs[1]]  # undo g_bd
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    phi = bd_exppoly(phi_bd) + float(rng.uniform(-1, 1)) * bump
    return BlockState(u, phi)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def test_gamma0_examples():
    at_a, at_b = gamma0(CTX, ExpPoly.exponential(1.0))
    assert at_a == pytest.approx(1.0)
    assert at_b == pytest.approx(E)
    one = gamma0(CTX, ExpPoly.constant(1.0))
    assert tuple(one) == (1.0, 1.0)
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    z = gamma0(CTX, bump)
    assert abs(z[0]) <= 1e-15 and abs(z[1]) <= 1e-15


def test_gammaN_signs_and_kernel():
    tv = gammaN(CTX, ExpPoly.constant(1.0))
    assert tuple(tv) == (-1.0, 1.0)
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    z = gammaN(CTX, bump)
    assert abs(z[0]) <= 1e-15 and abs(z[1]) <= 1e-15


def test_green_identity():
    rng = np.random.default_rng(0)
    for _ in range(30):
        f = random_poly(rng)
        phi = random_poly(rng)
        lhs = float(gammaN(CTX, phi) @ gamma0(CTX, f))
        rhs = l2_inner(phi, differentiate(f), UNIT) + l2_inner(
            differentiate(phi), f, UNIT
        )
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))


# ----------------------------------------------------------------------
# kappa and its adjoint
# ----------------------------------------------------------------------


def test_kappa_preserves_endpoints():
    proj = bd_project(CTX, ExpPoly.constant(1.0))
    at_a, at_b = kappa(CTX, proj)
    assert at_a == pytest.approx(1.0, abs=1e-12)
    assert at_b == pytest.approx(1.0, abs=1e-12)


def test_kappa_adjoint_identity():
    rng = np.random.default_rng(1)
    from maccretive.blockop import bd_space

    space = bd_space(CTX)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        lhs = float(kappa(CTX, x) @ y)
        rhs = float(x @ space.gram @ kappa_adjoint(CTX, y))
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1 + abs(lhs)))


def test_kappa_adjoint_of_zero():
    out = kappa_adjoint(CTX, np.zeros(2))
    assert out == pytest.approx([0.0, 0.0])


def test_trace_norm_matches_h1_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.uniform(-2, 2, size=2)
        tv = kappa(CTX, w)
        assert trace_norm(CTX, tv) == pytest.approx(
            graph_norm(bd_exppoly(w), UNIT), rel=1e-11
        )


# ----------------------------------------------------------------------
# K accretivity
# ----------------------------------------------------------------------


def test_is_K_accretive_examples():
    assert is_K_accretive(ImpedanceK.from_matrix(np.eye(2)))
    assert not is_K_accretive(ImpedanceK.from_matrix([[1.0, 3.0], [0.0, 1.0]]))
    assert is_K_accretive(ImpedanceK.from_matrix([[1.0, 1.0], [-1.0, 1.0]]))
    assert is_K_accretive(ImpedanceK.from_matrix([[0.0, 1.0], [-1.0, 0.0]]))
    assert not is_K_accretive(ImpedanceK.from_matrix(-np.eye(2)))


# ----------------------------------------------------------------------
# realizations
# ----------------------------------------------------------------------


def test_zero_K_is_neumann():
    real = impedance_realization(CTX, ImpedanceK.from_matrix(np.zeros((2, 2))))
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    assert real.domain_test(BlockState(ExpPoly.exponential(2.0), bump))
    assert not real.domain_test(BlockState(bump, ExpPoly.constant(1.0)))
    assert real.is_m_accretive


def test_skew_K_is_m_accretive():
    real = impedance_realization(CTX, ImpedanceK.from_matrix([[0.0, 1.0], [-1.0, 0.0]]))
    assert real.is_m_accretive


def test_negated_identity_K_not_m_accretive():
    k = ImpedanceK.from_matrix(-np.eye(2))
    assert not is_K_accretive(k)
    real = impedance_realization(CTX, k)
    assert not real.is_m_accretive


def test_membership_matches_trace_condition():
    rng = np.random.default_rng(3)
    k = ImpedanceK.from_matrix([[1.0, 0.3], [-0.2, 0.8]])
    real = impedance_realization(CTX, k)
    for _ in range(10):
        s = member_state(CTX, k, rng)
        defect = k.matrix @ gamma0(CTX, s.u) - gammaN(CTX, s.v)
        assert np.abs(defect).max() <= 1e-9
        assert real.domain_test(s, tol=1e-8)


def test_energy_identity_on_members():
    rng = np.random.default_rng(4)
    for k_mat in ([[1.0, 0.0], [0.0, 1.0]], [[0.5, 1.0], [-1.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]):
        k = ImpedanceK.from_matrix(k_mat)
        for _ in range(10):
            s = member_state(CTX, k, rng)
            lhs = state_l2_inner(apply_block(s), s, UNIT)
            tr = gamma0(CTX, s.u)
            rhs = float((k.matrix @ tr) @ tr)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_trace_and_boundary_data_defects_agree():
    # K gamma0 u - gammaN phi, lifted by kappa^*, is the boundary-data
    # defect W u_BD - Dphi_BD of the stored relation
    rng = np.random.default_rng(6)
    for ctx in (CTX, DerivativeContext(Interval(-2.0, -0.5))):
        adj = kappa_adjoint_matrix(ctx)
        for k_mat in (np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], -np.eye(2), [[0.5, 2.0], [0.0, -1.0]]):
            k = ImpedanceK.from_matrix(k_mat)
            w = impedance_map_matrix(ctx, k)
            real = impedance_realization(ctx, k)
            for _ in range(20):
                u, phi = random_poly(rng), random_poly(rng)
                trace_defect = k.matrix @ gamma0(ctx, u) - gammaN(ctx, phi)
                lifted = adj @ trace_defect
                bd_defect = w @ bd_project(ctx, u) - g_bd(bd_project(ctx, phi))
                assert np.abs(lifted).max() > 1e-6
                assert not real.domain_test(BlockState(u, phi))
                assert np.abs(bd_defect - lifted).max() <= 1e-10 * (1 + np.abs(lifted).max())


def test_equivalence_accretive_K_sampled():
    rng = np.random.default_rng(5)
    agreements = 0
    for _ in range(50):
        k = ImpedanceK.from_matrix(rng.standard_normal((2, 2)))
        real = impedance_realization(CTX, k)
        verdict_k = is_K_accretive(k)

        # (a) sampled accretivity over member differences
        accretive_sampled = True
        for _ in range(40):
            s1 = member_state(CTX, k, rng)
            s2 = member_state(CTX, k, rng)
            diff = s1 - s2
            pairing = state_l2_inner(apply_block(diff), diff, UNIT)
            if pairing < -1e-9 * (1.0 + state_l2_norm(diff, UNIT) ** 2):
                accretive_sampled = False
                break

        # (b) resolvent solvability with nonexpansive differences
        solvable = True
        outs = []
        try:
            for _ in range(6):
                rhs = BlockState(random_poly(rng), random_poly(rng))
                outs.append((rhs, block_resolve(real, rhs, 0.6)))
        except RootNotFound:
            solvable = False
        if solvable:
            for i in range(len(outs)):
                for j in range(i + 1, len(outs)):
                    gap_in = state_l2_norm(outs[i][0] - outs[j][0], UNIT)
                    gap_out = state_l2_norm(outs[i][1] - outs[j][1], UNIT)
                    if gap_out > gap_in + 1e-9:
                        solvable = False

        assert verdict_k == (accretive_sampled and solvable)
        assert verdict_k == real.is_m_accretive
        agreements += 1
    assert agreements == 50
