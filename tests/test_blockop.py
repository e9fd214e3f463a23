import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_step import (
    ROUNDING,
    composed_block_resolve,
    horner,
    particular_second_order,
    poly_integral,
    term_majorant,
)
from contraction_rates import a_priori_calls, sinh_ratio

from maccretive import blockop
from maccretive.blockop import (
    BlockRealization,
    BlockState,
    apply_block,
    bd_exppoly,
    bd_project,
    bd_space,
    block_resolve,
    boundary_data,
    g_bd,
    lift_f_to_h,
    pi1_block,
    pi_minus1_block,
    reduce_h_to_f,
    st_domain,
    state_graph_inner,
    state_l2_norm,
)
from maccretive.derivative import _mode_coeffs
from maccretive.errors import RootNotFound
from maccretive.funcspace import (
    RATE_MERGE_TOL,
    ExpPoly,
    Interval,
    _first_order_coeffs,
    absorb_rate_shift,
    differentiate,
    graph_inner,
    l2_norm,
)
from maccretive.impedance1d import impedance_realization
from maccretive.relations import (
    ContractionMap,
    InnerSpace,
    LinearRelation,
    OperatorPair,
    cayley_to_relation,
    operator_norm,
    relation_to_cayley,
    st_criterion,
)

E = math.e
CTX = Interval(0.0, 1.0)
UNIT = CTX
SPACE = bd_space(CTX)
IMPEDANCE_I = ((1.0, 0.0), (0.0, 1.0))
IMPEDANCE_SKEW = ((1.0, 0.3), (-0.3, 1.0))


def identity_relation() -> LinearRelation:
    basis = [np.stack([e, e]) for e in np.eye(2)]
    return LinearRelation(SPACE, np.array(basis))


def random_state(rng: np.random.Generator) -> BlockState:
    def poly():
        terms = []
        for _ in range(rng.integers(1, 3)):
            mu = float(rng.integers(-2, 3))
            deg = int(rng.integers(0, 3))
            terms.append((mu, tuple(rng.uniform(-1.5, 1.5, size=deg + 1))))
        return ExpPoly(tuple(terms))

    return BlockState(poly(), poly())


def random_contraction(rng: np.random.Generator, shrink: float = 0.95) -> ContractionMap:
    raw = rng.standard_normal((2, 2))
    from maccretive.relations import operator_norm

    norm = operator_norm(SPACE, raw)
    return ContractionMap.from_matrix(SPACE, raw / norm * shrink * rng.uniform(0.1, 1.0))


# ----------------------------------------------------------------------
# BD space
# ----------------------------------------------------------------------


def test_bd_project_kernel_and_constant():
    assert bd_project(CTX, ExpPoly.exponential(1.0)) == pytest.approx([1.0, 0.0], abs=1e-13)
    cp, cm = bd_project(CTX, ExpPoly.constant(1.0))
    assert cp == pytest.approx(1.0 / (E + 1.0), abs=1e-12)
    assert cm == pytest.approx(E / (E + 1.0), abs=1e-12)


def test_bd_project_residual_vanishes_at_endpoints():
    u = ExpPoly(((2.0, (1.0, -0.5)), (0.0, (0.7, 0.2, 0.1))))
    res = u - bd_exppoly(bd_project(CTX, u))
    assert abs(res(0.0)) <= 1e-12
    assert abs(res(1.0)) <= 1e-12


def test_bd_project_of_endpoint_free_function_is_zero():
    u = ExpPoly.polynomial([0.0, 1.0]) * (ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0]))
    proj = bd_project(CTX, u)
    assert proj == pytest.approx([0.0, 0.0], abs=1e-13)


def test_bd_project_matches_graph_gram_solve():
    # reference: the 2x2 H1 Gram system against e^t and e^{-t}
    rng = np.random.default_rng(13)
    kernel = (ExpPoly.exponential(1.0), ExpPoly.exponential(-1.0))
    for a, b in ((0.0, 1.0), (0.4, 2.1), (-0.8, 0.6), (-1.5, 0.2), (-2.3, -0.4)):
        ctx = Interval(a, b)
        gram = np.array([[graph_inner(p, q, ctx) for q in kernel] for p in kernel])
        for _ in range(200):
            u = random_state(rng).u
            rhs = [graph_inner(u, q, ctx) for q in kernel]
            expected = np.linalg.solve(gram, rhs)
            got = bd_project(ctx, u)
            assert np.abs(got - expected).max() <= 1e-11 * (1.0 + np.abs(expected).max())


def test_bd_space_is_its_closed_form_diagonal():
    # the Cholesky factor sqrt(diag) is numpy's, bit for bit, where numpy's
    # eigenvalue test accepts the Gram matrix; far from 0 it does not
    rng = np.random.default_rng(21)
    for _ in range(500):
        a = float(rng.uniform(-6.0, 6.0))
        ctx = Interval(a, a + float(rng.uniform(1e-3, 6.0)))
        space = bd_space(ctx)
        gram = np.diag([ctx.denom_plus, ctx.denom_minus])
        assert np.array_equal(space.gram, gram)
        assert np.array_equal(space._chol, np.linalg.cholesky(gram))
    for a, b in ((7.0, 8.0), (-8.0, -6.0), (0.0, 15.0)):
        ctx = Interval(a, b)
        with pytest.raises(ValueError, match="not positive definite"):
            InnerSpace(2, np.diag([ctx.denom_plus, ctx.denom_minus]))
        chol = bd_space(ctx)._chol
        assert (chol @ chol.T).ravel() == pytest.approx(bd_space(ctx).gram.ravel(), rel=1e-15)


def test_bd_vector_norm_is_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cp, cm = rng.uniform(-2, 2, size=2)
        w = np.array([cp, cm])
        expected = math.sqrt(cp**2 * CTX.denom_plus + cm**2 * CTX.denom_minus)
        assert SPACE.norm(w) == pytest.approx(expected, rel=1e-14)
        # matches the H1 norm of the function it represents
        from maccretive.funcspace import graph_norm

        assert SPACE.norm(w) == pytest.approx(graph_norm(bd_exppoly(w), UNIT), rel=1e-12)


def test_g_bd_and_d_bd():
    # g_bd is its own inverse: it also maps v_BD to Dv_BD
    x = np.array([1.0, 0.0])
    assert g_bd(x) == pytest.approx([1.0, 0.0])
    y = np.array([0.0, 1.0])
    assert g_bd(y) == pytest.approx([0.0, -1.0])
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = rng.uniform(-2, 2, size=2)
        assert np.array_equal(g_bd(g_bd(w)), w)
        assert SPACE.norm(g_bd(w)) == pytest.approx(SPACE.norm(w), rel=1e-12)
    # g_bd really is differentiation of the represented function
    w = np.array([0.3, -1.2])
    assert l2_norm(bd_exppoly(g_bd(w)) - differentiate(bd_exppoly(w)), UNIT) <= 1e-14


# ----------------------------------------------------------------------
# block projections
# ----------------------------------------------------------------------


def test_pi1_fixes_plus_kernel_pairs():
    s = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    p1 = pi1_block(CTX, s)
    pm = pi_minus1_block(CTX, s)
    assert state_l2_norm(p1 - s, UNIT) <= 1e-12
    assert state_l2_norm(pm, UNIT) <= 1e-12

    s2 = BlockState(ExpPoly.exponential(-1.0), -1.0 * ExpPoly.exponential(-1.0))
    assert state_l2_norm(pi1_block(CTX, s2) - s2, UNIT) <= 1e-12
    assert state_l2_norm(pi_minus1_block(CTX, s2), UNIT) <= 1e-12


def test_projections_vanish_without_boundary_data():
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    s = BlockState(bump, 2.0 * bump)
    assert state_l2_norm(pi1_block(CTX, s), UNIT) <= 1e-12
    assert state_l2_norm(pi_minus1_block(CTX, s), UNIT) <= 1e-12


def test_pi1_output_in_plus_kernel():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = random_state(rng)
        p1 = pi1_block(CTX, s)
        # second component is the derivative of the first
        assert l2_norm(p1.v - differentiate(p1.u), UNIT) <= 1e-11
        pm = pi_minus1_block(CTX, s)
        assert l2_norm(pm.v + differentiate(pm.u), UNIT) <= 1e-11


def test_block_inner_product_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = random_state(rng)
        lhs = state_l2_inner_apply(s)
        p1 = pi1_block(CTX, s)
        pm = pi_minus1_block(CTX, s)
        rhs = state_l2_norm(p1, UNIT) ** 2 - state_l2_norm(pm, UNIT) ** 2
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def state_l2_inner_apply(s: BlockState) -> float:
    from maccretive.blockop import state_l2_inner

    return state_l2_inner(apply_block(s), s, UNIT)


def test_block_projections_graph_orthogonal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = random_state(rng)
        p1 = pi1_block(CTX, s)
        pm = pi_minus1_block(CTX, s)
        p0 = s - p1 - pm
        scale = 1.0 + state_graph_inner(s, s, UNIT)
        assert abs(state_graph_inner(p1, pm, UNIT)) <= 1e-10 * scale
        assert abs(state_graph_inner(p0, p1, UNIT)) <= 1e-10 * scale
        assert abs(state_graph_inner(p0, pm, UNIT)) <= 1e-10 * scale


# ----------------------------------------------------------------------
# h <-> f
# ----------------------------------------------------------------------


def test_reduce_lift_roundtrip():
    rng = np.random.default_rng(5)
    f = random_contraction(rng)
    h = lift_f_to_h(CTX, f)
    back = reduce_h_to_f(CTX, h, f.lipschitz_cert)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        assert back(x) == pytest.approx(f(x), abs=1e-12)


def test_lift_zero_and_identity():
    zero = ContractionMap.zero(SPACE)
    h0 = lift_f_to_h(CTX, zero)
    s = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    assert state_l2_norm(h0(s), UNIT) <= 1e-13
    ident = ContractionMap.identity(SPACE)
    h1 = lift_f_to_h(CTX, ident)
    out = h1(s)
    assert l2_norm(out.u - s.u, UNIT) <= 1e-12
    assert l2_norm(out.v + differentiate(s.u), UNIT) <= 1e-12


def test_lipschitz_seminorm_transfer():
    # |h|_Lip in the product L2 norm equals |f|_Lip in the BD norm
    rng = np.random.default_rng(6)
    f = random_contraction(rng)
    h = lift_f_to_h(CTX, f)
    worst = 0.0
    for _ in range(1000):
        w1 = rng.uniform(-2, 2, size=2)
        w2 = rng.uniform(-2, 2, size=2)
        s1 = BlockState(bd_exppoly(w1), differentiate(bd_exppoly(w1)))
        s2 = BlockState(bd_exppoly(w2), differentiate(bd_exppoly(w2)))
        num = state_l2_norm(h(s1) - h(s2), UNIT)
        den = state_l2_norm(s1 - s2, UNIT)
        if den > 1e-9:
            worst = max(worst, num / den)
        # the domain norm identity behind the transfer
        assert den == pytest.approx(SPACE.norm(w1 - w2), rel=1e-9)
    from maccretive.relations import operator_norm

    assert worst <= operator_norm(SPACE, f.matrix) + 1e-9


# ----------------------------------------------------------------------
# realizations: trivial boundary conditions
# ----------------------------------------------------------------------


def test_dirichlet_from_negated_identity():
    real = BlockRealization.from_f(CTX, ContractionMap.identity(SPACE, scale=-1.0))
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    assert real.domain_test(BlockState(bump, ExpPoly.exponential(2.0)))
    assert not real.domain_test(
        BlockState(ExpPoly.constant(1.0), ExpPoly.exponential(2.0))
    )


def test_f_of_an_m_accretive_relation_has_the_theorems_certificate():
    # M = diag(-1e-11, 1) is m-accretive within SPECTRAL_RTOL; the operator
    # norm of its Cayley map measures 1 + 2e-11, which a certificate measured
    # again would reject as no contraction
    matrix = np.diag([-1e-11, 1.0])
    basis = np.array([np.stack([e, matrix @ e]) for e in np.eye(2)])
    real = BlockRealization.from_relation(CTX, LinearRelation(SPACE, basis))
    u, v = basis[:, 0, :].T, basis[:, 1, :].T
    cayley = 2.0 * u @ np.linalg.inv(u + v) - np.eye(2)
    assert real.is_m_accretive and operator_norm(SPACE, cayley) > 1.0 + 1e-12
    f = real.f
    assert f.lipschitz_cert == 1.0
    np.testing.assert_allclose(f.matrix, cayley, rtol=0.0, atol=1e-15)
    assert list(real.domain_test_many([])) == ["f", "relation", "h"]


def test_neumann_from_identity():
    real = BlockRealization.from_f(CTX, ContractionMap.identity(SPACE))
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    assert real.domain_test(BlockState(ExpPoly.constant(1.0), bump))
    assert not real.domain_test(
        BlockState(ExpPoly.constant(1.0), ExpPoly.exponential(2.0))
    )


def test_zero_f_membership_example():
    real = BlockRealization.from_f(CTX, ContractionMap.zero(SPACE))
    s = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    assert real.domain_test(s)


def test_three_derived_views_agree():
    rng = np.random.default_rng(7)
    for _ in range(10):
        real = BlockRealization.from_f(CTX, random_contraction(rng))
        assert real.relation is not None
        for _ in range(20):
            s = random_state(rng)
            views = real.domain_test_all(s)
            assert set(views) == {"f", "relation", "h"}
            assert len(set(views.values())) == 1
        member = block_resolve(real, random_state(rng), 0.8)
        views = real.domain_test_all(member, tol=1e-7)
        assert all(views.values())


def bd_member(real: BlockRealization, rng: np.random.Generator) -> BlockState:
    """Member built from the relation's basis, plus endpoint-free parts."""
    basis = real.relation.basis
    c = rng.uniform(-2.0, 2.0, size=len(basis))
    u_bd = c @ basis[:, 0, :]
    dv_bd = c @ basis[:, 1, :]
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    return BlockState(
        bd_exppoly(u_bd) + float(rng.uniform(-1, 1)) * bump,
        bd_exppoly(g_bd(dv_bd)) + float(rng.uniform(-1, 1)) * bump,
    )


def test_views_agree_for_relation_and_st_realizations():
    rng = np.random.default_rng(14)
    seen = {True: 0, False: 0}
    for _ in range(40):
        if rng.uniform() < 0.5:
            m = rng.standard_normal((2, 2))
            basis = np.array([np.stack([e, m @ e]) for e in np.eye(2)])
            real = BlockRealization.from_relation(CTX, LinearRelation(SPACE, basis))
        else:
            pair = OperatorPair(SPACE, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            real = BlockRealization.from_st(CTX, pair)
        accretive = real.is_m_accretive
        seen[accretive] += 1
        expected = {"f", "relation", "h"} if accretive else {"relation"}
        for _ in range(20):
            views = real.domain_test_all(random_state(rng))
            assert set(views) == expected
            assert len(set(views.values())) == 1
        for _ in range(5):
            views = real.domain_test_all(bd_member(real, rng))
            assert set(views) == expected and all(views.values())
    assert seen[True] > 0 and seen[False] > 0


# Reference: the per-state views built from boundary data one state at a
# time, as the membership tests computed them before they became matrices
# on endpoint values. Kept here to pin the batched kernel to the same
# verdicts.


def _ref_perp(relation: LinearRelation) -> np.ndarray:
    space = relation.space
    k = relation.dim
    eye = np.eye(2 * space.dim)
    if k == 0:
        return eye
    w = np.kron(np.eye(2), space.gram)
    basis = relation.basis.reshape(k, -1).T
    return eye - basis @ np.linalg.solve(basis.T @ w @ basis, basis.T @ w)


def _ref_product_norm(space, z: np.ndarray) -> float:
    d = space.dim
    return math.sqrt(max(space.inner(z[:d], z[:d]) + space.inner(z[d:], z[d:]), 0.0))


def _ref_pair_member(space, s_mat, t_mat, gram, u_bd: np.ndarray, dv_bd: np.ndarray, tol: float) -> bool:
    """``S u_BD = T Dv_BD`` with the defect in the norm of ``Y`` of Gram matrix ``gram``."""
    resid = s_mat @ u_bd - t_mat @ dv_bd
    defect = math.sqrt(max(float(resid @ gram @ resid), 0.0))
    return defect <= tol * (1.0 + space.norm(u_bd) + space.norm(dv_bd))


def _ref_views(real: BlockRealization, state: BlockState, tol: float = 1e-9) -> dict:
    ctx = real.ctx
    space = bd_space(ctx)
    x, y = boundary_data(ctx, state)
    u_bd, dv_bd = x + y, x - y
    bound = tol * (1.0 + space.norm(u_bd) + space.norm(dv_bd))
    views = {}
    if real.f is not None:
        views["f"] = space.norm(real.f(x) - y) <= bound
    if isinstance(real.description, LinearRelation):
        perp = _ref_perp(real.description)
        resid = perp @ np.concatenate([u_bd, dv_bd])
        views["relation"] = _ref_product_norm(space, resid) <= bound
    else:
        views["relation"] = real.relation.contains(u_bd, dv_bd, tol)
    if real.f is not None:
        image = lift_f_to_h(ctx, real.f)(BlockState(bd_exppoly(x), bd_exppoly(g_bd(x))))
        views["h"] = space.norm(bd_project(ctx, image.u) - y) <= bound
    return views


def _ref_description_view(real: BlockRealization, state: BlockState, tol: float) -> bool:
    views = _ref_views(real, state, tol)
    return views["relation" if isinstance(real.description, LinearRelation) else "f"]


def _kernel_cases():
    """Realizations of every kind on intervals on, across and below 0."""
    for a, b in ((0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5)):
        ctx = Interval(a, b)
        space = bd_space(ctx)
        rng = np.random.default_rng(int(100 * (b - a)))
        for _ in range(3):
            raw = rng.standard_normal((2, 2))
            matrix = raw / operator_norm(space, raw) * rng.uniform(0.3, 0.99)
            yield "f", BlockRealization.from_f(ctx, ContractionMap.from_matrix(space, matrix))
            squash = ContractionMap(
                space, lambda z, m=matrix: 0.7 * np.tanh(m @ z), lipschitz_cert=0.7
            )
            yield "tanh", BlockRealization.from_f(ctx, squash)
        accretive = {True: 0, False: 0}
        while min(accretive.values()) < 2:
            m = rng.standard_normal((2, 2))
            basis = np.array([np.stack([e, m @ e]) for e in np.eye(2)])
            real = BlockRealization.from_relation(ctx, LinearRelation(space, basis))
            if accretive[real.is_m_accretive] < 2:
                accretive[real.is_m_accretive] += 1
                yield "M", real
        for _ in range(3):
            pair = OperatorPair(space, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            yield "ST", BlockRealization.from_st(ctx, pair)


def _kernel_member(real: BlockRealization, rng: np.random.Generator) -> BlockState:
    """Member from boundary data of the realization, plus an endpoint-free part."""
    ctx = real.ctx
    if isinstance(real.description, LinearRelation):
        basis = real.description.basis
        c = rng.uniform(-2.0, 2.0, size=len(basis))
        u_bd = c @ basis[:, 0, :]
        dv_bd = c @ basis[:, 1, :]
    else:
        x = rng.uniform(-2.0, 2.0, size=2)
        fx = real.description(x)
        u_bd, dv_bd = x + fx, x - fx
    a, b = ctx.a, ctx.b
    bump = ExpPoly.polynomial([-a * b, a + b, -1.0])  # (t - a)(b - t)
    return BlockState(
        bd_exppoly(u_bd) + float(rng.uniform(-1, 1)) * bump,
        bd_exppoly(g_bd(dv_bd)) + float(rng.uniform(-1, 1)) * bump,
    )


def test_domain_test_many_matches_per_state_views():
    rng = np.random.default_rng(66)
    counts = {True: 0, False: 0}
    kinds = set()
    for kind, real in _kernel_cases():
        kinds.add(kind)
        states = [random_state(rng) for _ in range(6)]
        states += [_kernel_member(real, rng) for _ in range(4)]
        if real.is_m_accretive:
            states += [block_resolve(real, random_state(rng), 0.8) for _ in range(2)]
        expected = [_ref_views(real, s) for s in states]
        many = real.domain_test_many(states)
        assert list(many) == list(expected[0])
        for name, verdicts in many.items():
            assert verdicts.shape == (len(states),)
            assert verdicts.tolist() == [e[name] for e in expected]
        for s, e in zip(states, expected):
            assert real.domain_test_all(s) == e
            assert real.domain_test(s) == _ref_description_view(real, s, 1e-9)
            counts[all(e.values())] += 1
        empty = real.domain_test_many([])
        assert list(empty) == list(expected[0])
        assert all(v.shape == (0,) for v in empty.values())
    assert kinds == {"f", "tanh", "M", "ST"}
    assert counts[True] > 50 and counts[False] > 50


def test_st_domain_matches_per_state_reference():
    rng = np.random.default_rng(67)
    for a, b in ((0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5)):
        ctx = Interval(a, b)
        space = bd_space(ctx)
        # a Gram-normed Y is the pair premultiplied by L^T, L its Cholesky factor
        for gram in (np.eye(2), 2.0 * np.eye(2)):
            s_mat, t_mat = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            chol_t = np.linalg.cholesky(gram).T
            pair = OperatorPair(space, chol_t @ s_mat, chol_t @ t_mat)
            real = BlockRealization.from_st(ctx, pair)
            states = [random_state(rng) for _ in range(5)]
            states += [_kernel_member(real, rng) for _ in range(5)]
            for s in states:
                u_bd, dv_bd = bd_project(ctx, s.u), g_bd(bd_project(ctx, s.v))
                expected = _ref_pair_member(space, s_mat, t_mat, gram, u_bd, dv_bd, 1e-9)
                assert st_domain(ctx, pair, s) == expected
            assert any(st_domain(ctx, pair, s) for s in states[5:])


def test_a_pair_from_the_relation_projector_tests_as_the_relation_view():
    # [S | -T], the projector off the relation measured in the product
    # norm, is the pair a realization once derived beside its relation view;
    # st_domain on it, premultiplied by the product norm's Cholesky factor,
    # decides as the relation view
    rng = np.random.default_rng(68)
    counts = {True: 0, False: 0}
    kinds = set()
    for kind, real in _kernel_cases():
        if not isinstance(real.relation, LinearRelation):
            continue
        kinds.add(kind)
        ctx, space = real.ctx, bd_space(real.ctx)
        perp = np.kron(np.eye(2), np.linalg.cholesky(space.gram).T) @ _ref_perp(real.relation)
        pair = OperatorPair(space, perp[:, :2], -perp[:, 2:])
        states = [random_state(rng) for _ in range(6)]
        states += [_kernel_member(real, rng) for _ in range(4)]
        verdicts = real.domain_test_many(states)["relation"].tolist()
        assert [st_domain(ctx, pair, s) for s in states] == verdicts
        for v in verdicts:
            counts[v] += 1
    assert kinds == {"f", "M", "ST"}
    assert counts[True] > 20 and counts[False] > 20


def test_cayley_coherence_f_to_relation_to_f():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_contraction(rng)
        rel = cayley_to_relation(f)
        back = relation_to_cayley(SPACE, rel.resolvent)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            assert SPACE.norm(back(x) - f(x)) <= 1e-9 * (1.0 + SPACE.norm(x))


# ----------------------------------------------------------------------
# block resolvent
# ----------------------------------------------------------------------


def test_block_resolve_worked_example_plus_mode():
    real = BlockRealization.from_relation(CTX, identity_relation())
    rhs = BlockState(ExpPoly.exponential(1.0), ExpPoly.exponential(1.0))
    out = block_resolve(real, rhs, 1.0)
    expected = BlockState(
        ExpPoly.exponential(1.0, 0.5), ExpPoly.exponential(1.0, 0.5)
    )
    assert state_l2_norm(out - expected, UNIT) <= 1e-10


def test_block_resolve_worked_example_minus_mode():
    real = BlockRealization.from_relation(CTX, identity_relation())
    rhs = BlockState(ExpPoly.exponential(-1.0), -1.0 * ExpPoly.exponential(-1.0))
    out = block_resolve(real, rhs, 1.0)
    expected = BlockState(
        ExpPoly.exponential(-1.0, 0.5), ExpPoly.exponential(-1.0, -0.5)
    )
    assert state_l2_norm(out - expected, UNIT) <= 1e-10


def test_block_resolve_zero_rhs():
    real = BlockRealization.from_f(CTX, ContractionMap.zero(SPACE))
    out = block_resolve(real, BlockState.zero(), 0.7)
    assert state_l2_norm(out, UNIT) <= 1e-12


def test_block_resolve_residuals_and_membership():
    rng = np.random.default_rng(9)
    for _ in range(8):
        real = BlockRealization.from_f(CTX, random_contraction(rng))
        rhs = random_state(rng)
        tau = float(rng.uniform(0.2, 2.0))
        out = block_resolve(real, rhs, tau)
        res1 = out.u + tau * differentiate(out.v) - rhs.u
        res2 = out.v + tau * differentiate(out.u) - rhs.v
        scale = 1.0 + state_l2_norm(rhs, UNIT)
        assert l2_norm(res1, UNIT) <= 1e-9 * scale
        assert l2_norm(res2, UNIT) <= 1e-9 * scale
        assert real.domain_test(out, tol=1e-7)


def test_block_resolve_resonant_rhs():
    real = BlockRealization.from_relation(CTX, identity_relation())
    tau = 0.5
    rhs = BlockState(ExpPoly.exponential(2.0), ExpPoly.exponential(-2.0))
    out = block_resolve(real, rhs, tau)  # rhs rates hit 1/tau exactly
    res1 = out.u + tau * differentiate(out.v) - rhs.u
    res2 = out.v + tau * differentiate(out.u) - rhs.v
    assert l2_norm(res1, UNIT) <= 1e-10
    assert l2_norm(res2, UNIT) <= 1e-10


def test_block_resolvent_contraction():
    rng = np.random.default_rng(10)
    real = BlockRealization.from_f(CTX, random_contraction(rng))
    for tau in (0.4, 1.0, 1.7):
        for _ in range(10):
            r1, r2 = random_state(rng), random_state(rng)
            u1 = block_resolve(real, r1, tau)
            u2 = block_resolve(real, r2, tau)
            assert (
                state_l2_norm(u1 - u2, UNIT)
                <= state_l2_norm(r1 - r2, UNIT) + 1e-9
            )


def test_block_resolve_nonlinear_f():
    def squash(z):
        return 0.7 * np.tanh(z)

    f = ContractionMap(SPACE, squash, lipschitz_cert=0.7)
    real = BlockRealization.from_f(CTX, f)
    rng = np.random.default_rng(11)
    for _ in range(5):
        rhs = random_state(rng)
        tau = float(rng.uniform(0.3, 1.5))
        out = block_resolve(real, rhs, tau)
        res1 = out.u + tau * differentiate(out.v) - rhs.u
        res2 = out.v + tau * differentiate(out.u) - rhs.v
        assert l2_norm(res1, UNIT) <= 1e-9 * (1 + state_l2_norm(rhs, UNIT))
        assert l2_norm(res2, UNIT) <= 1e-9 * (1 + state_l2_norm(rhs, UNIT))
        assert real.domain_test(out, tol=1e-7)


# ----------------------------------------------------------------------
# The nonlinear boundary solve as a certified contraction
# ----------------------------------------------------------------------


def _boundary_contraction(ctx: Interval, tau: float) -> np.ndarray:
    """``C = L N^{-1}`` of the boundary equation, from a realization's plan."""
    squash = ContractionMap(bd_space(ctx), np.tanh, lipschitz_cert=1.0)
    return blockop._Plan.build(BlockRealization.from_f(ctx, squash), tau).comp


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-8.0, 8.0),
    length=st.floats(0.003, 5.0),
    tau=st.floats(0.02, 300.0),
)
def test_boundary_contraction_norm_is_the_sinh_ratio(a, length, tau):
    ctx = Interval(a, a + length)
    length = ctx.b - ctx.a
    norm = operator_norm(bd_space(ctx), _boundary_contraction(ctx, tau))
    ratio = sinh_ratio(tau, length)
    # near tau = 1 the entries are differences of e^{(sigma - 1) t} at the
    # two ends, formed as products e^{sigma t} e^{-t}: they cancel to
    # roundoff, about 1e-16 / l
    slack = 1e-10 * ratio + 1e-14 / length
    assert abs(norm - ratio) <= slack
    assert norm <= abs(1.0 - tau) / (1.0 + tau) + slack


def _gram_isometry(space: InnerSpace, angle: float) -> np.ndarray:
    """A rotation in orthonormal coordinates: an isometry of the Gram metric."""
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    chol_t = space._chol.T
    return np.linalg.solve(chol_t, rotation @ chol_t)


def _counting(f: ContractionMap, calls: list) -> ContractionMap:
    """``f`` with the same certificate, recording every argument."""

    def func(z):
        calls.append(np.array(z))
        return f(z)

    return ContractionMap(f.space, func, f.lipschitz_cert)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.7, -0.69)])
@pytest.mark.parametrize("tau", [0.02, 1.0, 50.0, 300.0])
def test_block_resolve_picard_certificate_one(interval, tau):
    ctx = Interval(*interval)
    iv, space = ctx, bd_space(ctx)
    rotation = _gram_isometry(space, 0.9)
    maps = (
        ContractionMap(space, np.tanh, lipschitz_cert=1.0),
        ContractionMap(space, lambda z: rotation @ np.tanh(z), lipschitz_cert=1.0),
    )
    q = sinh_ratio(tau, ctx.b - ctx.a)
    rng = np.random.default_rng([round(100 * tau), round(100 * (1.0 - interval[0]))])
    for f in maps:
        for _ in range(3):
            calls = []
            real = BlockRealization.from_f(ctx, _counting(f, calls))
            rhs = random_state(rng)
            out = block_resolve(real, rhs, tau)
            scale = 1.0 + state_l2_norm(rhs, iv)
            assert l2_norm(out.u + tau * differentiate(out.v) - rhs.u, iv) <= 1e-9 * scale
            assert l2_norm(out.v + tau * differentiate(out.u) - rhs.v, iv) <= 1e-9 * scale
            assert real.domain_test(out, tol=1e-9)
            # the solve's calls, then one by block_resolve's membership test
            solve_calls = len(calls) - 2
            gap0 = space.norm(calls[1] - calls[0]) if solve_calls > 1 else 0.0
            assert solve_calls <= a_priori_calls(q, gap0)


def test_block_resolve_near_rate_one_stops_on_the_backward_error():
    # q = 0.9996: the distance stop gap q / (1 - q) <= 1e-12 lay below the
    # roundoff floor of the steps, so the solve raised after 61,867 steps
    ctx = Interval(-0.7, -0.69)
    iv, space = ctx, bd_space(ctx)
    rotation = _gram_isometry(space, 0.9)
    f = ContractionMap(space, lambda z: rotation @ np.tanh(z), lipschitz_cert=1.0)
    real = BlockRealization.from_f(ctx, f)
    rhs = BlockState(ExpPoly.constant(1.0), ExpPoly.exponential(1.0, 1.0))
    tau = 5000.0
    out = block_resolve(real, rhs, tau)
    scale = 1.0 + state_l2_norm(rhs, iv)
    assert l2_norm(out.u + tau * differentiate(out.v) - rhs.u, iv) <= 1e-9 * scale
    assert l2_norm(out.v + tau * differentiate(out.u) - rhs.v, iv) <= 1e-9 * scale
    assert real.domain_test(out, tol=1e-9)


def test_block_resolve_rejects_a_false_certificate():
    # 3 tanh is no contraction; the damped fixed point with a Broyden
    # fallback this solve replaced returned a member for it
    f = ContractionMap(SPACE, lambda z: 3.0 * np.tanh(z), lipschitz_cert=1.0)
    real = BlockRealization.from_f(CTX, f)
    rhs = BlockState(ExpPoly.constant(0.2), ExpPoly.exponential(1.0, 0.1))
    with pytest.raises(RootNotFound, match="falsified"):
        block_resolve(real, rhs, 0.5)


# ----------------------------------------------------------------------
# (S, T) descriptions
# ----------------------------------------------------------------------


def test_st_domain_dirichlet_neumann():
    dirichlet = OperatorPair(SPACE, np.eye(2), np.zeros((2, 2)))
    neumann = OperatorPair(SPACE, np.zeros((2, 2)), np.eye(2))
    bump = ExpPoly.polynomial([0.0, 1.0]) * (
        ExpPoly.constant(1.0) - ExpPoly.polynomial([0.0, 1.0])
    )
    s_dir = BlockState(bump, ExpPoly.exponential(2.0))
    s_neu = BlockState(ExpPoly.exponential(2.0), bump)
    assert st_domain(CTX, dirichlet, s_dir)
    assert not st_domain(CTX, dirichlet, s_neu)
    assert st_domain(CTX, neumann, s_neu)
    assert not st_domain(CTX, neumann, s_dir)


def test_st_criterion_predicts_solvability_and_accretivity():
    rng = np.random.default_rng(12)
    checked_good = checked_bad = 0
    for _ in range(40):
        pair = OperatorPair(
            SPACE,
            rng.standard_normal((2, 2)),
            rng.standard_normal((2, 2)),
        )
        report = st_criterion(pair)
        real = BlockRealization.from_st(CTX, pair)
        assert real.is_m_accretive == report.holds
        if report.holds:
            checked_good += 1
            members = []
            for _ in range(5):
                out = block_resolve(real, random_state(rng), 0.9)
                members.append(out)
            # sampled accretivity among members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    diff = members[i] - members[j]
                    pairing = state_l2_inner_apply_pair(diff)
                    assert pairing >= -1e-8 * (1 + state_l2_norm(diff, UNIT) ** 2)
        else:
            checked_bad += 1
    assert checked_good > 0 and checked_bad > 0


def state_l2_inner_apply_pair(diff: BlockState) -> float:
    from maccretive.blockop import state_l2_inner

    return state_l2_inner(apply_block(diff), diff, UNIT)


# ----------------------------------------------------------------------
# The linear boundary solve in deficiency coordinates
# ----------------------------------------------------------------------


def _lstsq_boundary_coeffs(real: BlockRealization, tau: float, u_bd0, dv_bd0):
    """Reference: the linear boundary solve as least squares on the modes'
    BD columns projected onto the complement of ``M``, with its residual
    test. Returns the coefficients and the modes' ``u_BD`` and ``Dv_BD``
    columns."""
    ctx = real.ctx
    w_plus = np.array(_mode_coeffs(ctx, ExpPoly.exponential(1.0 / tau)))
    w_minus = np.array(_mode_coeffs(ctx, ExpPoly.exponential(-1.0 / tau)))
    h_u = np.column_stack([w_plus, w_minus])
    h_dv = np.column_stack([-g_bd(w_plus), g_bd(w_minus)])
    perp = _ref_perp(real.description)
    stacked = perp @ np.vstack([h_u, h_dv])
    target = -perp @ np.concatenate([u_bd0, dv_bd0])
    coeffs, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    assert np.linalg.norm(stacked @ coeffs - target) <= 1e-8 * (1 + np.linalg.norm(target))
    return coeffs, h_u, h_dv


def _particular_bd(ctx: Interval, rhs: BlockState, tau: float):
    """``(u_BD, Dv_BD)`` of the particular solution of a block step."""
    u_part = particular_second_order(rhs.u - tau * differentiate(rhs.v), tau, ctx)
    v_part = rhs.v - tau * differentiate(u_part)
    return bd_project(ctx, u_part), g_bd(bd_project(ctx, v_part))


def _linear_cases():
    """The linear realizations of ``_kernel_cases``, and impedance ones."""
    for kind, real in _kernel_cases():
        if kind != "tanh":
            yield kind, real
    for a, b in ((0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5)):
        for k in (IMPEDANCE_I, IMPEDANCE_SKEW, ((0.3, 2.0), (-1.5, 0.2))):
            ctx = Interval(a, b)
            yield "impedance", impedance_realization(ctx, np.asarray(k, dtype=float))


@pytest.mark.parametrize("tau", [0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0])
def test_linear_boundary_solve_matches_least_squares(tau):
    rng = np.random.default_rng(round(10 * tau))
    for kind, real in _linear_cases():
        space = bd_space(real.ctx)
        plan = blockop._Plan.build(real, tau)
        # a relation that is not m-accretive can make the 2x2 system
        # X - C Y ill-conditioned; both solves then lose digits in
        # proportion to its condition number in orthonormal coordinates
        tol = 1e-13
        if not real.is_m_accretive:
            u, v = real.description.basis[:, 0, :].T, real.description.basis[:, 1, :].T
            system = 0.5 * (u + v) - plan.comp @ (0.5 * (u - v))
            chol_t = space._chol.T
            tol *= np.linalg.cond(chol_t @ system @ np.linalg.inv(chol_t))
        for _ in range(3):
            u_bd0, dv_bd0 = _particular_bd(real.ctx, random_state(rng), tau)
            ref, h_u, h_dv = _lstsq_boundary_coeffs(real, tau, u_bd0, dv_bd0)
            gap = blockop._solve_boundary_coeffs(real, plan, u_bd0, dv_bd0) - ref
            # the modes' contributions to u_BD and to Dv_BD
            defect = space.norm(h_u @ gap) + space.norm(h_dv @ gap)
            assert defect <= tol * (space.norm(u_bd0) + space.norm(dv_bd0)), kind


def test_block_resolve_needs_a_relation_of_dimension_two():
    # S = T = diag(1, 0) asks only u_1 = v_1: a relation of dimension 3
    half = np.diag([1.0, 0.0])
    real = BlockRealization.from_st(CTX, OperatorPair(SPACE, half, half))
    assert real.description.dim == 3
    with pytest.raises(RootNotFound, match="dimension 3 has no unique resolvent"):
        block_resolve(real, random_state(np.random.default_rng(3)), 0.5)


def test_block_resolve_raises_on_a_singular_boundary_equation():
    tau = 0.5
    comp = blockop._Plan.build(BlockRealization.from_relation(CTX, identity_relation()), tau).comp
    e1, e2 = np.eye(2)
    # the first pair has deficiency coordinates (X, Y) = (C e1, e1), so
    # X - C Y has a zero column
    basis = np.array([np.stack([comp @ e1 + e1, comp @ e1 - e1]), np.stack([e2, e2])])
    real = BlockRealization.from_relation(CTX, LinearRelation(SPACE, basis))
    with pytest.raises(RootNotFound, match="resolvent equation is singular"):
        block_resolve(real, random_state(np.random.default_rng(4)), tau)


@pytest.mark.parametrize("k", [IMPEDANCE_I, IMPEDANCE_SKEW])
@pytest.mark.parametrize("start", [-8, -6, -4, -3, -2, 1, 2, 3, 4, 5, 7])
def test_accretive_impedance_resolvent_far_from_zero(k, start):
    # the modes' BD columns are up to 1e15 apart in size here; a least
    # squares solve on them once dropped the small one as singular
    ctx = Interval(start, start + 1.0)
    real = impedance_realization(ctx, np.asarray(k, dtype=float))
    rng = np.random.default_rng(start + 10)
    for tau in (0.05, 0.1, 0.2, 0.3):
        rhs = random_state(rng)
        out = block_resolve(real, rhs, tau)
        assert real.domain_test(out, tol=1e-9)
        assert state_l2_norm(out, ctx) <= state_l2_norm(rhs, ctx)


# ----------------------------------------------------------------------
# Resonance band of the block resolvent
# ----------------------------------------------------------------------


def _green_kernel_second_order(w: ExpPoly, tau: float, ctx: Interval) -> ExpPoly:
    """Reference solution of ``u - tau^2 u'' = w``: a coefficient
    recursion away from ``+-1/tau`` and the mirrored Green-kernel
    responses anchored at ``a`` and ``b`` near it."""
    sigma = 1.0 / tau
    tau2 = tau * tau
    t_scale = max(abs(ctx.a), abs(ctx.b))
    half = 0.5 * sigma
    out = []
    for mu, p in w.terms:
        c2 = 1.0 - (tau * mu) ** 2
        n = len(p)
        if abs(c2) > 0.1:
            q = [0.0] * n
            for k in range(n - 1, -1, -1):
                acc = p[k]
                if k + 1 < n:
                    acc += 2.0 * tau2 * mu * (k + 1) * q[k + 1]
                if k + 2 < n:
                    acc += tau2 * (k + 1) * (k + 2) * q[k + 2]
                q[k] = acc / c2
            out.append((mu, q))
            continue
        sign = 1.0 if mu > 0 else -1.0
        beta = mu - sign * sigma
        near = absorb_rate_shift(p, beta, t_scale)
        p_poly = poly_integral(near)
        if sign < 0:
            low_main = absorb_rate_shift(p_poly, -beta, t_scale)
            out.append((mu, [half * c for c in low_main]))
            out.append((-sigma, (-half * horner(p_poly, ctx.a),)))
            nu2 = mu - sigma
            q2 = _first_order_coeffs(p, 1.0, nu2)
            out.append((sigma, (half * horner(q2, ctx.b) * math.exp(nu2 * ctx.b),)))
            out.append((mu, [-half * c for c in q2]))
        else:
            high_main = absorb_rate_shift(p_poly, -beta, t_scale)
            out.append((mu, [-half * c for c in high_main]))
            out.append((sigma, (half * horner(p_poly, ctx.b),)))
            nu2 = mu + sigma
            q2 = _first_order_coeffs(p, 1.0, nu2)
            out.append((mu, [half * c for c in q2]))
            out.append((-sigma, (-half * horner(q2, ctx.a) * math.exp(nu2 * ctx.a),)))
    return ExpPoly(tuple(out))


BAND_TAU = 0.5
BAND_INTERVALS = ((0.0, 1.0), (-2.0, -0.5), (-0.7, 1.3))
BAND_TAU_MU = tuple(s * m for m in (0.9, 0.949, 1.0, 1.049, 1.1) for s in (1.0, -1.0))

#: Known misses at the band edge. At ``tau*mu = +-1.1`` the factor
#: ``1 -+ tau*mu`` lies just outside the first-order integrating-factor
#: window ``|.| <= 0.1``, so that half is solved by the coefficient
#: recursion; its particular solution grows like ``deg! (tau/0.1)^deg``
#: times the data and cancels against the homogeneous mode. The 1-D
#: ``resolve`` shares the branch and misses the same way. Its residual there
#: sits at the roundoff floor of terms near 1e7: the ``-1.1`` twin, once a
#: miss at 1.03 times the bound, passes at 0.50 since the step sums by rows
#: over the basis, so which side of the bound a case falls on is a matter of
#: summation order.
BAND_EDGE_MISSES = {
    ((-0.7, 1.3), 6, 1.1),
}


def _band_cases():
    for interval in BAND_INTERVALS:
        for degree in range(7):
            for tau_mu in BAND_TAU_MU:
                marks = ()
                if (interval, degree, tau_mu) in BAND_EDGE_MISSES:
                    marks = pytest.mark.xfail(
                        raises=(AssertionError, RootNotFound),
                        strict=True,
                        reason="recursion branch at the band edge",
                    )
                yield pytest.param(
                    interval, degree, tau_mu, marks=marks,
                    id=f"{interval[0]}..{interval[1]}-deg{degree}-taumu{tau_mu}",
                )


def _particular(real: BlockRealization, w: ExpPoly, tau: float) -> ExpPoly:
    """The particular solution of ``u - tau^2 u'' = w`` that ``block_resolve``
    builds, which depends on ``real`` only through its interval: its step's
    particular part on the rows of ``(w, 0)``."""
    step = real._step_map(tau, (w,), 1)
    rows = step.basis.rows((w, ExpPoly.zero())).reshape(1, -1)
    return step.basis.polys(step.particular(rows)[:, : step.basis.dim])[0]


@pytest.mark.parametrize("interval, degree, tau_mu", _band_cases())
def test_block_resolve_resonance_band(interval, degree, tau_mu):
    """The partial-fraction solve near the resonant rates ``+-1/tau``.

    Checks the particular solution, the resolvent residuals and
    membership for a linear and a nonlinear realization, and agreement
    with the Green-kernel solver it replaced wherever that reference can
    carry ten digits: its terms cancel by at most 1e4. Near the band
    edges its recursion builds terms up to 1e8 times its result, loses
    that many digits, and can fail its own membership test.
    """
    ctx = Interval(*interval)
    iv = ctx
    space = bd_space(ctx)
    tau = BAND_TAU
    mu = tau_mu / tau
    rng = np.random.default_rng(
        [degree, round(1000 * tau_mu) % 10_000, round(10 * (interval[0] + 3))]
    )

    def poly(rate):
        return ExpPoly(((rate, tuple(rng.uniform(-1.5, 1.5, degree + 1))),))

    def residual(out: BlockState, rhs: BlockState) -> float:
        res1 = out.u + tau * differentiate(out.v) - rhs.u
        res2 = out.v + tau * differentiate(out.u) - rhs.v
        return max(l2_norm(res1, iv), l2_norm(res2, iv))

    # the particular solution, on both resonant rates at once
    w = poly(mu) + poly(-mu)
    u = _particular(BlockRealization.from_f(ctx, ContractionMap.zero(space)), w, tau)
    resid = u - tau * tau * differentiate(differentiate(u)) - w
    assert l2_norm(resid, iv) <= 1e-12 * (1.0 + l2_norm(w, iv) + l2_norm(u, iv))
    if abs(tau_mu) < 1.1:
        # inside the integrating-factor window the near half is a Green
        # kernel of unit mass anchored at its own end, so the particular
        # solution stays on the scale of the data
        assert l2_norm(u, iv) <= l2_norm(w, iv)

    raw = rng.standard_normal((2, 2))
    linear = ContractionMap.from_matrix(space, 0.9 * raw / operator_norm(space, raw))
    squash = ContractionMap(space, lambda z: 0.7 * np.tanh(z), lipschitz_cert=0.7)
    rhs = BlockState(poly(mu), poly(-mu))
    scale = 1.0 + state_l2_norm(rhs, iv)
    for f in (linear, squash):
        real = BlockRealization.from_f(ctx, f)
        out = block_resolve(real, rhs, tau)
        assert residual(out, rhs) <= 1e-9 * scale
        assert real.domain_test(out, tol=1e-7)

        try:
            ref, member = composed_block_resolve(real, rhs, tau, _green_kernel_second_order)
        except RootNotFound:
            continue
        if not member:
            continue
        ref_norm = state_l2_norm(ref, iv)
        if term_majorant((ref.u, ref.v), iv) <= 1e4 * ref_norm:
            assert state_l2_norm(out - ref, iv) <= 1e-10 * ref_norm


# ----------------------------------------------------------------------
# The implicit-Euler step against its composed form
# ----------------------------------------------------------------------


def _euler_rhs(rng: np.random.Generator, mu: float, tau: float, degree: int) -> BlockState:
    """Terms on ``+-mu``, next to ``+-1/tau`` and next to 0 (within the merge
    tolerance), a rate-0 constant in ``v`` and scattered ``-0.0``."""
    shift = 0.6 * RATE_MERGE_TOL

    def coeffs(n: int) -> tuple:
        c = rng.uniform(-1.5, 1.5, n)
        c[rng.random(n) < 0.25] = -0.0
        c[-1] = rng.uniform(0.5, 1.5)
        return tuple(float(x) for x in c)

    u = ExpPoly(((mu, coeffs(degree + 1)), (1.0 / tau + shift, coeffs(2)), (shift, coeffs(2))))
    v = ExpPoly((
        (-mu, coeffs(degree + 1)),
        (0.0, (float(rng.uniform(-1.0, 1.0)),)),
        (-1.0 / tau - shift, coeffs(1)),
    ))
    return BlockState(u, v)


@pytest.mark.parametrize("interval", BAND_INTERVALS)
@pytest.mark.parametrize("tau_mu", BAND_TAU_MU)
def test_block_resolve_matches_composed_step(interval, tau_mu):
    """Three steps of the matrix step against the term algebra it replaced,
    within ``ROUNDING`` of the terms' magnitudes, on the cases that once
    pinned it bit for bit. Where the term algebra's result fails the 1e-8
    test, the step, which sums in another order, raises or lands within
    that bound of it; past the degree cap both raise the same error."""
    ctx = Interval(*interval)
    space = bd_space(ctx)
    rng = np.random.default_rng([round(1000 * tau_mu) % 10_000, round(10 * (interval[0] + 3))])
    raw = rng.standard_normal((2, 2))
    linear = ContractionMap.from_matrix(space, 0.9 * raw / operator_norm(space, raw))
    squash = ContractionMap(space, lambda z: 0.7 * np.tanh(z), lipschitz_cert=0.7)
    rhs = _euler_rhs(rng, tau_mu / BAND_TAU, BAND_TAU, int(rng.integers(0, 7)))
    for f in (linear, squash):
        real = BlockRealization.from_f(ctx, f)
        state = rhs
        for _ in range(3):
            try:
                ref, member = composed_block_resolve(real, state, BAND_TAU)
            except ValueError as exc:  # resonant steps can pass the degree cap
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    block_resolve(real, state, BAND_TAU)
                break
            try:
                out = block_resolve(real, state, BAND_TAU)
            except RootNotFound:
                assert not member
                break
            scale = term_majorant((state.u, state.v, ref.u, ref.v), ctx)
            assert state_l2_norm(out - ref, ctx) <= ROUNDING * scale
            ends = [[s.u(ctx.a), s.u(ctx.b), s.v(ctx.a), s.v(ctx.b)] for s in (state, out)]
            assert repr(blockop._endpoint_values(ctx, (state, out)).tolist()) == repr(ends)
            if not member:
                break
            state = out
