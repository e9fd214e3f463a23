import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_step import ROUNDING, composed_resolve, term_majorant
from contraction_rates import a_priori_calls, sinh_ratio

from maccretive.derivative import (
    BoundaryFunction,
    Realization1D,
    accretivity_witness,
    check_lipschitz_transfer,
    extract_h,
    in_domain,
    kernel_element,
    linear_reduce,
    linear_unreduce,
    maximality_probe,
    pi_minus_coeff,
    pi_plus_coeff,
    pi_zero,
    _pi_coeffs,
    _without_modes,
    resolve,
)
from maccretive.errors import NotAViolation, OutOfRange, RootNotFound
from maccretive.funcspace import (
    RATE_MERGE_TOL,
    ExpPoly,
    Interval,
    _eval_pair,
    differentiate,
    graph_inner,
    graph_norm,
    l2_inner,
    l2_norm,
)

E = math.e
CTX = Interval(0.0, 1.0)
UNIT = CTX


def random_exppoly(rng: np.random.Generator, max_degree: int = 4) -> ExpPoly:
    terms = []
    for _ in range(rng.integers(1, 4)):
        mu = float(rng.integers(-2, 3))
        deg = int(rng.integers(0, max_degree + 1))
        terms.append((mu, tuple(rng.uniform(-2.0, 2.0, size=deg + 1))))
    return ExpPoly(tuple(terms))


def gram_projection_coeffs(ctx: Interval, u: ExpPoly) -> tuple[float, float]:
    """Independent oracle: 2x2 graph-Gram solve onto span{e^t, e^{-t}}."""
    ep = ExpPoly.exponential(1.0)
    em = ExpPoly.exponential(-1.0)
    iv = ctx
    gram = np.array(
        [
            [graph_inner(ep, ep, iv), graph_inner(ep, em, iv)],
            [graph_inner(em, ep, iv), graph_inner(em, em, iv)],
        ]
    )
    rhs = np.array([graph_inner(u, ep, iv), graph_inner(u, em, iv)])
    return tuple(np.linalg.solve(gram, rhs))


def l2_projection_plus(ctx: Interval, u: ExpPoly) -> float:
    """Second oracle: 1/2 P_{ker(1-d/dt)} (1 + d/dt) u via plain L2 Gram."""
    ep = ExpPoly.exponential(1.0)
    iv = ctx
    w = u + differentiate(u)
    return 0.5 * l2_inner(w, ep, iv) / l2_inner(ep, ep, iv)


def l2_projection_minus(ctx: Interval, u: ExpPoly) -> float:
    em = ExpPoly.exponential(-1.0)
    iv = ctx
    w = u - differentiate(u)
    return 0.5 * l2_inner(w, em, iv) / l2_inner(em, em, iv)


# ----------------------------------------------------------------------
# kernels and projections
# ----------------------------------------------------------------------


def test_kernel_elements():
    k_plus = kernel_element(-1, 1.0)
    assert k_plus == ExpPoly.exponential(1.0)
    assert differentiate(k_plus) == k_plus  # (1 - d/dt) kills it
    k_minus = kernel_element(+1, 2.0)
    assert k_minus == ExpPoly.exponential(-1.0, 2.0)
    assert differentiate(k_minus) == -1.0 * k_minus
    assert kernel_element(+1, 0.0).is_zero
    with pytest.raises(ValueError):
        kernel_element(2, 1.0)


def test_projection_coefficients_of_constant():
    one = ExpPoly.constant(1.0)
    assert pi_plus_coeff(CTX, one) == pytest.approx(1.0 / (E + 1.0), abs=1e-14)
    assert pi_minus_coeff(CTX, one) == pytest.approx(E / (E + 1.0), abs=1e-14)


def test_projection_fixes_kernel_elements():
    ep = ExpPoly.exponential(1.0)
    em = ExpPoly.exponential(-1.0)
    assert pi_plus_coeff(CTX, ep) == pytest.approx(1.0, abs=1e-14)
    assert pi_minus_coeff(CTX, ep) == pytest.approx(0.0, abs=1e-14)
    assert pi_plus_coeff(CTX, em) == pytest.approx(0.0, abs=1e-14)
    assert pi_minus_coeff(CTX, em) == pytest.approx(1.0, abs=1e-14)


def test_projection_matches_gram_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        u = random_exppoly(rng)
        cp, cm = gram_projection_coeffs(CTX, u)
        assert pi_plus_coeff(CTX, u) == pytest.approx(cp, abs=1e-10, rel=1e-10)
        assert pi_minus_coeff(CTX, u) == pytest.approx(cm, abs=1e-10, rel=1e-10)


def test_projection_matches_l2_formula_oracle():
    rng = np.random.default_rng(6)
    for _ in range(40):
        u = random_exppoly(rng)
        assert pi_plus_coeff(CTX, u) == pytest.approx(
            l2_projection_plus(CTX, u), abs=1e-10, rel=1e-10
        )
        assert pi_minus_coeff(CTX, u) == pytest.approx(
            l2_projection_minus(CTX, u), abs=1e-10, rel=1e-10
        )


def test_pi_zero_of_constant():
    res = pi_zero(CTX, ExpPoly.constant(1.0))
    assert abs(res(0.0)) <= 1e-14
    assert abs(res(1.0)) <= 1e-14


def test_pi_zero_of_kernel_element_vanishes():
    assert pi_zero(CTX, ExpPoly.exponential(1.0)).is_zero


# rates on and within 1e-14 of the modes' +-1, where a mode term can lead a
# group and move its rate, with signed zeros and tiny coefficients
mode_rate = st.tuples(
    st.sampled_from([-1.0, 1.0, 0.0, 2.0]), st.integers(min_value=-2, max_value=2)
).map(lambda p: p[0] + p[1] * 0.6 * RATE_MERGE_TOL)
mode_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.tuples(mode_rate, st.lists(mode_coeff, min_size=1, max_size=4)), max_size=4),
    c_plus=mode_coeff,
    c_minus=mode_coeff,
)
def test_pi_zero_matches_the_composed_subtraction(terms, c_plus, c_minus):
    u = ExpPoly(tuple(terms))
    composed = u - ExpPoly.exponential(1.0, c_plus) - ExpPoly.exponential(-1.0, c_minus)
    assert repr(_without_modes(u, c_plus, c_minus)) == repr(composed)
    c_plus, c_minus = _pi_coeffs(CTX, u(0.0), u(1.0))
    composed = u - ExpPoly.exponential(1.0, c_plus) - ExpPoly.exponential(-1.0, c_minus)
    assert repr(pi_zero(CTX, u)) == repr(composed)


def test_boundary_formulas_evaluate_each_endpoint_once(monkeypatch):
    from maccretive import blockop, derivative, funcspace
    from maccretive.blockop import bd_project

    calls = []
    evaluate, evaluate_pair = ExpPoly.__call__, funcspace._eval_pair

    def counting(self, t):
        calls.append(t)
        return evaluate(self, t)

    def counting_pair(f, a, b):
        calls.extend((a, b))
        return evaluate_pair(f, a, b)

    def counting_rows(basis, rows, exps, heads):
        ends = evaluate_rows(basis, rows, exps, heads)
        calls.extend(ends.ravel())
        return ends

    # endpoint values are read one at a time, both at once, or both for
    # each coefficient row over a basis
    evaluate_rows = funcspace.ExpBasis.endpoint_values
    monkeypatch.setattr(ExpPoly, "__call__", counting)
    monkeypatch.setattr(funcspace.ExpBasis, "endpoint_values", counting_rows)
    for module in (funcspace, derivative, blockop):
        monkeypatch.setattr(module, "_eval_pair", counting_pair)
    u = ExpPoly(((1.0, (1.0, 2.0)), (0.0, (0.5,))))
    realization = Realization1D(CTX, BoundaryFunction.linear(0.5))
    for fn, expected in [
        (lambda: bd_project(CTX, u), 2),
        (lambda: in_domain(realization, u), 2),
        (lambda: pi_zero(CTX, u), 2),
        # u(a), u(b) of e^{-t/tau} for the new plan, of the particular part,
        # then of the solution for the membership test
        (lambda: resolve(realization, u, 0.5), 6),
    ]:
        calls.clear()
        fn()
        assert len(calls) == expected


def test_decomposition_and_orthogonality():
    rng = np.random.default_rng(7)
    ep = ExpPoly.exponential(1.0)
    em = ExpPoly.exponential(-1.0)
    for _ in range(100):
        u = random_exppoly(rng)
        p0 = pi_zero(CTX, u)
        c1 = pi_plus_coeff(CTX, u)
        cm = pi_minus_coeff(CTX, u)
        recon = p0 + c1 * ep + cm * em
        assert graph_norm(u - recon, UNIT) <= 1e-10 * (1 + graph_norm(u, UNIT))
        scale = 1.0 + graph_norm(u, UNIT) ** 2
        assert abs(graph_inner(p0, c1 * ep, UNIT)) <= 1e-10 * scale
        assert abs(graph_inner(p0, cm * em, UNIT)) <= 1e-10 * scale
        assert abs(graph_inner(c1 * ep, cm * em, UNIT)) <= 1e-10 * scale


def test_inner_product_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = random_exppoly(rng)
        lhs = l2_inner(differentiate(u), u, UNIT)
        c1 = pi_plus_coeff(CTX, u)
        cm = pi_minus_coeff(CTX, u)
        mid = c1**2 * CTX.denom_plus / 2.0 - cm**2 * CTX.denom_minus / 2.0
        rhs = (u(1.0) ** 2 - u(0.0) ** 2) / 2.0
        scale = 1.0 + abs(rhs)
        assert abs(lhs - mid) <= 1e-10 * scale
        assert abs(lhs - rhs) <= 1e-10 * scale


# ----------------------------------------------------------------------
# Lipschitz transfer
# ----------------------------------------------------------------------


def test_transfer_equality_case():
    g = BoundaryFunction.linear(CTX.lipschitz_bound)
    pairs = [(1.0, 0.0), (2.0, -1.5), (0.3, 0.7)]
    report = check_lipschitz_transfer(CTX, g, pairs)
    assert report.max_identity_defect <= 1e-11
    assert report.contraction_holds and report.bound_holds and report.equivalence_ok
    for row in report.samples:
        assert row.h_dist == pytest.approx(row.x_dist, rel=1e-11)


def test_transfer_constant_g():
    g = BoundaryFunction.constant(3.0)
    report = check_lipschitz_transfer(CTX, g, [(0.0, 1.0), (-2.0, 5.0)])
    for row in report.samples:
        assert row.h_dist == 0.0
    assert report.bound_holds


def test_transfer_flags_violation():
    g = BoundaryFunction.linear(CTX.lipschitz_bound + 0.1)
    report = check_lipschitz_transfer(CTX, g, [(0.0, 1.0)])
    assert not report.bound_holds
    assert not report.contraction_holds
    assert report.equivalence_ok
    assert report.violations == ((0.0, 1.0),)


# ----------------------------------------------------------------------
# domain membership
# ----------------------------------------------------------------------


def test_in_domain_g_zero():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    assert in_domain(r, ExpPoly.exponential(1.0))
    assert not in_domain(r, ExpPoly.exponential(-1.0))


def test_endpoint_free_functions_belong_when_g0_vanishes():
    r = Realization1D(CTX, BoundaryFunction.scaled_sin(1.0))
    u = pi_zero(CTX, ExpPoly.polynomial([0.0, 1.0, 0.5]))
    assert in_domain(r, u)


def test_zero_not_member_when_g0_nonzero():
    r = Realization1D(CTX, BoundaryFunction.constant(0.5))
    assert not in_domain(r, ExpPoly.zero())


def test_linear_g_domain_closed_under_addition():
    r = Realization1D(CTX, BoundaryFunction.linear(0.8))
    f1 = ExpPoly.polynomial([1.0, 0.3])
    f2 = ExpPoly.exponential(2.0, 0.5)
    u1 = resolve(r, f1, 0.7)
    u2 = resolve(r, f2, 0.7)
    assert in_domain(r, u1 + u2)


# ----------------------------------------------------------------------
# resolvent
# ----------------------------------------------------------------------


def test_resolve_worked_example_constant_rhs():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u = resolve(r, ExpPoly.constant(1.0), 1.0)
    expected = ExpPoly.constant(1.0) - ExpPoly.exponential(-1.0, E / (E + 1.0))
    assert l2_norm(u - expected, UNIT) <= 1e-12
    assert u(0.0) == pytest.approx(1.0 / (E + 1.0), abs=1e-12)
    assert u(1.0) == pytest.approx(E * u(0.0), abs=1e-10)
    residual = u + differentiate(u) - ExpPoly.constant(1.0)
    assert l2_norm(residual, UNIT) <= 1e-12


def test_resolve_eigenfunction():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u = resolve(r, ExpPoly.exponential(1.0, 2.0), 1.0)
    assert l2_norm(u - ExpPoly.exponential(1.0), UNIT) <= 1e-12


def test_resolve_zero_rhs_constant_g():
    gamma = 0.37
    r = Realization1D(CTX, BoundaryFunction.constant(gamma))
    u = resolve(r, ExpPoly.zero(), 1.0)
    assert l2_norm(u - ExpPoly.exponential(-1.0, gamma), UNIT) <= 1e-12


def test_resolve_resonant_rhs_lifted():
    # rhs containing e^{-t/tau} forces a polynomial lift
    tau = 0.5
    r = Realization1D(CTX, BoundaryFunction.linear(0.4))
    f = ExpPoly.exponential(-1.0 / tau, 1.5) + ExpPoly.constant(1.0)
    u = resolve(r, f, tau)
    residual = u + tau * differentiate(u) - f
    assert l2_norm(residual, UNIT) <= 1e-11
    assert in_domain(r, u)


def test_resolve_residual_and_membership_random():
    rng = np.random.default_rng(9)
    g = BoundaryFunction.scaled_sin(0.8 * CTX.lipschitz_bound)
    r = Realization1D(CTX, g)
    for _ in range(25):
        f = random_exppoly(rng, max_degree=2)
        tau = float(rng.uniform(0.2, 2.5))
        u = resolve(r, f, tau)
        residual = u + tau * differentiate(u) - f
        assert l2_norm(residual, UNIT) <= 1e-9 * (1 + l2_norm(f, UNIT))
        assert in_domain(r, u)


def test_resolvent_contraction():
    rng = np.random.default_rng(10)
    g = BoundaryFunction.scaled_sin(0.9 * CTX.lipschitz_bound)
    r = Realization1D(CTX, g)
    for tau in (0.3, 1.0, 2.5):
        for _ in range(15):
            f1 = random_exppoly(rng, max_degree=2)
            f2 = random_exppoly(rng, max_degree=2)
            u1 = resolve(r, f1, tau)
            u2 = resolve(r, f2, tau)
            assert l2_norm(u1 - u2, UNIT) <= l2_norm(f1 - f2, UNIT) + 1e-9


def test_resolve_rejects_nonpositive_tau():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    with pytest.raises(ValueError):
        resolve(r, ExpPoly.constant(1.0), 0.0)


def test_resolve_inadmissible_g_fails():
    # Slope far beyond the bound e^{a+b}: the boundary equation is no
    # certified contraction, and the solve cannot certify a member.
    g = BoundaryFunction(lambda c: 50.0 * c, 50.0, None)
    r = Realization1D(CTX, g)
    assert not r.is_admissible
    with pytest.raises(RootNotFound):
        for tau in (0.2, 0.5, 1.0, 2.0):
            resolve(r, ExpPoly.constant(1.0), tau)


# ----------------------------------------------------------------------
# The boundary equation as a certified contraction
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-8.0, 8.0),
    length=st.floats(0.003, 5.0),
    tau=st.floats(0.02, 300.0),
)
def test_resolve_contraction_rate_is_the_sinh_ratio(a, length, tau):
    ctx = Interval(a, a + length)
    length = ctx.b - ctx.a
    realization = Realization1D(ctx, BoundaryFunction.constant(0.0))
    _, beta_plus, beta_minus = realization._resolvent_plan(tau)
    # the rate of a g at the Lipschitz bound e^{a+b}
    rate = ctx.lipschitz_bound * abs(beta_plus / beta_minus)
    ratio = sinh_ratio(tau, length)
    # near tau = 1, beta_+ is a difference of e^{(1 - sigma) t} at the two
    # ends, formed as products e^{-sigma t} e^t: it cancels to roundoff
    slack = 1e-10 * ratio + 1e-14 / length
    assert abs(rate - ratio) <= slack
    assert rate <= abs(1.0 - tau) / (1.0 + tau) + slack


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.7, -0.69)])
@pytest.mark.parametrize("tau", [0.02, 1.0, 50.0, 300.0])
def test_resolve_picard_at_the_lipschitz_bound(interval, tau):
    ctx = Interval(*interval)
    iv, bound = ctx, ctx.lipschitz_bound
    calls = []

    def g(c: float) -> float:
        calls.append(c)
        return bound * math.tanh(c)

    r = Realization1D(ctx, BoundaryFunction(g, bound))
    q = sinh_ratio(tau, ctx.b - ctx.a)
    rng = np.random.default_rng([round(100 * tau), round(100 * (1.0 - interval[0]))])
    for _ in range(3):
        calls.clear()
        f = random_exppoly(rng, max_degree=2)
        u = resolve(r, f, tau)
        assert l2_norm(u + tau * differentiate(u) - f, iv) <= 1e-9 * (1.0 + l2_norm(f, iv))
        assert in_domain(r, u, tol=1e-9)
        # the solve's calls, then one by resolve's membership test and one by ours
        solve_calls = len(calls) - 2
        assert solve_calls <= a_priori_calls(q, abs(calls[1] - calls[0]))
        # the step of a 50-step trajectory, on its larger basis, reads its
        # result's endpoint values as in_domain does and keeps it a member
        step = r._step_map(tau, (f,), 50)
        out, ends = step(step.basis.rows((f,)))
        (v,) = step.basis.polys(out)
        assert repr(ends.tolist()) == repr([[v(ctx.a), v(ctx.b)]])
        assert step.member(ends)[0] and in_domain(r, v, tol=1e-9)


def test_resolve_rejects_a_false_certificate():
    # slope 10 e^{a+b} certified as e^{a+b}: at tau = 0.5 the claimed rate
    # is 0.24 and the steps grow by 2.4
    g = BoundaryFunction(lambda c: 10.0 * E * c, E)
    r = Realization1D(CTX, g)
    assert r.is_admissible
    with pytest.raises(RootNotFound, match="falsified"):
        resolve(r, ExpPoly.constant(1.0), 0.5)


def test_resolve_without_a_certified_contraction_fails():
    # slope 100 on [0, 1] at tau = 0.5: rate 100/e * 0.245 = 9.0
    r = Realization1D(CTX, BoundaryFunction.linear(100.0))
    with pytest.raises(RootNotFound, match="no certified contraction"):
        resolve(r, ExpPoly.constant(1.0), 0.5)


# ----------------------------------------------------------------------
# h extraction
# ----------------------------------------------------------------------


def test_extract_h_zero():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    for v in (0.0, 1.0, -2.0):
        assert abs(extract_h(r, v)) <= 1e-10


def test_extract_h_scaled_sin():
    r = Realization1D(CTX, BoundaryFunction.scaled_sin(0.5))
    assert extract_h(r, 1.0) == pytest.approx(0.5 * math.sin(1.0), abs=1e-8)


def test_extract_h_equality_case():
    slope = CTX.lipschitz_bound
    r = Realization1D(CTX, BoundaryFunction.linear(slope))
    assert extract_h(r, 1.0) == pytest.approx(slope, abs=1e-8)


def test_extract_h_roundtrip_pointwise():
    r = Realization1D(CTX, BoundaryFunction.scaled_sin(1.2, frequency=0.8))
    for v in np.linspace(-3.0, 3.0, 25):
        assert extract_h(r, float(v)) == pytest.approx(r.g(v), abs=1e-8)


# ----------------------------------------------------------------------
# linear reduction to c u(b) = u(a)
# ----------------------------------------------------------------------


def test_linear_reduce_extremes():
    assert linear_reduce(CTX, CTX.lipschitz_bound) == pytest.approx(1.0, abs=1e-12)
    assert linear_reduce(CTX, -CTX.lipschitz_bound) == pytest.approx(-1.0, abs=1e-12)
    assert linear_reduce(CTX, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_linear_reduce_roundtrip_and_range():
    for g in np.linspace(-CTX.lipschitz_bound, CTX.lipschitz_bound, 21):
        c = linear_reduce(CTX, float(g))
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        assert linear_unreduce(CTX, c) == pytest.approx(g, abs=1e-10)
    with pytest.raises(OutOfRange):
        linear_reduce(CTX, CTX.lipschitz_bound * 1.01)
    with pytest.raises(OutOfRange):
        linear_unreduce(CTX, 1.01)


def test_admissible_has_the_relative_slack_of_linear_reduce():
    """On [-16, -14] the bound e^{a+b} is 9.36e-14, below an absolute slack
    of 1e-12: a slope of 5e-13 is out of range for ``linear_reduce`` and
    has a witness of negative pairing, so it is not admissible."""
    ctx = Interval(-16.0, -14.0)
    steep, flat = BoundaryFunction.linear(5e-13), BoundaryFunction.linear(4.5e-14)
    assert not steep.admissible(ctx)
    assert not Realization1D(ctx, steep).is_admissible
    with pytest.raises(OutOfRange):
        linear_reduce(ctx, 5e-13)
    assert accretivity_witness(ctx, steep, 1.0, 0.0).pairing < 0.0
    assert flat.admissible(ctx) and Realization1D(ctx, flat).is_admissible
    assert -1.0 <= linear_reduce(ctx, 4.5e-14) <= 1.0


def test_reduced_condition_matches_domain():
    # members of a linear realization satisfy c u(b) = u(a)
    g_val = 0.6
    r = Realization1D(CTX, BoundaryFunction.linear(g_val))
    c = linear_reduce(CTX, g_val)
    u = resolve(r, ExpPoly.polynomial([1.0, -0.4, 0.2]), 0.9)
    assert c * u(1.0) == pytest.approx(u(0.0), abs=1e-9)


# ----------------------------------------------------------------------
# falsification
# ----------------------------------------------------------------------


def test_witness_matches_closed_form():
    g = BoundaryFunction.linear(3.0)
    w = accretivity_witness(CTX, g, 1.0, 0.0)
    expected = (E**2 - 1.0) / 2.0 - 9.0 * (1.0 - math.exp(-2.0)) / 2.0
    assert w.pairing == pytest.approx(expected, abs=1e-10)
    assert w.pairing < 0.0
    r = Realization1D(CTX, g)
    assert in_domain(r, w.u) and in_domain(r, w.v)


def test_witness_equality_slope_is_not_a_violation():
    g = BoundaryFunction.linear(CTX.lipschitz_bound)
    with pytest.raises(NotAViolation):
        accretivity_witness(CTX, g, 1.0, 0.0)


def test_witness_slope_just_above_e():
    # 2.72 > e = 2.71828..., so this slope does violate the bound
    g = BoundaryFunction.linear(2.72)
    w = accretivity_witness(CTX, g, 1.0, 0.0)
    assert w.pairing < 0.0


def test_maximality_probe_defeats_outsiders():
    rng = np.random.default_rng(12)
    r = Realization1D(CTX, BoundaryFunction.scaled_sin(0.7))
    found = 0
    for _ in range(20):
        u = random_exppoly(rng)
        probe = maximality_probe(r, u)
        if probe.conclusive:
            found += 1
            assert probe.pairing < 0.0
            assert in_domain(r, probe.competitor)
    assert found > 0


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5)])
def test_falsification_pairings_match_the_l2_inner_product(interval):
    # both helpers read <d', d> as (d(b)^2 - d(a)^2)/2 from endpoint values
    ctx = Interval(*interval)
    rng = np.random.default_rng(13)
    r = Realization1D(ctx, BoundaryFunction.scaled_sin(0.7))
    witness = accretivity_witness(ctx, BoundaryFunction.linear(3.0 * ctx.lipschitz_bound), 1.0, -0.5)
    pairs = [(witness.pairing, witness.u - witness.v)]
    for _ in range(30):
        u = random_exppoly(rng)
        probe = maximality_probe(r, u)
        pairs.append((probe.pairing, u - probe.competitor))
    for pairing, diff in pairs:
        ref = l2_inner(differentiate(diff), diff, ctx)
        assert abs(pairing - ref) <= 1e-12 * abs(ref)


def test_maximality_probe_inconclusive_on_members():
    r = Realization1D(CTX, BoundaryFunction.constant(0.0))
    u = resolve(r, ExpPoly.constant(1.0), 1.0)
    assert not maximality_probe(r, u).conclusive


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5)])
def test_maximality_probe_decides_by_the_scalar_endpoint_rule(interval):
    """The probe is conclusive exactly where the scalar rule on ``u(a), u(b)``,
    ``|c_minus - g(c_plus)| <= tol (1 + |u(a)| + |u(b)|)``, fails, and its
    competitor has the bits of ``_pi_coeffs`` on those two floats: on random
    functions and on members pushed off the domain by ``d e^t`` for ``d``
    around the tolerance."""
    ctx = Interval(*interval)
    rng = np.random.default_rng(31)
    conclusive = {True: 0, False: 0}
    bound = ctx.lipschitz_bound
    for g in (BoundaryFunction.scaled_sin(0.7 * bound), BoundaryFunction.linear(0.5 * bound, 0.25)):
        r = Realization1D(ctx, g)
        assert r.is_admissible
        us = [random_exppoly(rng) for _ in range(20)]
        for _ in range(3):
            member = resolve(r, random_exppoly(rng), 0.5)
            us += [member + ExpPoly.exponential(1.0, d) for d in np.geomspace(1e-12, 1e-6, 13)]
        for u in us:
            ua, ub = _eval_pair(u, ctx.a, ctx.b)
            c1, cm = _pi_coeffs(ctx, ua, ub)
            outside = not abs(cm - g(c1)) <= 1e-9 * (1.0 + abs(ua) + abs(ub))
            probe = maximality_probe(r, u)
            assert probe.conclusive == outside == (not in_domain(r, u))
            conclusive[outside] += 1
            if outside:
                v = _without_modes(u, c1, cm) + ExpPoly.exponential(1.0, c1) + ExpPoly.exponential(-1.0, g(c1))
                assert repr(probe.competitor) == repr(v)
                assert probe.pairing < 0.0
            else:
                assert probe.competitor is u and probe.pairing == 0.0
    assert conclusive[True] > 10 and conclusive[False] > 10


# ----------------------------------------------------------------------
# resolve against its composed form
# ----------------------------------------------------------------------


RESOLVE_TAU = 0.5


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5)])
@pytest.mark.parametrize("tau_mu", [-1.1, -1.049, -1.0, -0.949, -0.9, 0.9, 1.0])
def test_resolve_matches_composed_solve(interval, tau_mu):
    """Three steps of the matrix step against the term algebra it replaced,
    within ``ROUNDING`` of the terms' magnitudes, on the cases that once
    pinned it bit for bit. Where the term algebra's result fails the 1e-9
    test, the step, which sums in another order, raises or lands within
    that bound of it; past the degree cap both raise the same error."""
    ctx = Interval(*interval)
    rng = np.random.default_rng([round(1000 * tau_mu) % 10_000, round(10 * (interval[0] + 3))])
    shift = 0.6 * RATE_MERGE_TOL

    def coeffs(n: int) -> tuple:
        c = rng.uniform(-1.5, 1.5, n)
        c[rng.random(n) < 0.25] = -0.0
        c[-1] = rng.uniform(0.5, 1.5)
        return tuple(float(x) for x in c)

    # terms on mu, next to the resonant rate -1/tau, and a rate-0 constant
    rhs = ExpPoly((
        (tau_mu / RESOLVE_TAU, coeffs(int(rng.integers(1, 7)))),
        (-1.0 / RESOLVE_TAU + shift, coeffs(2)),
        (0.0, (-0.0, 1.0)),
    ))
    # within the Lipschitz bound e^{a+b}, which is below 1 on [-2, -0.5]
    scale = min(1.0, ctx.lipschitz_bound)
    for g in (
        BoundaryFunction.linear(0.5 * scale),
        BoundaryFunction(lambda c: 0.7 * scale * math.tanh(c), 0.7 * scale),
    ):
        realization = Realization1D(ctx, g)
        f = rhs
        for _ in range(3):
            try:
                ref, member = composed_resolve(realization, f, RESOLVE_TAU)
            except ValueError as exc:  # resonant steps can pass the degree cap
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    resolve(realization, f, RESOLVE_TAU)
                break
            try:
                out = resolve(realization, f, RESOLVE_TAU)
            except RootNotFound:
                assert not member
                break
            assert l2_norm(out - ref, ctx) <= ROUNDING * term_majorant((f, ref), ctx)
            if not member:
                break
            f = out
