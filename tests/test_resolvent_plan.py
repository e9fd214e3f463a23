"""Per-tau resolvent plans and the exact shortcuts of the implicit-Euler step.

Each shortcut is compared bit for bit, by ``repr``, with the general
computation it replaces, and each plan with what a fresh realization
computes.
"""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maccretive import derivative
from maccretive.blockop import BlockRealization, BlockState, bd_space, block_resolve
from maccretive.derivative import (
    BoundaryFunction,
    DerivativeContext,
    Realization1D,
    _first_order_terms,
    resolve,
)
from maccretive.funcspace import (
    DEGREE_CAP,
    ExpPoly,
    Interval,
    _first_order_coeffs,
    _poly_integral,
    _trim_terms,
    absorb_rate_shift,
    prune,
)
from maccretive.impedance1d import ImpedanceK, impedance_realization
from maccretive.relations import ContractionMap, operator_norm

# ----------------------------------------------------------------------
# The exact-resonance shortcut of _first_order_terms
# ----------------------------------------------------------------------


def general_first_order_terms(f: ExpPoly, tau: float, anchor: float, t_scale: float) -> list:
    """``_first_order_terms`` without the shortcut: every resonant term goes
    through ``absorb_rate_shift`` -> ``_poly_integral`` -> ``absorb_rate_shift``."""
    sigma = 1.0 / tau
    out = []
    for mu, p in f.terms:
        alpha = 1.0 + tau * mu
        if abs(alpha) <= 0.1:
            beta = mu + sigma
            lifted = absorb_rate_shift(p, beta, t_scale)
            anchored = _poly_integral(lifted, anchor)
            q = [c / tau for c in absorb_rate_shift(anchored, -beta, t_scale)]
        else:
            q = _first_order_coeffs(p, tau, alpha)
        out.append((mu, q))
    return out


RESONANCE_INTERVALS = [(0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5), (0.25, 0.5)]
RESONANCE_TAUS = [0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.0]

finite_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324, 1e300]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def resonant_cases(draw):
    """A term on the resonant rate of ``+tau`` (anchor a) or ``-tau``
    (anchor b), coefficients with signed and trailing zeros, degrees up to
    ``DEGREE_CAP``, next to a term away from resonance."""
    a, b = draw(st.sampled_from(RESONANCE_INTERVALS))
    tau = draw(st.sampled_from(RESONANCE_TAUS))
    sign = draw(st.sampled_from([1.0, -1.0]))
    n = draw(st.one_of(st.integers(min_value=1, max_value=8), st.just(DEGREE_CAP + 1)))
    coeffs = draw(st.lists(finite_coeff, min_size=n, max_size=n))
    coeffs += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
    # rates as the solvers meet them: -1/tau for +tau, and 1/tau for -tau
    resonant = -(1.0 / (sign * tau))
    terms = [(resonant, tuple(coeffs)), (resonant + 7.0, (1.0, -0.0, 2.0))]
    return ExpPoly._trusted(tuple(sorted(terms))), sign * tau, a if sign > 0 else b, max(abs(a), abs(b))


def _shift_calls(monkeypatch) -> list:
    calls = []

    def counting(coeffs, nu, t_scale, tol=1e-18):
        calls.append(nu)
        return absorb_rate_shift(coeffs, nu, t_scale, tol)

    monkeypatch.setattr(derivative, "absorb_rate_shift", counting)
    return calls


@settings(max_examples=200, deadline=None)
@given(case=resonant_cases())
def test_exact_resonance_shortcut_matches_general_path(case):
    f, tau, anchor, t_scale = case
    assert (f.terms[0][0] + 1.0 / tau == 0.0) or (f.terms[1][0] + 1.0 / tau == 0.0)
    expected = repr(general_first_order_terms(f, tau, anchor, t_scale))
    with pytest.MonkeyPatch.context() as m:
        calls = _shift_calls(m)
        got = repr(_first_order_terms(f, tau, anchor, t_scale))
    assert got == expected
    if calls:  # only data whose solution overflows leave the shortcut
        assert "inf" in got or "nan" in got


@pytest.mark.parametrize("interval", RESONANCE_INTERVALS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, math.inf),
        (-math.inf, 2.0, -0.0),
        (math.nan,),
        (0.5, math.nan, 0.0),
        (1e308, 1e308),  # finite data whose anchored integral overflows
    ],
)
def test_non_finite_resonant_data_keep_the_general_path(monkeypatch, interval, sign, coeffs):
    a, b = interval
    tau = sign * 0.5
    anchor, t_scale = (a if sign > 0 else b), max(abs(a), abs(b))
    f = ExpPoly._trusted(((-(1.0 / tau), coeffs),))
    expected = repr(general_first_order_terms(f, tau, anchor, t_scale))
    calls = _shift_calls(monkeypatch)
    assert repr(_first_order_terms(f, tau, anchor, t_scale)) == expected
    # the shortcut is tried first, then both shifts of the general path run
    assert calls == [0.0, -0.0]
    assert "inf" in expected or "nan" in expected


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_finite_resonant_data_skip_both_shifts(monkeypatch, sign):
    tau = sign * 0.3
    f = ExpPoly._trusted(((-(1.0 / tau), (-0.0, 1.5, 0.0, -2.0, 0.0, -0.0)),))
    expected = repr(general_first_order_terms(f, tau, -0.4, 1.0))
    calls = _shift_calls(monkeypatch)
    assert repr(_first_order_terms(f, tau, -0.4, 1.0)) == expected
    assert calls == []


# ----------------------------------------------------------------------
# prune against its earlier body
# ----------------------------------------------------------------------


def earlier_prune(f: ExpPoly, interval: Interval, rel_tol: float = 1e-13) -> ExpPoly:
    base = max(1.0, abs(interval.a), abs(interval.b))
    reach = [[abs(c) * base**k for k, c in enumerate(coeffs)] for _, coeffs in f.terms]
    scale = max([0.0, *chain.from_iterable(reach)])
    if scale == 0.0:
        return ExpPoly.zero()
    cut = rel_tol * scale
    kept = [
        (rate, [c if r > cut else 0.0 for c, r in zip(coeffs, row)])
        for (rate, coeffs), row in zip(f.terms, reach)
    ]
    return ExpPoly._trusted(_trim_terms(kept))


# base == 1 (inside [-1, 1], endpoints at +-1) and base > 1
PRUNE_INTERVALS = [(0.0, 1.0), (-1.0, 1.0), (-0.6, -0.1), (-0.9, 0.4), (-1.2, 0.9), (-2.0, -0.5), (0.5, 1.5)]


@st.composite
def prunable_exppolys(draw) -> ExpPoly:
    terms = []
    for rate in draw(st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0]), unique=True, max_size=4)):
        n = draw(st.integers(min_value=1, max_value=DEGREE_CAP + 1))
        coeffs = draw(st.lists(
            st.one_of(finite_coeff, st.floats(min_value=-1e-12, max_value=1e-12)),
            min_size=n, max_size=n,
        ))
        if coeffs[-1] == 0.0:
            coeffs[-1] = 1.0
        terms.append((rate, tuple(coeffs)))
    return ExpPoly._trusted(tuple(terms))


@settings(max_examples=100, deadline=None)
@given(
    f=prunable_exppolys(),
    which=st.integers(min_value=0, max_value=len(PRUNE_INTERVALS) - 1),
    rel_tol=st.sampled_from([1e-13, 1e-6, 0.5]),
)
def test_prune_matches_its_earlier_body(f, which, rel_tol):
    iv = Interval(*PRUNE_INTERVALS[which])
    assert repr(prune(f, iv, rel_tol).terms) == repr(earlier_prune(f, iv, rel_tol).terms)


# ----------------------------------------------------------------------
# Plans are per (realization, tau)
# ----------------------------------------------------------------------

BLOCK_U0 = BlockState(
    ExpPoly(((-1.0, (0.5,)), (0.0, (1.0, -0.25)), (1.0, (1.0,)))),
    ExpPoly(((0.0, (0.5, 0.0, 0.75)), (2.0, (-0.2,)))),
)
U0_1D = ExpPoly(((0.0, (1.0, -0.5, 0.25)), (1.0, (0.3,))))


def _block_realizations(ctx: DerivativeContext) -> list:
    space = bd_space(ctx)
    rng = np.random.default_rng(5)
    maps = [rng.standard_normal((2, 2)) for _ in range(2)]
    return [
        impedance_realization(ctx, ImpedanceK(((1.0, 0.0), (0.0, 1.0)))),
        impedance_realization(ctx, ImpedanceK(((2.0, 0.5), (-0.5, 0.3)))),
        *(BlockRealization.from_f(
            ctx, ContractionMap.from_matrix(space, 0.9 * m / operator_norm(space, m))
        ) for m in maps),
        BlockRealization.from_f(
            ctx, ContractionMap(space, lambda z: 0.7 * np.tanh(z), lipschitz_cert=0.7)
        ),
    ]


def _fresh_block_step(real: BlockRealization, state: BlockState, tau: float) -> str:
    return repr(block_resolve(BlockRealization(real.ctx, real.description), state, tau))


def _fresh_1d_step(real: Realization1D, u: ExpPoly, tau: float) -> str:
    return repr(resolve(Realization1D(real.ctx, real.g), u, tau))


def test_block_plans_are_per_realization_and_tau():
    ctx = DerivativeContext(Interval(-0.5, 1.0))
    reals = _block_realizations(ctx)
    states = {id(r): BLOCK_U0 for r in reals}
    # several realizations on one interval, interleaved at one tau
    for _ in range(3):
        for real in reals:
            out = block_resolve(real, states[id(real)], 0.3)
            assert repr(out) == _fresh_block_step(real, states[id(real)], 0.3)
            states[id(real)] = out
    # one realization, alternating between two taus
    real, state = reals[1], BLOCK_U0
    for tau in (0.2, 0.5, 0.2, 0.5, 0.2):
        out = block_resolve(real, state, tau)
        assert repr(out) == _fresh_block_step(real, state, tau)
        state = out
    assert set(real._plans) == {0.2, 0.3, 0.5}
    assert real._resolvent_plan(0.2) is real._resolvent_plan(0.2)


def test_1d_plans_are_per_realization_and_tau():
    g_values = [BoundaryFunction.linear(0.5), BoundaryFunction.scaled_sin(0.4, 2.0)]
    reals = [
        Realization1D(DerivativeContext(Interval(a, b)), g)
        for a, b in [(0.0, 1.0), (-0.7, 0.2)]
        for g in g_values
    ]
    states = {id(r): U0_1D for r in reals}
    # realizations on one interval and on two, interleaved at one tau
    for _ in range(3):
        for real in reals:
            out = resolve(real, states[id(real)], 0.25)
            assert repr(out) == _fresh_1d_step(real, states[id(real)], 0.25)
            states[id(real)] = out
    # one realization, alternating between two taus
    real, u = reals[3], U0_1D
    for tau in (0.1, 0.4, 0.1, 0.4, 1.0):
        out = resolve(real, u, tau)
        assert repr(out) == _fresh_1d_step(real, u, tau)
        u = out
    assert set(real._plans) == {0.1, 0.25, 0.4, 1.0}
