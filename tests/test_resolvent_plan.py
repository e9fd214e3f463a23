"""The per-rate blocks of the implicit-Euler step.

Each block is compared with the term algebra it replaced
(``composed_step``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_step import ROUNDING, first_order_terms

from maccretive.derivative import _FirstOrderSolve
from maccretive.funcspace import DEGREE_CAP, ExpPoly

# ----------------------------------------------------------------------
# The per-rate blocks of the first-order solve
# ----------------------------------------------------------------------

RESONANCE_INTERVALS = [(0.0, 1.0), (-0.7, 1.3), (-2.0, -0.5), (0.25, 0.5)]
RESONANCE_TAUS = [0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.0]

# far enough inside the float range that no solve overflows
solve_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324, 1e100]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def first_order_cases(draw):
    """A rate on, near or away from the resonant rate of ``+tau`` (anchor a)
    or ``-tau`` (anchor b), and coefficients with signed and trailing zeros
    and degrees up to ``DEGREE_CAP``."""
    a, b = draw(st.sampled_from(RESONANCE_INTERVALS))
    tau = draw(st.sampled_from(RESONANCE_TAUS))
    sign = draw(st.sampled_from([1.0, -1.0]))
    # rates as the solvers meet them: -1/tau for +tau, and 1/tau for -tau
    resonant = -(1.0 / (sign * tau))
    mu = resonant * draw(st.sampled_from([1.0, 1.0, 0.93, 1.05, 0.5, 0.0, -1.0]))
    n = draw(st.one_of(st.integers(min_value=1, max_value=8), st.just(DEGREE_CAP + 1)))
    coeffs = draw(st.lists(solve_coeff, min_size=n, max_size=n))
    coeffs += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
    return mu, sign * tau, a if sign > 0 else b, max(abs(a), abs(b)), coeffs


@settings(max_examples=200, deadline=None)
@given(case=first_order_cases())
def test_first_order_blocks_match_the_term_solve(case):
    mu, tau, anchor, t_scale, coeffs = case
    block = _FirstOrderSolve(tau, anchor, t_scale).block(mu, len(coeffs))
    got = np.array(coeffs) @ block
    ((_, ref),) = first_order_terms(ExpPoly._trusted(((mu, tuple(coeffs)),)), tau, anchor, t_scale)
    ref = np.array(ref + [0.0] * (len(got) - len(ref)))
    # the term solve may end in zeros, which the block does not keep
    assert not ref[len(got):].any()
    # on the interval, where |t|**k <= reach**k: the Taylor shifts' terms
    # cancel, so a coefficient's rounding is on the scale of the largest
    reach = max(1.0, t_scale) ** np.arange(len(got))
    scale = np.max((np.abs(coeffs) @ np.abs(block)) * reach)
    # and the term solve rounds subnormal intermediates to 2**-1074, which its
    # recursion can multiply by up to the largest entry of the block
    underflow = 2.0**-1022 * np.max(np.abs(block) * reach)
    assert np.max(np.abs(got - ref[: len(got)]) * reach) <= ROUNDING * scale + underflow


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exact_resonance_raises_the_degree_by_one(sign):
    tau = sign * 0.3
    solve = _FirstOrderSolve(tau, -0.4, 1.0)
    resonant, near = -(1.0 / tau), -0.95 / tau
    growth = {mu: solve.growth(mu) for mu in (resonant, near, -0.5 / tau)}
    assert growth[resonant] == 1 and growth[near] > 1 and growth[-0.5 / tau] == 0
    # a block is the leading corner of every larger one, bit for bit
    for mu in (resonant, near, -0.5 / tau):
        big = _FirstOrderSolve(tau, -0.4, 1.0).block(mu, 12)
        for n in range(1, 12):
            small = _FirstOrderSolve(tau, -0.4, 1.0).block(mu, n)
            assert small.shape == (n, n + growth[mu])
            assert repr(big[:n, : small.shape[1]].tolist()) == repr(small.tolist())


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
def test_non_finite_resonant_data_give_non_finite_steps(interval, sign, coeffs):
    a, b = interval
    tau = sign * 0.5
    solve = _FirstOrderSolve(tau, a if sign > 0 else b, max(abs(a), abs(b)))
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array(coeffs) @ solve.block(-(1.0 / tau), len(coeffs))
    assert not np.isfinite(got).all()
