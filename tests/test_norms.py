"""Accuracy of the Gauss-Legendre norms against mpmath integrals."""

import math

import mpmath
import numpy as np
import pytest

from maccretive.blockop import BlockRealization, BlockState, bd_space, state_l2_norm
from maccretive.derivative import DerivativeContext
from maccretive.evolution import evolve
from maccretive.funcspace import (
    DEGREE_CAP,
    ExpPoly,
    Interval,
    _NODE_COUNTS,
    _gauss_rule,
    _legendre_rule,
    l2_norm,
)
from maccretive.relations import ContractionMap

EPS = 2.0**-52


def mp_norm(polys, iv: Interval, dps: int = 60) -> float:
    """``sqrt(sum int_a^b f**2)`` by a ``dps``-digit mpmath quadrature of the
    functions, evaluated from their float coefficients without rounding."""
    with mpmath.workdps(dps):
        groups = [
            [(mpmath.mpf(rate), [mpmath.mpf(c) for c in reversed(coeffs)]) for rate, coeffs in f.terms]
            for f in polys
        ]

        def square(t):
            return sum(
                sum(mpmath.polyval(coeffs, t) * mpmath.exp(rate * t) for rate, coeffs in group) ** 2
                for group in groups
            )

        a, b = mpmath.mpf(iv.a), mpmath.mpf(iv.b)
        return float(mpmath.sqrt(mpmath.quad(square, [a, (a + b) / 2, b])))


def error_bound(f: ExpPoly, iv: Interval, nodes: int, exact: float) -> float:
    """The bound of ``l2_norm``'s docstring on its error for ``f``:
    ``(2d + T + 5 + 3mc) eps sqrt(2h) E + N eps / 2 ||f||``, with
    ``E = sum_i max (sum_k |c_ik| |t|^k) * max e^{mu_i t}`` over the interval."""
    reach = max(abs(iv.a), abs(iv.b))
    size = sum(
        sum(abs(c) * reach**k for k, c in enumerate(coeffs)) * math.exp(max(rate * iv.a, rate * iv.b))
        for rate, coeffs in f.terms
    )
    degree = max(len(coeffs) - 1 for _, coeffs in f.terms)
    steepest = max(abs(rate) for rate in f.rates) * reach
    scale = 2 * degree + len(f.terms) + 5 + 3 * steepest
    return scale * EPS * math.sqrt(iv.length) * size + nodes * EPS / 2 * exact


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.5)])
def test_rule_meets_its_bound_at_the_largest_degree_and_rates(a, b):
    # degree DEGREE_CAP at rates +-10, which tau = 0.1 gives the CLI's runs
    iv = Interval(a, b)
    rng = np.random.default_rng(7)
    f = ExpPoly(tuple((rate, tuple(rng.uniform(-1.0, 1.0, DEGREE_CAP + 1))) for rate in (-10.0, 0.0, 10.0)))
    assert _gauss_rule(DEGREE_CAP, 10.0 * iv.length / 2) == (96, 1)
    exact = mp_norm([f], iv)
    assert abs(l2_norm(f, iv) - exact) <= error_bound(f, iv, 96, exact)


@pytest.mark.parametrize("n", _NODE_COUNTS)
def test_legendre_rule_matches_numpy(n):
    nodes, weights = _legendre_rule(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 2 * EPS
    assert np.max(np.abs(weights / ref_weights - 1.0)) <= 1e-11
    assert abs(weights.sum() - 2.0) <= 8 * EPS


def test_rules_use_fewer_nodes_on_smaller_states():
    assert _gauss_rule(0, 0.0) == (16, 1)
    assert _gauss_rule(2, 1.0) == (16, 1)
    assert _gauss_rule(20, 5.0) == (48, 1)
    # beyond 96 nodes the interval is split into panels of 96
    assert _gauss_rule(DEGREE_CAP, 30.0) == (96, 4)
    assert _gauss_rule(DEGREE_CAP, 1e4) is None


def test_distances_of_a_block_run_match_a_60_digit_integral_and_fall():
    # seed-1 trajectories spec 9: block evolve with f, tau 0.1, on [0, 0.935];
    # its distances once rose at step 18 and read 0 at step 21
    iv = Interval(0.0, 0.935398449672983)
    ctx = DerivativeContext(iv)
    f = np.array([[-0.07083839011789468, -0.1848587166434625], [0.2948940752420749, -0.039973863013080015]])
    realization = BlockRealization.from_f(ctx, ContractionMap.from_matrix(bd_space(ctx), f))
    u0 = BlockState(ExpPoly.constant(1.1057279979275445),
                    ExpPoly.polynomial([0.36874368721373507, 0.6344140914699676, -1.3390119098589321]))
    v0 = BlockState(ExpPoly.polynomial([1.1575684802903248, -0.9622678836754924]),
                    ExpPoly.polynomial([1.2373566732852086, -0.8531462994515466]))
    run = evolve(realization, [(u0.u, u0.v), (v0.u, v0.v)], 0.1, 21)
    assert run.stops == [None, None]
    for step in range(15, 22):
        diff = run.basis.polys((run.states[step][0] - run.states[step][1]).reshape(2, -1))
        assert run.distances[step] == pytest.approx(mp_norm(diff, iv), rel=1e-9), step
    assert all(later < earlier for earlier, later in zip(run.distances[15:], run.distances[16:]))


def test_squares_that_overflow_or_underflow_are_summed_rescaled():
    iv = Interval(0.0, 1.0)
    big = ExpPoly.exponential(400.0)  # e^{800 t} overflows, e^{400 t} does not
    tiny = ExpPoly.polynomial([1e-200, -3e-200])  # its squares underflow
    # int_0^1 (1 - 3t)^2 dt = 1
    for f, exact in ((big, mp_norm([big], iv)), (tiny, 1e-200)):
        assert abs(l2_norm(f, iv) - exact) <= error_bound(f, iv, 2 * 96, exact)


def test_a_norm_whose_values_overflow_is_inf_not_nan():
    iv = Interval(0.0, 1.0)
    assert l2_norm(ExpPoly.exponential(800.0), iv) == math.inf
    # inf - inf at the nodes near t = 1 is nan there
    opposed = ExpPoly(((799.0, (-1.0,)), (800.0, (1.0,))))
    assert l2_norm(opposed, iv) == math.inf
    assert state_l2_norm(BlockState(ExpPoly.exponential(-800.0), ExpPoly.exponential(800.0)), iv) == math.inf


def test_zero_has_norm_zero():
    assert l2_norm(ExpPoly.zero(), Interval(0.0, 1.0)) == 0.0
    assert state_l2_norm(BlockState.zero(), Interval(-2.0, -1.0)) == 0.0


def test_a_state_beyond_every_rule_raises():
    with pytest.raises(ArithmeticError):
        l2_norm(ExpPoly.exponential(-1e5), Interval(0.0, 1.0))
