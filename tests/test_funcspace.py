import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maccretive.funcspace import (
    DEGREE_CAP,
    RATE_MERGE_TOL,
    ExpBasis,
    ExpPoly,
    Interval,
    _eval_pair,
    _merge,
    _state_norms,
    absorb_rate_shift,
    antiderivative,
    differentiate,
    graph_inner,
    l2_inner,
    l2_norm,
)

E = math.e
UNIT = Interval(0.0, 1.0)


def simpson_inner(f: ExpPoly, g: ExpPoly, iv: Interval, n: int = 40_001) -> float:
    """Independent quadrature oracle (composite Simpson)."""
    t = np.linspace(iv.a, iv.b, n)
    y = np.array([f(x) * g(x) for x in t])
    h = (iv.b - iv.a) / (n - 1)
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
rate = st.integers(min_value=-2, max_value=2).map(float)


@st.composite
def exppolys(draw, max_terms: int = 3, max_degree: int = 3) -> ExpPoly:
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n):
        mu = draw(rate)
        deg = draw(st.integers(min_value=0, max_value=max_degree))
        coeffs = [draw(coeff) for _ in range(deg + 1)]
        terms.append((mu, coeffs))
    return ExpPoly(tuple(terms))


# ----------------------------------------------------------------------
# construction and normalisation
# ----------------------------------------------------------------------


def test_equal_rates_merge():
    f = ExpPoly(((1.0, (1.0,)), (1.0, (2.0, 1.0))))
    assert f.terms == ((1.0, (3.0, 1.0)),)


def test_zero_polynomials_dropped():
    f = ExpPoly(((2.0, (0.0, 0.0)), (0.0, (1.0,))))
    assert f.terms == ((0.0, (1.0,)),)
    assert ExpPoly(((1.0, (1.0,)),)) - ExpPoly.exponential(1.0) == ExpPoly.zero()
    assert (0.0 * f).is_zero
    assert (1e-200 * ExpPoly(((0.0, (1.0, 1e-200)),))).terms == ((0.0, (1e-200,)),)


def test_degree_cap_enforced():
    ExpPoly(((0.0, tuple([0.0] * 64 + [1.0])),))  # degree 64 is allowed
    with pytest.raises(ValueError):
        ExpPoly(((0.0, tuple([0.0] * 65 + [1.0])),))


def test_interval_requires_order():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


# ----------------------------------------------------------------------
# differentiate / evaluate
# ----------------------------------------------------------------------


def test_exp_is_derivative_fixed_point():
    f = ExpPoly.exponential(1.0)
    assert differentiate(f) == f


def test_product_rule_on_t_exp_minus_t():
    f = ExpPoly(((-1.0, (0.0, 1.0)),))  # t * e^{-t}
    df = differentiate(f)
    assert df == ExpPoly(((-1.0, (1.0, -1.0)),))  # (1 - t) e^{-t}


def test_constant_derivative_vanishes():
    assert differentiate(ExpPoly.constant(1.0)).is_zero


def test_evaluate_examples():
    f = ExpPoly(((-1.0, (0.0, 1.0)),))
    assert f(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ExpPoly.exponential(1.0)(0.0) == 1.0
    g = ExpPoly.constant(1.0) - ExpPoly.exponential(-1.0, E / (E + 1))
    assert g(0.0) == pytest.approx(1.0 / (E + 1), abs=1e-15)


# ----------------------------------------------------------------------
# inner products: frozen closed forms
# ----------------------------------------------------------------------


def test_l2_inner_constants():
    one = ExpPoly.constant(1.0)
    assert l2_inner(one, one, UNIT) == pytest.approx(1.0, abs=1e-15)


def test_l2_inner_exp_squared():
    f = ExpPoly.exponential(1.0)
    assert l2_inner(f, f, UNIT) == pytest.approx((E**2 - 1) / 2, rel=1e-14)


def test_l2_inner_opposite_rates():
    f = ExpPoly.exponential(1.0)
    g = ExpPoly.exponential(-1.0)
    assert l2_inner(f, g, UNIT) == pytest.approx(1.0, rel=1e-14)


def test_graph_inner_kernel_orthogonality():
    f = ExpPoly.exponential(1.0)
    g = ExpPoly.exponential(-1.0)
    assert graph_inner(f, g, UNIT) == pytest.approx(0.0, abs=1e-13)
    one = ExpPoly.constant(1.0)
    assert graph_inner(one, one, UNIT) == pytest.approx(1.0, abs=1e-14)
    assert graph_inner(f, f, UNIT) == pytest.approx(E**2 - 1, rel=1e-14)


@pytest.mark.parametrize(
    "iv",
    [UNIT, Interval(-1.0, 2.0), Interval(-2.5, -0.5), Interval(0.3, 0.9)],
)
def test_l2_inner_matches_quadrature(iv):
    rng = np.random.default_rng(7)
    for _ in range(8):
        f = ExpPoly(
            tuple(
                (float(rng.integers(-2, 3)), tuple(rng.uniform(-2, 2, size=3)))
                for _ in range(2)
            )
        )
        g = ExpPoly(
            tuple(
                (float(rng.integers(-2, 3)), tuple(rng.uniform(-2, 2, size=2)))
                for _ in range(2)
            )
        )
        exact = l2_inner(f, g, iv)
        approx = simpson_inner(f, g, iv)
        assert exact == pytest.approx(approx, rel=1e-9, abs=1e-9)


def test_high_degree_integral_is_stable():
    # Degrees far beyond the naive recurrence's stability range.
    f = ExpPoly(((2.0, tuple([0.0] * 49 + [1.0])),))  # t^49 e^{2t}
    exact = l2_inner(f, f, UNIT)  # integral of t^98 e^{4t}
    approx = simpson_inner(f, f, UNIT, n=200_001)
    assert exact == pytest.approx(approx, rel=1e-10)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(f=exppolys(), g=exppolys(), h=exppolys(), s=coeff)
def test_bilinear_and_symmetric(f, g, h, s):
    lhs = l2_inner(f + s * g, h, UNIT)
    rhs = l2_inner(f, h, UNIT) + s * l2_inner(g, h, UNIT)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale
    sym = l2_inner(h, f, UNIT) - l2_inner(f, h, UNIT)
    assert abs(sym) <= 1e-12 * (1.0 + abs(l2_inner(f, h, UNIT)))


@settings(max_examples=150, deadline=None)
@given(f=exppolys())
def test_fundamental_theorem(f):
    one = ExpPoly.constant(1.0)
    lhs = l2_inner(differentiate(f), one, UNIT)
    rhs = f(1.0) - f(0.0)
    assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


@settings(max_examples=150, deadline=None)
@given(f=exppolys(), g=exppolys())
def test_integration_by_parts(f, g):
    lhs = l2_inner(differentiate(f), g, UNIT) + l2_inner(f, differentiate(g), UNIT)
    rhs = f(1.0) * g(1.0) - f(0.0) * g(0.0)
    assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


@settings(max_examples=100, deadline=None)
@given(f=exppolys())
def test_graph_dominates_l2(f):
    low = l2_inner(f, f, UNIT)
    high = graph_inner(f, f, UNIT)
    assert low >= -1e-12
    assert high >= low - 1e-12 * (1.0 + abs(high))


@settings(max_examples=100, deadline=None)
@given(f=exppolys())
def test_antiderivative_inverts_differentiate(f):
    g = differentiate(antiderivative(f))
    assert l2_norm(g - f, UNIT) <= 1e-11 * (1.0 + l2_norm(f, UNIT))


def test_absorb_rate_shift_matches_exponential():
    coeffs = absorb_rate_shift((1.0, 2.0), 0.07, 1.0)
    f = ExpPoly(((0.0, coeffs),))
    g = ExpPoly(((0.07, (1.0, 2.0)),))
    for t in np.linspace(0.0, 1.0, 11):
        assert f(t) == pytest.approx(g(t), abs=1e-15)


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------


def test_json_roundtrip():
    f = ExpPoly(((1.5, (1.0, -2.0)), (0.0, (3.0,))))
    assert ExpPoly.from_jsonable(f.to_jsonable()) == f
    iv = Interval(-1.0, 2.0)
    assert Interval.from_jsonable(iv.to_jsonable()) == iv


# ----------------------------------------------------------------------
# kernels against their reference forms
# ----------------------------------------------------------------------


def reference_terms(terms) -> tuple:
    """Normal form as the fully normalising constructor computes it."""
    by_rate = []
    for rate, coeffs in sorted(terms, key=lambda t: t[0]):
        rate = float(rate)
        coeffs = list(coeffs)
        if by_rate and abs(rate - by_rate[-1][0]) <= RATE_MERGE_TOL:
            acc = by_rate[-1][1]
            if len(coeffs) > len(acc):
                acc.extend([0.0] * (len(coeffs) - len(acc)))
            for k, c in enumerate(coeffs):
                acc[k] += c
        else:
            by_rate.append((rate, coeffs))
    out = []
    for rate, coeffs in by_rate:
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            continue
        if len(coeffs) - 1 > DEGREE_CAP:
            raise ValueError("degree cap")
        out.append((rate, tuple(float(c) for c in coeffs)))
    return tuple(out)


def reference_differentiate(f: ExpPoly) -> tuple:
    out = []
    for rate, coeffs in f.terms:
        n = len(coeffs)
        new = [0.0] * n
        for k in range(n):
            new[k] += rate * coeffs[k]
            if k + 1 < n:
                new[k] += (k + 1) * coeffs[k + 1]
        out.append((rate, new))
    return reference_terms(out)


def reference_conv(p, q) -> tuple:
    """Product of two ascending coefficient lists, summed in ascending ``i``."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def scaled_terms(f: ExpPoly, s: float) -> tuple:
    """Terms of ``s * f`` before normalisation; ``s = -1.0`` gives ``-f``."""
    return tuple((rate, tuple(s * c for c in coeffs)) for rate, coeffs in f.terms)


def same(x, y) -> bool:
    """Bit-for-bit equality, telling ``-0.0`` from ``0.0``."""
    return repr(x) == repr(y)


# integer rates moved by multiples of 0.4e-14, so some merge and some do not
near_rate = st.tuples(
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-3, max_value=3)
).map(lambda p: p[0] + p[1] * 0.4 * RATE_MERGE_TOL)
coeff_or_zero = st.one_of(st.just(0.0), st.just(-0.0), coeff)
KERNEL_INTERVALS = [(0.0, 1.0), (-1.2, 0.9), (-2.0, -0.5)]


@st.composite
def high_degree_exppolys(draw) -> ExpPoly:
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        deg = draw(st.integers(min_value=0, max_value=DEGREE_CAP))
        coeffs = draw(st.lists(coeff_or_zero, min_size=deg + 1, max_size=deg + 1))
        terms.append((draw(near_rate), coeffs))
    return ExpPoly(tuple(terms))


@settings(max_examples=100, deadline=None)
@given(
    f=high_degree_exppolys(),
    g=high_degree_exppolys(),
    s=st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e300]), coeff),
)
def test_trusted_results_match_normalising_constructor(f, g, s):
    assert same((-f).terms, reference_terms(scaled_terms(f, -1.0)))
    assert same((s * f).terms, reference_terms(scaled_terms(f, s)))
    assert same(differentiate(f).terms, reference_differentiate(f))
    assert same((f + g).terms, reference_terms(f.terms + g.terms))
    assert same((f - g).terms, reference_terms(f.terms + scaled_terms(g, -1.0)))
    prods = [
        (r1 + r2, reference_conv(c1, c2)) for r1, c1 in f.terms for r2, c2 in g.terms
    ]
    try:
        expected = reference_terms(prods)
    except ValueError:
        with pytest.raises(ValueError):
            f * g
    else:
        assert same((f * g).terms, expected)


def test_pairing_beyond_the_float_range_is_not_finite():
    # e^{800 t} t^k has integrals beyond the float range on [0, 1]
    zeros = tuple(1.0 if k % 3 == 0 else 0.0 for k in range(DEGREE_CAP + 1))
    f = ExpPoly(((400.0, zeros),))
    g = ExpPoly(((0.0, (1.0,)), (400.0, zeros)))
    assert not math.isfinite(l2_inner(f, g, UNIT))
    assert not math.isfinite(graph_inner(f, g, UNIT))


def _moment_from_zero(k: int, nu: float, length: float):
    """``int_0^length r**k e^{nu r} dr`` through Kummer's function 1F1."""
    L = mpmath.mpf(length)
    return L ** (k + 1) / (k + 1) * mpmath.hyp1f1(k + 1, k + 2, nu * L)


def _moment_pieces(k: int, nu: float, a: float, b: float) -> list:
    """The moment over ``[a, b]``, split at 0 so each piece keeps one sign."""
    pieces = []
    if a < 0.0:
        pieces.append(
            (-1) ** k
            * (_moment_from_zero(k, -nu, -a) - _moment_from_zero(k, -nu, -min(b, 0.0)))
        )
    if b > 0.0:
        pieces.append(_moment_from_zero(k, nu, b) - _moment_from_zero(k, nu, max(a, 0.0)))
    return pieces


@functools.cache
def _exact_moments(nu: float, a: float, b: float) -> tuple:
    """``int_a^b t**k e^{nu t} dt`` and ``int_a^b |t|**k e^{nu t} dt`` for
    ``k <= 2 DEGREE_CAP``, at the working precision of ``mpmath``."""
    moments, magnitudes = [], []
    for k in range(2 * DEGREE_CAP + 1):
        pieces = _moment_pieces(k, nu, a, b)
        moments.append(sum(pieces))
        magnitudes.append(sum(abs(p) for p in pieces))
    return moments, magnitudes


def exact_l2_inner(f: ExpPoly, g: ExpPoly, iv: Interval) -> tuple:
    """``int f g`` over ``iv`` from the exact moments, and its rounding scale
    ``int M_f M_g``, ``M_f(t) = sum |c_k| |t|**k e^{mu t}`` over the terms of ``f``."""
    total = scale = mpmath.mpf(0)
    for r1, c1 in f.terms:
        for r2, c2 in g.terms:
            moments, magnitudes = _exact_moments(r1 + r2, iv.a, iv.b)
            y = [mpmath.mpf(c) for c in c2]
            abs_y = [abs(c) for c in y]
            for i, x in enumerate(c1):
                total += x * mpmath.fdot(y, moments[i : i + len(y)])
                scale += abs(x) * mpmath.fdot(abs_y, magnitudes[i : i + len(y)])
    return total, scale


# the moments' intervals and rates: sums of two rates below give every
# nu in -4..4 and +-0.5, up to t**128
REFERENCE_INTERVALS = [
    (0.0, 1.0), (0.0, 2.5), (-1.0, 1.0), (-3.0, 2.0), (-1.5, 0.0), (-2.0, -0.5), (-4.0, -1.0)
]


def _reference_polys() -> list:
    rng = np.random.default_rng(5)

    def poly(rates, degrees):
        return ExpPoly(tuple(
            (mu, tuple(rng.uniform(-2.0, 2.0, size=degree + 1)))
            for mu, degree in zip(rates, degrees)
        ))

    return [
        poly([-2.0, 0.5, 2.0], [DEGREE_CAP, 7, 20]),
        poly([-1.0, 0.0, 1.0], [3, DEGREE_CAP, 0]),
        poly([-0.5, 1.0], [40, 2]),
        ExpPoly.constant(1.0),
    ]


@pytest.mark.parametrize("a, b", REFERENCE_INTERVALS)
def test_pairings_match_50_digit_reference(a, b):
    iv = Interval(a, b)
    polys = _reference_polys()
    basis = ExpBasis.spanning(polys)
    table, d = basis.values(iv), basis.derivative()
    rows = basis.rows(polys)
    vals, d_vals = rows @ table, (rows @ d) @ table
    tol = 1e-13  # times int M_f M_g, the scale of the values' rounding
    with mpmath.workdps(50):
        for i, f in enumerate(polys):
            for j, g in enumerate(polys):
                exact, scale = exact_l2_inner(f, g, iv)
                d_exact, d_scale = exact_l2_inner(differentiate(f), differentiate(g), iv)
                graph_exact, graph_scale = exact + d_exact, scale + d_scale
                assert abs(l2_inner(f, g, iv) - exact) <= tol * scale, (i, j)
                assert abs(graph_inner(f, g, iv) - graph_exact) <= tol * graph_scale, (i, j)
                basis_l2 = vals[i] @ vals[j]
                assert abs(basis_l2 - exact) <= tol * scale, (i, j)
                basis_graph = basis_l2 + d_vals[i] @ d_vals[j]
                assert abs(basis_graph - graph_exact) <= tol * graph_scale, (i, j)


def _poly(rng, degrees, zeros: bool = False) -> ExpPoly:
    """One term per degree, at distinct rates; ``zeros`` mixes in ``+-0.0``."""
    terms = []
    for t, deg in enumerate(degrees):
        coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
        if zeros:
            coeffs[rng.random(deg + 1) < 0.3] = 0.0
            coeffs[rng.random(deg + 1) < 0.3] = -0.0
            coeffs[-1] = 1.5
        terms.append((0.5 * t - 1.0, tuple(coeffs)))
    return ExpPoly(tuple(terms))


def _random_sides(seed: int):
    """1-7 terms per side, degrees from 0 to ``DEGREE_CAP``."""
    rng = np.random.default_rng(seed)
    sides = []
    for _ in range(2):
        n_terms = int(rng.integers(1, 8))
        sides.append(_poly(rng, rng.integers(0, DEGREE_CAP + 1, size=n_terms), seed % 2 == 1))
    return sides


def _cut_sides(n1: int, g_degrees, zeros: bool = False):
    """One ``f`` term of ``n1`` coefficients against ``g``: ``n1 * sum(len)`` products."""
    rng = np.random.default_rng(n1 * 1000 + len(g_degrees))
    return _poly(rng, [n1 - 1], zeros), _poly(rng, g_degrees, zeros)


WIDE = (DEGREE_CAP,) * 7
# The names recall a numpy path that once took pairings of at least 512
# coefficient products per f term; the cases stay, as pairings of many
# shapes: one term against many, full degrees, signed zeros, empty sides.
PAIRING_CASES = {
    # products per f term: n1 * (coefficients of g)
    "at the cut, one term each": _cut_sides(64, [7]),  # 64 * 8
    "one below the cut": _cut_sides(7, [64, 7]),  # 7 * 73
    "one above the cut": _cut_sides(27, [18]),  # 27 * 19
    "at the cut, two g terms": _cut_sides(16, [15, 15]),
    "at the cut, with zeros": _cut_sides(8, [15, 15, 15, 15], zeros=True),
    "constant and wide g terms": _cut_sides(DEGREE_CAP + 1, [0, DEGREE_CAP, 0, 3]),
    "seven full-degree terms a side": (
        _poly(np.random.default_rng(1), WIDE), _poly(np.random.default_rng(2), WIDE, True)
    ),
    "empty f": (ExpPoly.zero(), _poly(np.random.default_rng(3), WIDE)),
    "empty g": (_poly(np.random.default_rng(4), WIDE), ExpPoly.zero()),
    "constant f": (ExpPoly.constant(-3.0), _poly(np.random.default_rng(5), WIDE)),
    **{f"random sides {seed}": _random_sides(seed) for seed in range(12)},
}
# shared across the cases, so their Gauss tables are made once and reused
WARM_INTERVALS = [Interval(a, b) for a, b in KERNEL_INTERVALS]


@functools.cache
def _float_moments(nu: float, a: float, b: float) -> tuple:
    """:func:`_exact_moments` rounded to floats, as two arrays."""
    with mpmath.workdps(50):
        moments, magnitudes = _exact_moments(nu, a, b)
        return np.array([float(m) for m in moments]), np.array([float(m) for m in magnitudes])


def fsum_l2_inner(f: ExpPoly, g: ExpPoly, iv: Interval) -> tuple:
    """:func:`exact_l2_inner` from the moments rounded to floats, each product
    ``c_i d_j M_{i+j}`` rounded twice and all summed exactly by ``math.fsum``:
    both are within ``2 eps`` of the scale ``int M_f M_g``."""
    products, magnitudes = [0.0], [0.0]
    for r1, c1 in f.terms:
        for r2, c2 in g.terms:
            moments, abs_moments = _float_moments(r1 + r2, iv.a, iv.b)
            x, y = np.array(c1), np.array(c2)
            hankel = np.add.outer(np.arange(len(x)), np.arange(len(y)))
            products.extend((np.outer(x, y) * moments[hankel]).ravel().tolist())
            magnitudes.extend((np.outer(abs(x), abs(y)) * abs_moments[hankel]).ravel().tolist())
    return math.fsum(products), math.fsum(magnitudes)


@pytest.mark.parametrize("case", list(PAIRING_CASES))
def test_pairings_across_the_batch_cut_match_reference(case):
    f, g = PAIRING_CASES[case]
    for (a, b), warm in zip(KERNEL_INTERVALS, WARM_INTERVALS):
        iv = Interval(a, b)
        exact, scale = fsum_l2_inner(f, g, iv)
        for x, y in ((f, g), (g, f)):
            result = l2_inner(x, y, iv)
            assert abs(result - exact) <= 1e-13 * scale, (iv, result, exact, scale)
            assert same(l2_inner(x, y, warm), result), iv


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0)])
@pytest.mark.parametrize("nu", [-720.0, -800.0, 800.0])
def test_steep_moments_match_50_digit_reference(a, b, nu):
    # the moment int t**k e^{nu t} is the pairing of t**k e^{nu t} with 1.
    # Beyond |nu| L ~ 709 it is beyond the float range, and the pairing is
    # not finite; within it, the pairing is within the rounding bound of
    # l2_norm's docstring: d = k, T = 2, c = 1, m = |nu|, relative to
    # int |t**k| e^{nu t}, which is |moment| on an interval of one sign
    iv, one = Interval(a, b), ExpPoly.constant(1.0)
    with mpmath.workdps(50):
        for k in range(4):
            exact = sum(_moment_pieces(k, nu, a, b))
            moment = l2_inner(ExpPoly(((nu, (0.0,) * k + (1.0,)),)), one, iv)
            if abs(exact) > sys.float_info.max:
                assert not math.isfinite(moment), (k, nu)
            else:
                bound = (2 * k + 2 + 5 + 3 * abs(nu)) * 2.0**-52
                assert abs(moment - exact) <= bound * abs(exact), (k, nu)


def test_pairings_of_a_steep_term_are_finite():
    # within the rounding bound of l2_norm's docstring: d = 0, T = 1, m = 800,
    # c = 1, and the terms' size E is 1 for f and 800 for f'
    f = ExpPoly.exponential(-800.0)
    eps = 2.0**-52
    norm_sq = 1 / 1600
    bound = 2 * (1 + 5 + 3 * 800) * eps / math.sqrt(norm_sq)
    assert l2_inner(f, f, UNIT) == pytest.approx(norm_sq, rel=bound)
    graph_sq = (1 + 800.0**2) / 1600
    graph_bound = 2 * (1 + 5 + 3 * 800) * eps * (1 + 800) / math.sqrt(graph_sq)
    assert graph_inner(f, f, UNIT) == pytest.approx(graph_sq, rel=graph_bound)


# ----------------------------------------------------------------------
# pairings as matrices over a shared basis
# ----------------------------------------------------------------------


def _basis_cases():
    rng = np.random.default_rng(13)
    rates = [-2.0, -1.0, 0.0, 1.0, 2.0, -10.0, 10.0]  # 10 = 1/tau at tau = 0.1
    polys = []
    for i, degree in enumerate((0, 1, 2, 7, 20, 40, DEGREE_CAP)):
        polys.append(ExpPoly(tuple(
            (rates[(3 * i + j) % len(rates)], tuple(rng.uniform(-2.0, 2.0, size=degree + 1 - j)))
            for j in range(min(3, degree + 1))
        )))
    polys += [
        ExpPoly.zero(),
        ExpPoly(((1.0, (0.5, -1.0)),)),
        # a rate within RATE_MERGE_TOL of another poly's: its own block
        ExpPoly(((1.0 + 0.5 * RATE_MERGE_TOL, (1.5, 0.25, -2.0)),)),
    ]
    return polys


@pytest.mark.parametrize("a, b", [(0.0, 1.5), (-1.0, 0.8), (-1.7, -0.6)])
def test_basis_pairings_match_the_scalar_pairings(a, b):
    iv = Interval(a, b)
    polys = _basis_cases()
    basis = ExpBasis.spanning(polys)
    assert [rate for rate, _ in basis.blocks] == [
        -10.0, -2.0, -1.0, 0.0, 1.0, 1.0 + 0.5 * RATE_MERGE_TOL, 2.0, 10.0
    ]
    assert max(size for _, size in basis.blocks) == DEGREE_CAP + 1
    rows = basis.rows(polys)
    table = basis.values(iv)
    d = basis.derivative()
    vals, d_vals = rows @ table, (rows @ d) @ table
    # the weighted node values of M_f = sum |c_k| |t|**k e^{mu t}, the scale
    # of the values' rounding
    mags, d_mags = np.abs(rows) @ np.abs(table), np.abs(rows @ d) @ np.abs(table)
    for f, x, dx, m, dm in zip(polys, vals, d_vals, mags, d_mags):
        for g, y, dy, n, dn in zip(polys, vals, d_vals, mags, d_mags):
            assert abs(x @ y - l2_inner(f, g, iv)) <= 1e-14 * (m @ n)
            assert abs(x @ y + dx @ dy - graph_inner(f, g, iv)) <= 1e-14 * (m @ n + dm @ dn)
            assert abs(dx @ y - l2_inner(differentiate(f), g, iv)) <= 1e-14 * (dm @ n)


def test_basis_rows_and_derivative():
    f = ExpPoly(((-1.0, (2.0,)), (0.5, (1.0, -3.0, 0.25))))
    g = ExpPoly(((0.5, (4.0,)),))
    basis = ExpBasis.spanning([f, g, ExpPoly.zero()])
    assert basis.blocks == ((-1.0, 1), (0.5, 3))
    assert basis.dim == 4
    rows = basis.rows([f, g, ExpPoly.zero()])
    assert rows.tolist() == [[2.0, 1.0, -3.0, 0.25], [0.0, 4.0, 0.0, 0.0], [0.0] * 4]
    # (t^k e^{mu t})' = mu t^k e^{mu t} + k t^(k-1) e^{mu t}
    assert basis.derivative().tolist() == [
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 1.0, 0.5, 0.0],
        [0.0, 0.0, 2.0, 0.5],
    ]
    assert basis.rows([differentiate(f)]).tolist() == (rows[:1] @ basis.derivative()).tolist()
    # f has the basis's largest block and rate, so its values are at the
    # nodes of its own norm
    iv = Interval(-0.5, 1.0)
    values = rows @ basis.values(iv)
    assert math.sqrt(values[0] @ values[0]) == pytest.approx(l2_norm(f, iv), rel=1e-14)
    assert ExpBasis.spanning([]).dim == 0


def test_merging_basis_rows_polys_ends_and_norms():
    near = 2.0 + 0.6 * RATE_MERGE_TOL
    f = ExpPoly(((-1.0, (2.0,)), (2.0, (1.0, -3.0))))
    g = ExpPoly(((near, (4.0, 0.0, 0.5)),))
    # rates within RATE_MERGE_TOL of the lowest of their group share its block
    basis = ExpBasis.merging({-1.0: 1, 2.0: 2, near: 3, 5.0: 2})
    assert basis.blocks == ((-1.0, 1), (2.0, 3), (5.0, 2))
    assert basis.positions.tolist() == [0, 0, 1, 2, 0, 1]
    rows = basis.rows([f, g])
    assert rows.tolist() == [[2.0, 1.0, -3.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.5, 0.0, 0.0]]
    back = basis.polys(rows)
    assert back[0].terms == f.terms
    assert back[1].terms == ((2.0, (4.0, 0.0, 0.5)),)
    iv = Interval(-0.5, 1.2)
    # endpoint values with the bits of Horner's rule on each function
    heads = basis.endpoint_heads(rows, iv.a, iv.b)
    for h, ends in zip(back, basis.endpoint_values(rows, basis.endpoint_exps(iv.a, iv.b), heads)):
        assert repr(ends.tolist()) == repr([h(iv.a), h(iv.b)])
    norms = _state_norms(rows, basis.values(iv))
    assert norms.tolist() == pytest.approx([l2_norm(h, iv) for h in back], rel=1e-14)
    # two functions side by side are one state
    both = _state_norms(rows.reshape(1, -1), basis.values(iv))[0]
    assert both == pytest.approx(math.hypot(*norms), rel=1e-14)
    # squares beyond the float range are summed rescaled; values that are not finite are inf
    assert _state_norms(1e200 * rows[:1], basis.values(iv))[0] == pytest.approx(1e200 * norms[0], rel=1e-14)
    assert _state_norms(np.array([[math.inf, 0, 0, 0, 0, 0]]), basis.values(iv)).tolist() == [math.inf]
    with pytest.raises(ValueError, match="exceeds cap"):
        ExpBasis([(0.0, DEGREE_CAP + 2)]).polys(np.ones((1, DEGREE_CAP + 2)))


# ----------------------------------------------------------------------
# the merge and the pruning rule against their earlier forms
# ----------------------------------------------------------------------


def earlier_merge(terms):
    """``_merge`` as it was before it learnt to skip copies, kept verbatim
    apart from inlining the trim."""
    by_rate = []
    for rate, coeffs in sorted(terms, key=lambda t: t[0]):
        coeffs = list(coeffs)
        if by_rate and abs(rate - by_rate[-1][0]) <= RATE_MERGE_TOL:
            acc = by_rate[-1][1]
            if len(coeffs) > len(acc):
                acc.extend([0.0] * (len(coeffs) - len(acc)))
            for k, c in enumerate(coeffs):
                acc[k] += c
        else:
            by_rate.append((rate, coeffs))
    out = []
    for rate, coeffs in by_rate:
        n = len(coeffs)
        while n and coeffs[n - 1] == 0.0:
            n -= 1
        if n:
            out.append((rate, tuple(coeffs[:n])))
    for _, coeffs in out:
        if len(coeffs) - 1 > DEGREE_CAP:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} exceeds cap {DEGREE_CAP}"
            )
    return tuple(out)


# a few rates, and chains 0.6e-14 apart: the second link of a chain merges
# into the first, the third is 1.2e-14 from the first and does not
merge_rate = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, -0.0, 1.0, 3.0]),
    st.tuples(st.sampled_from([-1.0, 0.0, 2.0]), st.integers(min_value=-3, max_value=3)).map(
        lambda p: p[0] + p[1] * 0.6 * RATE_MERGE_TOL
    ),
)


@st.composite
def merge_inputs(draw) -> list:
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        # short lists, and lists around the degree cap that may trim below it
        fill = draw(st.sampled_from([0, DEGREE_CAP - 3, DEGREE_CAP - 1]))
        coeffs = [draw(coeff)] * fill + draw(st.lists(coeff_or_zero, max_size=5))
        coeffs += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
        terms.append((draw(merge_rate), coeffs if draw(st.booleans()) else tuple(coeffs)))
    return terms


def _outcome(merge, terms):
    try:
        return repr(merge(terms))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(terms=merge_inputs())
def test_merge_matches_its_earlier_form(terms):
    before = repr(terms)
    expected = _outcome(earlier_merge, terms)
    assert _outcome(_merge, terms) == expected
    assert repr(terms) == before  # no caller's list is changed
    assert _outcome(_merge, tuple(terms)) == expected


@st.composite
def euler_exppolys(draw) -> ExpPoly:
    """Terms near rates 0 and +-2 (= +-1/tau at tau 0.5), within and just
    beyond the merge tolerance, with constants and signed zeros."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        centre = draw(st.sampled_from([0.0, 2.0, -2.0, 1.9, -0.3]))
        mu = centre + draw(st.integers(min_value=-2, max_value=2)) * 0.6 * RATE_MERGE_TOL
        deg = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=12)))
        coeffs = draw(st.lists(coeff_or_zero, min_size=deg + 1, max_size=deg + 1))
        terms.append((mu, coeffs))
    return ExpPoly(tuple(terms))


@settings(max_examples=100, deadline=None)
@given(
    f=st.one_of(euler_exppolys(), high_degree_exppolys()),
    which=st.integers(min_value=0, max_value=len(KERNEL_INTERVALS) - 1),
)
def test_endpoint_pairs_match_their_reference(f, which):
    iv = Interval(*KERNEL_INTERVALS[which])
    assert same(_eval_pair(f, iv.a, iv.b), (f(iv.a), f(iv.b)))
