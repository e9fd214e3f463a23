"""Exact function algebra on a bounded interval.

Functions are finite sums of terms ``p(t) * exp(mu * t)`` with real
polynomial ``p``. The class is closed under addition, multiplication,
and differentiation, and every L2 pairing over an interval has a closed
form, so downstream identities can be checked to roundoff rather than
quadrature accuracy.

Definite integrals of ``t**k * exp(nu*t)`` are evaluated through two
positive-term series (an ascending exponential series for ``nu > 0``
and a lower-incomplete-gamma series for ``nu < 0``). Both are free of
cancellation, which keeps high polynomial degrees (as produced by long
implicit-Euler runs) at machine precision; the textbook
integration-by-parts recurrence loses all digits beyond degree ~20.
Each :class:`Interval` keeps these moments as one row per rate,
``[int_a^b t**k e^{nu t} dt for k = 0..n-1]``, grown on demand and
freed with the interval.

An L2 pairing is a running sum over term pairs of ``conv[k] * moment[k]``,
``conv`` being the product of the two coefficient lists. Once one term of
``f`` needs ``_BATCH_PRODUCTS`` coefficient products against all of
``g``, as the growing states of long implicit-Euler runs do, that term is
paired with every term of ``g`` at once in numpy. Every sum there adds
the same products in the same order as the Python loop, and its zero
pads add only ``+-0.0``, so the result is bit-identical. Smaller
pairings keep the loop, which is faster at their size.

Results that are normal by construction (negation, scaling,
differentiation, pruning) skip the public constructor's coercion and
merge through ``ExpPoly._trusted``; its invariant is that ``terms`` is
already exactly what ``ExpPoly(terms)`` would store. Sums whose terms
are already floats skip only the coercion and go through :func:`_merge`,
which reads its input without copying it unless two rates merge.

Every implicit-Euler step forms ``f - s*g'`` three times, and
:func:`_sub_scaled_derivative` does it in one pass and one merge. Each
fast path here is bit-identical to the composition it replaces, because
it performs the same floating-point operations in the same order and
only skips copies and re-checks of values that are already floats in
normal form: each coefficient of ``-(s*g')`` is summed from ``0.0`` as
:func:`differentiate` sums it, terms that trim to nothing are dropped
before rates are grouped, as the composed chain drops them, and
:func:`_eval_pair` runs the Horner loop of ``ExpPoly.__call__`` at both
endpoints at once. :func:`prune` on an interval inside ``[-1, 1]``
weighs each coefficient by ``|c|`` alone, since ``|c| * 1.0**k`` is
``|c|`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import add, itemgetter
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Interval",
    "ExpPoly",
    "differentiate",
    "antiderivative",
    "absorb_rate_shift",
    "l2_inner",
    "graph_inner",
    "l2_norm",
    "graph_norm",
    "prune",
]

#: Rates closer than this are merged into one term.
RATE_MERGE_TOL = 1e-14

#: Maximum polynomial degree per term. Resonant implicit-Euler steps
#: raise the degree by one each, so the cap must exceed the longest
#: supported trajectory (64 covers the 50-step acceptance runs).
DEGREE_CAP = 64

#: An ``f`` term of ``n1`` coefficients is paired with ``g`` in numpy
#: once ``n1 * (coefficients of g)`` reaches this; below it the Python
#: loop is faster.
_BATCH_PRODUCTS = 512

_SERIES_CUTOFF = 1e-18
_SERIES_MAX_TERMS = 100_000


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[a, b]`` with ``a < b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a < self.b):
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    # The four endpoint exponentials recur in every boundary formula;
    # computing them once per interval keeps constants bit-identical
    # across call sites.
    @cached_property
    def exp_a(self) -> float:
        return math.exp(self.a)

    @cached_property
    def exp_b(self) -> float:
        return math.exp(self.b)

    @cached_property
    def exp_neg_a(self) -> float:
        return math.exp(-self.a)

    @cached_property
    def exp_neg_b(self) -> float:
        return math.exp(-self.b)

    @cached_property
    def _moment_rows(self) -> dict:
        return {}

    def _moments(self, nu: float, n: int) -> list:
        """``[int_a^b t**k e^{nu t} dt for k < n]``, possibly longer.

        The row for ``nu`` is kept on the interval and extended when a
        longer one is asked for; entries are never recomputed.
        """
        row = self._moment_rows.setdefault(nu, [])
        for k in range(len(row), n):
            row.append(_power_exp_integral(k, nu, self.a, self.b))
        return row

    def to_jsonable(self) -> dict:
        return {"a": self.a, "b": self.b}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Interval":
        return cls(float(data["a"]), float(data["b"]))


def _trim(coeffs: Sequence[float]) -> tuple[float, ...]:
    """``coeffs`` without trailing zeros, as a tuple; an untrimmed tuple
    is returned as it is."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0.0:
        n -= 1
    return tuple(coeffs[:n])


def _trim_terms(terms) -> tuple:
    """Trim trailing zeros of each term and drop terms that become zero.

    Rates are left as they are, so a normal term list whose
    coefficients alone changed stays sorted and apart.
    """
    out = []
    for rate, coeffs in terms:
        trimmed = _trim(coeffs)
        if trimmed:
            out.append((rate, trimmed))
    return tuple(out)


def _normalise(terms: Iterable[tuple[float, Sequence[float]]]):
    """Coerce to floats, then :func:`_merge`."""
    return _merge(
        (float(rate), [float(c) for c in coeffs]) for rate, coeffs in terms
    )


_rate = itemgetter(0)


def _merge(terms: Iterable[tuple[float, Sequence[float]]]):
    """Sort by rate, merge close rates, trim, drop zeros, check the cap.

    Coefficients may come as lists or tuples and are never changed: a
    group's coefficients are copied into a new list only when a second
    term merges into them.
    """
    groups: list = []
    owned = False  # the last group's coefficients are a list made here
    for rate, coeffs in sorted(terms, key=_rate):
        if groups and abs(rate - groups[-1][0]) <= RATE_MERGE_TOL:
            lead, acc = groups[-1]
            if not owned:
                acc = list(acc)
                groups[-1] = (lead, acc)
                owned = True
            if len(coeffs) > len(acc):
                acc.extend([0.0] * (len(coeffs) - len(acc)))
            acc[: len(coeffs)] = map(add, acc, coeffs)
        else:
            groups.append((rate, coeffs))
            owned = False
    out = []
    for rate, coeffs in groups:
        trimmed = _trim(coeffs)
        if trimmed:
            if len(trimmed) - 1 > DEGREE_CAP:
                raise ValueError(
                    f"polynomial degree {len(trimmed) - 1} exceeds cap {DEGREE_CAP}"
                )
            out.append((rate, trimmed))
    return tuple(out)


@dataclass(frozen=True)
class ExpPoly:
    """Finite sum of ``p(t) * exp(mu*t)`` terms.

    ``terms`` maps each distinct rate ``mu`` to ascending polynomial
    coefficients. The empty term list is the zero function. Instances
    are immutable and normalised on construction: rates within
    ``RATE_MERGE_TOL`` are merged and zero polynomials are dropped.
    """

    terms: tuple[tuple[float, tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _normalise(self.terms))

    @classmethod
    def _trusted(cls, terms) -> "ExpPoly":
        """Wrap ``terms`` that are already in normal form, unchecked.

        Normal form: float rates sorted ascending and more than
        ``RATE_MERGE_TOL`` apart, each with a non-empty float
        coefficient tuple whose last entry is non-zero and whose degree
        is within ``DEGREE_CAP``.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls(())

    @classmethod
    def constant(cls, value: float) -> "ExpPoly":
        return cls(((0.0, (float(value),)),))

    @classmethod
    def exponential(cls, rate: float, scale: float = 1.0) -> "ExpPoly":
        """``scale * exp(rate * t)``."""
        return cls(((float(rate), (float(scale),)),))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "ExpPoly":
        """Plain polynomial with ascending ``coeffs``."""
        return cls(((0.0, tuple(float(c) for c in coeffs)),))

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(rate for rate, _ in self.terms)

    def __call__(self, t: float) -> float:
        total = 0.0
        for rate, coeffs in self.terms:
            p = 0.0
            for c in reversed(coeffs):
                p = p * t + c
            total += p * math.exp(rate * t)
        return total

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly._trusted(_merge(self.terms + other.terms))

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._trusted(
            tuple((rate, tuple(-c for c in coeffs)) for rate, coeffs in self.terms)
        )

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly._trusted(_merge(
            self.terms + tuple((rate, [-c for c in coeffs]) for rate, coeffs in other.terms)
        ))

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            prods = []
            for r1, c1 in self.terms:
                for r2, c2 in other.terms:
                    prods.append((r1 + r2, _conv(c1, c2)))
            return ExpPoly._trusted(_merge(prods))
        if isinstance(other, (int, float)):
            s = float(other)
            return ExpPoly._trusted(_trim_terms(
                (rate, [s * c for c in coeffs]) for rate, coeffs in self.terms
            ))
        return NotImplemented

    __rmul__ = __mul__

    # -- serialisation ------------------------------------------------

    def to_jsonable(self) -> list:
        return [
            {"rate": rate, "coeffs": list(coeffs)} for rate, coeffs in self.terms
        ]

    @classmethod
    def from_jsonable(cls, data: list) -> "ExpPoly":
        return cls(
            tuple(
                (float(item["rate"]), tuple(float(c) for c in item["coeffs"]))
                for item in data
            )
        )


def _conv(p: Sequence[float], q: Sequence[float]) -> tuple[float, ...]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def differentiate(f: ExpPoly) -> ExpPoly:
    """Derivative of ``f``, term by term through the product rule."""
    out = []
    for rate, coeffs in f.terms:
        n = len(coeffs)
        new = [0.0] * n
        for k in range(n):
            new[k] += rate * coeffs[k]
            if k + 1 < n:
                new[k] += (k + 1) * coeffs[k + 1]
        out.append((rate, new))
    return ExpPoly._trusted(_trim_terms(out))


def _sub_scaled_derivative(f: ExpPoly, s: float, g: ExpPoly) -> ExpPoly:
    """``f - s*g'`` in one pass over the terms of ``g`` and one merge.

    Bit-identical to ``f - s * differentiate(g)``: each coefficient is
    ``-(s*d)`` with ``d`` summed from ``0.0`` as :func:`differentiate`
    sums it, and a term that trims to nothing, such as the derivative of
    a constant, is dropped before :func:`_merge` groups rates, as the
    composed chain drops it; kept, it could lead a group and move its
    rate.
    """
    terms = list(f.terms)
    for rate, coeffs in g.terms:
        new = [
            -(s * (0.0 + rate * c + k * c_next))
            for k, c, c_next in zip(range(1, len(coeffs)), coeffs, coeffs[1:])
        ]
        new.append(-(s * (0.0 + rate * coeffs[-1])))
        trimmed = _trim(new)
        if trimmed:
            terms.append((rate, trimmed))
    return ExpPoly._trusted(_merge(terms))


def _eval_pair(f: ExpPoly, a: float, b: float) -> tuple[float, float]:
    """``(f(a), f(b))`` in one pass, with the arithmetic of ``ExpPoly.__call__``."""
    fa = fb = 0.0
    for rate, coeffs in f.terms:
        pa = pb = 0.0
        for c in reversed(coeffs):
            pa = pa * a + c
            pb = pb * b + c
        fa += pa * math.exp(rate * a)
        fb += pb * math.exp(rate * b)
    return fa, fb


def absorb_rate_shift(
    coeffs: Sequence[float], nu: float, t_scale: float, tol: float = 1e-18
) -> tuple[float, ...]:
    """Coefficients of ``p(t) * e^{nu*t}`` as a plain polynomial.

    Multiplies by the Taylor series of ``e^{nu*t}`` truncated once its
    terms fall below ``tol`` on ``|t| <= t_scale``. Used to merge a rate
    that sits within a small window of a resonant rate into the
    resonant term, where the lifted solve is stable; the truncation
    error is machine-negligible by construction.
    """
    taylor = [1.0]
    term = 1.0
    k = 0
    scale = max(t_scale, 1e-30)
    while abs(term) * scale ** k > tol:
        k += 1
        term *= nu / k
        taylor.append(term)
        if k > 60:  # pragma: no cover - |nu|*t_scale is kept small by callers
            raise ValueError("rate shift too large to absorb")
    return _conv(tuple(coeffs), tuple(taylor))


def antiderivative(f: ExpPoly, rate_tol: float = 1e-10) -> ExpPoly:
    """One antiderivative of ``f`` (integration constants set to zero).

    Terms whose rate is below ``rate_tol`` in magnitude integrate by the
    power rule; the rest solve ``nu*q + q' = p`` coefficient-wise.
    """
    out = []
    for nu, p in f.terms:
        if abs(nu) <= rate_tol:
            out.append((0.0, _poly_integral(p)))
        else:
            out.append((nu, _first_order_coeffs(p, 1.0, nu)))
    return ExpPoly(tuple(out))


def _horner(coeffs: Sequence[float], t: float) -> float:
    """Value at ``t`` of the polynomial with ascending ``coeffs``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_integral(p: Sequence[float], anchor: float = 0.0) -> list:
    """Antiderivative of the polynomial ``p`` that vanishes at ``anchor``."""
    q = [0.0] * (len(p) + 1)
    for k in range(1, len(p) + 1):
        q[k] = p[k - 1] / k
    if anchor:
        q[0] = -_horner(q[1:], anchor) * anchor
    return q


def _first_order_coeffs(p: Sequence[float], s: float, d: float) -> list:
    """Polynomial ``q`` with ``d*q + s*q' = p``, by back substitution.

    ``q_k = (p_k - s*(k+1)*q_{k+1}) / d``. With ``(s, d) = (1, nu)`` it
    gives ``(q e^{nu t})' = p e^{nu t}``; with ``(tau, 1 + tau*mu)`` the
    rate-``mu`` term of ``u + tau*u' = p e^{mu t}``.
    """
    n = len(p)
    q = [0.0] * n
    for k in range(n - 1, -1, -1):
        acc = p[k]
        if k + 1 < n:
            acc -= s * (k + 1) * q[k + 1]
        q[k] = acc / d
    return q


# ----------------------------------------------------------------------
# Exact integration
# ----------------------------------------------------------------------


def _series_ascending(k: int, nu: float, length: float) -> float:
    # sum_m nu^m L^(k+m+1) / (m! (k+m+1)); all contributions positive.
    total = 0.0
    numer = length ** (k + 1)
    m = 0
    hump = nu * length
    while True:
        contrib = numer / (k + m + 1)
        total += contrib
        if contrib <= total * _SERIES_CUTOFF and m > hump:
            return total
        m += 1
        numer *= nu * length / m
        if m > _SERIES_MAX_TERMS:  # pragma: no cover - defensive
            raise RuntimeError("integral series failed to converge")


def _series_gamma(k: int, nu: float, length: float) -> float:
    # nu < 0. Lower-incomplete-gamma form: every partial product is
    # positive, so no cancellation regardless of k or |nu|.
    x = -nu * length
    total = 0.0
    term = 1.0 / (k + 1)
    n = 0
    while True:
        total += term
        if term <= total * _SERIES_CUTOFF and n > x - k:
            break
        n += 1
        term *= x / (k + 1 + n)
        if n > _SERIES_MAX_TERMS:  # pragma: no cover - defensive
            raise RuntimeError("integral series failed to converge")
    return math.exp(nu * length) * length ** (k + 1) * total


def _from_zero(k: int, nu: float, length: float) -> float:
    """Integral of ``r**k * exp(nu*r)`` over ``[0, length]``, length >= 0."""
    if length == 0.0:
        return 0.0
    if nu == 0.0:
        return length ** (k + 1) / (k + 1)
    if nu > 0.0:
        return _series_ascending(k, nu, length)
    return _series_gamma(k, nu, length)


def _power_exp_integral(k: int, nu: float, a: float, b: float) -> float:
    """Integral of ``t**k * exp(nu*t)`` over ``[a, b]``.

    Split at zero so each piece reduces to an origin-based integral of
    a single power, avoiding the binomial cancellation a direct shift
    would introduce.
    """
    sign = -1.0 if k % 2 else 1.0
    if a >= 0.0:
        return _from_zero(k, nu, b) - _from_zero(k, nu, a)
    if b <= 0.0:
        return sign * (_from_zero(k, -nu, -a) - _from_zero(k, -nu, -b))
    return sign * _from_zero(k, -nu, -a) + _from_zero(k, nu, b)


def _coeff_rows(g: ExpPoly, width: int) -> np.ndarray:
    """The coefficient tuples of ``g`` as rows, zero-padded to ``width``."""
    rows = np.zeros((len(g.terms), width))
    for t, (_, coeffs) in enumerate(g.terms):
        rows[t, : len(coeffs)] = coeffs
    return rows


@np.errstate(over="ignore", invalid="ignore")  # silent like the loop's floats
def _batched_pairings(
    total: float,
    r1: float,
    c1: tuple[float, ...],
    g: ExpPoly,
    g_rows: np.ndarray,
    n2: int,
    interval: Interval,
) -> float:
    """``total`` plus the pairings of the term ``c1 e^{r1 t}`` with all of ``g``.

    ``g_rows`` holds the coefficients of ``g`` (at most ``n2`` each) with
    at least ``len(c1)`` zeros after each row. The arithmetic is that of
    the loop in :func:`l2_inner`, in its order:

    - ``products[t, i, j]`` is the exact product ``c1[i] * g_t[j]``;
    - reading each ``(n1, n1 + n2)`` block with row stride ``n1 + n2 - 1``
      moves row ``i`` right by ``i``, so ``skew[t, i, k]`` is
      ``c1[i] * g_t[k - i]`` or a zero pad, and a reduction over ``i``
      is ``_conv`` (numpy sums an axis that is not the contiguous one
      sequentially; the bit-for-bit pairing tests fail if it stops);
    - the running total is a cumulative sum from ``total`` over the
      products ``conv * moment``, g terms outer and ``k`` inner.

    The pads add only ``+-0.0``, which changes neither a nonzero sum nor
    a sum that started at ``+0.0``, and a zero ``conv[k]``, skipped by the
    loop, adds ``+-0.0`` too. So a finite result is bit-identical to the
    loop's; a non-finite one may differ and is left to the loop.
    """
    n1 = len(c1)
    t_g = len(g.terms)
    width = n1 + n2 - 1
    products = np.multiply(np.array(c1)[:, None], g_rows[:, None, : width + 1])
    skew = products.reshape(t_g, n1 * (width + 1))[:, : n1 * width]
    conv = np.add.reduce(skew.reshape(t_g, n1, width), axis=1)
    moments = np.zeros((t_g, width))
    for t, (r2, c2) in enumerate(g.terms):
        k = n1 + len(c2) - 1
        moments[t, :k] = interval._moments(r1 + r2, k)[:k]
    running = np.empty(t_g * width + 1)
    running[0] = total
    np.multiply(conv, moments, out=running[1:].reshape(t_g, width))
    return float(np.add.accumulate(running, out=running)[-1])


def l2_inner(f: ExpPoly, g: ExpPoly, interval: Interval) -> float:
    """Exact value of the pairing ``integral_a^b f*g dt``.

    An ``f`` term whose pairings with ``g`` take at least
    ``_BATCH_PRODUCTS`` coefficient products goes through
    :func:`_batched_pairings`, bit-identical to the loop below.
    """
    total = 0.0
    rows = interval._moment_rows
    g_size = 0
    for _, c2 in g.terms:
        g_size += len(c2)
    g_rows = None
    for r1, c1 in f.terms:
        if len(c1) * g_size >= _BATCH_PRODUCTS:
            if g_rows is None:
                n2 = max(len(c2) for _, c2 in g.terms)
                g_rows = _coeff_rows(g, n2 + max(len(c) for _, c in f.terms))
            batched = _batched_pairings(total, r1, c1, g, g_rows, n2, interval)
            if math.isfinite(batched):
                total = batched
                continue
        for r2, c2 in g.terms:
            conv = [0.0] * (len(c1) + len(c2) - 1)
            for i, x in enumerate(c1):
                for k, y in enumerate(c2, i):
                    conv[k] += x * y
            nu = r1 + r2
            row = rows.get(nu)
            if row is None or len(row) < len(conv):
                row = interval._moments(nu, len(conv))
            for c, m in zip(conv, row):
                if c != 0.0:
                    total += c * m
    return total


def graph_inner(f: ExpPoly, g: ExpPoly, interval: Interval) -> float:
    """H1 pairing: ``l2_inner(f, g) + l2_inner(f', g')``."""
    df = differentiate(f)
    dg = df if g is f else differentiate(g)
    return l2_inner(f, g, interval) + l2_inner(df, dg, interval)


def l2_norm(f: ExpPoly, interval: Interval) -> float:
    return math.sqrt(max(l2_inner(f, f, interval), 0.0))


def graph_norm(f: ExpPoly, interval: Interval) -> float:
    return math.sqrt(max(graph_inner(f, f, interval), 0.0))


def prune(f: ExpPoly, interval: Interval, rel_tol: float = 1e-13) -> ExpPoly:
    """Drop coefficients that are negligible relative to the largest.

    Coefficients are compared on the scale ``|c| * B**k`` with
    ``B = max(1, |a|, |b|)`` so that high powers are weighted by their
    actual reach on the interval.
    """
    base = max(1.0, abs(interval.a), abs(interval.b))
    if base == 1.0:  # every power is 1.0 and |c| * 1.0 is |c|, bit for bit
        reach = [list(map(abs, coeffs)) for _, coeffs in f.terms]
    else:
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
