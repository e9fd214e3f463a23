"""Exact function algebra on a bounded interval.

Functions are finite sums of terms ``p(t) * exp(mu * t)`` with real
polynomial ``p``. The class is closed under addition, multiplication,
and differentiation, so downstream identities are checked on exact
representations and only the integrals over the interval are numerical.

Every integral is one rule: a Gauss-Legendre sum of values at nodes,
with a node count chosen from the degree, the largest rate and the
length of the interval so that the quadrature error is below the
rounding of the values it sums (the bound is in :func:`l2_norm`'s
docstring). The norms (:func:`l2_norm`, :func:`graph_norm`) sum the
squares of the weighted values and the pairings (:func:`l2_inner`,
:func:`graph_inner`) their products, so their rounding is on the scale
of the terms themselves and not of their pairwise integrals: terms that
cancel on the interval cost no more than that. Each interval keeps the
node tables it has used, ``sqrt(w_j) t_j**k e^{mu t_j}`` per rate
``mu``, so the values of a term are one vector-matrix product; the
tables are freed with the interval.

Many pairings at once are a few matrix products: :class:`ExpBasis`
writes functions as coefficient rows over their shared basis
``t**k e^{mu t}``, one column block per rate, and gives the basis's table
of weighted node values ``V``, by the same rule, and its differentiation
matrix ``D``: the values of the functions are ``rows @ V`` and those of
their derivatives ``(rows @ D) @ V``. Their endpoint values are read by
Horner's rule on each block, as :func:`_eval_pair` reads them. An
implicit-Euler trajectory keeps its states as rows over one basis and
takes their norms by :func:`_state_norms`.

Results that are normal by construction (negation, scaling and
differentiation) skip the public constructor's coercion and
merge through ``ExpPoly._trusted``; its invariant is that ``terms`` is
already exactly what ``ExpPoly(terms)`` would store. Sums whose terms
are already floats skip only the coercion and go through :func:`_merge`,
which reads its input without copying it unless two rates merge.
:func:`_eval_pair` runs the Horner loop of ``ExpPoly.__call__`` at both
endpoints at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NormOutOfReach

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
    "ExpBasis",
]

#: Rates closer than this are merged into one term.
RATE_MERGE_TOL = 1e-14

#: Maximum polynomial degree per term. Resonant implicit-Euler steps
#: raise the degree by one each, so the cap must exceed the longest
#: supported trajectory (64 covers the 50-step acceptance runs).
DEGREE_CAP = 64


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

    # Gauss-Legendre tables of the integrals (see :func:`l2_norm`), by the
    # shape they were chosen for, ``(coefficients, largest |rate|)``, and
    # by their rule, ``(nodes, panels)``.
    @cached_property
    def _gauss_by_shape(self) -> dict:
        return {}

    @cached_property
    def _gauss_by_rule(self) -> dict:
        return {}

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


def _poly_integral(p: Sequence[float]) -> list:
    """Antiderivative of the polynomial ``p`` that vanishes at 0."""
    q = [0.0] * (len(p) + 1)
    for k in range(1, len(p) + 1):
        q[k] = p[k - 1] / k
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads as inf
def l2_inner(f: ExpPoly, g: ExpPoly, interval: Interval) -> float:
    """``integral_a^b f*g dt``, summed at the nodes of :func:`l2_norm`'s rule
    for ``f`` and ``g`` together.

    Since ``4fg = (f + g)**2 - (f - g)**2`` and both squares are within that
    rule's reach, its quadrature error is at most ``eps**2 h (E_f + E_g)**2 / 2``,
    in the notation of :func:`l2_norm`, and the sum rounds on the scale of the
    terms' values at the nodes, not of their pairwise integrals. A pairing
    beyond the floating-point range is not finite.
    """
    return _dot(*_node_values((f, g), interval))


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads as inf
def graph_inner(f: ExpPoly, g: ExpPoly, interval: Interval) -> float:
    """H1 pairing ``l2_inner(f, g) + l2_inner(f', g')``, all at the nodes of one rule."""
    df = differentiate(f)
    dg = df if g is f else differentiate(g)
    vf, vdf, vg, vdg = _node_values((f, df, g, dg), interval)
    return _dot(vf, vg) + _dot(vdf, vdg)


def _dot(x: Optional[np.ndarray], y: Optional[np.ndarray]) -> float:
    """The pairing of two :func:`_node_values` entries; ``None`` is the zero function."""
    return 0.0 if x is None or y is None else float(np.dot(x, y))


def l2_norm(f: ExpPoly, interval: Interval) -> float:
    """``||f||`` on ``interval`` by Gauss-Legendre quadrature of its values.

    Let ``f = sum_i p_i(t) e^{mu_i t}``, ``h = (b - a)/2``, ``d`` the largest
    degree, ``r = h max|mu_i|`` the reach, and

        E = sum_i max_[a,b] (sum_k |c_ik| |t|^k) * max_[a,b] e^{mu_i t}

    the size of the terms. On the Bernstein ellipse ``E_rho`` of the
    interval, ``t = (a + b)/2 + h x``, each ``|p_i|`` is at most
    ``rho^d max_[a,b] |p_i|`` and each ``|e^{mu_i t}|`` at most
    ``max_[a,b] e^{mu_i t} e^{r (rho + 1/rho - 2)/2}``. So by Trefethen,
    *Approximation Theory and Approximation Practice*, Thm 19.3, ``n``
    nodes integrate ``f**2`` with an error of at most

        h E**2 (64/15) rho^(2d - 2n) e^{r (rho + 1/rho - 2)} / (rho**2 - 1)

    for every ``rho > 1``. :func:`_log_gauss_bound` takes the ``rho`` that
    minimises the first two factors, and the norm uses the fewest nodes
    of ``_NODE_COUNTS`` for which the bound is at most ``eps**2 h E**2``.
    Where none is, the interval is split into 2, 4, ... panels of the
    last count, each with reach ``r / panels``, whose errors sum to the
    same bound. Since ``|sqrt(I) - sqrt(Q)| <= sqrt|I - Q|``, the rule
    moves the norm by at most ``eps sqrt(h) E``.

    Each weighted value is a sum over the ``T`` terms of dot products of
    the coefficients with a table of ``sqrt(w_j) t_j**k e^{mu t_j}``, its
    powers formed by repeated products. The rounded node and the rounded
    product ``mu t_j`` move each exponential by about ``3 |mu t_j| eps``
    relative, so, with ``c = max(|a|, |b|)`` and ``m = max|mu_i|``, the
    rounding error of a value is at most about ``(2d + T + 4 + 3mc) eps``
    times the sum of the terms' magnitudes at the node (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 3 and 5). The
    computed norm is therefore within about
    ``(2d + T + 5 + 3mc) eps sqrt(2h) E``, plus ``gamma_N / 2`` relative
    from the sum of ``N`` squares, of ``||f||``. No pairwise integrals of
    the terms enter, so terms that cancel on the interval cost no more
    than that.

    A norm whose squares overflow or underflow is summed rescaled; one
    whose values are not finite is ``inf``. A state that no rule of at
    most ``_MAX_PANELS`` panels covers raises :class:`NormOutOfReach`, an
    :class:`ArithmeticError`: its reach is above 687 at any degree, so a
    term varies by more than the floating-point range across the interval.
    """
    return _quadrature_norm((f,), interval)


def graph_norm(f: ExpPoly, interval: Interval) -> float:
    """H1 norm ``sqrt(||f||**2 + ||f'||**2)``, by the rule of :func:`l2_norm`."""
    return _quadrature_norm((f, differentiate(f)), interval)


# ----------------------------------------------------------------------
# Pairings as matrices over a shared basis
# ----------------------------------------------------------------------


class ExpBasis:
    """The functions ``t**k e^{mu t}``, ``k < size``, for each ``(mu, size)`` of ``blocks``.

    Columns run block by block, ``k`` ascending within a block, and a
    function of the span is its row of coefficients (:meth:`rows`). With
    ``V`` the basis's weighted node values (:meth:`values`) and ``D`` its
    differentiation matrix (:meth:`derivative`), the rows ``x`` and ``y``
    of ``f`` and ``g`` give the weighted values ``x V`` of ``f`` and
    ``(x D) V`` of ``f'``, so that

        l2_inner(f, g) = (x V) . (y V),  l2_inner(f', g) = (x D V) . (y V),
        graph_inner(f, g) = (x V) . (y V) + (x D V) . (y D V)

    within the bound of :func:`l2_norm`'s rule, and the pairings of many
    functions are a few matrix products. They agree with the scalar
    pairings within that bound, not bit for bit: ``x V`` sums over the
    basis, where :func:`l2_inner` sums term by term, at the nodes of the
    rule for ``f`` and ``g`` alone.
    """

    __slots__ = ("blocks", "dim", "_starts", "_block_starts")

    def __init__(self, blocks: Iterable[tuple[float, int]]) -> None:
        self.blocks = tuple(blocks)
        self._starts = {}  # the column of t**0 e^{mu t} by rate mu
        self._block_starts = []  # the same, block by block
        column = 0
        for rate, size in self.blocks:
            self._starts[rate] = column
            self._block_starts.append(column)
            column += size
        self.dim = column

    @classmethod
    def spanning(cls, polys: Iterable[ExpPoly]) -> "ExpBasis":
        """The smallest basis that holds every term of ``polys``: one block
        per exact rate, as long as the longest coefficient list on it."""
        sizes: dict = {}
        for f in polys:
            for rate, coeffs in f.terms:
                if len(coeffs) > sizes.get(rate, 0):
                    sizes[rate] = len(coeffs)
        return cls(sorted(sizes.items()))

    @classmethod
    def merging(cls, sizes: dict) -> "ExpBasis":
        """One block per group of the rates of ``sizes`` that :func:`_merge`
        merges, on the group's lowest rate and as long as the group's largest
        size; :meth:`rows` puts every rate of a group in its block."""
        groups: list = []  # [lead, size, rates]
        for rate in sorted(sizes):
            if not groups or abs(rate - groups[-1][0]) > RATE_MERGE_TOL:
                groups.append([rate, 0, []])
            groups[-1][1] = max(groups[-1][1], sizes[rate])
            groups[-1][2].append(rate)
        basis = cls((lead, n) for lead, n, _ in groups)
        for lead, _, rates in groups:
            basis._starts.update(dict.fromkeys(rates, basis._starts[lead]))
        return basis

    @property
    def positions(self) -> np.ndarray:
        """``k`` of each column ``t**k e^{mu t}``."""
        return np.concatenate([np.arange(n) for _, n in self.blocks])

    def rows(self, polys: Sequence[ExpPoly]) -> np.ndarray:
        """The coefficient rows of ``polys``, one per function."""
        starts = self._starts
        out = np.zeros((len(polys), self.dim))
        for row, f in zip(out, polys):
            for rate, coeffs in f.terms:
                start = starts[rate]
                row[start : start + len(coeffs)] = coeffs
        return out

    @np.errstate(over="ignore", invalid="ignore")  # checked below
    def values(self, interval: Interval) -> np.ndarray:
        """``V[p, j]``, basis function ``p`` at node ``t_j`` times ``sqrt(w_j)``.

        The nodes and weights are those of :func:`l2_norm`'s rule for the
        basis's largest block and largest ``|mu|``, so any two functions of
        the span are paired within that rule's bound. The rows past
        ``DEGREE_CAP``, which no function within the cap uses, are zero.
        Raises :class:`OverflowError` when a value is not finite, and
        :class:`NormOutOfReach` when no rule covers the basis.
        """
        size = min(max([n for _, n in self.blocks], default=0), DEGREE_CAP + 1)
        rate = max([abs(mu) for mu, _ in self.blocks], default=0.0)
        table = _gauss_table(interval, size, rate)
        out = np.zeros((self.dim, table.nodes.size))
        for mu, n in self.blocks:
            start = self._starts[mu]
            out[start : start + min(n, size)] = table.rate_rows(mu)[:n]
        if not np.isfinite(out).all():
            raise OverflowError(
                f"a basis function leaves the floating-point range on [{interval.a}, {interval.b}]"
            )
        return out

    def polys(self, rows: np.ndarray) -> list:
        """The functions of coefficient ``rows``, the inverse of :meth:`rows`;
        past ``DEGREE_CAP`` it raises :class:`ValueError`."""
        spans = [(rate, self._starts[rate], n) for rate, n in self.blocks]
        return [
            ExpPoly._trusted(_merge((rate, row[s : s + n]) for rate, s, n in spans))
            for row in np.asarray(rows).tolist()
        ]

    def endpoint_heads(self, rows: np.ndarray, a: float, b: float) -> list:
        """For each function of coefficient ``rows``, the list over its blocks
        ``c_0 + t q(t)`` of ``(q(a) a, q(b) b)`` by Horner's rule as
        :func:`_eval_pair` runs it, whose last step adds ``c_0``."""
        spans = [(start + 1, start + n) for start, (_, n) in zip(self._block_starts, self.blocks)]
        out = []
        for row in rows.reshape(-1, self.dim).tolist():
            heads = []
            for start, stop in spans:
                q = row[start:stop]
                while q and q[-1] == 0.0:  # trailing zeros, which polys trims
                    del q[-1]
                pa = pb = 0.0
                for c in reversed(q):
                    pa = pa * a + c
                    pb = pb * b + c
                heads.append((pa * a, pb * b))
            out.append(heads)
        return out

    def endpoint_exps(self, a: float, b: float) -> list:
        """``(e^{mu a}, e^{mu b})`` of each block, the factors of :meth:`endpoint_values`."""
        return [(math.exp(mu * a), math.exp(mu * b)) for mu, _ in self.blocks]

    def endpoint_values(self, rows: np.ndarray, exps: list, heads: list) -> np.ndarray:
        """``(f(a), f(b))``, one row per function of coefficient ``rows``, with
        the arithmetic of :func:`_eval_pair` on its :meth:`polys`: each block's
        ``q(t) t + c_0``, from the ``heads`` of :meth:`endpoint_heads` on these
        rows or on rows that differ only in their ``c_0``, times its factors of
        :meth:`endpoint_exps` at ``a`` and ``b``, summed in rate order."""
        out = []
        for row, blocks in zip(rows.reshape(-1, self.dim).tolist(), heads):
            fa = fb = 0.0
            for start, (head_a, head_b), (exp_a, exp_b) in zip(self._block_starts, blocks, exps):
                fa += (head_a + row[start]) * exp_a
                fb += (head_b + row[start]) * exp_b
            out.append((fa, fb))
        return np.array(out).reshape(-1, 2)

    def derivative(self) -> np.ndarray:
        """``D``, the derivative of each basis function as a row over the basis.

        ``(t**k e^{mu t})' = mu t**k e^{mu t} + k t**(k-1) e^{mu t}``, so
        within each block ``D[k, k] = mu`` and ``D[k + 1, k] = k + 1``, and
        ``f'`` has the row ``x D``.
        """
        out = np.zeros((self.dim, self.dim))
        for rate, size in self.blocks:
            k = np.arange(self._starts[rate], self._starts[rate] + size)
            out[k, k] = rate
            out[k[1:], k[:-1]] = np.arange(1, size)
        return out


# ----------------------------------------------------------------------
# Norms by Gauss-Legendre quadrature
# ----------------------------------------------------------------------

#: Node counts of the norms' Gauss-Legendre rules, fewest first.
_NODE_COUNTS = (16, 32, 48, 64, 96)

#: Most panels of ``_NODE_COUNTS[-1]`` nodes a rule is split into.
_MAX_PANELS = 64

#: ``log(eps**2)``: every rule integrates ``f**2`` to within ``eps**2 h E**2``.
_LOG_QUADRATURE_TOL = 2.0 * math.log(2.0**-52)


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` Gauss-Legendre nodes, ascending, and weights on ``[-1, 1]``,
    made on first use.

    Newton's method on ``P_n``, evaluated by its three-term recurrence,
    from the guesses ``cos(pi (k - 1/4) / (n + 1/2))``, which converge
    quadratically; ``w = 2 / ((1 - x**2) P_n'(x)**2)``. It needs neither an
    eigenvalue solver nor ``numpy.polynomial``.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = n * (p_prev - x * p) / (1.0 - x * x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _log_gauss_bound(n: int, degree: int, reach: float) -> float:
    """Log of the bound on ``|I - Q_n| / (h E**2)`` of :func:`l2_norm` for one panel.

    ``rho = (N + sqrt(N**2 + 4 r**2)) / (2 r)``, ``N = 2n - 2d``, is where
    ``-N log(rho) + r (rho + 1/rho - 2)`` is least; any ``rho > 1`` gives
    a valid bound, so the cap at ``1e100`` for tiny ``r`` is safe.
    """
    slack = 2 * (n - degree)
    if slack <= 0:
        return math.inf
    if reach == 0.0:
        return -math.inf
    rho = min((slack + math.hypot(slack, 2.0 * reach)) / (2.0 * reach), 1e100)
    return (
        math.log(64.0 / 15.0)
        - slack * math.log(rho)
        + reach * (rho + 1.0 / rho - 2.0)
        - math.log(rho * rho - 1.0)
    )


def _gauss_rule(degree: int, reach: float):
    """``(nodes, panels)`` of the cheapest rule whose bound meets the target,
    or ``None`` when ``_MAX_PANELS`` panels do not."""
    for n in _NODE_COUNTS:
        if _log_gauss_bound(n, degree, reach) <= _LOG_QUADRATURE_TOL:
            return n, 1
    n, panels = _NODE_COUNTS[-1], 2
    while panels <= _MAX_PANELS:
        if _log_gauss_bound(n, degree, reach / panels) <= _LOG_QUADRATURE_TOL:
            return n, panels
        panels *= 2
    return None


class _GaussTable:
    """One Gauss-Legendre rule on one interval.

    ``rows[mu][k, j]`` is ``sqrt(w_j) t_j**k e^{mu t_j}``, made on the first
    term of rate ``mu`` and kept, so the weighted values of a term at the
    nodes are one vector-matrix product.
    """

    __slots__ = ("nodes", "weighted_powers", "rows")

    def __init__(self, a: float, length: float, n: int, panels: int) -> None:
        x, w = _legendre_rule(n)
        half = 0.5 * length / panels
        centres = a + half * (2.0 * np.arange(panels) + 1.0)
        self.nodes = (centres[:, None] + half * x).ravel()
        powers = np.vander(self.nodes, min(n, DEGREE_CAP + 1), increasing=True).T
        self.weighted_powers = powers * np.tile(np.sqrt(half * w), panels)
        self.rows: dict = {}

    def rate_rows(self, rate: float) -> np.ndarray:
        """``rows[rate]``, made on first use."""
        table = self.rows.get(rate)
        if table is None:
            table = self.rows[rate] = self.weighted_powers * np.exp(rate * self.nodes)
        return table

    def values(self, terms) -> np.ndarray:
        """``sqrt(w_j) f(t_j)`` for the terms of a non-zero ``f``."""
        rows = self.rows
        out = None
        for rate, coeffs in terms:
            table = rows.get(rate)
            if table is None:
                table = self.rate_rows(rate)
            value = np.dot(np.array(coeffs), table[: len(coeffs)])
            if out is None:
                out = value
            else:
                out += value
        return out


def _gauss_table(interval: Interval, size: int, rate: float) -> _GaussTable:
    """The table for terms of at most ``size`` coefficients and rates within
    ``+-rate``, kept on the interval; raises :class:`NormOutOfReach` when no
    rule covers them."""
    table = interval._gauss_by_shape.get((size, rate))
    if table is None:
        half = 0.5 * interval.length
        rule = _gauss_rule(size - 1, rate * half) if math.isfinite(rate) else None
        if rule is None:
            raise NormOutOfReach(
                f"no Gauss rule of the norms covers reach {half * rate:.6g} (half-length "
                f"{half:.6g} times rate {rate:.6g}) at degree {size - 1} on "
                f"[{interval.a}, {interval.b}]"
            )
        table = interval._gauss_by_rule.get(rule)
        if table is None:
            table = interval._gauss_by_rule[rule] = _GaussTable(
                interval.a, interval.length, *rule
            )
        interval._gauss_by_shape[size, rate] = table
    return table


def _node_values(polys, interval: Interval) -> list:
    """``sqrt(w_j) f(t_j)`` for each ``f`` of ``polys``, ``None`` for a zero one,
    all at the nodes of the rule for their largest coefficient count and rate.

    A value that overflows is ``inf``; callers run under ``np.errstate``, so
    numpy does not warn of it.
    """
    size, rate = 0, 0.0
    for f in polys:
        terms = f.terms
        if terms:
            rate = max(rate, -terms[0][0], terms[-1][0])
            for _, coeffs in terms:
                if len(coeffs) > size:
                    size = len(coeffs)
    if not size:
        return [None] * len(polys)
    table = _gauss_table(interval, size, rate)
    return [table.values(f.terms) if f.terms else None for f in polys]


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads as inf
def _quadrature_norm(polys, interval: Interval) -> float:
    """``sqrt(sum ||f||**2)`` over ``polys``, all by one rule (see :func:`l2_norm`)."""
    return _root_sum_square([v for v in _node_values(polys, interval) if v is not None])


def _root_sum_square(values) -> float:
    """``sqrt(sum v . v)`` over the vectors ``values``, summed rescaled by the
    largest ``|v|`` where the squares leave the float range; ``inf`` where a
    value is not finite. Its callers ignore overflow."""
    square = 0.0
    for v in values:
        square += np.dot(v, v)
    if 0.0 < square < math.inf:
        return math.sqrt(square)
    top = max([float(np.max(np.abs(v))) for v in values], default=0.0)
    if not top < math.inf:  # a value overflowed, or is nan
        return math.inf
    if top == 0.0:
        return 0.0
    return top * math.sqrt(sum([float(np.dot(v / top, v / top)) for v in values]))


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads as inf
def _state_norms(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The norm of each state of ``rows``, its functions' coefficient rows side
    by side over the basis with node table ``table`` (:meth:`ExpBasis.values`),
    by :func:`_root_sum_square` where the squares leave the float range."""
    values = rows.reshape(len(rows), -1, table.shape[0]) @ table
    out = np.sqrt(np.einsum("ijk,ijk->i", values, values))
    for i in np.flatnonzero(~((0.0 < out) & (out < math.inf))):
        out[i] = _root_sum_square(list(values[i]))
    return out
