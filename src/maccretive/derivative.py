"""Boundary realizations of the derivative on an interval ``[a, b]``.

The maximal derivative ``u -> u'`` on ``H^1`` has one-dimensional
deficiency spaces spanned by ``e^t`` and ``e^{-t}``. Every accretive
realization that is also maximal is cut out of ``H^1`` by a single
scalar boundary function ``g`` through

    pi_minus(u) = g(pi_plus(u)),

where the two projection coefficients are computed from endpoint values
alone:

    pi_plus(u)  = (u(b) e^b  - u(a) e^a)  / (e^{2b}  - e^{2a}),
    pi_minus(u) = (u(a) e^{-a} - u(b) e^{-b}) / (e^{-2a} - e^{-2b}).

Admissibility of ``g`` is the Lipschitz bound ``e^{a+b}``; the module
also builds explicit non-accretivity witnesses when that bound fails.
Endpoint values are read in one Horner pass per function
(``funcspace._eval_pair``, the arithmetic of evaluation at each point).

An implicit-Euler run applies one resolvent ``(1 + tau d/dt)^{-1}`` many
times. What depends only on the realization and ``tau``, the homogeneous
solution ``e^{-t/tau}`` and its two projection coefficients, is a
resolvent plan built by the first :func:`resolve` at that ``tau`` and
kept on the realization, in a dict keyed by ``tau``, for as long as the
realization object lives. The plan holds exactly the values the step
computed before, so results are bit-identical. At exact resonance,
``mu + 1/tau == 0.0``, the integrating-factor solve skips its two
Taylor shifts, whose polynomial is ``(1.0, +-0.0)``; for finite data they
only add ``0.0`` to each coefficient and append ``+0.0``, which is what
the shortcut does (see :func:`_resonant_coeffs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import NotAViolation, OutOfRange, RootNotFound
from .funcspace import (
    ExpPoly,
    Interval,
    _eval_pair,
    _first_order_coeffs,
    _merge,
    _poly_integral,
    absorb_rate_shift,
    differentiate,
    l2_inner,
    l2_norm,
)

__all__ = [
    "DerivativeContext",
    "BoundaryFunction",
    "Realization1D",
    "kernel_element",
    "pi_plus_coeff",
    "pi_minus_coeff",
    "pi_zero",
    "check_lipschitz_transfer",
    "in_domain",
    "resolve",
    "extract_h",
    "linear_reduce",
    "linear_unreduce",
    "accretivity_witness",
    "maximality_probe",
    "boundary_function_from_jsonable",
]


@dataclass(frozen=True)
class DerivativeContext:
    """An interval plus the endpoint exponentials every formula reuses."""

    interval: Interval

    @property
    def a(self) -> float:
        return self.interval.a

    @property
    def b(self) -> float:
        return self.interval.b

    @cached_property
    def denom_plus(self) -> float:
        """``e^{2b} - e^{2a}``, positive since ``a < b``."""
        return self.interval.exp_b**2 - self.interval.exp_a**2

    @cached_property
    def denom_minus(self) -> float:
        """``e^{-2a} - e^{-2b}``, positive since ``a < b``."""
        return self.interval.exp_neg_a**2 - self.interval.exp_neg_b**2

    @cached_property
    def endpoint_matrix(self) -> np.ndarray:
        """``[[e^a, e^{-a}], [e^b, e^{-b}]]``: takes coefficients ``(cp, cm)``
        to the endpoint values of ``cp e^t + cm e^{-t}``."""
        iv = self.interval
        return np.array([[iv.exp_a, iv.exp_neg_a], [iv.exp_b, iv.exp_neg_b]])

    @cached_property
    def lipschitz_bound(self) -> float:
        """``e^{a+b}``, the admissibility bound for boundary functions."""
        return math.exp(self.a + self.b)

    @cached_property
    def _memo(self) -> dict:
        """Values of functions of this context alone, keyed by the function:
        made by the first call and freed with the context."""
        return {}


@dataclass(frozen=True)
class BoundaryFunction:
    """Scalar boundary map with a caller-supplied Lipschitz certificate."""

    func: Callable[[float], float]
    lipschitz_cert: float
    descriptor: Optional[dict] = field(default=None, compare=False)

    def __call__(self, c: float) -> float:
        return float(self.func(c))

    def admissible(self, ctx: DerivativeContext) -> bool:
        return self.lipschitz_cert <= ctx.lipschitz_bound + 1e-12

    @classmethod
    def constant(cls, value: float) -> "BoundaryFunction":
        return cls(lambda _: value, 0.0, {"kind": "constant", "value": value})

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0) -> "BoundaryFunction":
        return cls(
            lambda c: slope * c + intercept,
            abs(slope),
            {"kind": "linear", "slope": slope, "intercept": intercept},
        )

    @classmethod
    def scaled_sin(cls, amplitude: float, frequency: float = 1.0) -> "BoundaryFunction":
        return cls(
            lambda c: amplitude * math.sin(frequency * c),
            abs(amplitude * frequency),
            {"kind": "scaledsin", "amplitude": amplitude, "frequency": frequency},
        )

    @classmethod
    def from_table(cls, knots: Sequence[Sequence[float]]) -> "BoundaryFunction":
        """Piecewise-linear interpolant; end segments extend linearly."""
        pts = sorted((float(x), float(y)) for x, y in knots)
        if len(pts) < 2:
            raise ValueError("need at least two knots")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if np.any(np.diff(xs) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)

        def interp(c: float) -> float:
            if c <= xs[0]:
                return float(ys[0] + slopes[0] * (c - xs[0]))
            if c >= xs[-1]:
                return float(ys[-1] + slopes[-1] * (c - xs[-1]))
            return float(np.interp(c, xs, ys))

        cert = float(np.max(np.abs(slopes)))
        return cls(interp, cert, {"kind": "table", "knots": [list(p) for p in pts]})


@dataclass(frozen=True)
class Realization1D:
    """Restriction of the maximal derivative cut out by ``g``.

    Acts as ``u -> u'`` on members; membership is the boundary identity
    tested by :func:`in_domain`. Inadmissible ``g`` may be carried for
    falsification experiments; such realizations are not accretive.
    """

    ctx: DerivativeContext
    g: BoundaryFunction

    @property
    def is_admissible(self) -> bool:
        return self.g.admissible(self.ctx)

    @cached_property
    def _plans(self) -> dict:
        """Resolvent plans keyed by ``tau``; they live as long as this object."""
        return {}

    def _resolvent_plan(self, tau: float) -> tuple[ExpPoly, float, float]:
        """``(hom, beta_plus, beta_minus)``: the homogeneous solution
        ``e^{-t/tau}`` of ``u + tau*u' = 0`` and its projection coefficients,
        built by the first :func:`resolve` at this ``tau`` and reused by
        every later one. Raises :class:`RootNotFound` when the mode
        overflows on the interval."""
        plan = self._plans.get(tau)
        if plan is None:
            hom = ExpPoly.exponential(-1.0 / tau)
            plan = self._plans[tau] = (hom, *_mode_coeffs(self.ctx, hom))
        return plan


def kernel_element(ctx: DerivativeContext, sign: int, c: float) -> ExpPoly:
    """Generator ``c * e^{-sign*t}`` of ``ker(1 + sign*d/dt)``.

    ``sign=-1`` gives ``c e^{t}`` (kernel of ``1 - d/dt``), ``sign=+1``
    gives ``c e^{-t}``.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if c == 0.0:
        return ExpPoly.zero()
    return ExpPoly.exponential(-float(sign), c)


def _pi_coeffs(ctx: DerivativeContext, ua: float, ub: float) -> tuple[float, float]:
    """``(pi_plus, pi_minus)`` coefficients from the endpoint values ``u(a), u(b)``."""
    iv = ctx.interval
    return (
        (ub * iv.exp_b - ua * iv.exp_a) / ctx.denom_plus,
        (ua * iv.exp_neg_a - ub * iv.exp_neg_b) / ctx.denom_minus,
    )


def _projection_coeffs(ctx: DerivativeContext, u: ExpPoly) -> tuple[float, float]:
    """``(pi_plus, pi_minus)`` coefficients of ``u``, from one pass over its terms."""
    return _pi_coeffs(ctx, *_eval_pair(u, ctx.a, ctx.b))


def _mode_coeffs(ctx: DerivativeContext, mode: ExpPoly) -> tuple[float, float]:
    """``_projection_coeffs`` of a homogeneous resolvent mode; raises
    :class:`RootNotFound` when they overflow on the interval."""
    try:
        coeffs = _projection_coeffs(ctx, mode)
    except OverflowError:
        coeffs = (math.inf, math.inf)
    if not all(map(math.isfinite, coeffs)):
        rate = mode.terms[0][0]
        raise RootNotFound(f"resolvent mode e^({rate} t) overflows on [{ctx.a}, {ctx.b}]")
    return coeffs


def pi_plus_coeff(ctx: DerivativeContext, u: ExpPoly) -> float:
    """Coefficient of ``e^t`` in the projection onto ``ker(1 - d/dt)``."""
    return _projection_coeffs(ctx, u)[0]


def pi_minus_coeff(ctx: DerivativeContext, u: ExpPoly) -> float:
    """Coefficient of ``e^{-t}`` in the projection onto ``ker(1 + d/dt)``."""
    return _projection_coeffs(ctx, u)[1]


def pi_zero(ctx: DerivativeContext, u: ExpPoly) -> ExpPoly:
    """Component with vanishing endpoint values (the minimal-domain part)."""
    c_plus, c_minus = _projection_coeffs(ctx, u)
    return u - ExpPoly.exponential(1.0, c_plus) - ExpPoly.exponential(-1.0, c_minus)


# ----------------------------------------------------------------------
# Lipschitz transfer between g and the deficiency-space map
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TransferSample:
    c: float
    d: float
    x_dist: float
    h_dist: float
    g_gap: float
    bound_rhs: float
    contraction_ok: bool
    bound_ok: bool


@dataclass(frozen=True)
class LipschitzTransferReport:
    samples: tuple[TransferSample, ...]
    max_identity_defect: float
    contraction_holds: bool
    bound_holds: bool
    equivalence_ok: bool
    violations: tuple[tuple[float, float], ...]

    def to_jsonable(self) -> dict:
        return {
            "samples": len(self.samples),
            "max_identity_defect": self.max_identity_defect,
            "contraction_holds": self.contraction_holds,
            "bound_holds": self.bound_holds,
            "equivalence_ok": self.equivalence_ok,
            "violations": [list(v) for v in self.violations],
        }


def check_lipschitz_transfer(
    ctx: DerivativeContext,
    g: BoundaryFunction,
    samples: Iterable[tuple[float, float]],
    tol: float = 1e-11,
) -> LipschitzTransferReport:
    """Compare the induced deficiency-space map against the ``g`` bound.

    For each sampled pair ``(c, d)`` the distances of ``c e^t, d e^t``
    and of their images ``g(c) e^{-t}, g(d) e^{-t}`` are evaluated both
    in the exact function algebra and through the closed forms

        ||x - y||^2 = |c - d|^2 (e^{2b} - e^{2a}) / 2,
        ||h(x) - h(y)||^2 = |g(c) - g(d)|^2 (e^{-2a} - e^{-2b}) / 2,

    so nonexpansiveness of the induced map is equivalent to
    ``|g(c) - g(d)| <= e^{a+b} |c - d|``.
    """
    iv = ctx.interval
    rows = []
    worst = 0.0
    violations = []
    for c, d in samples:
        x = ExpPoly.exponential(1.0, c) - ExpPoly.exponential(1.0, d)
        hx = ExpPoly.exponential(-1.0, g(c)) - ExpPoly.exponential(-1.0, g(d))
        x_dist = l2_norm(x, iv)
        h_dist = l2_norm(hx, iv)
        g_gap = abs(g(c) - g(d))
        bound_rhs = ctx.lipschitz_bound * abs(c - d)

        x_closed = abs(c - d) * math.sqrt(ctx.denom_plus / 2.0)
        h_closed = g_gap * math.sqrt(ctx.denom_minus / 2.0)
        worst = max(
            worst,
            abs(x_dist - x_closed) / (1.0 + x_closed),
            abs(h_dist - h_closed) / (1.0 + h_closed),
        )

        contraction_ok = h_dist <= x_dist + tol * (1.0 + x_dist)
        bound_ok = g_gap <= bound_rhs + tol * (1.0 + bound_rhs)
        if not bound_ok:
            violations.append((c, d))
        rows.append(
            TransferSample(c, d, x_dist, h_dist, g_gap, bound_rhs, contraction_ok, bound_ok)
        )
    return LipschitzTransferReport(
        samples=tuple(rows),
        max_identity_defect=worst,
        contraction_holds=all(r.contraction_ok for r in rows),
        bound_holds=all(r.bound_ok for r in rows),
        equivalence_ok=all(r.contraction_ok == r.bound_ok for r in rows),
        violations=tuple(violations),
    )


# ----------------------------------------------------------------------
# Domain test and resolvent
# ----------------------------------------------------------------------


def in_domain(realization: Realization1D, u: ExpPoly, tol: float = 1e-9) -> bool:
    """Boundary identity ``pi_minus(u) = g(pi_plus(u))`` up to ``tol``.

    The tolerance is scaled by the endpoint magnitudes, since the
    identity is evaluated from exact endpoint values and only roundoff
    enters.
    """
    ctx = realization.ctx
    ua, ub = _eval_pair(u, ctx.a, ctx.b)
    c_plus, c_minus = _pi_coeffs(ctx, ua, ub)
    defect = abs(c_minus - realization.g(c_plus))
    scale = 1.0 + abs(ua) + abs(ub)
    return defect <= tol * scale


def _first_order_terms(
    f: ExpPoly, tau: float, anchor: float, t_scale: float
) -> list:
    """Terms of one solution of ``u + tau*u' = f`` within the function algebra.

    Away from resonance each term solves by a coefficient recursion.
    When ``1 + tau*mu`` is small the recursion would amplify roundoff
    by its ``(deg+1)``-th inverse power, so those terms instead use the
    integrating-factor form

        q = (1/tau) e^{-beta t} int_anchor^t e^{beta s} p(s) ds,
        beta = mu + 1/tau,

    with both exponentials absorbed as machine-truncated Taylor
    polynomials; the response stays on the term's own rate, bounded by
    the data, and the residual is same-rate and negligible. At exact
    resonance, ``beta == 0.0``, both exponentials are ``1`` and
    :func:`_resonant_coeffs` skips the two shifts. Both forms hold for
    negative ``tau`` too. The term list is returned unwrapped, so that a
    caller summing several solves builds one ExpPoly.
    """
    sigma = 1.0 / tau
    out = []
    for mu, p in f.terms:
        alpha = 1.0 + tau * mu
        if abs(alpha) > 0.1:
            q = _first_order_coeffs(p, tau, alpha)
        else:
            beta = mu + sigma
            q = _resonant_coeffs(p, tau, anchor) if beta == 0.0 else None
            if q is None:
                lifted = absorb_rate_shift(p, beta, t_scale)
                anchored = _poly_integral(lifted, anchor)
                q = [c / tau for c in absorb_rate_shift(anchored, -beta, t_scale)]
        out.append((mu, q))
    return out


def _resonant_coeffs(p: Sequence[float], tau: float, anchor: float) -> Optional[list]:
    """The integrating-factor solution at ``beta == 0.0``, or ``None`` if
    it is not finite.

    There both shifts multiply by the Taylor polynomial ``(1.0, +-0.0)``
    of ``e^{+-0.0 t}``. For finite data every product with ``+-0.0`` is a
    signed zero, and ``0.0`` plus a signed zero is ``+0.0``, so the
    convolution gives exactly ``0.0 + c`` for each coefficient ``c`` and
    a trailing ``+0.0``: the general path's bits. A non-finite value times
    ``+-0.0`` is ``nan`` instead, and the general path keeps such data;
    a finite result means every value on the way was finite.
    """
    lifted = [0.0 + c for c in p]
    lifted.append(0.0)
    q = [(0.0 + c) / tau for c in _poly_integral(lifted, anchor)]
    q.append(0.0 / tau)
    return q if math.isfinite(sum(q)) else None


def _bracket_root(func: Callable[[float], float], start: float, step: float):
    """Expand geometrically around ``start`` until the sign changes."""
    f0 = func(start)
    if f0 == 0.0:
        return start, start, f0, f0
    lo, hi = start, start
    flo = fhi = f0
    width = max(step, 1.0)
    for _ in range(200):
        if f0 > 0.0:
            lo = lo - width
            flo = func(lo)
            if flo <= 0.0:
                return lo, hi, flo, fhi
        else:
            hi = hi + width
            fhi = func(hi)
            if fhi >= 0.0:
                return lo, hi, flo, fhi
        width *= 2.0
    raise RootNotFound("boundary equation has no bracketable root")


def _solve_scalar(func: Callable[[float], float], scale: float) -> float:
    """Safeguarded secant inside a sign-change bracket."""
    lo, hi, flo, fhi = _bracket_root(func, 0.0, 1.0)
    if lo == hi:
        return lo
    x0, x1 = lo, hi
    f0, f1 = flo, fhi
    ftol = 1e-13 * scale
    for _ in range(200):
        if abs(f1) <= ftol:
            return x1
        if f1 != f0:
            cand = x1 - f1 * (x1 - x0) / (f1 - f0)
        else:
            cand = 0.5 * (lo + hi)
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        fc = func(cand)
        if fc <= 0.0:
            lo, flo = cand, fc
        if fc >= 0.0:
            hi, fhi = cand, fc
        x0, f0 = x1, f1
        x1, f1 = cand, fc
        if hi - lo <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            return 0.5 * (lo + hi)
    raise RootNotFound(
        "scalar boundary solve did not converge in 200 iterations "
        "(is the boundary function within its Lipschitz certificate?)"
    )


def resolve(realization: Realization1D, f: ExpPoly, tau: float) -> ExpPoly:
    """Solve ``u + tau*u' = f`` subject to the boundary identity.

    The general solution is a particular part plus ``C e^{-t/tau}``;
    the scalar ``C`` is found by a bracketed safeguarded secant on the
    boundary defect, which is strictly increasing in ``C`` whenever the
    boundary function honours its certificate. ``e^{-t/tau}`` and its
    projection coefficients come from the realization's plan for ``tau``.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    ctx, g = realization.ctx, realization.g
    hom, beta_plus, beta_minus = realization._resolvent_plan(tau)
    t_scale = max(abs(ctx.a), abs(ctx.b))
    particular = ExpPoly._trusted(_merge(_first_order_terms(f, tau, ctx.a, t_scale)))
    alpha_plus, alpha_minus = _projection_coeffs(ctx, particular)

    def defect(c: float) -> float:
        return alpha_minus + c * beta_minus - g(alpha_plus + c * beta_plus)

    if beta_plus == 0.0:
        # tau = 1: the homogeneous part is the e^{-t} kernel element
        # itself and the boundary equation is explicit.
        c_sol = (g(alpha_plus) - alpha_minus) / beta_minus
    else:
        scale = 1.0 + abs(alpha_minus) + abs(g(alpha_plus))
        c_sol = _solve_scalar(defect, scale)

    u = particular + c_sol * hom
    if not in_domain(realization, u, tol=1e-9):
        raise RootNotFound("boundary solve converged to a non-member")
    return u


def extract_h(
    realization: Realization1D,
    v_coeff: float,
    resolvent: Optional[Callable[[ExpPoly, float], ExpPoly]] = None,
) -> float:
    """Recover the boundary map from resolvent data alone.

    Applies ``(1 + B)^{-1}`` to ``2 v e^t`` and reads off the
    ``e^{-t}`` projection; for a realization built from ``g`` this
    returns ``g(v_coeff)`` up to solver tolerance.
    """
    apply = resolvent or (lambda rhs, tau: resolve(realization, rhs, tau))
    u = apply(ExpPoly.exponential(1.0, 2.0 * v_coeff), 1.0)
    return pi_minus_coeff(realization.ctx, u)


# ----------------------------------------------------------------------
# Linear boundary conditions in input-output form
# ----------------------------------------------------------------------


def linear_reduce(ctx: DerivativeContext, g_scalar: float) -> float:
    """Map a linear boundary slope to the ``c`` of ``c u(b) = u(a)``.

    Bijective from ``[-e^{a+b}, e^{a+b}]`` onto ``[-1, 1]``.
    """
    if abs(g_scalar) > ctx.lipschitz_bound * (1.0 + 1e-12):
        raise OutOfRange(f"|g| = {abs(g_scalar)} exceeds {ctx.lipschitz_bound}")
    ea, eb = ctx.interval.exp_a, ctx.interval.exp_b
    return (eb / ea) * (ea**2 + g_scalar) / (eb**2 + g_scalar)


def linear_unreduce(ctx: DerivativeContext, c: float) -> float:
    """Inverse of :func:`linear_reduce`."""
    if abs(c) > 1.0 + 1e-12:
        raise OutOfRange(f"|c| = {abs(c)} exceeds 1")
    ea, eb = ctx.interval.exp_a, ctx.interval.exp_b
    return (ea * eb - c * eb**2) / (c - eb / ea)


# ----------------------------------------------------------------------
# Falsification helpers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AccretivityWitness:
    u: ExpPoly
    v: ExpPoly
    pairing: float


def accretivity_witness(
    ctx: DerivativeContext, g: BoundaryFunction, c: float, d: float
) -> AccretivityWitness:
    """Explicit member pair certifying non-accretivity.

    Requires ``|g(c) - g(d)| > e^{a+b} |c - d|``; then both
    ``u = c e^t + g(c) e^{-t}`` and its ``d`` counterpart satisfy the
    boundary identity while

        <u' - v', u - v> = |c-d|^2 (e^{2b}-e^{2a})/2
                         - |g(c)-g(d)|^2 (e^{-2a}-e^{-2b})/2 < 0.
    """
    gap = abs(g(c) - g(d))
    bound = ctx.lipschitz_bound * abs(c - d)
    if gap <= bound:
        raise NotAViolation(
            f"|g(c)-g(d)| = {gap} does not exceed e^(a+b)|c-d| = {bound}"
        )
    u = ExpPoly.exponential(1.0, c) + ExpPoly.exponential(-1.0, g(c))
    v = ExpPoly.exponential(1.0, d) + ExpPoly.exponential(-1.0, g(d))
    diff = u - v
    pairing = l2_inner(differentiate(diff), diff, ctx.interval)
    return AccretivityWitness(u=u, v=v, pairing=pairing)


@dataclass(frozen=True)
class MaximalityProbe:
    competitor: ExpPoly
    pairing: float
    conclusive: bool


def maximality_probe(
    realization: Realization1D, u: ExpPoly, tol: float = 1e-9
) -> MaximalityProbe:
    """Adversarial probe against strict accretive extensions.

    For ``u`` outside the domain, matching the ``e^t`` projection
    yields a member ``v`` with strictly negative pairing, so no
    accretive relation can contain both the realization and ``u``.
    Members (equality direction) are reported inconclusive.
    """
    ctx, g = realization.ctx, realization.g
    ua, ub = _eval_pair(u, ctx.a, ctx.b)
    c1, cm = _pi_coeffs(ctx, ua, ub)
    if abs(cm - g(c1)) <= tol * (1.0 + abs(ua) + abs(ub)):
        return MaximalityProbe(u, 0.0, conclusive=False)
    v = pi_zero(ctx, u) + ExpPoly.exponential(1.0, c1) + ExpPoly.exponential(-1.0, g(c1))
    diff = u - v
    pairing = l2_inner(differentiate(diff), diff, ctx.interval)
    return MaximalityProbe(v, pairing, conclusive=True)


# ----------------------------------------------------------------------
# JSON wiring
# ----------------------------------------------------------------------


def boundary_function_from_jsonable(data: dict) -> BoundaryFunction:
    kind = data.get("kind")
    if kind == "constant":
        bf = BoundaryFunction.constant(float(data["value"]))
    elif kind == "linear":
        bf = BoundaryFunction.linear(
            float(data["slope"]), float(data.get("intercept", 0.0))
        )
    elif kind == "scaledsin":
        bf = BoundaryFunction.scaled_sin(
            float(data["amplitude"]), float(data.get("frequency", 1.0))
        )
    elif kind == "table":
        bf = BoundaryFunction.from_table(data["knots"])
    else:
        raise ValueError(f"unknown boundary function kind: {kind!r}")
    if "lipschitz_cert" in data:
        bf = BoundaryFunction(bf.func, float(data["lipschitz_cert"]), bf.descriptor)
    return bf

