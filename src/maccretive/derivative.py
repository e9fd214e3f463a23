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

These constants depend on the interval alone, so every formula takes the
:class:`~maccretive.funcspace.Interval` itself (as ``ctx``), which keeps
them: ``denom_plus``, ``denom_minus``, ``endpoint_matrix`` and
``lipschitz_bound``. Admissibility of ``g`` is the Lipschitz bound
``e^{a+b}``; the module also builds explicit non-accretivity witnesses
when that bound fails.
Endpoint values are read in one Horner pass per function
(``funcspace._eval_pair``, the arithmetic of evaluation at each point).

An implicit-Euler run applies one resolvent ``(1 + tau d/dt)^{-1}`` many
times, to coefficient rows over one
:class:`~maccretive.funcspace.ExpBasis` (:func:`_trajectory_basis`): a
step (:class:`_StepMap`) is the particular solution's matrix, block-diagonal
in the rates (:class:`_FirstOrderSolve`), and the boundary solve for the
mode's coefficient. The per-rate blocks and the mode's projection
coefficients depend only on the realization and ``tau``: they make a
resolvent plan, which each 1-D step map builds for itself. Block plans
(:mod:`maccretive.blockop`) are kept on the realization per ``tau``,
because ``wave-impedance`` builds two step maps at one ``tau``.

The resolvent pins the coefficient of its mode by the boundary identity.
For the ``e^t`` coefficient ``x`` of the solution, that identity is the
fixed point ``x = x_0 + C g(x)``, a contraction at the rate
``q = cert |C| <= (cert / e^{a+b}) |1 - tau| / (1 + tau)`` (proof in
:func:`resolve`), so ``q < 1`` for every admissible ``g``.
:func:`_fixed_point` solves it by Picard iteration with a certified
stop; the nonlinear boundary equation of :mod:`maccretive.blockop` has
the same form and the same solver.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import NotAViolation, OutOfRange, RootNotFound
from .funcspace import (
    DEGREE_CAP,
    ExpBasis,
    ExpPoly,
    Interval,
    _eval_pair,
    _merge,
    absorb_rate_shift,
    l2_norm,
)

__all__ = [
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
class BoundaryFunction:
    """Scalar boundary map with a caller-supplied Lipschitz certificate."""

    func: Callable[[float], float]
    lipschitz_cert: float
    descriptor: Optional[dict] = field(default=None, compare=False)

    def __call__(self, c: float) -> float:
        return float(self.func(c))

    def admissible(self, ctx: Interval) -> bool:
        """``cert <= e^{a+b}``, with the relative slack of :func:`linear_reduce`."""
        return self.lipschitz_cert <= ctx.lipschitz_bound * (1.0 + 1e-12)

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
        x, y = xs.tolist(), ys.tolist()

        def interp(c: float) -> float:
            if c <= xs[0]:
                return float(ys[0] + slopes[0] * (c - xs[0]))
            if c >= xs[-1]:
                return float(ys[-1] + slopes[-1] * (c - xs[-1]))
            # np.interp's arithmetic, without its per-call cost
            j = bisect.bisect_right(x, c) - 1
            return y[j] if x[j] == c else (y[j + 1] - y[j]) / (x[j + 1] - x[j]) * (c - x[j]) + y[j]

        cert = float(np.max(np.abs(slopes)))
        return cls(interp, cert, {"kind": "table", "knots": [list(p) for p in pts]})


@dataclass(frozen=True)
class Realization1D:
    """Restriction of the maximal derivative cut out by ``g``.

    Acts as ``u -> u'`` on members; membership is the boundary identity
    tested by :func:`in_domain`. Inadmissible ``g`` may be carried for
    falsification experiments; such realizations are not accretive.
    """

    ctx: Interval
    g: BoundaryFunction

    @property
    def is_admissible(self) -> bool:
        return self.g.admissible(self.ctx)

    def _resolvent_plan(self, tau: float) -> tuple["_FirstOrderSolve", float, float]:
        """``(solve, beta_plus, beta_minus)``: the per-rate solves of ``u + tau*u' = f``
        and the projection coefficients of the mode ``e^{-t/tau}``, built by
        each step map. Raises :class:`RootNotFound` when the mode overflows on
        the interval, or underflows so far that its ``e^{-t}`` coefficient,
        which the boundary solve divides by, is 0."""
        ctx = self.ctx
        beta_plus, beta_minus = _mode_coeffs(ctx, ExpPoly.exponential(-1.0 / tau))
        if beta_minus == 0.0:
            raise RootNotFound(
                f"resolvent mode e^({-1.0 / tau} t) underflows on [{ctx.a}, {ctx.b}]"
            )
        return _FirstOrderSolve(tau, ctx.a, max(abs(ctx.a), abs(ctx.b))), beta_plus, beta_minus

    def _step_map(self, tau: float, polys, steps: int) -> "_StepMap":
        """The step of :func:`resolve` on the basis of ``steps`` steps from ``polys``."""
        ctx, g = self.ctx, self.g
        solve, beta_plus, beta_minus = self._resolvent_plan(tau)
        comp, basis = beta_plus / beta_minus, _trajectory_basis((solve,), polys, steps)
        rate, particular = g.lipschitz_cert * abs(comp), solve.matrix(basis)

        def coeffs(ends: np.ndarray) -> np.ndarray:
            out = np.empty((len(ends), 1))
            for i, (ua, ub) in enumerate(ends.tolist()):
                alpha_plus, alpha_minus = _pi_coeffs(ctx, ua, ub)
                x_0 = alpha_plus - comp * alpha_minus
                x = _fixed_point(lambda x: x_0 + comp * g(x), x_0, rate, abs)
                out[i] = (g(x) - alpha_minus) / beta_minus
            return out

        return _StepMap(
            basis, ctx, lambda rows: rows @ particular, coeffs,
            basis.rows((ExpPoly.exponential(-1.0 / tau),)),
            lambda ends: _members(self, ends, 1e-9), linear=False,
        )


def kernel_element(ctx: Interval, sign: int, c: float) -> ExpPoly:
    """Generator ``c * e^{-sign*t}`` of ``ker(1 + sign*d/dt)``.

    ``sign=-1`` gives ``c e^{t}`` (kernel of ``1 - d/dt``), ``sign=+1``
    gives ``c e^{-t}``.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if c == 0.0:
        return ExpPoly.zero()
    return ExpPoly.exponential(-float(sign), c)


def _pi_coeffs(ctx: Interval, ua: float, ub: float) -> tuple[float, float]:
    """``(pi_plus, pi_minus)`` coefficients from the endpoint values ``u(a), u(b)``."""
    return (
        (ub * ctx.exp_b - ua * ctx.exp_a) / ctx.denom_plus,
        (ua * ctx.exp_neg_a - ub * ctx.exp_neg_b) / ctx.denom_minus,
    )


def _projection_coeffs(ctx: Interval, u: ExpPoly) -> tuple[float, float]:
    """``(pi_plus, pi_minus)`` coefficients of ``u``, from one pass over its terms."""
    return _pi_coeffs(ctx, *_eval_pair(u, ctx.a, ctx.b))


def _mode_coeffs(ctx: Interval, mode: ExpPoly) -> tuple[float, float]:
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


def pi_plus_coeff(ctx: Interval, u: ExpPoly) -> float:
    """Coefficient of ``e^t`` in the projection onto ``ker(1 - d/dt)``."""
    return _projection_coeffs(ctx, u)[0]


def pi_minus_coeff(ctx: Interval, u: ExpPoly) -> float:
    """Coefficient of ``e^{-t}`` in the projection onto ``ker(1 + d/dt)``."""
    return _projection_coeffs(ctx, u)[1]


def pi_zero(ctx: Interval, u: ExpPoly) -> ExpPoly:
    """Component with vanishing endpoint values (the minimal-domain part)."""
    return _without_modes(u, *_projection_coeffs(ctx, u))


def _without_modes(u: ExpPoly, c_plus: float, c_minus: float) -> ExpPoly:
    """``u - c_plus e^t - c_minus e^{-t}`` in one :func:`_merge`.

    Bit-identical to ``u - ExpPoly.exponential(1.0, c_plus) -
    ExpPoly.exponential(-1.0, c_minus)``: a coefficient that is ``0.0`` or
    ``-0.0`` is skipped, as ``exponential`` gives no term for it (kept, it
    could lead a group and move its rate, or turn a ``-0.0`` into ``0.0``),
    and the two modes' rates are too far apart for the second subtraction
    to touch what the first one merged.
    """
    modes = tuple((rate, (-c,)) for rate, c in ((1.0, c_plus), (-1.0, c_minus)) if c != 0.0)
    return ExpPoly._trusted(_merge(u.terms + modes))


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
    ctx: Interval,
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
    rows = []
    worst = 0.0
    violations = []
    for c, d in samples:
        x = ExpPoly.exponential(1.0, c) - ExpPoly.exponential(1.0, d)
        hx = ExpPoly.exponential(-1.0, g(c)) - ExpPoly.exponential(-1.0, g(d))
        x_dist = l2_norm(x, ctx)
        h_dist = l2_norm(hx, ctx)
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
    return bool(_members(realization, np.array([_eval_pair(u, ctx.a, ctx.b)]), tol)[0])


def _members(realization: Realization1D, ends: np.ndarray, tol: float) -> np.ndarray:
    """:func:`in_domain` of each function with endpoint values a row of ``ends``."""
    (ua, ub), g = ends.T, realization.g
    c_plus, c_minus = _pi_coeffs(realization.ctx, ua, ub)
    return np.abs(c_minus - [g(c) for c in c_plus.tolist()]) <= tol * (1.0 + np.abs(ua) + np.abs(ub))


class _FirstOrderSolve:
    """One solution of ``u + tau*u' = f`` on each rate's block ``t^k e^{mu t}``:
    the matrix whose row ``j`` solves for ``t^j e^{mu t}``, kept by rate at
    the largest size asked for, whose leading corners are the smaller ones.

    Away from resonance it is the recursion
    ``q_k = (p_k - tau (k+1) q_{k+1}) / (1 + tau*mu)``. Where ``1 + tau*mu``
    is small, that recursion would amplify roundoff by its ``(deg+1)``-th
    inverse power, and the block is the integrating-factor form
    ``q = (1/tau) e^{-beta t} int_anchor^t e^{beta s} p(s) ds``,
    ``beta = mu + 1/tau``, with both exponentials absorbed as the Taylor
    polynomials of :func:`~maccretive.funcspace.absorb_rate_shift`: it stays
    on the term's own rate, bounded by the data, and raises the degree, by
    one at exact resonance. Both forms hold for negative ``tau`` too.
    """

    def __init__(self, tau: float, anchor: float, t_scale: float) -> None:
        self.tau, self.anchor, self.t_scale = tau, anchor, t_scale
        self._blocks: dict = {}

    def block(self, mu: float, n: int) -> np.ndarray:
        """The rows for degrees below ``n``, each with the columns it reaches."""
        block = self._blocks.get(mu)
        if block is None or len(block) < n:
            block = self._blocks[mu] = self._make(mu, n)
        return block[:n, : n + block.shape[1] - len(block)]

    def growth(self, mu: float) -> int:
        """The degrees one solve adds on rate ``mu``."""
        return 0 if abs(1.0 + self.tau * mu) > 0.1 else self.block(mu, 1).shape[1] - 1

    def _make(self, mu: float, n: int) -> np.ndarray:
        tau = self.tau
        alpha = 1.0 + tau * mu
        eye = np.eye(n)
        if abs(alpha) > 0.1:
            q = np.zeros((n, n + 1))
            for k in range(n - 1, -1, -1):
                q[:, k] = (eye[:, k] - tau * (k + 1) * q[:, k + 1]) / alpha
            return q[:, :n] + 0.0  # no -0.0, so that a block is its larger ones' corner
        beta = mu + 1.0 / tau
        lifted = _taylor_product(eye, beta, self.t_scale)
        width = lifted.shape[1]
        q = np.zeros((n, width + 1))
        q[:, 1:] = lifted / np.arange(1, width + 1)
        acc = np.zeros(n)  # q(anchor) by Horner, so that the solution vanishes there
        for k in range(width, 0, -1):
            acc = acc * self.anchor + q[:, k]
        q[:, 0] = -acc * self.anchor
        q = _taylor_product(q, -beta, self.t_scale) / tau
        return q[:, : max(n, np.flatnonzero(q.any(axis=0))[-1] + 1)] + 0.0

    def matrix(self, basis: ExpBasis) -> np.ndarray:
        """The solve on rows over ``basis``, each block cut to its size."""
        out = np.zeros((basis.dim, basis.dim))
        start = 0
        for rate, n in basis.blocks:
            out[start : start + n, start : start + n] = self.block(rate, n)[:, :n]
            start += n
        return out


def _taylor_product(p: np.ndarray, nu: float, t_scale: float) -> np.ndarray:
    """Each row of ``p`` times the Taylor polynomial of ``e^{nu t}`` of
    :func:`~maccretive.funcspace.absorb_rate_shift`."""
    taylor = absorb_rate_shift((1.0,), nu, t_scale)
    out = np.zeros((len(p), p.shape[1] + len(taylor) - 1))
    for i, c in enumerate(taylor):
        out[:, i : i + p.shape[1]] += c * p
    return out


def _trajectory_basis(solves, polys, steps: int) -> ExpBasis:
    """The basis of ``steps`` steps of ``solves`` from ``polys``: their rates and
    each solve's mode rate ``-1/tau``, each block as long as its data plus
    ``steps`` solves' growth, but at most one step past ``DEGREE_CAP``."""
    sizes = dict(ExpBasis.spanning(polys).blocks)
    for rate in {*sizes, *(-1.0 / solve.tau for solve in solves)}:
        grow = max(solve.growth(rate) for solve in solves)
        sizes[rate] = min(sizes.get(rate, 1) + steps * grow, DEGREE_CAP + 1 + grow)
    return ExpBasis.merging(sizes)


class _StepMap:
    """One resolvent step on rows over ``basis``, ``x -> x P + c M``: ``P =
    particular`` the particular solution, ``M`` the modes' rows and ``c =
    coeffs(E)`` the boundary solve on the particular solution's endpoint
    values ``E`` on ``interval`` (one matrix product for a linear ``coeffs``).
    Every endpoint value is read by :meth:`ExpBasis.endpoint_values`, the
    arithmetic of :func:`_eval_pair`, with factors ``exps`` taken once per
    map, so ``member``, the closing membership test of a step's endpoint
    values, decides as :func:`in_domain` and ``domain_test`` decide on the
    step's functions. A step is :meth:`advance`, which reads the particular
    solution for the boundary solve, then :meth:`closing`, which reads the
    result from the same heads: the modes change only the columns of
    ``t**0``, which Horner's rule adds last. A step past ``DEGREE_CAP``
    raises :class:`ValueError`, as :func:`~maccretive.funcspace._merge` does.
    """

    def __init__(self, basis, interval, particular, coeffs, modes, member, linear: bool) -> None:
        self.basis, self.particular, self.coeffs, self.member = basis, particular, coeffs, member
        self.interval, self.width = interval, 2 * modes.shape[1] // basis.dim
        self.exps = basis.endpoint_exps(interval.a, interval.b)
        self.cols = np.flatnonzero(modes.any(axis=0))
        self.mode_rows = modes[:, self.cols]
        self.linear = coeffs(np.eye(self.width)) @ self.mode_rows if linear else None
        self._degree = np.tile(basis.positions, self.width // 2)
        self._spill = np.flatnonzero(self._degree > DEGREE_CAP)

    def __call__(self, rows: np.ndarray):
        """``(y, ends)``: the step of each row of ``rows`` (or of one row) and
        the endpoint values of each ``y``, those of each of its functions side
        by side; rows stacked as ``(n, 1, width)`` step with the bits of each
        row alone."""
        y, heads = self.advance(rows)
        return y, self.closing(y, heads)

    def advance(self, rows: np.ndarray):
        """``(y, heads)``: the step of each row of ``rows``, as :meth:`__call__`
        steps them, and the :meth:`ExpBasis.endpoint_heads` of their particular
        solutions, which ``y`` shares, one endpoint read per step."""
        out = self.particular(rows)
        heads = self.basis.endpoint_heads(out, self.interval.a, self.interval.b)
        ends = self.basis.endpoint_values(out, self.exps, heads)
        if self.linear is None:
            coeffs = self.coeffs(ends.reshape(-1, self.width)) @ self.mode_rows
        else:  # numpy takes stacked rows one product at a time
            coeffs = ends.reshape(*out.shape[:-1], self.width) @ self.linear
        states = out.reshape(-1, out.shape[-1])
        states[:, self.cols] += coeffs.reshape(len(states), -1)
        spilled = states[:, self._spill].any(axis=0) if self._spill.size else ()
        if np.any(spilled):
            degree = int(self._degree[self._spill][spilled].max())
            raise ValueError(f"polynomial degree {degree} exceeds cap {DEGREE_CAP}")
        return states.reshape(out.shape), heads

    def closing(self, y: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """The endpoint values of each state of ``y``, those of each of its
        functions side by side, from the ``heads`` :meth:`advance` gave with
        them, or any stack of steps' ``y`` and ``heads`` alike: the closing
        read that ``member`` tests."""
        return self.basis.endpoint_values(y, self.exps, heads).reshape(-1, self.width)


def _fixed_point(step: Callable, x_0, rate: float, norm: Callable):
    """Fixed point of ``step``, a contraction at the proven ``rate``, by Picard
    iteration from ``x_0``: the one solver of every nonlinear boundary equation,
    with ``norm`` ``abs`` in 1-D and the BD norm in the block.

    With ``gap`` the length of the last step ``x_prev -> x``, the backward error
    ``norm(step(x) - x) = norm(step(x) - step(x_prev))`` is at most
    ``gap * rate``, and the iteration stops once that is at most
    ``1e-12 (1 + norm(x))``. The k-th later gap is at most ``rate^k gap_0``,
    so the stop holds within the a-priori ``ceil(log(1e-12 / gap_0) / log rate)``
    steps. A few steps past that count it raises :class:`RootNotFound`: the
    map breaks its certificate, or roundoff stalls the steps. It raises at
    once when ``rate`` is not below 1 or the first step is not finite.
    """
    x = step(x_0)
    gap = norm(x - x_0)
    if not (rate < 1.0 and math.isfinite(gap)):
        raise RootNotFound(f"no certified contraction: rate {rate}, first step {gap}")
    tol = 1e-12
    cap = 0 if gap * rate <= tol else math.ceil(math.log(tol / gap) / math.log(rate)) + 2
    for _ in range(cap + 1):
        if gap * rate <= tol * (1.0 + norm(x)):
            return x
        nxt = step(x)
        gap = norm(nxt - x)
        x = nxt
    raise RootNotFound(
        f"boundary fixed point not reached in {cap} steps at rate {rate}: the Lipschitz "
        "certificate of the boundary map is falsified, or roundoff stalls the steps"
    )


def resolve(realization: Realization1D, f: ExpPoly, tau: float) -> ExpPoly:
    """Solve ``u + tau*u' = f`` subject to the boundary identity.

    The general solution is ``u = p + c e^{-t/tau}``, ``p`` a particular
    solution, here one step of :meth:`Realization1D._step_map` on the row of
    ``f``; ``e^{-t/tau}`` and its projection coefficients ``(beta_+,
    beta_-)`` come from the realization's plan for ``tau``. A result that
    fails :func:`in_domain` raises :class:`RootNotFound`. With
    ``(alpha_+, alpha_-)`` those of ``p``, the boundary identity
    ``alpha_- + c beta_- = g(alpha_+ + c beta_+)`` is, for the ``e^t``
    coefficient ``x = pi_plus(u)``, the fixed point

        x = x_0 + C g(x),   C = beta_+ / beta_-,   x_0 = alpha_+ - C alpha_-,

    and then ``c = (g(x) - alpha_-) / beta_-``. With ``sigma = 1/tau``,
    ``l = b - a`` and ``e^{r b} - e^{r a} = 2 e^{r (a+b)/2} sinh(r l/2)``,

        beta_+ = e^{-(1 + sigma)(a+b)/2} sinh((1 - sigma) l/2) / sinh(l),
        beta_- = e^{(1 - sigma)(a+b)/2} sinh((1 + sigma) l/2) / sinh(l),

    so for ``g`` with certificate ``cert`` the map contracts at the rate

        q = cert |C| = (cert / e^{a+b}) sinh(|sigma - 1| l/2) / sinh((sigma + 1) l/2)
          <= (cert / e^{a+b}) |1 - tau| / (1 + tau),

    the block's ratio (see :func:`maccretive.blockop._solve_boundary_coeffs`
    for the bound): ``q < 1`` for every admissible ``g`` and ``q = 0`` at
    ``tau = 1``. :func:`_fixed_point` solves it with a certified stop; a
    ``g`` with ``q >= 1``, or one that breaks its certificate, raises
    :class:`RootNotFound`.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    step = realization._step_map(tau, (f,), 1)
    out, ends = step(step.basis.rows((f,)))
    if not step.member(ends)[0]:
        raise RootNotFound("boundary solve converged to a non-member")
    return step.basis.polys(out)[0]


def extract_h(realization: Realization1D, v_coeff: float) -> float:
    """Recover the boundary map from resolvent data alone.

    Applies ``(1 + B)^{-1}`` to ``2 v e^t`` and reads off the
    ``e^{-t}`` projection; for a realization built from ``g`` this
    returns ``g(v_coeff)`` up to solver tolerance.
    """
    u = resolve(realization, ExpPoly.exponential(1.0, 2.0 * v_coeff), 1.0)
    return pi_minus_coeff(realization.ctx, u)


# ----------------------------------------------------------------------
# Linear boundary conditions in input-output form
# ----------------------------------------------------------------------


def linear_reduce(ctx: Interval, g_scalar: float) -> float:
    """Map a linear boundary slope to the ``c`` of ``c u(b) = u(a)``.

    Bijective from ``[-e^{a+b}, e^{a+b}]`` onto ``[-1, 1]``.
    """
    if abs(g_scalar) > ctx.lipschitz_bound * (1.0 + 1e-12):
        raise OutOfRange(f"|g| = {abs(g_scalar)} exceeds {ctx.lipschitz_bound}")
    ea, eb = ctx.exp_a, ctx.exp_b
    return (eb / ea) * (ea**2 + g_scalar) / (eb**2 + g_scalar)


def linear_unreduce(ctx: Interval, c: float) -> float:
    """Inverse of :func:`linear_reduce`."""
    if abs(c) > 1.0 + 1e-12:
        raise OutOfRange(f"|c| = {abs(c)} exceeds 1")
    ea, eb = ctx.exp_a, ctx.exp_b
    return (ea * eb - c * eb**2) / (c - eb / ea)


# ----------------------------------------------------------------------
# Falsification helpers
# ----------------------------------------------------------------------


def _self_pairing(ctx: Interval, d: ExpPoly) -> float:
    """``<d', d> = (d(b)^2 - d(a)^2)/2``, from one pass over ``d``'s terms."""
    da, db = _eval_pair(d, ctx.a, ctx.b)
    return 0.5 * (db * db - da * da)


@dataclass(frozen=True)
class AccretivityWitness:
    u: ExpPoly
    v: ExpPoly
    pairing: float


def accretivity_witness(
    ctx: Interval, g: BoundaryFunction, c: float, d: float
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
    return AccretivityWitness(u=u, v=v, pairing=_self_pairing(ctx, u - v))


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
    ends = np.array([_eval_pair(u, ctx.a, ctx.b)])
    if _members(realization, ends, tol)[0]:
        return MaximalityProbe(u, 0.0, conclusive=False)
    c1, cm = _pi_coeffs(ctx, *ends[0].tolist())
    v = _without_modes(u, c1, cm) + ExpPoly.exponential(1.0, c1) + ExpPoly.exponential(-1.0, g(c1))
    return MaximalityProbe(v, _self_pairing(ctx, u - v), conclusive=True)


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

