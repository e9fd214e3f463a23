"""The implicit-Euler step as composed term algebra, kept as a reference.

``resolve`` and ``block_resolve`` once solved each step in the term
algebra of ``ExpPoly``: a coefficient recursion or an integrating-factor
solve per term, sums merged term by term, and endpoint values read by
Horner's rule. They now apply one matrix per rate block to coefficient
rows over a basis. The functions here are that term algebra, written with
the public operations, so that tests can compare the two within a rounding
bound.
"""

import math
from typing import Optional, Sequence

import numpy as np

from maccretive.blockop import BlockRealization, BlockState, _solve_boundary_coeffs, bd_project, g_bd
from maccretive.derivative import Realization1D, _fixed_point, _pi_coeffs, in_domain
from maccretive.funcspace import (
    ExpPoly,
    _first_order_coeffs,
    absorb_rate_shift,
    differentiate,
)

#: Relative rounding allowed between the matrix step and this algebra, on
#: the scale of the terms: both sum the same products in other orders, so
#: they differ by a few hundred roundings of the terms' magnitudes.
ROUNDING = 512 * 2.0**-52


def horner(coeffs: Sequence[float], t: float) -> float:
    """Value at ``t`` of the polynomial with ascending ``coeffs``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_integral(p: Sequence[float], anchor: float = 0.0) -> list:
    """Antiderivative of the polynomial ``p`` that vanishes at ``anchor``."""
    q = [0.0] * (len(p) + 1)
    for k in range(1, len(p) + 1):
        q[k] = p[k - 1] / k
    if anchor:
        q[0] = -horner(q[1:], anchor) * anchor
    return q


def first_order_terms(f: ExpPoly, tau: float, anchor: float, t_scale: float) -> list:
    """Terms of one solution of ``u + tau*u' = f``: the coefficient recursion
    away from resonance, the integrating-factor form where ``|1 + tau*mu| <= 0.1``."""
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
                anchored = poly_integral(lifted, anchor)
                q = [c / tau for c in absorb_rate_shift(anchored, -beta, t_scale)]
        out.append((mu, q))
    return out


def _resonant_coeffs(p: Sequence[float], tau: float, anchor: float) -> Optional[list]:
    """The integrating-factor solution at ``beta == 0.0``, where both Taylor
    shifts are ``(1.0, +-0.0)``; ``None`` if it is not finite."""
    lifted = [0.0 + c for c in p]
    lifted.append(0.0)
    q = [(0.0 + c) / tau for c in poly_integral(lifted, anchor)]
    q.append(0.0 / tau)
    return q if math.isfinite(sum(q)) else None


def particular_second_order(w: ExpPoly, tau: float, ctx) -> ExpPoly:
    """One solution of ``u - tau^2 u'' = w``, half the sum of the first-order
    solves at ``(tau, anchor a)`` and ``(-tau, anchor b)``."""
    t_scale = max(abs(ctx.a), abs(ctx.b))
    half = 0.5 * w
    return ExpPoly(tuple(
        first_order_terms(half, tau, ctx.a, t_scale)
        + first_order_terms(half, -tau, ctx.b, t_scale)
    ))


def composed_block_resolve(
    real: BlockRealization, rhs: BlockState, tau: float, particular=particular_second_order
):
    """``block_resolve`` in the term algebra, with the particular solution
    ``particular(w, tau, ctx)``. Returns the state and whether the
    description admits it at ``block_resolve``'s tolerance 1e-8."""
    ctx = real.ctx
    sigma = 1.0 / tau
    u_part = particular(rhs.u + (-(tau * differentiate(rhs.v))), tau, ctx)
    v_part = rhs.v + (-(tau * differentiate(u_part)))
    u_bd0 = bd_project(ctx, u_part)
    dv_bd0 = g_bd(bd_project(ctx, v_part))
    coeffs = _solve_boundary_coeffs(real, real._resolvent_plan(tau), u_bd0, dv_bd0)
    u = ExpPoly(u_part.terms + ((sigma, (float(coeffs[0]),)), (-sigma, (float(coeffs[1]),))))
    v = rhs.v + (-(tau * differentiate(u)))
    ends = np.array([[u(ctx.a), u(ctx.b), v(ctx.a), v(ctx.b)]])
    return BlockState(u, v), bool(real._description_kernel.verdicts(ends, 1e-8)[0, 0])


def composed_resolve(realization: Realization1D, f: ExpPoly, tau: float):
    """``resolve`` in the term algebra. Returns the solution and whether it
    is a member at ``resolve``'s tolerance 1e-9."""
    ctx, g = realization.ctx, realization.g
    t_scale = max(abs(ctx.a), abs(ctx.b))
    particular = ExpPoly(tuple(first_order_terms(f, tau, ctx.a, t_scale)))
    hom = ExpPoly.exponential(-1.0 / tau)
    alpha_plus, alpha_minus = _pi_coeffs(ctx, particular(ctx.a), particular(ctx.b))
    beta_plus, beta_minus = _pi_coeffs(ctx, hom(ctx.a), hom(ctx.b))
    comp = beta_plus / beta_minus
    x_0 = alpha_plus - comp * alpha_minus
    x = _fixed_point(lambda x: x_0 + comp * g(x), x_0, g.lipschitz_cert * abs(comp), abs)
    u = particular + ((g(x) - alpha_minus) / beta_minus) * hom
    return u, in_domain(realization, u, tol=1e-9)


def term_majorant(polys, interval, points: int = 65) -> float:
    """Largest sum of the terms' magnitudes ``|c| |t|^k e^{mu t}`` at
    ``points`` points of ``interval``: the scale on which the roundoff of
    evaluating or stepping the functions ``polys`` lives."""
    return max(
        sum(
            abs(c) * abs(t) ** k * math.exp(rate * t)
            for poly in polys
            for rate, coeffs in poly.terms
            for k, c in enumerate(coeffs)
        )
        for t in np.linspace(interval.a, interval.b, points)
    )

