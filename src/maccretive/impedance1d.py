"""Impedance boundary conditions on an interval with boundary ``{a, b}``.

The Dirichlet trace is endpoint evaluation and the normal trace is
signed endpoint evaluation (outward normal ``-1`` at ``a``, ``+1`` at
``b``). Comparing them through the two-point pivot space turns the
impedance condition ``K gamma0 f = gammaN Phi`` into an exact 2x2
matrix identity on boundary data,

    g_bd(Phi_BD) = kappa^* K kappa (f_BD),

so the induced block realization is m-accretive exactly when
``K + K^T`` is positive semidefinite. ``K``, the boundary operator on
the two-point pivot space (counting measure), is a ``(2, 2)`` float
array. Boundary data are ``(cp, cm)`` arrays in ``bd_space(ctx)``, as in
:mod:`maccretive.blockop`, with ``ctx`` the interval, and traces are
``(at a, at b)`` arrays.
"""

from __future__ import annotations

import numpy as np

from .blockop import BlockRealization, bd_space
from .derivative import _pi_coeffs
from .funcspace import ExpPoly, Interval, _eval_pair
from .relations import LinearRelation, _is_psd

__all__ = [
    "gamma0",
    "gammaN",
    "kappa",
    "kappa_adjoint",
    "kappa_adjoint_matrix",
    "trace_norm",
    "impedance_map_matrix",
    "impedance_realization",
    "is_K_accretive",
]


def gamma0(ctx: Interval, f: ExpPoly) -> np.ndarray:
    """Dirichlet trace ``(f(a), f(b))``."""
    return np.array(_eval_pair(f, ctx.a, ctx.b))


def gammaN(ctx: Interval, phi: ExpPoly) -> np.ndarray:
    """Normal trace ``(-phi(a), phi(b))``."""
    at_a, at_b = _eval_pair(phi, ctx.a, ctx.b)
    return np.array([-at_a, at_b])


def kappa_adjoint_matrix(ctx: Interval) -> np.ndarray:
    """Adjoint of endpoint evaluation, solved through the BD Gram matrix."""
    return np.linalg.solve(bd_space(ctx).gram, ctx.endpoint_matrix.T)


def kappa(ctx: Interval, x) -> np.ndarray:
    """Embed boundary data into the pivot space by endpoint evaluation."""
    return ctx.endpoint_matrix @ x


def kappa_adjoint(ctx: Interval, y) -> np.ndarray:
    """The unique ``x`` with ``<kappa x', y> = <x', x>_BD`` for all ``x'``."""
    return kappa_adjoint_matrix(ctx) @ y


def trace_norm(ctx: Interval, y) -> float:
    """Renormed trace norm: the H1 norm of the boundary-data function
    with these endpoint values, whose coefficients are the deficiency
    projection coefficients read off those values."""
    return bd_space(ctx).norm(_pi_coeffs(ctx, *y))


def impedance_map_matrix(ctx: Interval, k: np.ndarray) -> np.ndarray:
    """``kappa^* K kappa`` as a matrix on BD coefficients."""
    return kappa_adjoint_matrix(ctx) @ k @ ctx.endpoint_matrix


@np.errstate(over="ignore", invalid="ignore")  # LinearRelation rejects a non-finite basis
def impedance_realization(ctx: Interval, k: np.ndarray) -> BlockRealization:
    """Block realization with domain ``{(f, Phi): K gamma0 f = gammaN Phi}``.

    Stored as its one description, the graph relation
    ``Dv_BD = kappa^* K kappa u_BD`` on boundary data; the trace form of
    the condition has the same defect, lifted by ``kappa^*``. Nothing is
    sampled at construction.
    """
    w = impedance_map_matrix(ctx, k)
    basis = [np.stack([e, w @ e]) for e in np.eye(2)]
    return BlockRealization.from_relation(
        ctx, LinearRelation(bd_space(ctx), np.array(basis))
    )


def is_K_accretive(k: np.ndarray) -> bool:
    """Positive semidefiniteness of ``K + K^T`` (relative threshold)."""
    return _is_psd(k + k.T)
