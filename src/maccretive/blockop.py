"""Block operator ``(u, v) -> (v', u')`` on an interval and its realizations.

The off-diagonal first-order system couples two copies of L2 through a
single derivative. Its boundary-data space is two-dimensional,

    BD = span{e^t, e^{-t}},   |w|_BD^2 = cp^2 (e^{2b}-e^{2a}) + cm^2 (e^{-2a}-e^{-2b}),

and the graph-orthogonal projection onto it is read off endpoint values.
Boundary data are plain ``(cp, cm)`` float arrays, the coefficients of
``cp e^t + cm e^{-t}``, with the norm of :func:`bd_space`; the maps on
BD of :mod:`maccretive.relations` act on the same arrays.
Every m-accretive realization admits four equivalent descriptions:
a nonexpansive map ``f`` on BD, a map ``h`` between the deficiency
spaces, an m-accretive relation ``M`` on BD, and (in the linear case) an
operator pair ``(S, T)`` with ``S u_BD = T Dv_BD``. A realization stores
one of them and derives the others on demand. Membership of a state
``(u, v)`` depends on it only through the four endpoint values
``u(a), u(b), v(a), v(b)``, and for a linear realization every
description's defect is a fixed linear map of them: membership of N
states is one matrix product on an ``(N, 4)`` array. This module also
solves the associated resolvent equations exactly in the function
algebra. The second-order equation ``u - tau^2 u'' = w`` behind the
block resolvent splits by partial fractions,
``1 - tau^2 D^2 = (1 + tau D)(1 - tau D)``, into two first-order solves
of the kind the 1-D resolvent uses. The boundary data of the two
homogeneous modes, and for a linear description the stacked matrix
``perp @ vstack([h_u, h_dv])`` of the boundary solve, depend only on the
realization and ``tau``: the first :func:`block_resolve` at a ``tau``
builds them into a resolvent plan kept on the realization, in a dict
keyed by ``tau``, for as long as the realization object lives. Every step
still solves its boundary equation with the same ``lstsq`` on the same
inputs, so results are bit-identical to building the plan every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .derivative import (
    DerivativeContext,
    _first_order_terms,
    _mode_coeffs,
    _pi_coeffs,
    _projection_coeffs,
)
from .errors import RootNotFound
from .funcspace import (
    ExpPoly,
    Interval,
    _eval_pair,
    _merge,
    _quadrature_norm,
    _sub_scaled_derivative,
    differentiate,
    l2_inner,
)
from .relations import (
    ContractionMap,
    InnerSpace,
    LinearRelation,
    OperatorPair,
    cayley_to_relation,
    is_m_accretive_linear,
    operator_norm,
    st_relation,
)

__all__ = [
    "BlockState",
    "BlockRealization",
    "bd_space",
    "bd_project",
    "bd_exppoly",
    "g_bd",
    "pi1_block",
    "pi_minus1_block",
    "boundary_data",
    "reduce_h_to_f",
    "lift_f_to_h",
    "block_resolve",
    "st_domain",
    "apply_block",
    "state_l2_inner",
    "state_l2_norm",
    "state_graph_inner",
]


@dataclass(frozen=True)
class BlockState:
    """Pair ``(u, v)`` in the domain of the block operator."""

    u: ExpPoly
    v: ExpPoly

    def __add__(self, other: "BlockState") -> "BlockState":
        return BlockState(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "BlockState") -> "BlockState":
        return BlockState(self.u - other.u, self.v - other.v)

    def __mul__(self, scalar: float) -> "BlockState":
        return BlockState(scalar * self.u, scalar * self.v)

    __rmul__ = __mul__

    @classmethod
    def zero(cls) -> "BlockState":
        return cls(ExpPoly.zero(), ExpPoly.zero())

    def to_jsonable(self) -> dict:
        return {"u": self.u.to_jsonable(), "v": self.v.to_jsonable()}

    @classmethod
    def from_jsonable(cls, data: dict) -> "BlockState":
        return cls(ExpPoly.from_jsonable(data["u"]), ExpPoly.from_jsonable(data["v"]))


def apply_block(state: BlockState) -> BlockState:
    """The block operator itself: ``(u, v) -> (v', u')``."""
    return BlockState(differentiate(state.v), differentiate(state.u))


def state_l2_inner(s1: BlockState, s2: BlockState, interval: Interval) -> float:
    return l2_inner(s1.u, s2.u, interval) + l2_inner(s1.v, s2.v, interval)


def state_l2_norm(state: BlockState, interval: Interval) -> float:
    """``sqrt(||u||**2 + ||v||**2)`` by the Gauss-Legendre rule of
    :func:`maccretive.funcspace.l2_norm`, one rule for both components."""
    return _quadrature_norm((state.u, state.v), interval)


def state_graph_inner(s1: BlockState, s2: BlockState, interval: Interval) -> float:
    """Graph inner product in the domain of the block operator."""
    return state_l2_inner(s1, s2, interval) + state_l2_inner(
        apply_block(s1), apply_block(s2), interval
    )


def _per_context(build):
    """``build(ctx)``, made once per context object and kept on it, so that
    it lives exactly as long as the context and its interval."""

    @functools.wraps(build)
    def cached(ctx: DerivativeContext):
        memo = ctx._memo
        value = memo.get(build)
        if value is None:
            value = memo[build] = build(ctx)
        return value

    return cached


@_per_context
def bd_space(ctx: DerivativeContext) -> InnerSpace:
    """BD coefficient space with its graph Gram matrix, the closed-form
    diagonal ``diag(e^{2b}-e^{2a}, e^{-2a}-e^{-2b})``.

    The ratio of the two entries is exactly ``e^{2(a+b)}``, so the
    constructor's relative eigenvalue test would reject every interval
    with ``|a + b| > 13.8``; the space is built from its diagonal instead.
    """
    return InnerSpace._diagonal((ctx.denom_plus, ctx.denom_minus))


def bd_exppoly(x) -> ExpPoly:
    """The function ``cp e^t + cm e^{-t}`` with BD coefficients ``x = (cp, cm)``."""
    return ExpPoly(((1.0, (x[0],)), (-1.0, (x[1],))))


def bd_project(ctx: DerivativeContext, u: ExpPoly) -> np.ndarray:
    """Graph-orthogonal projection of ``u`` onto the BD span, as ``(cp, cm)``.

    The H1 pairings with the kernel elements are endpoint values,
    ``<u, e^t> = u(b) e^b - u(a) e^a`` and
    ``<u, e^{-t}> = u(a) e^{-a} - u(b) e^{-b}``, and ``e^t``, ``e^{-t}``
    are H1-orthogonal, so the coefficients are those of the deficiency
    projections; the residual ``u - result`` vanishes at both endpoints.
    """
    return np.array(_projection_coeffs(ctx, u))


def g_bd(x) -> np.ndarray:
    """Differentiation within BD: ``(cp, cm) -> (cp, -cm)``.

    Norm-preserving and its own inverse, so it also takes ``v_BD`` to
    ``Dv_BD``.
    """
    return np.array([x[0], -x[1]], dtype=float)


def boundary_data(ctx: DerivativeContext, state: BlockState) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``x = (u_BD + Dv_BD)/2``, ``y = (u_BD - Dv_BD)/2``.

    ``x`` and ``y`` are the BD coordinates of the two deficiency
    projections; membership tests of every description are functions of
    them.
    """
    u_bd = bd_project(ctx, state.u)
    dv_bd = g_bd(bd_project(ctx, state.v))
    return 0.5 * (u_bd + dv_bd), 0.5 * (u_bd - dv_bd)


def _deficiency_state(w, sign: float) -> BlockState:
    """``(w, sign * Gw)``: in ``ker(1 - A)`` for ``sign = 1``, in
    ``ker(1 + A)`` for ``sign = -1``."""
    return BlockState(bd_exppoly(w), bd_exppoly(sign * g_bd(w)))


def pi1_block(ctx: DerivativeContext, state: BlockState) -> BlockState:
    """Projection onto ``ker(1 - A)``: ``(x, Gx)``; the second component
    is the derivative of the first."""
    return _deficiency_state(boundary_data(ctx, state)[0], 1.0)


def pi_minus1_block(ctx: DerivativeContext, state: BlockState) -> BlockState:
    """Projection onto ``ker(1 + A)``: ``(y, -Gy)``."""
    return _deficiency_state(boundary_data(ctx, state)[1], -1.0)


# ----------------------------------------------------------------------
# h <-> f reduction
# ----------------------------------------------------------------------

BlockMap = Callable[[BlockState], BlockState]


def lift_f_to_h(ctx: DerivativeContext, f: ContractionMap) -> BlockMap:
    """Extend a BD map to the deficiency spaces: ``h(w, Gw) = (fw, -G fw)``."""

    def h(state: BlockState) -> BlockState:
        return _deficiency_state(f(bd_project(ctx, state.u)), -1.0)

    return h


def reduce_h_to_f(
    ctx: DerivativeContext, h: BlockMap, lipschitz_cert: float = 1.0
) -> ContractionMap:
    """First component of ``h`` along ``w -> (w, Gw)``; certificates
    transfer unchanged because ``|(w, Gw)|_{L2 x L2} = |w|_BD``."""

    def func(coeffs: np.ndarray) -> np.ndarray:
        return bd_project(ctx, h(_deficiency_state(coeffs, 1.0)).u)

    return ContractionMap(bd_space(ctx), func, lipschitz_cert)


# ----------------------------------------------------------------------
# Membership in boundary coordinates
# ----------------------------------------------------------------------

#: One membership view: a matrix taking ``z = (u_BD, Dv_BD)`` to a
#: residual whose Euclidean norm is the defect, or, for a nonlinear
#: view, a callable returning the defect of one ``z``.
View = Union[np.ndarray, Callable[[np.ndarray], float]]


@_per_context
def _endpoint_maps(ctx: DerivativeContext) -> tuple[np.ndarray, np.ndarray]:
    """``(to_z, P V)`` on BD coefficients.

    ``P`` takes endpoint values ``(w(a), w(b))`` to the coefficients of
    the projection onto BD (the matrix of ``_pi_coeffs``), and ``V`` is
    ``ctx.endpoint_matrix``, so ``P V`` is the identity up to roundoff.
    ``to_z`` takes the endpoint values ``(u(a), u(b), v(a), v(b))`` of a
    state to ``z = (u_BD, Dv_BD)``: ``P`` on each component, then
    ``g_bd`` on the second.
    """
    p = np.column_stack([_pi_coeffs(ctx, 1.0, 0.0), _pi_coeffs(ctx, 0.0, 1.0)])
    to_z = np.zeros((4, 4))
    to_z[:2, :2] = p
    to_z[2:, 2:] = p * np.array([[1.0], [-1.0]])
    return to_z, p @ ctx.endpoint_matrix


def _endpoint_values(ctx: DerivativeContext, states) -> np.ndarray:
    """``(N, 4)`` array of ``u(a), u(b), v(a), v(b)``, one row per state."""
    a, b = ctx.a, ctx.b
    rows = [(*_eval_pair(s.u, a, b), *_eval_pair(s.v, a, b)) for s in states]
    return np.array(rows, dtype=float).reshape(-1, 4)


class _Kernel(NamedTuple):
    """Membership views as one map of the endpoint array.

    ``matrix`` takes a row of endpoint values to ``z = (u_BD, Dv_BD)``
    followed by the residuals of the matrix views; ``weights`` sums
    squares of those columns into ``|u_BD|^2``, ``|Dv_BD|^2`` and one
    squared defect per view (a zero column for each callable view, whose
    defect ``rows`` fills in from ``z``).
    """

    names: tuple[str, ...]
    matrix: np.ndarray
    weights: np.ndarray
    rows: tuple[tuple[int, Callable[[np.ndarray], float]], ...]

    @classmethod
    def build(cls, ctx: DerivativeContext, views: dict) -> "_Kernel":
        to_z = _endpoint_maps(ctx)[0]
        matrix = np.vstack([to_z] + [v @ to_z for v in views.values() if not callable(v)]).T
        weights = np.zeros((matrix.shape[1], 2 + len(views)))
        # the BD Gram matrix is diagonal
        weights[0:2, 0] = weights[2:4, 1] = np.diag(bd_space(ctx).gram)
        start, rows = 4, []
        for col, view in enumerate(views.values(), start=2):
            if callable(view):
                rows.append((col, view))
            else:
                weights[start:start + len(view), col] = 1.0
                start += len(view)
        return cls(tuple(views), matrix, weights, tuple(rows))

    def verdicts(self, endpoints: np.ndarray, tol: float) -> np.ndarray:
        """``(N, len(names))`` booleans: defect <= tol (1 + |u_BD| + |Dv_BD|)."""
        resid = endpoints @ self.matrix
        norms = np.sqrt((resid * resid) @ self.weights)
        for col, defect in self.rows:
            norms[:, col] = [defect(z) for z in resid[:, :4]]
        return norms[:, 2:] <= tol * (1.0 + norms[:, :1] + norms[:, 1:2])


def _cayley_view(
    space: InnerSpace, f: ContractionMap, around: Optional[np.ndarray] = None
) -> View:
    """Defect of ``f(x) = y``, ``x = (u_BD + Dv_BD)/2``, ``y = (u_BD - Dv_BD)/2``.

    With ``around`` the map is read as ``around f around``: the h view,
    whose ``(w, Gw) -> (fw, -G fw)`` passes through endpoint values
    before and after ``f``.
    """
    eye = np.eye(2)
    to_x = 0.5 * np.hstack([eye, eye])
    to_y = 0.5 * np.hstack([eye, -eye])
    if f.is_linear:
        g = f.matrix if around is None else around @ f.matrix @ around
        return space._chol.T @ (g @ to_x - to_y)
    g = f if around is None else (lambda w: around @ f(around @ w))
    return lambda z: space.norm(g(to_x @ z) - to_y @ z)


def _pair_view(pair: OperatorPair) -> View:
    """Defect of ``S u_BD = T Dv_BD`` in the pair's codomain norm."""
    stacked = np.hstack([pair.S, -pair.T])
    if isinstance(pair.codomain_norm, str):
        return stacked
    return lambda z: pair.codomain_norm_of(stacked @ z)


# ----------------------------------------------------------------------
# Realizations
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockRealization:
    """One restriction of the block operator, stored in one description.

    ``description`` is the relation ``M`` on BD coefficients whenever the
    realization is linear, otherwise its nonexpansive map ``f``.
    Membership tests and resolvents read that description alone. The
    other views are derived from it on first use, for
    :meth:`domain_test_many`: ``f`` (when ``M`` is m-accretive), the
    relation (the Cayley relation of a nonlinear ``f``), the operator
    pair ``(S, T)`` (linear case) and the deficiency map ``h``. Nothing
    is sampled at construction.
    """

    ctx: DerivativeContext
    description: Union[LinearRelation, ContractionMap]

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_f(cls, ctx: DerivativeContext, f: ContractionMap) -> "BlockRealization":
        return cls(ctx, cayley_to_relation(f).linear if f.is_linear else f)

    @classmethod
    def from_relation(
        cls, ctx: DerivativeContext, relation: LinearRelation
    ) -> "BlockRealization":
        return cls(ctx, relation)

    @classmethod
    def from_st(
        cls, ctx: DerivativeContext, pair: OperatorPair
    ) -> "BlockRealization":
        return cls(ctx, st_relation(pair))

    # -- derived views ----------------------------------------------------

    @cached_property
    def is_m_accretive(self) -> bool:
        if isinstance(self.description, LinearRelation):
            return is_m_accretive_linear(self.description)
        return True

    @cached_property
    def f(self) -> Optional[ContractionMap]:
        """The nonexpansive map on BD; ``None`` if ``M`` is not m-accretive."""
        if isinstance(self.description, ContractionMap):
            return self.description
        if not self.is_m_accretive:
            return None
        # f = 2 (1 + M)^{-1} - 1; an m-accretive M has dim X basis pairs
        space = bd_space(self.ctx)
        basis = self.description.basis
        sums = (basis[:, 0, :] + basis[:, 1, :]).T
        resolvent = basis[:, 0, :].T @ np.linalg.solve(sums, np.eye(space.dim))
        return ContractionMap.from_matrix(space, 2.0 * resolvent - np.eye(2))

    @cached_property
    def relation(self):
        """``M`` itself, or the Cayley relation of a nonlinear ``f``."""
        if isinstance(self.description, LinearRelation):
            return self.description
        return cayley_to_relation(self.description)

    @cached_property
    def pair(self) -> Optional[OperatorPair]:
        """``Su = Tv`` with ``(S, -T)`` the column blocks of the projector
        onto the complement of ``M``, in orthonormal coordinates of
        ``X x X`` so that ``Y`` carries the Euclidean norm."""
        if not isinstance(self.description, LinearRelation):
            return None
        space = bd_space(self.ctx)
        d = space.dim
        rows = np.kron(np.eye(2), space._chol.T) @ self._perp
        return OperatorPair(space, rows[:, :d], -rows[:, d:])

    @cached_property
    def _perp(self) -> np.ndarray:
        """Orthogonal projector onto the complement of a linear ``M``, in
        the product Gram metric."""
        space = bd_space(self.ctx)
        k = self.description.dim
        eye = np.eye(2 * space.dim)
        if k == 0:
            return eye
        w = np.kron(np.eye(2), space.gram)
        basis = self.description.basis.reshape(k, -1).T  # columns span M
        # scaled by a power of two, which changes no bit of the projector,
        # so that the normal equations of a basis near 1e300 do not overflow
        basis = np.ldexp(basis, -np.frexp(np.max(np.abs(basis)))[1])
        return eye - basis @ np.linalg.solve(basis.T @ w @ basis, basis.T @ w)

    def _view(self, name: str) -> View:
        space = bd_space(self.ctx)
        if name == "relation":
            if isinstance(self.description, LinearRelation):
                return np.kron(np.eye(2), space._chol.T) @ self._perp
            return lambda z: self.relation.defect(z[:2], z[2:])
        if name == "pair":
            return _pair_view(self.pair)
        if name == "f":
            return _cayley_view(space, self.f)
        return _cayley_view(space, self.f, around=_endpoint_maps(self.ctx)[1])

    @cached_property
    def _plans(self) -> dict:
        """Resolvent plans keyed by ``tau``; they live as long as this object."""
        return {}

    def _resolvent_plan(self, tau: float) -> tuple:
        """``(h_u, h_dv, stacked)`` for ``tau``, built by the first
        :func:`block_resolve` at this ``tau`` and reused by every later one:
        the BD columns of the two homogeneous modes and, for a linear
        description, ``perp @ vstack([h_u, h_dv])`` (else ``None``)."""
        plan = self._plans.get(tau)
        if plan is None:
            h_u, h_dv = _homogeneous_frames(self.ctx, tau)
            stacked = None
            if isinstance(self.description, LinearRelation):
                stacked = self._perp @ np.vstack([h_u, h_dv])
                stacked.flags.writeable = False
            plan = self._plans[tau] = (h_u, h_dv, stacked)
        return plan

    @cached_property
    def _description_kernel(self) -> _Kernel:
        name = "relation" if isinstance(self.description, LinearRelation) else "f"
        return _Kernel.build(self.ctx, {name: self._view(name)})

    @cached_property
    def _views_kernel(self) -> _Kernel:
        names = ["relation"] if self.pair is None else ["relation", "pair"]
        if self.f is not None:
            names = ["f", *names, "h"]
        return _Kernel.build(self.ctx, {name: self._view(name) for name in names})

    # -- membership -----------------------------------------------------

    def domain_test(self, state: BlockState, tol: float = 1e-9) -> bool:
        """Membership decided by the stored description."""
        a, b = self.ctx.a, self.ctx.b
        ends = np.array([[*_eval_pair(state.u, a, b), *_eval_pair(state.v, a, b)]])
        return bool(self._description_kernel.verdicts(ends, tol)[0, 0])

    def domain_test_many(self, states, tol: float = 1e-9) -> dict:
        """Membership of each state under each available view.

        Returns one boolean array of length ``len(states)`` per view,
        keyed by its name. Every view is a function of the four endpoint
        values ``u(a), u(b), v(a), v(b)``, and for a linear realization
        a linear one: the states' endpoint values make one ``(N, 4)``
        array, one matrix product gives every residual, and only a
        nonlinear ``f`` is applied row by row.
        """
        kernel = self._views_kernel
        ok = kernel.verdicts(_endpoint_values(self.ctx, states), tol)
        return {name: ok[:, j] for j, name in enumerate(kernel.names)}

    def domain_test_all(self, state: BlockState, tol: float = 1e-9) -> dict:
        """Membership under each available view, keyed by its name."""
        views = self.domain_test_many((state,), tol)
        return {name: bool(ok[0]) for name, ok in views.items()}


def st_domain(
    ctx: DerivativeContext,
    pair: OperatorPair,
    state: BlockState,
    tol: float = 1e-9,
) -> bool:
    """Membership test ``S u_BD = T Dv_BD`` in the declared Y norm."""
    kernel = _Kernel.build(ctx, {"pair": _pair_view(pair)})
    return bool(kernel.verdicts(_endpoint_values(ctx, (state,)), tol)[0, 0])


# ----------------------------------------------------------------------
# Resolvent
# ----------------------------------------------------------------------


def _particular_second_order(w: ExpPoly, tau: float, ctx: DerivativeContext) -> ExpPoly:
    """One solution of ``u - tau^2 u'' = w``.

    ``1 - tau^2 D^2 = (1 + tau D)(1 - tau D)``, so by partial fractions

        u = 1/2 [ (1 + tau D)^{-1} w + (1 - tau D)^{-1} w ].

    The halves are the first-order solves of the 1-D resolvent, run at
    ``(tau, anchor a)`` and at ``(-tau, anchor b)``: the bounded Green
    kernels ``(1/tau) int_a^t e^{-(t-s)/tau}`` and
    ``(1/tau) int_t^b e^{-(s-t)/tau}``. Each handles the resonant rate
    of its own factor, ``-1/tau`` or ``+1/tau``, by its integrating-factor
    branch, so no term leaves its own rate. The two term lists make one
    ExpPoly.
    """
    t_scale = max(abs(ctx.a), abs(ctx.b))
    half = 0.5 * w
    return ExpPoly._trusted(_merge(
        _first_order_terms(half, tau, ctx.a, t_scale)
        + _first_order_terms(half, -tau, ctx.b, t_scale)
    ))


def _homogeneous_frames(ctx: DerivativeContext, tau: float):
    """BD data of the two homogeneous resolvent modes.

    The modes are ``(e^{t/tau}, -e^{t/tau})`` and
    ``(e^{-t/tau}, e^{-t/tau})``; returns their contributions to
    ``u_BD`` and ``Dv_BD`` as matrix columns, read-only since a
    realization's resolvent plan keeps them for every step at ``tau``.
    Raises :class:`RootNotFound` when a mode overflows on the interval.
    """
    sigma = 1.0 / tau
    w_plus = np.array(_mode_coeffs(ctx, ExpPoly.exponential(sigma)))
    w_minus = np.array(_mode_coeffs(ctx, ExpPoly.exponential(-sigma)))
    h_u = np.column_stack([w_plus, w_minus])
    h_dv = np.column_stack([-g_bd(w_plus), g_bd(w_minus)])
    h_u.flags.writeable = h_dv.flags.writeable = False
    return h_u, h_dv


def block_resolve(
    realization: BlockRealization, rhs: BlockState, tau: float
) -> BlockState:
    """Solve ``u + tau Dv = f1``, ``v + tau Gu = f2`` in the realization.

    Eliminating ``v`` gives ``u - tau^2 u'' = f1 - tau f2'``, solved by
    partial fractions as half the sum of the first-order resolvents of
    ``+-tau D`` (see :func:`_particular_second_order`); the two
    homogeneous coefficients are pinned by the realization's boundary
    description: a direct linear solve when the description is linear,
    otherwise Picard iteration on a proven contraction with a certified
    stop (see :func:`_solve_boundary_coeffs`). A nonlinear ``f`` that
    breaks its Lipschitz certificate can raise :class:`RootNotFound`.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    ctx = realization.ctx
    sigma = 1.0 / tau
    w = _sub_scaled_derivative(rhs.u, tau, rhs.v)
    u_part = _particular_second_order(w, tau, ctx)
    v_part = _sub_scaled_derivative(rhs.v, tau, u_part)

    # the BD coefficients of u_part and of Dv_part, as bd_project and g_bd give them
    u_bd0 = np.array(_projection_coeffs(ctx, u_part))
    dv_bd0 = g_bd(_projection_coeffs(ctx, v_part))

    plan = realization._resolvent_plan(tau)
    coeffs = _solve_boundary_coeffs(realization, plan, u_bd0, dv_bd0)

    modes = ((sigma, (float(coeffs[0]),)), (-sigma, (float(coeffs[1]),)))
    u = ExpPoly._trusted(_merge(u_part.terms + modes))
    v = _sub_scaled_derivative(rhs.v, tau, u)
    result = BlockState(u, v)
    if not realization.domain_test(result, tol=1e-8):
        raise RootNotFound("block boundary solve converged to a non-member")
    return result


def _solve_boundary_coeffs(
    realization: BlockRealization, plan: tuple, u_bd0: np.ndarray, dv_bd0: np.ndarray
) -> np.ndarray:
    """The two homogeneous coefficients that put the solution in the realization.

    ``plan`` is the realization's resolvent plan for the step's ``tau``
    (see :meth:`BlockRealization._resolvent_plan`). A linear description
    is one least-squares solve. For a nonlinear ``f``, ``c`` solves
    ``f(x_p + L c) = y_p + N c``, where ``(x_p, y_p)`` are the deficiency
    data of the particular solution and the columns of ``L`` and ``N``
    those of the two modes: with ``C = L N^{-1}`` and
    ``x_0 = x_p - C y_p``, ``x = x_0 + C f(x)`` and ``c = N^{-1} (f(x) - y_p)``.

    ``C`` swaps the two BD coordinates. With ``sigma = 1/tau``, ``l = b - a``
    and ``e^{beta b} - e^{beta a} = 2 e^{beta (a+b)/2} sinh(beta l/2)``, the
    powers of ``e^{a+b}`` cancel and both its orthonormal entries are

        |C| = sinh(|sigma - 1| l/2) / sinh((sigma + 1) l/2) <= |1 - tau| / (1 + tau),

    the bound because ``sinh(alpha y) / sinh(beta y)``, ``0 <= alpha < beta``,
    falls in ``y`` (``y coth y`` rises) from ``alpha / beta`` at ``y = 0``.
    So for ``f`` with certificate ``cert`` the map contracts at the rate
    ``q = cert |C| < 1`` (``q = 0`` at ``tau = 1``: one step is exact). The
    iteration stops once ``gap q / (1 - q) <= 1e-12 (1 + |x|)``, a bound on
    the distance to the fixed point, which holds within the a-priori
    ``ceil(log(1e-12 (1 - q) / gap_0) / log q)`` steps. A few steps past
    that count it raises :class:`RootNotFound`: ``f`` breaks its
    certificate, or, for ``q`` within about 0.005 of 1, the roundoff floor
    of the steps lies above the stop.
    """
    description = realization.description
    h_u, h_dv, stacked = plan

    if isinstance(description, LinearRelation):
        # (u_BD, Dv_BD) in M: project the affine family onto M-perp.
        perp = realization._perp
        target = -perp @ np.concatenate([u_bd0, dv_bd0])
        coeffs, *_ = np.linalg.lstsq(stacked, target, rcond=None)
        resid = float(np.linalg.norm(stacked @ coeffs - target))
        scale = 1.0 + float(np.linalg.norm(target))
        if resid > 1e-8 * scale:
            raise RootNotFound(
                "resolvent equation is singular for this realization and tau"
            )
        return coeffs

    f = description
    space = bd_space(realization.ctx)
    l_mat = 0.5 * (h_u + h_dv)
    n_mat = 0.5 * (h_u - h_dv)
    x_p = 0.5 * (u_bd0 + dv_bd0)
    y_p = 0.5 * (u_bd0 - dv_bd0)
    n_inv = np.linalg.inv(n_mat)
    comp = l_mat @ n_inv
    q = f.lipschitz_cert * operator_norm(space, comp)
    # x_0 is the fixed point for f = 0; formed once, so that no step
    # cancels x_p against C y_p
    x_0 = x_p - comp @ y_p
    x = x_0 + comp @ f(x_0)
    gap = space.norm(x - x_0)
    if not (q < 1.0 and math.isfinite(gap)):
        raise RootNotFound(f"no certified contraction: rate {q}, first step {gap}")
    tol = 1e-12 * (1.0 - q)
    # the k-th later gap is at most q^k gap, so the stop holds within `cap` steps
    cap = 0 if gap * q <= tol else math.ceil(math.log(tol / gap) / math.log(q)) + 2
    for _ in range(cap + 1):
        if gap * q <= tol * (1.0 + space.norm(x)):
            return n_inv @ (f(x) - y_p)
        nxt = x_0 + comp @ f(x)
        gap = space.norm(nxt - x)
        x = nxt
    raise RootNotFound(
        f"boundary fixed point not reached in {cap} steps at rate {q}: the Lipschitz "
        f"certificate {f.lipschitz_cert} of f is falsified, or roundoff stalls the steps"
    )
