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
``M`` or ``f`` and derives ``f``, the relation and ``h`` on demand; a
given pair ``(S, T)`` is tested by :func:`st_domain`. Membership of a state
``(u, v)`` depends on it only through the four endpoint values
``u(a), u(b), v(a), v(b)``, and for a linear realization every
description's defect is a fixed linear map of them: membership of N
states is one matrix product on an ``(N, 4)`` array. The resolvent,
``u - tau^2 u'' = w`` split by partial fractions,
``1 - tau^2 D^2 = (1 + tau D)(1 - tau D)``, into two first-order solves
of the kind the 1-D resolvent uses, is a step on coefficient rows
(:meth:`BlockRealization._step_map`). The boundary equation of every
description is ``x = x_0 + C y`` in deficiency coordinates; ``C``, its
solution map (a 2x2 matrix for a linear relation, a Picard rate for a
nonlinear ``f``) and the solves' per-rate blocks make a resolvent plan,
built by the first step at a ``tau`` and kept on the realization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .derivative import (
    _FirstOrderSolve,
    _StepMap,
    _fixed_point,
    _mode_coeffs,
    _pi_coeffs,
    _projection_coeffs,
    _trajectory_basis,
)
from .errors import RootNotFound
from .funcspace import (
    ExpPoly,
    Interval,
    _eval_pair,
    _quadrature_norm,
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
    """``build(ctx)``, made once per interval and kept on it, so that it
    lives exactly as long as the interval."""

    @functools.wraps(build)
    def cached(ctx: Interval):
        memo = ctx._memo
        value = memo.get(build)
        if value is None:
            value = memo[build] = build(ctx)
        return value

    return cached


@_per_context
def bd_space(ctx: Interval) -> InnerSpace:
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


def bd_project(ctx: Interval, u: ExpPoly) -> np.ndarray:
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


def boundary_data(ctx: Interval, state: BlockState) -> tuple[np.ndarray, np.ndarray]:
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


def pi1_block(ctx: Interval, state: BlockState) -> BlockState:
    """Projection onto ``ker(1 - A)``: ``(x, Gx)``; the second component
    is the derivative of the first."""
    return _deficiency_state(boundary_data(ctx, state)[0], 1.0)


def pi_minus1_block(ctx: Interval, state: BlockState) -> BlockState:
    """Projection onto ``ker(1 + A)``: ``(y, -Gy)``."""
    return _deficiency_state(boundary_data(ctx, state)[1], -1.0)


# ----------------------------------------------------------------------
# h <-> f reduction
# ----------------------------------------------------------------------

BlockMap = Callable[[BlockState], BlockState]


def lift_f_to_h(ctx: Interval, f: ContractionMap) -> BlockMap:
    """Extend a BD map to the deficiency spaces: ``h(w, Gw) = (fw, -G fw)``."""

    def h(state: BlockState) -> BlockState:
        return _deficiency_state(f(bd_project(ctx, state.u)), -1.0)

    return h


def reduce_h_to_f(ctx: Interval, h: BlockMap, lipschitz_cert: float = 1.0) -> ContractionMap:
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
def _endpoint_maps(ctx: Interval) -> tuple[np.ndarray, np.ndarray]:
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


def _endpoint_values(ctx: Interval, states) -> np.ndarray:
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
    def build(cls, ctx: Interval, views: dict) -> "_Kernel":
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
    s_minus_t = np.hstack([pair.S, -pair.T])
    if isinstance(pair.codomain_norm, str):
        return s_minus_t
    return lambda z: pair.codomain_norm_of(s_minus_t @ z)


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
    relation (the Cayley relation of a nonlinear ``f``) and the
    deficiency map ``h``. A realization made :meth:`from_st` stores the
    pair's relation; the pair itself is tested by :func:`st_domain`.
    Nothing is sampled at construction.
    """

    ctx: Interval
    description: Union[LinearRelation, ContractionMap]

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_f(cls, ctx: Interval, f: ContractionMap) -> "BlockRealization":
        return cls(ctx, cayley_to_relation(f).linear if f.is_linear else f)

    @classmethod
    def from_relation(cls, ctx: Interval, relation: LinearRelation) -> "BlockRealization":
        return cls(ctx, relation)

    @classmethod
    def from_st(cls, ctx: Interval, pair: OperatorPair) -> "BlockRealization":
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
        if name == "f":
            return _cayley_view(space, self.f)
        return _cayley_view(space, self.f, around=_endpoint_maps(self.ctx)[1])

    @cached_property
    def _plans(self) -> dict:
        """Resolvent plans keyed by ``tau``; they live as long as this object."""
        return {}

    def _resolvent_plan(self, tau: float) -> "_Plan":
        """The plan for ``tau``, built by the first step at this ``tau`` and
        reused by every later one (see :class:`_Plan`)."""
        plan = self._plans.get(tau)
        if plan is None:
            plan = self._plans[tau] = _Plan.build(self, tau)
        return plan

    def _step_map(self, tau: float, polys, steps: int) -> _StepMap:
        """The step of :func:`block_resolve` on rows ``(u, v)`` over the basis of
        ``steps`` steps from ``polys``: ``u = (f1 - tau f2') R``, ``v = f2 - tau u'``,
        with ``R`` half the sum of the plan's first-order solves, the bounded
        Green kernels of ``(1 + tau D)^{-1}`` from ``a`` and ``(1 - tau D)^{-1}``
        from ``b``, which keep every term on its own rate; then the modes
        ``e^{+-t/tau}`` take the coefficients of :func:`_solve_boundary_coeffs`."""
        plan = self._resolvent_plan(tau)
        basis = _trajectory_basis(plan.solves, polys, steps)
        n, d = basis.dim, basis.derivative()
        solve = 0.5 * (plan.solves[0].matrix(basis) + plan.solves[1].matrix(basis))

        def particular(rows: np.ndarray) -> np.ndarray:
            u = (rows[..., :n] - tau * (rows[..., n:] @ d)) @ solve
            return np.concatenate([u, rows[..., n:] - tau * (u @ d)], axis=-1)

        modes = basis.rows((ExpPoly.exponential(1.0 / tau), ExpPoly.exponential(-1.0 / tau)))
        to_z, kernel = _endpoint_maps(self.ctx)[0].T, self._description_kernel

        def coeffs(rows: np.ndarray) -> np.ndarray:
            z = rows @ to_z
            return _solve_boundary_coeffs(self, plan, z[:, :2], z[:, 2:])

        return _StepMap(
            basis, self.ctx, particular, coeffs, np.hstack([modes, -tau * (modes @ d)]),
            lambda ends: kernel.verdicts(ends, 1e-8)[:, 0],
            linear=isinstance(self.description, LinearRelation),
        )

    @cached_property
    def _description_kernel(self) -> _Kernel:
        name = "relation" if isinstance(self.description, LinearRelation) else "f"
        return _Kernel.build(self.ctx, {name: self._view(name)})

    @cached_property
    def _views_kernel(self) -> _Kernel:
        names = ["relation"] if self.f is None else ["f", "relation", "h"]
        return _Kernel.build(self.ctx, {name: self._view(name) for name in names})

    # -- membership -----------------------------------------------------

    def domain_test(self, state: BlockState, tol: float = 1e-9) -> bool:
        """Membership decided by the stored description."""
        ends = _endpoint_values(self.ctx, (state,))
        return bool(self._description_kernel.verdicts(ends, tol)[0, 0])

    def domain_test_many(self, states, tol: float = 1e-9) -> dict:
        """Membership of each state under each available view.

        Returns one boolean array of length ``len(states)`` per view,
        keyed by its name: ``f``, ``relation`` and ``h`` for an
        m-accretive realization, ``relation`` alone otherwise. Every view
        is a function of the four endpoint values ``u(a), u(b), v(a),
        v(b)``, and for a linear realization a linear one: the states'
        endpoint values make one ``(N, 4)`` array, one matrix product
        gives every residual, and only a nonlinear ``f`` is applied row
        by row.
        """
        kernel = self._views_kernel
        ok = kernel.verdicts(_endpoint_values(self.ctx, states), tol)
        return {name: ok[:, j] for j, name in enumerate(kernel.names)}

    def domain_test_all(self, state: BlockState, tol: float = 1e-9) -> dict:
        """Membership under each available view, keyed by its name."""
        views = self.domain_test_many((state,), tol)
        return {name: bool(ok[0]) for name, ok in views.items()}


def st_domain(
    ctx: Interval,
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


def block_resolve(
    realization: BlockRealization, rhs: BlockState, tau: float
) -> BlockState:
    """Solve ``u + tau Dv = f1``, ``v + tau Gu = f2`` in the realization.

    Eliminating ``v`` gives ``u - tau^2 u'' = f1 - tau f2'``: one step of
    :meth:`BlockRealization._step_map` on the rows of ``rhs``, whose two
    homogeneous coefficients are pinned by the realization's boundary
    description, ``x = x_0 + C y`` in deficiency coordinates. A relation of
    dimension other than 2 or with a singular ``X - C Y`` (no unique
    resolvent), a nonlinear ``f`` that breaks its Lipschitz certificate, or
    a result that fails the description at 1e-8 raises :class:`RootNotFound`.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    polys = (rhs.u, rhs.v)
    step = realization._step_map(tau, polys, 1)
    out, ends = step(step.basis.rows(polys).reshape(1, -1))
    if not step.member(ends)[0]:
        raise RootNotFound("block boundary solve converged to a non-member")
    return BlockState(*step.basis.polys(out.reshape(2, -1)))


class _Plan(NamedTuple):
    """What every block step at one ``tau`` shares (see
    :func:`_solve_boundary_coeffs`): ``C``, the diagonal of ``N``,
    ``Y (X - C Y)^{-1}`` for a linear relation or ``cert |C|`` for ``f``, and
    the first-order solves of ``(1 +- tau D)^{-1}`` anchored at ``a`` and ``b``."""

    comp: np.ndarray
    n_diag: np.ndarray
    gain: Union[np.ndarray, float]
    solves: tuple

    @classmethod
    def build(cls, realization: BlockRealization, tau: float) -> "_Plan":
        ctx, description = realization.ctx, realization.description
        t_scale = max(abs(ctx.a), abs(ctx.b))
        solves = (_FirstOrderSolve(tau, ctx.a, t_scale), _FirstOrderSolve(-tau, ctx.b, t_scale))
        p1, m1 = _mode_coeffs(ctx, ExpPoly.exponential(1.0 / tau))
        p2, m2 = _mode_coeffs(ctx, ExpPoly.exponential(-1.0 / tau))
        n_diag = np.array([p1, m2])
        comp = np.array([[0.0, p2], [m1, 0.0]]) / n_diag
        if not isinstance(description, LinearRelation):
            rate = description.lipschitz_cert * operator_norm(bd_space(ctx), comp)
            return cls(comp, n_diag, rate, solves)
        if description.dim != 2:
            k = description.dim
            raise RootNotFound(f"a relation of dimension {k} has no unique resolvent")
        u, v = description.basis[:, 0, :].T, description.basis[:, 1, :].T
        x, y = 0.5 * (u + v), 0.5 * (u - v)
        try:
            gain = y @ np.linalg.inv(x - comp @ y)
        except np.linalg.LinAlgError:
            gain = np.array(np.nan)
        if not np.all(np.isfinite(gain)):
            raise RootNotFound("resolvent equation is singular for this realization and tau")
        return cls(comp, n_diag, gain, solves)


def _solve_boundary_coeffs(
    realization: BlockRealization, plan: _Plan, u_bd0: np.ndarray, dv_bd0: np.ndarray
) -> np.ndarray:
    """The two homogeneous coefficients that put the solution in the realization.

    ``plan`` is the realization's resolvent plan for the step's ``tau``
    (see :class:`_Plan`). With ``(p1, m1)`` and ``(p2, m2)`` the BD
    coefficients of the modes ``e^{t/tau}`` and ``e^{-t/tau}``, coefficients
    ``c`` of the modes add ``L c`` to ``x = (u_BD + Dv_BD)/2`` and ``N c`` to
    ``y = (u_BD - Dv_BD)/2``, ``L = [[0, p2], [m1, 0]]``, ``N = diag(p1, m2)``.
    With ``(x_p, y_p)`` those of the particular solution, every description
    solves ``x = x_0 + C y``, ``C = L N^{-1}``, ``x_0 = x_p - C y_p``, and
    then ``c = N^{-1} (y - y_p)``. A linear relation with basis pairs
    ``(U, V)`` holds the ``(x, y) = (X a, Y a)``, ``X = (U + V)/2``,
    ``Y = (U - V)/2``; so ``y = Y (X - C Y)^{-1} x_0``, one 2x2 product,
    unique only for dimension 2 and an invertible ``X - C Y`` (else the
    plan raises :class:`RootNotFound`). A nonlinear ``f`` solves
    ``x = x_0 + C f(x)``, ``y = f(x)``. ``u_bd0`` and ``dv_bd0`` may hold
    one step per row.

    ``C`` swaps the two BD coordinates. With ``sigma = 1/tau``, ``l = b - a``
    and ``e^{beta b} - e^{beta a} = 2 e^{beta (a+b)/2} sinh(beta l/2)``, the
    powers of ``e^{a+b}`` cancel and both its orthonormal entries are

        |C| = sinh(|sigma - 1| l/2) / sinh((sigma + 1) l/2) <= |1 - tau| / (1 + tau),

    the bound because ``sinh(alpha y) / sinh(beta y)``, ``0 <= alpha < beta``,
    falls in ``y`` (``y coth y`` rises) from ``alpha / beta`` at ``y = 0``.
    So for ``f`` with certificate ``cert`` the map contracts at the rate
    ``q = cert |C| < 1`` (``q = 0`` at ``tau = 1``: one step is exact), and
    :func:`maccretive.derivative._fixed_point` solves it with a certified
    stop, as it does the 1-D equation.
    """
    comp = plan.comp
    x_p = 0.5 * (u_bd0 + dv_bd0)
    y_p = 0.5 * (u_bd0 - dv_bd0)
    # x_0 is formed once, so that no step cancels x_p against C y_p
    x_0 = x_p - y_p @ comp.T
    f = realization.description
    if isinstance(f, LinearRelation):
        y = x_0 @ plan.gain.T
    else:
        norm = bd_space(realization.ctx).norm
        solve = lambda x0: f(_fixed_point(lambda x: x0 + comp @ f(x), x0, plan.gain, norm))  # noqa: E731
        y = np.array([solve(x0) for x0 in np.atleast_2d(x_0)]).reshape(x_0.shape)
    return (y - y_p) / plan.n_diag
