"""Accretive relations and nonexpansive maps on finite-dimensional spaces.

A relation is a subspace of ``X x X``; a nonexpansive (1-Lipschitz) map
``f`` on ``X`` corresponds to an m-accretive relation through the Cayley
correspondence ``M = 2(1+f)^{-1} - 1``, equivalently

    (u, v) in M  <=>  f((u+v)/2) = (u-v)/2.

Linear relations additionally admit the two-operator description
``(u, v) in M <=> Su = Tv``, for which m-accretivity reduces to three
checkable conditions on ``S`` and ``T``.

Nonlinear maps and relations are handled behaviourally: membership
predicates and resolvent callables, with randomized falsification
checks (a sampling pass is evidence, a sampled failure is a certified
counterexample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "InnerSpace",
    "LinearRelation",
    "ContractionMap",
    "OperatorPair",
    "CayleyRelation",
    "STReport",
    "is_accretive_linear",
    "is_m_accretive_linear",
    "cayley_to_relation",
    "relation_to_cayley",
    "st_relation",
    "st_criterion",
    "operator_norm",
    "estimate_operator_norm",
]

#: Relative singular-value / eigenvalue threshold for rank and PSD tests.
SPECTRAL_RTOL = 1e-10

#: Slack on "norm <= 1" style comparisons.
NORM_TOL = 1e-9


@dataclass(eq=False)
class InnerSpace:
    """Real inner-product space of dimension ``dim`` with Gram matrix."""

    dim: int
    gram: np.ndarray

    def __post_init__(self) -> None:
        self.gram = np.asarray(self.gram, dtype=float)
        if self.gram.shape != (self.dim, self.dim):
            raise ValueError("gram shape does not match dim")
        eigs = np.linalg.eigvalsh(0.5 * (self.gram + self.gram.T))
        if eigs[0] <= 1e-12 * eigs[-1]:
            raise ValueError("gram matrix is not positive definite")
        self._chol = np.linalg.cholesky(0.5 * (self.gram + self.gram.T))

    @classmethod
    def euclidean(cls, dim: int) -> "InnerSpace":
        return cls(dim, np.eye(dim))

    @classmethod
    def _diagonal(cls, entries) -> "InnerSpace":
        """The space with Gram matrix ``diag(entries)``, entries positive, unchecked.

        Its Cholesky factor is ``diag(sqrt(entries))``, what
        ``np.linalg.cholesky`` returns for a diagonal matrix. The
        constructor's eigenvalue test is relative, so it would reject a
        diagonal whose entries are more than ``1e12`` apart, which is
        positive definite all the same.
        """
        space = object.__new__(cls)
        space.dim = len(entries)
        space.gram = np.diag(entries)
        space._chol = np.diag(np.sqrt(entries))
        return space

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))

    def random_vectors(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.dim))


def operator_norm(space: InnerSpace, matrix: np.ndarray) -> float:
    """Exact operator norm of ``matrix: X -> X`` in the space's norm."""
    chol = space._chol
    m = chol.T @ np.asarray(matrix, dtype=float) @ np.linalg.inv(chol.T)
    return float(np.linalg.norm(m, 2))


def estimate_operator_norm(
    space: InnerSpace,
    func: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    samples: int = 10_000,
) -> float:
    """Lower estimate of a homogeneous map's norm over random unit vectors."""
    best = 0.0
    for x in space.random_vectors(rng, samples):
        nx = space.norm(x)
        if nx == 0.0:
            continue
        best = max(best, space.norm(func(x)) / nx)
    return best


# ----------------------------------------------------------------------
# Linear relations
# ----------------------------------------------------------------------


@dataclass(eq=False)
class LinearRelation:
    """Subspace of ``X x X`` spanned by ``basis`` pairs ``(u_i, v_i)``."""

    space: InnerSpace
    basis: np.ndarray  # shape (k, 2, dim)

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=float).reshape(-1, 2, self.space.dim)
        if not np.all(np.isfinite(self.basis)):
            raise ValueError("relation basis entries must be finite")
        k = self.basis.shape[0]
        if k:
            flat = self.basis.reshape(k, 2 * self.space.dim)
            if np.linalg.matrix_rank(flat, tol=None) != k:
                raise ValueError("relation basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, u: np.ndarray, v: np.ndarray, tol: float = NORM_TOL) -> bool:
        """Whether ``(u, v)`` lies in the span, up to relative ``tol``."""
        target = np.concatenate([np.asarray(u, float), np.asarray(v, float)])
        w = np.kron(np.eye(2), self.space._chol.T)  # product-space isometry
        tw = w @ target
        scale = 1.0 + self.space.norm(u) + self.space.norm(v)
        if self.dim == 0:
            return float(np.linalg.norm(tw)) <= tol * scale
        cols = (w @ self.basis.reshape(self.dim, -1).T)
        coef, *_ = np.linalg.lstsq(cols, tw, rcond=None)
        resid = float(np.linalg.norm(cols @ coef - tw))
        return resid <= tol * scale


def is_accretive_linear(relation: LinearRelation) -> bool:
    """Positive semidefiniteness of ``(u, v) -> <v, u>`` on the span."""
    k = relation.dim
    if k == 0:
        return True
    u = relation.basis[:, 0, :]
    v = relation.basis[:, 1, :]
    form = v @ relation.space.gram @ u.T
    return _is_psd(0.5 * (form + form.T))


def _is_psd(sym: np.ndarray) -> bool:
    """Positive semidefiniteness of the symmetric ``sym`` (relative threshold)."""
    eigs = np.linalg.eigvalsh(sym)
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    return bool(eigs[0] >= -SPECTRAL_RTOL * scale)


def _rank(sv: np.ndarray, top: float) -> int:
    """Singular values above ``SPECTRAL_RTOL * top``, or 0 when ``top`` is 0."""
    return int(np.sum(sv > SPECTRAL_RTOL * top)) if top > 0 else 0


def is_m_accretive_linear(relation: LinearRelation) -> bool:
    """Accretive and ``1 + M`` surjective (full rank of ``{u+v}``)."""
    if not is_accretive_linear(relation):
        return False
    if relation.dim == 0:
        return relation.space.dim == 0
    sums = relation.basis[:, 0, :] + relation.basis[:, 1, :]
    sv = np.linalg.svd(sums, compute_uv=False)
    return _rank(sv, sv[0]) == relation.space.dim


# ----------------------------------------------------------------------
# Nonexpansive maps and the Cayley correspondence
# ----------------------------------------------------------------------


@dataclass(eq=False)
class ContractionMap:
    """Total 1-Lipschitz map on an inner-product space.

    The certificate is supplied by the caller; ``sampled_check``
    can only falsify it. ``matrix`` is set when the map is linear,
    which unlocks exact downstream computations.
    """

    space: InnerSpace
    func: Callable[[np.ndarray], np.ndarray]
    lipschitz_cert: float = 1.0
    matrix: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.lipschitz_cert > 1.0 + 1e-12:
            raise ValueError(
                f"certificate {self.lipschitz_cert} exceeds 1; not a contraction"
            )
        if self.matrix is not None:
            self.matrix = np.asarray(self.matrix, dtype=float)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    @property
    def is_linear(self) -> bool:
        return self.matrix is not None

    @classmethod
    def from_matrix(
        cls,
        space: InnerSpace,
        matrix: np.ndarray,
        lipschitz_cert: Optional[float] = None,
    ) -> "ContractionMap":
        matrix = np.asarray(matrix, dtype=float)
        if lipschitz_cert is None:
            lipschitz_cert = operator_norm(space, matrix)
        return cls(space, lambda x: matrix @ x, lipschitz_cert, matrix=matrix)

    @classmethod
    def zero(cls, space: InnerSpace) -> "ContractionMap":
        return cls.from_matrix(space, np.zeros((space.dim, space.dim)))

    @classmethod
    def identity(cls, space: InnerSpace, scale: float = 1.0) -> "ContractionMap":
        return cls.from_matrix(space, scale * np.eye(space.dim))

    def sampled_check(
        self,
        rng: np.random.Generator,
        samples: int = 10_000,
        tol: float = 1e-9,
    ) -> float:
        """Falsification pass for the Lipschitz certificate.

        Returns the largest observed ratio; raises if a sampled pair
        beats the certificate by more than ``tol``.
        """
        worst = 0.0
        xs = self.space.random_vectors(rng, samples)
        ys = self.space.random_vectors(rng, samples)
        for x, y in zip(xs, ys):
            gap = self.space.norm(x - y)
            if gap == 0.0:
                continue
            growth = self.space.norm(self(x) - self(y))
            if growth > self.lipschitz_cert * gap + tol:
                raise ValueError(
                    f"certificate {self.lipschitz_cert} falsified: "
                    f"growth {growth} over gap {gap}"
                )
            worst = max(worst, growth / gap)
        return worst


@dataclass(eq=False)
class CayleyRelation:
    """Image of a nonexpansive map under the Cayley correspondence.

    Membership is behavioural; for linear maps the explicit subspace is
    also materialised.
    """

    space: InnerSpace
    f: ContractionMap
    linear: Optional[LinearRelation] = None

    def defect(self, u: np.ndarray, v: np.ndarray) -> float:
        """``|f((u+v)/2) - (u-v)/2|``, zero exactly on the relation."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.space.norm(self.f(0.5 * (u + v)) - 0.5 * (u - v))

    def contains(self, u: np.ndarray, v: np.ndarray, tol: float = NORM_TOL) -> bool:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.defect(u, v) <= tol * (1.0 + self.space.norm(u) + self.space.norm(v))

    def resolvent(self, x: np.ndarray) -> np.ndarray:
        """Apply ``(1 + M)^{-1}``: ``u = f(x/2) + x/2``."""
        x = np.asarray(x, dtype=float)
        return self.f(0.5 * x) + 0.5 * x


def _null_relation(space: InnerSpace, stacked: np.ndarray) -> LinearRelation:
    """The pairs ``(u, v)`` with ``stacked @ [u; v] = 0``, from a full SVD."""
    _, sv, vh = np.linalg.svd(stacked)
    rank = _rank(sv, sv.max(initial=0.0))
    return LinearRelation(space, vh[rank:].reshape(-1, 2, space.dim))


def cayley_to_relation(f: ContractionMap) -> CayleyRelation:
    """Relation ``M = 2(1+f)^{-1} - 1`` induced by a nonexpansive map."""
    linear = None
    if f.is_linear:
        # (u, v) in M  <=>  (F-1)u + (F+1)v = 0
        eye = np.eye(f.space.dim)
        linear = _null_relation(f.space, np.hstack([f.matrix - eye, f.matrix + eye]))
    return CayleyRelation(f.space, f, linear=linear)


def relation_to_cayley(
    space: InnerSpace, resolvent: Callable[[np.ndarray], np.ndarray]
) -> ContractionMap:
    """Recover ``f = (1/2 (M+1))^{-1} - 1`` from a resolvent of ``M``.

    The certificate 1 holds when ``M`` is m-accretive; for a callable of
    unknown origin, :meth:`ContractionMap.sampled_check` can falsify it.
    """

    def f(u: np.ndarray) -> np.ndarray:
        return np.asarray(resolvent(2.0 * u), dtype=float) - u

    return ContractionMap(space, f, lipschitz_cert=1.0)


# ----------------------------------------------------------------------
# (S, T) descriptions of linear relations
# ----------------------------------------------------------------------

@dataclass(eq=False)
class OperatorPair:
    """Bounded operators ``S, T: X -> Y`` defining ``{(u,v): Su = Tv}``.

    ``Y`` is Euclidean. The relation does not depend on the norm of ``Y``;
    a ``Y`` with Gram matrix ``L L^T`` is the pair ``(L^T S, L^T T)``.
    """

    domain_space: InnerSpace
    S: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
        self.T = np.atleast_2d(np.asarray(self.T, dtype=float))
        if self.S.shape != self.T.shape:
            raise ValueError("S and T must have identical shapes")
        if self.S.shape[1] != self.domain_space.dim:
            raise ValueError("operator width does not match domain dimension")


@dataclass(frozen=True)
class STReport:
    """Outcome of the three-condition m-accretivity test."""

    holds: bool
    which_failed: frozenset
    norm_value: float

    def to_jsonable(self) -> dict:
        return {
            "holds": self.holds,
            "which_failed": sorted(self.which_failed),
            "norm_value": self.norm_value,
        }


def st_relation(pair: OperatorPair) -> LinearRelation:
    """The relation ``{(u, v) : Su = Tv}`` as an explicit subspace."""
    return _null_relation(pair.domain_space, np.hstack([pair.S, -pair.T]))


def st_criterion(pair: OperatorPair) -> STReport:
    """Decide m-accretivity of ``{(u,v): Su = Tv}`` from ``S`` and ``T``.

    The three conditions: the range of ``T - S`` is contained in the
    range of ``T + S``, the sum is injective, and the solution operator
    ``(S+T)^{-1}(T-S)`` is nonexpansive on the domain space.
    """
    total = pair.T + pair.S
    diff = pair.T - pair.S
    failed = set()

    sv_total = np.linalg.svd(total, compute_uv=False)
    if _rank(sv_total, sv_total.max(initial=0.0)) < pair.domain_space.dim:
        failed.add("injective")

    sv_aug = np.linalg.svd(np.hstack([total, diff]), compute_uv=False)
    top_aug = sv_aug.max(initial=0.0)
    if _rank(sv_aug, top_aug) > _rank(sv_total, top_aug):
        failed.add("range")

    norm_value = math.nan
    if not failed:
        solution, *_ = np.linalg.lstsq(total, diff, rcond=None)
        norm_value = operator_norm(pair.domain_space, solution)
        if norm_value > 1.0 + NORM_TOL:
            failed.add("norm")

    return STReport(holds=not failed, which_failed=frozenset(failed), norm_value=norm_value)
