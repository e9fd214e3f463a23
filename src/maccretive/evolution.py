"""Implicit Euler time stepping driven by resolvents.

The scheme ``s_{k+1} = (1 + tau*B)^{-1} s_k`` inherits nonexpansiveness
from the resolvent, so admissible realizations produce nonincreasing
pairwise distances unconditionally; a certified distance increase is a
falsification witness for the boundary data. Only first-order stepping
is provided: the theory guarantees resolvent contraction and nothing
about higher-order accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .blockop import BlockState
from .errors import ContractionViolated, EvolutionStepFailed
from .funcspace import Interval, prune

__all__ = [
    "SchemeConfig",
    "TrajectoryRecord",
    "evolve",
    "contraction_report",
    "convergence_order",
    "term_count",
    "trajectory_postprocessor",
]

State = TypeVar("State")

#: When a state carries more stored coefficients than this, relative
#: pruning below 1e-13 is applied between steps.
TERM_COUNT_CAP = 64


@dataclass(frozen=True)
class SchemeConfig:
    """Time step, step count, and the per-step distance slack."""

    tau: float
    steps: int
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class TrajectoryRecord:
    """States, norms, and timestamps of one implicit-Euler run."""

    states: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    timestamps: list = field(default_factory=list)

    def append(self, state, norm: float, time: float) -> None:
        self.states.append(state)
        self.norms.append(norm)
        self.timestamps.append(time)

    def __len__(self) -> int:
        return len(self.states)


def term_count(state) -> int:
    """Number of stored coefficients in an ExpPoly or BlockState."""
    if isinstance(state, BlockState):
        return term_count(state.u) + term_count(state.v)
    return sum(len(coeffs) for _, coeffs in state.terms)


def trajectory_postprocessor(interval: Interval, cap: int = TERM_COUNT_CAP):
    """Between-step pruning hook; a no-op until ``cap`` is exceeded."""

    def clean(state):
        if term_count(state) <= cap:
            return state
        if isinstance(state, BlockState):
            return BlockState(prune(state.u, interval), prune(state.v, interval))
        return prune(state, interval)

    return clean


def _row_postprocessor(interval: Interval, basis):
    """:func:`trajectory_postprocessor` for the states of a ``(states, width)``
    array, or one state as a flat row, each its functions' coefficient rows
    over the ``ExpBasis`` ``basis`` side by side: the count of
    :func:`term_count` and the rule of :func:`prune`, state by state."""
    degree, starts = basis.positions, basis._block_starts
    weight = max(1.0, abs(interval.a), abs(interval.b)) ** degree

    def clean(x: np.ndarray) -> np.ndarray:
        rows = x.reshape(-1, x.shape[-1] // basis.dim, basis.dim)
        counts = np.maximum.reduceat((rows != 0.0) * (degree + 1), starts, axis=2).sum(axis=(1, 2))
        under = counts <= TERM_COUNT_CAP
        if under.all():
            return x
        reach = np.abs(rows) * weight
        keep = under[:, None, None] | (reach > 1e-13 * reach.max(axis=2, keepdims=True))
        return np.where(keep, rows, 0.0).reshape(x.shape)

    return clean


def evolve(
    resolvent: Callable[[State, float], State],
    u0: State,
    cfg: SchemeConfig,
    norm: Callable[[State], float],
) -> TrajectoryRecord:
    """Run ``steps`` implicit-Euler steps from ``u0``.

    ``resolvent(state, tau)`` must solve ``(1 + tau*B) out = state``.
    Failures are re-raised with the failing step index and the partial
    record attached.
    """
    record = TrajectoryRecord()
    record.append(u0, norm(u0), 0.0)
    state = u0
    for k in range(cfg.steps):
        try:
            state = resolvent(state, cfg.tau)
        except Exception as exc:  # noqa: BLE001 - annotate and rethrow
            raise EvolutionStepFailed(k + 1, exc, record) from exc
        record.append(state, norm(state), (k + 1) * cfg.tau)
    return record


def contraction_report(
    resolvent: Callable[[State, float], State],
    u_states: Sequence[State],
    v0: State,
    cfg: SchemeConfig,
    norm_of_difference: Callable[[State, State], float],
) -> list[float]:
    """Pairwise distances ``d_k`` between a recorded trajectory and the
    trajectory from ``v0``.

    ``u_states`` are the states of a run already taken, such as
    ``evolve(...).states``; the second trajectory takes one step of
    ``cfg.tau`` per recorded state after the first. Raises
    :class:`ContractionViolated` at the first step whose distance
    exceeds the previous one by more than ``cfg.tol``.
    """
    distances = [norm_of_difference(u_states[0], v0)]
    v = v0
    for k, u in enumerate(u_states[1:]):
        try:
            v = resolvent(v, cfg.tau)
        except Exception as exc:  # noqa: BLE001
            raise EvolutionStepFailed(k + 1, exc) from exc
        d = norm_of_difference(u, v)
        if d > distances[-1] + cfg.tol:
            raise ContractionViolated(k + 1, distances[-1], d)
        distances.append(d)
    return distances


def convergence_order(
    resolvent: Callable[[State, float], State],
    u0: State,
    tau_list: Sequence[float],
    horizon: float,
    norm_of_difference: Callable[[State, State], float],
    exact_final: Optional[State] = None,
) -> float:
    """Estimated order of accuracy at time ``horizon``.

    With ``exact_final`` the errors against it are fitted; otherwise a
    Richardson estimate from successive endpoint differences is used.
    Returns ``nan`` when the endpoints coincide (exactly invariant
    initial data).
    """
    taus = list(tau_list)
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tau_list must be strictly decreasing")
    endpoints = []
    for tau in taus:
        steps = round(horizon / tau)
        if abs(steps * tau - horizon) > 1e-9 * max(1.0, horizon):
            raise ValueError(f"tau = {tau} does not divide the horizon {horizon}")
        state = u0
        for _ in range(steps):
            state = resolvent(state, tau)
        endpoints.append(state)

    if exact_final is not None:
        errors = [norm_of_difference(e, exact_final) for e in endpoints]
        pairs = list(zip(taus, errors))
    else:
        diffs = [
            norm_of_difference(e1, e2) for e1, e2 in zip(endpoints, endpoints[1:])
        ]
        pairs = list(zip(taus, diffs))

    rates = []
    for (t1, e1), (t2, e2) in zip(pairs, pairs[1:]):
        if e1 <= 0.0 or e2 <= 0.0:
            continue
        rates.append(math.log(e1 / e2) / math.log(t1 / t2))
    if not rates:
        return math.nan
    return sum(rates) / len(rates)
