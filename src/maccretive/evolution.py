"""Implicit Euler time stepping driven by resolvents.

The scheme ``s_{k+1} = (1 + tau*B)^{-1} s_k`` inherits nonexpansiveness
from the resolvent, so admissible realizations produce nonincreasing
pairwise distances unconditionally; a certified distance increase is a
falsification witness for the boundary data. Only first-order stepping
is provided: the theory guarantees resolvent contraction and nothing
about higher-order accuracy.

:func:`evolve` and :func:`contraction_report` step ExpPoly and
BlockState states through a resolvent callable. The CLI's trajectories
step coefficient rows instead, through :func:`run_rows`, the one runner:
it prunes every state by the rule of :func:`_row_postprocessor` and
returns each row's stop, the first step that raised or failed the
closing membership test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .blockop import BlockState
from .errors import ContractionViolated, EvolutionStepFailed
from .funcspace import ExpBasis, Interval

__all__ = [
    "SchemeConfig",
    "TrajectoryRecord",
    "evolve",
    "contraction_report",
    "convergence_order",
    "trajectory_postprocessor",
    "run_rows",
]

State = TypeVar("State")

#: A state that stores more coefficients than this is pruned by :func:`_row_postprocessor`.
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


def _row_postprocessor(interval: Interval, basis):
    """The one pruning rule of a trajectory, for the states of a ``(states,
    width)`` array, or one state as a flat row, each its functions'
    coefficient rows over the ``ExpBasis`` ``basis`` side by side. A state
    that stores more than ``TERM_COUNT_CAP`` coefficients, each block counted
    to its last nonzero one, loses every coefficient ``c`` of ``t**k`` whose
    ``|c| B**k``, ``B = max(1, |a|, |b|)``, is at most 1e-13 of the largest
    of its function. When no state is over the cap, ``x`` itself comes back."""
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


def trajectory_postprocessor(interval: Interval):
    """Between-step pruning hook for ExpPoly and BlockState states: the rule
    of :func:`_row_postprocessor` on the state's rows over the basis spanning
    its functions. A state it leaves as it is comes back as the same object."""

    def clean(state):
        polys = (state.u, state.v) if isinstance(state, BlockState) else (state,)
        basis = ExpBasis.spanning(polys)
        x = basis.rows(polys).ravel()
        y = _row_postprocessor(interval, basis)(x) if basis.dim else x  # dim 0: the zero state
        if y is x:
            return state
        pruned = basis.polys(y.reshape(len(polys), -1))
        return BlockState(*pruned) if isinstance(state, BlockState) else pruned[0]

    return clean


def run_rows(step, x: np.ndarray, steps: int, until: Optional[Callable[[np.ndarray], bool]] = None):
    """``(states, stops)`` of up to ``steps`` steps of the
    ``derivative._StepMap`` ``step`` from ``x``, at most two states, one row
    each, stepped stacked ``(rows, 1, width)`` with the bits of each row
    alone and pruned by :func:`_row_postprocessor`. ``states[k]`` holds the
    rows after step ``k`` (``states[0]`` is ``x``), and ``stops[r]`` is the
    first step at which row ``r`` raised or failed the closing membership
    test, or ``None``. When a batch raises, its last row leaves the run and
    the rest step again; the run ends when no row is left, or after a step
    whose rows ``until`` flags. Membership is tested once, after the loop,
    on all of row 0's steps, then all of row 1's."""
    clean = _row_postprocessor(step.interval, step.basis)
    states, ends, stops = [x], [], [None] * len(x)
    while len(states) <= steps and len(x):
        try:
            y, x_ends = step(x[:, None])
        except Exception:  # noqa: BLE001 - any error stops a run, as in evolve
            stops[len(x) - 1] = len(states)
            x = x[:-1]
            continue
        x = clean(y[:, 0])
        states.append(x)
        ends.append(x_ends)
        if until is not None and until(x):
            break
    if ends:
        member = step.member(np.vstack([e[r : r + 1] for r in range(len(stops)) for e in ends]))
        for r in range(len(stops)):
            taken = sum(len(e) > r for e in ends)
            if not member[:taken].all():
                stops[r] = int(np.argmin(member[:taken])) + 1
            member = member[taken:]
    return states, stops


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
