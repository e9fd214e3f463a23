"""Implicit Euler time stepping driven by resolvents.

The scheme ``s_{k+1} = (1 + tau*B)^{-1} s_k`` inherits nonexpansiveness
from the resolvent, so admissible realizations produce nonincreasing
pairwise distances unconditionally; a certified distance increase is a
falsification witness for the boundary data. Only first-order stepping
is provided: the theory guarantees resolvent contraction and nothing
about higher-order accuracy.

:func:`evolve` is the one trajectory runner. It steps one or two starts
of a ``Realization1D`` or ``BlockRealization`` as coefficient rows over
one basis, through :func:`run_rows`, which finds each row's stop: the
first step that raised or failed the closing membership test. It
returns the rows, the stops, the norms of the first run and the
distances between the two runs. The CLI's ``evolve`` and
``wave-impedance`` suites judge what it returns, and
:func:`convergence_order` runs on it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import RootNotFound
from .funcspace import ExpBasis, _quadrature_norm, _state_norms

__all__ = ["Trajectory", "evolve", "convergence_order", "run_rows"]


class Trajectory(NamedTuple):
    """What :func:`evolve` returns.

    ``states[k]`` holds the rows over ``basis`` after step ``k``, one per
    run still stepping (``states[0]`` the starts); ``stops[r]`` is the
    first step at which run ``r`` raised or failed the closing membership
    test, or ``None``. ``norms`` are the first run's norms up to its stop,
    and ``distances``, with two starts, the norms of the first run minus
    the second over the steps both keep within that record. Where the
    realization has no resolvent at ``tau``, ``basis`` is ``None``,
    ``states`` is empty, every run stops at step 1, and the norm and the
    distance are the starts'.
    """

    basis: Optional[ExpBasis]
    states: list
    stops: list
    norms: np.ndarray
    distances: Optional[np.ndarray]


def run_rows(step, x: np.ndarray, steps: int, until: Optional[Callable[[np.ndarray], bool]] = None):
    """``(states, stops)`` of up to ``steps`` steps of the
    ``derivative._StepMap`` ``step`` from ``x``, at most two states, one row
    each, stepped stacked ``(rows, 1, width)`` with the bits of each row
    alone. ``states[k]`` holds the rows after step ``k`` (``states[0]`` is
    ``x``), and ``stops[r]`` is the first step at which row ``r`` raised or
    failed the closing membership test, or ``None``. When a batch raises,
    its last row leaves the run and the rest step again; the run ends when
    no row is left, or after a step whose rows ``until`` flags. Membership
    is tested once, after the loop, on all of row 0's steps, then all of
    row 1's."""
    states, ends, stops = [x], [], [None] * len(x)
    while len(states) <= steps and len(x):
        try:
            y, x_ends = step(x[:, None])
        # a step past DEGREE_CAP raises ValueError, a nonlinear boundary solve RootNotFound
        except Exception:  # noqa: BLE001
            stops[len(x) - 1] = len(states)
            x = x[:-1]
            continue
        x = y[:, 0]
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
    realization,
    starts: Sequence[Sequence],
    tau: float,
    steps: int,
    until: Optional[Callable[[float], bool]] = None,
) -> Trajectory:
    """Up to ``steps`` implicit-Euler steps of ``tau`` in ``realization``, a
    ``Realization1D`` or a ``BlockRealization``, from one or two
    ``starts``, each a state's functions: ``(f,)`` in 1-D, ``(u, v)`` in
    the block. The runs step as one batch of rows over one basis, each
    with the bits of its run alone (:func:`run_rows`); ``until``, given
    the first run's norm after each step, ends the runs after a step it
    flags. See :class:`Trajectory` for what comes back.
    """
    interval, paired = realization.ctx.interval, len(starts) == 2
    try:
        step = realization._step_map(tau, [f for start in starts for f in start], steps)
    except RootNotFound:  # no resolvent plan at tau: the first step fails
        gaps = [[f - g for f, g in zip(*starts)]] if paired else []
        sizes = np.array([_quadrature_norm(polys, interval) for polys in [starts[0], *gaps]])
        return Trajectory(None, [], [1] * len(starts), sizes[:1], sizes[1:] if paired else None)
    table = step.basis.values(interval)
    read = []  # the first run's norm after each step, when until needs it

    def flag(y: np.ndarray) -> bool:
        read.append(_state_norms(y[:1], table)[0])
        return until(read[-1])

    x = np.stack([step.basis.rows(start).ravel() for start in starts])
    states, stops = run_rows(step, x, steps, None if until is None else flag)
    # the first run's record ends before its stop; the second is measured on its states within it
    kept = stops[0] or len(states)
    pairs = min(kept, stops[1] or kept) if paired else 0
    head = kept if until is None else 1  # the first run's norms not yet read
    u = np.stack([y[0] for y in states[: max(head, pairs)]])
    v = np.stack([y[1] for y in states[:pairs]]) if pairs else u[:0]
    sizes = _state_norms(np.vstack([u[:head], u[:pairs] - v]), table)
    norms = np.concatenate([sizes[:head], read[: kept - head]])
    return Trajectory(step.basis, states, stops, norms, sizes[head:] if paired else None)


def convergence_order(
    realization,
    start: Sequence,
    tau_list: Sequence[float],
    horizon: float,
    exact_final: Optional[Sequence] = None,
) -> float:
    """Estimated order of accuracy at time ``horizon`` of the run of
    :func:`evolve` from ``start`` (a state's functions) at each ``tau``.

    With ``exact_final`` (functions like ``start``) the errors against it
    are fitted; otherwise a Richardson estimate from successive endpoint
    differences is used. Returns ``nan`` when the endpoints coincide
    (exactly invariant initial data). A run that stops before the
    horizon raises :class:`RootNotFound`.
    """
    taus = list(tau_list)
    if any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tau_list must be strictly decreasing")
    endpoints = []
    for tau in taus:
        steps = round(horizon / tau)
        if abs(steps * tau - horizon) > 1e-9 * max(1.0, horizon):
            raise ValueError(f"tau = {tau} does not divide the horizon {horizon}")
        run = evolve(realization, [start], tau, steps)
        if run.stops[0] is not None:
            raise RootNotFound(f"the run at tau = {tau} stops at step {run.stops[0]}")
        endpoints.append(run.basis.polys(run.states[-1].reshape(len(start), -1)))

    interval = realization.ctx.interval

    def distance(x, y) -> float:
        return _quadrature_norm([f - g for f, g in zip(x, y)], interval)

    if exact_final is not None:
        errors = [distance(e, exact_final) for e in endpoints]
        pairs = list(zip(taus, errors))
    else:
        diffs = [distance(e1, e2) for e1, e2 in zip(endpoints, endpoints[1:])]
        pairs = list(zip(taus, diffs))

    rates = []
    for (t1, e1), (t2, e2) in zip(pairs, pairs[1:]):
        if e1 <= 0.0 or e2 <= 0.0:
            continue
        rates.append(math.log(e1 / e2) / math.log(t1 / t2))
    if not rates:
        return math.nan
    return sum(rates) / len(rates)
