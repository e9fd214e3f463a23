"""Seeded run-spec generators for the three benchmark workloads.

Spec ``i`` of a workload is drawn from its own generator seeded with
``(seed, workload, i)``, so the same seed always yields the same stream of specs
and a run that completes more specs sees a longer prefix of it. The
discrete choices that set how much work a spec is (kind, interval sign
class, time step, degree, step count) cycle with ``i`` instead, so every
run mixes them in the same proportions and seeds differ only in the
values drawn: interval endpoints, matrices, coefficients and boundary
maps.

Interval endpoints are drawn afresh for every spec within its sign
class (on 0, straddling 0, below 0), so no two specs share an interval
and the library's interval-keyed caches start cold on each spec.

Every generated spec is valid input: boundary maps are scaled below
their admissibility bound,
and impedance matrices keep the smallest eigenvalue of ``K + K^T`` at
least ``EIG_MARGIN`` away from zero so the verdict oracle is never a
roundoff call.

``evolve`` specs start from polynomial states on intervals inside
``[-1, 1]``, so the resolvent modes ``e^{+-t/tau}`` stay within ``e^10``.
Outside that range, or from states with exponential terms, ``evolve``
often raises ``EvolutionStepFailed`` out of the CLI on valid specs, and
every benchmark run must end in a verdict.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("decomposition", "block-membership", "trajectories")

SIGN_CLASSES = ("on", "straddle", "below")

DECOMPOSITION_SAMPLES = 24
BLOCK_STATES = 24
BLOCK_TAUS = (0.3, 0.5, 0.8, 1.2, 2.0)
TRAJECTORY_TAUS = (0.1, 0.2, 0.3)
TRAJECTORY_STEPS = (30, 50)
EIG_MARGIN = 0.2

TRAJECTORY_CYCLE = (
    "wave-accretive", "wave-accretive",
    "wave-not-accretive", "wave-not-accretive",
    "evolve-derivative", "evolve-derivative", "evolve-derivative",
    "evolve-block", "evolve-block", "evolve-block",
)
BLOCK_KINDS = ("f", "M", "ST", "default")


def gram_sqrt(a: float, b: float) -> np.ndarray:
    """Square root of the BD Gram metric ``diag(e^{2b}-e^{2a}, e^{-2a}-e^{-2b})``."""
    return np.sqrt(np.array([math.exp(2 * b) - math.exp(2 * a), math.exp(-2 * a) - math.exp(-2 * b)]))


def gram_norm(matrix: np.ndarray, a: float, b: float) -> float:
    """Operator norm of ``matrix`` on BD coefficients in the Gram metric."""
    d = gram_sqrt(a, b)
    return float(np.linalg.norm(d[:, None] * np.asarray(matrix) / d[None, :], 2))


def _interval(rng: np.random.Generator, sign: str, inside_unit: bool = False) -> dict:
    """Interval that lies on 0 (``a = 0``), straddles 0 or sits below 0 (``b <= 0``).

    ``inside_unit`` keeps both endpoints in ``[-1, 1]``, as ``evolve`` needs.
    """
    if sign == "on":
        a, b = 0.0, rng.uniform(0.5, 1.0 if inside_unit else 1.5)
    elif sign == "straddle":
        a, b = rng.uniform(-1.0, -0.5), rng.uniform(0.5, 1.0)
    elif inside_unit:
        a, b = rng.uniform(-1.0, -0.75), rng.uniform(-0.25, 0.0)
    else:
        b = rng.uniform(-1.0, 0.0)
        a = b - rng.uniform(0.5, 1.0)
    return {"a": float(a), "b": float(b)}


def _exppoly(rng: np.random.Generator, max_degree: int) -> list:
    terms = []
    for rate in rng.choice(np.arange(-2, 3), size=int(rng.integers(1, 3)), replace=False):
        degree = int(rng.integers(0, max_degree + 1))
        coeffs = rng.uniform(-1.5, 1.5, size=degree + 1)
        terms.append({"rate": float(rate), "coeffs": [float(c) for c in coeffs]})
    return terms


def _block_state(rng: np.random.Generator) -> dict:
    return {"u": _exppoly(rng, 2), "v": _exppoly(rng, 2)}


def _polynomial(rng: np.random.Generator) -> list:
    coeffs = rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 4)))
    return [{"rate": 0.0, "coeffs": [float(c) for c in coeffs]}]


def _contraction(rng: np.random.Generator, a: float, b: float) -> np.ndarray:
    """Random BD map with Gram-metric norm drawn from [0.3, 0.9]."""
    raw = rng.standard_normal((2, 2))
    return raw * (rng.uniform(0.3, 0.9) / gram_norm(raw, a, b))


def _matrix(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in m]


def _spec(command: str, rng: np.random.Generator, params: dict) -> dict:
    return {"command": command, "seed": int(rng.integers(0, 2**31 - 1)), "params": params}


def _cycle(options, index: int, stride: int = 1):
    return options[(index // stride) % len(options)]


def _decomposition(rng: np.random.Generator, index: int) -> dict:
    return _spec("check-decomposition", rng, {
        "interval": _interval(rng, _cycle(SIGN_CLASSES, index)),
        "samples": DECOMPOSITION_SAMPLES,
        "max_degree": _cycle(range(2, 11), index, len(SIGN_CLASSES)),
    })


def _block_membership(rng: np.random.Generator, index: int) -> dict:
    kind = _cycle(BLOCK_KINDS, index)
    interval = _interval(rng, _cycle(SIGN_CLASSES, index, len(BLOCK_KINDS)))
    a, b = interval["a"], interval["b"]
    params = {
        "interval": interval,
        "states": BLOCK_STATES,
        "tau": _cycle(BLOCK_TAUS, index, len(BLOCK_KINDS) * len(SIGN_CLASSES)),
    }
    if kind != "default":
        f = _contraction(rng, a, b)
        # Cayley image of a contraction: an m-accretive relation v = M u.
        m = np.linalg.solve(np.eye(2) + f, np.eye(2) - f)
        if kind == "f":
            params["realization"] = {"kind": "f", "matrix": _matrix(f)}
        elif kind == "M":
            params["realization"] = {"kind": "M", "matrix": _matrix(m)}
        else:
            t = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            params["realization"] = {"kind": "ST", "S": _matrix(t @ m), "T": _matrix(t)}
    return _spec("block-equivalence", rng, params)


def _impedance_k(rng: np.random.Generator, accretive: bool) -> np.ndarray:
    """``K`` whose symmetric part has eigenvalues of one sign pattern.

    Accretive: both eigenvalues of ``K + K^T`` in [2*EIG_MARGIN, 4].
    Not accretive: the smallest in [-4, -2*EIG_MARGIN].
    """
    theta = rng.uniform(0.0, math.pi)
    q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    low = rng.uniform(EIG_MARGIN, 2.0)
    high = rng.uniform(low, 2.0)
    eigs = (low, high) if accretive else (-low, rng.uniform(-2.0, 2.0))
    sym = q @ np.diag(eigs) @ q.T
    skew = rng.uniform(-1.0, 1.0) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return sym + skew


def _boundary_function(rng: np.random.Generator, bound: float) -> dict:
    """Nonlinear ``g`` whose Lipschitz certificate is below ``bound``."""
    cert = rng.uniform(0.2, 0.95) * bound
    if rng.integers(2):
        frequency = rng.uniform(0.5, 3.0)
        return {"kind": "scaledsin", "amplitude": float(cert / frequency), "frequency": float(frequency)}
    xs = np.sort(rng.uniform(-3.0, 3.0, size=4))
    slopes = rng.uniform(-cert, cert, size=3)
    slopes[int(rng.integers(3))] = cert * rng.choice([-1.0, 1.0])
    ys = np.concatenate([[rng.uniform(-1.0, 1.0)], np.cumsum(slopes * np.diff(xs))])
    ys[1:] += ys[0]
    return {"kind": "table", "knots": [[float(x), float(y)] for x, y in zip(xs, ys)]}


def _trajectories(rng: np.random.Generator, index: int) -> dict:
    kind = _cycle(TRAJECTORY_CYCLE, index)
    tau = _cycle(TRAJECTORY_TAUS, index, len(TRAJECTORY_CYCLE))
    steps = _cycle(range(TRAJECTORY_STEPS[0], TRAJECTORY_STEPS[1] + 1), index)
    sign = _cycle(SIGN_CLASSES, index, len(TRAJECTORY_CYCLE) * len(TRAJECTORY_TAUS))
    if kind.startswith("wave"):
        return _spec("wave-impedance", rng, {
            "interval": _interval(rng, sign),
            "tau": tau,
            "steps": steps,
            "K": _matrix(_impedance_k(rng, kind == "wave-accretive")),
            "u0": _block_state(rng),
        })
    interval = _interval(rng, sign, inside_unit=True)
    a, b = interval["a"], interval["b"]
    params = {"interval": interval, "tau": tau, "steps": steps}
    if kind == "evolve-derivative":
        params.update(
            kind="derivative",
            g=_boundary_function(rng, math.exp(a + b)),
            u0=_polynomial(rng),
            v0=_polynomial(rng),
        )
    else:
        params.update(
            kind="block",
            realization={"kind": "f", "matrix": _matrix(_contraction(rng, a, b))},
            u0={"u": _polynomial(rng), "v": _polynomial(rng)},
            v0={"u": _polynomial(rng), "v": _polynomial(rng)},
        )
    return _spec("evolve", rng, params)


_GENERATORS = {
    "decomposition": _decomposition,
    "block-membership": _block_membership,
    "trajectories": _trajectories,
}


def make_spec(workload: str, seed: int, index: int) -> dict:
    """Spec number ``index`` of ``workload`` under ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    return _GENERATORS[workload](rng, index)


def make_specs(workload: str, seed: int, count: int) -> list:
    return [make_spec(workload, seed, i) for i in range(count)]
