"""Expected verdict of a run spec, decided from the spec with numpy alone.

The oracle states what the theory predicts; it shares no code with
``maccretive``:

- ``check-decomposition`` and ``block-equivalence``: the identities hold,
  so the verdict is PASS.
- ``wave-impedance``: the realization is m-accretive exactly when
  ``K + K^T`` is positive semidefinite, and the suite passes exactly then.
- ``evolve``: implicit Euler with an admissible boundary description is
  nonexpansive, so PASS when ``g``'s certificate is at most ``e^{a+b}``
  (derivative kind) or ``f`` has Gram-metric norm at most 1 (block kind).
"""

from __future__ import annotations

import math

import numpy as np

from specgen import gram_norm


def g_certificate(g: dict) -> float:
    """Lipschitz constant of a ``scaledsin`` or ``table`` boundary function."""
    if g["kind"] == "scaledsin":
        return abs(g["amplitude"] * g["frequency"])
    if g["kind"] != "table":
        raise ValueError(f"no oracle for boundary function kind {g['kind']!r}")
    knots = np.array(sorted(g["knots"]), dtype=float)
    return float(np.max(np.abs(np.diff(knots[:, 1]) / np.diff(knots[:, 0]))))


def expected_pass(spec: dict) -> bool:
    command, params = spec["command"], spec["params"]
    if command in ("check-decomposition", "block-equivalence"):
        return True
    iv = params.get("interval", {"a": 0.0, "b": 1.0})
    a, b = float(iv["a"]), float(iv["b"])
    if command == "wave-impedance":
        k = np.asarray(params["K"], dtype=float)
        return bool(np.linalg.eigvalsh(k + k.T)[0] >= 0.0)
    if command == "evolve":
        if params.get("kind", "derivative") == "derivative":
            return g_certificate(params["g"]) <= math.exp(a + b)
        return gram_norm(np.asarray(params["realization"]["matrix"], dtype=float), a, b) <= 1.0
    raise ValueError(f"no oracle for command {command!r}")
