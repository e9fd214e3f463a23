"""Closed forms shared by the tests of the two certified boundary solves."""

import math


def sinh_ratio(tau: float, length: float) -> float:
    """``sinh(|sigma - 1| l/2) / sinh((sigma + 1) l/2)``, ``sigma = 1/tau``,
    as ``e^{x-y} (1 - e^{-2x}) / (1 - e^{-2y})``, which cannot overflow."""
    sigma = 1.0 / tau
    x, y = abs(sigma - 1.0) * length / 2, (sigma + 1.0) * length / 2
    return math.exp(x - y) * math.expm1(-2.0 * x) / math.expm1(-2.0 * y)


def a_priori_calls(q: float, gap0: float) -> int:
    """Calls of the boundary map the certified Picard solve needs at rate
    ``q``: one per step until the backward error bound ``gap q <= 1e-12``,
    the k-th gap being at most ``q^k gap0``, and one for the coefficients."""
    if gap0 * q <= 1e-12:
        return 2
    return math.ceil(math.log(1e-12 / gap0) / math.log(q)) + 1
