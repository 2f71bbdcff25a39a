"""UAV power laws as pure functions.

Power draws:

    P_fly(v)  = kappa1 * v^3 + (kappa2 + kappa3) * thrust^(3/2)
    P_hov     = (kappa2 + kappa3) * (m g)^(3/2)
    P_desc(v) = eps1 * m g * (sqrt(v^2/4 + m g / eps2^2) - v/2) + kappa3 (m g)^(3/2)
    P_asc(v)  = eps1 * m g * (sqrt(v^2/4 + m g / eps2^2) + v/2) + kappa3 (m g)^(3/2)

Powers are in W. The simulator turns them into per-slot energy deltas
for the kernel's linear battery model: discharging activities
drain eta_i * P * dt, charging adds eta_i * eta_j * P_e * dt, and the
result is clamped to [0, capacity] (energies in Wh, 1 Wh = 3600 J).
"""

from __future__ import annotations

import math

GRAVITY = 9.8  # m/s^2

__all__ = [
    "GRAVITY",
    "hover_power",
    "flight_power",
    "descend_power",
    "ascend_power",
]


def hover_power(mass: float, kappa2: float, kappa3: float) -> float:
    """Hover power (kappa2 + kappa3) * (m g)^(3/2) in W."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if kappa2 + kappa3 < 0:
        raise ValueError("kappa2 + kappa3 must be >= 0")
    w = mass * GRAVITY
    return (kappa2 + kappa3) * w * math.sqrt(w)


def flight_power(v: float, thrust: float, kappa1: float, kappa2: float, kappa3: float) -> float:
    """Level-flight power at constant speed v with the given thrust, in W."""
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    if thrust < 0:
        raise ValueError(f"thrust must be >= 0, got {thrust}")
    return kappa1 * v ** 3 + (kappa2 + kappa3) * thrust * math.sqrt(thrust)


def _vertical_power(v: float, mass: float, eps1: float, eps2: float, kappa3: float, sign: float) -> float:
    if v < 0:
        raise ValueError(f"vertical speed must be >= 0, got {v}")
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if eps2 == 0:
        raise ValueError("eps2 must be nonzero (division inside the radical)")
    w = mass * GRAVITY
    induced = math.sqrt(v * v / 4.0 + w / (eps2 * eps2)) + sign * v / 2.0
    return eps1 * w * induced + kappa3 * w * math.sqrt(w)


def descend_power(v_d: float, mass: float, eps1: float, eps2: float, kappa3: float) -> float:
    """Power while descending at constant v_d (the -v/2 branch), in W."""
    return _vertical_power(v_d, mass, eps1, eps2, kappa3, -1.0)


def ascend_power(v_a: float, mass: float, eps1: float, eps2: float, kappa3: float) -> float:
    """Power while ascending at constant v_a (the +v/2 branch), in W."""
    return _vertical_power(v_a, mass, eps1, eps2, kappa3, +1.0)
