"""UAV power laws as pure functions.

Power draws:

    P_fly(v)  = kappa1 * v^3 + (kappa2 + kappa3) * thrust^(3/2)
    P_hov     = (kappa2 + kappa3) * (m g)^(3/2)
    P_desc(v) = eps1 * m g * (sqrt(v^2/4 + m g / eps2^2) - v/2) + kappa3 (m g)^(3/2)
    P_asc(v)  = eps1 * m g * (sqrt(v^2/4 + m g / eps2^2) + v/2) + kappa3 (m g)^(3/2)

Powers are in W. ``slot_constants`` turns them into per-slot energy deltas
for the kernel's linear battery model: discharging activities
drain eta_i * P * dt, charging adds eta_i * eta_j * P_e * dt, and the
result is clamped to [0, capacity] (energies in Wh, 1 Wh = 3600 J).
"""

from __future__ import annotations

import math
from typing import NamedTuple

GRAVITY = 9.8  # m/s^2

__all__ = [
    "GRAVITY",
    "hover_power",
    "flight_power",
    "descend_power",
    "ascend_power",
    "SlotConstants",
    "slot_constants",
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


class SlotConstants(NamedTuple):
    """A config's per-slot UAV constants, as the kernel reads them."""

    drain_fly: float  # Wh per slot of each activity
    drain_hov: float
    drain_desc: float
    drain_asc: float
    charge_gain: float  # Wh a charging UAV gains per slot
    supply_draw: float  # Wh its pad gives up for that gain
    step_xy: float  # m per slot
    step_down: float
    step_up: float


def slot_constants(c) -> SlotConstants:
    """The per-slot constants of the ``ScenarioConfig`` ``c``.

    Raises what the power laws raise: ``OverflowError`` when the flight
    power's ``v ** 3`` overflows (Python's float ``**`` raises where
    ``*`` gives inf), ``ZeroDivisionError`` when ``eps2 ** 2``
    underflows to 0.
    """
    thrust = c.thrust_newton if c.thrust_newton is not None else c.uav_mass_kg * GRAVITY
    p_fly = flight_power(c.uav_speed_max, thrust, c.kappa1, c.kappa2, c.kappa3)
    p_hov = hover_power(c.uav_mass_kg, c.kappa2, c.kappa3)
    p_desc = descend_power(c.uav_descend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    p_asc = ascend_power(c.uav_ascend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    dt = c.slot_len
    # eta_i * eta_j * P_e * dt per charging slot; the pad draws gain / eta_j
    # from its stock (sender-side loss)
    gain = c.uav_discharge_eff * c.ugv_transfer_eff * c.ugv_transfer_power_w * dt / 3600.0
    return SlotConstants(
        drain_fly=c.uav_discharge_eff * p_fly * dt / 3600.0,
        drain_hov=c.uav_discharge_eff * p_hov * dt / 3600.0,
        drain_desc=c.uav_discharge_eff * p_desc * dt / 3600.0,
        drain_asc=c.uav_discharge_eff * p_asc * dt / 3600.0,
        charge_gain=gain,
        supply_draw=gain / c.ugv_transfer_eff,
        step_xy=c.uav_speed_max * dt,
        step_down=c.uav_descend_speed * dt,
        step_up=c.uav_ascend_speed * dt,
    )
