"""UAV valuations and ground-vehicle service-quality scores.

A UAV values a recharge linearly in its charging urgency,
Phi = mu0 + mu1 * rho, which is increasing and (weakly) convex in rho as
the market model requires; ``simulator._book`` accumulates it per slot,
for blocks of slots over whole arrays. A vehicle's
quality-of-recharging-service (QoRS) is the linear complement of its
normalized distance to the service point, clamped to a strictly
positive floor so admitted vehicles always sort with q > 0.
"""

from __future__ import annotations

def qors_from_distance(d: float, d_max: float, floor: float = 0.05) -> float:
    """Quality score 1 - d/d_max, clamped below at ``floor`` (> 0).

    ``d`` must already lie in [0, d_max]; callers with farther service
    points clamp the distance first (the score saturates at the floor).
    """
    if d_max <= 0:
        raise ValueError("d_max must be positive")
    if not 0.0 <= d <= d_max:
        raise ValueError(f"distance {d} outside [0, {d_max}]")
    if not 0.0 < floor < 1.0:
        raise ValueError("floor must lie in (0, 1)")
    return max(1.0 - d / d_max, floor)
