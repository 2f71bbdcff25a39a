"""Scenario draws: each agent's raw uniforms, and the agent columns a
world is built from.

Each agent draws from its own seeded substream keyed by (seed, side,
index), so enlarging one side of the market leaves every other draw
untouched: sweeps over fleet sizes are paired comparisons by
construction, and identical (config, seed) pairs rebuild bit-identical
worlds. So a fleet's agent columns are a prefix of a larger fleet's of
the same seed and config fields (``UAV_FIELDS``, ``UGV_FIELDS``), and a
sweep computes them once, for the largest fleet that reads them
(``prefix_rows``); ``simulator._build_stack`` writes them into the
sweep's stack.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .types import ScenarioConfig

__all__ = ["UAV_FIELDS", "UGV_FIELDS", "draw_agents", "uav_columns", "ugv_columns",
           "prefix_rows"]

# the config fields that feed each side's agent columns
UAV_FIELDS = ("spot", "task_radius", "uav_altitude_min", "uav_altitude_max",
              "uav_capacity_wh", "uav_soc_frac_min", "uav_soc_frac_max")
UGV_FIELDS = ("spot", "ugv_distance_min", "ugv_distance_max", "ugv_speed_min_kmh",
              "ugv_speed_max_kmh")


def draw_agents(seed: int, uavs: int, ugvs: int) -> tuple[list, list]:
    """Raw uniforms of the first ``uavs`` UAVs and ``ugvs`` vehicles of ``seed``.

    Each agent draws from its own substream keyed by (seed, side, index):
    4 uniforms per UAV (radius, bearing, altitude, SoC) and 3 per vehicle
    (distance, bearing, speed). Fewer agents draw a prefix of the lists.
    """
    def side(key: int, count: int, k: int) -> list:
        return [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key, i])))
            .random(k).tolist()
            for i in range(count)
        ]

    if seed < 0:
        raise ValueError("seed must be >= 0")
    return side(0, uavs, 4), side(1, ugvs, 3)


def uav_columns(c: ScenarioConfig, draws: Sequence) -> list[tuple]:
    """(soc, x, y, z) of each UAV of ``c`` whose raw uniforms are ``draws``."""
    cx, cy = c.spot
    columns = []
    # rng.uniform(lo, hi) is lo + (hi - lo) * u, bit for bit
    for u_radius, u_bearing, u_z, u_soc in draws:
        radius = c.task_radius * math.sqrt(u_radius)
        bearing = 2.0 * math.pi * u_bearing
        columns.append((
            c.uav_capacity_wh * (c.uav_soc_frac_min
                                 + (c.uav_soc_frac_max - c.uav_soc_frac_min) * u_soc),
            cx + radius * math.cos(bearing),
            cy + radius * math.sin(bearing),
            c.uav_altitude_min + (c.uav_altitude_max - c.uav_altitude_min) * u_z,
        ))
    return columns


def ugv_columns(c: ScenarioConfig, draws: Sequence) -> list[tuple]:
    """(x, y, speed in km/h) of each vehicle of ``c`` whose raw uniforms
    are ``draws``."""
    cx, cy = c.spot
    columns = []
    for u_d, u_bearing, u_speed in draws:
        d = c.ugv_distance_min + (c.ugv_distance_max - c.ugv_distance_min) * u_d
        bearing = 2.0 * math.pi * u_bearing
        columns.append((
            cx + d * math.cos(bearing),
            cy + d * math.sin(bearing),
            c.ugv_speed_min_kmh + (c.ugv_speed_max_kmh - c.ugv_speed_min_kmh) * u_speed,
        ))
    return columns


def prefix_rows(members: list, counts: np.ndarray, columns) -> np.ndarray:
    """The agent columns of one side of a stack, member after member, as
    the rows of one array. ``members`` lists each member's (seed, the
    config fields that feed the columns, config), and member k takes the
    first ``counts[k]`` rows of its (seed, fields) block. Each block is
    computed once, by ``columns(config, seed, size)``, for the largest
    count that reads it."""
    size, config = {}, {}
    for (seed, fields, c), count in zip(members, counts.tolist()):
        size[seed, fields] = max(size.get((seed, fields), 0), count)
        config[seed, fields] = c
    at, rows = {}, []
    for (seed, fields), count in size.items():
        at[seed, fields] = len(rows)
        rows += columns(config[seed, fields], seed, count)
    first = np.array([at[seed, fields] for seed, fields, _ in members])
    starts = np.cumsum(counts) - counts  # each member's first row in the stack
    return np.array(rows)[np.arange(counts.sum()) + np.repeat(first - starts, counts)]
