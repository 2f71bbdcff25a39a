"""Shared domain types for the charging market.

Everything here is an immutable value object: construction validates the
type's invariants and raises ``ValueError`` on violation, after which
instances can be shared freely across threads. Behavior lives elsewhere
(energy model, mechanism, simulator); this module only holds state,
validation, and the config file format.

Unit conventions: energies in Wh, powers in W, distances in m, times in s,
angles in rad. Conversions between W·s and Wh use 1 Wh = 3600 J.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, fields
from typing import Mapping, Optional

from .energy import slot_constants


class Activity(enum.Enum):
    """Exclusive activity state of a UAV (one-hot at any instant)."""

    FLYING = "flying"
    HOVERING = "hovering"
    DESCENDING = "descending"
    ASCENDING = "ascending"
    CHARGING = "charging"


@dataclass(frozen=True)
class PowerParams:
    """Airframe power coefficients (kappa1, kappa2, kappa3, eps1, eps2)."""

    kappa1: float = 0.001
    kappa2: float = 0.005
    kappa3: float = 0.005
    eps1: float = 0.5
    eps2: float = 1.0

    def __post_init__(self):
        if self.kappa1 < 0 or self.kappa2 < 0 or self.kappa3 < 0:
            raise ValueError("power coefficients kappa1..kappa3 must be >= 0")
        if self.eps1 < 0 or self.eps2 <= 0:
            raise ValueError("eps1 must be >= 0 and eps2 > 0")


@dataclass(frozen=True)
class UavState:
    """One UAV's kinematic, battery, and sensing state.

    ``soc_alert`` and ``soc_satisfactory`` are absolute Wh levels
    (derived once from fractional config at scenario generation).
    """

    id: int
    position: tuple[float, float, float]
    velocity_max: float
    battery_capacity: float
    soc: float
    soc_alert: float
    soc_satisfactory: float
    activity: Activity
    mass: float
    power_params: PowerParams
    discharge_efficiency: float
    sensing_radius: float
    detection_angle: float
    altitude_max: float

    def __post_init__(self):
        if self.battery_capacity <= 0:
            raise ValueError(f"uav {self.id}: battery capacity must be positive")
        if not (0.0 <= self.soc_alert <= self.soc <= self.battery_capacity):
            raise ValueError(
                f"uav {self.id}: require 0 <= soc_alert <= soc <= capacity, "
                f"got alert={self.soc_alert}, soc={self.soc}, cap={self.battery_capacity}"
            )
        if not (self.soc_alert < self.soc_satisfactory <= self.battery_capacity):
            raise ValueError(
                f"uav {self.id}: require soc_alert < soc_satisfactory <= capacity"
            )
        if not isinstance(self.activity, Activity):
            raise ValueError(f"uav {self.id}: activity must be an Activity member")
        if self.mass <= 0 or self.velocity_max <= 0:
            raise ValueError(f"uav {self.id}: mass and velocity_max must be positive")
        if not (0.0 < self.discharge_efficiency <= 1.0):
            raise ValueError(f"uav {self.id}: discharge efficiency must be in (0, 1]")
        if self.sensing_radius <= 0 or self.altitude_max <= 0:
            raise ValueError(f"uav {self.id}: sensing radius and altitude_max must be positive")
        if not (0.0 < self.detection_angle < math.pi / 2):
            raise ValueError(f"uav {self.id}: detection angle must lie in (0, pi/2)")


@dataclass(frozen=True)
class UgvState:
    """One ground vehicle with a roof-mounted wireless charging pad."""

    id: int
    position: tuple[float, float]
    speed_kmh: float
    supply_capacity: float
    supply_remaining: float
    transfer_power: float
    transfer_efficiency: float
    qors: float

    def __post_init__(self):
        if not (0.0 <= self.supply_remaining <= self.supply_capacity):
            raise ValueError(
                f"ugv {self.id}: require 0 <= supply_remaining <= supply_capacity"
            )
        if self.speed_kmh < 0:
            raise ValueError(f"ugv {self.id}: speed must be >= 0")
        if self.transfer_power <= 0:
            raise ValueError(f"ugv {self.id}: transfer power must be positive")
        if not (0.0 < self.transfer_efficiency <= 1.0):
            raise ValueError(f"ugv {self.id}: transfer efficiency must be in (0, 1]")
        if not (0.0 < self.qors <= 1.0):
            raise ValueError(f"ugv {self.id}: qors must be in (0, 1]")


@dataclass(frozen=True)
class Match:
    """One matched (UAV, UGV) pair in an auction outcome.

    ``rank`` is 1-based: rank j pairs the j-th highest bid with the j-th
    highest QoRS. ``bid`` and ``q`` are frozen at clearing time so the
    outcome is self-describing.
    """

    rank: int
    uav_id: int
    ugv_id: int
    bid: float
    q: float


@dataclass(frozen=True)
class AuctionOutcome:
    """Cleared result of one window: allocation, payments, utilities.

    ``payments[j-1]`` is the payment of the rank-j winner. Losers pay
    nothing and have zero utility. ``uav_utilities`` covers every
    participant (winners and losers); ``ugv_utilities`` covers every
    admitted UGV.
    """

    window_id: int
    winners: tuple[Match, ...]
    losers: tuple[int, ...]
    payments: tuple[float, ...]
    uav_utilities: Mapping[int, float]
    ugv_utilities: Mapping[int, float]
    social_surplus: float

    def __post_init__(self):
        if len(self.payments) != len(self.winners):
            raise ValueError("one payment per winner required")
        if any(p < 0 for p in self.payments):
            raise ValueError("winner payments must be >= 0")
        uav_ids = {m.uav_id for m in self.winners}
        if not len(uav_ids) == len({m.ugv_id for m in self.winners}) == len(self.winners):
            raise ValueError("allocation rows/columns must sum to <= 1")
        if not uav_ids.isdisjoint(self.losers):
            raise ValueError("winner and loser sets must be disjoint")

    @property
    def num_winners(self) -> int:
        return len(self.winners)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of a simulated scenario.

    Field names map 1:1 onto the keys of the flat ``key = value`` config
    file format (see ``load_config``). Defaults reproduce the reference
    experimental setup: 5000 x 5000 x 10 m area, sensing spot at the
    center with a 200 m task circle, 10 UAVs at 97.58 Wh capacity with
    SoC drawn uniformly in [30%, 100%] and a 20% alert level, UGVs
    0.3-2.5 km out at 20-60 km/h with 80%-efficient 600 W pads, 8 s
    auction windows over 1 s slots.

    ``base_station`` is deprecated: nothing reads it. It is still parsed
    and written, and stays in the text ``config_hash`` digests, so old
    config files load and provenance digests do not change.
    """

    area_width: float = 5000.0
    area_height: float = 5000.0
    area_ceiling: float = 10.0
    task_radius: float = 200.0
    base_station: tuple[float, float, float] = (3000.0, 3000.0, 50.0)

    uav_count: int = 10
    uav_altitude_min: float = 5.0
    uav_altitude_max: float = 10.0
    uav_soc_frac_min: float = 0.3
    uav_soc_frac_max: float = 1.0
    uav_alert_frac: float = 0.2
    uav_sat_frac: float = 0.9
    uav_capacity_wh: float = 97.58
    uav_mass_kg: float = 2.0
    uav_speed_max: float = 10.0
    uav_descend_speed: float = 1.0
    uav_ascend_speed: float = 1.0
    uav_discharge_eff: float = 0.95
    uav_sensing_radius: float = 200.0
    # wide-angle sensor so the 5-10 m altitude band satisfies the
    # detection-cone lower bound R*cot(theta)
    uav_detection_angle: float = 1.55
    kappa1: float = 0.001
    kappa2: float = 0.005
    kappa3: float = 0.005
    eps1: float = 0.5
    eps2: float = 1.0
    thrust_newton: Optional[float] = None  # None -> level flight, m*g

    ugv_count: int = 10
    ugv_distance_min: float = 300.0
    ugv_distance_max: float = 2500.0
    ugv_speed_min_kmh: float = 20.0
    ugv_speed_max_kmh: float = 60.0
    ugv_supply_wh: float = 3000.0
    ugv_transfer_power_w: float = 600.0
    ugv_transfer_eff: float = 0.8

    qors_floor: float = 0.05
    qors_ref_distance: float = 2500.0
    mu0: float = 1.0
    mu1: float = 5.0

    window_len: float = 8.0
    slot_len: float = 1.0
    horizon_slots: int = 600
    enter_urgency: float = 0.5
    max_failed_windows: int = 0  # 0 -> losers always re-bid
    seed: int = 0

    @property
    def spot(self) -> tuple[float, float]:
        """Sensing spot, at the center of the area."""
        return (self.area_width / 2.0, self.area_height / 2.0)

    @property
    def slots_per_window(self) -> int:
        return int(round(self.window_len / self.slot_len))

    def replace(self, **kwargs) -> "ScenarioConfig":
        import dataclasses

        return dataclasses.replace(self, **kwargs)


def validate(config: ScenarioConfig) -> list[str]:
    """Check every scenario invariant; return human-readable violations.

    Returns an empty list iff the configuration is usable. Never raises:
    callers decide whether a violation is fatal.
    """
    v: list[str] = []
    c = config

    def positive(name: str, value: float):
        if not value > 0:
            v.append(f"{name}: must be strictly positive (got {value})")

    for name in (
        "area_width", "area_height", "area_ceiling", "task_radius",
        "uav_capacity_wh", "uav_mass_kg", "uav_speed_max",
        "uav_descend_speed", "uav_ascend_speed", "uav_sensing_radius",
        "ugv_supply_wh", "ugv_transfer_power_w",
        "qors_ref_distance", "eps2",
    ):
        positive(name, getattr(c, name))

    if c.uav_count < 1:
        v.append(f"uav_count: must be >= 1 (got {c.uav_count})")
    if c.ugv_count < 1:
        v.append(f"ugv_count: must be >= 1 (got {c.ugv_count})")
    if c.horizon_slots < 1:
        v.append(f"horizon_slots: must be >= 1 (got {c.horizon_slots})")

    if not c.window_len > 0:
        v.append("window_len: window length must be positive")
    if not c.slot_len > 0:
        v.append("slot_len: slot length must be positive")
    if c.window_len > 0 and c.slot_len > 0:
        ratio = c.window_len / c.slot_len  # may be inf, which round() rejects
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            v.append("window_len: must be a positive multiple of slot_len")

    if not (0.0 <= c.uav_soc_frac_min <= 1.0 and 0.0 <= c.uav_soc_frac_max <= 1.0):
        v.append("uav_soc_frac_min/max: SoC bounds must lie within [0, 1] of capacity")
    if c.uav_soc_frac_min > c.uav_soc_frac_max:
        v.append("uav_soc_frac_min: SoC lower bound exceeds upper")
    if not (0.0 <= c.uav_alert_frac < c.uav_sat_frac <= 1.0):
        v.append("uav_alert_frac: require 0 <= alert < satisfactory <= 1")

    if not (0.0 < c.uav_altitude_min <= c.uav_altitude_max <= c.area_ceiling):
        v.append("uav_altitude_min/max: require 0 < min <= max <= area_ceiling")
    if not (0.0 < c.uav_detection_angle < math.pi / 2):
        v.append("uav_detection_angle: must lie in (0, pi/2)")
    if not (0.0 < c.uav_discharge_eff <= 1.0):
        v.append("uav_discharge_eff: must lie in (0, 1]")
    if not (0.0 < c.ugv_transfer_eff <= 1.0):
        v.append("ugv_transfer_eff: must lie in (0, 1]")
    if c.kappa1 < 0 or c.kappa2 < 0 or c.kappa3 < 0 or c.eps1 < 0:
        v.append("kappa1/kappa2/kappa3/eps1: must be >= 0")
    if c.thrust_newton is not None and c.thrust_newton < 0:
        v.append("thrust_newton: must be >= 0 when given")

    if not (0.0 < c.ugv_distance_min <= c.ugv_distance_max):
        v.append("ugv_distance_min/max: require 0 < min <= max")
    if not (0.0 < c.ugv_speed_min_kmh <= c.ugv_speed_max_kmh):
        v.append("ugv_speed_min_kmh/max: require 0 < min <= max")

    for name in ("mu0", "mu1"):
        value = getattr(c, name)
        if not (value >= 0):  # NaN fails too
            v.append(f"{name}: valuation coefficient must be >= 0 (got {value})")

    if not (0.0 < c.qors_floor < 1.0):
        v.append("qors_floor: must lie in (0, 1)")
    if not (0.0 <= c.enter_urgency <= 1.0):
        v.append("enter_urgency: must lie in [0, 1]")
    if c.max_failed_windows < 0:
        v.append("max_failed_windows: must be >= 0 (0 keeps losers bidding; n > 0 "
                 "stops a UAV bidding for the rest of the run after n lost windows)")

    # inf and nan pass some range checks above (inf > 0) and fail others
    # without naming the field, so name every non-finite number not named yet
    named = {p.partition(":")[0] for p in v}
    for f in fields(ScenarioConfig):
        value = getattr(c, f.name)
        if isinstance(value, float) and not math.isfinite(value) and f.name not in named:
            v.append(f"{f.name}: must be finite (got {value})")
    if not v:
        v += _derived_problems(c)
    return v


def _derived_problems(c: ScenarioConfig) -> list[str]:
    """What is not finite among the constants a world of the valid
    config ``c`` is built with and bids with: the per-slot drains,
    charging gain, pad draw and step lengths, a vehicle's largest step,
    the largest valuation ``mu0 + mu1``, the largest sum of them a
    window makes, and that sum squared over 2**32 windows, as the
    aggregates' standard deviations sum squares. Computed without
    raising: a power law that raises in ``slot_constants`` is reported
    too."""
    try:
        derived = slot_constants(c)._asdict()
    except OverflowError:  # the one float ** of the power laws
        return ["uav_speed_max: the flight power kappa1 * v ** 3 overflows"]
    except ZeroDivisionError:
        return ["eps2: eps2 * eps2 underflows to 0 in the vertical power"]
    derived["ugv_step"] = (c.ugv_speed_max_kmh / 3.6) * c.slot_len
    derived["mu0 + mu1"] = valuation = c.mu0 + c.mu1
    if math.isfinite(valuation):
        # a window sums up to slots_per_window valuation samples, and its
        # surplus up to min(uav_count, ugv_count) terms q * Phi_bar, q <= 1
        window = "max(slots_per_window, min(uav_count, ugv_count)) * (mu0 + mu1)"
        derived[window] = bound = (
            max(c.slots_per_window, min(c.uav_count, c.ugv_count)) * valuation)
        if math.isfinite(bound):
            derived[f"2**32 * ({window}) ** 2"] = 2.0 ** 32 * (bound * bound)
    return [f"{name}: derived constant must be finite (got {value})"
            for name, value in derived.items() if not math.isfinite(value)]


# --- flat key=value config files -------------------------------------------

def config_to_text(config: ScenarioConfig) -> str:
    """Serialize a config to the flat ``key = value`` file format."""
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        if f.name == "base_station":
            lines.append(f"base_station = {value[0]!r},{value[1]!r},{value[2]!r}")
        elif value is None:
            lines.append(f"{f.name} =")
        elif isinstance(value, float):
            lines.append(f"{f.name} = {value!r}")
        else:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` format into a ScenarioConfig.

    Unknown keys and malformed lines raise ``ValueError`` naming the
    offending line; missing keys fall back to defaults.
    """
    known = {f.name for f in fields(ScenarioConfig)}
    ints = {"uav_count", "ugv_count", "horizon_slots", "max_failed_windows", "seed"}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key == "base_station":
            parts = [p for p in value.split(",") if p.strip()]
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: base_station needs x,y,z")
        elif value == "" and key != "thrust_newton":
            raise ValueError(f"line {lineno}: empty value for {key!r}")
        try:
            if key == "base_station":
                kwargs[key] = tuple(float(p) for p in parts)
            elif key == "thrust_newton":
                kwargs[key] = None if value == "" else float(value)
            else:
                kwargs[key] = int(value) if key in ints else float(value)
        except ValueError:
            kind = ("an integer" if key in ints else
                    "three numbers x,y,z" if key == "base_station" else "a number")
            raise ValueError(f"line {lineno}: {key} needs {kind}, got {value!r}") from None
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_text(config))


def config_hash(config: ScenarioConfig) -> str:
    """Short stable digest of a config, embedded in output provenance lines."""
    return hashlib.sha256(config_to_text(config).encode("utf-8")).hexdigest()[:12]

