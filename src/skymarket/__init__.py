"""Auction-based scheduling of mobile wireless chargers for UAV fleets.

The package pairs an envy-free, strategy-proof sealed-bid auction with a
time-slotted simulator of recharging logistics between energy-hungry
UAVs and charger-carrying ground vehicles, plus baselines and executable
audits of the mechanism's guarantees.
"""

from .types import (
    Activity,
    AuctionOutcome,
    Match,
    PowerParams,
    ScenarioConfig,
    UavState,
    UgvState,
    load_config,
    save_config,
    validate,
)
from .energy import ascend_power, descend_power, flight_power, hover_power
from .valuation import qors_from_distance
from .mechanism import WindowMarket, admit, allocate, price, run_auction
from .audit import AuditReport, audit_market, check_ir, check_stability, deviation_probe, non_envy_ratio
from .baselines import optimal_scheme_outcome
from .simulator import (
    MetricsRow,
    World,
    advance_slot,
    close_window,
    generate_scenario,
    rendezvous,
    run_experiment,
    run_world,
    run_worlds,
    satisfaction_level,
)
from .reporting import __version__
