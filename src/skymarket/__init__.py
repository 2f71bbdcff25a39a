"""Auction-based scheduling of mobile wireless chargers for UAV fleets.

The package pairs an envy-free, strategy-proof sealed-bid auction with a
time-slotted simulator of recharging logistics between energy-hungry
UAVs and charger-carrying ground vehicles, plus baselines and executable
audits of the mechanism's guarantees.
"""

from .types import AuctionOutcome, Match, ScenarioConfig, load_config, save_config, validate
from .mechanism import WindowMarket, run_auction
from .audit import AuditReport, audit_market, deviation_probe, non_envy_ratio
from .metrics import MetricsColumns, MetricsRow
from .simulator import run_experiment
from .reporting import __version__
