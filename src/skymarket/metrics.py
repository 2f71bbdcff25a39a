"""Window metrics: one row per cleared window, kept in columns.

``close_window`` reports a window as a ``MetricsRow``; a sweep keeps its
windows in a ``MetricsColumns`` store, beside each window's outcome and
audit findings when asked for, writes the CSV rows straight from it and
reduces it to per-(scheme, J, tau) aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .audit import AuditReport

__all__ = [
    "MetricsRow",
    "MetricsColumns",
    "METRICS_CSV_HEADER",
    "AGGREGATE_CSV_HEADER",
    "aggregate_rows",
]


@dataclass(frozen=True)
class MetricsRow:
    """Per-window bookkeeping; surplus must equal the utility total."""

    scheme: str
    ugv_count: int
    tau: float
    seed: int
    window: int
    sl: float
    uav_utility: float
    ugv_utility: float
    surplus: float
    non_envy_ratio: float
    winners: int

    def __post_init__(self):
        if abs(self.surplus - (self.uav_utility + self.ugv_utility)) > 1e-9:
            raise ValueError(
                "surplus must equal total UAV + UGV utility "
                f"({self.surplus} vs {self.uav_utility + self.ugv_utility})"
            )


# audit fields after the instance name for a window with no trade (no
# sampled bidder or no admitted vehicle): every utility and misreport
# settles at 0 and nobody envies or blocks
_NO_MARKET_AUDIT = (0, 0, 0.0, 1.0, 1.0, 0)


class MetricsColumns:
    """Window metrics in columns, one entry per simulated window.

    Each world's windows are one contiguous block of entries, in window
    order. ``runs`` lists the output rows in order as (scheme, ugv_count,
    tau, seed, start, stop): a run is a block under a scheme label, and
    ``ours`` and ``optimal`` list the same block. ``uav_empty`` and
    ``ugv_empty`` mark utilities that are empty sums (no agent of that
    side in the market), which a ``MetricsRow`` holds as the int ``0``.
    ``audits`` (each entry's audit fields after the instance name) and
    ``outcomes`` (its ``AuctionOutcome``) are lists only when asked for.
    New entries hold a window with neither bidder nor offered vehicle.
    """

    def __init__(self, runs: list, window: np.ndarray, with_audit: bool, keep_outcomes: bool):
        n = len(window)
        self.runs = runs
        self.window = window
        self.sl = np.zeros(n)
        self.uav_utility = np.zeros(n)
        self.ugv_utility = np.zeros(n)
        self.surplus = np.zeros(n)
        self.non_envy_ratio = np.ones(n)
        self.winners = np.zeros(n, dtype=np.int64)
        self.uav_empty = np.ones(n, dtype=bool)
        self.ugv_empty = np.ones(n, dtype=bool)
        self.audits = [_NO_MARKET_AUDIT] * n if with_audit else None
        self.outcomes = [None] * n if keep_outcomes else None

    def record(self, k: int, row: MetricsRow) -> None:
        """Set entry k's metrics to ``row``'s; ``uav_empty`` and
        ``ugv_empty`` are the caller's to set."""
        self.sl[k] = row.sl
        self.uav_utility[k] = row.uav_utility
        self.ugv_utility[k] = row.ugv_utility
        self.surplus[k] = row.surplus
        self.non_envy_ratio[k] = row.non_envy_ratio
        self.winners[k] = row.winners

    def tuples(self):
        """The rows in output order, as ``METRICS_CSV_HEADER`` tuples."""
        def utility(values, empty):
            out = values.astype(object)
            out[empty] = 0
            return out.tolist()

        cols = (
            self.window.tolist(), self.sl.tolist(),
            utility(self.uav_utility, self.uav_empty),
            utility(self.ugv_utility, self.ugv_empty),
            self.surplus.tolist(), self.non_envy_ratio.tolist(), self.winners.tolist(),
        )
        repeat = itertools.repeat
        for scheme, ugv_count, tau, seed, start, stop in self.runs:
            yield from zip(repeat(scheme), repeat(ugv_count), repeat(tau), repeat(seed),
                           *(col[start:stop] for col in cols))

    def rows(self) -> list[MetricsRow]:
        """The rows in output order, as ``MetricsRow``s."""
        return list(itertools.starmap(MetricsRow, self.tuples()))

    def audit_tuples(self):
        """The audit rows in output order, as ``AUDIT_CSV_HEADER`` tuples."""
        if self.audits is None:
            return
        for scheme, _, _, seed, start, stop in self.runs:
            for w, fields in zip(self.window[start:stop].tolist(), self.audits[start:stop]):
                yield (f"{scheme}-seed{seed}-w{w}", *fields)

    def audit_reports(self) -> list[AuditReport]:
        """The audit rows in output order, as ``AuditReport``s."""
        return list(itertools.starmap(AuditReport, self.audit_tuples()))


METRICS_CSV_HEADER = (
    "scheme", "J", "tau", "seed", "window", "SL",
    "uav_utility", "ugv_utility", "surplus", "non_envy_ratio", "winners",
)


AGGREGATE_CSV_HEADER = (
    "scheme", "J", "tau", "windows",
    "SL_mean", "SL_sd", "uav_utility_mean", "uav_utility_sd",
    "ugv_utility_mean", "ugv_utility_sd", "surplus_mean", "surplus_sd",
    "non_envy_min", "non_envy_mean", "winners_mean",
)


def aggregate_rows(cols: MetricsColumns) -> list[dict]:
    """Mean/sd of every metric over ``cols``' rows, grouped by (scheme,
    J, tau); each group's entries are gathered in row order."""
    groups: dict[tuple, list[np.ndarray]] = {}
    for scheme, ugv_count, tau, _, start, stop in cols.runs:
        if stop > start:
            groups.setdefault((scheme, ugv_count, tau), []).append(np.arange(start, stop))
    out = []
    for key in sorted(groups):
        at = np.concatenate(groups[key])
        sl, uu, gu, sp, ne = (col[at] for col in (
            cols.sl, cols.uav_utility, cols.ugv_utility, cols.surplus, cols.non_envy_ratio))
        wn = cols.winners[at].astype(float)
        out.append(
            {
                "scheme": key[0],
                "J": key[1],
                "tau": key[2],
                "windows": len(at),
                "SL_mean": float(sl.mean()),
                "SL_sd": float(sl.std()),
                "uav_utility_mean": float(uu.mean()),
                "uav_utility_sd": float(uu.std()),
                "ugv_utility_mean": float(gu.mean()),
                "ugv_utility_sd": float(gu.std()),
                "surplus_mean": float(sp.mean()),
                "surplus_sd": float(sp.std()),
                "non_envy_min": float(ne.min()),
                "non_envy_mean": float(ne.mean()),
                "winners_mean": float(wn.mean()),
            }
        )
    return out
