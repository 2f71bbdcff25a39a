"""Window metrics: one row per cleared window, kept in columns.

The simulator's one window-clearing routine, ``_close_boundary``, keeps
a sweep's windows in a ``MetricsColumns`` store (``close_window`` in a
store of one), beside each window's outcome and audit findings when
asked for; a window reads as a ``MetricsRow``, and the store reduces to
per-(scheme, J, tau) aggregates. It writes the text of the run's
per-window CSVs (``metrics_raw.csv``, ``audits.csv`` and
``outcomes.csv``) straight from its columns, one chunk per run, with
the bytes ``csv.writer`` would write for its tuple rows; the tuples,
``MetricsRow``s, ``AuditReport``s and ``AuctionOutcome``s are built
only when read. A window's outcome is
kept as the compact ``mechanism.Trade`` record that clears it; a window
with no trade is a ``Trade`` with no winner.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .audit import AuditReport
from .mechanism import Trade, loser_line

__all__ = [
    "MetricsRow",
    "MetricsColumns",
    "METRICS_CSV_HEADER",
    "AGGREGATE_CSV_HEADER",
    "aggregate_rows",
    "aggregate_tuple",
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
        # the sums round a few times per winner, each by at most half an
        # ulp of the surplus, which no term exceeds; 1e-9 floors it near 0
        tol = max(1e-9, 4 * (self.winners + 1) * math.ulp(self.surplus))
        if abs(self.surplus - (self.uav_utility + self.ugv_utility)) > tol:
            raise ValueError(
                "surplus must equal total UAV + UGV utility "
                f"({self.surplus} vs {self.uav_utility + self.ugv_utility})"
            )


def _fields_text(fields) -> str:
    """CSV text of ``fields`` after a first field: what ``csv.writer``
    writes for ints and floats (``str`` of an int is its ``repr``)."""
    return "," + ",".join(map(repr, fields)) + "\n"


# audit fields after the instance name for a window with no trade (no
# sampled bidder or no admitted vehicle): every utility and misreport
# settles at 0 and nobody envies or blocks
_NO_MARKET_AUDIT = (0, 0, 0.0, 1.0, 1.0, 0)
_NO_MARKET_AUDIT_TEXT = _fields_text(_NO_MARKET_AUDIT)


def _utilities(values: np.ndarray, empty: np.ndarray) -> list:
    """``values`` as a list, with the int 0 where a sum is ``empty``."""
    out = values.astype(object)
    out[empty] = 0
    return out.tolist()


class _LoserLines(dict):
    """``mechanism.loser_line`` by UAV id, each formatted on first use."""

    def __missing__(self, uav_id: int) -> str:
        self[uav_id] = line = loser_line(uav_id)
        return line


class MetricsColumns:
    """Window metrics in columns, one entry per simulated window.

    Each world's windows are one contiguous block of entries, in window
    order. ``runs`` lists the output rows in order as (scheme, ugv_count,
    tau, seed, start, stop): a run is a block under a scheme label, and
    ``ours`` and ``optimal`` list the same block. ``uav_empty`` and
    ``ugv_empty`` mark utilities that are empty sums (no agent of that
    side in the market), which a ``MetricsRow`` holds as the int ``0``.
    ``audits`` (each entry's audit fields after the instance name) and
    ``outcomes`` are lists only when asked for. Each window keeps its
    ``Trade`` record there (a window with no trade keeps only its ranked
    loser ids and admitted vehicle ids); ``outcome_tuples`` builds their
    ``AuctionOutcome``s on read. New entries hold a window with neither
    bidder nor offered vehicle.
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
        # (entry, ranked bidder ids, their bids, the vehicles' q) of the
        # trades awaiting their audit
        self.audited: list = []
        self.outcomes = [Trade((), ())] * n if keep_outcomes else None

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
        cols = (
            self.window.tolist(), self.sl.tolist(),
            _utilities(self.uav_utility, self.uav_empty),
            _utilities(self.ugv_utility, self.ugv_empty),
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

    def outcome_tuples(self):
        """(scheme, seed, ``AuctionOutcome``) per row in output order;
        none unless outcomes are kept."""
        if self.outcomes is None:
            return
        for scheme, _, _, seed, start, stop in self.runs:
            for w, kept in zip(self.window[start:stop].tolist(), self.outcomes[start:stop]):
                yield scheme, seed, kept.outcome(w)

    def audit_reports(self) -> list[AuditReport]:
        """The audit rows in output order, as ``AuditReport``s."""
        return list(itertools.starmap(AuditReport, self.audit_tuples()))

    def _chunks(self, lead, body):
        """One chunk of CSV text per run with lines, in output order: the
        lines ``body(start, stop)`` formats for its block, each led by
        ``lead(scheme, ugv_count, tau, seed)``. A block's lines are
        formatted once, however many runs list it (``ours`` and
        ``optimal``), and dropped after its last run, so only the blocks
        of runs in flight are alive at a time."""
        left = Counter(run[4:] for run in self.runs)
        bodies = {}
        for run in self.runs:
            block = run[4:]
            text = bodies.pop(block) if block in bodies else body(*block)
            left[block] -= 1
            if left[block]:
                bodies[block] = text
            if text:
                head = lead(*run[:4])
                # every line ends in "\n", and no field holds one
                yield head + text[:-1].replace("\n", "\n" + head) + "\n"

    def text(self):
        """``metrics_raw.csv``'s rows as text chunks: the bytes
        ``csv.writer`` writes for ``tuples()``."""
        def body(start, stop):
            cols = (
                self.window[start:stop].tolist(), self.sl[start:stop].tolist(),
                _utilities(self.uav_utility[start:stop], self.uav_empty[start:stop]),
                _utilities(self.ugv_utility[start:stop], self.ugv_empty[start:stop]),
                self.surplus[start:stop].tolist(), self.non_envy_ratio[start:stop].tolist(),
                self.winners[start:stop].tolist(),
            )
            # repr of the int 0 of an empty sum is "0", as csv.writer writes it
            return "".join([f"{w},{sl!r},{uu!r},{gu!r},{sp!r},{ne!r},{wn}\n"
                            for w, sl, uu, gu, sp, ne, wn in zip(*cols)])

        return self._chunks(lambda scheme, ugv_count, tau, seed:
                            f"{scheme},{ugv_count},{tau!r},{seed},", body)

    def audit_text(self):
        """``audits.csv``'s rows as text chunks: the bytes ``csv.writer``
        writes for ``audit_tuples()``; none unless audits are kept."""
        if self.audits is None:
            return iter(())

        def body(start, stop):
            return "".join([f"{w}{_NO_MARKET_AUDIT_TEXT}" if fields is _NO_MARKET_AUDIT
                            else f"{w}{_fields_text(fields)}"
                            for w, fields in zip(self.window[start:stop].tolist(),
                                                 self.audits[start:stop])])

        return self._chunks(lambda scheme, ugv_count, tau, seed: f"{scheme}-seed{seed}-w", body)

    def outcome_text(self):
        """``outcomes.csv``'s rows as text chunks, each line led by its
        scheme and seed: for every outcome in ``outcome_tuples()``, its
        winners' ``mechanism.winner_line`` by rank, then its losers'
        ``mechanism.loser_line`` in rank order, each after the window id,
        without building any outcome; none unless outcomes are kept."""
        if self.outcomes is None:
            return iter(())
        loser_text = _LoserLines()

        def body(start, stop):
            parts = []
            for w, kept in zip(self.window[start:stop].tolist(), self.outcomes[start:stop]):
                wid = f"{w},"
                parts += kept.winner_lines(wid)
                if kept.losers:
                    parts.append(wid + wid.join(map(loser_text.__getitem__, kept.losers)))
            return "".join(parts)

        return self._chunks(lambda scheme, ugv_count, tau, seed: f"{scheme},{seed},", body)


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
    J, tau); each group's entries are gathered in row order.

    Groups of one length are reduced together, a row each of one
    C-contiguous (groups, entries) array; a row's ``mean``, ``std`` and
    ``min`` along axis 1 are the 1-D reductions of its entries, bit for
    bit."""
    groups: dict[tuple, list[np.ndarray]] = {}
    for scheme, ugv_count, tau, _, start, stop in cols.runs:
        if stop > start:
            groups.setdefault((scheme, ugv_count, tau), []).append(np.arange(start, stop))
    keys = sorted(groups)
    at = [np.concatenate(groups[key]) for key in keys]
    by_length: dict[int, list[int]] = {}
    for g, entries in enumerate(at):
        by_length.setdefault(len(entries), []).append(g)
    stats: list = [None] * len(keys)
    for length, members in by_length.items():
        rows = np.stack([at[g] for g in members])
        sl, uu, gu, sp, ne = (col[rows] for col in (
            cols.sl, cols.uav_utility, cols.ugv_utility, cols.surplus, cols.non_envy_ratio))
        wn = cols.winners[rows].astype(float)
        columns = np.column_stack((
            sl.mean(1), sl.std(1), uu.mean(1), uu.std(1), gu.mean(1), gu.std(1),
            sp.mean(1), sp.std(1), ne.min(1), ne.mean(1), wn.mean(1),
        ))
        for g, row in zip(members, columns.tolist()):
            stats[g] = (*keys[g], length, *row)
    return [dict(zip(AGGREGATE_CSV_HEADER, row)) for row in stats]


# a row of ``metrics_aggregate.csv``: an ``aggregate_rows`` dict's values
# in ``AGGREGATE_CSV_HEADER`` order
aggregate_tuple = operator.itemgetter(*AGGREGATE_CSV_HEADER)
