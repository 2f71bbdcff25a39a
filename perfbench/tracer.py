"""Per-layer tracing for the benchmark's traced run.

The hooks replace module attributes of the installed package for the
duration of one traced CLI call and restore them afterwards, so untraced
calls run the unmodified code. Each hook names the attribute where its
caller looks it up (``skymarket.simulator:admit`` is the ``admit`` that
``close_window`` calls), not where the function is defined.

Spans are aggregated in memory as call-tree edges keyed by (parent span,
span): calls, total seconds and self seconds. A span's self time is its
duration minus the time of the spans it directly contains.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import Counter
from time import perf_counter


def _count_agents(counts, args, result):
    uav_f, _, ugv_f, _ = args
    counts["kernels.step_world.agent_steps"] += uav_f.shape[0] + ugv_f.shape[0]


def _count_admit(counts, args, result):
    bidders, ugvs = args[0], args[1]
    counts["mechanism.admit.bidders"] += len(bidders)
    counts["mechanism.admit.ugvs_offered"] += len(ugvs)
    counts["mechanism.admit.ugvs_admitted"] += result.num_ugvs
    counts["mechanism.admit.empty_markets"] += result.is_empty


def _count_winners(counts, args, result):
    counts["mechanism.run_auction.winners"] += result.num_winners


def _count_bytes(counts, args, result):
    counts["reporting.write_csv.bytes"] += os.path.getsize(result)


# (where the caller looks the name up, span name, counter or None)
HOOKS = (
    ("skymarket.cli:run_experiment", "simulator.run_experiment", None),
    ("skymarket.cli:run_audit_suite", "presets.run_audit_suite", None),
    ("skymarket.cli:write_csv", "reporting.write_csv", _count_bytes),
    ("skymarket.simulator:generate_scenario", "simulator.generate_scenario", None),
    ("skymarket.simulator:run_world", "simulator.run_world", None),
    ("skymarket.simulator:advance_slot", "simulator.advance_slot", None),
    ("skymarket.simulator:close_window", "simulator.close_window", None),
    ("skymarket.simulator:aggregate_rows", "simulator.aggregate_rows", None),
    ("skymarket.simulator:World.uav_state", "simulator.World.uav_state", None),
    ("skymarket.simulator:World.ugv_state", "simulator.World.ugv_state", None),
    ("skymarket._kernels:step_world", "kernels.step_world", _count_agents),
    ("skymarket.simulator:qors_from_distance", "valuation.qors_from_distance", None),
    ("skymarket.simulator:admit", "mechanism.admit", _count_admit),
    ("skymarket.simulator:run_auction", "mechanism.run_auction", _count_winners),
    ("skymarket.simulator:optimal_scheme_outcome", "baselines.optimal_scheme_outcome", None),
    ("skymarket.simulator:audit_market", "audit.audit_market", None),
    ("skymarket.simulator:non_envy_ratio", "audit.non_envy_ratio", None),
    ("skymarket.baselines:best_assignment", "baselines.best_assignment", None),
    ("skymarket.baselines:run_auction", "mechanism.run_auction", _count_winners),
    ("skymarket.audit:run_auction", "mechanism.run_auction", _count_winners),
    ("skymarket.audit:with_replaced_bid", "mechanism.with_replaced_bid", None),
    ("skymarket.audit:deviation_probe", "audit.deviation_probe", None),
    ("skymarket.audit:check_stability", "audit.check_stability", None),
    ("skymarket.audit:non_envy_ratio", "audit.non_envy_ratio", None),
    ("skymarket.presets:random_market", "audit.random_market", None),
    ("skymarket.presets:audit_market", "audit.audit_market", None),
    ("skymarket.presets:write_csv", "reporting.write_csv", _count_bytes),
)

# span -> the fields of it that are per-layer metrics
SPAN_FIELDS = {
    "kernels.step_world": ("calls", "self_s"),
    "simulator.advance_slot": ("self_s",),
    "simulator.close_window": ("calls", "self_s"),
    "simulator.World.uav_state": ("calls", "self_s"),
    "simulator.World.ugv_state": ("calls", "self_s"),
    "simulator.generate_scenario": ("calls", "self_s"),
    "simulator.aggregate_rows": ("self_s",),
    "mechanism.admit": ("calls", "self_s"),
    "mechanism.run_auction": ("calls", "self_s"),
    "mechanism.with_replaced_bid": ("calls", "self_s"),
    "baselines.optimal_scheme_outcome": ("calls", "self_s"),
    "baselines.best_assignment": ("calls", "self_s"),
    "audit.audit_market": ("calls", "self_s"),
    "audit.deviation_probe": ("calls", "self_s"),
    "audit.check_stability": ("calls", "self_s"),
    "audit.random_market": ("calls", "self_s"),
    "audit.non_envy_ratio": ("calls", "self_s"),
    "valuation.qors_from_distance": ("calls",),
    "reporting.write_csv": ("calls", "self_s"),
}

COUNTERS = (
    "kernels.step_world.agent_steps",
    "mechanism.admit.bidders",
    "mechanism.admit.ugvs_offered",
    "mechanism.admit.ugvs_admitted",
    "mechanism.admit.empty_markets",
    "mechanism.run_auction.winners",
    "reporting.write_csv.bytes",
)


def _resolve(target: str):
    """``pkg.mod:Cls.attr`` -> (owner object, attribute name)."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Call-tree edge profile of the hooked functions."""

    def __init__(self):
        self.edges: dict[tuple, list] = {}  # (parent, span) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans as [name, child seconds]

    def wrap(self, fn, name, count=None):
        stack, edges, counts = self._stack, self.edges, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Hook every layer for the duration of the block."""
        saved = []
        try:
            for target, name, count in HOOKS:
                owner, attr = _resolve(target)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def spans(self) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s] summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, self_s) in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def layer_metrics(self, n_calls: int) -> dict[str, float]:
        """Per-layer metrics per traced CLI call (sums over ``n_calls`` calls)."""
        spans = self.spans()
        calls = {name: s[0] for name, s in spans.items()}
        self_s = {name: s[2] for name, s in spans.items()}
        m = {}
        for name, fields in SPAN_FIELDS.items():
            for f in fields:
                total = calls.get(name, 0) if f == "calls" else self_s.get(name, 0.0)
                m[f"{name}.{f}"] = total / n_calls
        for name in COUNTERS:
            m[name] = self.counts[name] / n_calls

        agent_steps = self.counts["kernels.step_world.agent_steps"]
        m["kernels.step_world.ns_per_agent_step"] = (
            self_s.get("kernels.step_world", 0.0) * 1e9 / agent_steps if agent_steps else 0.0
        )
        offered = self.counts["mechanism.admit.ugvs_offered"]
        m["mechanism.admit.admit_ratio"] = (
            self.counts["mechanism.admit.ugvs_admitted"] / offered if offered else 0.0
        )
        audited = calls.get("audit.audit_market", 0)
        replays = self.edges.get(("audit.deviation_probe", "mechanism.run_auction"), [0])[0]
        m["audit.replays_per_market"] = replays / audited if audited else 0.0
        return m


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".ns_per_agent_step"):
        return "ns"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"
