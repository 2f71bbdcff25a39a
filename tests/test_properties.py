"""Property tests over generated scenario configs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from conftest import run_world_windowwise  # noqa: E402
from skymarket.simulator import (  # noqa: E402
    SCHEME_OURS,
    SCHEME_STATIC,
    generate_scenario,
    run_worlds,
)
from skymarket.types import ScenarioConfig, validate  # noqa: E402

_STATE = ("uav_f", "uav_i", "ugv_f", "ugv_i", "soc_alert", "bidder", "excluded",
          "fail_count", "phi_sum", "rho_sum", "sample_count")

# (uav_count, ugv_count, slot_len, slots per window, SoC low, SoC span,
#  max_failed_windows, supply Wh, scheme, seed) of one world in a stack
_world = st.tuples(
    st.integers(1, 12),
    st.integers(1, 6),
    st.sampled_from([0.5, 2.0, 4.0]),
    st.integers(1, 4),
    st.floats(0.0, 0.3),
    st.floats(0.0, 0.4),
    st.integers(1, 3),
    st.sampled_from([5.0, 40.0, 500.0]),
    st.sampled_from([SCHEME_OURS, SCHEME_STATIC]),
    st.integers(0, 2**16),
)


def _build(spec, enter_urgency):
    n, m, slot_len, spw, soc_lo, soc_span, fails, supply, scheme, seed = spec
    cfg = ScenarioConfig(
        uav_count=n, ugv_count=m, slot_len=slot_len, window_len=slot_len * spw,
        uav_soc_frac_min=soc_lo, uav_soc_frac_max=min(soc_lo + soc_span, 1.0),
        max_failed_windows=fails, ugv_supply_wh=supply, enter_urgency=enter_urgency,
    )
    assert validate(cfg) == []
    return generate_scenario(cfg, seed, scheme)


def _assert_stack_matches_worlds_alone(specs, horizon, enter_urgency):
    stacked = [_build(s, enter_urgency) for s in specs]
    alone = [_build(s, enter_urgency) for s in specs]
    got = run_worlds(stacked, horizon, with_audit=True, keep_outcomes=True)
    want = [run_world_windowwise(w, horizon, with_audit=True, keep_outcomes=True)
            for w in alone]
    # repr, not ==: an int 0 where the full path writes 0.0 changes the CSVs
    assert repr(got) == repr(want)
    for a, b in zip(stacked, alone):
        for name in _STATE:
            assert (getattr(a, name) == getattr(b, name)).all(), name
        assert a.clock == b.clock
    return [outcome for _, outcomes, _ in want for outcome in outcomes]


# no shrink phase: shrinking a failing stack takes the five minutes
# Hypothesis allows itself, so a failure is reported as generated
@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.generate))
@given(
    specs=st.lists(_world, min_size=2, max_size=4),
    horizon=st.integers(1, 48),
    enter_urgency=st.sampled_from([0.0, 0.6, 0.75, 1.0]),
)
def test_stack_with_bidderless_fast_path_matches_each_world_alone(specs, horizon,
                                                                 enter_urgency):
    # a stack of worlds that mix window lengths, slot lengths and schemes,
    # started below the alert level, with losers leaving after a few
    # failed windows, clears every window as each world would alone with
    # every window going through close_window
    _assert_stack_matches_worlds_alone(specs, horizon, enter_urgency)


def test_bidderless_windows_with_and_without_an_idle_vehicle():
    # found by the property test against a fast path that always wrote
    # ugv_utility as the float 0.0: with every vehicle busy, the empty
    # market's ugv_utility is the empty sum, the int 0, and with an idle
    # vehicle the kept outcome lists it at utility 0.0
    specs = [
        (11, 5, 0.5, 3, 0.0, 0.36, 1, 5.0, SCHEME_OURS, 0),
        (1, 1, 0.5, 1, 0.0, 0.0, 1, 5.0, SCHEME_OURS, 0),
        (1, 1, 0.5, 1, 0.0, 0.0, 1, 500.0, SCHEME_OURS, 0),
    ]
    outcomes = _assert_stack_matches_worlds_alone(specs, 40, 0.0)
    bidderless = [o for o in outcomes if not o.uav_utilities]
    assert any(o.ugv_utilities for o in bidderless)
    assert any(not o.ugv_utilities for o in bidderless)
