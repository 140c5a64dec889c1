"""Oracle tests for TTC, safety-event classification, and aggregation."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from accsim.agents import ScriptedGapPolicy, run_episode
from accsim.metrics import (
    EPISODE_CSV_COLUMNS,
    EpisodeMetrics,
    MetricsError,
    SafetyTally,
    classify_safety_events,
    compute_ttc,
)
from accsim.scenario import ROUTE_THROUGH, load_builtin
from accsim.simcore import (
    EVENT_ACTUAL_COLLISION,
    EVENT_NEAR_COLLISION,
    TimedEvent,
    World,
)


def veh(x, v, length=5.0):
    return SimpleNamespace(x=x, v=v, length=length)


# ---- compute_ttc --------------------------------------------------------


def test_ttc_worked_example():
    # leader at 100 m (5 m long) doing 20; follower at 50 m doing 25:
    # bumper gap 45 m, closing 5 m/s -> 9 s
    assert compute_ttc(veh(50, 25), veh(100, 20, 5.0)) == pytest.approx(9.0,
                                                                        rel=1e-9)


def test_ttc_infinite_when_not_closing():
    assert compute_ttc(veh(50, 20), veh(100, 20)) == math.inf
    assert compute_ttc(veh(50, 15), veh(100, 20)) == math.inf


def test_ttc_zero_at_contact():
    assert compute_ttc(veh(45, 25), veh(50, 20, 5.0)) == 0.0


def test_ttc_negative_when_overlapping():
    assert compute_ttc(veh(48, 25), veh(50, 20, 5.0)) < 0.0


def test_ttc_kinematic_contact_oracle():
    """Simulating the pair forward, bumper contact occurs at t = TTC."""
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(10_000):
        gap = rng.uniform(0.1, 120.0)
        v_l = rng.uniform(0.0, 33.0)
        dv = rng.uniform(0.01, 15.0)
        length = rng.uniform(4.0, 5.0)
        follower = veh(0.0, v_l + dv)
        leader = veh(gap + length, v_l, length)
        ttc = compute_ttc(follower, leader)
        # closed-form contact time for constant speeds
        contact = gap / dv
        assert ttc == pytest.approx(contact, rel=1e-9)
        # positions at ttc actually touch
        xf = follower.x + follower.v * ttc
        xl_rear = leader.x - leader.length + leader.v * ttc
        assert xf == pytest.approx(xl_rear, rel=1e-6, abs=1e-6)
        checked += 1
    assert checked == 10_000


# ---- classification -----------------------------------------------------


def ev(kind, subject, t=0.0, obj=None):
    return TimedEvent(t, kind, subject, obj)


def test_classify_fp_fn_ac_counts():
    samples = [(1, 2.0), (2, 3.9), (3, 6.0)]  # 1 and 2 flagged at ttc*=4
    events = [ev(EVENT_NEAR_COLLISION, 2), ev(EVENT_NEAR_COLLISION, 4),
              ev(EVENT_ACTUAL_COLLISION, 9)]
    tally = classify_safety_events(samples, events, ttc_star=4.0)
    assert tally.fp == 1      # follower 1 flagged, no NC
    assert tally.fn == 1      # follower 4 NC without flag
    assert tally.ac == 1
    assert tally.near_collisions == 2


def test_classify_flag_threshold_is_strict():
    tally = classify_safety_events([(1, 4.0)], [], ttc_star=4.0)
    assert tally.fp == 0  # ttc == threshold is not dangerous
    tally = classify_safety_events([(1, 3.999999)], [], ttc_star=4.0)
    assert tally.fp == 1


def test_classify_deduplicates_by_follower():
    samples = [(1, 1.0), (1, 2.0), (1, 0.5)]
    tally = classify_safety_events(samples, [], ttc_star=4.0)
    assert tally.fp == 1


def test_classify_flagged_with_nc_is_neither_fp_nor_fn():
    tally = classify_safety_events([(7, 1.0)], [ev(EVENT_NEAR_COLLISION, 7)],
                                   ttc_star=4.0)
    assert tally.fp == 0 and tally.fn == 0
    assert tally.near_collisions == 1


def test_classify_empty_window():
    tally = classify_safety_events([], [], ttc_star=4.0)
    assert (tally.fp, tally.fn, tally.ac, tally.near_collisions) == (0, 0, 0, 0)


# ---- aggregation --------------------------------------------------------


def test_episode_metrics_match_vehicle_states(monkeypatch):
    """run_episode's aggregates equal figures recomputed from the vehicle
    states seen after every physics step."""
    sc = load_builtin("desk")
    warmup = sc.run.warmup_duration
    end = sc.geometry.mainline_length
    spc = sc.run.steps_per_control
    interval = sc.run.control_interval
    speed_sum = accel_sum = 0.0
    samples = 0
    first_seen: dict[int, float] = {}
    delays: list[float] = []
    tick_accel: dict[int, float] = {}
    jerk_sq_sum = 0.0
    jerk_samples = 0
    original_step = World.step

    def observed_step(world):
        nonlocal speed_sum, accel_sum, samples, tick_accel, jerk_sq_sum, \
            jerk_samples
        original_step(world)
        vehicles = list(world.vehicles())
        for veh in vehicles:
            first_seen.setdefault(veh.id, world.time)
        if world.time >= warmup:
            speed_sum += sum(veh.v for veh in vehicles)
            accel_sum += sum(abs(veh.a) for veh in vehicles)
            samples += len(vehicles)
        if world.step_index % spc == 0:
            if world.time >= warmup:
                for veh in vehicles:
                    if veh.id in tick_accel:
                        jerk = (veh.a - tick_accel[veh.id]) / interval
                        jerk_sq_sum += jerk * jerk
                        jerk_samples += 1
            tick_accel = {veh.id: veh.a for veh in vehicles}

    def before_despawn(world):
        if world.time < warmup:
            return
        for veh in world.vehicles():
            if veh.x >= end and veh.route == ROUTE_THROUGH:
                delays.append(world.time - first_seen[veh.id])

    monkeypatch.setattr(World, "step", observed_step)
    m = run_episode(sc, ScriptedGapPolicy(4.0), mode="eval", seed=5,
                    trajectory_sink=before_despawn).metrics
    assert samples and delays and jerk_samples
    assert m.mean_speed == pytest.approx(speed_sum / samples, rel=1e-12)
    assert m.mean_abs_accel == pytest.approx(accel_sum / samples, rel=1e-12)
    assert m.mean_delay == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    assert m.mean_sq_jerk == pytest.approx(jerk_sq_sum / jerk_samples,
                                           rel=1e-12)


def test_episode_without_completion_raises():
    # at most 33.3 m/s, nothing crosses the 800 m segment within 20 s
    sc = load_builtin("desk")
    short = sc.replace(run=replace(sc.run, episode_duration=20.0,
                                   warmup_duration=10.0))
    with pytest.raises(MetricsError, match="no vehicle completed"):
        run_episode(short, ScriptedGapPolicy(4.0), mode="eval", seed=5)


def test_csv_row_matches_column_order():
    m = EpisodeMetrics(
        seed=7, scenario="onramp", penetration=0.8, ramp_flow=1200.0,
        near_collisions=3,
        tally=SafetyTally(fp=5, fn=2, ac=1, near_collisions=3),
        mean_speed=30.0, mean_delay=50.0, mean_abs_accel=0.25,
        mean_sq_jerk=0.125)
    row = m.csv_row()
    assert len(row) == len(EPISODE_CSV_COLUMNS)
    assert dict(zip(EPISODE_CSV_COLUMNS, row)) == {
        "seed": 7, "scenario": "onramp", "penetration": 0.8,
        "ramp_flow": 1200.0, "near_collisions": 3, "fp": 5, "fn": 2, "ac": 1,
        "mean_speed": "30.000000", "mean_delay": "50.000000",
        "mean_abs_accel": "0.250000", "mean_sq_jerk": "0.125000",
    }
