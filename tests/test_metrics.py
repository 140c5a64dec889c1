"""Oracle tests for TTC, safety-event classification, and aggregation."""

import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from accsim.agents import ScriptedGapPolicy, _scan_world, run_episode
from accsim.metrics import (
    EPISODE_CSV_COLUMNS,
    EpisodeMetrics,
    MetricsError,
    SafetyTally,
    classify_safety_events,
    compute_ttc,
)
from accsim.scenario import ROUTE_THROUGH, RoadGeometry, RunConfig, load_builtin
from accsim.simcore import (
    EVENT_ACTUAL_COLLISION,
    EVENT_NEAR_COLLISION,
    TimedEvent,
    Vehicle,
    World,
)

from random_worlds import random_world


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
    flagged = {1, 2}  # followers 1 and 2 fell below the threshold
    events = [ev(EVENT_NEAR_COLLISION, 2), ev(EVENT_NEAR_COLLISION, 4),
              ev(EVENT_ACTUAL_COLLISION, 9)]
    tally = classify_safety_events(flagged, events)
    assert tally.fp == 1      # follower 1 flagged, no NC
    assert tally.fn == 1      # follower 4 NC without flag
    assert tally.ac == 1


def test_classify_flagged_with_nc_is_neither_fp_nor_fn():
    tally = classify_safety_events({7}, [ev(EVENT_NEAR_COLLISION, 7)])
    assert tally.fp == 0 and tally.fn == 0


def test_classify_empty_window():
    tally = classify_safety_events(set(), [])
    assert (tally.fp, tally.fn, tally.ac) == (0, 0, 0)


# ---- danger flags: the episode scan ---------------------------------------


def single_lane_world(*vehicles):
    """A one-lane world holding `vehicles` (x, v) front first, 5 m long."""
    geometry = RoadGeometry(mainline_length=500.0, lane_count=1,
                            ramp_kind="none")
    world = World(geometry, RunConfig(episode_duration=10.0,
                                      warmup_duration=0.0), [], seed=0)
    world.lanes[0] = [Vehicle(vid, x, v, 5.0, 0, 0.0, 1.0, 2.6, False,
                              ROUTE_THROUGH, 0.0)
                      for vid, (x, v) in enumerate(vehicles)]
    return world


def test_scan_flag_threshold_is_strict():
    # leader at 100 m doing 20, follower doing 30: bumper gap / 10 m/s
    world = single_lane_world((100.0, 20.0), (55.0, 30.0))
    flagged = set()
    ttcs = _scan_world(world, False, [0.0, 0.0, 0], flagged, 4.0, True)
    assert ttcs == [4.0] and flagged == set()  # ttc == threshold: no danger
    world = single_lane_world((100.0, 20.0), (55.00001, 30.0))
    ttcs = _scan_world(world, False, [0.0, 0.0, 0], flagged, 4.0, True)
    assert ttcs == [pytest.approx(3.999999)] and flagged == {1}


def test_classify_deduplicates_by_follower():
    # a follower flagged at every step of the window is one flag
    world = single_lane_world((100.0, 20.0), (55.0, 30.0))
    flagged = set()
    for _ in range(3):
        _scan_world(world, False, [0.0, 0.0, 0], flagged, 5.0, False)
    assert classify_safety_events(flagged, []).fp == 1
    # and a follower with two near-collision onsets is one miss
    events = [ev(EVENT_NEAR_COLLISION, 4), ev(EVENT_NEAR_COLLISION, 4, t=1.0)]
    assert classify_safety_events(set(), events).fn == 1


def reference_scan(world, collect_metrics, speed_acc, window_samples):
    """The previous `_scan_world`: metrics accumulation plus one
    (follower id, TTC) sample per closing pair, kept for the window."""
    speed_sum = 0.0
    accel_sum = 0.0
    n = 0
    for lid in world.lane_ids:
        leader = None
        for veh in world.lanes[lid]:
            if collect_metrics:
                speed_sum += veh.v
                accel_sum += abs(veh.a)
                n += 1
            if leader is not None and veh.v > leader.v:
                window_samples.append((veh.id, compute_ttc(veh, leader)))
            leader = veh
    if collect_metrics:
        speed_acc[0] += speed_sum
        speed_acc[1] += accel_sum
        speed_acc[2] += n


def reference_flags(ttc_samples, ttc_star):
    return {fid for fid, ttc in ttc_samples if ttc < ttc_star}


def reference_classify(ttc_samples, events, ttc_star):
    """The previous `classify_safety_events`: flags rebuilt from the
    window's samples at classification time; (fp, fn, ac)."""
    flagged = reference_flags(ttc_samples, ttc_star)
    nc_followers = set()
    ac = 0
    for e in events:
        if e.kind == EVENT_NEAR_COLLISION:
            nc_followers.add(e.subject)
        elif e.kind == EVENT_ACTUAL_COLLISION:
            ac += 1
    return len(flagged - nc_followers), len(nc_followers - flagged), ac


def bits(values):
    return [float(x).hex() for x in values]


def test_flag_set_matches_per_sample_reference_on_random_worlds():
    """Over two-control-interval windows of stepped random worlds, the
    set-based window gives the per-sample scan's flags, FP/FN/AC counts,
    control-step TTC lists and metric sums, bit for bit.  Besides a fixed
    grid, every window is classified at the TTCs its first step observed,
    where a flag compared with <= instead of < would differ."""
    rng = random.Random(21)
    grid = (0.0, 0.5, 2.0, 4.0, 10.0, math.inf)
    ttc_lists = flags_seen = nc_seen = ac_seen = 0
    for _ in range(150):
        world = random_world(rng)
        spc = world.run.steps_per_control
        collect = rng.random() < 0.5
        event_start = len(world.events)
        samples = []
        ref_acc = [0.0, 0.0, 0]
        scans = None  # threshold -> (flagged, speed_acc)
        for _ in range(2 * spc):
            world.step()
            control = world.step_index % spc == 0
            step_start = len(samples)
            reference_scan(world, collect, ref_acc, samples)
            if scans is None:
                observed = sorted({ttc for _, ttc in samples})[:3]
                scans = {t: (set(), [0.0, 0.0, 0])
                         for t in (*grid, *observed)}
            want_ttcs = [ttc for _, ttc in samples[step_start:]]
            for ttc_star, (flagged, acc) in scans.items():
                got = _scan_world(world, collect, acc, flagged, ttc_star,
                                  control)
                assert bits(got) == (bits(want_ttcs) if control else [])
            ttc_lists += control and bool(want_ttcs)
        events = world.events[event_start:]
        for ttc_star, (flagged, acc) in scans.items():
            assert flagged == reference_flags(samples, ttc_star)
            tally = classify_safety_events(flagged, events)
            assert (tally.fp, tally.fn, tally.ac) == reference_classify(
                samples, events, ttc_star)
            assert bits(acc[:2]) == bits(ref_acc[:2])
            assert acc[2] == ref_acc[2]
            flags_seen += len(flagged)
        nc_seen += any(e.kind == EVENT_NEAR_COLLISION for e in events)
        ac_seen += any(e.kind == EVENT_ACTUAL_COLLISION for e in events)
    # the cases exercised flags, TTC lists and both event kinds
    assert flags_seen > 100 and ttc_lists > 50
    assert nc_seen > 10 and ac_seen > 10


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
        tally=SafetyTally(fp=5, fn=2, ac=1),
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
