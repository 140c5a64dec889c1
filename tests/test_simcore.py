"""Car-following, gap control, lane changes, events, and world invariants."""

import copy
import math
import random
import types
from dataclasses import replace

import pytest

from accsim.scenario import (
    RAMP_LANE,
    ROUTE_EXIT,
    ROUTE_MERGE,
    ROUTE_THROUGH,
    RoadGeometry,
    RunConfig,
    SpawnEvent,
    load_builtin,
    spawn_schedule,
)
from accsim.simcore import (
    ACC_COMFORT_DECEL,
    EVENT_ACTUAL_COLLISION,
    EVENT_DESPAWN,
    EVENT_LANE_CHANGE,
    EVENT_NEAR_COLLISION,
    FREE_FLOW_SPEED,
    Vehicle,
    World,
    acc_target_gap_control,
    krauss_safe_speed,
)

from random_worlds import brute_force_pairs, logged_pairs, random_world

DT = 0.1


def make_vehicle(vid=0, x=0.0, v=30.0, length=5.0, lane=0, sigma=0.0,
                 tau=1.0, bound=2.6, equipped=False):
    return Vehicle(vid, x, v, length, lane, sigma, tau, bound, equipped,
                   ROUTE_THROUGH, 0.0)


def make_world(name="straight", seed=1, schedule=None, geometry=None,
               run=None):
    sc = load_builtin(name)
    geometry = geometry or sc.geometry
    run = run or sc.run
    if schedule is None:
        schedule = spawn_schedule(sc.demand, geometry, run.episode_duration,
                                  random.Random(seed))
    return World(geometry, run, schedule, seed)


# ---- Krauss safe speed --------------------------------------------------


def test_krauss_scalar_oracle():
    # v_safe = v_l + (gap - v_l*tau) / ((v_f+v_l)/(2b) + tau)
    v_f, v_l, gap, tau, b = 30.0, 20.0, 50.0, 1.0, 2.6
    expect = v_l + (gap - v_l * tau) / ((v_f + v_l) / (2 * b) + tau)
    assert krauss_safe_speed(v_f, v_l, gap, tau, b) == pytest.approx(
        expect, rel=1e-12)
    assert expect == pytest.approx(22.82608695652174, rel=1e-9)


def test_krauss_stationary_leader_zero_gap():
    # frozen contract: leader stopped at zero gap -> safe speed 0
    assert krauss_safe_speed(10.0, 0.0, 0.0, 1.0, 2.6) == 0.0


def test_krauss_clamps_negative_to_zero():
    assert krauss_safe_speed(10.0, 0.0, -5.0, 1.0, 2.6) == 0.0


def test_krauss_equilibrium_headway():
    # at gap = v*tau with matched speeds, safe speed equals current speed
    assert krauss_safe_speed(25.0, 25.0, 25.0, 1.0, 2.6) == pytest.approx(25.0)


# ---- ACC gap controller -------------------------------------------------


def simulate_pair(gap0, v0, v_leader, gap_cmd, duration, danger_ttc=4.0):
    """Integrate follower under acc control behind a constant-speed leader."""
    leader = make_vehicle(vid=1, x=gap0 + 5.0, v=v_leader)
    follower = make_vehicle(vid=2, x=0.0, v=v0, equipped=True)
    follower.danger_ttc = danger_ttc
    gaps, speeds = [], []
    steps = round(duration / DT)
    for _ in range(steps):
        a = acc_target_gap_control(follower, leader.v,
                                   leader.x - leader.length, gap_cmd, DT)
        follower.v += a * DT
        follower.x += follower.v * DT
        leader.x += leader.v * DT
        gaps.append(leader.x - leader.length - follower.x)
        speeds.append(follower.v)
    return gaps, speeds


def test_acc_setpoint_step_settles_within_30s():
    # frozen contract: a 10 m -> 20 m setpoint step settles within 10%
    # of the new gap in <= 30 s
    gaps, _ = simulate_pair(gap0=10.0, v0=25.0, v_leader=25.0, gap_cmd=20.0,
                            duration=30.0)
    tail = gaps[round(25.0 / DT):]
    assert all(abs(g - 20.0) <= 2.0 for g in tail), (tail[0], tail[-1])


def test_acc_equilibrium_zero_accel():
    leader = make_vehicle(vid=1, x=20.0 + 5.0, v=25.0)
    follower = make_vehicle(vid=2, x=0.0, v=25.0, equipped=True)
    a = acc_target_gap_control(follower, leader.v,
                               leader.x - leader.length, 20.0, DT)
    assert a == pytest.approx(0.0, abs=1e-12)


def test_acc_free_flow_cruises_to_speed_cap():
    follower = make_vehicle(x=0.0, v=20.0, equipped=True)
    for _ in range(round(60.0 / DT)):
        a = acc_target_gap_control(follower, 0.0, None, 20.0, DT)
        follower.v += a * DT
    assert follower.v == pytest.approx(FREE_FLOW_SPEED, abs=1e-6)
    # and never exceeds it
    a = acc_target_gap_control(follower, 0.0, None, 20.0, DT)
    assert follower.v + a * DT <= FREE_FLOW_SPEED + 1e-9


def test_acc_acceleration_bounds_respected():
    rng = random.Random(0)
    for _ in range(2000):
        leader = make_vehicle(vid=1, x=rng.uniform(3.0, 120.0),
                              v=rng.uniform(0.0, 33.0))
        follower = make_vehicle(vid=2, x=0.0, v=rng.uniform(0.0, 33.0),
                                equipped=True)
        follower.danger_ttc = rng.uniform(0.0, 10.0)
        a = acc_target_gap_control(follower, leader.v,
                                   leader.x - leader.length,
                                   rng.uniform(1.0, 25.0), DT)
        assert -2.6 - 1e-12 <= a <= 2.6 + 1e-12
        assert follower.v + a * DT >= -1e-12  # never integrates below zero


def test_acc_comfort_braking_limited_outside_danger():
    # far away, slowly closing: braking stays within the comfort limit
    leader = make_vehicle(vid=1, x=205.0, v=29.0)
    follower = make_vehicle(vid=2, x=0.0, v=30.0, equipped=True)
    a = acc_target_gap_control(follower, leader.v,
                               leader.x - leader.length, 10.0, DT)
    assert a >= -ACC_COMFORT_DECEL - 1e-12


def test_acc_danger_reaction_brakes_harder_than_comfort():
    # fast approach inside the danger horizon
    leader = make_vehicle(vid=1, x=25.0, v=5.0)
    follower = make_vehicle(vid=2, x=0.0, v=25.0, equipped=True)
    follower.danger_ttc = 4.0
    a = acc_target_gap_control(follower, leader.v,
                               leader.x - leader.length, 10.0, DT)
    assert a < -ACC_COMFORT_DECEL
    assert follower.danger_latch


def test_acc_higher_threshold_reacts_earlier():
    """The danger threshold is the behavioral knob: a high-threshold
    follower starts emergency braking at a longer range."""
    def first_brake_gap(danger_ttc):
        leader = make_vehicle(vid=1, x=305.0, v=10.0)
        follower = make_vehicle(vid=2, x=0.0, v=30.0, equipped=True)
        follower.danger_ttc = danger_ttc
        while follower.x < leader.x:
            a = acc_target_gap_control(follower, leader.v,
                                       leader.x - leader.length, 10.0, DT)
            if a < -ACC_COMFORT_DECEL - 1e-9:
                return leader.x - leader.length - follower.x
            follower.v += a * DT
            follower.x += follower.v * DT
            leader.x += leader.v * DT
        return 0.0

    assert first_brake_gap(8.0) > first_brake_gap(2.0)


def test_acc_latch_persists_until_closing_resolved():
    leader = make_vehicle(vid=1, x=25.0, v=5.0)
    follower = make_vehicle(vid=2, x=0.0, v=25.0, equipped=True)
    acc_target_gap_control(follower, leader.v,
                           leader.x - leader.length, 10.0, DT)
    assert follower.danger_latch
    # still closing but momentarily outside the detection horizon
    follower.v = 6.0
    follower.x = 5.0
    acc_target_gap_control(follower, leader.v,
                           leader.x - leader.length, 10.0, DT)
    assert follower.danger_latch
    follower.v = 5.0  # closing resolved
    acc_target_gap_control(follower, leader.v,
                           leader.x - leader.length, 10.0, DT)
    assert not follower.danger_latch


def test_acc_keeps_clearance_behind_moderately_braking_leader():
    """A leader braking to a stop at half the shared decel capability is
    absorbed without the follower ever entering the near-collision band.
    (A sustained full-capability panic stop from close range is not
    recoverable by any controller with equal braking power; collisions
    are permitted and logged in that regime.)"""
    for v0 in (20.0, 25.0, 30.0):
        for gap0 in (15.0, 30.0, 60.0):
            leader = make_vehicle(vid=1, x=gap0 + 5.0, v=v0)
            follower = make_vehicle(vid=2, x=0.0, v=v0, equipped=True)
            for _ in range(round(60.0 / DT)):
                a = acc_target_gap_control(follower, leader.v,
                                           leader.x - leader.length, 10.0, DT)
                follower.v = max(0.0, follower.v + a * DT)
                follower.x += follower.v * DT
                leader.v = max(0.0, leader.v - 1.3 * DT)
                leader.x += leader.v * DT
                gap = leader.x - leader.length - follower.x
                assert gap > 2.5, (v0, gap0, gap)


# ---- world stepping invariants -----------------------------------------


def run_world(name="onramp", seed=3, steps=1200):
    world = make_world(name, seed=seed)
    for _ in range(steps):
        world.step()
    return world


def test_vehicle_conservation():
    world = run_world()
    active = world.vehicle_count()
    assert world.spawned - world.despawned == active
    assert world.spawned > 0


@pytest.mark.parametrize("name", ["onramp", "offramp"])
def test_lane_ordering_invariant(name):
    # strictly decreasing: lane changes take the own-lane leader from
    # their walk, which needs no two vehicles of a lane at one position
    world = make_world(name, seed=5)
    for _ in range(1500):
        world.step()
        for lid in world.lane_ids:
            xs = [veh.x for veh in world.lanes[lid]]
            assert all(a > b for a, b in zip(xs, xs[1:])), \
                f"lane {lid} not strictly decreasing"


def test_bit_exact_determinism():
    def fingerprint(seed):
        world = run_world("onramp", seed=seed, steps=1000)
        state = [(v.id, v.lane, v.x, v.v, v.a) for v in world.vehicles()]
        return world.events, state

    ev_a, st_a = fingerprint(11)
    ev_b, st_b = fingerprint(11)
    assert ev_a == ev_b
    assert st_a == st_b
    ev_c, _ = fingerprint(12)
    assert ev_a != ev_c


def test_ramp_vehicles_merge_or_despawn():
    world = run_world("onramp", seed=7, steps=4200)
    # nobody is left beyond the acceleration-lane end on the ramp
    for veh in world.lanes[RAMP_LANE]:
        assert veh.x < world.ramp_end


def test_positions_stay_in_segment():
    world = make_world("onramp", seed=9)
    end = world.geometry.mainline_length
    for _ in range(2000):
        world.step()
        for veh in world.vehicles():
            assert veh.x < end + FREE_FLOW_SPEED  # despawned within one step


# ---- fused passes vs the loop versions they replaced --------------------


def reference_longitudinal(self, dt):
    """The previous `World._longitudinal`: every command first, then every
    integration, then an unconditional sort of each lane."""
    rng_random = self.rng.random
    on_ramp_end = self.ramp_end
    for lid in self.lane_ids:
        lane = self.lanes[lid]
        leader = None
        for veh in lane:
            v = veh.v
            bound = veh.accel_bound
            if veh.equipped and self.acc_enabled:
                if leader is None:
                    a = acc_target_gap_control(veh, 0.0, None, veh.gap_cmd, dt)
                else:
                    a = acc_target_gap_control(veh, leader.v,
                                               leader.x - leader.length,
                                               veh.gap_cmd, dt)
                v_new = v + a * dt
            else:
                if leader is not None:
                    gap = leader.x - leader.length - veh.x
                    v_safe = krauss_safe_speed(v, leader.v, gap, veh.tau,
                                               veh.accel_bound)
                else:
                    v_safe = FREE_FLOW_SPEED
                v_new = v + bound * dt
                if v_new > FREE_FLOW_SPEED:
                    v_new = FREE_FLOW_SPEED
                if v_new > v_safe:
                    v_new = v_safe
                if veh.sigma > 0.0:
                    v_new -= veh.sigma * bound * dt * rng_random()
            if lid == RAMP_LANE and on_ramp_end is not None:
                wall_gap = on_ramp_end - veh.x - 2.0
                if wall_gap < v * v / (2.0 * veh.accel_bound) + 15.0:
                    v_wall = krauss_safe_speed(v, 0.0, wall_gap, 0.5,
                                               veh.accel_bound)
                    if v_new > v_wall:
                        v_new = v_wall
            floor = v - veh.accel_bound * dt
            if v_new < floor:
                v_new = floor
            if v_new < 0.0:
                v_new = 0.0
            veh.a = (v_new - v) / dt
            leader = veh
    resorted = False
    for lid in self.lane_ids:
        for veh in self.lanes[lid]:
            veh.v += veh.a * dt
            veh.x += veh.v * dt
        before = list(self.lanes[lid])
        self.lanes[lid].sort(key=lambda w: -w.x)
        resorted |= self.lanes[lid] != before
    return resorted


def reference_despawn(self):
    """The previous `World._despawn`: a scan of every vehicle."""
    end = self.geometry.mainline_length
    junction = self.junction
    for lid in self.lane_ids:
        lane = self.lanes[lid]
        keep = []
        for veh in lane:
            out = veh.x >= end
            exited = (veh.route == ROUTE_EXIT and lid == 0
                      and junction is not None and veh.x >= junction)
            stranded = (lid == RAMP_LANE and self.ramp_end is not None
                        and veh.x >= self.ramp_end)
            if out or exited or stranded:
                self.despawned += 1
                self._log(EVENT_DESPAWN, veh.id)
                if out and veh.route == ROUTE_THROUGH:
                    self.all_completed.append(
                        (self.time, self.time - veh.spawn_time))
            else:
                keep.append(veh)
        if len(keep) != len(lane):
            self.lanes[lid][:] = keep


def world_state(world):
    """Everything the step passes write, with floats as their bits."""
    lanes = {lid: [(veh.id, veh.x.hex(), veh.v.hex(), veh.a.hex(),
                    veh.danger_latch) for veh in lane]
             for lid, lane in world.lanes.items()}
    completed = [(t.hex(), d.hex()) for t, d in world.all_completed]
    return (lanes, world.rng.getstate(), list(world.events), completed,
            world.despawned, world._active_nc)


def mixed_random_world(rng, equip_rng):
    """A `random_world` with a subset made equipped ACC vehicles and the
    rest Krauss drivers with driver noise, drawn from `equip_rng` so the
    shared builder's draws stay the same."""
    world = random_world(rng)
    for veh in world.vehicles():
        if equip_rng.random() < 0.5:
            veh.equipped = True
            veh.gap_cmd = equip_rng.uniform(1.0, 25.0)
            veh.danger_ttc = equip_rng.uniform(0.5, 10.0)
            veh.danger_latch = equip_rng.random() < 0.3
        else:
            veh.sigma = equip_rng.uniform(0.2, 0.5)
    return world


def test_fused_passes_bitwise_match_reference_on_random_worlds():
    rng, equip_rng = random.Random(7), random.Random(8)
    resorted = 0
    for _ in range(500):
        world = mixed_random_world(rng, equip_rng)
        world.time = 30.0
        twin = copy.deepcopy(world)
        for _ in range(3):
            world._longitudinal(DT)
            resorted += reference_longitudinal(twin, DT)
            assert world_state(world) == world_state(twin)
            world._detect_events()
            twin._detect_events()
            world._despawn()
            reference_despawn(twin)
            assert world_state(world) == world_state(twin)
    assert resorted > 0  # some case took the out-of-order sort path


@pytest.mark.parametrize("name", ["onramp", "offramp", "straight"])
def test_despawn_bitwise_matches_reference_at_every_boundary(name):
    """Front-first lanes of any route reaching past the segment end, the
    junction and the ramp end."""
    rng = random.Random(9)
    removed = 0
    for case in range(300):
        world = make_world(name, schedule=[])
        world.time = 100.0
        vid = 0
        for lid in world.lane_ids:
            xs = sorted((rng.uniform(0.0, 1560.0)
                         for _ in range(rng.randint(0, 15))), reverse=True)
            for x in xs:
                route = rng.choice((ROUTE_THROUGH, ROUTE_EXIT, ROUTE_MERGE))
                world.lanes[lid].append(Vehicle(
                    vid, x, 20.0, 4.5, lid, 0.0, 1.0, 2.6, False, route,
                    rng.uniform(0.0, 90.0)))
                vid += 1
        twin = copy.deepcopy(world)
        world._despawn()
        reference_despawn(twin)
        assert world_state(world) == world_state(twin)
        removed += world.despawned
    assert removed > 0


@pytest.mark.parametrize("name", ["onramp", "offramp"])
def test_step_bitwise_matches_reference_passes(name):
    """Whole episodes stepped with the fused passes and with the loop
    versions agree bit for bit; every lane change is handed the leader a
    bisection of its own lane finds."""
    sc = load_builtin(name)
    demand = replace(sc.demand, penetration_rate=0.5)
    schedule = spawn_schedule(demand, sc.geometry, sc.run.episode_duration,
                              random.Random(4))
    world = World(sc.geometry, sc.run, schedule, seed=4)
    twin = World(sc.geometry, sc.run, schedule, seed=4)
    twin._longitudinal = types.MethodType(reference_longitudinal, twin)
    twin._despawn = types.MethodType(reference_despawn, twin)
    decide = world.lane_change_decision
    leaders_checked = 0

    def checked_decision(veh, leader):
        nonlocal leaders_checked
        assert leader is world._neighbors(world.lanes[veh.lane], veh.x)[0]
        leaders_checked += 1
        return decide(veh, leader)

    world.lane_change_decision = checked_decision
    for _ in range(2000):
        world.step()
        twin.step()
        assert world_state(world) == world_state(twin)
    assert world.despawned > 0 and leaders_checked > 0
    assert any(e.kind == EVENT_LANE_CHANGE for e in world.events)


# ---- event detector vs brute force --------------------------------------


def test_nc_detector_matches_brute_force_oracle():
    rng = random.Random(42)
    near_seen = crash_seen = 0
    for _ in range(2000):
        world = random_world(rng)
        near, crash = brute_force_pairs(world)
        world._detect_events()
        assert logged_pairs(world, EVENT_NEAR_COLLISION) == near
        assert logged_pairs(world, EVENT_ACTUAL_COLLISION) == crash
        near_seen += len(near)
        crash_seen += len(crash)
    # the cases exercised both positive branches
    assert near_seen > 50 and crash_seen > 50


def test_nc_events_are_onset_deduplicated():
    world = make_world("straight", schedule=[])
    leader = make_vehicle(vid=1, x=100.0, v=10.0)
    follower = make_vehicle(vid=2, x=94.0, v=11.0)
    world.lanes[0] = [leader, follower]
    for _ in range(5):
        world._detect_events()
    onsets = [e for e in world.events if e.kind == EVENT_NEAR_COLLISION]
    assert len(onsets) == 1
    assert onsets[0].subject == 2 and onsets[0].object == 1
    # a step without hits still clears the active pair, so its renewal is
    # a second onset
    follower.v = 9.0
    world._detect_events()
    follower.v = 11.0
    for _ in range(3):
        world._detect_events()
    onsets = [e for e in world.events if e.kind == EVENT_NEAR_COLLISION]
    assert [(e.subject, e.object) for e in onsets] == [(2, 1), (2, 1)]


def test_actual_collision_removes_both_vehicles():
    world = make_world("straight", schedule=[])
    leader = make_vehicle(vid=1, x=100.0, v=10.0, length=5.0)
    follower = make_vehicle(vid=2, x=96.0, v=12.0)  # gap -1: overlap
    world.lanes[0] = [leader, follower]
    world._detect_events()
    crashes = [e for e in world.events if e.kind == EVENT_ACTUAL_COLLISION]
    assert len(crashes) == 1
    assert world.lanes[0] == []


# ---- lane-change gap acceptance ----------------------------------------


def test_gap_acceptance_oracle():
    world = make_world("straight", schedule=[])
    bound = 2.6
    base = world.run.min_gap_for_near_collision
    changer = make_vehicle(vid=10, x=250.0, v=30.0, lane=1)
    world.lanes[1] = [changer]

    def need(urgency, v_other, closing):
        relax = 1.0 - 0.7 * min(urgency, 1.0)
        n = base + relax * 0.3 * v_other
        if closing > 0.0:
            n += closing + closing * closing / (2.0 * bound)
        return n

    # leader check: place a slower leader exactly at/below the required gap
    lead_need = need(0.0, changer.v, 30.0 - 25.0)
    leader = make_vehicle(vid=11, x=250.0 + 5.0 + lead_need + 0.01, v=25.0,
                          lane=0)
    world.lanes[0] = [leader]
    assert world._gap_acceptable(changer, 0, 0.0)
    leader.x = 250.0 + 5.0 + lead_need - 0.01
    assert not world._gap_acceptable(changer, 0, 0.0)

    # follower check: faster rear vehicle needs its stopping distance
    world.lanes[0] = []
    rear = make_vehicle(vid=12, x=0.0, v=33.0, lane=0)
    lag_need = need(0.0, rear.v, 33.0 - 30.0)
    rear.x = 250.0 - changer.length - lag_need - 0.01
    world.lanes[0] = [rear]
    assert world._gap_acceptable(changer, 0, 0.0)
    rear.x = 250.0 - changer.length - lag_need + 0.01
    assert not world._gap_acceptable(changer, 0, 0.0)

    # urgency relaxes the headway margin
    rear.x = 250.0 - changer.length - need(1.0, rear.v, 3.0) - 0.01
    assert world._gap_acceptable(changer, 0, 1.0)


def test_never_cut_in_inside_nc_band():
    world = make_world("straight", schedule=[])
    changer = make_vehicle(vid=10, x=250.0, v=20.0, lane=1)
    world.lanes[1] = [changer]
    # same-speed leader just inside the near-collision band
    leader = make_vehicle(vid=11, x=250.0 + 5.0 + 2.0, v=20.0, lane=0)
    world.lanes[0] = [leader]
    assert not world._gap_acceptable(changer, 0, 1.0)


# ---- Krauss platoon safety property ------------------------------------


def test_krauss_platoon_no_collisions_100k_steps():
    """Deterministic Krauss platoon (sigma=0) behind an oscillating leader
    never registers an actual collision over 1e5 steps."""
    geometry = RoadGeometry(mainline_length=10 ** 9, lane_count=1,
                            ramp_kind="none")
    run = RunConfig(episode_duration=10 ** 5, warmup_duration=0.0)
    world = World(geometry, run, [], seed=0)
    rng = random.Random(1)
    lane = []
    x = 0.0
    leader = make_vehicle(vid=0, x=5000.0, v=25.0)
    lane.append(leader)
    x = 5000.0
    for vid in range(1, 11):
        x -= rng.uniform(20.0, 60.0)
        lane.append(make_vehicle(vid=vid, x=x, v=25.0,
                                 tau=rng.uniform(0.8, 1.2)))
    world.lanes[0] = lane
    phase = 0
    for step in range(100_000):
        # leader cycles: cruise, brake to stop, accelerate
        if step % 4000 == 0:
            phase = (phase + 1) % 3
        if phase == 0:
            leader.v = min(FREE_FLOW_SPEED, leader.v + 2.6 * DT)
        elif phase == 1:
            leader.v = max(0.0, leader.v - 2.6 * DT)
        world.step()
    assert not any(e.kind == EVENT_ACTUAL_COLLISION for e in world.events)
    assert world.vehicle_count() == 11  # nobody crashed out or despawned


# ---- spawning -----------------------------------------------------------


def test_blocked_spawns_queue_until_space():
    geometry = RoadGeometry(lane_count=1, ramp_kind="none",
                            mainline_length=1500.0)
    run = RunConfig(episode_duration=60.0, warmup_duration=0.0)
    # a stopped blocker near the origin delays later spawns
    schedule = [SpawnEvent(0.1 * i, 0, False, ROUTE_THROUGH)
                for i in range(1, 4)]
    world = World(geometry, run, schedule, seed=0)
    entered = []  # what each step's _process_spawns returned
    process_spawns = world._process_spawns

    def recorded():
        entered.append(process_spawns())
        return entered[-1]

    world._process_spawns = recorded
    world.step()
    blocker = world.lanes[0][0]
    assert entered == [[blocker]]
    blocker.v = 0.0
    blocker.x = 4.0
    world.step()
    assert world.spawned == 1  # others blocked behind the stopped car
    assert entered[1] == []
    blocker.x = 400.0
    blocker.v = 30.0
    for _ in range(20):
        world.step()
    assert world.spawned == 3  # queue drains once space opens
    later = [veh for vehicles in entered[2:] for veh in vehicles]
    assert [veh.id for veh in later] == [1, 2]  # in queue order
    assert world.lanes[0][1:] == later
