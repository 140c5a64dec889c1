"""Microscopic world stepping: car following, gap control, lane changes, events.

Non-equipped vehicles follow a stochastic Krauss safe-speed model; equipped
vehicles track a commanded bumper gap with a PD law bounded by the same safe
speed envelope.  Collisions are permitted (zero minimum headway); a bumper
overlap is logged as an actual collision and the involved vehicles are
removed so one crash does not corrupt the rest of the episode.

Each lane is a list kept front-first (descending position), so a vehicle's
leader is its predecessor in the list and no pass searches for it.  Once the
crashed vehicles are removed, positions within a lane are strictly
decreasing: every remaining bumper gap is non-negative and every vehicle is
at least 4 m long.  Lane changes rely on that to take the own-lane leader
from their walk, and a lane is re-sorted only when the step left it out of
order.  Vehicles leave from the front of a lane, so the despawn pass stops
at the first vehicle short of the lane's nearest boundary.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .scenario import (
    RAMP_LANE,
    ROUTE_EXIT,
    ROUTE_MERGE,
    ROUTE_THROUGH,
    RoadGeometry,
    RunConfig,
    SpawnEvent,
)

FREE_FLOW_SPEED = 33.3  # m/s (120 km/h) cap for every vehicle
RAMP_ENTRY_SPEED = 15.0  # m/s at the ramp origin
ACC_COMFORT_DECEL = 1.5  # m/s^2, braking limit outside danger reactions
ACC_MIN_STANDOFF = 1.0  # m, bumper margin kept by the last-resort crash guard
ACC_STANDOFF_PER_TTC = 0.8  # m of extra stopping margin per danger-threshold second
LANE_CHANGE_PERIOD = 0.5  # s between lane-change evaluations
EXIT_PREP_DISTANCE = 400.0  # m before the junction where exiters begin moving right

# PD gains for the gap-tracking controller; critically damped-ish
# (zeta ~ 0.95) so a setpoint step settles well inside 30 s.
ACC_KP = 0.1
ACC_KD = 0.6
CRUISE_GAIN = 0.5

EVENT_SPAWN = "spawn"
EVENT_DESPAWN = "despawn"
EVENT_LANE_CHANGE = "lane_change"
EVENT_NEAR_COLLISION = "near_collision"
EVENT_ACTUAL_COLLISION = "actual_collision"


class TimedEvent(NamedTuple):
    time: float
    kind: str
    subject: int
    object: Optional[int]


class Vehicle:
    __slots__ = (
        "id", "x", "v", "a", "length", "lane", "sigma", "tau",
        "accel_bound", "equipped", "gap_cmd", "danger_ttc",
        "danger_latch", "route", "spawn_time", "ctrl_accel_prev",
    )

    def __init__(self, vid: int, x: float, v: float, length: float, lane: int,
                 sigma: float, tau: float, accel_bound: float,
                 equipped: bool, route: str, spawn_time: float):
        self.id = vid
        self.x = x
        self.v = v
        self.a = 0.0
        self.length = length
        self.lane = lane
        self.sigma = sigma
        self.tau = tau
        self.accel_bound = accel_bound  # |acceleration| limit, both ways
        self.equipped = equipped
        self.gap_cmd = 10.0
        self.danger_ttc = 4.0  # TTC below which the ACC brakes hard
        self.danger_latch = False  # danger reaction active until closing resolved
        self.route = route
        self.spawn_time = spawn_time
        self.ctrl_accel_prev = math.nan  # no jerk sample until the next tick

    def __repr__(self):  # debug aid
        return (f"Vehicle(id={self.id}, lane={self.lane}, x={self.x:.1f}, "
                f"v={self.v:.1f}, route={self.route})")


def krauss_safe_speed(v_follower: float, v_leader: float, gap: float,
                      reaction_time: float, max_decel: float) -> float:
    """Krauss safe speed for a follower given leader speed and bumper gap.

    Callers handle the no-leader case by capping at the free-flow speed.
    """
    v_safe = v_leader + (gap - v_leader * reaction_time) / (
        (v_follower + v_leader) / (2.0 * max_decel) + reaction_time
    )
    return v_safe if v_safe > 0.0 else 0.0


def acc_target_gap_control(follower: Vehicle, leader_v: float,
                           leader_rear: Optional[float], gap_cmd: float,
                           dt: float) -> float:
    """Acceleration command tracking a desired bumper gap.

    The leader enters as its speed `leader_v` and its rear-bumper position
    `leader_rear` (``x - length``); `leader_rear` None means no leader, and
    `leader_v` is then ignored.

    Normal operation is a PD law on gap error and closing speed whose
    braking is limited to a comfortable deceleration.  A separate danger
    reaction engages when the follower's time-to-collision drops below its
    danger threshold (or unconditionally past the kinematic point of no
    return): it brakes just hard enough to stop the closing speed at the
    standoff margin.  A high threshold therefore reacts early and gently; a
    low one recognizes danger late, when the required deceleration already
    saturates the bound and the gap dips into near-collision territory.
    Without a leader this is a free-flow cruise controller.
    """
    bound = follower.accel_bound
    v = follower.v
    if leader_rear is None:
        follower.danger_latch = False
        a = CRUISE_GAIN * (FREE_FLOW_SPEED - v)
        if v + a * dt > FREE_FLOW_SPEED:
            a = (FREE_FLOW_SPEED - v) / dt
    else:
        gap = leader_rear - follower.x
        closing = v - leader_v
        a = ACC_KP * (gap - gap_cmd) + ACC_KD * (leader_v - v)
        if a < -ACC_COMFORT_DECEL:
            a = -ACC_COMFORT_DECEL
        if closing > 0.0:
            # Early detection (high threshold) also aims farther out.
            aim = ACC_MIN_STANDOFF + ACC_STANDOFF_PER_TTC * follower.danger_ttc
            slack = gap - aim
            # last-resort guard: decel that stops the closing speed at the aim
            need = bound if slack <= 0.0 else closing * closing / (2.0 * slack)
            if need >= bound or gap < closing * follower.danger_ttc:
                # the reaction latches until the closing speed is resolved,
                # so it cannot flicker off while the leader keeps braking
                follower.danger_latch = True
            if follower.danger_latch:
                # detected danger: anticipate that the leader may brake to a
                # stop, and keep enough margin to stop behind it
                stop_room = slack + leader_v * leader_v / (2.0 * bound)
                if stop_room > 0.0:
                    need = max(need, v * v / (2.0 * stop_room))
                else:
                    need = bound
                a = min(a, -min(need, bound))
        else:
            follower.danger_latch = False
        if v + a * dt > FREE_FLOW_SPEED:
            a = (FREE_FLOW_SPEED - v) / dt
    if a > bound:
        a = bound
    elif a < -bound:
        a = -bound
    if v + a * dt < 0.0:
        a = -v / dt
    return a


class World:
    """Mutable per-episode simulation state.

    Lanes are kept as per-lane lists sorted front-first (descending
    position).  A single World is owned by one episode/thread.  Its spawn,
    departure and event bookkeeping (`_process_spawns`, `_record_departure`
    and `_record_events`) also keeps each segment of a lockstep batch.
    """

    def __init__(self, geometry: RoadGeometry, run: RunConfig,
                 schedule: list[SpawnEvent], seed: int):
        geometry.validate()
        run.validate()
        self.geometry = geometry
        self.run = run
        self.time = 0.0
        self.step_index = 0
        self.events: list[TimedEvent] = []
        self.rng = random.Random(f"{seed}/sim")
        self._seed = seed

        self.lane_ids = list(range(geometry.lane_count))
        if geometry.ramp_kind == "on_ramp":
            self.lane_ids.append(RAMP_LANE)
        self.lanes: dict[int, list[Vehicle]] = {lid: [] for lid in self.lane_ids}

        self._schedule = sorted(schedule, key=lambda e: (e.time, e.lane))
        self._next_spawn = 0
        self._pending: list[tuple[int, SpawnEvent]] = []  # (event index, event)
        self._next_id = 0

        self.spawned = 0
        self.despawned = 0
        self._active_nc: set[tuple[int, int]] = set()
        # every through-traversal completion: (finish_time, travel_time)
        self.all_completed: list[tuple[float, float]] = []
        self.default_gap_cmd = 10.0  # applied to equipped vehicles at spawn
        self.default_danger_ttc = 4.0
        # With actuation off (the no-ACC baseline) equipped vehicles drive
        # the human model, so paired runs share traffic realizations.
        self.acc_enabled = True
        self.trajectory_sink = None  # optional callable(world), pre-despawn

        if geometry.ramp_kind != "none":
            self.junction = geometry.ramp_junction_position
        else:
            self.junction = None
        if geometry.ramp_kind == "on_ramp":
            self.ramp_start = self.junction - (geometry.ramp_length
                                               - geometry.accel_lane_length)
            self.ramp_end = self.junction + geometry.accel_lane_length
        else:
            self.ramp_start = self.ramp_end = None
        # Each lane's nearest boundary: vehicles leave at the mainline end,
        # at the junction from lane 0 (exiters) and at the ramp's end.
        end = geometry.mainline_length
        self._despawn_bounds: list[tuple[int, float]] = []
        for lid in self.lane_ids:
            boundary = end
            if lid == RAMP_LANE and self.ramp_end is not None:
                boundary = min(end, self.ramp_end)
            elif lid == 0 and self.junction is not None:
                boundary = min(end, self.junction)
            self._despawn_bounds.append((lid, boundary))

        self._lc_period_steps = max(1, round(LANE_CHANGE_PERIOD
                                             / run.physics_timestep))

    # ---- helpers -------------------------------------------------------

    def vehicles(self):
        for lid in self.lane_ids:
            yield from self.lanes[lid]

    def vehicle_count(self) -> int:
        return sum(len(self.lanes[lid]) for lid in self.lane_ids)

    def _log(self, kind: str, subject: int, obj: Optional[int] = None) -> None:
        self.events.append(TimedEvent(self.time, kind, subject, obj))

    def _vehicle_rng(self, event_index: int) -> random.Random:
        # Keyed by schedule position so paired runs under different
        # controllers draw identical vehicle attributes.
        return random.Random(f"{self._seed}/veh/{event_index}")

    def _make_vehicle(self, event_index: int, event: SpawnEvent,
                      x: float, v: float) -> Vehicle:
        vrng = self._vehicle_rng(event_index)
        length = vrng.uniform(4.0, 5.0)
        # sigma is always drawn so the per-vehicle attribute stream is
        # identical across paired runs regardless of actuation
        sigma = vrng.uniform(0.2, 0.5)
        if event.is_acc_equipped and self.acc_enabled:
            sigma = 0.0
        tau = vrng.uniform(0.8, 1.2)
        veh = Vehicle(self._next_id, x, v, length, event.lane, sigma, tau,
                      self.run.accel_bound, event.is_acc_equipped,
                      event.route, self.time)
        veh.gap_cmd = self.default_gap_cmd
        veh.danger_ttc = self.default_danger_ttc
        self._next_id += 1
        return veh

    # ---- spawning ------------------------------------------------------

    def _try_spawn(self, event_index: int,
                   event: SpawnEvent) -> Optional[Vehicle]:
        """The vehicle `event` puts at the rear of its lane, or None when
        the lane's entrance is blocked."""
        if event.lane == RAMP_LANE:
            x0, cap = self.ramp_start, RAMP_ENTRY_SPEED
        else:
            x0, cap = 0.0, FREE_FLOW_SPEED
        lane = self.lanes[event.lane]
        if lane:
            rear = lane[-1]
            gap = rear.x - rear.length - x0
            if gap < 6.0:
                return None
            v_entry = min(cap, krauss_safe_speed(cap, rear.v, gap, 1.0,
                                                 self.run.accel_bound))
            if v_entry < 3.0:
                return None
        else:
            v_entry = cap
        veh = self._make_vehicle(event_index, event, x0, v_entry)
        lane.append(veh)  # rear of the lane
        self.spawned += 1
        self._log(EVENT_SPAWN, veh.id)
        return veh

    def _spawn_due(self) -> bool:
        """Whether a spawn event is queued or due now."""
        return bool(self._pending) or (
            self._next_spawn < len(self._schedule)
            and self._schedule[self._next_spawn].time <= self.time)

    def _process_spawns(self) -> list[Vehicle]:
        """Try the queued events, then the due ones, in order; an event
        whose lane is blocked, or whose lane blocked an earlier event this
        step, joins the queue.  Returns the vehicles that entered."""
        entered: list[Vehicle] = []
        if not self._spawn_due():
            return entered
        events, self._pending = self._pending, []
        schedule, idx = self._schedule, self._next_spawn
        while idx < len(schedule) and schedule[idx].time <= self.time:
            events.append((idx, schedule[idx]))
            idx += 1
        self._next_spawn = idx
        blocked_lanes: set[int] = set()
        for idx, ev in events:
            veh = (None if ev.lane in blocked_lanes
                   else self._try_spawn(idx, ev))
            if veh is None:
                blocked_lanes.add(ev.lane)
                self._pending.append((idx, ev))
            else:
                entered.append(veh)
        return entered

    # ---- lane changes --------------------------------------------------

    def _neighbors(self, lane: list[Vehicle], x: float):
        """(leader, follower) in `lane` around position x (lane sorted desc)."""
        lo, hi = 0, len(lane)
        while lo < hi:
            mid = (lo + hi) // 2
            if lane[mid].x > x:
                lo = mid + 1
            else:
                hi = mid
        leader = lane[lo - 1] if lo > 0 else None
        follower = lane[lo] if lo < len(lane) else None
        return leader, follower, lo

    def _gap_acceptable(self, veh: Vehicle, target: int, urgency: float) -> bool:
        """Accept a change when both new gaps absorb the closing speed.

        Each required gap covers the full stopping distance of the closing
        speed at the shared decel capability, plus a headway margin that
        urgency relaxes (mandatory changes accept tighter fits).
        """
        leader, follower, _ = self._neighbors(self.lanes[target], veh.x)
        relax = 1.0 - 0.7 * min(urgency, 1.0)
        bound = veh.accel_bound
        base = self.run.min_gap_for_near_collision  # never cut in inside the band
        if leader is not None:
            lead_gap = leader.x - leader.length - veh.x
            closing = veh.v - leader.v
            need = base + relax * 0.3 * veh.v
            if closing > 0.0:
                # stopping distance plus a second of reserve for leader decel
                need += closing + closing * closing / (2.0 * bound)
            if lead_gap < need:
                return False
        if follower is not None:
            lag_gap = veh.x - veh.length - follower.x
            closing = follower.v - veh.v
            need = base + relax * 0.3 * follower.v
            if closing > 0.0:
                need += closing + closing * closing / (2.0 * bound)
            if lag_gap < need:
                return False
        return True

    def lane_change_decision(self, veh: Vehicle,
                             leader: Optional[Vehicle]) -> Optional[int]:
        """Target lane for `veh` this tick, or None to stay.

        `leader` is the vehicle directly ahead of `veh` in its own lane (None
        for the lane's front vehicle); only the discretionary branch reads it.
        """
        geometry = self.geometry
        if veh.lane == RAMP_LANE:
            if veh.route != ROUTE_MERGE or veh.x < self.junction:
                return None
            span = self.ramp_end - self.junction
            urgency = min(1.0, (veh.x - self.junction) / max(span, 1.0) + 0.2)
            if self._gap_acceptable(veh, 0, urgency):
                return 0
            return None
        if veh.route == ROUTE_EXIT and veh.lane > 0 and self.junction is not None:
            dist = self.junction - veh.x
            if dist < EXIT_PREP_DISTANCE:
                urgency = min(1.0, max(0.0, 1.0 - dist / EXIT_PREP_DISTANCE) + 0.2)
                if self._gap_acceptable(veh, veh.lane - 1, urgency):
                    return veh.lane - 1
            return None
        # Discretionary: move if clearly impeded and a neighbor lane is freer.
        if leader is None:
            return None
        gap = leader.x - leader.length - veh.x
        v_here = min(FREE_FLOW_SPEED,
                     krauss_safe_speed(veh.v, leader.v, gap, veh.tau,
                                       veh.accel_bound))
        if v_here > veh.v - 1.0:
            return None
        best, best_gain = None, 2.0
        for target in (veh.lane - 1, veh.lane + 1):
            if target < 0 or target >= geometry.lane_count:
                continue
            if veh.route == ROUTE_EXIT and target > veh.lane:
                continue
            t_leader, _, _ = self._neighbors(self.lanes[target], veh.x)
            if t_leader is None:
                v_there = FREE_FLOW_SPEED
            else:
                t_gap = t_leader.x - t_leader.length - veh.x
                v_there = min(FREE_FLOW_SPEED,
                              krauss_safe_speed(veh.v, t_leader.v, t_gap,
                                                veh.tau, veh.accel_bound))
            gain = v_there - v_here
            if gain > best_gain and self._gap_acceptable(veh, target, 0.0):
                best, best_gain = target, gain
        return best

    def _apply_lane_changes(self, first: int = 0, k: int = 0,
                            leader: Optional[Vehicle] = None) -> None:
        """Walk every lane in `lane_ids` order, front-first, and execute
        each vehicle's lane-change decision.

        A walk may resume at the `k`-th vehicle of lane ``lane_ids[first]``
        with `leader` ahead of it, when every vehicle before it stays.
        """
        decide = self.lane_change_decision
        for lid in self.lane_ids[first:]:
            lane = self.lanes[lid]
            # Iterate over a snapshot: executing a change mutates the lists.
            # While a lane is walked only the walked vehicle can leave it,
            # so the last snapshot vehicle that stayed is the next leader.
            for veh in lane[k:]:
                target = decide(veh, leader)
                if target is None:
                    leader = veh
                    continue
                lane.remove(veh)
                dest = self.lanes[target]
                _, _, pos = self._neighbors(dest, veh.x)
                dest.insert(pos, veh)
                veh.lane = target
                self._log(EVENT_LANE_CHANGE, veh.id)
            k, leader = 0, None

    # ---- longitudinal dynamics ----------------------------------------

    def _longitudinal(self, dt: float) -> None:
        """Accelerate and move every vehicle, one pass per lane.

        Each vehicle's command reads its leader's pre-step speed and rear
        bumper, kept in locals, so integrating in the same pass is the same
        float sequence as computing every command first.
        """
        rng_random = self.rng.random
        acc_enabled = self.acc_enabled
        for lid in self.lane_ids:
            lane = self.lanes[lid]
            wall = self.ramp_end if lid == RAMP_LANE else None
            leader_v = 0.0
            leader_rear: Optional[float] = None  # None: no leader
            x_ahead = math.inf
            ordered = True
            for veh in lane:
                v = veh.v
                x = veh.x
                bound = veh.accel_bound
                if veh.equipped and acc_enabled:
                    a = acc_target_gap_control(veh, leader_v, leader_rear,
                                               veh.gap_cmd, dt)
                    v_new = v + a * dt
                else:
                    if leader_rear is not None:
                        v_safe = krauss_safe_speed(v, leader_v, leader_rear - x,
                                                   veh.tau, bound)
                    else:
                        v_safe = FREE_FLOW_SPEED
                    v_new = v + bound * dt
                    if v_new > FREE_FLOW_SPEED:
                        v_new = FREE_FLOW_SPEED
                    if v_new > v_safe:
                        v_new = v_safe
                    if veh.sigma > 0.0:
                        v_new -= veh.sigma * bound * dt * rng_random()
                if wall is not None:
                    # brake for the lane end only once inside true stopping
                    # distance, so mergers can match mainline speed first;
                    # overruns despawn (teleport analog)
                    wall_gap = wall - x - 2.0
                    if wall_gap < v * v / (2.0 * bound) + 15.0:
                        v_wall = krauss_safe_speed(v, 0.0, wall_gap, 0.5,
                                                   bound)
                        if v_new > v_wall:
                            v_new = v_wall
                floor = v - bound * dt
                if v_new < floor:
                    v_new = floor
                if v_new < 0.0:
                    v_new = 0.0
                leader_v = v
                leader_rear = x - veh.length
                a = (v_new - v) / dt
                veh.a = a
                v += a * dt
                x += v * dt
                veh.v = v
                veh.x = x
                if x > x_ahead:
                    ordered = False
                x_ahead = x
            if not ordered:  # a stable sort of an ordered lane is a no-op
                lane.sort(key=lambda w: -w.x)

    # ---- events and despawns ------------------------------------------

    def _record_departure(self, veh: Vehicle, out: bool) -> None:
        """Count and log `veh` leaving; `out` says it left at the mainline's
        end, where a through vehicle completes its traversal."""
        self.despawned += 1
        self._log(EVENT_DESPAWN, veh.id)
        if out and veh.route == ROUTE_THROUGH:
            self.all_completed.append((self.time, self.time - veh.spawn_time))

    def _record_events(self, hits) -> bool:
        """Log one step's (follower, leader, collided) hits, given in walk
        order: each collision, and each near-collision pair that was not
        active the step before.  The near-collision pairs become the active
        set, and every crashed vehicle is removed.  Returns whether any
        vehicle crashed."""
        active_nc = self._active_nc
        if not hits and not active_nc:
            return False
        log = self._log
        current_nc: set[tuple[int, int]] = set()
        crashed: list[Vehicle] = []
        for follower, leader, collided in hits:
            if collided:
                log(EVENT_ACTUAL_COLLISION, follower.id, leader.id)
                crashed.append(leader)
                crashed.append(follower)
            else:
                pair = (follower.id, leader.id)
                current_nc.add(pair)
                if pair not in active_nc:
                    log(EVENT_NEAR_COLLISION, follower.id, leader.id)
        self._active_nc = current_nc
        for veh in crashed:
            lane = self.lanes[veh.lane]
            if veh in lane:
                lane.remove(veh)
                self._record_departure(veh, False)
        return bool(crashed)

    def _detect_events(self) -> None:
        min_gap = self.run.min_gap_for_near_collision
        hits = []
        for lid in self.lane_ids:
            walk = iter(self.lanes[lid])
            leader = next(walk, None)
            for follower in walk:
                gap = leader.x - leader.length - follower.x
                if gap < 0.0:
                    hits.append((follower, leader, True))
                elif gap < min_gap and follower.v > leader.v:
                    hits.append((follower, leader, False))
                leader = follower
        self._record_events(hits)

    def _despawn(self) -> None:
        end = self.geometry.mainline_length
        junction = self.junction
        ramp_end = self.ramp_end
        for lid, boundary in self._despawn_bounds:
            lane = self.lanes[lid]
            # Lanes are front-first, so every vehicle that leaves sits in the
            # front run at or past the lane's nearest boundary.
            if not lane or lane[0].x < boundary:
                continue
            keep = []
            run = 0
            for veh in lane:
                x = veh.x
                if x < boundary:
                    break
                run += 1
                out = x >= end
                exited = (veh.route == ROUTE_EXIT and lid == 0
                          and junction is not None and x >= junction)
                stranded = (lid == RAMP_LANE and ramp_end is not None
                            and x >= ramp_end)
                if out or exited or stranded:
                    self._record_departure(veh, out)
                else:
                    keep.append(veh)
            if len(keep) != run:
                lane[:run] = keep

    # ---- main entry ----------------------------------------------------

    def step(self) -> None:
        """Advance the world by one physics step.

        Time is incremented first so events, trajectory rows, and post-step
        observations all carry the same timestamp.
        """
        dt = self.run.physics_timestep
        self.time += dt
        self.step_index += 1
        self._process_spawns()
        if self.step_index % self._lc_period_steps == 1 or self._lc_period_steps == 1:
            self._apply_lane_changes()
        self._longitudinal(dt)
        self._detect_events()
        if self.trajectory_sink is not None:
            self.trajectory_sink(self)
        self._despawn()
