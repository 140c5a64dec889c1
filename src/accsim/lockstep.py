"""Lockstep evaluation: one physics step advances a whole batch of episodes.

Every episode of a batch keeps its own scalar `World`, its segment.  The
segment owns the episode's bookkeeping, through the same `World` methods
its scalar steps call: it spawns its due and queued vehicles
(`World._process_spawns`), records each departure
(`World._record_departure`) and records each step's collisions and
near-collision onsets, removing the crashed vehicles
(`World._record_events`).  It holds the spawn schedule and queue, event
log, completions, counters and `Vehicle` objects.

A `LockstepWorld` steps all segments together through `World.step`, and
its flat per-vehicle arrays own the kernels: car following and gap
control, the search for collisions and near-collision pairs, the leaving
tests and a lane-change prefilter.  The prefilter runs the tests of
`World.lane_change_decision`, with a margin, over every row and keeps the
few vehicles whose decision could return a lane, so it is no second
lane-change model.  Only those vehicles meet the scalar decision, in walk
order; a segment's first change makes the filter stale there, and that
segment's own `World._apply_lane_changes` resumes its walk.  A `Vehicle`
object is brought up to date only where scalar code reads it (see
`LockstepWorld`).  `run_lockstep` scans each control interval's steps for
the episodes' danger flags and metric sums in one pass, then calls each
`Episode`'s `score` and `decide`, so every episode of a batch equals its
scalar `run_episode` bit for bit.

The arrays keep the scalar arithmetic.  Their rows are each segment's walk
order: by segment, then by lane in ``lane_ids`` order, then front-first,
so a row's leader is the row before it.  Each float expression keeps the
scalar association (``a * b * c`` is ``(a * b) * c``).  Each branch is a
mask of the same comparison; a cap such as ``if v > cap: v = cap`` is
``np.minimum(cap, v)``, which gives ``v`` where the two are equal.  Each
row that draws noise calls its segment's own ``rng.random`` in row order,
which is the segment's walk order: the generator and the calls of the
scalar `World._longitudinal`.  Every sum the scalar code accumulates
vehicle by vehicle is accumulated in the same order with
``np.add.accumulate``, never with numpy's pairwise sums.

A step over a few hundred vehicles costs little more than one over twenty,
so only batches pay: a batch of one runs slower than the scalar `World`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agents import Episode
from .scenario import ROUTE_EXIT
from .simcore import (
    ACC_COMFORT_DECEL,
    ACC_KD,
    ACC_KP,
    ACC_MIN_STANDOFF,
    ACC_STANDOFF_PER_TTC,
    CRUISE_GAIN,
    EXIT_PREP_DISTANCE,
    FREE_FLOW_SPEED,
    World,
)


def _krauss(v_follower, v_leader, gap, reaction_time, max_decel):
    """`simcore.krauss_safe_speed` over arrays, in the same association:
    ``v_leader + (gap - v_leader * reaction_time) / ((v_follower + v_leader)
    / (2.0 * max_decel) + reaction_time)``, or 0.0 unless positive."""
    den = v_follower + v_leader
    den /= 2.0 * max_decel
    den += reaction_time
    v_safe = gap - v_leader * reaction_time
    v_safe /= den
    v_safe += v_leader
    return np.maximum(v_safe, 0.0, out=v_safe)


def _leaders(col: np.ndarray) -> np.ndarray:
    """Each row's predecessor value: its leader's, where it has one."""
    out = np.empty_like(col)
    out[1:] = col[:-1]
    out[0] = 0.0  # row 0 starts a lane
    return out


# A lane-change test this close to its threshold makes a candidate, so
# the filter may keep a vehicle that stays, never drop one that moves.
MARGIN = 1e-6


def _need(v_behind, v_ahead, relax, base, bound):
    """`World._gap_acceptable`'s required gap between a vehicle at
    `v_behind` and the one ahead of it at `v_ahead`, less `MARGIN`;
    `relax` is ``relax * 0.3`` (see `_relax`)."""
    need = relax * v_behind
    need += base
    closing = v_behind - v_ahead
    np.maximum(closing, 0.0, out=closing)  # adds 0.0 unless closing
    extra = closing * closing
    extra /= 2.0 * bound
    extra += closing
    need += extra
    need -= MARGIN
    return need


def _relax(urgency):
    """``relax * 0.3`` of `World._gap_acceptable` at `urgency`."""
    relax = np.minimum(1.0, urgency)
    relax *= -0.7
    relax += 1.0
    relax *= 0.3
    return relax


class _Rows:
    """Each row's group, ``segment * n_lanes + lane index``, and where each
    group's rows start, in one order: a row's segment is ``group //
    n_lanes``, and segment ``s``'s rows start at ``group_start[s * n_lanes]``.

    Pair ``j`` is row ``j`` followed by row ``j + 1``; `lane_starts` lists
    the pairs whose second row starts a lane, so it has no leader.  `ramp`
    lists the ramp lane's rows, or is None without an on-ramp.
    """

    __slots__ = ("group", "group_start", "first", "lane_starts", "ramp")

    def __init__(self, lane_len: np.ndarray, n_lanes: int, has_ramp: bool):
        self.group = np.arange(len(lane_len)).repeat(lane_len)
        group_start = np.zeros(len(lane_len) + 1, dtype=np.intp)
        np.cumsum(lane_len, out=group_start[1:])
        self.group_start = group_start
        self.first = group_start[lane_len.nonzero()[0]]  # no leader
        self.lane_starts = self.first[1:] - 1
        # the ramp is the last of `lane_ids`
        self.ramp = ((self.group % n_lanes == n_lanes - 1).nonzero()[0]
                     if has_ramp else None)


# Rows of `LockstepWorld._f`, per-slot floats: the state, then the vehicle's
# constants.
X, V, A, LENGTH, TAU, NOISE = range(6)
# Rows of `LockstepWorld._b`, per-slot flags.
ACC, DRAWS, LATCH, EXIT = range(4)


class LockstepWorld(World):
    """The segments of a batch, stepped together through `World.step`.

    Each segment's `World` keeps its own bookkeeping: its spawns,
    departures and events go through its own `World` methods, so it is
    what its scalar step would leave, its generator's state included, in
    everything but its vehicles' ``x``, ``v``, ``a`` and ``danger_latch``,
    which the arrays hold.  The batch holds no vehicle in its own `lanes`:
    `vehicle_count` counts every segment's, and the segments' lane lists
    hold the `Vehicle` objects in the order of the rows.

    Objects: `sync_vehicles` alone writes their ``x``, ``v`` and ``a``, for
    every row at once: before a pass's first lane-change decision, and
    before the episodes score and decide.  A spawn reads its lane's rear
    vehicle, whose ``x`` and ``v`` it writes first.  Rows: their layout,
    each row's segment and lane included, is a `_Rows`.  The lane lists
    that a lane change, a crash or a re-sort changed reach the rows
    through `_rebuild_order`; spawns splice rows in and despawns mask them
    out, as rebuilding the order measured slower there.

    Each segment's commanded gap and danger threshold are its
    ``default_gap_cmd`` and ``default_danger_ttc``, taken by
    `read_commands`: every actuated vehicle carries those values.
    """

    def __init__(self, segments: list[World]):
        first = segments[0]
        for seg in segments:
            if seg.geometry != first.geometry or seg.run != first.run:
                raise ValueError("a lockstep batch needs one geometry and "
                                 "one run configuration")
            if seg.step_index or seg.vehicle_count():
                raise ValueError("a lockstep batch starts from new worlds")
        super().__init__(first.geometry, first.run, [], 0)
        self.segments = segments
        n_seg, n_lanes = len(segments), len(self.lane_ids)
        self._n_lanes = n_lanes
        # Segment s's vehicle with id k lives in slot base[s] + k.
        sizes = [len(seg._schedule) for seg in segments]
        self._base = np.cumsum([0] + sizes[:-1]).tolist()
        self._slot_base = np.array(self._base, dtype=np.intp)
        self._f = np.zeros((NOISE + 1, sum(sizes)))
        self._b = np.zeros((EXIT + 1, sum(sizes)), dtype=bool)
        self._objs = np.empty(sum(sizes), dtype=object)
        self._order = np.zeros(0, dtype=np.intp)  # slot of each row
        self._lane_len = np.zeros(n_seg * n_lanes, dtype=np.intp)
        self._rows: Optional[_Rows] = None  # built on demand
        self._cols = None  # (x, v, a, length) by row, gathered on demand
        self._draw = [seg.rng.random for seg in segments]
        self._gap_cmd = np.zeros(n_seg)
        self._danger_ttc = np.zeros(n_seg)
        self._aim = np.zeros(n_seg)  # standoff the danger reaction aims at
        self._exiters = False  # whether an exit-route vehicle ever spawned
        self.read_commands()
        # wider than the span of positions when lanes change: vehicles
        # enter at 0 or at the ramp's start, past -ramp_length, and every
        # one at the mainline's end has left
        self._key_width = (first.geometry.mainline_length
                           + first.geometry.ramp_length + 1.0)

    # ---- bookkeeping ---------------------------------------------------

    def vehicle_count(self) -> int:
        return len(self._order)

    def read_commands(self) -> None:
        """Take each segment's commanded gap and danger threshold."""
        for s, seg in enumerate(self.segments):
            self._gap_cmd[s] = seg.default_gap_cmd
            self._danger_ttc[s] = seg.default_danger_ttc
            self._aim[s] = (ACC_MIN_STANDOFF
                            + ACC_STANDOFF_PER_TTC * seg.default_danger_ttc)

    def sync_vehicles(self) -> None:
        """Copy every row's ``x``, ``v`` and ``a`` into its `Vehicle`."""
        x, v, a, _ = self._columns()
        for veh, x, v, a in zip(self._objs[self._order].tolist(),
                                x.tolist(), v.tolist(), a.tolist()):
            veh.x = x
            veh.v = v
            veh.a = a

    def record(self) -> tuple:
        """(time, order, lane lengths, (x, v, a, length) by row) now."""
        return self.time, self._order, self._lane_len, self._columns()

    def _structure(self) -> _Rows:
        if self._rows is None:
            self._rows = _Rows(self._lane_len, self._n_lanes,
                               self.ramp_end is not None)
        return self._rows

    def _columns(self) -> tuple:
        if self._cols is None:
            self._cols = tuple(self._f[:TAU].take(self._order, axis=1))
        return self._cols

    def _set_order(self, order: np.ndarray, lane_len: np.ndarray) -> None:
        self._order = order
        self._lane_len = lane_len
        self._rows = self._cols = None

    def _rebuild_order(self, changed) -> None:
        """Rows from the lane lists of the segments in `changed`, after
        those lists changed; the other segments keep theirs."""
        n_lanes = self._n_lanes
        bounds = self._structure().group_start[::n_lanes].tolist()
        parts, lane_len = [], self._lane_len.copy()
        for s, (base, seg) in enumerate(zip(self._base, self.segments)):
            if s not in changed:
                parts.append(self._order[bounds[s]:bounds[s + 1]])
                continue
            slots = []
            for li, lid in enumerate(self.lane_ids):
                lane = seg.lanes[lid]
                lane_len[s * n_lanes + li] = len(lane)
                slots += [base + veh.id for veh in lane]
            parts.append(np.array(slots, dtype=np.intp))
        self._set_order(np.concatenate(parts), lane_len)

    # ---- spawning ------------------------------------------------------

    def _process_spawns(self) -> None:
        """Each segment's `World._process_spawns`; the vehicles that enter
        become rows at the rear of their lanes."""
        time, step_index = self.time, self.step_index
        lane_ids, n_lanes = self.lane_ids, self._n_lanes
        f, b = self._f, self._b
        bound, dt = self.run.accel_bound, self.run.physics_timestep
        new = []  # (group, slot)
        for s, seg in enumerate(self.segments):
            seg.time, seg.step_index = time, step_index
            if not seg._spawn_due():
                continue
            base = self._base[s]
            for lid in lane_ids:  # a spawn reads its lane's rear vehicle
                lane = seg.lanes[lid]
                if lane:
                    rear = lane[-1]
                    rear.x = f.item(X, base + rear.id)
                    rear.v = f.item(V, base + rear.id)
            for veh in seg._process_spawns():
                slot = base + veh.id
                acc = veh.equipped and seg.acc_enabled
                exits = veh.route == ROUTE_EXIT
                f[:, slot] = (veh.x, veh.v, veh.a, veh.length, veh.tau,
                              veh.sigma * bound * dt)  # rows X to NOISE
                b[:, slot] = (acc, not acc and veh.sigma > 0.0,
                              veh.danger_latch, exits)  # rows ACC to EXIT
                self._objs[slot] = veh
                self._exiters = self._exiters or exits
                new.append((s * n_lanes + lane_ids.index(veh.lane), slot))
        if new:  # each at the end of its lane's rows, in row order
            new.sort()
            order, lane_len = self._order, self._lane_len.copy()
            ends = np.cumsum(lane_len).tolist()
            pieces, start = [], 0
            for group, slot in new:
                pieces += (order[start:ends[group]], (slot,))
                start = ends[group]
                lane_len[group] += 1
            pieces.append(order[start:])
            self._set_order(np.concatenate(pieces), lane_len)

    # ---- lane changes --------------------------------------------------

    def _lane_change_candidates(self) -> np.ndarray:
        """The rows whose `World.lane_change_decision` could return a lane
        were their segment's pass to reach them before any change there.

        These are the decision's own tests on the rows: an impeded vehicle
        with a neighbouring lane that gains over 2 m/s and takes it, a ramp
        vehicle past the junction whose gap into lane 0 is acceptable, and
        an exiter within `EXIT_PREP_DISTANCE` whose gap one lane to the
        right is.  One `np.searchsorted` finds every target lane's leader
        and follower.  The rows are a superset: a comparison within
        `MARGIN` of its threshold, or a position within `MARGIN` of one in
        the target lane, makes a candidate.
        """
        x, v, _, length = self._columns()
        order = self._order
        rows = self._structure()
        n_lanes, n_main = self._n_lanes, self.geometry.lane_count
        bound = self.run.accel_bound
        group = rows.group
        tau = self._f[TAU].take(order)
        # discretionary: pair j's follower, row j + 1, is impeded; the
        # decision's cap at FREE_FLOW_SPEED decides no test here, since an
        # impeded vehicle's safe speed lies below its own
        gap = x[:-1] - length[:-1]
        gap -= x[1:]
        v_here = _krauss(v[1:], v[:-1], gap, tau[1:], bound)
        impeded = v_here <= v[1:] - (1.0 - MARGIN)
        impeded[rows.lane_starts] = False
        disc = impeded.nonzero()[0] + 1
        d_group = group[disc]
        d_lane = d_group % n_lanes  # index into lane_ids
        left, right = d_lane > 0, d_lane < n_main - 1
        if n_main < n_lanes:  # the ramp's vehicles only merge
            left &= d_lane < n_main
        if self._exiters:  # exiters only move towards the exit
            through = ~self._b[EXIT].take(order[disc])
            left &= through
            right &= through
        query = [disc[left], disc[right]]
        target = [d_group[left] - 1, d_group[right] + 1]
        n_disc = len(query[0]) + len(query[1])
        urgency = [np.zeros(n_disc)]
        if rows.ramp is not None:  # merges into lane 0
            ramp = rows.ramp[x[rows.ramp] >= self.junction]
            merge = x[ramp] - self.junction
            merge /= max(self.ramp_end - self.junction, 1.0)
            merge += 0.2
            query.append(ramp)
            target.append(group[ramp] - (n_lanes - 1))
            urgency.append(merge)
        if self._exiters:  # exiters move one lane towards the exit
            near = self._b[EXIT].take(order)
            near &= x > self.junction - (EXIT_PREP_DISTANCE + MARGIN)
            near &= group % n_lanes > 0
            near = near.nonzero()[0]
            leave = self.junction - x[near]  # 1 - dist / EXIT_PREP_DISTANCE
            leave /= -EXIT_PREP_DISTANCE
            leave += 1.0
            np.maximum(0.0, leave, out=leave)
            leave += 0.2
            query.append(near)
            target.append(group[near] - 1)
            urgency.append(leave)
        query = np.concatenate(query)
        if not len(query):
            return query
        target = np.concatenate(target)
        relax = _relax(np.concatenate(urgency))
        # rows ascend in group * width - x; a target lane's leader is the
        # last row before the query's key there
        width = self._key_width
        key = group * width
        key -= x
        qx, qv = x[query], v[query]
        qkey = target * width
        qkey -= qx
        at = key.searchsorted(qkey - MARGIN)
        tie = at != key.searchsorted(qkey + MARGIN, side="right")
        no_leader = at <= rows.group_start[target]
        no_follower = at >= rows.group_start[target + 1]
        leader = at - 1
        follower = np.minimum(at, len(order) - 1)
        # `World._gap_acceptable`: the gap to the leader, then the one to
        # the follower, each need lowered by MARGIN
        lead_gap = x[leader] - length[leader]
        lead_gap -= qx
        leader_v = v[leader]
        lag_gap = qx - length[query]
        lag_gap -= x[follower]
        need = _need(np.concatenate((qv, v[follower])),
                     np.concatenate((leader_v, qv)),
                     np.concatenate((relax, relax)),
                     self.run.min_gap_for_near_collision, bound)
        ok = np.concatenate((lead_gap, lag_gap)) >= need
        ok |= np.concatenate((no_leader, no_follower))
        accept = ok[:len(query)] & ok[len(query):]
        # and a discretionary change the gain
        v_there = _krauss(qv, leader_v, lead_gap, tau[query], bound)
        np.minimum(FREE_FLOW_SPEED, v_there, out=v_there)
        v_there[no_leader] = FREE_FLOW_SPEED
        gain = v_there[:n_disc]
        gain -= v_here[query[:n_disc] - 1]
        accept[:n_disc] &= gain > 2.0 - MARGIN
        accept |= tie
        candidate = np.zeros(len(order), dtype=bool)
        candidate[query[accept]] = True
        return candidate.nonzero()[0]

    def _apply_lane_changes(self) -> None:
        """`World._apply_lane_changes` of every segment.

        The scalar decision runs for the filter's candidates in walk
        order; every other vehicle would stay.  A segment's first change
        makes the filter stale there, so its own `World._apply_lane_changes`
        resumes the walk at that vehicle.  `sync_vehicles` brings every
        object up to date before the first decision.
        """
        candidates = self._lane_change_candidates()
        if not len(candidates):
            return
        self.sync_vehicles()
        order, objs, n_lanes = self._order, self._objs, self._n_lanes
        rows = self._structure()
        groups = rows.group[candidates]
        start = rows.group_start.tolist()
        changed = []
        for r, g in zip(candidates.tolist(), groups.tolist()):
            s, li = divmod(g, n_lanes)
            if changed and changed[-1] == s:
                continue  # its walk is done
            world = self.segments[s]
            leader = objs[order[r - 1]] if r > start[g] else None
            if world.lane_change_decision(objs[order[r]], leader) is not None:
                world._apply_lane_changes(li, r - start[g], leader)
                changed.append(s)
        if changed:
            self._rebuild_order(changed)

    # ---- longitudinal dynamics ----------------------------------------

    def _longitudinal(self, dt: float) -> None:
        """`World._longitudinal` for every row at once.

        A row's leader is the row before it, unless the row is its lane's
        first; the command reads the leader's pre-step speed and rear
        bumper.
        """
        order = self._order
        n = len(order)
        if not n:
            return
        rows = self._structure()
        first = rows.first
        x, v, _, length = self._columns()
        tau, noise = self._f[TAU:].take(order, axis=1)
        seg = rows.group // self._n_lanes
        gap_cmd, aim = self._gap_cmd[seg], self._aim[seg]
        danger_ttc = self._danger_ttc[seg]
        acc, draws, latch = self._b[:EXIT].take(order, axis=1)
        bound = self.run.accel_bound
        leader_v = _leaders(v)
        gap = _leaders(x - length)
        gap -= x  # to the leader's rear bumper
        with np.errstate(divide="ignore", invalid="ignore"):
            # stochastic Krauss model (unactuated vehicles)
            v_safe = _krauss(v, leader_v, gap, tau, bound)
            v_safe[first] = FREE_FLOW_SPEED
            v_new = v + bound * dt
            np.minimum(FREE_FLOW_SPEED, v_new, out=v_new)
            np.minimum(v_safe, v_new, out=v_new)
            drawing = draws.nonzero()[0]
            if len(drawing):  # each segment's generator, in its walk order
                draw = self._draw
                u = np.zeros(n)
                u[drawing] = [draw[s]() for s in seg[drawing].tolist()]
                u *= noise
                v_new -= u

            # gap control (actuated vehicles): a PD law, the danger
            # reaction, and free-flow cruise without a leader
            closing = v - leader_v
            slack = gap - aim
            need = closing * closing
            need /= 2.0 * slack
            np.putmask(need, slack <= 0.0, bound)
            trigger = gap < closing * danger_ttc
            trigger |= need >= bound
            trigger |= latch
            latch = closing > 0.0
            latch &= trigger
            latch[first] = False
            a = gap - gap_cmd
            a *= ACC_KP
            a -= ACC_KD * closing  # + ACC_KD * (leader_v - v), exactly
            np.maximum(-ACC_COMFORT_DECEL, a, out=a)
            react = (latch & acc).nonzero()[0]
            if len(react):
                # keep enough margin to stop behind a leader braking hard
                r_v, r_lv = v[react], leader_v[react]
                stop_room = slack[react] + r_lv * r_lv / (2.0 * bound)
                r_need = np.where(
                    stop_room > 0.0,
                    np.maximum(r_v * r_v / (2.0 * stop_room), need[react]),
                    bound)
                a[react] = np.minimum(-np.minimum(bound, r_need), a[react])
            a[first] = CRUISE_GAIN * (FREE_FLOW_SPEED - v[first])
            ahead = a * dt
            ahead += v
            cap = FREE_FLOW_SPEED - v
            cap /= dt
            np.putmask(a, ahead > FREE_FLOW_SPEED, cap)
            np.minimum(bound, a, out=a)
            np.maximum(-bound, a, out=a)
            ahead = a * dt
            ahead += v
            cap = -v
            cap /= dt
            np.putmask(a, ahead < 0.0, cap)
            ahead = a * dt
            ahead += v
            np.putmask(v_new, acc, ahead)

            if rows.ramp is not None and len(rows.ramp):
                # brake for the ramp's end only inside stopping distance
                ramp = rows.ramp
                r_v = v[ramp]
                wall_gap = self.ramp_end - x[ramp] - 2.0
                near = wall_gap < r_v * r_v / (2.0 * bound) + 15.0
                if np.count_nonzero(near):
                    ramp = ramp[near]
                    v_wall = _krauss(r_v[near], 0.0, wall_gap[near], 0.5,
                                     bound)
                    v_new[ramp] = np.minimum(v_wall, v_new[ramp])
            np.maximum(v - bound * dt, v_new, out=v_new)
            np.maximum(0.0, v_new, out=v_new)
        a = v_new - v
        a /= dt
        v_next = a * dt
        v_next += v
        x_next = v_next * dt
        x_next += x
        f = self._f
        f[X][order] = x = x_next
        f[V][order] = v_next
        f[A][order] = a
        self._b[LATCH][order] = latch  # unread where gap control is off
        self._cols = (x, v_next, a, length)

        behind = x[1:] > x[:-1]  # row j + 1 ahead of row j
        behind[rows.lane_starts] = False
        if np.count_nonzero(behind):  # re-sort those lanes, stably
            starts, resorted = rows.group_start, set()
            for g in np.unique(rows.group[1:][behind]).tolist():
                perm = np.argsort(-x[starts[g]:starts[g + 1]], kind="stable")
                s, li = divmod(g, self._n_lanes)
                lane = self.segments[s].lanes[self.lane_ids[li]]
                lane[:] = [lane[k] for k in perm.tolist()]
                resorted.add(s)
            self._rebuild_order(resorted)

    # ---- events and despawns ------------------------------------------

    def _detect_events(self) -> None:
        """Collisions and near-collision pairs over every row at once; each
        segment's `World._record_events` records its own, in walk order."""
        order = self._order
        # segment s's hits are hits[ends[s - 1]:ends[s]]
        hits, ends = [], [0] * len(self.segments)
        if len(order) > 1:
            rows = self._structure()
            x, v, _, length = self._columns()
            gap = x[:-1] - length[:-1]  # per pair, as in simcore
            gap -= x[1:]
            gap[rows.lane_starts] = np.inf
            hit = gap < self.run.min_gap_for_near_collision
            hit &= v[1:] > v[:-1]
            hit |= gap < 0.0
            hit = hit.nonzero()[0]
            if len(hit):
                followers, leaders = order[hit + 1], order[hit]
                collided = gap[hit] < 0.0
                hits = list(zip(self._objs[followers].tolist(),
                                self._objs[leaders].tolist(),
                                collided.tolist()))
                ends = (hit + 1).searchsorted(
                    rows.group_start[self._n_lanes::self._n_lanes]).tolist()
        crashed, lo = [], 0
        for s, (seg, hi) in enumerate(zip(self.segments, ends)):
            if seg._record_events(hits[lo:hi]):
                crashed.append(s)
            lo = hi
        if crashed:
            # as the scalar world, keep no departed vehicle
            self._objs[followers[collided]] = None
            self._objs[leaders[collided]] = None
            self._rebuild_order(crashed)

    def _despawn(self) -> None:
        """Vehicles that leave, by segment, then by lane, then front-first,
        each recorded by its segment's `World._record_departure`.

        Each leaving condition lies at or past its lane's nearest boundary,
        and every lane is front-first here, so the rows that leave are all
        in the front run that the scalar pass walks.
        """
        order = self._order
        if not len(order):
            return
        x = self._columns()[0]
        end = self.geometry.mainline_length
        rows = self._structure()
        gone = x >= end
        if self._exiters:  # exiters leave lane 0, the first of `lane_ids`
            gone |= (self._b[EXIT][order] & (x >= self.junction)
                     & (rows.group % self._n_lanes == 0))
        if rows.ramp is not None:
            gone[rows.ramp[x[rows.ramp] >= self.ramp_end]] = True
        leaving = gone.nonzero()[0]
        if not len(leaving):
            return
        slots, groups = order[leaving], rows.group[leaving]
        for s, veh, vx in zip((groups // self._n_lanes).tolist(),
                              self._objs[slots].tolist(),
                              x[leaving].tolist()):
            world = self.segments[s]
            world.lanes[veh.lane].remove(veh)
            world._record_departure(veh, vx >= end)
        self._objs[slots] = None  # as the scalar world, keep no departed one
        self._set_order(order[~gone], self._lane_len - np.bincount(
            groups, minlength=len(self._lane_len)))


def _scan(world: LockstepWorld, episodes: list[Episode],
          steps: list) -> None:
    """`Episode.scan` after every physics step of one control interval,
    for every episode of the batch, in one pass over the interval's rows.

    `steps` holds each step's `LockstepWorld.record`; each episode's
    threshold is its segment's danger threshold, as `read_commands` took
    it.  Nothing reads a scan's output before the interval is scored, so
    this gives what the scalar scans would: the danger flags (a set), the
    walk-order speed and |accel| sums added to the totals in step order,
    and the last step's closing-pair TTCs.
    """
    n_seg, n_lanes = len(episodes), world._n_lanes
    past = [time >= world.run.warmup_duration for time, *_ in steps]
    order = np.concatenate([step[1] for step in steps])
    lane_len = np.concatenate([step[2] for step in steps])
    n = len(order)
    step_ttcs = [[] for _ in episodes]
    if n:
        x, v, a, length = (np.concatenate(rows)
                           for rows in zip(*[step[3] for step in steps]))
        # rows by (step, segment, lane); pair j is row j and row j + 1
        layout = _Rows(lane_len, n_lanes, False)
        group = layout.group
        line_start = layout.group_start[::n_lanes]  # per (step, segment)
        counts = np.diff(line_start).reshape(len(steps), n_seg)
        last = counts[-1].tolist()  # rows per segment at the last step
        dv = v[1:] - v[:-1]  # per pair: follower less leader
        dv[layout.lane_starts] = 0.0  # no leader
        closing = dv > 0.0
        ttc = x[:-1] - x[1:]  # as compute_ttc
        ttc -= length[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ttc /= dv
        lo = n - sum(last)
        for s, rows in enumerate(last):
            if rows:  # pairs lo - 1 .. lo + rows - 2 end in these rows
                pairs = slice(max(lo - 1, 0), lo + rows - 1)
                step_ttcs[s] = ttc[pairs][closing[pairs]].tolist()
            lo += rows
        seg = group % (n_seg * n_lanes) // n_lanes
        flagged = (closing & (ttc < world._danger_ttc[seg[1:]])).nonzero()[0]
        if len(flagged):
            seg = seg[flagged + 1]
            ids = order[flagged + 1] - world._slot_base[seg]
            for s, vid in zip(seg.tolist(), ids.tolist()):
                episodes[s].flagged.add(vid)
        if any(past):
            # per (step, segment), 0.0 + v0 + v1 + ... in walk order, along
            # one zero-padded line each
            width = int(counts.max()) + 1
            line = group // n_lanes
            at = line * width + 1
            at += np.arange(n)
            at -= line_start[line]
            lines = np.zeros((2, counts.size * width))
            lines[0, at] = v
            lines[1, at] = np.abs(a)
            lines = lines.reshape(2, -1, width)
            np.add.accumulate(lines, axis=2, out=lines)
            speed_sums, accel_sums = lines[:, :, -1].reshape(
                2, len(steps), n_seg).tolist()
            counts = counts.tolist()
            for k in range(len(steps)):
                if past[k]:
                    for s, ep in enumerate(episodes):
                        if counts[k][s]:  # an empty scan adds zeros
                            acc = ep.speed_acc
                            acc[0] += speed_sums[k][s]
                            acc[1] += accel_sums[k][s]
                            acc[2] += counts[k][s]
    for ep, ttcs in zip(episodes, step_ttcs):
        ep.step_ttcs = ttcs


def run_lockstep(episodes: list[Episode]) -> None:
    """Run new `Episode`s of one geometry and run configuration to their
    last tick together; each then gives its result through `finish()`."""
    world = LockstepWorld([ep.world for ep in episodes])
    spc = episodes[0].scenario.run.steps_per_control
    for ep in episodes:
        ep.decide()
    while not episodes[0].done:
        world.read_commands()
        steps = []
        for _ in range(spc):
            world.step()
            steps.append(world.record())
        _scan(world, episodes, steps)
        world.sync_vehicles()
        for ep in episodes:
            ep.score()
            ep.decide()
