"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded from the benchmark's side only: calls into each module
of the program are wrapped for the length of the run, nothing inside the
program changes.  A span records its name, its parent span, start and end
(ns), its self time (duration less the time covered by nested spans) and the
phase it ran in.  Spans stay in memory and are written out at the end.

A span nested in a span of the same name is folded into it, so a name is
counted once per outermost call.  Wrappers whose target no longer exists
(a refactor removed it) are skipped and their metrics reported as absent.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from instrument import Patches
from timing import percentile

SETUP, TIMED = 0, 1
RECORD_FIELDS = ("name", "id", "parent", "start", "end", "self", "phase")
LAYERS = ("simcore", "agents", "rlcore", "metrics", "scenario", "harness")

# per-call self-time metrics: metric name -> (span name, unit)
PER_CALL = {
    "simcore.step.us": ("simcore.step", "us"),
    "simcore.spawn.us": ("simcore.spawn", "us"),
    "simcore.lane_change.us": ("simcore.lane_change", "us"),
    "simcore.longitudinal.us": ("simcore.longitudinal", "us"),
    "simcore.events.us": ("simcore.events", "us"),
    "simcore.despawn.us": ("simcore.despawn", "us"),
    "agents.scan.us": ("agents.scan", "us"),
    "agents.encode.us": ("agents.encode", "us"),
    "agents.act.us": ("agents.act", "us"),
    "agents.broadcast.us": ("agents.broadcast", "us"),
    "agents.reward.us": ("agents.reward", "us"),
    "agents.store.us": ("agents.store", "us"),
    "rlcore.forward.us": ("rlcore.forward", "us"),
    "rlcore.train_step.us": ("rlcore.train_step", "us"),
    "rlcore.sample.us": ("rlcore.sample", "us"),
    "rlcore.checkpoint.ms": ("rlcore.checkpoint", "ms"),
    "metrics.classify.us": ("metrics.classify", "us"),
    "scenario.spawn_schedule.ms": ("scenario.spawn_schedule", "ms"),
    "scenario.load.ms": ("scenario.load", "ms"),
    "harness.policy_build.ms": ("harness.policy_build", "ms"),
}
UNIT_NS = {"us": 1e3, "ms": 1e6}

# Every per-layer metric with its unit, in report order.
METRIC_UNITS = {name: unit for name, (_, unit) in PER_CALL.items()}
METRIC_UNITS.update({
    "simcore.vehicle_steps_per_op": "vehicle-steps/op",
    "simcore.lane_change.accept_ratio": "ratio",
    "agents.decision.p99_us": "us",
    "agents.episode_self.ms_per_op": "ms/op",
    "rlcore.train_steps_per_op": "steps/op",
    "metrics.ttc_calls_per_op": "calls/op",
    "harness.self.ms_per_op": "ms/op",
})
METRIC_UNITS.update({f"{layer}.share": "fraction" for layer in LAYERS})
METRIC_UNITS["trace.overhead_ratio"] = "ratio"


def span_targets(simcore, agents, rlcore, scenario, harness) -> list:
    """(owner, attribute, span name) for every call the tracer wraps.

    A function imported by name is wrapped in the module that calls it.
    """
    world = simcore.World
    targets = [
        (world, "step", "simcore.step"),
        (world, "_process_spawns", "simcore.spawn"),
        (world, "_apply_lane_changes", "simcore.lane_change"),
        (world, "_longitudinal", "simcore.longitudinal"),
        (world, "_detect_events", "simcore.events"),
        (world, "_despawn", "simcore.despawn"),
        (agents, "run_episode", "agents.episode"),
        (harness, "run_episode", "agents.episode"),
        (agents, "_scan_world", "agents.scan"),
        (agents, "encode_traffic_state", "agents.encode"),
        (agents, "_broadcast_gap", "agents.broadcast"),
        (agents, "_broadcast_ttc", "agents.broadcast"),
        (agents.DqnAgent, "store", "agents.store"),
        (rlcore.QNetwork, "forward", "rlcore.forward"),
        (rlcore, "train_step", "rlcore.train_step"),
        (rlcore.ReplayBuffer, "sample", "rlcore.sample"),
        (rlcore, "save_checkpoint", "rlcore.checkpoint"),
        (agents, "classify_safety_events", "metrics.classify"),
        (agents, "spawn_schedule", "scenario.spawn_schedule"),
        (scenario, "spawn_schedule", "scenario.spawn_schedule"),
        (scenario, "load_scenario", "scenario.load"),
        (harness, "run_sweep", "harness.sweep"),
        (harness, "_run_task", "harness.task"),
        (harness, "train", "harness.train"),
        (harness.PolicySpec, "build", "harness.policy_build"),
        (harness, "make_adaptive_policy", "harness.policy_build"),
        (harness, "make_fixed_ttc_policy", "harness.policy_build"),
    ]
    targets += [(agents, name, "agents.reward") for name in (
        "reward_ttc", "reward_acc_safety", "reward_acc_efficiency",
        "reward_acc_comfort", "reward_acc_total")]
    for cls in vars(agents).values():
        if isinstance(cls, type) and issubclass(cls, agents.ControlPolicy):
            targets += [(cls, name, "agents.act")
                        for name in ("gap_action", "ttc_action")
                        if name in cls.__dict__]
    return targets


class Tracer:
    """In-memory span recorder; ``phase`` None records nothing."""

    def __init__(self):
        self.phase = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._active: list[bool] = []
        self._stack: list[list[int]] = []  # [span id, nested ns]
        self._next_id = 0
        self._records = array("q")  # RECORD_FIELDS per span, in end order
        self.ttc_calls = 0
        self.lane_change_calls = 0
        self.lane_change_accepts = 0
        self.wrapped: set[str] = set()
        self.patches = Patches()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(False)
        return self._name_ids[name]

    def span(self, name: str):
        """A wrapper factory recording each outermost call as span ``name``."""
        nid = self._name_id(name)
        active, stack = self._active, self._stack
        clock = time.perf_counter_ns
        record = self._records.extend

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.phase is None or active[nid]:
                    return fn(*args, **kwargs)
                active[nid] = True
                sid = self._next_id
                self._next_id = sid + 1
                parent = stack[-1][0] if stack else -1
                frame = [sid, 0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    active[nid] = False
                    if stack:
                        stack[-1][1] += t1 - t0
                    record((nid, sid, parent, t0, t1, t1 - t0 - frame[1],
                            self.phase))
            return wrapper
        return make

    def install(self, simcore, agents, rlcore, scenario, harness) -> None:
        for owner, attr, name in span_targets(simcore, agents, rlcore,
                                              scenario, harness):
            if self.patches.wrap(owner, attr, self.span(name)):
                self.wrapped.add(name)

        def count_ttc(fn):
            def wrapper(*args, **kwargs):
                if self.phase == TIMED:
                    self.ttc_calls += 1
                return fn(*args, **kwargs)
            return wrapper

        def count_lane_changes(fn):
            def wrapper(*args, **kwargs):
                target = fn(*args, **kwargs)
                if self.phase == TIMED:
                    self.lane_change_calls += 1
                    self.lane_change_accepts += target is not None
                return target
            return wrapper

        if self.patches.wrap(agents, "compute_ttc", count_ttc):
            self.wrapped.add("metrics.ttc")
        if self.patches.wrap(simcore.World, "lane_change_decision",
                             count_lane_changes):
            self.wrapped.add("simcore.lane_change_decision")

    def uninstall(self) -> None:
        self.patches.close()

    def arrays(self) -> dict[str, np.ndarray]:
        """One column per record field."""
        table = np.frombuffer(self._records, dtype=np.int64).reshape(
            -1, len(RECORD_FIELDS)).copy()
        return {key: table[:, i] for i, key in enumerate(RECORD_FIELDS)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    # ---- per-layer metrics ---------------------------------------------

    def decision_times_ns(self, cols) -> list[int]:
        """Whole control decisions in the timed phase.

        A decision starts at a state encoding and takes in the agents'
        actions and broadcasts up to the next encoding or physics step;
        one with no action (the no-ACC baseline) is no decision.
        """
        ids = {n: self._name_ids.get(n, -1) for n in (
            "agents.encode", "agents.act", "agents.broadcast", "simcore.step")}
        wanted = np.isin(cols["name"], list(ids.values())) & \
            (cols["phase"] == TIMED)
        order = np.argsort(cols["id"][wanted], kind="stable")
        names = cols["name"][wanted][order].tolist()
        durations = (cols["end"] - cols["start"])[wanted][order].tolist()
        encode, act, step = ids["agents.encode"], ids["agents.act"], \
            ids["simcore.step"]
        out: list[int] = []
        current, acted = None, False
        for nid, dur in zip(names, durations):
            if nid == encode or nid == step:
                if current is not None and acted:
                    out.append(current)
                current, acted = (dur if nid == encode else None), False
            elif current is not None:
                current += dur
                acted = acted or nid == act
        if current is not None and acted:
            out.append(current)
        return out

    def layer_metrics(self, ops: int, traced_s: float, untraced_s: float,
                      vehicle_steps: int) -> tuple[dict, list]:
        """(metric -> value, absent metric names) for a traced timed phase of
        ``ops`` ops that took ``traced_s``; ``untraced_s`` is the same work
        without tracing.  Per-call figures include set-up calls; shares and
        per-op figures cover the timed phase only."""
        cols = self.arrays()
        n = len(self.names)
        names, self_ns = cols["name"], cols["self"]
        timed = cols["phase"] == TIMED
        all_calls = np.bincount(names, minlength=n)
        all_self = np.bincount(names, weights=self_ns, minlength=n)
        timed_calls = np.bincount(names[timed], minlength=n)
        timed_self = np.bincount(names[timed], weights=self_ns[timed],
                                 minlength=n)
        ids = self._name_ids

        out, absent = {}, []
        for metric, (span, unit) in PER_CALL.items():
            if span not in self.wrapped:
                absent.append(metric)
            i = ids[span]
            out[metric] = (all_self[i] / all_calls[i] / UNIT_NS[unit]
                           if all_calls[i] else 0.0)
        per_op = 1.0 / ops
        out["simcore.vehicle_steps_per_op"] = vehicle_steps * per_op
        out["simcore.lane_change.accept_ratio"] = (
            self.lane_change_accepts / self.lane_change_calls
            if self.lane_change_calls else 0.0)
        decisions = sorted(self.decision_times_ns(cols))
        out["agents.decision.p99_us"] = (
            percentile(decisions, 99.0) / 1e3 if decisions else 0.0)
        out["agents.episode_self.ms_per_op"] = \
            timed_self[ids["agents.episode"]] / 1e6 * per_op
        out["rlcore.train_steps_per_op"] = \
            int(timed_calls[ids["rlcore.train_step"]]) * per_op
        out["metrics.ttc_calls_per_op"] = self.ttc_calls * per_op
        layer_ns = dict.fromkeys(LAYERS, 0.0)
        for name, ns in zip(self.names, timed_self):
            layer_ns[name.split(".")[0]] += ns
        out["harness.self.ms_per_op"] = layer_ns["harness"] / 1e6 * per_op
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_ns[layer] / 1e9 / traced_s
        out["trace.overhead_ratio"] = traced_s / untraced_s
        if "metrics.ttc" not in self.wrapped:
            absent.append("metrics.ttc_calls_per_op")
        if "simcore.lane_change_decision" not in self.wrapped:
            absent.append("simcore.lane_change.accept_ratio")
        return out, absent
