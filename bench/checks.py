"""Output checks for the benchmark's workloads.

Every check returns a list of failure messages; an empty list means the
output passed.  Expected values are recomputed here from the model's
definitions (vehicle states, network weights, config values) or follow
from properties the method must have.  None is copied from a recorded run.
"""

from __future__ import annotations

import csv
import math

import numpy as np

REL_TOL = 1e-9


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want), 1e-300)


# ---- episodes (onramp-sweep) ---------------------------------------------


def check_episode_bounds(metrics, mainline_length: float, dt: float,
                         free_flow_speed: float) -> list[str]:
    """Speed inside (0, free flow], delay no shorter than a free-flow
    traversal (less one step of time quantization), counts non-negative."""
    tag = f"seed {metrics.seed} penetration {metrics.penetration:g}"
    errors = []
    if not 0.0 < metrics.mean_speed <= free_flow_speed:
        errors.append(f"{tag}: mean_speed {metrics.mean_speed!r} outside "
                      f"(0, {free_flow_speed}]")
    min_delay = mainline_length / free_flow_speed - dt
    if not metrics.mean_delay >= min_delay:
        errors.append(f"{tag}: mean_delay {metrics.mean_delay!r} below the "
                      f"free-flow traversal {min_delay:.6f}")
    counts = {"near_collisions": metrics.near_collisions,
              "fp": metrics.tally.fp, "fn": metrics.tally.fn,
              "ac": metrics.tally.ac}
    errors += [f"{tag}: {name} = {value} < 0"
               for name, value in counts.items() if value < 0]
    return errors


def check_coverage(keys, systems, values, seeds) -> list[str]:
    """Sweep rows cover exactly systems x values x seeds, once each."""
    keys = list(keys)
    expected = {(s, float(v), seed) for s in systems for v in values
                for seed in seeds}
    errors = []
    if len(keys) != len(set(keys)):
        errors.append("sweep returned a (system, value, seed) key twice")
    if set(keys) != expected:
        errors.append(f"sweep keys differ from systems x values x seeds: "
                      f"missing {sorted(expected - set(keys))}, "
                      f"extra {sorted(set(keys) - expected)}")
    return errors


class EpisodeObserver:
    """Recomputes an episode's mean speed and mean delay from vehicle states.

    ``after_step`` sees the world after each physics step; ``sink`` is the
    world's trajectory sink and sees it before vehicles leave.  Mean speed
    averages every vehicle present after a step at or past the warm-up.
    Delay is the time from a through vehicle's first appearance to the step
    it is seen at or beyond the segment end, over completions at or past the
    warm-up.
    """

    def __init__(self, mainline_length: float, warmup: float, through: str):
        self.mainline_length = mainline_length
        self.warmup = warmup
        self.through = through
        self.speed_sum = 0.0
        self.samples = 0
        self.first_seen: dict[int, float] = {}
        self.finished: dict[int, float] = {}

    def after_step(self, world) -> None:
        if world.time < self.warmup:
            return
        step_sum = 0.0
        for lane in world.lanes.values():
            for veh in lane:
                step_sum += veh.v
                self.samples += 1
        self.speed_sum += step_sum

    def sink(self, world) -> None:
        for lane in world.lanes.values():
            for veh in lane:
                self.first_seen.setdefault(veh.id, world.time)
                if (veh.route == self.through and veh.x >= self.mainline_length
                        and veh.id not in self.finished):
                    self.finished[veh.id] = world.time

    def mean_speed(self) -> float:
        return self.speed_sum / self.samples if self.samples else math.nan

    def mean_delay(self) -> float:
        delays = [t - self.first_seen[vid] for vid, t in self.finished.items()
                  if t >= self.warmup]
        return sum(delays) / len(delays) if delays else math.nan


def check_recomputed(metrics, observer: EpisodeObserver) -> list[str]:
    errors = []
    for name, got, want in (
            ("mean_speed", metrics.mean_speed, observer.mean_speed()),
            ("mean_delay", metrics.mean_delay, observer.mean_delay())):
        if not close(got, want):
            errors.append(f"seed {metrics.seed}: {name} {got!r} != "
                          f"recomputed {want!r}")
    return errors


def check_repeat(row, repeat_row) -> list[str]:
    if list(row) != list(repeat_row):
        return [f"repeated episode differs: {row} != {repeat_row}"]
    return []


# ---- control decisions (onramp-decide) -----------------------------------

# Indices of the segment-state features recomputed from vehicle states.
FEATURE_ML_DENSITY = 6
FEATURE_ML_SPEED = 7
FEATURE_RAMP_DENSITY = 8
FEATURE_RAMP_SPEED = 9
FEATURE_TTC_STAR = 11
FEATURE_MEAN_TTC = 12


def expected_features(lanes: dict, ramp_lane: int, mainline_km: float,
                      ramp_km: float, ttc_cap: float) -> dict[int, float]:
    """Count, speed and mean-TTC features of a segment snapshot.

    Each lane is ordered front-first by position here; a vehicle's TTC to
    the one ahead is finite only while it is faster, and enters the mean
    capped at ``ttc_cap`` (the cap stands in when there is no such pair).
    """
    ml_n = ramp_n = ttc_n = 0
    ml_v = ramp_v = ttc_sum = 0.0
    for lane_id, lane in lanes.items():
        ordered = sorted(lane, key=lambda veh: -veh.x)
        for veh in ordered:
            if lane_id == ramp_lane:
                ramp_n += 1
                ramp_v += veh.v
            else:
                ml_n += 1
                ml_v += veh.v
        for leader, follower in zip(ordered, ordered[1:]):
            closing = follower.v - leader.v
            if closing > 0.0:
                ttc = (leader.x - leader.length - follower.x) / closing
                ttc_sum += min(ttc, ttc_cap)
                ttc_n += 1
    return {
        FEATURE_ML_DENSITY: ml_n / mainline_km,
        FEATURE_ML_SPEED: ml_v / ml_n if ml_n else 0.0,
        FEATURE_RAMP_DENSITY: ramp_n / ramp_km,
        FEATURE_RAMP_SPEED: ramp_v / ramp_n if ramp_n else 0.0,
        FEATURE_MEAN_TTC: ttc_sum / ttc_n if ttc_n else ttc_cap,
    }


def check_features(states: np.ndarray, expected: dict) -> list[str]:
    """Encoded states (one per row) carry the expected feature values
    (a scalar or one value per row, by feature column)."""
    errors = []
    for col, want in expected.items():
        got = states[:, col]
        want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
        bad = ~np.isclose(got, want, rtol=REL_TOL, atol=0.0)
        if bad.any():
            errors.append(f"feature {col} is {got[bad][0]!r}, recomputed "
                          f"{want[bad][0]!r} ({int(bad.sum())} states)")
    return errors


def q_values(net_arrays: dict, states: np.ndarray,
             norm_eps: float = 1e-8) -> np.ndarray:
    """Q-values of the one-hidden-layer ReLU network, from its weights and
    input normalization statistics."""
    z = (states - net_arrays["running_mean"]) / np.sqrt(
        net_arrays["running_var"] + norm_eps)
    hidden = np.maximum(z @ net_arrays["W1"] + net_arrays["b1"], 0.0)
    return hidden @ net_arrays["W2"] + net_arrays["b2"]


def check_argmax(q: np.ndarray, actions: np.ndarray, agent: str) -> list[str]:
    wrong = np.flatnonzero(np.argmax(q, axis=1) != actions)
    if wrong.size:
        i = int(wrong[0])
        return [f"{agent} agent: action {int(actions[i])} is not the argmax "
                f"{int(np.argmax(q[i]))} of Q in {wrong.size} decisions"]
    return []


def check_threshold_filter(ttc_actions, broadcast, alpha: float, step: float,
                           previous: float | None = None) -> list[str]:
    """In evaluation the broadcast threshold low-pass filters the chosen one:
    it starts at the first choice (``previous`` None) and then moves
    ``alpha`` of the way from the previous broadcast to each new choice."""
    filtered = previous
    for k, (action, sent) in enumerate(zip(ttc_actions, broadcast)):
        chosen = step * int(action)
        filtered = chosen if filtered is None else \
            filtered + alpha * (chosen - filtered)
        if not close(sent, filtered):
            return [f"decision {k}: broadcast threshold {sent!r} != "
                    f"filtered {filtered!r}"]
    return []


def check_broadcast(lanes: dict, gap: float, ttc_star: float,
                    tag: str) -> list[str]:
    wrong = [veh.id for lane in lanes.values() for veh in lane
             if veh.equipped and (veh.gap_cmd != gap
                                  or veh.danger_ttc != ttc_star)]
    if wrong:
        return [f"{tag}: {len(wrong)} equipped vehicles do not carry gap "
                f"{gap} and threshold {ttc_star}"]
    return []


# ---- training (desk-train) -----------------------------------------------


def control_ticks(run) -> int:
    """Control ticks in one episode: physics steps per control interval."""
    steps = round(run.episode_duration / run.physics_timestep)
    return steps // round(run.control_interval / run.physics_timestep)


def threshold_ticks(ticks: int, every: int) -> int:
    """Ticks that close a threshold window: every ``every`` ticks, and the last."""
    return sum(1 for k in range(1, ticks + 1) if k % every == 0 or k == ticks)


def check_agent(name: str, agent, transitions: int) -> list[str]:
    """Replay fill and epsilon of an agent that made and stored
    ``transitions`` exploratory decisions."""
    errors = []
    if len(agent.buffer) != transitions:
        errors.append(f"{name} replay holds {len(agent.buffer)} transitions, "
                      f"expected {transitions}")
    sched = agent.schedule
    want = max(sched.eps0 * sched.decay ** transitions, sched.eps_min)
    if sched.steps != transitions or not close(sched.value, want):
        errors.append(f"{name} epsilon {sched.value!r} after {sched.steps} "
                      f"decisions, expected {want!r} after {transitions}")
    return errors


def check_losses(losses) -> list[str]:
    bad = [x for x in losses if not math.isfinite(x)]
    return [f"{len(bad)} non-finite losses, first {bad[0]!r}"] if bad else []


def net_arrays(net) -> dict[str, np.ndarray]:
    return {"W1": net.W1, "b1": net.b1, "W2": net.W2, "b2": net.b2,
            "running_mean": net.running_mean, "running_var": net.running_var}


def check_checkpoint(loaded_net, net, path) -> list[str]:
    """The reloaded weights equal the ones in memory, bit for bit."""
    want, got = net_arrays(net), net_arrays(loaded_net)
    diff = [k for k in want if got[k].shape != want[k].shape
            or got[k].tobytes() != want[k].tobytes()]
    return [f"{path}: reloaded {diff} differ from memory"] if diff else []


def check_reward_rows(path, completed: int) -> list[str]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh
                                      if not line.startswith("#"))]
    data = len(rows) - 1  # header
    if data != completed:
        return [f"{path}: {data} rows for {completed} completed episodes"]
    return []
