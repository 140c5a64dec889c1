"""Dual-agent control: threshold adaptation plus gap control, and the
episode loop that couples them to the simulator.

One agent adapts the time-to-collision danger threshold from segment-level
traffic state; the other broadcasts a commanded inter-vehicle gap to every
equipped vehicle (a single shared policy, consistent with the segment-level
state that carries no ego features).
"""

from __future__ import annotations

import math
import random
import time as _time
from dataclasses import dataclass

import numpy as np

from . import rlcore
from .metrics import (
    EVENT_ACTUAL_COLLISION,
    EVENT_NEAR_COLLISION,
    EpisodeMetrics,
    MetricsError,
    SafetyTally,
    classify_safety_events,
    compute_ttc,
)
from .rlcore import AdamState, EpsilonSchedule, QNetwork, ReplayBuffer
from .scenario import RAMP_LANE, Scenario, spawn_schedule
from .simcore import World

STATE_DIM = 13
TTC_ACTION_COUNT = 21
GAP_ACTION_COUNT = 25
MEAN_TTC_CAP = 20.0  # s, cap applied to the mean-TTC state feature
TTC_LOG_FLOOR = 0.01  # s, avoids log(0) in the safety reward
HEADWAY_CAP = 10.0  # s, cap on the time-headway state feature


def ttc_star_from_index(index: int) -> float:
    """Action index 0..20 -> threshold 0.0, 0.5, ..., 10.0 s."""
    if not 0 <= index < TTC_ACTION_COUNT:
        raise ValueError(f"threshold action index out of range: {index}")
    return 0.5 * index


def index_from_ttc_star(ttc_star: float) -> int:
    index = round(ttc_star / 0.5)
    if not 0 <= index < TTC_ACTION_COUNT or abs(0.5 * index - ttc_star) > 1e-9:
        raise ValueError(f"threshold {ttc_star} not on the 0.5 s action grid")
    return index


def gap_from_index(index: int) -> float:
    """Action index 0..24 -> commanded gap 1..25 m."""
    if not 0 <= index < GAP_ACTION_COUNT:
        raise ValueError(f"gap action index out of range: {index}")
    return float(index + 1)


def index_from_gap(gap: float) -> int:
    index = round(gap) - 1
    if not 0 <= index < GAP_ACTION_COUNT or abs(index + 1 - gap) > 1e-9:
        raise ValueError(f"gap {gap} not on the 1 m action grid")
    return index


@dataclass(frozen=True)
class RewardWeights:
    alpha_fp: float = 1.0
    alpha_fn: float = 2.0
    alpha_ac: float = 10.0
    beta_efficiency: float = 1.0
    beta_safety: float = 1.0
    beta_comfort: float = 1.0

    @classmethod
    def from_config(cls, cfg) -> "RewardWeights":
        return cls(cfg.alpha_fp, cfg.alpha_fn, cfg.alpha_ac,
                   cfg.beta_efficiency, cfg.beta_safety, cfg.beta_comfort)


# ---- rewards -----------------------------------------------------------


def reward_ttc(tally: SafetyTally, weights: RewardWeights) -> float:
    """Threshold-agent reward: weighted negative FP/FN/collision counts."""
    return -(weights.alpha_fp * tally.fp
             + weights.alpha_fn * tally.fn
             + weights.alpha_ac * tally.ac)


def reward_acc_safety(ttc_values, ttc_star: float) -> float:
    """Sum of log(TTC_i / threshold) over vehicles with TTC inside [0, threshold].

    Vehicles with TTC above the threshold (or no closing conflict at all)
    contribute nothing.  TTC is floored just above zero so the log stays
    finite.
    """
    if ttc_star <= 0.0:
        return 0.0
    total = 0.0
    for ttc in ttc_values:
        if 0.0 <= ttc <= ttc_star:
            total += math.log(max(ttc, TTC_LOG_FLOOR) / ttc_star)
    return total


def reward_acc_efficiency(mean_delay, mainline_length: float,
                          congestion_speed: float) -> float:
    """+1 when average traversal delay beats the congested-speed bound, else -1.

    Returns 0 when no vehicle completed a traversal in the window.
    """
    if mean_delay is None:
        return 0.0
    threshold = mainline_length / congestion_speed
    return 1.0 if mean_delay <= threshold else -1.0


def reward_acc_comfort(jerk: float, max_jerk: float) -> float:
    """Quadratic jerk penalty normalized to [-1, 0] by the largest possible jerk."""
    j = min(abs(jerk), max_jerk)
    return -(j * j) / (max_jerk * max_jerk)


def reward_acc_total(r_efficiency: float, r_safety: float, r_comfort: float,
                     weights: RewardWeights) -> float:
    return (weights.beta_efficiency * r_efficiency
            + weights.beta_safety * r_safety
            + weights.beta_comfort * r_comfort)


# ---- state encoding ----------------------------------------------------


def encode_traffic_state(world: World, ttc_star: float,
                         mean_ttc_cap: float = MEAN_TTC_CAP) -> np.ndarray:
    """13-feature segment-level traffic state.

    Mainline and ramp traffic are featurized separately; empty lanes yield
    zero density/speed and the mean-TTC feature sits at its cap.

    One pass per lane, front to back.  Every sum adds the same terms in the
    same order as a plain per-vehicle walk, so the state is bit-identical
    to it.  `compute_ttc` is called only for closing pairs (follower
    strictly faster): it returns inf for every other pair, and infinite
    TTCs never enter the mean.
    """
    geometry = world.geometry
    isfinite = math.isfinite
    accel_sum = decel_sum = 0.0
    headway_sum = 0.0
    headway_n = 0
    sigma_sum = gap_set_sum = length_sum = 0.0
    n_total = 0
    ml_count = ramp_count = 0
    ml_speed_sum = ramp_speed_sum = 0.0
    ttc_sum = 0.0
    ttc_n = 0
    for lid in world.lane_ids:
        lane = world.lanes[lid]
        n_total += len(lane)
        is_ramp = lid == RAMP_LANE
        if is_ramp:
            ramp_count += len(lane)
            speed_sum = ramp_speed_sum
        else:
            ml_count += len(lane)
            speed_sum = ml_speed_sum
        leader = None
        leader_v = leader_rear = 0.0
        for veh in lane:
            v = veh.v
            a = veh.a
            length = veh.length
            if a > 0.0:
                accel_sum += a
            else:
                decel_sum -= a
            sigma_sum += veh.sigma
            length_sum += length
            if veh.equipped:
                gap_set_sum += veh.gap_cmd
            speed_sum += v
            x = veh.x
            if leader is not None:
                if v > 0.1:
                    headway = (leader_rear - x) / v
                    if headway > HEADWAY_CAP:
                        headway = HEADWAY_CAP
                    headway_sum += headway
                    headway_n += 1
                if v > leader_v:
                    ttc = compute_ttc(veh, leader)
                    if isfinite(ttc):
                        if ttc > mean_ttc_cap:
                            ttc = mean_ttc_cap
                        ttc_sum += ttc
                        ttc_n += 1
            leader = veh
            leader_v = v
            leader_rear = x - length
        if is_ramp:
            ramp_speed_sum = speed_sum
        else:
            ml_speed_sum = speed_sum
    ml_km = geometry.mainline_length / 1000.0
    if world.ramp_start is not None:
        ramp_km = max(world.ramp_end - world.ramp_start, 1.0) / 1000.0
    else:
        ramp_km = 1.0
    return np.array([
        accel_sum / n_total if n_total else 0.0,
        decel_sum / n_total if n_total else 0.0,
        headway_sum / headway_n if headway_n else 0.0,
        sigma_sum / n_total if n_total else 0.0,
        gap_set_sum / n_total if n_total else 0.0,
        length_sum / n_total if n_total else 0.0,
        ml_count / ml_km,
        ml_speed_sum / ml_count if ml_count else 0.0,
        ramp_count / ramp_km,
        ramp_speed_sum / ramp_count if ramp_count else 0.0,
        geometry.ramp_length if geometry.ramp_kind != "none" else 0.0,
        ttc_star,
        ttc_sum / ttc_n if ttc_n else mean_ttc_cap,
    ])


# ---- agents ------------------------------------------------------------


class DqnAgent:
    """A Q-network with its target copy, replay buffer, optimizer and
    exploration schedule; owns its own RNG stream."""

    def __init__(self, input_dim: int, output_dim: int, *, seed: int = 0,
                 hidden_dim: int = 30, learning_rate: float = 1e-4,
                 gamma: float = 0.95, batch_size: int = 64,
                 buffer_capacity: int = 100_000, lambda_decay: float = 0.99985,
                 train_start: int = 1000, sync_every: int = 5):
        self.rng = np.random.default_rng(seed)
        self.net = QNetwork(input_dim, output_dim, hidden_dim, rng=self.rng)
        self.target = self.net.copy()
        self.buffer = ReplayBuffer(buffer_capacity, input_dim)
        self.adam = AdamState(learning_rate)
        self.schedule = EpsilonSchedule(decay=lambda_decay)
        self.gamma = gamma
        self.batch_size = batch_size
        self.train_start = max(train_start, batch_size)
        self.sync_every = sync_every
        self.episodes = 0
        self.last_loss: float | None = None

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        return rlcore.select_action(self.net, state, self.schedule, self.rng,
                                    greedy=greedy)

    def store(self, state, action, reward, next_state, done) -> None:
        self.buffer.push(state, action, reward, next_state, done)

    def train(self) -> float | None:
        if len(self.buffer) < self.train_start:
            return None
        batch = self.buffer.sample(self.batch_size, self.rng)
        self.last_loss = rlcore.train_step(self.net, self.target, batch,
                                           self.gamma, self.adam)
        return self.last_loss

    def end_episode(self) -> None:
        self.episodes += 1
        if self.episodes % self.sync_every == 0:
            rlcore.sync_target(self.net, self.target)

    def weight_checksum(self) -> int:
        import zlib

        crc = 0
        for arr in (self.net.flat, self.net.running_mean,
                    self.net.running_var):
            crc = zlib.crc32(arr, crc)
        return crc

    def save(self, path) -> None:
        rlcore.save_checkpoint(path, self.net, self.adam, self.schedule)

    def restore(self, path) -> None:
        net, adam, schedule = rlcore.load_checkpoint(path)
        if (net.input_dim, net.output_dim) != (self.net.input_dim,
                                               self.net.output_dim):
            raise rlcore.CheckpointError(
                "checkpoint dimensions do not match this agent")
        self.net = net
        self.target = net.copy()
        self.adam = adam
        self.schedule = schedule


# ---- control policies --------------------------------------------------


class ControlPolicy:
    """Protocol for what drives equipped vehicles during an episode.

    `acc_agent` and `ttc_agent` are the gap and threshold learners, or
    None; `run_episode` trains whichever of them are present.
    """

    controls_gap = False
    adapts_ttc = False
    initial_ttc_star = 4.0
    acc_agent: DqnAgent | None = None
    ttc_agent: DqnAgent | None = None

    def begin_episode(self) -> None:
        pass

    def gap_action(self, state: np.ndarray, train: bool) -> tuple[int, float]:
        raise NotImplementedError

    def ttc_action(self, state: np.ndarray, train: bool) -> tuple[int, float]:
        raise NotImplementedError


class NoAccPolicy(ControlPolicy):
    """Baseline: nobody is actuated; every vehicle drives the human model."""


class ScriptedGapPolicy(ControlPolicy):
    """Fixed-threshold controller: commanded gap grows linearly with the
    danger threshold.  Used for the threshold sweep motivation study."""

    controls_gap = True

    def __init__(self, ttc_star: float, gap_per_second: float = 2.4):
        self.initial_ttc_star = ttc_star
        gap = min(max(round(1.0 + gap_per_second * ttc_star), 1), GAP_ACTION_COUNT)
        self._action = gap - 1

    def gap_action(self, state, train):
        return self._action, gap_from_index(self._action)


class AdaptivePolicy(ControlPolicy):
    """The gap agent, fed by the threshold agent when there is one.

    With a `ttc_agent` this is the full dual-agent stack; without one the
    danger threshold stays pinned at `initial_ttc_star` (the fixed-threshold
    ablation, and the gap phase of alternating training).

    At deployment (eval mode) the broadcast threshold is low-pass
    filtered: abrupt t* jumps move the equipped fleet's standoff target,
    and re-equilibrating every decision interval creates closing
    transients (and near-collisions) that have nothing to do with the
    chosen threshold itself.  Training keeps the raw broadcast so each
    reward window still reflects the action that produced it.
    """

    controls_gap = True

    BROADCAST_ALPHA = 0.2

    def __init__(self, acc_agent: DqnAgent, ttc_agent: DqnAgent | None = None,
                 initial_ttc_star: float = 4.0):
        self.acc_agent = acc_agent
        self.ttc_agent = ttc_agent
        self.adapts_ttc = ttc_agent is not None
        self.initial_ttc_star = initial_ttc_star
        self._ttc_filtered: float | None = None

    def begin_episode(self):
        self._ttc_filtered = None

    def gap_action(self, state, train):
        a = self.acc_agent.act(state, greedy=not train)
        return a, gap_from_index(a)

    def ttc_action(self, state, train):
        a = self.ttc_agent.act(state, greedy=not train)
        chosen = ttc_star_from_index(a)
        if train:
            return a, chosen
        if self._ttc_filtered is None:
            self._ttc_filtered = chosen
        else:
            self._ttc_filtered += self.BROADCAST_ALPHA * (
                chosen - self._ttc_filtered)
        return a, self._ttc_filtered


def _make_acc_agent(scenario: Scenario, seed: int) -> DqnAgent:
    cfg = scenario.agents
    return DqnAgent(STATE_DIM, GAP_ACTION_COUNT, seed=seed * 2 + 2,
                    lambda_decay=cfg.acc_lambda_decay,
                    train_start=cfg.train_start_buffer)


def make_adaptive_policy(scenario: Scenario, seed: int = 0) -> AdaptivePolicy:
    cfg = scenario.agents
    # The threshold agent sees only ~36 decisions per episode at 10 s
    # spacing and each window reward already reflects the threshold that
    # produced it, so it learns as a contextual bandit (gamma=0) with a
    # faster optimizer than the gap agent, which collects ten times as
    # many transitions.
    ttc_agent = DqnAgent(STATE_DIM, TTC_ACTION_COUNT, seed=seed * 2 + 1,
                         hidden_dim=4, learning_rate=1e-3, gamma=0.0,
                         lambda_decay=cfg.ttc_lambda_decay,
                         train_start=max(64, cfg.train_start_buffer // 10))
    return AdaptivePolicy(_make_acc_agent(scenario, seed), ttc_agent)


def make_fixed_ttc_policy(scenario: Scenario, seed: int = 0,
                          ttc_star: float = 4.0) -> AdaptivePolicy:
    """The gap agent alone, against a danger threshold pinned at `ttc_star`."""
    return AdaptivePolicy(_make_acc_agent(scenario, seed),
                          initial_ttc_star=ttc_star)


# ---- episode loop ------------------------------------------------------


@dataclass
class EpisodeResult:
    metrics: EpisodeMetrics
    ttc_reward: float
    acc_reward: float
    final_ttc_star: float
    decision_latency_ms: list[float]  # empty unless measure_latency


def _scan_world(world: World, collect_metrics: bool, speed_acc: list,
                flagged: set, ttc_star: float, control: bool) -> list:
    """One pass over all vehicles: metrics accumulation and danger flags.

    Closing-pair followers with TTC below `ttc_star` join `flagged`; on a
    `control` step the closing pairs' TTCs are returned in walk order.
    """
    speed_sum = 0.0
    accel_sum = 0.0
    n = 0
    ttcs: list[float] = []
    for lid in world.lane_ids:
        leader = None
        for veh in world.lanes[lid]:
            if collect_metrics:
                speed_sum += veh.v
                accel_sum += abs(veh.a)
                n += 1
            if leader is not None and veh.v > leader.v:
                ttc = compute_ttc(veh, leader)
                if ttc < ttc_star:
                    flagged.add(veh.id)
                if control:
                    ttcs.append(ttc)
            leader = veh
    if collect_metrics:
        speed_acc[0] += speed_sum
        speed_acc[1] += accel_sum
        speed_acc[2] += n
    return ttcs


def _broadcast_gap(world: World, gap: float) -> None:
    world.default_gap_cmd = gap
    for lane in world.lanes.values():
        for veh in lane:
            if veh.equipped:
                veh.gap_cmd = gap


def _broadcast_ttc(world: World, ttc_star: float) -> None:
    world.default_danger_ttc = ttc_star
    for lane in world.lanes.values():
        for veh in lane:
            if veh.equipped:
                veh.danger_ttc = ttc_star


def run_episode(scenario: Scenario, policy: ControlPolicy, *,
                mode: str = "eval", seed: int = 0,
                trajectory_sink=None, measure_latency: bool = False,
                train_acc: bool = True) -> EpisodeResult:
    """Simulate one episode under `policy`.

    Every control decision, the first included, runs through one path:
    encode the state, let each present agent learn from the reward of its
    last action, then act and broadcast.  The first decision has nothing to
    learn from; the last one does not act.  In ``train`` mode actions are
    epsilon-greedy and the policy's `acc_agent` and `ttc_agent`, where
    present, learn and end the episode; in ``eval`` mode actions are greedy
    and no weights change.  With `train_acc` False the gap agent still acts
    and ends the episode but learns nothing (the threshold phase of
    alternating training).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    scenario.validate()
    geometry, run, demand = scenario.geometry, scenario.run, scenario.demand
    weights = RewardWeights.from_config(scenario.agents)

    schedule_rng = random.Random(seed)
    schedule = spawn_schedule(demand, geometry, run.episode_duration,
                              schedule_rng)
    world = World(geometry, run, schedule, seed)
    world.acc_enabled = policy.controls_gap
    if trajectory_sink is not None:
        world.trajectory_sink = trajectory_sink

    dt = run.physics_timestep
    n_steps = round(run.episode_duration / dt)
    spc = run.steps_per_control
    interval = run.control_interval
    ttc_every = max(1, round(scenario.agents.ttc_decision_interval / interval))
    max_jerk = 2.0 * run.accel_bound / interval
    warmup = run.warmup_duration

    policy.begin_episode()
    ttc_star = policy.initial_ttc_star
    world.default_danger_ttc = ttc_star
    acc_learner = policy.acc_agent if train and train_acc else None
    ttc_learner = policy.ttc_agent if train else None
    latencies: list[float] = []
    pending_gap = None  # (state, action) awaiting its reward
    pending_ttc = None

    def decide(ttc_tick: bool, is_last: bool, r_acc: float,
               r_ttc: float) -> None:
        """One timed decision; in train mode it includes the updates."""
        nonlocal ttc_star, pending_gap, pending_ttc
        t0 = _time.perf_counter()
        state = encode_traffic_state(world, ttc_star)
        if policy.controls_gap:
            if acc_learner is not None and pending_gap is not None:
                acc_learner.store(*pending_gap, r_acc, state, is_last)
                acc_learner.train()
            if not is_last:
                action, gap = policy.gap_action(state, train)
                _broadcast_gap(world, gap)
                pending_gap = (state, action)
        if ttc_tick and policy.adapts_ttc:
            if ttc_learner is not None and pending_ttc is not None:
                ttc_learner.store(*pending_ttc, r_ttc, state, is_last)
                ttc_learner.train()
            if not is_last:
                action, ttc_star = policy.ttc_action(state, train)
                pending_ttc = (state, action)
                _broadcast_ttc(world, ttc_star)
        if measure_latency and not is_last:
            latencies.append((_time.perf_counter() - t0) * 1e3)

    decides = policy.controls_gap or policy.adapts_ttc  # base: no decision
    if decides:
        decide(True, False, 0.0, 0.0)

    flagged: set[int] = set()  # followers flagged in the current window
    window_event_start = len(world.events)
    completed_start = 0
    metrics_tally = SafetyTally()
    speed_acc = [0.0, 0.0, 0]  # speed sum, |accel| sum, vehicle-steps
    jerk_sq_sum = 0.0
    jerk_samples = 0
    ttc_reward_sum = 0.0
    acc_reward_sum = 0.0
    r_ttc = 0.0
    ctrl_ticks = 0

    for step in range(n_steps):
        world.step()
        past_warmup = world.time >= warmup
        control = world.step_index % spc == 0
        step_ttcs = _scan_world(world, past_warmup, speed_acc, flagged,
                                ttc_star, control)
        if not control:
            continue
        is_last = step == n_steps - 1
        ctrl_ticks += 1

        # comfort: jerk of the commanded acceleration, sampled per interval
        equipped_jerk_sq = 0.0
        equipped_n = 0
        for veh in world.vehicles():
            prev = veh.ctrl_accel_prev
            if prev == prev:  # not NaN: vehicle existed at the previous tick
                jerk = (veh.a - prev) / interval
                if past_warmup:
                    jerk_sq_sum += jerk * jerk
                    jerk_samples += 1
                if veh.equipped:
                    equipped_jerk_sq += jerk * jerk
                    equipped_n += 1
            veh.ctrl_accel_prev = veh.a

        completed = world.all_completed[completed_start:]
        completed_start = len(world.all_completed)
        mean_delay = (sum(d for _, d in completed) / len(completed)
                      if completed else None)

        r_e = reward_acc_efficiency(mean_delay, geometry.mainline_length,
                                    run.congestion_speed)
        r_s = reward_acc_safety(step_ttcs, ttc_star)
        rms_jerk = math.sqrt(equipped_jerk_sq / equipped_n) if equipped_n else 0.0
        r_c = reward_acc_comfort(rms_jerk, max_jerk)
        r_acc = reward_acc_total(r_e, r_s, r_c, weights)
        if policy.controls_gap:
            acc_reward_sum += r_acc

        ttc_tick = ctrl_ticks % ttc_every == 0 or is_last
        if ttc_tick:
            tally = classify_safety_events(
                flagged, world.events[window_event_start:])
            if past_warmup:
                metrics_tally.fp += tally.fp
                metrics_tally.fn += tally.fn
            r_ttc = reward_ttc(tally, weights)
            ttc_reward_sum += r_ttc
            flagged.clear()
            window_event_start = len(world.events)

        if decides:
            decide(ttc_tick, is_last, r_acc, r_ttc)

    if train:
        for agent in (policy.acc_agent, policy.ttc_agent):
            if agent is not None:
                agent.end_episode()

    nc = sum(1 for e in world.events
             if e.kind == EVENT_NEAR_COLLISION and e.time >= warmup)
    metrics_tally.ac = sum(1 for e in world.events
                           if e.kind == EVENT_ACTUAL_COLLISION
                           and e.time >= warmup)
    delays = [d for t_done, d in world.all_completed if t_done >= warmup]
    if not delays:
        raise MetricsError(
            f"episode degenerate: no vehicle completed traversal "
            f"(seed {seed}, scenario {scenario.name})")
    metrics = EpisodeMetrics(
        seed=seed,
        scenario=scenario.name,
        penetration=demand.penetration_rate,
        ramp_flow=demand.ramp_flow,
        near_collisions=nc,
        tally=metrics_tally,
        mean_speed=speed_acc[0] / speed_acc[2] if speed_acc[2] else 0.0,
        mean_delay=sum(delays) / len(delays),
        mean_abs_accel=speed_acc[1] / speed_acc[2] if speed_acc[2] else 0.0,
        mean_sq_jerk=jerk_sq_sum / jerk_samples if jerk_samples else 0.0,
    )
    return EpisodeResult(metrics, ttc_reward_sum, acc_reward_sum, ttc_star,
                         latencies)
