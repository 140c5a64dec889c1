"""Dual-agent control: threshold adaptation plus gap control, and the
episode stepper that couples them to the simulator.

One agent adapts the time-to-collision danger threshold from segment-level
traffic state; the other broadcasts a commanded inter-vehicle gap to every
equipped vehicle (a single shared policy, consistent with the segment-level
state that carries no ego features).
"""

from __future__ import annotations

import math
import random
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
from .scenario import RAMP_LANE, AgentConfig, Scenario, spawn_schedule
from .simcore import World

STATE_DIM = 13
TTC_ACTION_COUNT = 21
GAP_ACTION_COUNT = 25
MEAN_TTC_CAP = 20.0  # s, cap applied to the mean-TTC state feature
TTC_LOG_FLOOR = 0.01  # s, avoids log(0) in the safety reward
HEADWAY_CAP = 10.0  # s, cap on the time-headway state feature
BATCH_SIZE = 64  # transitions per DQN update
BUFFER_CAPACITY = 100_000  # transitions each replay buffer holds
TARGET_SYNC_EVERY = 5  # episodes between target-network syncs
SCRIPTED_GAP_PER_SECOND = 2.4  # m of scripted gap per s of threshold


def ttc_star_from_index(index: int) -> float:
    """Action index 0..20 -> threshold 0.0, 0.5, ..., 10.0 s."""
    if not 0 <= index < TTC_ACTION_COUNT:
        raise ValueError(f"threshold action index out of range: {index}")
    return 0.5 * index


def gap_from_index(index: int) -> float:
    """Action index 0..24 -> commanded gap 1..25 m."""
    if not 0 <= index < GAP_ACTION_COUNT:
        raise ValueError(f"gap action index out of range: {index}")
    return float(index + 1)


# ---- rewards -----------------------------------------------------------


def reward_ttc(tally: SafetyTally, weights: AgentConfig) -> float:
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
                     weights: AgentConfig) -> float:
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
                 gamma: float = 0.95, lambda_decay: float = 0.99985,
                 train_start: int = 1000):
        self.rng = np.random.default_rng(seed)
        self.net = QNetwork(input_dim, output_dim, hidden_dim, rng=self.rng)
        self.target = self.net.copy()
        self.buffer = ReplayBuffer(BUFFER_CAPACITY, input_dim)
        self.adam = AdamState(learning_rate)
        self.schedule = EpsilonSchedule(decay=lambda_decay)
        self.gamma = gamma
        self.train_start = max(train_start, BATCH_SIZE)
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
        batch = self.buffer.sample(BATCH_SIZE, self.rng)
        self.last_loss = rlcore.train_step(self.net, self.target, batch,
                                           self.gamma, self.adam)
        return self.last_loss

    def end_episode(self) -> None:
        self.episodes += 1
        if self.episodes % TARGET_SYNC_EVERY == 0:
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
    None; an `Episode` trains those present.  Only a policy that
    `controls_gap` makes decisions: `gap_action` at each `Episode.decide`,
    and `ttc_action` at each threshold decision when it has a `ttc_agent`.
    """

    controls_gap = False
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

    def __init__(self, ttc_star: float):
        self.initial_ttc_star = ttc_star
        gap = min(max(round(1.0 + SCRIPTED_GAP_PER_SECOND * ttc_star), 1),
                  GAP_ACTION_COUNT)
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
    and re-equilibrating at each `Episode` threshold decision creates closing
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


# ---- episodes ----------------------------------------------------------


@dataclass
class EpisodeResult:
    metrics: EpisodeMetrics
    ttc_reward: float
    acc_reward: float
    final_ttc_star: float


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


def _sum_left(values) -> float:
    """``(0.0 + v0) + v1 + ...``, added left to right, as builtin `sum`
    adds floats on Python 3.10 and 3.11; from 3.12 it compensates, so an
    output it sums would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


class Episode:
    """One episode of `policy` on `scenario`, a control interval at a time.

    `decide()` is the control decision at the current tick: encode the
    state, let each present agent learn from the reward of its last
    action, then act and broadcast.  The first decision has nothing to
    learn from; the last one does not act.  `advance()` simulates the next
    interval, running `scan` after each physics step and `score` at its
    end, which sets `done` on the last tick, and `finish()` returns the
    result; `play()` runs every decision and interval before that.  A
    lockstep batch (`accsim.lockstep`) steps the world and scans for many
    episodes at once, then calls `score` and `decide` on each.  In
    ``train`` mode actions are epsilon-greedy and the policy's `acc_agent`
    and `ttc_agent`, where present, learn and end the episode; in ``eval``
    mode actions are greedy and no weights change.
    With `train_acc` False the gap agent still acts and ends the episode but
    learns nothing (the threshold phase of alternating training).
    """

    def __init__(self, scenario: Scenario, policy: ControlPolicy, *,
                 mode: str = "eval", seed: int = 0, train_acc: bool = True):
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        self.train = mode == "train"
        scenario.validate()
        self.scenario, self.policy, self.seed = scenario, policy, seed
        run = scenario.run
        schedule = spawn_schedule(scenario.demand, scenario.geometry,
                                  run.episode_duration, random.Random(seed))
        self.world = World(scenario.geometry, run, schedule, seed)
        self.world.acc_enabled = policy.controls_gap
        self.n_ticks = round(run.episode_duration / run.control_interval)
        self.ttc_every = max(1, round(scenario.agents.ttc_decision_interval
                                      / run.control_interval))

        policy.begin_episode()
        self.ttc_star = policy.initial_ttc_star
        self.world.default_danger_ttc = self.ttc_star
        self.acc_learner = policy.acc_agent if self.train and train_acc else None
        self.ttc_learner = policy.ttc_agent if self.train else None
        self.pending_gap = self.pending_ttc = None  # (state, action) to reward

        self.ticks = 0  # control intervals simulated
        self.done = False
        self.ttc_tick = True  # the first decision sets the threshold too
        self.r_acc = self.r_ttc = 0.0  # rewards of the last interval, window
        self.flagged: set[int] = set()  # followers flagged in this window
        self.window_event_start = len(self.world.events)
        self.completed_start = 0
        self.tally = SafetyTally()
        self.speed_acc = [0.0, 0.0, 0]  # speed sum, |accel| sum, vehicle-steps
        self.step_ttcs: list[float] = []  # closing-pair TTCs, last control step
        self.jerk_sq_sum, self.jerk_samples = 0.0, 0
        self.ttc_reward = self.acc_reward = 0.0

    def decide(self) -> None:
        """One control decision, with the agents' updates in train mode;
        none without gap control, or at the last eval tick (nothing learns)."""
        policy, is_last = self.policy, self.done
        if not policy.controls_gap or (is_last and not self.train):
            return
        world, train = self.world, self.train
        state = encode_traffic_state(world, self.ttc_star)
        if self.acc_learner is not None and self.pending_gap is not None:
            self.acc_learner.store(*self.pending_gap, self.r_acc, state,
                                   is_last)
            self.acc_learner.train()
        if not is_last:
            action, gap = policy.gap_action(state, train)
            _broadcast_gap(world, gap)
            self.pending_gap = (state, action)
        if self.ttc_tick and policy.ttc_agent is not None:
            if self.ttc_learner is not None and self.pending_ttc is not None:
                self.ttc_learner.store(*self.pending_ttc, self.r_ttc, state,
                                       is_last)
                self.ttc_learner.train()
            if not is_last:
                action, self.ttc_star = policy.ttc_action(state, train)
                self.pending_ttc = (state, action)
                _broadcast_ttc(world, self.ttc_star)

    def play(self) -> None:
        """Decide, then advance and decide until `done`."""
        self.decide()
        while not self.done:
            self.advance()
            self.decide()

    def advance(self) -> None:
        """Simulate one control interval and score it."""
        world = self.world
        spc = self.scenario.run.steps_per_control
        for i in range(1, spc + 1):
            world.step()
            self.scan(i == spc)
        self.score()

    def scan(self, control: bool) -> None:
        """The danger scan after one physics step; a `control` step, the
        interval's last, keeps its closing pairs' TTCs for `score`."""
        world = self.world
        self.step_ttcs = _scan_world(
            world, world.time >= self.scenario.run.warmup_duration,
            self.speed_acc, self.flagged, self.ttc_star, control)

    def score(self) -> None:
        """Score the interval that the last `scan` closed."""
        world, run, weights = self.world, self.scenario.run, self.scenario.agents
        interval, ttc_star = run.control_interval, self.ttc_star
        past_warmup, flagged = world.time >= run.warmup_duration, self.flagged
        self.ticks += 1
        self.done = self.ticks == self.n_ticks

        # comfort: jerk of the commanded acceleration, sampled per interval
        jerk_sq_sum, jerk_samples = self.jerk_sq_sum, self.jerk_samples
        equipped_jerk_sq, equipped_n = 0.0, 0
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
        self.jerk_sq_sum, self.jerk_samples = jerk_sq_sum, jerk_samples

        if self.policy.controls_gap:
            completed = world.all_completed[self.completed_start:]
            self.completed_start = len(world.all_completed)
            mean_delay = (_sum_left(d for _, d in completed) / len(completed)
                          if completed else None)
            r_e = reward_acc_efficiency(mean_delay,
                                        self.scenario.geometry.mainline_length,
                                        run.congestion_speed)
            r_s = reward_acc_safety(self.step_ttcs, ttc_star)
            rms_jerk = (math.sqrt(equipped_jerk_sq / equipped_n)
                        if equipped_n else 0.0)
            r_c = reward_acc_comfort(rms_jerk, 2.0 * run.accel_bound / interval)
            self.r_acc = reward_acc_total(r_e, r_s, r_c, weights)
            self.acc_reward += self.r_acc

        self.ttc_tick = self.ticks % self.ttc_every == 0 or self.done
        if self.ttc_tick:
            tally = classify_safety_events(
                flagged, world.events[self.window_event_start:])
            if past_warmup:
                self.tally.fp += tally.fp
                self.tally.fn += tally.fn
            self.r_ttc = reward_ttc(tally, weights)
            self.ttc_reward += self.r_ttc
            flagged.clear()
            self.window_event_start = len(world.events)

    def finish(self) -> EpisodeResult:
        """End the agents' episode in train mode and return the result;
        `MetricsError` if no vehicle completed its traversal after warmup."""
        if self.train:
            for agent in (self.policy.acc_agent, self.policy.ttc_agent):
                if agent is not None:
                    agent.end_episode()
        scenario, world = self.scenario, self.world
        warmup = scenario.run.warmup_duration
        nc = sum(1 for e in world.events
                 if e.kind == EVENT_NEAR_COLLISION and e.time >= warmup)
        self.tally.ac = sum(1 for e in world.events if e.time >= warmup
                            and e.kind == EVENT_ACTUAL_COLLISION)
        delays = [d for t_done, d in world.all_completed if t_done >= warmup]
        if not delays:
            raise MetricsError(
                f"episode degenerate: no vehicle completed traversal "
                f"(seed {self.seed}, scenario {scenario.name})")
        speed_sum, accel_sum, n = self.speed_acc
        metrics = EpisodeMetrics(
            seed=self.seed,
            scenario=scenario.name,
            penetration=scenario.demand.penetration_rate,
            ramp_flow=scenario.demand.ramp_flow,
            near_collisions=nc,
            tally=self.tally,
            mean_speed=speed_sum / n if n else 0.0,
            mean_delay=_sum_left(delays) / len(delays),
            mean_abs_accel=accel_sum / n if n else 0.0,
            mean_sq_jerk=(self.jerk_sq_sum / self.jerk_samples
                          if self.jerk_samples else 0.0),
        )
        return EpisodeResult(metrics, self.ttc_reward, self.acc_reward,
                             self.ttc_star)


def run_episode(scenario: Scenario, policy: ControlPolicy, *,
                mode: str = "eval", seed: int = 0, trajectory_sink=None,
                train_acc: bool = True) -> EpisodeResult:
    """Simulate one `Episode`; `trajectory_sink`, if any, gets the world
    after every physics step, before vehicles leave."""
    episode = Episode(scenario, policy, mode=mode, seed=seed,
                      train_acc=train_acc)
    episode.world.trajectory_sink = trajectory_sink
    episode.play()
    return episode.finish()
