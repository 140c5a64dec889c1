"""The benchmark's workloads.

Each workload is a closed loop in one process: it runs whole rounds of the
same operations (ops) back to back, timing each op, and checks every
round's outputs outside the timed region.  Inputs are made from the
benchmark seed only.

- ``onramp-sweep``: paired-seed evaluation sweeps (op = one episode).
- ``desk-train``: training runs from fresh agents (op = one episode).
- ``onramp-decide``: whole control decisions on captured traffic states
  (op = one decision).
"""

from __future__ import annotations

import copy
import math
import random
from array import array
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from accsim import agents, harness, rlcore, scenario, simcore
from accsim.metrics import MetricsError

import checks
from instrument import Patches
from timing import Reservoir
from tracing import TIMED

perf = time.perf_counter


@dataclass
class Round:
    op_seconds: list[float]
    units: int  # vehicle states handled (vehicle-steps, or vehicles decided)
    failed: int = 0
    outputs: object = None


@dataclass
class Measurement:
    rounds: int = 0
    timed_s: float = 0.0
    op_seconds: Reservoir = field(default_factory=Reservoir)
    round_ops_per_s: array = field(default_factory=lambda: array("d"))
    round_units_per_s: array = field(default_factory=lambda: array("d"))
    vehicle_steps: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return self.op_seconds.count


class Workload:
    """Base: counts vehicle-steps (vehicles present as each physics step
    starts) for as long as the workload is open."""

    name = ""

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = out_root
        self.vehicle_steps = 0
        self.patches = Patches()

        def count_vehicle_steps(step):
            def counted_step(world, *args, **kwargs):
                self.vehicle_steps += world.vehicle_count()
                return step(world, *args, **kwargs)
            return counted_step

        self.patches.wrap(simcore.World, "step", count_vehicle_steps)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> Round:
        raise NotImplementedError

    def check_round(self, r: int, result: Round) -> list[str]:
        return []

    def final_checks(self) -> list[str]:
        return []

    def close(self) -> None:
        self.patches.close()


def measure(workload: Workload, seconds: float | None = None,
            rounds: int | None = None, tracer=None) -> Measurement:
    """Run whole rounds until ``seconds`` of timed work, or exactly
    ``rounds`` rounds; a tracer records only while a round runs."""
    m = Measurement()
    while (m.timed_s < seconds) if rounds is None else (m.rounds < rounds):
        steps0 = workload.vehicle_steps
        if tracer is not None:
            tracer.phase = TIMED
        t0 = perf()
        result = workload.run_round(m.rounds)
        elapsed = perf() - t0
        if tracer is not None:
            tracer.phase = None
        m.timed_s += elapsed
        m.vehicle_steps += workload.vehicle_steps - steps0
        m.op_seconds.extend(result.op_seconds)
        m.round_ops_per_s.append(len(result.op_seconds) / elapsed)
        m.round_units_per_s.append(result.units / elapsed)
        m.failed += result.failed
        m.errors += workload.check_round(m.rounds, result)
        m.rounds += 1
        del result  # free this round's outputs before the next round runs
    return m


# ---- onramp-sweep ----------------------------------------------------------


class OnrampSweep(Workload):
    """One paired seed per round: 3 systems x 2 penetration rates."""

    name = "onramp-sweep"
    SYSTEMS = (harness.PolicySpec("base"),
               harness.PolicySpec("scripted", ttc_star=4.0),
               harness.PolicySpec("saint"))  # untrained, weights from seed 0
    LABELS = ("base", "scripted-ttc4", "saint")
    VALUES = (0.4, 0.8)
    REPEAT_VALUE = 0.8

    def setup(self) -> None:
        self.scenario = scenario.load_builtin("onramp")
        self.first_rows: dict[str, tuple] = {}

    def run_round(self, r: int) -> Round:
        spec = harness.SweepSpec("penetration", self.VALUES, episodes=1,
                                 base_seed=1000 * self.seed + r,
                                 systems=self.SYSTEMS)
        steps0 = self.vehicle_steps
        stamps = [perf()]
        rows = harness.run_sweep(self.scenario, spec,
                                 progress=lambda _msg: stamps.append(perf()))
        return Round(np.diff(stamps).tolist(), self.vehicle_steps - steps0,
                     outputs=(spec, rows))

    def check_round(self, r: int, result: Round) -> list[str]:
        spec, rows = result.outputs
        errors = checks.check_coverage(
            ((row.system, row.value, row.result.metrics.seed) for row in rows),
            self.LABELS, self.VALUES, spec.seeds())
        geometry, run = self.scenario.geometry, self.scenario.run
        for row in rows:
            m = row.result.metrics
            errors += checks.check_episode_bounds(
                m, geometry.mainline_length, run.physics_timestep,
                simcore.FREE_FLOW_SPEED)
            if m.penetration != row.value:
                errors.append(f"{row.system} seed {m.seed}: penetration "
                              f"{m.penetration} != swept {row.value}")
            if r == 0 and row.value == self.REPEAT_VALUE:
                self.first_rows[row.system] = (m.seed, m.csv_row())
        return errors

    def final_checks(self) -> list[str]:
        """Repeat one episode per system under observation: the repeat must
        match its sweep row, and speed and delay must match the recomputed
        figures."""
        point = harness.apply_sweep_value(self.scenario, "penetration",
                                          self.REPEAT_VALUE)
        errors = []
        for spec, label in zip(self.SYSTEMS, self.LABELS):
            seed, row = self.first_rows[label]
            result, observer = observe_episode(point, spec.build(point), seed)
            errors += checks.check_repeat(row, result.metrics.csv_row())
            errors += checks.check_recomputed(result.metrics, observer)
        return errors


def observe_episode(sc, policy, seed: int):
    """Run one evaluation episode while observing every physics step."""
    observer = checks.EpisodeObserver(sc.geometry.mainline_length,
                                      sc.run.warmup_duration,
                                      scenario.ROUTE_THROUGH)

    def observed(step):
        def observed_step(world, *args, **kwargs):
            out = step(world, *args, **kwargs)
            observer.after_step(world)
            return out
        return observed_step

    with Patches() as patches:
        patches.wrap(simcore.World, "step", observed)
        result = agents.run_episode(sc, policy, mode="eval", seed=seed,
                                    trajectory_sink=observer.sink)
    return result, observer


# ---- desk-train ------------------------------------------------------------


class DeskTrain(Workload):
    """One training run of the dual-agent stack from fresh agents per round.

    The replay buffer reaches its 1000-transition threshold after about 9
    episodes, so most of a round's episodes train.  Each run writes one
    checkpoint per agent (at its end) and ``rewards.csv``.
    """

    name = "desk-train"
    EPISODES = 40

    def __init__(self, seed: int, out_root: Path):
        super().__init__(seed, out_root)
        self.stamps: list[float] = []
        self.failures = 0
        self.losses: list[float] = []

        def timed_episodes(run_episode):
            def timed_run_episode(*args, **kwargs):
                self.stamps.append(perf())
                try:
                    return run_episode(*args, **kwargs)
                except MetricsError:
                    self.failures += 1
                    raise
            return timed_run_episode

        def kept_losses(train_step):
            def loss_kept_train_step(*args, **kwargs):
                loss = train_step(*args, **kwargs)
                self.losses.append(loss)
                return loss
            return loss_kept_train_step

        self.patches.wrap(harness, "run_episode", timed_episodes)
        self.patches.wrap(rlcore, "train_step", kept_losses)

    def setup(self) -> None:
        self.scenario = scenario.load_builtin("desk")
        run, cfg = self.scenario.run, self.scenario.agents
        self.ticks = checks.control_ticks(run)
        every = max(1, round(cfg.ttc_decision_interval / run.control_interval))
        self.threshold_ticks = checks.threshold_ticks(self.ticks, every)
        self.out = self.out_root / self.name
        shutil.rmtree(self.out, ignore_errors=True)

    def run_round(self, r: int) -> Round:
        self.stamps, self.failures, self.losses = [], 0, []
        out = self.out / f"round-{r}"
        steps0 = self.vehicle_steps
        result = harness.train(self.scenario, system="saint",
                               episodes=self.EPISODES,
                               seed=1000 * self.seed + r, out_dir=out,
                               checkpoint_every=self.EPISODES)
        end = perf()
        return Round(np.diff(self.stamps + [end]).tolist(),
                     self.vehicle_steps - steps0, self.failures,
                     outputs=(result, out, self.losses))

    def check_round(self, r: int, result: Round) -> list[str]:
        train_result, out, losses = result.outputs
        policy = train_result.policy
        n = self.EPISODES
        errors = []
        if self.scenario.agents.training_schedule != "simultaneous":
            errors.append("desk must train both agents every episode")
        errors += checks.check_agent("acc", policy.acc_agent, n * self.ticks)
        errors += checks.check_agent("ttc", policy.ttc_agent,
                                     n * self.threshold_ticks)
        errors += checks.check_losses(losses)
        for name, agent in (("acc", policy.acc_agent),
                            ("ttc", policy.ttc_agent)):
            path = out / f"{name}_agent.ckpt"
            net, _, _ = rlcore.load_checkpoint(path)
            errors += checks.check_checkpoint(net, agent.net, path)
        completed = len(train_result.episodes)
        if completed != n - result.failed:
            errors.append(f"{completed} episodes completed, {result.failed} "
                          f"failed, of {n}")
        errors += checks.check_reward_rows(out / "rewards.csv", completed)
        shutil.rmtree(out)
        return errors


# ---- onramp-decide -------------------------------------------------------


class OnrampDecide(Workload):
    """Whole control decisions on onramp snapshots under an untrained
    dual-agent stack: ``SNAPSHOTS`` snapshots from each of ``WORLDS`` worlds.

    A decision is what ``run_episode`` does at a control tick, in order:
    encode the traffic state, the gap agent's action and broadcast, the
    threshold agent's action and broadcast.  A round decides once on every
    snapshot; simulating to the snapshots is set-up.  The snapshots sit at
    control ticks spread evenly over the evaluated window, from the end of
    the warm-up to the end of the episode, dealt to the worlds in turn, so
    the vehicle counts, which set a decision's cost, follow those of an
    episode's decisions.  Several worlds keep them close across seeds.
    """

    name = "onramp-decide"
    WORLDS = 8
    SNAPSHOTS = 4

    def setup(self) -> None:
        sc = scenario.load_builtin("onramp")
        self.scenario = sc
        self.policy = agents.make_adaptive_policy(sc)
        self.worlds = []
        for k in range(self.WORLDS):
            self.worlds += self.capture(7000 + self.WORLDS * self.seed + k,
                                        self.snapshot_steps(k))
        self.policy.begin_episode()
        self.ttc_star = self.policy.initial_ttc_star
        self.round_vehicles = sum(w.vehicle_count() for w in self.worlds)
        geometry = sc.geometry
        features = [checks.expected_features(
            w.lanes, scenario.RAMP_LANE, geometry.mainline_length / 1000.0,
            max(geometry.ramp_length, 1.0) / 1000.0, agents.MEAN_TTC_CAP)
            for w in self.worlds]
        self.expected = {col: np.array([f[col] for f in features])
                         for col in features[0]}
        self.previous_broadcast = None

    def snapshot_steps(self, k: int) -> list[int]:
        """Physics steps of world ``k``'s snapshots: every ``WORLDS``-th of
        ``WORLDS * SNAPSHOTS`` control ticks evenly spaced over the
        evaluated window."""
        run = self.scenario.run
        spc = run.steps_per_control
        first = math.ceil(run.warmup_duration / run.physics_timestep / spc)
        last = round(run.episode_duration / run.physics_timestep) // spc
        n = self.WORLDS * self.SNAPSHOTS
        return [spc * (first + int((i + 0.5) * (last - first) / n))
                for i in range(k, n, self.WORLDS)]

    def capture(self, world_seed: int, steps: list[int]) -> list:
        """Snapshots of one world driven by the stack at every control tick,
        taken after the decisions at ``steps``."""
        sc = self.scenario
        schedule = scenario.spawn_schedule(sc.demand, sc.geometry,
                                           sc.run.episode_duration,
                                           random.Random(world_seed))
        world = simcore.World(sc.geometry, sc.run, schedule, world_seed)
        world.acc_enabled = self.policy.controls_gap
        self.policy.begin_episode()
        self.ttc_star = self.policy.initial_ttc_star
        self.decide(world)
        spc = sc.run.steps_per_control
        snapshots = []
        while len(snapshots) < len(steps):
            world.step()
            if world.step_index % spc == 0:
                self.decide(world)
            if world.step_index in steps:
                snapshots.append(copy.deepcopy(world))
        return snapshots

    def decide(self, world):
        state = agents.encode_traffic_state(world, self.ttc_star)
        gap_index, gap = self.policy.gap_action(state, False)
        agents._broadcast_gap(world, gap)
        ttc_index, self.ttc_star = self.policy.ttc_action(state, False)
        agents._broadcast_ttc(world, self.ttc_star)
        return state, gap_index, gap, ttc_index

    def run_round(self, r: int) -> Round:
        times, records = [], []
        for world in self.worlds:
            ttc_in = self.ttc_star
            t0 = perf()
            decision = self.decide(world)
            times.append(perf() - t0)
            records.append((ttc_in, *decision, self.ttc_star))
        return Round(times, self.round_vehicles, outputs=records)

    def check_round(self, r: int, result: Round) -> list[str]:
        ttc_in, states, gap_idx, gaps, ttc_idx, ttc_out = zip(*result.outputs)
        states = np.array(states)
        gap_idx, ttc_idx = np.array(gap_idx), np.array(ttc_idx)
        errors = checks.check_features(
            states, {**self.expected, checks.FEATURE_TTC_STAR: ttc_in})
        for name, agent, actions in (("gap", self.policy.acc_agent, gap_idx),
                                     ("threshold", self.policy.ttc_agent,
                                      ttc_idx)):
            q = checks.q_values(checks.net_arrays(agent.net), states)
            errors += checks.check_argmax(q, actions, name)
        if not np.array_equal(np.array(gaps), gap_idx + 1.0):
            errors.append("commanded gap is not action index + 1 m")
        errors += checks.check_threshold_filter(
            ttc_idx, ttc_out, agents.AdaptivePolicy.BROADCAST_ALPHA, 0.5,
            self.previous_broadcast)
        self.previous_broadcast = ttc_out[-1]
        for i, (world, gap, sent) in enumerate(zip(self.worlds, gaps,
                                                   ttc_out)):
            errors += checks.check_broadcast(world.lanes, gap, sent,
                                             f"snapshot {i}")
        return errors


WORKLOADS = {cls.name: cls for cls in (OnrampSweep, DeskTrain, OnrampDecide)}
