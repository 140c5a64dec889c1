"""Experiment harness: training runs, paired-seed sweeps, latency probes and
space-time trajectory capture, all emitted as deterministic CSV files.

Every sweep evaluates compared systems on identical seed lists (paired
seeds), so per-seed differences are attributable to the controller.  CSV
files open with comment lines embedding the scenario hash and the seed list.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from .agents import (
    AdaptivePolicy,
    ControlPolicy,
    Episode,
    EpisodeResult,
    NoAccPolicy,
    ScriptedGapPolicy,
    _sum_left,
    make_adaptive_policy,
    make_fixed_ttc_policy,
    run_episode,
)
from .metrics import EPISODE_CSV_COLUMNS, TRAJECTORY_CSV_COLUMNS, MetricsError
from .scenario import Scenario

WORKERS_ENV = "ACCSIM_WORKERS"

# Sweepable scenario parameters -> how they are applied to a Scenario.
SWEEP_PARAMETERS = (
    "ttc_star_fixed",
    "penetration",
    "merge_flow",
    "exit_flow",
    "update_interval",
)

# Most episodes one lockstep batch steps at once.  A batch keeps every
# episode live, its event log included, so its memory grows with its size,
# while past about 20 episodes (some 1,700 vehicles on `onramp`) a larger
# batch saves little time per episode.
MAX_BATCH = 20

# Danger-threshold pins cycled through the gap-agent phases of
# alternating training (domain randomization over the threshold).
ALTERNATING_TTC_PINS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


class HarnessError(RuntimeError):
    """Raised for invalid sweep/training requests."""


def config_hash(scenario: Scenario) -> str:
    """Stable short hash of a scenario's full configuration."""
    digest = hashlib.sha256(repr(scenario).encode()).hexdigest()
    return digest[:12]


def worker_count() -> int:
    """Worker processes for sweeps and `train_many`: `ACCSIM_WORKERS` if
    set, else the cores this process may run on."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return len(os.sched_getaffinity(0))
    try:
        n = int(raw)
    except ValueError as exc:
        raise HarnessError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    return max(1, n)


def _pool_imap(fn, tasks: list):
    """Yield ``fn(task)`` for every task, in completion order, over a
    process pool of at most `worker_count()` workers (none for one)."""
    workers = min(worker_count(), len(tasks))
    if workers > 1:
        # imported here: a run on one worker never loads multiprocessing
        from multiprocessing import get_context

        with get_context("spawn").Pool(workers) as pool:
            yield from pool.imap_unordered(fn, tasks)
    else:
        yield from map(fn, tasks)


# ---- policy specifications (picklable across worker processes) ---------

# The policy kinds that read `PolicySpec.ttc_star`, each with the prefix of
# its sweep label; every other kind ignores the threshold.
FIXED_THRESHOLD_KINDS = {"scripted": "scripted-ttc", "fixed-ttc": "fixed-ttc"}


def agent_checkpoints(policy: ControlPolicy, directory) -> list:
    """(agent, checkpoint path in `directory`) for each agent `policy`
    has: the gap agent (``acc``) first, then the threshold agent (``ttc``)."""
    directory = Path(directory)
    return [(agent, directory / f"{name}_agent.ckpt") for name, agent in
            (("acc", policy.acc_agent), ("ttc", policy.ttc_agent))
            if agent is not None]


@dataclass(frozen=True)
class PolicySpec:
    """Recipe for building a ControlPolicy inside a worker process.

    With a `checkpoint_dir`, every agent of the built policy is restored
    from its file there (`agent_checkpoints`); an absent file is an error.
    """

    kind: str  # "base" | "scripted" | "fixed-ttc" | "saint"
    ttc_star: float = 4.0
    checkpoint_dir: Optional[str] = None

    def build(self, scenario: Scenario, seed: int = 0) -> ControlPolicy:
        if self.kind == "base":
            return NoAccPolicy()
        if self.kind == "scripted":
            return ScriptedGapPolicy(self.ttc_star)
        if self.kind == "fixed-ttc":
            policy = make_fixed_ttc_policy(scenario, seed=seed,
                                           ttc_star=self.ttc_star)
        elif self.kind == "saint":
            policy = make_adaptive_policy(scenario, seed=seed)
        else:
            raise HarnessError(f"unknown policy kind {self.kind!r}")
        if self.checkpoint_dir is not None:
            for agent, path in agent_checkpoints(policy, self.checkpoint_dir):
                if not path.exists():
                    raise HarnessError(f"missing checkpoint {path}")
                agent.restore(path)
        return policy


def apply_sweep_value(scenario: Scenario, parameter: str, value: float) -> Scenario:
    """Return the scenario with one swept parameter applied."""
    if parameter == "ttc_star_fixed":
        return scenario  # consumed by the policy, not the scenario
    if parameter == "penetration":
        return scenario.replace(
            demand=replace(scenario.demand, penetration_rate=float(value)))
    if parameter == "merge_flow":
        if scenario.geometry.ramp_kind != "on_ramp":
            raise HarnessError("merge_flow sweeps need an on-ramp scenario")
        return scenario.replace(
            demand=replace(scenario.demand, ramp_flow=float(value)))
    if parameter == "exit_flow":
        if scenario.geometry.ramp_kind != "off_ramp":
            raise HarnessError("exit_flow sweeps need an off-ramp scenario")
        return scenario.replace(
            demand=replace(scenario.demand, ramp_flow=float(value)))
    if parameter == "update_interval":
        return scenario.replace(
            run=replace(scenario.run, control_interval=float(value)))
    raise HarnessError(
        f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a parameter, its values, and the systems to compare."""

    parameter: str
    values: tuple
    episodes: int = 20
    base_seed: int = 100
    systems: tuple = (PolicySpec("base"),)

    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.episodes)]


@dataclass
class SweepRow:
    """One evaluated episode within a sweep."""

    system: str
    value: float
    result: EpisodeResult


def _run_chunk(tasks: list) -> list[tuple]:
    """Worker entry: (key, result) for each task of one chunk, whose tasks
    share geometry and run configuration.  A chunk of one plays its
    `Episode` alone; a larger one steps in lockstep."""
    episodes = [Episode(scenario, spec.build(scenario), mode="eval",
                        seed=seed) for _, scenario, spec, seed in tasks]
    if len(episodes) == 1:
        episodes[0].play()
    else:
        from .lockstep import run_lockstep

        run_lockstep(episodes)
    out = []
    for (key, *_), episode in zip(tasks, episodes):
        try:
            out.append((key, episode.finish()))
        except MetricsError as exc:
            label, value, seed = key
            raise MetricsError(
                f"sweep task {label} {value:g} seed {seed}: {exc}") from None
    return out


def _chunks(tasks: list, workers: int) -> list[list]:
    """Tasks that share geometry and run configuration, split into
    contiguous chunks of near-equal size per such group: one per worker,
    or a multiple of `workers` where that keeps each chunk within
    `MAX_BATCH`."""
    groups: dict = {}
    for task in tasks:
        scenario = task[1]
        groups.setdefault((scenario.geometry, scenario.run), []).append(task)
    chunks = []
    for group in groups.values():
        rounds = -(-len(group) // (workers * MAX_BATCH))  # ceiling
        n = min(workers * rounds, len(group))
        size, extra = divmod(len(group), n)
        start = 0
        for i in range(n):
            stop = start + size + (i < extra)
            chunks.append(group[start:stop])
            start = stop
    return chunks


def _system_label(spec: PolicySpec) -> str:
    prefix = FIXED_THRESHOLD_KINDS.get(spec.kind)
    return spec.kind if prefix is None else f"{prefix}{spec.ttc_star:g}"


def _at_penetration(result: EpisodeResult, value: float) -> EpisodeResult:
    """A copy of `result` that records penetration `value`."""
    return replace(result, metrics=replace(result.metrics, penetration=value))


def run_sweep(scenario: Scenario, sweep: SweepSpec,
              progress: Optional[Callable[[str], None]] = None) -> list[SweepRow]:
    """Evaluate every (system, value, seed) combination with paired seeds.

    Every system is built once before any episode runs, so a missing
    checkpoint fails first.  Each distinct episode runs once: in a
    `penetration` sweep a system that does not control the gap (`base`)
    actuates no vehicle, so it runs once per seed, at the first value, and
    that result fills the row of every value with `metrics.penetration` set
    to the row's value.  A `ttc_star_fixed` sweep rejects a system without a fixed
    threshold, since its values are the systems' own thresholds.
    Tasks that share geometry and run configuration are split into one
    chunk per worker, and each worker steps its chunk's episodes in
    lockstep (`accsim.lockstep`); a chunk of one plays its `Episode` alone.
    Either way each row equals its episode run on its own.  `progress` gets
    one message per row, as each chunk finishes.
    """
    if not sweep.values:
        raise HarnessError("a sweep needs at least one value")
    if sweep.episodes < 1:
        raise HarnessError(f"a sweep needs episodes >= 1, got {sweep.episodes}")
    values = [float(v) for v in sweep.values]
    for i, value in enumerate(values):
        if value in values[:i]:  # its rows would collapse into one
            raise HarnessError(f"sweep value {value:g} is listed twice")
    if sweep.parameter == "ttc_star_fixed":
        for spec in sweep.systems:
            if spec.kind not in FIXED_THRESHOLD_KINDS:
                raise HarnessError(
                    f"ttc_star_fixed sweeps need a fixed-threshold system "
                    f"({' or '.join(FIXED_THRESHOLD_KINDS)}), not {spec.kind!r}")
    tasks = []
    fills = {}  # task key -> the keys of the rows its result fills
    keys = set()
    for spec in sweep.systems:
        policy = spec.build(scenario)  # fails here, before any episode
        shared = sweep.parameter == "penetration" and not policy.controls_gap
        for value in values:
            point_scenario = apply_sweep_value(scenario, sweep.parameter, value)
            point_spec = spec
            if sweep.parameter == "ttc_star_fixed":
                point_spec = replace(spec, ttc_star=value)
            label = _system_label(point_spec)
            for seed in sweep.seeds():
                key = (label, value, seed)
                if key in keys:  # its rows would collapse into one
                    raise HarnessError(
                        f"two systems share the sweep label {label!r}")
                keys.add(key)
                if shared and value != values[0]:
                    fills[(label, values[0], seed)].append(key)
                else:
                    fills[key] = [key]
                    tasks.append((key, point_scenario, point_spec, seed))
    outputs = {}
    start = time.perf_counter()
    done = 0
    for results in _pool_imap(_run_chunk, _chunks(tasks, worker_count())):
        done += len(results)
        eta = (time.perf_counter() - start) / done * (len(tasks) - done)
        for key, result in results:
            for row_key in fills[key]:
                outputs[row_key] = (result if row_key == key
                                    else _at_penetration(result, row_key[1]))
                if progress:
                    progress(f"[{len(outputs)}/{len(keys)}] {row_key[0]} "
                             f"{row_key[1]:g} seed {row_key[2]}, "
                             f"eta {eta:.0f}s")
    rows = []
    for key in sorted(outputs):  # deterministic merge order
        label, value, seed = key
        rows.append(SweepRow(label, value, outputs[key]))
    return rows


# ---- aggregation -------------------------------------------------------


def _pstdev(values: Sequence[float]) -> float:
    """Population standard deviation: the square root of the mean squared
    deviation about `statistics.fmean`, summed left to right, so every
    interpreter gives the same value (`statistics.pstdev` does not)."""
    mean = statistics.fmean(values)
    return math.sqrt(_sum_left((x - mean) * (x - mean) for x in values)
                     / len(values))


def summarize(rows: Sequence[SweepRow]) -> list[dict]:
    """Mean +/- std per (system, value) over seeds."""
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.system, row.value), []).append(row)
    out = []
    for (system, value), grp in sorted(groups.items()):
        ncs = [r.result.metrics.near_collisions for r in grp]
        speeds = [r.result.metrics.mean_speed for r in grp]
        delays = [r.result.metrics.mean_delay for r in grp]
        out.append({
            "system": system,
            "value": value,
            "episodes": len(grp),
            "nc_mean": statistics.fmean(ncs),
            "nc_std": _pstdev(ncs),
            "speed_mean": statistics.fmean(speeds),
            "speed_std": _pstdev(speeds),
            "delay_mean": statistics.fmean(delays),
        })
    return out


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        rk = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                rk[order[k]] = avg
            i = j + 1
        return rk
    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


# ---- CSV emission ------------------------------------------------------


def write_csv(path, header_comments: list[str], columns: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _sweep_comments(scenario: Scenario, sweep: SweepSpec) -> list[str]:
    """The comment lines that open both CSV files of a sweep."""
    return [
        f"config={config_hash(scenario)}",
        f"seeds={','.join(str(s) for s in sweep.seeds())}",
        f"parameter={sweep.parameter}",
    ]


def write_sweep_csv(path, scenario: Scenario, sweep: SweepSpec,
                    rows: Sequence[SweepRow]) -> None:
    columns = ("system", "parameter", "value") + EPISODE_CSV_COLUMNS
    data = [[r.system, sweep.parameter, r.value] + r.result.metrics.csv_row()
            for r in rows]
    write_csv(path, _sweep_comments(scenario, sweep), columns, data)


def write_summary_csv(path, scenario: Scenario, sweep: SweepSpec,
                      rows: Sequence[SweepRow]) -> list[dict]:
    """Write `summarize(rows)` and return it."""
    comments = _sweep_comments(scenario, sweep) + [
        "aggregates are mean and population std over seeds"]
    columns = ("system", "value", "episodes", "nc_mean", "nc_std",
               "speed_mean", "speed_std", "delay_mean")
    summary = summarize(rows)
    data = [[s["system"], s["value"], s["episodes"],
             f"{s['nc_mean']:.6f}", f"{s['nc_std']:.6f}",
             f"{s['speed_mean']:.6f}", f"{s['speed_std']:.6f}",
             f"{s['delay_mean']:.6f}"] for s in summary]
    write_csv(path, comments, columns, data)
    return summary


# ---- training ----------------------------------------------------------


@dataclass
class TrainResult:
    policy: ControlPolicy
    episodes: list[EpisodeResult] = field(default_factory=list)


def train(scenario: Scenario, *, system: str = "saint", episodes: int = 300,
          seed: int = 0, out_dir=None, checkpoint_every: int = 50,
          resume: bool = False, fixed_ttc_star: float = 4.0,
          progress: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Train the selected system and optionally persist checkpoints/rewards.

    Episode seeds are ``seed*10_000 + episode`` so distinct training seeds
    see disjoint traffic realizations.  With an ``out_dir``, every
    ``checkpoint_every`` episodes and after the last one the checkpoints are
    saved and then the reward rows of the episodes since the last save are
    appended to ``rewards.csv``, so its rows never describe learning the
    checkpoints lack.  With ``resume`` and an ``out_dir`` containing
    checkpoints, training restarts from the saved weights and epsilon state,
    numbering episodes on from the last row of ``rewards.csv``.
    """
    if checkpoint_every < 1:
        raise HarnessError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")
    policy = PolicySpec(system, ttc_star=fixed_ttc_star).build(scenario, seed)
    if policy.acc_agent is None:
        raise HarnessError(f"system {system!r} is not trainable")
    out = Path(out_dir) if out_dir is not None else None
    checkpoints = []  # (agent, path) for each agent the policy has
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        checkpoints = agent_checkpoints(policy, out)
    rewards_path = out / "rewards.csv" if out is not None else None
    start_ep = 0
    if resume and checkpoints and checkpoints[0][1].exists():  # gap agent's
        for agent, path in checkpoints:
            if path.exists():
                agent.restore(path)
        if rewards_path.exists():
            with open(rewards_path, newline="") as fh:
                rows = list(csv.reader(ln for ln in fh
                                       if ln.strip() and not ln.startswith("#")))
            if len(rows) > 1:  # past the header: number on from the last row
                start_ep = int(rows[-1][0]) + 1
    if out is not None and start_ep == 0:
        comments = [
            f"config={config_hash(scenario)}",
            f"training_seed={seed}",
            f"system={system}",
        ]
        write_csv(rewards_path, comments,
                  ("episode", "seed", "ttc_reward", "acc_reward",
                   "near_collisions", "mean_speed", "final_ttc_star"), [])

    schedule = scenario.agents.training_schedule
    alternating = (schedule == "alternating"
                   and policy.ttc_agent is not None)
    result = TrainResult(policy)
    unsaved_rows = []  # reward rows of the episodes since the last save
    for offset in range(episodes):
        ep = start_ep + offset
        ep_seed = seed * 10_000 + ep
        episode_policy, train_acc = policy, True
        if alternating and ep % 2 == 0:
            # Gap-agent episodes run with the threshold pinned, cycling the
            # pin over the plausible range so the gap agent generalizes
            # across danger thresholds instead of co-adapting to a single
            # one; threshold-agent episodes run against the frozen gap
            # agent.  Each agent then learns in a quasi-stationary
            # environment.
            pin = ALTERNATING_TTC_PINS[(ep // 2) % len(ALTERNATING_TTC_PINS)]
            episode_policy = AdaptivePolicy(policy.acc_agent,
                                            initial_ttc_star=pin)
        elif alternating:
            train_acc = False
        try:
            res = run_episode(scenario, episode_policy, mode="train",
                              seed=ep_seed, train_acc=train_acc)
        except MetricsError:
            # a fully gridlocked exploratory episode yields no completions;
            # skip its metrics but keep the learned experience
            pass
        else:
            result.episodes.append(res)
            unsaved_rows.append([ep, ep_seed, f"{res.ttc_reward:.6f}",
                                 f"{res.acc_reward:.6f}",
                                 res.metrics.near_collisions,
                                 f"{res.metrics.mean_speed:.6f}",
                                 f"{res.final_ttc_star:g}"])
            if progress and (ep % 10 == 0 or offset == episodes - 1):
                progress(f"episode {ep}: ttc_reward={res.ttc_reward:.1f} "
                         f"acc_reward={res.acc_reward:.1f}")
        if out is not None and ((offset + 1) % checkpoint_every == 0
                                or offset == episodes - 1):
            for agent, path in checkpoints:
                agent.save(path)
            with open(rewards_path, "a", newline="") as fh:
                csv.writer(fh).writerows(unsaved_rows)
            unsaved_rows.clear()
    return result


def _train_task(task) -> tuple:
    """Worker entry: one training run of `train_many`."""
    index, scenario, seed, kwargs = task
    return index, train(scenario, seed=seed, **kwargs)


def train_many(scenario: Scenario, seeds: Sequence[int], *,
               system: str = "saint", episodes: int = 300,
               fixed_ttc_star: float = 4.0) -> list[TrainResult]:
    """`train` once per seed, in memory, over the worker pool.

    The runs share nothing, so each result equals that of ``train(scenario,
    seed=s, ...)``; results come back in the order of `seeds`.
    """
    kwargs = dict(system=system, episodes=episodes,
                  fixed_ttc_star=fixed_ttc_star)
    tasks = [(i, scenario, seed, kwargs) for i, seed in enumerate(seeds)]
    results = dict(_pool_imap(_train_task, tasks))
    return [results[i] for i in range(len(tasks))]


# ---- latency and space-time capture ------------------------------------


def measure_latency(scenario: Scenario, policy: ControlPolicy, *,
                    min_decisions: int = 1000, base_seed: int = 100) -> list[float]:
    """Per-decision latencies (ms) over as many whole eval episodes as
    `min_decisions` needs.  Each sample times one acting `Episode.decide()`:
    state encoding, the gap and threshold agents and both broadcasts."""
    if min_decisions < 1:
        raise HarnessError(f"min_decisions must be >= 1, got {min_decisions}")
    if not policy.controls_gap:
        raise HarnessError("a policy without gap control makes no decision")
    latencies: list[float] = []
    seed = base_seed
    while len(latencies) < min_decisions:
        episode = Episode(scenario, policy, mode="eval", seed=seed)
        while not episode.done:
            t0 = time.perf_counter()
            episode.decide()
            latencies.append((time.perf_counter() - t0) * 1e3)
            episode.advance()
        seed += 1
    return latencies


def capture_spacetime(scenario: Scenario, policy: ControlPolicy, *,
                      seed: int = 0, out_path=None) -> list:
    """Per-step trajectory rows for space-time diagrams; optionally CSV."""
    from .metrics import TrajectoryRow

    rows: list[TrajectoryRow] = []

    def sink(world):
        for lid in world.lane_ids:
            leader = None
            for veh in world.lanes[lid]:
                gap = (leader.x - leader.length - veh.x
                       if leader is not None else math.inf)
                rows.append(TrajectoryRow(world.time, veh.id, lid, veh.x,
                                          veh.v, veh.a, gap, veh.equipped))
                leader = veh

    run_episode(scenario, policy, mode="eval", seed=seed, trajectory_sink=sink)
    if out_path is not None:
        comments = [f"config={config_hash(scenario)}", f"seeds={seed}"]
        data = [[f"{r.time:.1f}", r.id, r.lane, f"{r.position:.3f}",
                 f"{r.speed:.3f}", f"{r.accel:.3f}",
                 "inf" if math.isinf(r.gap) else f"{r.gap:.3f}",
                 int(r.equipped)] for r in rows]
        write_csv(out_path, comments, TRAJECTORY_CSV_COLUMNS, data)
    return rows
