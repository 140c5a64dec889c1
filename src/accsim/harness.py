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
from copy import deepcopy
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Optional, Sequence

from .agents import (
    AdaptivePolicy,
    ControlPolicy,
    EpisodeResult,
    NoAccPolicy,
    ScriptedGapPolicy,
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
        with get_context("spawn").Pool(workers) as pool:
            yield from pool.imap_unordered(fn, tasks)
    else:
        yield from map(fn, tasks)


# ---- policy specifications (picklable across worker processes) ---------

# The policy kinds that read `PolicySpec.ttc_star`, each with the prefix of
# its sweep label; every other kind ignores the threshold.
FIXED_THRESHOLD_KINDS = {"scripted": "scripted-ttc", "fixed-ttc": "fixed-ttc"}

# The kinds that read each swept parameter not every kind reads; every kind
# reads the parameters left out.  A kind that does not read the swept
# parameter runs the same episode at every value.  `base` actuates no
# vehicle, so which vehicles are equipped never reaches its episode; the
# only trace of the penetration rate is `EpisodeMetrics.penetration`, which
# `run_sweep` sets on each row it fills from a shared episode.
PARAMETER_READERS = {
    "ttc_star_fixed": frozenset(FIXED_THRESHOLD_KINDS),
    "penetration": frozenset({"scripted", "fixed-ttc", "saint"}),
}


@dataclass(frozen=True)
class PolicySpec:
    """Recipe for building a ControlPolicy inside a worker process."""

    kind: str  # "base" | "scripted" | "fixed-ttc" | "saint"
    ttc_star: float = 4.0
    ttc_checkpoint: Optional[str] = None
    acc_checkpoint: Optional[str] = None

    def build(self, scenario: Scenario) -> ControlPolicy:
        if self.kind == "base":
            return NoAccPolicy()
        if self.kind == "scripted":
            return ScriptedGapPolicy(self.ttc_star)
        if self.kind == "fixed-ttc":
            policy = make_fixed_ttc_policy(scenario, ttc_star=self.ttc_star)
        elif self.kind == "saint":
            policy = make_adaptive_policy(scenario)
        else:
            raise HarnessError(f"unknown policy kind {self.kind!r}")
        for agent, path in ((policy.acc_agent, self.acc_checkpoint),
                            (policy.ttc_agent, self.ttc_checkpoint)):
            if agent is not None and path:
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
    parameter: str
    value: float
    result: EpisodeResult


def _run_task(task) -> tuple:
    """Worker entry: evaluate one (system, point, seed) episode."""
    key, scenario, spec, seed = task
    policy = spec.build(scenario)
    try:
        result = run_episode(scenario, policy, mode="eval", seed=seed)
    except MetricsError as exc:
        label, value = key[:2]
        raise MetricsError(
            f"sweep task {label} {value:g} seed {seed}: {exc}") from None
    return key, result


def _system_label(spec: PolicySpec) -> str:
    prefix = FIXED_THRESHOLD_KINDS.get(spec.kind)
    return spec.kind if prefix is None else f"{prefix}{spec.ttc_star:g}"


def _at_penetration(result: EpisodeResult, value: float) -> EpisodeResult:
    """A copy of `result` that records penetration `value`."""
    out = deepcopy(result)
    out.metrics.penetration = value
    return out


def run_sweep(scenario: Scenario, sweep: SweepSpec,
              progress: Optional[Callable[[str], None]] = None) -> list[SweepRow]:
    """Evaluate every (system, value, seed) combination with paired seeds.

    Each distinct episode runs once.  A system that does not read the swept
    parameter (`PARAMETER_READERS`) would run the same episode at every
    value: in a `penetration` sweep `base` actuates no vehicle, so it runs
    once per seed, at the first value, and that result fills the row of
    every value with `metrics.penetration` set to the row's value.  A
    `ttc_star_fixed` sweep rejects such a system instead, since its values
    are the systems' own thresholds.  `progress` gets one message per row.
    """
    values = [float(v) for v in sweep.values]
    for i, value in enumerate(values):
        if value in values[:i]:  # its rows would collapse into one
            raise HarnessError(f"sweep value {value:g} is listed twice")
    readers = PARAMETER_READERS.get(sweep.parameter)
    if sweep.parameter == "ttc_star_fixed":
        for spec in sweep.systems:
            if spec.kind not in readers:
                raise HarnessError(
                    f"ttc_star_fixed sweeps need a fixed-threshold system "
                    f"({' or '.join(FIXED_THRESHOLD_KINDS)}), not {spec.kind!r}")
    tasks = []
    fills = {}  # task key -> the keys of the rows its result fills
    keys = set()
    for spec in sweep.systems:
        shared = readers is not None and spec.kind not in readers
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
    for done, (key, result) in enumerate(_pool_imap(_run_task, tasks), 1):
        eta = (time.perf_counter() - start) / done * (len(tasks) - done)
        for row_key in fills[key]:
            outputs[row_key] = (result if row_key == key
                                else _at_penetration(result, row_key[1]))
            if progress:
                progress(f"[{len(outputs)}/{len(keys)}] {row_key[0]} "
                         f"{row_key[1]:g} seed {row_key[2]}, eta {eta:.0f}s")
    rows = []
    for key in sorted(outputs):  # deterministic merge order
        label, value, seed = key
        rows.append(SweepRow(label, sweep.parameter, value, outputs[key]))
    return rows


# ---- aggregation -------------------------------------------------------


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
            "nc_std": statistics.pstdev(ncs) if len(ncs) > 1 else 0.0,
            "speed_mean": statistics.fmean(speeds),
            "speed_std": statistics.pstdev(speeds) if len(speeds) > 1 else 0.0,
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


def paired_t_pvalue(diffs: Sequence[float]) -> float:
    """One-sided paired t-test p-value for mean(diffs) < 0.

    Uses the t CDF via the regularized incomplete beta function.
    """
    n = len(diffs)
    if n < 2:
        raise HarnessError("paired test needs at least two pairs")
    mean = statistics.fmean(diffs)
    sd = statistics.stdev(diffs)
    if sd == 0.0:
        return 0.0 if mean < 0 else 1.0
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    # P(T <= t); for t<0 this is 0.5 * I_{df/(df+t^2)}(df/2, 1/2)
    x = df / (df + t * t)
    tail = 0.5 * _reg_inc_beta(df / 2.0, 0.5, x)
    return tail if t < 0 else 1.0 - tail


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float, max_iter: int = 200,
             eps: float = 1e-12) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-30:
        d = 1e-30
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-30:
            d = 1e-30
        c = 1.0 + aa / c
        if abs(c) < 1e-30:
            c = 1e-30
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-30:
            d = 1e-30
        c = 1.0 + aa / c
        if abs(c) < 1e-30:
            c = 1e-30
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


# ---- CSV emission ------------------------------------------------------


def _write_csv(path, header_comments: list[str], columns: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_sweep_csv(path, scenario: Scenario, sweep: SweepSpec,
                    rows: Sequence[SweepRow]) -> None:
    comments = [
        f"config={config_hash(scenario)}",
        f"seeds={','.join(str(s) for s in sweep.seeds())}",
        f"parameter={sweep.parameter}",
    ]
    columns = ("system", "parameter", "value") + EPISODE_CSV_COLUMNS
    data = [[r.system, r.parameter, r.value] + r.result.metrics.csv_row()
            for r in rows]
    _write_csv(path, comments, columns, data)


def write_summary_csv(path, scenario: Scenario, sweep: SweepSpec,
                      rows: Sequence[SweepRow]) -> None:
    comments = [
        f"config={config_hash(scenario)}",
        f"seeds={','.join(str(s) for s in sweep.seeds())}",
        f"parameter={sweep.parameter}",
        "aggregates are mean and population std over seeds",
    ]
    columns = ("system", "value", "episodes", "nc_mean", "nc_std",
               "speed_mean", "speed_std", "delay_mean")
    data = [[s["system"], s["value"], s["episodes"],
             f"{s['nc_mean']:.6f}", f"{s['nc_std']:.6f}",
             f"{s['speed_mean']:.6f}", f"{s['speed_std']:.6f}",
             f"{s['delay_mean']:.6f}"] for s in summarize(rows)]
    _write_csv(path, comments, columns, data)


# ---- training ----------------------------------------------------------


@dataclass
class TrainResult:
    policy: ControlPolicy
    episodes: list[EpisodeResult] = field(default_factory=list)
    ttc_rewards: list[float] = field(default_factory=list)
    acc_rewards: list[float] = field(default_factory=list)


def train(scenario: Scenario, *, system: str = "saint", episodes: int = 300,
          seed: int = 0, out_dir=None, checkpoint_every: int = 50,
          resume: bool = False, fixed_ttc_star: float = 4.0,
          progress: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Train the selected system and optionally persist checkpoints/rewards.

    Episode seeds are ``seed*10_000 + episode`` so distinct training seeds
    see disjoint traffic realizations.  With ``resume`` and an ``out_dir``
    containing checkpoints, training restarts from the saved weights and
    epsilon state.
    """
    if system == "saint":
        policy = make_adaptive_policy(scenario, seed=seed)
    elif system == "fixed-ttc":
        policy = make_fixed_ttc_policy(scenario, seed=seed,
                                       ttc_star=fixed_ttc_star)
    else:
        raise HarnessError(f"system {system!r} is not trainable")
    out = Path(out_dir) if out_dir is not None else None
    checkpoints = []  # (agent, path) for each agent the policy has
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        checkpoints = [(agent, out / f"{name}_agent.ckpt") for name, agent in
                       (("acc", policy.acc_agent), ("ttc", policy.ttc_agent))
                       if agent is not None]
    rewards_path = out / "rewards.csv" if out is not None else None
    start_ep = 0
    if resume and out is not None and (out / "acc_agent.ckpt").exists():
        for agent, path in checkpoints:
            if path.exists():
                agent.restore(path)
        if rewards_path.exists():
            with open(rewards_path) as fh:
                lines = [ln for ln in fh
                         if ln.strip() and not ln.startswith("#")]
            start_ep = max(0, len(lines) - 1)  # minus the header row

    schedule = scenario.agents.training_schedule
    alternating = (schedule == "alternating"
                   and policy.ttc_agent is not None)
    result = TrainResult(policy)
    reward_rows = []
    for offset in range(episodes):
        ep = start_ep + offset
        ep_seed = seed * 10_000 + ep
        try:
            if alternating and ep % 2 == 0:
                # Gap-agent episodes run with the threshold pinned, cycling
                # the pin over the plausible range so the gap agent
                # generalizes across danger thresholds instead of
                # co-adapting to a single one; threshold-agent episodes run
                # against the frozen gap agent.  Each agent then learns in
                # a quasi-stationary environment.
                pin = ALTERNATING_TTC_PINS[(ep // 2) % len(ALTERNATING_TTC_PINS)]
                pinned = AdaptivePolicy(policy.acc_agent, initial_ttc_star=pin)
                res = run_episode(scenario, pinned, mode="train", seed=ep_seed)
            elif alternating:
                res = run_episode(scenario, policy, mode="train", seed=ep_seed,
                                  train_acc=False)
            else:
                res = run_episode(scenario, policy, mode="train", seed=ep_seed)
        except MetricsError:
            # a fully gridlocked exploratory episode yields no completions;
            # skip its metrics but keep the learned experience
            continue
        result.episodes.append(res)
        result.ttc_rewards.append(res.ttc_reward)
        result.acc_rewards.append(res.acc_reward)
        reward_rows.append([ep, ep_seed, f"{res.ttc_reward:.6f}",
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
    if out is not None:
        if start_ep > 0:
            # resumed run: append rows, keep the existing header
            with open(rewards_path, "a", newline="") as fh:
                csv.writer(fh).writerows(reward_rows)
        else:
            comments = [
                f"config={config_hash(scenario)}",
                f"training_seed={seed}",
                f"system={system}",
            ]
            _write_csv(rewards_path, comments,
                       ("episode", "seed", "ttc_reward", "acc_reward",
                        "near_collisions", "mean_speed", "final_ttc_star"),
                       reward_rows)
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
    """Per-decision latencies (ms) over however many episodes are needed.

    Each sample is one whole control decision: state encoding, the gap
    and threshold agents and both broadcasts.
    """
    latencies: list[float] = []
    seed = base_seed
    while len(latencies) < min_decisions:
        res = run_episode(scenario, policy, mode="eval", seed=seed,
                          measure_latency=True)
        latencies.extend(res.decision_latency_ms)
        seed += 1
        if seed - base_seed > 200:
            raise HarnessError("latency run failed to accumulate decisions")
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
        _write_csv(out_path, comments, TRAJECTORY_CSV_COLUMNS, data)
    return rows
