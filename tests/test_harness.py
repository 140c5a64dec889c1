"""Harness: sweeps, statistics, CSV emission, training persistence."""

import csv
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from accsim import agents, harness, simcore
from accsim.harness import (
    HarnessError,
    PolicySpec,
    SweepSpec,
    apply_sweep_value,
    capture_spacetime,
    config_hash,
    measure_latency,
    run_sweep,
    spearman,
    summarize,
    train,
    train_many,
    worker_count,
    write_summary_csv,
    write_sweep_csv,
)
from accsim.agents import (
    AdaptivePolicy,
    NoAccPolicy,
    ScriptedGapPolicy,
)
from accsim.metrics import MetricsError
from accsim.scenario import load_builtin

scipy_stats = pytest.importorskip("scipy.stats")


# ---- config hash and workers -------------------------------------------


def test_config_hash_stable_and_sensitive():
    sc = load_builtin("desk")
    h = config_hash(sc)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert h == config_hash(load_builtin("desk"))
    other = sc.replace(demand=replace(sc.demand, penetration_rate=0.5))
    assert config_hash(other) != h


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("ACCSIM_WORKERS", raising=False)
    assert worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("ACCSIM_WORKERS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("ACCSIM_WORKERS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("ACCSIM_WORKERS", "two")
    with pytest.raises(HarnessError):
        worker_count()


def test_importing_the_harness_loads_no_pool_or_lockstep():
    # both load only when a sweep needs them, which keeps the import, and
    # with it every run's set-up, as cheap as it was
    code = ("import sys, accsim.harness; print(sorted({'multiprocessing', "
            "'accsim.lockstep'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("workers,sizes", [(1, [20] * 5),
                                           (2, [17] * 4 + [16] * 2)])
def test_chunks_cap_a_batch(workers, sizes):
    sc = load_builtin("onramp")
    tasks = [(k, sc) for k in range(100)]
    chunks = harness._chunks(tasks, workers)
    assert [len(c) for c in chunks] == sizes
    assert [t for c in chunks for t in c] == tasks  # contiguous, in order


def test_chunks_keep_a_small_group_one_batch_per_worker():
    sc = load_builtin("onramp")
    other = sc.replace(run=replace(sc.run, episode_duration=120.0))
    tasks = [(k, sc) for k in range(5)] + [(5, other)]
    assert [len(c) for c in harness._chunks(tasks, 1)] == [5, 1]
    assert [len(c) for c in harness._chunks(tasks, 2)] == [3, 2, 1]
    assert max(map(len, harness._chunks(tasks * 50, 1))) <= \
        harness.MAX_BATCH


# ---- sweep parameter application ---------------------------------------


def _no_episode(tasks):
    """Stands in for `harness._run_chunk` where no episode may run."""
    raise AssertionError(f"episode ran: {tasks[0][0]}")


def test_apply_sweep_values():
    sc = load_builtin("onramp")
    assert apply_sweep_value(sc, "ttc_star_fixed", 6.0) is sc
    assert apply_sweep_value(sc, "penetration", 0.3).demand.penetration_rate == 0.3
    assert apply_sweep_value(sc, "merge_flow", 600).demand.ramp_flow == 600.0
    assert apply_sweep_value(sc, "update_interval", 2.0).run.control_interval == 2.0
    with pytest.raises(HarnessError):
        apply_sweep_value(sc, "exit_flow", 600)  # needs an off-ramp
    assert apply_sweep_value(
        load_builtin("offramp"), "exit_flow", 600).demand.ramp_flow == 600.0
    with pytest.raises(HarnessError):
        apply_sweep_value(sc, "density", 1.0)


@pytest.mark.parametrize("name", ["offramp", "straight"])
def test_merge_flow_sweep_needs_an_on_ramp(monkeypatch, name):
    # off-ramp ramp_flow is exit demand; without a ramp nothing reads it
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    monkeypatch.setattr(harness, "_run_chunk", _no_episode)
    sweep = SweepSpec(parameter="merge_flow", values=(0.0, 900.0),
                      episodes=1, base_seed=5)
    with pytest.raises(HarnessError, match="on-ramp"):
        run_sweep(load_builtin(name), sweep)


def test_policy_spec_build_kinds():
    sc = load_builtin("desk")
    assert isinstance(PolicySpec("base").build(sc), NoAccPolicy)
    assert isinstance(PolicySpec("scripted").build(sc), ScriptedGapPolicy)
    fixed = PolicySpec("fixed-ttc", ttc_star=6.0).build(sc)
    assert isinstance(fixed, AdaptivePolicy) and fixed.initial_ttc_star == 6.0
    assert fixed.ttc_agent is None
    assert isinstance(PolicySpec("saint").build(sc), AdaptivePolicy)
    with pytest.raises(HarnessError):
        PolicySpec("magic").build(sc)


def test_policy_spec_restores_trained_checkpoints(tmp_path):
    sc = load_builtin("desk")
    trained = train(sc, system="fixed-ttc", episodes=2, seed=3,
                    out_dir=tmp_path, checkpoint_every=2).policy
    fixed = PolicySpec("fixed-ttc", checkpoint_dir=str(tmp_path)).build(sc)
    assert fixed.acc_agent.weight_checksum() == \
        trained.acc_agent.weight_checksum()
    assert fixed.acc_agent.weight_checksum() != \
        PolicySpec("fixed-ttc").build(sc).acc_agent.weight_checksum()
    with pytest.raises(HarnessError, match="missing checkpoint .*ttc_agent.ckpt"):
        PolicySpec("saint", checkpoint_dir=str(tmp_path)).build(sc)


# ---- statistics vs a reference implementation --------------------------


def test_spearman_matches_scipy():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randrange(5, 40)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        if trial % 2:  # inject ties
            xs = [round(x) for x in xs]
            ys = [round(y) for y in ys]
        ref = scipy_stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(ref, abs=1e-12)


def test_spearman_edges():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert spearman([1, 1, 1], [1, 2, 3]) == 0.0  # degenerate ranks


# ---- sweeps and CSV emission -------------------------------------------


@pytest.fixture(scope="module")
def small_sweep():
    sc = load_builtin("desk")
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=2,
                      base_seed=50,
                      systems=(PolicySpec("base"), PolicySpec("scripted")))
    return sc, sweep, run_sweep(sc, sweep)


def test_sweep_paired_seeds_and_determinism(small_sweep):
    sc, sweep, rows = small_sweep
    assert sweep.seeds() == [50, 51]
    assert len(rows) == 4  # 2 systems x 1 value x 2 seeds
    per_system = {}
    for row in rows:
        per_system.setdefault(row.system, []).append(row.result.metrics.seed)
    assert all(seeds == [50, 51] for seeds in per_system.values())
    again = run_sweep(sc, sweep)
    assert [(r.system, r.value, r.result.metrics) for r in rows] == \
        [(r.system, r.value, r.result.metrics) for r in again]


def test_sweep_csv_layout(small_sweep, tmp_path):
    sc, sweep, rows = small_sweep
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sc, sweep, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config={config_hash(sc)}"
    assert lines[1] == "# seeds=50,51"
    assert lines[2] == "# parameter=penetration"
    header = lines[3].split(",")
    assert header[:3] == ["system", "parameter", "value"]
    assert len(lines) == 4 + len(rows)

    spath = tmp_path / "summary.csv"
    write_summary_csv(spath, sc, sweep, rows)
    with open(spath) as fh:
        body = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(body)
    summary = list(reader)
    assert {r["system"] for r in summary} == {"base", "scripted-ttc4"}
    assert all(r["episodes"] == "2" for r in summary)


def test_summarize_means(small_sweep):
    _, _, rows = small_sweep
    summary = summarize(rows)
    base = next(s for s in summary if s["system"] == "base")
    ncs = [r.result.metrics.near_collisions for r in rows
           if r.system == "base"]
    assert base["nc_mean"] == pytest.approx(sum(ncs) / len(ncs))


def test_summarize_std_is_the_same_on_every_interpreter():
    # statistics.pstdev gives 3.90816013313249 on Python 3.10 and
    # 3.9081601331324904 on 3.11; the left-to-right formula gives the
    # former on 3.10 to 3.13
    speeds = [20.279366, 30.888514, 27.233906, 28.349827, 22.416781]
    rows = [harness.SweepRow("base", 0.8, SimpleNamespace(
        metrics=SimpleNamespace(near_collisions=nc, mean_speed=speed,
                                mean_delay=40.0)))
        for nc, speed in zip((3, 5, 8, 5, 4), speeds)]
    (summary,) = summarize(rows)
    assert repr(summary["speed_std"]) == "3.90816013313249"
    assert summary["nc_std"] == math.sqrt(14.0 / 5)  # deviations -2, 0, 3, 0, -1
    assert summarize(rows[:1])[0]["speed_std"] == 0.0


def test_sweep_progress_names_position_key_and_eta(monkeypatch):
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    sc = load_builtin("desk")
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=2,
                      base_seed=50, systems=(PolicySpec("base"),))
    messages = []
    run_sweep(sc, sweep, progress=messages.append)
    assert len(messages) == 2  # one call per row
    for k, (msg, seed) in enumerate(zip(messages, (50, 51)), 1):
        prefix = f"[{k}/2] base 0.8 seed {seed}, eta "
        assert msg.startswith(prefix) and msg.endswith("s")
        assert float(msg[len(prefix):-1]) >= 0.0
    assert messages[-1].endswith(", eta 0s")


@pytest.mark.parametrize("name", ["desk", "onramp", "offramp", "straight"])
def test_base_penetration_rows_equal_independent_episodes(monkeypatch, name):
    # base runs once per seed; its other rows copy that result
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    sc = load_builtin(name)
    sweep = SweepSpec(parameter="penetration", values=(0.0, 1.0), episodes=1,
                      base_seed=5, systems=(PolicySpec("base"),))
    rows = run_sweep(sc, sweep)
    assert [(r.system, r.value) for r in rows] == [("base", 0.0), ("base", 1.0)]
    for row in rows:
        point = apply_sweep_value(sc, "penetration", row.value)
        want = agents.run_episode(point, NoAccPolicy(), mode="eval", seed=5)
        got = row.result
        assert got.metrics.csv_row() == want.metrics.csv_row()
        assert (repr(got.ttc_reward), repr(got.acc_reward),
                repr(got.final_ttc_star)) == \
            (repr(want.ttc_reward), repr(want.acc_reward),
             repr(want.final_ttc_star))


def test_penetration_sweep_runs_base_once_per_seed(monkeypatch):
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    ran = []  # the key of every task handed to the chunk runner
    run_chunk = harness._run_chunk

    def counted(tasks):
        ran.extend(task[0] for task in tasks)
        return run_chunk(tasks)

    monkeypatch.setattr(harness, "_run_chunk", counted)
    sweep = SweepSpec(parameter="penetration", values=(0.4, 0.8), episodes=2,
                      base_seed=50,
                      systems=(PolicySpec("base"), PolicySpec("scripted"),
                               PolicySpec("saint")))
    messages = []
    rows = run_sweep(load_builtin("desk"), sweep, progress=messages.append)
    assert len(rows) == 12 and len(ran) == 10
    assert [key for key in ran if key[0] == "base"] == \
        [("base", 0.4, 50), ("base", 0.4, 51)]
    # one progress call per row, counting rows
    assert len(messages) == 12
    assert [m.split("]")[0] for m in messages] == \
        [f"[{k}/12" for k in range(1, 13)]
    base = {(r.value, r.result.metrics.seed): r.result.metrics
            for r in rows if r.system == "base"}
    for seed in (50, 51):
        assert base[(0.8, seed)].penetration == 0.8
        assert base[(0.8, seed)] == replace(base[(0.4, seed)],
                                            penetration=0.8)


def test_ttc_star_fixed_sweep_labels():
    sc = load_builtin("desk")
    sweep = SweepSpec(parameter="ttc_star_fixed", values=(2.0, 4.0),
                      episodes=1, base_seed=9,
                      systems=(PolicySpec("scripted"),))
    rows = run_sweep(sc, sweep)
    assert sorted({r.system for r in rows}) == \
        ["scripted-ttc2", "scripted-ttc4"]


def test_sweep_rejects_repeated_label_before_any_episode(monkeypatch):
    # rows are keyed by (label, value, seed): two "saint" specs would
    # collapse into one row
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    tasks = []
    monkeypatch.setattr(harness, "_run_chunk", tasks.append)
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=1,
                      base_seed=50,
                      systems=(PolicySpec("saint"),
                               PolicySpec("saint", ttc_star=2.0)))
    with pytest.raises(HarnessError, match="'saint'"):
        run_sweep(load_builtin("desk"), sweep)
    assert tasks == []


def test_sweep_rejects_repeated_value_before_any_episode(monkeypatch):
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    tasks = []
    monkeypatch.setattr(harness, "_run_chunk", tasks.append)
    sweep = SweepSpec(parameter="penetration", values=(0.8, 0.8), episodes=1,
                      base_seed=50, systems=(PolicySpec("base"),))
    with pytest.raises(HarnessError, match="sweep value 0.8 is listed twice"):
        run_sweep(load_builtin("desk"), sweep)
    assert tasks == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_sweep_episode_names_its_task(monkeypatch, workers):
    # a 15 s desk episode completes no traversal
    monkeypatch.setenv("ACCSIM_WORKERS", workers)
    sc = load_builtin("desk")
    sc = sc.replace(run=replace(sc.run, episode_duration=15.0,
                                warmup_duration=5.0))
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=2,
                      base_seed=50, systems=(PolicySpec("scripted"),))
    with pytest.raises(MetricsError,
                       match=r"sweep task scripted-ttc4 0\.8 seed 5[01]: "
                             r"episode degenerate"):
        run_sweep(sc, sweep)


@pytest.mark.parametrize("kind", ["saint", "base"])
def test_ttc_star_fixed_sweep_rejects_system_without_fixed_threshold(
        monkeypatch, kind):
    # saint and base ignore ttc_star: every value would be the same episode
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    tasks = []
    monkeypatch.setattr(harness, "_run_chunk", tasks.append)
    sweep = SweepSpec(parameter="ttc_star_fixed", values=(2.0, 6.0),
                      episodes=1, base_seed=5,
                      systems=(PolicySpec("scripted"), PolicySpec(kind)))
    with pytest.raises(HarnessError, match=f"'{kind}'"):
        run_sweep(load_builtin("desk"), sweep)
    assert tasks == []


@pytest.mark.parametrize("parameter", ["penetration", "update_interval"])
def test_sweep_rejects_missing_checkpoint_before_any_episode(
        monkeypatch, tmp_path, parameter):
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    monkeypatch.setattr(harness, "_run_chunk", _no_episode)
    sweep = SweepSpec(parameter=parameter, values=(1.0,), episodes=1,
                      base_seed=5,
                      systems=(PolicySpec("base"),
                               PolicySpec("saint",
                                          checkpoint_dir=str(tmp_path))))
    with pytest.raises(HarnessError,
                       match="missing checkpoint .*acc_agent.ckpt"):
        run_sweep(load_builtin("desk"), sweep)


# ---- training persistence ----------------------------------------------


def test_train_writes_and_resumes_rewards(tmp_path):
    sc = load_builtin("desk")
    out = tmp_path / "run"
    train(sc, system="fixed-ttc", episodes=3, seed=4, out_dir=out,
          checkpoint_every=3)
    assert (out / "acc_agent.ckpt").exists()
    rewards = out / "rewards.csv"
    first = [ln for ln in rewards.read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert first[0].startswith("episode,")
    assert len(first) == 1 + 3

    train(sc, system="fixed-ttc", episodes=2, seed=4, out_dir=out,
          resume=True, checkpoint_every=2)
    lines = [ln for ln in rewards.read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert len(lines) == 1 + 5
    episodes = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert episodes == [0, 1, 2, 3, 4]  # resumed numbering continues
    seeds = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert seeds == [4 * 10_000 + e for e in episodes]


def _reward_rows(path):
    return [ln.split(",") for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]


def _raising_at(seed, exc):
    """Stands in for `harness.run_episode`, raising `exc` at `seed`."""
    run_episode = harness.run_episode

    def run(*args, **kwargs):
        if kwargs["seed"] == seed:
            raise exc
        return run_episode(*args, **kwargs)

    return run


def test_train_saves_checkpoints_after_a_failed_last_episode(monkeypatch,
                                                             tmp_path):
    # a gridlocked last episode keeps the weights the run learned
    monkeypatch.setattr(harness, "run_episode", _raising_at(
        4 * 10_000 + 2, MetricsError("episode degenerate")))
    result = train(load_builtin("desk"), system="fixed-ttc", episodes=3,
                   seed=4, out_dir=tmp_path, checkpoint_every=3)
    assert len(result.episodes) == 2
    assert (tmp_path / "acc_agent.ckpt").exists()
    rows = _reward_rows(tmp_path / "rewards.csv")
    assert rows[0][0] == "episode"
    assert [row[0] for row in rows[1:]] == ["0", "1"]


def test_train_keeps_saved_rows_after_a_crash_and_resumes(monkeypatch,
                                                          tmp_path):
    sc = load_builtin("desk")
    with monkeypatch.context() as m:
        m.setattr(harness, "run_episode",
                  _raising_at(4 * 10_000 + 3, RuntimeError("crash")))
        with pytest.raises(RuntimeError, match="crash"):
            train(sc, system="fixed-ttc", episodes=5, seed=4,
                  out_dir=tmp_path, checkpoint_every=2)
    rewards = tmp_path / "rewards.csv"
    assert [row[0] for row in _reward_rows(rewards)] == ["episode", "0", "1"]
    train(sc, system="fixed-ttc", episodes=3, seed=4, out_dir=tmp_path,
          resume=True, checkpoint_every=2)
    rows = _reward_rows(rewards)[1:]
    episodes = [int(row[0]) for row in rows]
    assert episodes == [0, 1, 2, 3, 4]
    assert [int(row[1]) for row in rows] == [4 * 10_000 + e for e in episodes]


def test_resume_after_a_skipped_episode_draws_new_seeds(monkeypatch,
                                                        tmp_path):
    # episode 1 fails and leaves no row: rows 0, 2 and 3 remain, and a
    # resume numbers on from the last row, not from the row count
    sc = load_builtin("desk")
    with monkeypatch.context() as m:
        m.setattr(harness, "run_episode", _raising_at(
            4 * 10_000 + 1, MetricsError("episode degenerate")))
        train(sc, system="fixed-ttc", episodes=4, seed=4, out_dir=tmp_path,
              checkpoint_every=4)
    rewards = tmp_path / "rewards.csv"
    assert [row[0] for row in _reward_rows(rewards)[1:]] == ["0", "2", "3"]
    train(sc, system="fixed-ttc", episodes=2, seed=4, out_dir=tmp_path,
          resume=True, checkpoint_every=2)
    rows = _reward_rows(rewards)[1:]
    episodes = [int(row[0]) for row in rows]
    seeds = [int(row[1]) for row in rows]
    assert episodes == [0, 2, 3, 4, 5]
    assert seeds == [4 * 10_000 + e for e in episodes]
    assert len(set(seeds)) == len(seeds)


def test_train_many_matches_serial_train_in_seed_order(monkeypatch):
    monkeypatch.setenv("ACCSIM_WORKERS", "2")
    sc = load_builtin("desk")
    pooled = train_many(sc, [3, 1], system="fixed-ttc", episodes=2)
    for seed, got in zip((3, 1), pooled):
        want = train(sc, system="fixed-ttc", episodes=2, seed=seed)
        assert [(e.ttc_reward, e.acc_reward) for e in got.episodes] == \
            [(e.ttc_reward, e.acc_reward) for e in want.episodes]
        assert [e.metrics for e in got.episodes] == \
            [e.metrics for e in want.episodes]


@pytest.mark.parametrize("values,episodes",
                         [((0.8,), 2), ((0.4, 0.8), 2), ((0.8,), 1)],
                         ids=["one-value", "two-values", "chunks-of-one"])
def test_sweep_rows_equal_with_one_and_two_workers(monkeypatch, small_sweep,
                                                   values, episodes):
    # with one episode two workers get a chunk of one each, which plays
    # its episode alone; one worker steps both in one lockstep batch
    sc, sweep, _ = small_sweep
    sweep = replace(sweep, values=values, episodes=episodes)
    runs = []
    for n in ("1", "2"):
        monkeypatch.setenv("ACCSIM_WORKERS", n)
        runs.append([(r.system, r.value, r.result.metrics)
                     for r in run_sweep(sc, sweep)])
    assert len(runs[0]) == 2 * episodes * len(values)
    assert runs[0] == runs[1]


def test_train_calls_harness_run_episode_once_per_episode(monkeypatch):
    # the desk-train benchmark times its ops on these calls
    seeds = []
    run_episode = harness.run_episode

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", counted)
    train(load_builtin("desk"), system="saint", episodes=3, seed=2)
    assert seeds == [20_000, 20_001, 20_002]


def test_train_rejects_untrainable_system():
    with pytest.raises(HarnessError):
        train(load_builtin("desk"), system="base", episodes=1)


# ---- latency and space-time capture ------------------------------------


def test_measure_latency_accumulates():
    sc = load_builtin("desk")
    lats = measure_latency(sc, ScriptedGapPolicy(4.0), min_decisions=50)
    assert len(lats) >= 50
    assert all(l >= 0.0 for l in lats)
    assert sum(lats) / len(lats) < 50.0  # sanity, not the acceptance bound


def test_measure_latency_takes_one_sample_per_acting_decision():
    # one 120-tick desk episode: the first decision and one at every tick
    # but the last, which acts on nothing and is not timed
    lats = measure_latency(load_builtin("desk"), ScriptedGapPolicy(4.0),
                           min_decisions=1)
    assert len(lats) == 120


def test_measure_latency_rejects_policy_without_decisions(monkeypatch):
    # base makes no decision, so no episode may run before the error
    def no_physics(world):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(simcore.World, "step", no_physics)
    with pytest.raises(HarnessError, match="no decision"):
        measure_latency(load_builtin("desk"), NoAccPolicy())


def test_measure_latency_times_whole_decision(monkeypatch):
    # the state encoding is part of every timed decision
    encode = agents.encode_traffic_state

    def slow_encode(*args, **kwargs):
        time.sleep(0.001)
        return encode(*args, **kwargs)

    monkeypatch.setattr(agents, "encode_traffic_state", slow_encode)
    lats = measure_latency(load_builtin("desk"), ScriptedGapPolicy(4.0),
                           min_decisions=50)
    assert len(lats) >= 50
    assert min(lats) >= 1.0


def test_capture_spacetime(tmp_path):
    sc = load_builtin("desk")
    out = tmp_path / "traj.csv"
    rows = capture_spacetime(sc, NoAccPolicy(), seed=3, out_path=out)
    assert rows
    times = [r.time for r in rows]
    assert times == sorted(times)
    assert any(not math.isinf(r.gap) for r in rows)
    lines = out.read_text().splitlines()
    assert lines[0] == f"# config={config_hash(sc)}"
    header = lines[2].split(",")
    assert header[0] == "time" and "position" in header
