"""Harness: sweeps, statistics, CSV emission, training persistence."""

import csv
import math
import os
import random
import time
from dataclasses import replace

import pytest

from accsim import agents, harness
from accsim.harness import (
    HarnessError,
    PolicySpec,
    SweepSpec,
    apply_sweep_value,
    capture_spacetime,
    config_hash,
    measure_latency,
    paired_t_pvalue,
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


# ---- sweep parameter application ---------------------------------------


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


def test_policy_spec_build_kinds():
    sc = load_builtin("desk")
    assert isinstance(PolicySpec("base").build(sc), NoAccPolicy)
    assert isinstance(PolicySpec("scripted").build(sc), ScriptedGapPolicy)
    fixed = PolicySpec("fixed-ttc", ttc_star=6.0).build(sc)
    assert isinstance(fixed, AdaptivePolicy) and fixed.initial_ttc_star == 6.0
    assert fixed.ttc_agent is None and not fixed.adapts_ttc
    assert isinstance(PolicySpec("saint").build(sc), AdaptivePolicy)
    with pytest.raises(HarnessError):
        PolicySpec("magic").build(sc)


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


def test_paired_t_pvalue_matches_scipy():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(3, 30)
        diffs = [rng.gauss(rng.uniform(-1, 1), 1.0) for _ in range(n)]
        ref = scipy_stats.ttest_rel(diffs, [0.0] * n,
                                    alternative="less").pvalue
        assert paired_t_pvalue(diffs) == pytest.approx(ref, rel=1e-9)


def test_paired_t_pvalue_edges():
    assert paired_t_pvalue([-1.0, -1.0, -1.0]) == 0.0  # zero variance, mean<0
    assert paired_t_pvalue([1.0, 1.0]) == 1.0
    with pytest.raises(HarnessError):
        paired_t_pvalue([1.0])


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


def test_sweep_progress_names_position_key_and_eta(monkeypatch):
    monkeypatch.setenv("ACCSIM_WORKERS", "1")
    sc = load_builtin("desk")
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=2,
                      base_seed=50, systems=(PolicySpec("base"),))
    messages = []
    run_sweep(sc, sweep, progress=messages.append)
    assert len(messages) == 2  # one call per finished task
    for k, (msg, seed) in enumerate(zip(messages, (50, 51)), 1):
        prefix = f"[{k}/2] base 0.8 seed {seed}, eta "
        assert msg.startswith(prefix) and msg.endswith("s")
        assert float(msg[len(prefix):-1]) >= 0.0
    assert messages[-1].endswith(", eta 0s")


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
    monkeypatch.setattr(harness, "_run_task", tasks.append)
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=1,
                      base_seed=50,
                      systems=(PolicySpec("saint"),
                               PolicySpec("saint", ttc_star=2.0)))
    with pytest.raises(HarnessError, match="'saint'"):
        run_sweep(load_builtin("desk"), sweep)
    assert tasks == []


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


def test_train_many_matches_serial_train_in_seed_order(monkeypatch):
    monkeypatch.setenv("ACCSIM_WORKERS", "2")
    sc = load_builtin("desk")
    pooled = train_many(sc, [3, 1], system="fixed-ttc", episodes=2)
    for seed, got in zip((3, 1), pooled):
        want = train(sc, system="fixed-ttc", episodes=2, seed=seed)
        assert (got.ttc_rewards, got.acc_rewards) == \
            (want.ttc_rewards, want.acc_rewards)
        assert [e.metrics for e in got.episodes] == \
            [e.metrics for e in want.episodes]


def test_sweep_rows_equal_with_one_and_two_workers(monkeypatch, small_sweep):
    sc, sweep, rows = small_sweep
    for n in ("1", "2"):
        monkeypatch.setenv("ACCSIM_WORKERS", n)
        again = run_sweep(sc, sweep)
        assert [(r.system, r.value, r.result.metrics) for r in again] == \
            [(r.system, r.value, r.result.metrics) for r in rows]


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
