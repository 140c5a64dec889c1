"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The full run trains models and takes roughly 20-30 minutes single
threaded.  The `checkpoints` fixture (in conftest.py) trains in the
background from the end of collection on.  Set ACCSIM_ACCEPTANCE_CACHE to a
directory to reuse trained checkpoints across runs, and ACCSIM_WORKERS to
parallelize sweeps.
"""

import math
import random
import statistics

import numpy as np
import pytest

from accsim import rlcore
from accsim.agents import (
    DqnAgent,
    NoAccPolicy,
    RewardWeights,
    reward_acc_comfort,
    reward_acc_efficiency,
    reward_acc_safety,
    reward_acc_total,
    reward_ttc,
    run_episode,
)
from accsim.harness import (
    PolicySpec,
    SweepSpec,
    measure_latency,
    paired_t_pvalue,
    run_sweep,
    spearman,
    summarize,
    train_many,
    write_sweep_csv,
)
from accsim.metrics import SafetyTally, compute_ttc
from accsim.rlcore import AdamState, BN_EPS, BN_MOMENTUM, QNetwork, train_step
from accsim.scenario import ROUTE_THROUGH, load_builtin
from accsim.simcore import (
    EVENT_ACTUAL_COLLISION,
    EVENT_NEAR_COLLISION,
    Vehicle,
)

from random_worlds import brute_force_pairs, logged_pairs, random_world


def report(capsys, num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


# ---- shared trained artifacts ------------------------------------------


@pytest.fixture(scope="session")
def headline(checkpoints):
    """Paired-seed evaluation: SAINT vs fixed-TTC*=4 ablation vs baseline.

    The ablation shares SAINT's trained gap-agent checkpoint with the
    threshold pinned, so only threshold adaptivity is removed.
    """
    sc = load_builtin("onramp")
    acc = str(checkpoints / "acc_agent.ckpt")
    systems = (
        PolicySpec("saint", ttc_checkpoint=str(checkpoints / "ttc_agent.ckpt"),
                   acc_checkpoint=acc),
        PolicySpec("fixed-ttc", ttc_star=4.0, acc_checkpoint=acc),
        PolicySpec("base"),
    )
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=20,
                      base_seed=300, systems=systems)
    by = {}
    for row in run_sweep(sc, sweep):
        by.setdefault(row.system, {})[row.result.metrics.seed] = row.result
    return by


# ---- 1. formula fidelity ------------------------------------------------


def test_criterion_01_formula_fidelity(capsys):
    w = RewardWeights()
    follower = Vehicle(1, 0.0, 25.0, 5.0, 0, 0.3, 1.0, 2.6, False,
                       ROUTE_THROUGH, 0.0)
    leader = Vehicle(2, 50.0, 20.0, 5.0, 0, 0.3, 1.0, 2.6, False,
                     ROUTE_THROUGH, 0.0)
    checks = [
        abs(compute_ttc(follower, leader) - 9.0) < 1e-9,
        abs(reward_ttc(SafetyTally(fp=3, fn=2, ac=1), w) + 17.0) < 1e-9,
        abs(reward_acc_safety([2.0], 4.0) - math.log(0.5)) < 1e-9,
        abs(reward_acc_safety([1.0, 3.0], 4.0) + 1.6739764335716716) < 1e-9,
        reward_acc_efficiency(150.0, 1500.0, 8.0) == 1.0,
        reward_acc_efficiency(200.0, 1500.0, 8.0) == -1.0,
        reward_acc_comfort(5.2, 5.2) == -1.0,  # the 27.04 normalizer, exact
        abs(reward_acc_comfort(2.6, 5.2) + 0.25) < 1e-9,
        abs(reward_acc_total(1.0, math.log(0.5), -0.25, w)
            - 0.05685281944005469) < 1e-9,
    ]
    report(capsys, 1, all(checks),
           f"{sum(checks)}/{len(checks)} tagged formula examples match to "
           "1e-9 relative")


# ---- 2. RL-core numerics ------------------------------------------------


def test_criterion_02_rlcore_numerics(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        din = int(rng.integers(2, 6))
        dout = int(rng.integers(2, 5))
        net = QNetwork(din, dout, int(rng.integers(3, 8)), rng=rng)
        state = rng.normal(size=din)
        worst = max(worst, rlcore.backward_check(
            net, state, int(rng.integers(dout)), float(rng.normal())))

    net = QNetwork(1, 1, 1, rng=np.random.default_rng(0))
    net.W1[:] = 1.0
    net.b1[:] = 0.0
    net.W2[:] = 0.5
    net.b2[:] = 0.0
    adam = AdamState(learning_rate=1e-4)
    state = np.array([[2.0]])
    batch = (state, np.array([0]), np.array([3.0]), state, np.array([1.0]))
    train_step(net, net.copy(), batch, gamma=0.95, adam=adam)
    mean = (1.0 - BN_MOMENTUM) * 2.0
    var = BN_MOMENTUM * 1.0
    z = (2.0 - mean) / math.sqrt(var + BN_EPS)
    diff = 0.5 * z - 3.0
    lr, eps = 1e-4, 1e-8
    g_w2 = 2.0 * diff * z
    adam_err = abs(net.W2[0, 0] - (0.5 - lr * g_w2 / (abs(g_w2) + eps)))

    ok = worst < 1e-4 and adam_err < 1e-12
    report(capsys, 2, ok,
           f"gradient check max err {worst:.2e} (<1e-4), scalar Adam step "
           f"err {adam_err:.1e} (<1e-12)")


# ---- 3. toy-MDP convergence ---------------------------------------------


def test_criterion_03_toy_mdp(capsys):
    n_states, goal = 5, 4

    def one_hot(s):
        v = np.zeros(n_states)
        v[s] = 1.0
        return v

    def solved(seed):
        agent = DqnAgent(n_states, 2, seed=seed, learning_rate=1e-3,
                         lambda_decay=0.99, train_start=64)
        for _ in range(200):
            s = 0
            for _ in range(20):
                a = agent.act(one_hot(s))
                ns = min(s + 1, goal) if a == 1 else max(s - 1, 0)
                done = ns == goal
                agent.store(one_hot(s), a, 1.0 if done else -0.01,
                            one_hot(ns), done)
                agent.train()
                s = ns
                if done:
                    break
            agent.end_episode()
        return all(agent.act(one_hot(s), greedy=True) == 1
                   for s in range(goal))

    wins = sum(solved(seed) for seed in range(100))
    report(capsys, 3, wins >= 95,
           f"5-state chain solved in {wins}/100 seeds within 200 episodes "
           "(need >=95)")


# ---- 4. motivation study ------------------------------------------------


def test_criterion_04_motivation(capsys):
    from dataclasses import replace
    sc = load_builtin("onramp")
    sc = sc.replace(demand=replace(sc.demand, penetration_rate=1.0))
    sweep = SweepSpec(parameter="ttc_star_fixed",
                      values=tuple(float(t) for t in range(1, 11)),
                      episodes=20, base_seed=100,
                      systems=(PolicySpec("scripted"),))
    summary = summarize(run_sweep(sc, sweep))
    values = [s["value"] for s in summary]
    rho_nc = spearman(values, [s["nc_mean"] for s in summary])
    rho_v = spearman(values, [s["speed_mean"] for s in summary])
    ok = rho_nc <= -0.5 and rho_v <= -0.5
    report(capsys, 4, ok,
           f"fixed TTC* sweep 1..10: spearman(nc)={rho_nc:.3f}, "
           f"spearman(speed)={rho_v:.3f} (both <= -0.5)")


# ---- 5. training convergence --------------------------------------------


def test_criterion_05_training_convergence(capsys):
    sc = load_builtin("desk")
    ok_ttc = ok_acc = 0
    finite = True
    for r in train_many(sc, range(10), system="saint", episodes=300):
        ttc, acc = r.ttc_rewards, r.acc_rewards
        finite &= all(math.isfinite(v) for v in ttc + acc)
        ok_ttc += statistics.fmean(ttc[-20:]) > statistics.fmean(ttc[:20])
        ok_acc += statistics.fmean(acc[-20:]) > statistics.fmean(acc[:20])
    ok = ok_ttc >= 8 and ok_acc >= 8 and finite
    report(capsys, 5, ok,
           f"300-episode runs: final 20-ep mean beats first window for the "
           f"threshold agent in {ok_ttc}/10 and the gap agent in "
           f"{ok_acc}/10 seeds (need >=8), finite={finite}")


# ---- 6. headline comparison ---------------------------------------------


def test_criterion_06_headline(capsys, headline):
    seeds = sorted(headline["base"])
    base_nc = [headline["base"][s].metrics.near_collisions for s in seeds]
    saint_nc = [headline["saint"][s].metrics.near_collisions for s in seeds]
    fixed_nc = [headline["fixed-ttc4"][s].metrics.near_collisions
                for s in seeds]
    reduction = 1.0 - statistics.fmean(saint_nc) / statistics.fmean(base_nc)
    p = paired_t_pvalue([a - b for a, b in zip(saint_nc, fixed_nc)])
    saint_v = statistics.fmean(
        headline["saint"][s].metrics.mean_speed for s in seeds)
    base_v = statistics.fmean(
        headline["base"][s].metrics.mean_speed for s in seeds)
    ok = reduction >= 0.5 and p < 0.05 and saint_v >= base_v
    report(capsys, 6, ok,
           f"80% penetration, 20 paired seeds: {reduction*100:.1f}% fewer "
           f"near-collisions than baseline (need >=50%), fewer than the "
           f"fixed-TTC*=4 ablation at p={p:.4f} (need <0.05), speed "
           f"{saint_v:.2f} vs baseline {base_v:.2f}")


# ---- 7. ablation speed ordering -----------------------------------------


def test_criterion_07_ablation_ordering(capsys, headline):
    seeds = sorted(headline["base"])
    sets = [seeds[i::10] for i in range(10)]  # 10 paired sets of 2 seeds

    def mean_speed(system, group):
        return statistics.fmean(
            headline[system][s].metrics.mean_speed for s in group)

    holds = sum(1 for group in sets
                if mean_speed("saint", group)
                >= mean_speed("fixed-ttc4", group)
                >= mean_speed("base", group))
    report(capsys, 7, holds >= 7,
           f"mean-speed ordering SAINT >= ablation >= baseline holds in "
           f"{holds}/10 paired sets (need >=7)")


# ---- 8. determinism and oracles -----------------------------------------


def test_criterion_08_determinism_and_oracles(capsys, tmp_path):
    # (a) bit-identical event logs and CSVs for identical (config, seed)
    sc = load_builtin("desk")
    sweep = SweepSpec(parameter="penetration", values=(0.8,), episodes=2,
                      base_seed=41, systems=(PolicySpec("scripted"),))
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        write_sweep_csv(path, sc, sweep, run_sweep(sc, sweep))
        paths.append(path.read_bytes())
    csv_ok = paths[0] == paths[1]

    ev = [run_episode(sc, NoAccPolicy(), mode="eval", seed=9).metrics
          for _ in range(2)]
    log_ok = ev[0] == ev[1]

    # (b) the event detector vs a brute-force all-pairs oracle
    rng = random.Random(8)
    mismatches = 0
    positives = 0
    collisions = 0
    for _ in range(10_000):
        world = random_world(rng)
        want_nc, want_ac = brute_force_pairs(world)
        world._detect_events()
        got_nc = logged_pairs(world, EVENT_NEAR_COLLISION)
        got_ac = logged_pairs(world, EVENT_ACTUAL_COLLISION)
        mismatches += got_nc != want_nc or got_ac != want_ac
        positives += len(want_nc)
        collisions += len(want_ac)

    # (c) checkpoint round trip preserves Q-values bit-exactly
    agent = DqnAgent(13, 21, seed=5)
    states = np.random.default_rng(5).normal(size=(50, 13))
    agent.store(states[0], 0, 1.0, states[1], False)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    clone = DqnAgent(13, 21, seed=99)
    clone.restore(path)
    q_ok = np.array_equal(agent.net.forward(states), clone.net.forward(states))

    ok = csv_ok and log_ok and mismatches == 0 and positives > 100 and q_ok
    report(capsys, 8, ok,
           f"CSV bytes identical={csv_ok}, episode logs identical={log_ok}, "
           f"detector mismatches {mismatches}/10000 worlds "
           f"({positives} near-collision, {collisions} collision pairs), "
           f"checkpoint Q-values "
           f"bit-exact={q_ok}")


# ---- 9. latency ---------------------------------------------------------


def test_criterion_09_latency(capsys, checkpoints):
    sc = load_builtin("onramp")
    policy = PolicySpec(
        "saint", ttc_checkpoint=str(checkpoints / "ttc_agent.ckpt"),
        acc_checkpoint=str(checkpoints / "acc_agent.ckpt")).build(sc)
    lats = measure_latency(sc, policy, min_decisions=1000)
    mean_ms = statistics.fmean(lats)
    report(capsys, 9, mean_ms < 50.0,
           f"mean per-decision latency {mean_ms:.3f} ms over "
           f"{len(lats)} decisions (need <50 ms)")


# ---- 10. update-interval sweep ------------------------------------------


def test_criterion_10_update_interval(capsys, checkpoints):
    sc = load_builtin("onramp")
    spec = PolicySpec(
        "saint", ttc_checkpoint=str(checkpoints / "ttc_agent.ckpt"),
        acc_checkpoint=str(checkpoints / "acc_agent.ckpt"))
    sweep = SweepSpec(parameter="update_interval",
                      values=(1.0, 2.0, 3.0, 5.0, 10.0), episodes=5,
                      base_seed=700, systems=(spec,))
    summary = summarize(run_sweep(sc, sweep))
    values = [s["value"] for s in summary]
    speeds = [s["speed_mean"] for s in summary]
    rho = spearman(values, speeds)
    report(capsys, 10, rho <= 0.0,
           f"mean speed vs control interval {dict(zip(values, [f'{v:.3f}' for v in speeds]))}: "
           f"spearman={rho:.3f} (need <=0)")
