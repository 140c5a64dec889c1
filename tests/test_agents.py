"""Reward formulas, action mappings, state encoding, and the episode loop."""

import math
import random

import numpy as np
import pytest

from accsim import agents
from accsim.agents import (
    GAP_ACTION_COUNT,
    HEADWAY_CAP,
    MEAN_TTC_CAP,
    STATE_DIM,
    TTC_ACTION_COUNT,
    NoAccPolicy,
    RewardWeights,
    ScriptedGapPolicy,
    encode_traffic_state,
    gap_from_index,
    index_from_gap,
    index_from_ttc_star,
    make_adaptive_policy,
    reward_acc_comfort,
    reward_acc_efficiency,
    reward_acc_safety,
    reward_acc_total,
    reward_ttc,
    run_episode,
    ttc_star_from_index,
)
from accsim.metrics import SafetyTally, compute_ttc
from accsim.scenario import RAMP_LANE, ROUTE_THROUGH, load_builtin, spawn_schedule
from accsim.simcore import Vehicle, World

W = RewardWeights()


# ---- frozen reward examples (1e-9 relative) ----------------------------


def test_reward_ttc_examples():
    assert reward_ttc(SafetyTally(fp=3, fn=2, ac=1), W) == pytest.approx(
        -17.0, rel=1e-9)
    assert reward_ttc(SafetyTally(fp=0, fn=0, ac=2), W) == pytest.approx(
        -20.0, rel=1e-9)
    assert reward_ttc(SafetyTally(), W) == 0.0


def test_reward_ttc_weighting():
    w = RewardWeights(alpha_fp=0.5, alpha_fn=3.0, alpha_ac=20.0)
    assert reward_ttc(SafetyTally(fp=2, fn=1, ac=1), w) == pytest.approx(
        -(1.0 + 3.0 + 20.0), rel=1e-12)


def test_reward_acc_safety_examples():
    assert reward_acc_safety([2.0], 4.0) == pytest.approx(
        math.log(0.5), rel=1e-9)
    assert reward_acc_safety([1.0, 3.0], 4.0) == pytest.approx(
        math.log(0.25) + math.log(0.75), rel=1e-9)
    assert reward_acc_safety([1.0, 3.0], 4.0) == pytest.approx(
        -1.6739764335716716, rel=1e-9)


def test_reward_acc_safety_boundaries():
    assert reward_acc_safety([], 4.0) == 0.0
    assert reward_acc_safety([5.0, math.inf], 4.0) == 0.0  # above threshold
    assert reward_acc_safety([4.0], 4.0) == 0.0  # log(1)
    assert reward_acc_safety([2.0], 0.0) == 0.0  # degenerate threshold
    # TTC floored at 0.01 keeps the log finite
    assert reward_acc_safety([0.0], 4.0) == pytest.approx(
        math.log(0.01 / 4.0), rel=1e-9)
    # negative TTC (already overlapping) contributes nothing
    assert reward_acc_safety([-1.0], 4.0) == 0.0


def test_reward_acc_safety_monotone_in_ttc():
    lo = reward_acc_safety([1.0], 4.0)
    hi = reward_acc_safety([3.0], 4.0)
    assert lo < hi < 0.0


def test_reward_acc_efficiency_examples():
    # threshold = 1500 m / 8 m/s = 187.5 s
    assert reward_acc_efficiency(150.0, 1500.0, 8.0) == 1.0
    assert reward_acc_efficiency(200.0, 1500.0, 8.0) == -1.0
    assert reward_acc_efficiency(187.5, 1500.0, 8.0) == 1.0  # inclusive bound
    assert reward_acc_efficiency(None, 1500.0, 8.0) == 0.0


def test_reward_acc_comfort_examples():
    # normalizer: max_jerk 5.2 -> 27.04
    assert reward_acc_comfort(5.2, 5.2) == pytest.approx(-1.0, rel=1e-9)
    assert reward_acc_comfort(2.6, 5.2) == pytest.approx(-0.25, rel=1e-9)
    assert reward_acc_comfort(0.0, 5.2) == 0.0
    assert reward_acc_comfort(-2.6, 5.2) == pytest.approx(-0.25, rel=1e-9)
    assert reward_acc_comfort(9.9, 5.2) == pytest.approx(-1.0, rel=1e-9)  # cap


def test_reward_acc_total_example():
    total = reward_acc_total(1.0, math.log(0.5), -0.25, W)
    assert total == pytest.approx(1.0 + math.log(0.5) - 0.25, rel=1e-9)
    assert total == pytest.approx(0.05685281944005469, rel=1e-9)


def test_reward_acc_total_weighting():
    w = RewardWeights(beta_efficiency=2.0, beta_safety=0.5, beta_comfort=0.0)
    assert reward_acc_total(1.0, -2.0, -0.9, w) == pytest.approx(1.0)


# ---- action bijections --------------------------------------------------


def test_ttc_star_bijection():
    values = [ttc_star_from_index(i) for i in range(TTC_ACTION_COUNT)]
    assert values[0] == 0.0 and values[-1] == 10.0
    assert all(b - a == pytest.approx(0.5) for a, b in zip(values, values[1:]))
    for i, v in enumerate(values):
        assert index_from_ttc_star(v) == i
    with pytest.raises(ValueError):
        ttc_star_from_index(TTC_ACTION_COUNT)
    with pytest.raises(ValueError):
        ttc_star_from_index(-1)
    with pytest.raises(ValueError):
        index_from_ttc_star(0.3)


def test_gap_bijection():
    values = [gap_from_index(i) for i in range(GAP_ACTION_COUNT)]
    assert values == [float(g) for g in range(1, 26)]
    for i, v in enumerate(values):
        assert index_from_gap(v) == i
    with pytest.raises(ValueError):
        gap_from_index(25)
    with pytest.raises(ValueError):
        index_from_gap(0.0)
    with pytest.raises(ValueError):
        index_from_gap(3.5)


def test_scripted_gap_policy_mapping():
    # gap = clip(round(1 + 2.4 * ttc_star), 1, 25)
    assert ScriptedGapPolicy(4.0).gap_action(None, False) == (10, 11.0)
    assert ScriptedGapPolicy(0.0).gap_action(None, False) == (0, 1.0)
    assert ScriptedGapPolicy(10.0).gap_action(None, False) == (24, 25.0)


# ---- state encoding -----------------------------------------------------


def empty_world(name="straight"):
    sc = load_builtin(name)
    return World(sc.geometry, sc.run, [], seed=0), sc


def test_encode_empty_world():
    world, _ = empty_world()
    state = encode_traffic_state(world, 4.0)
    assert state.shape == (STATE_DIM,)
    assert list(state[:11]) == [0.0] * 11  # no vehicles, no ramp
    assert state[11] == 4.0
    assert state[12] == MEAN_TTC_CAP


def test_encode_two_vehicle_oracle():
    world, sc = empty_world()
    leader = Vehicle(1, 100.0, 20.0, 5.0, 0, 0.3, 1.0, 2.6, False,
                     ROUTE_THROUGH, 0.0)
    follower = Vehicle(2, 50.0, 25.0, 4.0, 0, 0.2, 1.0, 2.6, True,
                       ROUTE_THROUGH, 0.0)
    follower.gap_cmd = 7.0
    leader.a = 1.0
    follower.a = -2.0
    world.lanes[0] = [leader, follower]
    s = encode_traffic_state(world, 3.5)
    ml_km = sc.geometry.mainline_length / 1000.0
    assert s[0] == pytest.approx(1.0 / 2)          # mean positive accel
    assert s[1] == pytest.approx(2.0 / 2)          # mean decel magnitude
    assert s[2] == pytest.approx((100 - 5 - 50) / 25.0)  # time headway
    assert s[3] == pytest.approx((0.3 + 0.2) / 2)  # mean sigma
    assert s[4] == pytest.approx(7.0 / 2)          # commanded gap per vehicle
    assert s[5] == pytest.approx((5.0 + 4.0) / 2)  # mean length
    assert s[6] == pytest.approx(2 / ml_km)        # mainline density
    assert s[7] == pytest.approx((20.0 + 25.0) / 2)
    assert s[8] == 0.0 and s[9] == 0.0             # no ramp traffic
    assert s[10] == 0.0                            # no ramp in geometry
    assert s[11] == 3.5
    assert s[12] == pytest.approx((100 - 50 - 5) / 5.0)  # mean TTC = 9


def test_encode_caps_mean_ttc():
    world, _ = empty_world()
    leader = Vehicle(1, 1000.0, 20.0, 5.0, 0, 0.3, 1.0, 2.6, False,
                     ROUTE_THROUGH, 0.0)
    follower = Vehicle(2, 0.0, 20.01, 5.0, 0, 0.3, 1.0, 2.6, False,
                       ROUTE_THROUGH, 0.0)
    world.lanes[0] = [leader, follower]
    s = encode_traffic_state(world, 4.0)
    assert s[12] == MEAN_TTC_CAP


def reference_encode(world, ttc_star, mean_ttc_cap=MEAN_TTC_CAP):
    """The plain per-vehicle encoder that the one-pass encoder replaced,
    kept verbatim as a bitwise oracle."""
    geometry = world.geometry
    accel_sum = decel_sum = 0.0
    headway_sum = 0.0
    headway_n = 0
    sigma_sum = gap_set_sum = length_sum = 0.0
    n_total = 0
    ml_count = 0
    ml_speed_sum = 0.0
    ramp_count = 0
    ramp_speed_sum = 0.0
    ttc_sum = 0.0
    ttc_n = 0
    for lid in world.lane_ids:
        leader = None
        for veh in world.lanes[lid]:
            n_total += 1
            if veh.a > 0.0:
                accel_sum += veh.a
            else:
                decel_sum -= veh.a
            sigma_sum += veh.sigma
            length_sum += veh.length
            if veh.equipped:
                gap_set_sum += veh.gap_cmd
            if lid == RAMP_LANE:
                ramp_count += 1
                ramp_speed_sum += veh.v
            else:
                ml_count += 1
                ml_speed_sum += veh.v
            if leader is not None:
                gap = leader.x - leader.length - veh.x
                if veh.v > 0.1:
                    headway_sum += min(gap / veh.v, HEADWAY_CAP)
                    headway_n += 1
                ttc = compute_ttc(veh, leader)
                if math.isfinite(ttc):
                    ttc_sum += min(ttc, mean_ttc_cap)
                    ttc_n += 1
            leader = veh
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


def assert_encodes_like_reference(world, ttc_star):
    for cap in (MEAN_TTC_CAP, 2.0):
        got = encode_traffic_state(world, ttc_star, cap)
        want = reference_encode(world, ttc_star, cap)
        assert got.tobytes() == want.tobytes(), (got, want)


@pytest.mark.parametrize("name", ["straight", "desk", "onramp", "offramp"])
def test_encode_bitwise_matches_reference_on_stepped_worlds(name):
    sc = load_builtin(name)
    rng = random.Random(17)
    schedule = spawn_schedule(sc.demand, sc.geometry, sc.run.episode_duration,
                              random.Random(4))
    world = World(sc.geometry, sc.run, schedule, seed=4)
    steps = min(2500, round(sc.run.episode_duration / sc.run.physics_timestep))
    checked = 0
    for step in range(1, steps + 1):
        world.step()
        if step % 25:
            continue
        for veh in world.vehicles():  # spread the commanded gaps
            if veh.equipped:
                veh.gap_cmd = rng.uniform(1.0, 25.0)
        assert_encodes_like_reference(world, 0.5 * (step // 25 % 21))
        checked += world.vehicle_count() > 1
    assert checked >= steps // 25 - 2  # nearly every tick had a leader


def lane_of(specs, lane=0):
    """Vehicles from (x, v, a, length) tuples, front first."""
    out = []
    for i, (x, v, a, length) in enumerate(specs):
        veh = Vehicle(100 * lane + i, x, v, length, lane, 0.1 * i, 1.0, 2.6,
                      i % 2 == 0, ROUTE_THROUGH, 0.0)
        veh.a = a
        veh.gap_cmd = 3.0 + i
        out.append(veh)
    return out


ENCODE_EDGE_CASES = {
    "lone vehicle": {0: [(300.0, 20.0, 0.5, 4.5)]},
    "empty lane between occupied lanes": {
        0: [(300.0, 20.0, 0.5, 4.5), (250.0, 22.0, -1.0, 5.0)],
        2: [(400.0, 30.0, 0.0, 4.0), (380.0, 29.0, 0.3, 4.0)]},
    "slow followers": {0: [(300.0, 0.2, 0.0, 5.0), (280.0, 0.1, 0.0, 5.0),
                           (260.0, 0.0, -0.5, 5.0), (240.0, 0.05, 0.1, 5.0)]},
    "equal speeds": {0: [(300.0, 15.0, 0.0, 5.0), (280.0, 15.0, 0.0, 5.0),
                         (200.0, 15.0, 0.2, 4.0)]},
    "closing pair beyond the cap": {0: [(1000.0, 20.0, 0.0, 5.0),
                                        (0.0, 20.01, 0.0, 5.0)]},
    "overlapping closing pair": {0: [(100.0, 10.0, -3.0, 5.0),
                                     (97.0, 12.0, 0.0, 5.0)]},
    "ttc overflowing to inf": {0: [(1e300, 1.0, 0.0, 5.0),
                                   (0.0, 1.0 + 2.0 ** -52, 0.0, 5.0),
                                   (-10.0, 3.0, 0.0, 5.0)]},
}


@pytest.mark.parametrize("case", sorted(ENCODE_EDGE_CASES))
def test_encode_bitwise_matches_reference_on_edge_cases(case):
    world, _ = empty_world("desk")
    for lane, specs in ENCODE_EDGE_CASES[case].items():
        world.lanes[lane] = lane_of(specs, lane)
    assert_encodes_like_reference(world, 3.5)


def test_encode_bitwise_matches_reference_with_ramp_traffic():
    world, sc = empty_world("onramp")
    world.lanes[0] = lane_of([(600.0, 25.0, 0.2, 5.0), (560.0, 27.0, 0.0, 4.0)])
    world.lanes[RAMP_LANE] = lane_of(
        [(world.ramp_end - 10.0, 12.0, 1.0, 5.0),
         (world.ramp_end - 40.0, 14.0, -0.4, 4.5)], RAMP_LANE)
    assert_encodes_like_reference(world, 6.0)


def test_encode_calls_compute_ttc_only_for_closing_pairs(monkeypatch):
    sc = load_builtin("onramp")
    schedule = spawn_schedule(sc.demand, sc.geometry, sc.run.episode_duration,
                              random.Random(2))
    world = World(sc.geometry, sc.run, schedule, seed=2)
    for _ in range(900):
        world.step()
    calls = []

    def counting_ttc(follower, leader):
        calls.append((follower.id, leader.id))
        return compute_ttc(follower, leader)

    monkeypatch.setattr(agents, "compute_ttc", counting_ttc)
    encode_traffic_state(world, 4.0)
    closing = [(veh.id, leader.id) for lid in world.lane_ids
               for leader, veh in zip(world.lanes[lid], world.lanes[lid][1:])
               if veh.v > leader.v]
    assert calls == closing and closing


# ---- episode loop -------------------------------------------------------


def test_run_episode_rejects_bad_mode():
    sc = load_builtin("desk")
    with pytest.raises(ValueError, match="mode"):
        run_episode(sc, NoAccPolicy(), mode="test", seed=0)


def test_run_episode_deterministic():
    sc = load_builtin("desk")
    a = run_episode(sc, ScriptedGapPolicy(4.0), mode="eval", seed=5)
    b = run_episode(sc, ScriptedGapPolicy(4.0), mode="eval", seed=5)
    assert a.metrics == b.metrics
    assert a.ttc_reward == b.ttc_reward and a.acc_reward == b.acc_reward


def test_zero_penetration_equipped_system_equals_baseline():
    from dataclasses import replace
    sc = load_builtin("desk")
    sc = sc.replace(demand=replace(sc.demand, penetration_rate=0.0))
    base = run_episode(sc, NoAccPolicy(), mode="eval", seed=3)
    acc = run_episode(sc, ScriptedGapPolicy(4.0), mode="eval", seed=3)
    assert base.metrics.near_collisions == acc.metrics.near_collisions
    assert base.metrics.mean_speed == acc.metrics.mean_speed
    assert base.metrics.mean_delay == acc.metrics.mean_delay


def test_eval_mode_does_not_mutate_agents():
    sc = load_builtin("desk")
    policy = make_adaptive_policy(sc, seed=1)
    before = (policy.ttc_agent.weight_checksum(),
              policy.acc_agent.weight_checksum(),
              policy.ttc_agent.schedule.value,
              policy.acc_agent.schedule.value,
              len(policy.ttc_agent.buffer), len(policy.acc_agent.buffer))
    run_episode(sc, policy, mode="eval", seed=2)
    after = (policy.ttc_agent.weight_checksum(),
             policy.acc_agent.weight_checksum(),
             policy.ttc_agent.schedule.value,
             policy.acc_agent.schedule.value,
             len(policy.ttc_agent.buffer), len(policy.acc_agent.buffer))
    assert before == after


def test_train_mode_mutates_and_decays_epsilon():
    sc = load_builtin("desk")
    policy = make_adaptive_policy(sc, seed=1)
    eps0 = policy.acc_agent.schedule.value
    run_episode(sc, policy, mode="train", seed=2)
    assert policy.acc_agent.schedule.value < eps0
    assert len(policy.acc_agent.buffer) > 0
    assert len(policy.ttc_agent.buffer) > 0


def test_training_smoke_reward_improves_in_most_seeds():
    """Frozen contract: over 40 desk-scale training episodes the 10-episode
    moving average of the threshold agent's reward improves (last vs first
    window) in a majority of 10 seeds."""
    sc = load_builtin("desk")
    improved = 0
    for seed in range(10):
        policy = make_adaptive_policy(sc, seed=seed)
        rewards = []
        for ep in range(40):
            res = run_episode(sc, policy, mode="train",
                              seed=seed * 1000 + ep)
            rewards.append(res.ttc_reward)
        first = sum(rewards[:10]) / 10
        last = sum(rewards[-10:]) / 10
        if last >= first:
            improved += 1
    assert improved >= 6, f"improved in only {improved}/10 seeds"
