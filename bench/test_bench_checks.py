"""Fast tests of the benchmark's own output checks: each check passes real
program output and rejects a deliberately perturbed copy of it."""

import dataclasses
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from accsim import agents, harness, rlcore, scenario, simcore  # noqa: E402

import checks  # noqa: E402
from instrument import Patches  # noqa: E402
from timing import Reservoir, summarize  # noqa: E402
from workloads import observe_episode  # noqa: E402


@pytest.fixture(scope="module")
def desk():
    return scenario.load_builtin("desk")


@pytest.fixture(scope="module")
def observed(desk):
    return observe_episode(desk, agents.ScriptedGapPolicy(4.0), seed=5)


def test_recomputed_speed_and_delay_reject_a_shift(observed):
    result, observer = observed
    m = result.metrics
    assert checks.check_recomputed(m, observer) == []
    shifted = dataclasses.replace(m, mean_speed=m.mean_speed * (1 + 1e-7))
    assert checks.check_recomputed(shifted, observer)
    later = dataclasses.replace(m, mean_delay=m.mean_delay + 0.1)
    assert checks.check_recomputed(later, observer)


def test_episode_bounds_reject_impossible_values(observed, desk):
    m = observed[0].metrics
    args = (desk.geometry.mainline_length, desk.run.physics_timestep,
            simcore.FREE_FLOW_SPEED)
    assert checks.check_episode_bounds(m, *args) == []
    too_fast = dataclasses.replace(m, mean_speed=simcore.FREE_FLOW_SPEED + 0.1)
    assert checks.check_episode_bounds(too_fast, *args)
    too_quick = dataclasses.replace(
        m, mean_delay=desk.geometry.mainline_length / simcore.FREE_FLOW_SPEED
        - 1.0)
    assert checks.check_episode_bounds(too_quick, *args)
    negative = dataclasses.replace(
        m, tally=dataclasses.replace(m.tally, fp=-1))
    assert checks.check_episode_bounds(negative, *args)


def test_repeat_rejects_a_changed_row(observed):
    row = observed[0].metrics.csv_row()
    assert checks.check_repeat(row, list(row)) == []
    assert checks.check_repeat(row, row[:-1] + ["0.000000"])


def test_coverage_rejects_missing_and_duplicate_keys():
    keys = [(s, v, seed) for s in ("base", "saint") for v in (0.4, 0.8)
            for seed in (1, 2)]
    args = (("base", "saint"), (0.4, 0.8), (1, 2))
    assert checks.check_coverage(keys, *args) == []
    assert checks.check_coverage(keys[1:], *args)
    assert checks.check_coverage(keys + keys[:1], *args)


def test_argmax_check_rejects_a_wrong_action():
    policy = agents.make_adaptive_policy(scenario.load_builtin("onramp"))
    rng = np.random.default_rng(0)
    net = policy.acc_agent.net
    net.running_mean = rng.normal(size=agents.STATE_DIM)
    net.running_var = rng.uniform(0.5, 2.0, size=agents.STATE_DIM)
    states = rng.normal(scale=5.0, size=(50, agents.STATE_DIM))
    actions = np.array([policy.gap_action(s, False)[0] for s in states])
    q = checks.q_values(checks.net_arrays(net), states)
    assert checks.check_argmax(q, actions, "gap") == []
    wrong = actions.copy()
    wrong[7] = (wrong[7] + 1) % agents.GAP_ACTION_COUNT
    assert checks.check_argmax(q, wrong, "gap")


@pytest.fixture
def onramp_world():
    sc = scenario.load_builtin("onramp")
    schedule = scenario.spawn_schedule(sc.demand, sc.geometry,
                                       sc.run.episode_duration,
                                       random.Random(3))
    world = simcore.World(sc.geometry, sc.run, schedule, 3)
    for _ in range(700):
        world.step()
    return sc, world


def test_feature_check_rejects_a_shifted_speed(onramp_world):
    sc, world = onramp_world
    expected = checks.expected_features(
        world.lanes, scenario.RAMP_LANE, sc.geometry.mainline_length / 1000.0,
        sc.geometry.ramp_length / 1000.0, agents.MEAN_TTC_CAP)
    states = agents.encode_traffic_state(world, 4.0)[None, :]
    assert checks.check_features(states, expected) == []
    states[0, checks.FEATURE_ML_SPEED] += 1e-6
    assert checks.check_features(states, expected)


def test_broadcast_check_rejects_a_vehicle_left_out(onramp_world):
    _, world = onramp_world
    agents._broadcast_gap(world, 7.0)
    agents._broadcast_ttc(world, 2.5)
    assert checks.check_broadcast(world.lanes, 7.0, 2.5, "w") == []
    equipped = next(v for v in world.vehicles() if v.equipped)
    equipped.gap_cmd = 8.0
    assert checks.check_broadcast(world.lanes, 7.0, 2.5, "w")


def test_threshold_filter_check_rejects_an_unfiltered_broadcast():
    actions = [8, 8, 20, 0]
    sent, filtered = [], None
    for a in actions:
        chosen = 0.5 * a
        filtered = chosen if filtered is None else \
            filtered + 0.2 * (chosen - filtered)
        sent.append(filtered)
    assert checks.check_threshold_filter(actions, sent, 0.2, 0.5) == []
    assert checks.check_threshold_filter(actions, sent[:2] + [10.0, sent[3]],
                                         0.2, 0.5)


def test_training_checks_reject_a_missing_transition(desk, tmp_path):
    result = harness.train(desk, system="saint", episodes=2, seed=3,
                           out_dir=tmp_path, checkpoint_every=2)
    acc = result.policy.acc_agent
    transitions = 2 * checks.control_ticks(desk.run)
    assert checks.check_agent("acc", acc, transitions) == []
    acc.buffer.size -= 1
    assert checks.check_agent("acc", acc, transitions)
    acc.buffer.size += 1
    acc.schedule.value *= 1.001
    assert checks.check_agent("acc", acc, transitions)

    loaded, _, _ = rlcore.load_checkpoint(tmp_path / "acc_agent.ckpt")
    assert checks.check_checkpoint(loaded, acc.net, "acc") == []
    acc.net.W1[0, 0] = np.nextafter(acc.net.W1[0, 0], math.inf)
    assert checks.check_checkpoint(loaded, acc.net, "acc")

    rewards = tmp_path / "rewards.csv"
    assert checks.check_reward_rows(rewards, len(result.episodes)) == []
    assert checks.check_reward_rows(rewards, len(result.episodes) + 1)


def test_threshold_ticks_and_losses():
    assert checks.threshold_ticks(120, 10) == 12
    assert checks.threshold_ticks(25, 10) == 3  # ticks 10, 20 and the last
    assert checks.check_losses([0.5, 1e3]) == []
    assert checks.check_losses([0.5, math.nan])


def test_percentiles_report_only_the_median_below_forty_samples():
    assert set(summarize(range(39))) == {"n", "p50"}
    assert set(summarize(range(40))) == {"n", "p50", "p75"}
    assert set(summarize(range(1000))) == {"n", "p50", "p99"}
    assert summarize([3.0, 1.0, 2.0])["p50"] == 2.0


def test_reservoir_keeps_short_runs_whole_and_bounds_long_ones():
    short = Reservoir(capacity=100)
    short.extend([3.0, 1.0, 2.0])
    assert list(short.values) == [3.0, 1.0, 2.0] and short.count == 3
    long = Reservoir(capacity=100)
    long.extend(float(i) for i in range(10_000))
    assert len(long.values) == 100 and long.count == 10_000
    assert 2_000 < summarize(long.values)["p50"] < 8_000


def test_patches_restore_and_skip_missing_attributes():
    original = simcore.World.step
    with Patches() as patches:
        assert patches.wrap(simcore.World, "step", lambda fn: fn) is True
        assert patches.wrap(simcore.World, "no_such_phase",
                            lambda fn: fn) is False
    assert simcore.World.step is original
