"""Numerical tests for the from-scratch Q-network stack."""

import math

import numpy as np
import pytest

from accsim import rlcore
from accsim.rlcore import (
    BN_EPS,
    BN_MOMENTUM,
    AdamState,
    CheckpointError,
    EpsilonSchedule,
    QNetwork,
    ReplayBuffer,
    select_action,
    sync_target,
    train_step,
)


def make_net(input_dim=3, output_dim=4, hidden=5, seed=0):
    return QNetwork(input_dim, output_dim, hidden,
                    rng=np.random.default_rng(seed))


NORM = 1.0 / math.sqrt(1.0 + BN_EPS)  # fresh-stats normalization factor


# ---- forward pass ------------------------------------------------------


def test_forward_zero_weights_gives_zero_q():
    net = make_net()
    net.W1[:] = 0.0
    net.b1[:] = 0.0
    net.W2[:] = 0.0
    net.b2[:] = 0.0
    q = net.forward(np.ones(3))
    assert np.all(q == 0.0)


def test_forward_matches_hand_computation_2_2_2():
    net = make_net(input_dim=2, output_dim=2, hidden=2)
    net.W1[:] = [[1.0, -1.0], [0.5, 2.0]]
    net.b1[:] = [0.1, -0.2]
    net.W2[:] = [[2.0, 0.0], [1.0, -1.0]]
    net.b2[:] = [0.0, 0.3]
    # fresh running stats: mean 0, var 1 -> z = x / sqrt(1 + eps)
    x = np.array([1.0, 2.0]) * NORM
    h_pre = np.array([x[0] * 1.0 + x[1] * 0.5 + 0.1,
                      x[0] * -1.0 + x[1] * 2.0 - 0.2])
    h = np.maximum(h_pre, 0.0)
    expect = np.array([h[0] * 2.0 + h[1] * 1.0,
                       h[0] * 0.0 + h[1] * -1.0 + 0.3])
    got = net.forward(np.array([1.0, 2.0]))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_forward_batch_rows_match_single_rows():
    net = make_net()
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(8, 3))
    q_batch = net.forward(batch)
    assert q_batch.shape == (8, 4)
    for i in range(8):
        # batched BLAS matmul may differ from the row-wise product in the
        # last ulp; equality up to 1e-12 relative is the contract
        np.testing.assert_allclose(q_batch[i], net.forward(batch[i]),
                                   rtol=1e-12, atol=1e-15)


def reference_forward(net, x):
    """max((x-mu)/sqrt(var+eps) W1 + b1, 0) W2 + b2, in the expression order
    the in-place forward pass must reproduce bit for bit."""
    z = (x - net.running_mean) / np.sqrt(net.running_var + BN_EPS)
    h = np.maximum(z @ net.W1 + net.b1, 0.0)
    return h @ net.W2 + net.b2


def test_forward_bitwise_matches_formula_single_and_batched():
    rng = np.random.default_rng(21)
    net = QNetwork(13, 25, 30, rng=rng)
    net.b1[:] = rng.normal(0.0, 0.1, 30)
    net.b2[:] = rng.normal(0.0, 0.1, 25)
    net.update_norm_stats(rng.normal(3.0, 2.0, size=(64, 13)))
    batch = rng.normal(3.0, 2.0, size=(64, 13))
    np.testing.assert_array_equal(net.forward(batch),
                                  reference_forward(net, batch))
    for x in batch[:16]:
        single = net.forward(x)
        assert single.shape == (25,)
        assert single.tobytes() == net.forward(x.reshape(1, -1))[0].tobytes()
        assert single.tobytes() == \
            reference_forward(net, x.reshape(1, -1))[0].tobytes()
        x_before = x.copy()
        net.forward(x)
        np.testing.assert_array_equal(x, x_before)  # input left untouched


def test_forward_dimension_mismatch_raises():
    net = make_net()
    with pytest.raises(ValueError):
        net.forward(np.zeros(5))


def test_inference_is_deterministic():
    net = make_net()
    x = np.random.default_rng(2).normal(size=3)
    np.testing.assert_array_equal(net.forward(x), net.forward(x))


def test_normalization_uses_frozen_running_stats():
    net = make_net()
    x = np.array([10.0, -5.0, 2.0])
    before = net.forward(x)
    net.update_norm_stats(np.tile(x * 3, (16, 1)) +
                          np.random.default_rng(3).normal(size=(16, 3)))
    after = net.forward(x)
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(net.forward(x), after)  # frozen between calls


# ---- gradients ---------------------------------------------------------


def test_gradient_check_100_random_small_nets():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = QNetwork(2, 3, 4, rng=rng)
        # scale weights up so pre-activations sit away from the ReLU kink
        net.W1 *= 10.0
        net.b1[:] = rng.normal(size=net.b1.shape)
        state = rng.normal(size=2)
        action = int(rng.integers(3))
        target = float(rng.normal())
        err = rlcore.backward_check(net, state, action, target)
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"


def test_scalar_adam_first_step_matches_closed_form():
    net = QNetwork(1, 1, 1, rng=np.random.default_rng(0))
    net.W1[:] = 1.0
    net.b1[:] = 0.0
    net.W2[:] = 0.5
    net.b2[:] = 0.0
    adam = AdamState(learning_rate=1e-4)
    state = np.array([[2.0]])
    batch = (state, np.array([0]), np.array([3.0]), state, np.array([1.0]))
    target_net = net.copy()
    loss = train_step(net, target_net, batch, gamma=0.95, adam=adam)
    # norm stats are folded in before the loss: mean 0.02, var 0.99
    mean = (1.0 - BN_MOMENTUM) * 2.0
    var = BN_MOMENTUM * 1.0
    z = (2.0 - mean) / math.sqrt(var + BN_EPS)
    h = z  # relu passthrough, W1 = 1, b1 = 0
    q = 0.5 * h
    diff = q - 3.0  # done=1 -> target is the bare reward
    assert abs(loss - diff * diff) < 1e-12
    # first Adam step collapses to p -= lr * g / (|g| + eps)
    lr, eps = 1e-4, 1e-8

    def step(p0, g):
        return p0 - lr * g / (abs(g) + eps)

    g_w2 = 2.0 * diff * h
    g_b2 = 2.0 * diff
    g_h = 2.0 * diff * 0.5
    g_w1 = g_h * z
    g_b1 = g_h
    assert abs(net.W2[0, 0] - step(0.5, g_w2)) < 1e-12
    assert abs(net.b2[0] - step(0.0, g_b2)) < 1e-12
    assert abs(net.W1[0, 0] - step(1.0, g_w1)) < 1e-12
    assert abs(net.b1[0] - step(0.0, g_b1)) < 1e-12


def test_train_step_done_masks_bootstrap():
    net = make_net(2, 2, 3, seed=3)
    target = net.copy()
    states = np.random.default_rng(4).normal(size=(4, 2))
    batch = (states, np.array([0, 1, 0, 1]), np.ones(4), states, np.ones(4))
    # replicate the post-stats-update loss on a clone
    clone = net.copy()
    clone.update_norm_stats(states)
    q = clone.forward(states)[np.arange(4), batch[1]]
    expect_loss = float(np.mean((q - 1.0) ** 2))  # y = r when done
    loss = train_step(net, target, batch, gamma=0.95, adam=AdamState())
    assert abs(loss - expect_loss) < 1e-12


def test_overfit_single_transition_loss_decreases():
    net = make_net(3, 2, 8, seed=4)
    target = net.copy()
    adam = AdamState(learning_rate=1e-2)
    s = np.array([[0.3, -0.2, 0.5]])
    batch = (s, np.array([1]), np.array([2.0]), np.zeros((1, 3)),
             np.array([1.0]))
    losses = [train_step(net, target, batch, 0.95, adam) for _ in range(400)]
    assert losses[-1] < losses[0] * 1e-2
    assert all(math.isfinite(l) for l in losses)


# ---- epsilon schedule and action selection -----------------------------


def test_epsilon_closed_form():
    for k in (1, 10, 1000, 50_000):
        sched = EpsilonSchedule(eps0=1.0, eps_min=0.01, decay=0.99985)
        for _ in range(k):
            sched.advance()
        assert abs(sched.value - max(0.99985 ** k, 0.01)) < 1e-9
        assert sched.steps == k
    assert EpsilonSchedule().value == 1.0


def test_select_action_greedy_argmax_with_lowest_index_ties():
    net = make_net(2, 3, 2, seed=5)
    net.W1[:] = 0.0
    net.b1[:] = 1.0
    net.W2[:] = 0.0
    net.b2[:] = [2.0, 2.0, 1.0]  # tie between actions 0 and 1
    sched = EpsilonSchedule()
    rng = np.random.default_rng(0)
    a = select_action(net, np.zeros(2), sched, rng, greedy=True)
    assert a == 0
    assert sched.value == 1.0  # greedy mode does not decay


def test_select_action_pure_exploration_uniform_chi2():
    net = make_net(2, 10, 2, seed=6)
    sched = EpsilonSchedule(eps0=1.0, eps_min=1.0, decay=1.0)
    rng = np.random.default_rng(7)
    n = 100_000
    counts = np.zeros(10)
    state = np.zeros(2)
    for _ in range(n):
        counts[select_action(net, state, sched, rng)] += 1
    expected = n / 10
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square, 9 dof: 99.9th percentile ~ 27.9
    assert chi2 < 27.9, f"chi2={chi2:.1f}, counts={counts}"


def test_select_action_decays_only_on_non_greedy_calls():
    net = make_net(2, 3, 2, seed=8)
    sched = EpsilonSchedule(eps0=0.5, eps_min=0.01, decay=0.9)
    rng = np.random.default_rng(9)
    select_action(net, np.zeros(2), sched, rng)
    assert abs(sched.value - 0.45) < 1e-12
    select_action(net, np.zeros(2), sched, rng, greedy=True)
    assert abs(sched.value - 0.45) < 1e-12


# ---- target sync -------------------------------------------------------


def test_sync_target_makes_forward_equal():
    net = make_net(seed=10)
    target = make_net(seed=11)
    s = np.random.default_rng(12).normal(size=3)
    assert not np.array_equal(net.forward(s), target.forward(s))
    sync_target(net, target)
    np.testing.assert_array_equal(net.forward(s), target.forward(s))
    # sync is a copy, not an alias
    net.W1 += 1.0
    assert not np.array_equal(net.W1, target.W1)


# ---- replay buffer -----------------------------------------------------


def test_replay_rows_grow_with_use():
    buf = ReplayBuffer(100_000, 13)
    assert len(buf.states) == 0
    state = np.zeros(13)
    for n in range(1, 301):
        buf.push(state, 0, 0.0, state, False)
        for arr in (buf.states, buf.actions, buf.rewards, buf.next_states,
                    buf.dones):
            assert n <= len(arr) <= 2 * n


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(5, 1)
    for i in range(7):
        buf.push(np.array([float(i)]), i, float(i), np.array([-float(i)]),
                 i % 2 == 0)
    assert len(buf.states) == 5 and len(buf) == 5 and buf.pos == 2
    assert buf.states[:, 0].tolist() == [5.0, 6.0, 2.0, 3.0, 4.0]
    assert buf.actions.tolist() == [5, 6, 2, 3, 4]
    assert buf.next_states[:, 0].tolist() == [-5.0, -6.0, -2.0, -3.0, -4.0]
    assert buf.dones.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]


def test_replay_sample_draws_uniform_indices_over_size():
    buf = ReplayBuffer(1000, 1)
    for i in range(37):
        buf.push(np.array([float(i)]), i, float(i), np.array([0.0]), False)
    states, actions, rewards, _, _ = buf.sample(64, np.random.default_rng(8))
    idx = np.random.default_rng(8).integers(0, 37, size=64)
    np.testing.assert_array_equal(states[:, 0], idx.astype(float))
    np.testing.assert_array_equal(actions, idx)
    np.testing.assert_array_equal(rewards, idx.astype(float))


def test_replay_sampling_uniformity():
    buf = ReplayBuffer(16, 1)
    for i in range(16):
        buf.push(np.array([float(i)]), 0, 0.0, np.array([0.0]), False)
    rng = np.random.default_rng(13)
    draws = 200_000
    counts = np.zeros(16)
    for _ in range(draws // 50):
        states, _, _, _, _ = buf.sample(50, rng)
        for v in states[:, 0]:
            counts[int(v)] += 1
    expected = draws / 16
    sigma = math.sqrt(draws * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_replay_sample_fields_align():
    buf = ReplayBuffer(8, 2)
    buf.push(np.array([1.0, 2.0]), 3, 4.0, np.array([5.0, 6.0]), True)
    states, actions, rewards, next_states, dones = buf.sample(
        4, np.random.default_rng(0))
    np.testing.assert_array_equal(states, np.tile([1.0, 2.0], (4, 1)))
    assert np.all(actions == 3) and np.all(rewards == 4.0)
    np.testing.assert_array_equal(next_states, np.tile([5.0, 6.0], (4, 1)))
    assert np.all(dones == 1.0)


def test_replay_sample_empty_raises():
    buf = ReplayBuffer(8, 2)
    with pytest.raises(ValueError):
        buf.sample(4, np.random.default_rng(0))


# ---- checkpoints -------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = make_net(seed=14)
    net.update_norm_stats(np.random.default_rng(15).normal(size=(32, 3)))
    adam = AdamState(learning_rate=3e-4)
    sched = EpsilonSchedule(eps0=0.7, eps_min=0.05, decay=0.999)
    sched.advance()
    path = tmp_path / "net.ckpt"
    rlcore.save_checkpoint(path, net, adam, sched)
    net2, adam2, sched2 = rlcore.load_checkpoint(path)
    states = np.random.default_rng(16).normal(size=(100, 3))
    np.testing.assert_array_equal(net.forward(states), net2.forward(states))
    assert adam2.learning_rate == adam.learning_rate
    assert sched2.value == sched.value and sched2.steps == sched.steps


def test_checkpoint_truncation_raises(tmp_path):
    net = make_net(seed=17)
    path = tmp_path / "net.ckpt"
    rlcore.save_checkpoint(path, net, AdamState(), EpsilonSchedule())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        rlcore.load_checkpoint(path)


def test_checkpoint_corruption_raises(tmp_path):
    net = make_net(seed=18)
    path = tmp_path / "net.ckpt"
    rlcore.save_checkpoint(path, net, AdamState(), EpsilonSchedule())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        rlcore.load_checkpoint(path)


def test_checkpoint_bad_magic_raises(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        rlcore.load_checkpoint(path)


def test_checkpoint_training_resumes_identically(tmp_path):
    net = make_net(2, 2, 3, seed=19)
    target = net.copy()
    adam = AdamState(learning_rate=1e-3)
    rng = np.random.default_rng(20)
    batch = (rng.normal(size=(8, 2)), rng.integers(2, size=8),
             rng.normal(size=8), rng.normal(size=(8, 2)), np.zeros(8))
    train_step(net, target, batch, 0.95, adam)
    path = tmp_path / "mid.ckpt"
    rlcore.save_checkpoint(path, net, adam, EpsilonSchedule())
    loss_a = train_step(net, target, batch, 0.95, adam)
    net2, adam2, _ = rlcore.load_checkpoint(path)
    loss_b = train_step(net2, target, batch, 0.95, adam2)
    assert loss_a == loss_b
    np.testing.assert_array_equal(net.W2, net2.W2)
