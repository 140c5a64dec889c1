"""Minimal deep Q-learning stack on numpy.

One-hidden-layer MLP (ReLU, linear head) with input-feature normalization
kept as running mean/variance, Adam, MSE loss on the taken action, a uniform
ring replay buffer, a frozen target copy, and an epsilon-greedy schedule.

Each QNetwork keeps W1, b1, W2 and b2 as reshaped views into one contiguous
vector ``flat``, in checkpoint order, and its gradients as the same views
into ``grad``.  The networks are small (13 inputs, tens of units), so an
update costs numpy calls, not arithmetic: the gradients are written into
``grad`` in place, and Adam, being elementwise, runs once over the whole
vector instead of once per parameter array, with the same float operations
on each element.  Checkpoints store ``flat`` and the Adam moments as the
four parameter arrays back to back, so the file format is the per-array one.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

BN_MOMENTUM = 0.99
BN_EPS = 1e-8

INIT_STD = 0.05  # std of the normal draw for fresh W1 and W2 entries

CHECKPOINT_MAGIC = b"ACSQ"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt, truncated, or wrong-version checkpoint file."""


class QNetwork:
    """Q-value MLP: input normalization -> ReLU hidden layer -> linear head."""

    def __init__(self, input_dim: int, output_dim: int, hidden_dim: int = 30,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        W1 = rng.normal(0.0, INIT_STD, (input_dim, hidden_dim))
        W2 = rng.normal(0.0, INIT_STD, (hidden_dim, output_dim))
        self._bind(np.zeros(self._flat_size()))
        self.W1[...] = W1
        self.W2[...] = W2
        self.running_mean = np.zeros(input_dim)
        self.running_var = np.ones(input_dim)

    def _flat_size(self) -> int:
        i, h, o = self.input_dim, self.hidden_dim, self.output_dim
        return i * h + h + h * o + o

    def _views(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """W1, b1, W2, b2 as reshaped views into one flat vector."""
        i, h, o = self.input_dim, self.hidden_dim, self.output_dim
        a = i * h
        b = a + h
        c = b + h * o
        return vec[:a].reshape(i, h), vec[a:b], vec[b:c].reshape(h, o), vec[c:]

    def _bind(self, flat: np.ndarray) -> None:
        """Take `flat` as the parameter vector, with a fresh gradient."""
        self.flat = flat
        self.W1, self.b1, self.W2, self.b2 = self._views(flat)
        self.grad = np.zeros_like(flat)
        self.dW1, self.db1, self.dW2, self.db2 = self._views(self.grad)

    def parameters(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.running_mean) / np.sqrt(self.running_var + BN_EPS)

    def update_norm_stats(self, batch: np.ndarray) -> None:
        """Fold a training batch into the running input statistics.

        The batch mean and variance are the sums and divisions that
        ``batch.mean(axis=0)`` and ``batch.var(axis=0)`` make, with the mean
        computed once.
        """
        n = batch.shape[0]
        mean = np.add.reduce(batch, 0) / n
        dev = batch - mean
        dev *= dev
        var = np.add.reduce(dev, 0) / n
        m = BN_MOMENTUM
        self.running_mean *= m
        self.running_mean += (1.0 - m) * mean
        self.running_var *= m
        self.running_var += (1.0 - m) * var

    def forward(self, state: np.ndarray) -> np.ndarray:
        """Q-values for one state (1-d) or a batch (2-d), inference mode."""
        x = np.asarray(state, dtype=float)
        squeeze = x.ndim == 1
        if x.ndim < 2:
            x = x.reshape(1, -1)
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"state dimension {x.shape[1]} != input_dim {self.input_dim}")
        z = self.normalize(x)
        h = z @ self.W1
        h += self.b1
        np.maximum(h, 0.0, out=h)
        q = h @ self.W2
        q += self.b2
        return q[0] if squeeze else q

    def copy(self) -> "QNetwork":
        out = QNetwork.__new__(QNetwork)
        out.input_dim = self.input_dim
        out.hidden_dim = self.hidden_dim
        out.output_dim = self.output_dim
        out.clone_from(self)
        return out

    def clone_from(self, other: "QNetwork") -> None:
        self._bind(other.flat.copy())
        self.running_mean = other.running_mean.copy()
        self.running_var = other.running_var.copy()


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Copy the online parameters (and normalization stats) into the target."""
    target_net.clone_from(net)


class AdamState:
    """Adam moments `m` and `v` as flat vectors, parallel to a network's
    ``flat`` parameter vector."""

    def __init__(self, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """Update the flat parameter vector `p` in place from gradient `g`."""
        if self.m is None:
            self.m = np.zeros_like(p)
            self.v = np.zeros_like(p)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling.

    Rows are allocated as they fill: the arrays double (up to `capacity`)
    when the write position reaches their end, so a buffer holding N
    transitions holds at most 2N rows.
    """

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.zeros((0, state_dim))
        self.actions = np.zeros(0, dtype=np.int64)
        self.rewards = np.zeros(0)
        self.next_states = np.zeros((0, state_dim))
        self.dones = np.zeros(0)
        self.size = 0
        self.pos = 0

    def _grow(self) -> None:
        rows = min(self.capacity, max(1, 2 * len(self.rewards)))
        for name in ("states", "actions", "rewards", "next_states", "dones"):
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def push(self, state, action: int, reward: float, next_state, done: bool) -> None:
        i = self.pos
        if i == len(self.rewards):
            self._grow()
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.dones[i] = 1.0 if done else 0.0
        self.pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self.size, size=batch_size)
        return (self.states.take(idx, axis=0), self.actions[idx],
                self.rewards[idx], self.next_states.take(idx, axis=0),
                self.dones[idx])

    def __len__(self) -> int:
        return self.size


@dataclass
class EpsilonSchedule:
    eps0: float = 1.0
    eps_min: float = 0.01
    decay: float = 0.99985
    value: float = field(default=None)  # type: ignore[assignment]
    steps: int = 0

    def __post_init__(self):
        if self.value is None:
            self.value = self.eps0

    def advance(self) -> None:
        self.value = max(self.value * self.decay, self.eps_min)
        self.steps += 1


def select_action(net: QNetwork, state: np.ndarray, schedule: EpsilonSchedule,
                  rng: np.random.Generator, greedy: bool = False) -> int:
    """Epsilon-greedy action; decays epsilon once per exploratory selection.

    Greedy mode (evaluation) neither explores nor decays.  Argmax ties break
    toward the lowest index.
    """
    if not greedy:
        explore = rng.random() < schedule.value
        schedule.advance()
        if explore:
            return int(rng.integers(0, net.output_dim))
    q = net.forward(state)
    return int(q.argmax())


def _loss_grads(net: QNetwork, states: np.ndarray, actions: np.ndarray,
                targets: np.ndarray):
    """MSE loss on the taken actions; the gradients of all parameters are
    written into ``net.grad``, which is returned with the loss."""
    n = states.shape[0]
    z = net.normalize(states)
    pre = z @ net.W1
    pre += net.b1
    h = np.maximum(pre, 0.0)
    q = h @ net.W2
    q += net.b2
    rows = np.arange(n)
    diff = q[rows, actions] - targets
    loss = float(np.add.reduce(diff * diff) / n)
    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * diff / n
    np.matmul(h.T, dq, out=net.dW2)
    np.add.reduce(dq, axis=0, out=net.db2)
    dh = dq @ net.W2.T
    np.putmask(dh, pre <= 0.0, 0.0)
    np.matmul(z.T, dh, out=net.dW1)
    np.add.reduce(dh, axis=0, out=net.db1)
    return loss, net.grad


def train_step(net: QNetwork, target_net: QNetwork, batch, gamma: float,
               adam: AdamState) -> float:
    """One DQN update: y = r + gamma * (1 - done) * max_a' Q_target(s', a')."""
    states, actions, rewards, next_states, dones = batch
    net.update_norm_stats(states)
    q_next = target_net.forward(next_states)
    targets = rewards + gamma * (1.0 - dones) * q_next.max(axis=1)
    loss, grad = _loss_grads(net, states, actions, targets)
    adam.step(net.flat, grad)
    return loss


def backward_check(net: QNetwork, state: np.ndarray, action: int,
                   target: float, fd_eps: float = 1e-6) -> float:
    """Max analytic-vs-central-difference gradient error for one sample.

    Relative where the gradient magnitude is meaningful, absolute near zero.
    """
    state = np.asarray(state, dtype=float).reshape(1, -1)
    actions = np.array([action])
    targets = np.array([float(target)])
    # the finite differences below overwrite net.grad
    grad = _loss_grads(net, state, actions, targets)[1].copy()

    def loss_at() -> float:
        loss, _ = _loss_grads(net, state, actions, targets)
        return loss

    worst = 0.0
    flat = net.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + fd_eps
        hi = loss_at()
        flat[i] = orig - fd_eps
        lo = loss_at()
        flat[i] = orig
        fd = (hi - lo) / (2.0 * fd_eps)
        scale = max(abs(grad[i]), abs(fd))
        err = abs(grad[i] - fd)
        if scale > 1e-6:
            err /= scale
        if err > worst:
            worst = err
    return worst


# ---- checkpointing -----------------------------------------------------


def _pack_array(arr: np.ndarray) -> bytes:
    return arr.astype(np.float64).tobytes(order="C")


def save_checkpoint(path, net: QNetwork, adam: AdamState,
                    schedule: EpsilonSchedule) -> None:
    """Write net weights, Adam moments and the epsilon state to `path`.

    The file is written and synced beside `path`, then renamed over it, so
    a failed write or a crash leaves the previous checkpoint whole.  The
    parameters and each Adam moment are stored as W1, b1, W2, b2 back to
    back, which is the order of the flat vectors.
    """
    m = adam.m if adam.m is not None else np.zeros_like(net.flat)
    v = adam.v if adam.v is not None else np.zeros_like(net.flat)
    payload = b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<III", net.input_dim, net.hidden_dim, net.output_dim),
        _pack_array(net.running_mean),
        _pack_array(net.running_var),
        _pack_array(net.flat),
        struct.pack("<Qd", adam.t, adam.learning_rate),
        struct.pack("<ddd", adam.beta1, adam.beta2, adam.eps),
        _pack_array(m),
        _pack_array(v),
        struct.pack("<ddddQ", schedule.eps0, schedule.eps_min,
                    schedule.decay, schedule.value, schedule.steps),
    ])
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[QNetwork, AdamState, EpsilonSchedule]:
    """Read a checkpoint; raises CheckpointError on any corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError("checkpoint file truncated")
    payload, crc_bytes = blob[:-4], blob[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError("checkpoint checksum mismatch")
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(payload):
            raise CheckpointError("checkpoint file truncated")
        out = payload[off:off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    input_dim, hidden_dim, output_dim = struct.unpack("<III", take(12))

    def take_array(shape) -> np.ndarray:
        n = int(np.prod(shape))
        return np.frombuffer(take(8 * n), dtype=np.float64).reshape(shape).copy()

    net = QNetwork.__new__(QNetwork)
    net.input_dim, net.hidden_dim, net.output_dim = input_dim, hidden_dim, output_dim
    net.running_mean = take_array((input_dim,))
    net.running_var = take_array((input_dim,))
    size = net._flat_size()
    net._bind(take_array((size,)))

    t, lr = struct.unpack("<Qd", take(16))
    beta1, beta2, eps = struct.unpack("<ddd", take(24))
    adam = AdamState(lr, beta1, beta2, eps)
    adam.t = t
    adam.m = take_array((size,))
    adam.v = take_array((size,))

    eps0, eps_min, decay, value, steps = struct.unpack("<ddddQ", take(40))
    schedule = EpsilonSchedule(eps0, eps_min, decay, value, steps)
    if off != len(payload):
        raise CheckpointError("trailing bytes in checkpoint file")
    return net, adam, schedule
