"""Minimal deep Q-learning stack on numpy.

One-hidden-layer MLP (ReLU, linear head) with input-feature normalization
kept as running mean/variance, Adam, MSE loss on the taken action, a uniform
ring replay buffer, a frozen target copy, and an epsilon-greedy schedule.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

BN_MOMENTUM = 0.99
BN_EPS = 1e-8

CHECKPOINT_MAGIC = b"ACSQ"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt, truncated, or wrong-version checkpoint file."""


class QNetwork:
    """Q-value MLP: input normalization -> ReLU hidden layer -> linear head."""

    def __init__(self, input_dim: int, output_dim: int, hidden_dim: int = 30,
                 rng: np.random.Generator | None = None, init_std: float = 0.05):
        if rng is None:
            rng = np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.W1 = rng.normal(0.0, init_std, (input_dim, hidden_dim))
        self.b1 = np.zeros(hidden_dim)
        self.W2 = rng.normal(0.0, init_std, (hidden_dim, output_dim))
        self.b2 = np.zeros(output_dim)
        self.running_mean = np.zeros(input_dim)
        self.running_var = np.ones(input_dim)

    def parameters(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.running_mean) / np.sqrt(self.running_var + BN_EPS)

    def update_norm_stats(self, batch: np.ndarray) -> None:
        """Fold a training batch into the running input statistics."""
        m = BN_MOMENTUM
        self.running_mean *= m
        self.running_mean += (1.0 - m) * batch.mean(axis=0)
        self.running_var *= m
        self.running_var += (1.0 - m) * batch.var(axis=0)

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
        self.W1 = other.W1.copy()
        self.b1 = other.b1.copy()
        self.W2 = other.W2.copy()
        self.b2 = other.b2.copy()
        self.running_mean = other.running_mean.copy()
        self.running_var = other.running_var.copy()


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Copy the online parameters (and normalization stats) into the target."""
    target_net.clone_from(net)


class AdamState:
    def __init__(self, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
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
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.dones[idx])

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
    """MSE loss on the taken actions plus gradients for all parameters."""
    n = states.shape[0]
    z = net.normalize(states)
    pre = z @ net.W1 + net.b1
    h = np.maximum(pre, 0.0)
    q = h @ net.W2 + net.b2
    rows = np.arange(n)
    diff = q[rows, actions] - targets
    loss = float(np.mean(diff * diff))
    dq = np.zeros_like(q)
    dq[rows, actions] = 2.0 * diff / n
    dW2 = h.T @ dq
    db2 = dq.sum(axis=0)
    dh = dq @ net.W2.T
    dh[pre <= 0.0] = 0.0
    dW1 = z.T @ dh
    db1 = dh.sum(axis=0)
    return loss, [dW1, db1, dW2, db2]


def train_step(net: QNetwork, target_net: QNetwork, batch, gamma: float,
               adam: AdamState) -> float:
    """One DQN update: y = r + gamma * (1 - done) * max_a' Q_target(s', a')."""
    states, actions, rewards, next_states, dones = batch
    net.update_norm_stats(states)
    q_next = target_net.forward(next_states)
    targets = rewards + gamma * (1.0 - dones) * q_next.max(axis=1)
    loss, grads = _loss_grads(net, states, actions, targets)
    adam.step(net.parameters(), grads)
    return loss


def backward_check(net: QNetwork, state: np.ndarray, action: int,
                   target: float, fd_eps: float = 1e-6) -> float:
    """Max analytic-vs-central-difference gradient error for one sample.

    Relative where the gradient magnitude is meaningful, absolute near zero.
    """
    state = np.asarray(state, dtype=float).reshape(1, -1)
    actions = np.array([action])
    targets = np.array([float(target)])
    _, grads = _loss_grads(net, state, actions, targets)

    def loss_at() -> float:
        loss, _ = _loss_grads(net, state, actions, targets)
        return loss

    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + fd_eps
            hi = loss_at()
            flat_p[i] = orig - fd_eps
            lo = loss_at()
            flat_p[i] = orig
            fd = (hi - lo) / (2.0 * fd_eps)
            scale = max(abs(flat_g[i]), abs(fd))
            err = abs(flat_g[i] - fd)
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
    """Write net weights, Adam moments and the epsilon state to `path`."""
    if adam.m is None:
        adam.m = [np.zeros_like(p) for p in net.parameters()]
        adam.v = [np.zeros_like(p) for p in net.parameters()]
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<III", net.input_dim, net.hidden_dim, net.output_dim),
        _pack_array(net.running_mean),
        _pack_array(net.running_var),
    ]
    for p in net.parameters():
        parts.append(_pack_array(p))
    parts.append(struct.pack("<Qd", adam.t, adam.learning_rate))
    parts.append(struct.pack("<ddd", adam.beta1, adam.beta2, adam.eps))
    for arr in adam.m + adam.v:
        parts.append(_pack_array(arr))
    parts.append(struct.pack("<ddddQ", schedule.eps0, schedule.eps_min,
                             schedule.decay, schedule.value, schedule.steps))
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


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
    shapes = [(input_dim, hidden_dim), (hidden_dim,),
              (hidden_dim, output_dim), (output_dim,)]
    net.W1, net.b1, net.W2, net.b2 = (take_array(s) for s in shapes)

    t, lr = struct.unpack("<Qd", take(16))
    beta1, beta2, eps = struct.unpack("<ddd", take(24))
    adam = AdamState(lr, beta1, beta2, eps)
    adam.t = t
    adam.m = [take_array(s) for s in shapes]
    adam.v = [take_array(s) for s in shapes]

    eps0, eps_min, decay, value, steps = struct.unpack("<ddddQ", take(40))
    schedule = EpsilonSchedule(eps0, eps_min, decay, value, steps)
    if off != len(payload):
        raise CheckpointError("trailing bytes in checkpoint file")
    return net, adam, schedule
