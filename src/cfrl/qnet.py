"""Feedforward action-value network trained by plain-SGD TD updates.

The network maps a state vector to one value per action. Updates follow the
semi-gradient rule w += lr * mean[(y - Q(s,a)) * grad Q(s,a)] over a
minibatch, where the bootstrap target y comes from a periodically synced
frozen copy and its max ranges over the actions still available in the
successor state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .persist import expect_end, read_exact, write_manifest
from .seeding import rng_for

_QN_MAGIC = b"CFRLQN\x00\x01"
_QN_VERSION = 1

_ACTIVATION_CODES = {"tanh": 0, "relu": 1}


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_deriv_from_output(name: str, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


@dataclass
class QNetwork:
    layer_sizes: tuple
    weights: list            # weights[l]: (layer_sizes[l+1], layer_sizes[l])
    biases: list             # biases[l]: (layer_sizes[l+1],)
    activation: str = "tanh"

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "QNetwork":
        return QNetwork(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activation=self.activation,
        )


@dataclass
class TargetNetwork:
    """Frozen parameter snapshot used for bootstrap targets."""

    net: QNetwork
    staleness: int = 0


def qnet_init(layer_sizes, seed: int = 0, activation: str = "tanh") -> QNetwork:
    """Seeded Glorot-uniform network; same seed gives bit-identical parameters."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be >= 1, got {sizes}")
    if activation not in _ACTIVATION_CODES:
        raise ValueError(f"unknown activation {activation!r}")
    rng = rng_for(seed, "qnet-init")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return QNetwork(layer_sizes=sizes, weights=weights, biases=biases, activation=activation)


def forward(net: QNetwork, state: np.ndarray) -> np.ndarray:
    """Action values for a single state vector."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (net.input_dim,):
        raise ValueError(f"state shape {state.shape} does not match input width {net.input_dim}")
    return forward_batch(net, state[None, :])[0]


def forward_batch(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Action values for a (batch, input_dim) matrix of states."""
    a = np.asarray(states, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {a.shape} does not match input width {net.input_dim}")
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if l == last else _act(net.activation, z)
    return a


def _forward_cached(net: QNetwork, states: np.ndarray):
    """Forward pass keeping per-layer outputs for backprop."""
    activations = [np.asarray(states, dtype=np.float64)]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = activations[-1] @ w.T + b
        activations.append(z if l == last else _act(net.activation, z))
    return activations


def _backprop(net: QNetwork, activations, delta_out):
    """Parameter gradients given the gradient at the (identity) output layer."""
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    delta = delta_out
    for l in range(len(net.weights) - 1, -1, -1):
        grads_w[l] = delta.T @ activations[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.weights[l]) * _act_deriv_from_output(
                net.activation, activations[l]
            )
    return grads_w, grads_b


def as_bool_mask(mask, n: int) -> np.ndarray:
    """Normalize an availability mask (bool vector, index collection, or packed)."""
    if hasattr(mask, "to_bool"):
        return mask.to_bool()
    arr = np.asarray(mask)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(f"mask length {arr.shape} does not match {n} actions")
        return arr
    out = np.zeros(n, dtype=bool)
    out[arr.astype(np.int64)] = True
    return out


def masked_argmax(values: np.ndarray, mask: np.ndarray) -> int:
    """Index of the largest value among available actions, lowest index on ties."""
    if not mask.any():
        raise ValueError("empty availability mask")
    masked = np.where(mask, values, -np.inf)
    return int(np.argmax(masked))


def td_target(transition, target: TargetNetwork, gamma: float, mask_next) -> float:
    """Bootstrap target y = r + gamma * max over available actions, or r at end.

    Args:
        transition: anything exposing r, s_next and done.
        target: frozen network evaluated at the successor state.
        gamma: discount in [0, 1].
        mask_next: availability at the successor state (bool vector or indices).
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must be in [0, 1]")
    if transition.done:
        return float(transition.r)
    mask = as_bool_mask(mask_next, target.net.output_dim)
    if not mask.any():
        raise ValueError("non-terminal transition with no available next actions")
    q_next = forward(target.net, transition.s_next)
    return float(transition.r + gamma * np.max(q_next[mask]))


def train_step(net: QNetwork, target: TargetNetwork, batch, gamma: float, lr: float) -> float:
    """One averaged semi-gradient step on a minibatch of transitions.

    Only the output unit of each taken action receives an error signal. The
    target network's staleness counter advances by one.

    Returns:
        Mean squared TD error of the batch before the parameter update.

    Raises:
        DivergenceError: the TD loss is no longer finite.
        ValueError: empty batch, or a non-terminal transition with no
            available successor actions.
    """
    if not batch:
        raise ValueError("empty batch")
    n = net.output_dim
    batch_size = len(batch)
    states = np.stack([tr.s for tr in batch])
    actions = np.array([tr.a for tr in batch], dtype=np.int64)
    rewards = np.array([tr.r for tr in batch], dtype=np.float64)
    done = np.array([tr.done for tr in batch], dtype=bool)

    # overflow here is the divergence signal, caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        y = rewards.copy()
        live = np.flatnonzero(~done)
        if live.size:
            next_states = np.stack([batch[k].s_next for k in live])
            q_next = forward_batch(target.net, next_states)
            masks = np.stack([as_bool_mask(batch[k].mask_next, n) for k in live])
            if not masks.any(axis=1).all():
                raise ValueError("non-terminal transition with no available next actions")
            best = np.where(masks, q_next, -np.inf).max(axis=1)
            y[live] += gamma * best

        activations = _forward_cached(net, states)
        q = activations[-1]
        rows = np.arange(batch_size)
        residual = y - q[rows, actions]
        loss = float(np.mean(residual**2))
        if not np.isfinite(loss):
            raise DivergenceError("TD loss became non-finite; lower the learning rate")

        delta_out = np.zeros_like(q)
        delta_out[rows, actions] = -residual / batch_size
        grads_w, grads_b = _backprop(net, activations, delta_out)
        for w, gw in zip(net.weights, grads_w):
            w -= lr * gw
        for b, gb in zip(net.biases, grads_b):
            b -= lr * gb
    target.staleness += 1
    return loss


def make_target(net: QNetwork) -> TargetNetwork:
    return TargetNetwork(net=net.copy(), staleness=0)


def sync_target(net: QNetwork, target: TargetNetwork) -> TargetNetwork:
    """Copy the live parameters into the target snapshot and reset staleness."""
    if target.net.layer_sizes != net.layer_sizes or target.net.activation != net.activation:
        raise ValidationError(
            f"architecture mismatch: {target.net.layer_sizes}/{target.net.activation} "
            f"vs {net.layer_sizes}/{net.activation}"
        )
    for tw, w in zip(target.net.weights, net.weights):
        tw[:] = w
    for tb, b in zip(target.net.biases, net.biases):
        tb[:] = b
    target.staleness = 0
    return target


def flatten_params(net: QNetwork) -> np.ndarray:
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def assign_params(net: QNetwork, flat: np.ndarray) -> None:
    offset = 0
    for w, b in zip(net.weights, net.biases):
        w[:] = flat[offset : offset + w.size].reshape(w.shape)
        offset += w.size
        b[:] = flat[offset : offset + b.size]
        offset += b.size
    if offset != flat.size:
        raise ValueError(f"parameter vector length {flat.size} does not match {offset}")


def save_qnet(net: QNetwork, path, manifest: dict | None = None) -> None:
    """Write the binary checkpoint and, if given, a JSON manifest sidecar."""
    with open(path, "wb") as fh:
        fh.write(_QN_MAGIC)
        fh.write(struct.pack("<II", _QN_VERSION, len(net.layer_sizes)))
        fh.write(struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes))
        fh.write(struct.pack("<B", _ACTIVATION_CODES[net.activation]))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype=np.float64).tobytes())
            fh.write(np.ascontiguousarray(b, dtype=np.float64).tobytes())
    if manifest is not None:
        write_manifest(path, manifest)


def load_qnet(path) -> QNetwork:
    """Read a save_qnet checkpoint; any other length or header raises ValidationError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_QN_MAGIC))
        if magic != _QN_MAGIC:
            raise ValidationError(f"{path}: not a Q-network checkpoint")
        version, n_layers = struct.unpack("<II", read_exact(fh, 8, path))
        if version != _QN_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        sizes = struct.unpack(f"<{n_layers}I", read_exact(fh, 4 * n_layers, path))
        if len(sizes) < 2 or min(sizes) < 1:
            raise ValidationError(f"{path}: invalid layer sizes {sizes}")
        code = read_exact(fh, 1, path)[0]
        activation = {v: k for k, v in _ACTIVATION_CODES.items()}.get(code)
        if activation is None:
            raise ValidationError(f"{path}: unknown activation code {code}")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = np.frombuffer(read_exact(fh, fan_out * fan_in * 8, path), dtype=np.float64)
            weights.append(w.reshape(fan_out, fan_in).copy())
            b = np.frombuffer(read_exact(fh, fan_out * 8, path), dtype=np.float64)
            biases.append(b.copy())
        expect_end(fh, path)
    return QNetwork(layer_sizes=tuple(sizes), weights=weights, biases=biases, activation=activation)
