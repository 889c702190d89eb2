"""Feedforward action-value network trained by plain-SGD TD updates.

The network maps a state vector to one value per action. Updates follow the
semi-gradient rule w += lr * mean[(y - Q(s,a)) * grad Q(s,a)] over a
minibatch, where the bootstrap target y comes from a periodically synced
frozen copy and its max ranges over the actions still available in the
successor state.

The error reaches only the output unit of each taken action, so train_step
takes Q(s, a) as a row dot with each of the B taken rows of the output layer
(B*H multiply-adds in place of forward_batch's B*H*n) and updates just those
rows; the hidden layers feed every output and are updated densely. Only the
target's forward pass stays n-wide, for the max over available successor
actions. The row dot rounds differently from the same entry of
forward_batch's matrix product, by about an ulp.

A sparse input, such as the raw rating vector with at most T nonzeros among
n inputs, can be given as Pairs: each row's nonzero (item, value) pairs,
padded to a common width of about T. Its first layer is one 1-row product
per row over the gathered columns of W0 (T of n), and train_step updates
only the columns of W0 that the batch touches, with the dense update's
values. The product's rounding depends on the pairs' order and width, so a
caller keeps every row in one canonical form (items ascending, padding at
the end) at one width, as agent.put_pairs keeps the raw state; it differs
from the dense product by about an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .persist import load_npz, save_npz, write_manifest
from .seeding import rng_for

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
            weights=[w.copy(order="K") for w in self.weights],
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


@dataclass(frozen=True)
class Pairs:
    """Sparse input rows: each row's nonzero inputs as (item, value) pairs,
    items ascending, then padding (item input_dim, value 0) up to the common
    width. One row is a (T,) pair of arrays, a block of rows (U, T)."""

    items: np.ndarray       # (..., T) int input indices
    values: np.ndarray      # (..., T) float64 input values

    def __getitem__(self, rows) -> "Pairs":
        return Pairs(self.items[rows], self.values[rows])

    def dense(self, input_dim: int) -> np.ndarray:
        """The rows as (..., input_dim) vectors; the padding lands in a
        dropped last column."""
        x = np.zeros((*self.items.shape[:-1], input_dim + 1))
        np.put_along_axis(x, self.items, self.values, axis=-1)
        return x[..., :input_dim]


def input_major(net: QNetwork) -> QNetwork:
    """The network with its first layer stored column-major (Fortran order;
    its shape stays (H, n)), sharing every other array. One input's weights
    are then a contiguous row of W0.T, which is what a Pairs row gathers and
    what train_step updates for each input a batch touches. Every value, and
    so every output and checkpoint, is the same as the given network's."""
    return QNetwork(layer_sizes=net.layer_sizes,
                    weights=[np.asfortranarray(net.weights[0]), *net.weights[1:]],
                    biases=list(net.biases), activation=net.activation)


def _first_layer(net: QNetwork, states: Pairs) -> np.ndarray:
    """The first layer's (..., 1, H) pre-activation of pairs: per row one
    (1, T) @ (T, H) product over the gathered columns of W0, called once per
    row, so a row's values do not depend on its block. A padding item gathers
    the last column (clipped) and adds 0 times it."""
    w, b = net.weights[0], net.biases[0]
    z = states.values[..., None, :] @ np.take(w.T, states.items, axis=0, mode="clip")
    z += b
    return z


def forward(net: QNetwork, states) -> np.ndarray:
    """Action values for one (input_dim,) state, or for each row of a
    (U, input_dim) block of states; either may be given as Pairs.

    Every row goes through its own 1-row product (numpy's stacked matmul
    calls BLAS once per row), so a row's values are bit for bit those of the
    row alone, whatever the block around it; forward_batch's matrix product
    rounds differently.
    """
    if isinstance(states, Pairs):
        z = _first_layer(net, states)
    else:
        x = np.asarray(states, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != net.input_dim:
            raise ValueError(f"state shape {x.shape} does not match input width {net.input_dim}")
        z = x[..., None, :] @ net.weights[0].T
        z += net.biases[0]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        z = _act(net.activation, z) @ w.T
        z += b
    return z[..., 0, :]


def forward_batch(net: QNetwork, states) -> np.ndarray:
    """Action values for a (batch, input_dim) matrix of states, or for a
    (batch, T) Pairs."""
    q = _hidden_layers(net, states)[-1] @ net.weights[-1].T
    q += net.biases[-1]
    return q


def _hidden_layers(net: QNetwork, states) -> list:
    """The input and every hidden layer's output; the last feeds the action
    values. Pairs stay the input of a first hidden layer; a network with no
    hidden layer reads them as dense rows."""
    if isinstance(states, Pairs) and len(net.weights) == 1:
        states = states.dense(net.input_dim)
    if isinstance(states, Pairs):
        outputs = [states, _act(net.activation, _first_layer(net, states)[:, 0, :])]
    else:
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != net.input_dim:
            raise ValueError(f"batch shape {x.shape} does not match input width {net.input_dim}")
        outputs = [x]
    for w, b in zip(net.weights[len(outputs) - 1:-1], net.biases[len(outputs) - 1:-1]):
        z = outputs[-1] @ w.T
        z += b
        outputs.append(_act(net.activation, z))
    return outputs


def _descend_touched(w: np.ndarray, lr: float, delta: np.ndarray, x: Pairs) -> None:
    """w -= lr * delta.T @ X for the dense rows X of the pairs x, over the
    input columns x touches: the gradient of every other column is zero. The
    touched columns' gradient is the same matrix product on X's touched
    columns alone, so they get the dense update's values bit for bit."""
    n = w.shape[1]
    touched = np.zeros(n + 1, dtype=bool)
    touched[x.items] = True
    touched[n] = True                       # the padding's column, dropped below
    cols = np.flatnonzero(touched)
    x_touched = np.zeros((len(x.items), cols.size))
    x_touched[np.arange(len(x.items))[:, None], (np.cumsum(touched) - 1)[x.items]] = x.values
    w.T[cols[:-1]] -= (lr * (delta.T @ x_touched[:, :-1])).T


def _gathered_q(net: QNetwork, last_hidden: np.ndarray, actions) -> np.ndarray:
    return np.einsum("ij,ij->i", last_hidden, net.weights[-1][actions]) + net.biases[-1][actions]


def masked_argmax(values: np.ndarray, mask: np.ndarray):
    """Index of the largest value among available actions, lowest index on
    ties, along the last axis: one index for an (n,) mask, one per row for a
    (U, n) mask (values of shape (n,) are shared by every row)."""
    if not mask.any(axis=-1).all():
        raise ValueError("empty availability mask")
    return np.argmax(np.where(mask, values, -np.inf), axis=-1)


@dataclass(frozen=True)
class Batch:
    """A minibatch of transitions as arrays, one row per transition."""

    s: np.ndarray | Pairs           # (B, input_dim) states, or (B, T) Pairs
    a: np.ndarray                   # (B,) int64 taken actions
    r: np.ndarray                   # (B,) float64 rewards
    s_next: np.ndarray | Pairs      # (B, input_dim) successor states, or (B, T) Pairs
    done: np.ndarray                # (B,) bool terminal flags
    mask_next: np.ndarray           # (B, n) bool availability at the successor state


def train_step(net: QNetwork, target: TargetNetwork, batch: Batch, gamma: float,
               lr: float) -> float:
    """One averaged semi-gradient step on a Batch of transitions.

    Only the output unit of each taken action receives an error signal, so
    Q(s, a) is the row dot of _gathered_q and the output layer is updated on the B taken rows
    alone (a scatter-subtract; rows taken twice accumulate both updates). The
    hidden layers, which every output depends on, are updated densely, except
    that a first layer reading Pairs is updated on the input columns the
    batch touches; only the target's forward pass is n-wide. Target staleness
    advances by one.

    Returns:
        Mean squared TD error of the batch before the parameter update.

    Raises:
        DivergenceError: the TD loss is no longer finite.
        ValueError: empty batch, or a non-terminal transition with no
            available successor actions.
    """
    batch_size = batch.a.shape[0]
    if batch_size == 0:
        raise ValueError("empty batch")
    actions = batch.a

    # overflow here is the divergence signal, caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        y = batch.r.copy()
        live = np.flatnonzero(~batch.done)
        if live.size:
            q_next = forward_batch(target.net, batch.s_next[live])
            masks = batch.mask_next[live]
            if not masks.any(axis=1).all():
                raise ValueError("non-terminal transition with no available next actions")
            np.copyto(q_next, -np.inf, where=~masks)
            y[live] += gamma * q_next.max(axis=1)

        hidden = _hidden_layers(net, batch.s)
        residual = y - _gathered_q(net, hidden[-1], actions)
        loss = float(np.mean(residual**2))
        if not np.isfinite(loss):
            raise DivergenceError("TD loss became non-finite; lower the learning rate")

        # error at each taken output unit; every other output's error is zero
        d = -residual / batch_size
        last = len(net.weights) - 1
        w_out = net.weights[last]
        # gradient at the last hidden layer's output, from the weights before the update
        delta = d[:, None] * w_out[actions]
        np.subtract.at(w_out, actions, lr * (d[:, None] * hidden[last]))
        np.subtract.at(net.biases[last], actions, lr * d)
        for l in range(last - 1, -1, -1):
            delta = delta * _act_deriv_from_output(net.activation, hidden[l + 1])
            grad_b = delta.sum(axis=0)
            if isinstance(hidden[l], Pairs):
                _descend_touched(net.weights[l], lr, delta, hidden[l])
            else:
                grad_w = delta.T @ hidden[l]
                if l > 0:
                    delta = delta @ net.weights[l]
                net.weights[l] -= lr * grad_w
            net.biases[l] -= lr * grad_b
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
    """Write the checkpoint atomically and, if given, a JSON manifest sidecar."""
    save_npz(path, {
        "layer_sizes": np.array(net.layer_sizes, dtype=np.int64),
        "activation": np.array(_ACTIVATION_CODES[net.activation], dtype=np.int64),
        "params": flatten_params(net),
    })
    if manifest is not None:
        write_manifest(path, manifest)


def load_qnet(path) -> QNetwork:
    """Read a save_qnet checkpoint; anything else raises ValidationError."""
    arrays = load_npz(path, "Q-network checkpoint", ("layer_sizes", "activation", "params"))
    sizes, code, flat = arrays["layer_sizes"], arrays["activation"], arrays["params"]
    if sizes.dtype != np.int64 or sizes.ndim != 1 or sizes.size < 2 or sizes.min() < 1:
        raise ValidationError(f"{path}: invalid layer sizes {sizes}")
    activation = None
    if code.dtype == np.int64 and code.shape == ():
        activation = {v: k for k, v in _ACTIVATION_CODES.items()}.get(int(code))
    if activation is None:
        raise ValidationError(f"{path}: unknown activation code {code}")
    sizes = tuple(sizes.tolist())
    count = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if flat.dtype != np.float64 or flat.shape != (count,):
        raise ValidationError(
            f"{path}: parameters are {flat.dtype}{flat.shape}, layer sizes {sizes} "
            f"need float64{(count,)}")
    net = QNetwork(
        layer_sizes=sizes,
        weights=[np.empty((fan_out, fan_in)) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])],
        biases=[np.empty(fan_out) for fan_out in sizes[1:]],
        activation=activation,
    )
    assign_params(net, flat)
    return net
