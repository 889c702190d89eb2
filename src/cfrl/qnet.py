"""Feedforward action-value network trained by plain-SGD TD updates.

The network maps a state vector to one value per action. Updates follow the
semi-gradient rule w += lr * mean[(y - Q(s,a)) * grad Q(s,a)] over a
minibatch of (s, a, y). The caller builds each target y = r + gamma * v(s'),
or r at the end of an episode, where the bootstrap value v(s') is the max of
the target's values over the actions still available in the successor state
(bootstrap_values, over a block of successors). The target is a plain
QNetwork, a frozen copy of the network that sync_target refreshes
periodically.

The error reaches only the output unit of each taken action, so train_step
takes Q(s, a) as a row dot with each of the B taken rows of the output layer
(B*H multiply-adds in place of forward_batch's B*H*n) and updates just those
rows; the hidden layers feed every output and are updated densely. train_step
has no n-wide product; bootstrap_values is the one that remains, and the
replay runs it only when a row's value is missing or predates the last
target sync (see agent.ReplayMemory). The row dot rounds differently from the
same entry of forward_batch's matrix product, by about an ulp.

A sparse input, such as the raw rating vector with at most T nonzeros among
n inputs, can be given as Pairs: each row's nonzero (item, value) pairs,
padded to a common width of about T. Acting and evaluation (forward) run one
1-row product per row over the gathered columns of W0 (T of n). Its rounding
depends on the pairs' order and width, so the rows that forward reads are
kept in one canonical form (items ascending, padding at the end) at one
width, as agent.put_pairs keeps the raw state. Training (train_step, and
forward_batch under bootstrap_values) turns a batch of Pairs into Columns, a
dense (B, k) matrix over the k inputs the batch touches, and runs one
(B, k) @ (k, H) product per batch; train_step updates just those k columns
of W0, with the dense update's values, reusing the k rows of W0.T that its
forward gathered. Columns are the same for any order of a row's pairs, any
width and any pair repeated whole, so the replay hands train_step its rows in
play order, and reads a successor as its episode's window of the record
through the row's own step. Each of the three products rounds differently
from the others, by about an ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .persist import load_npz, save_npz, write_manifest
from .seeding import rng_for

ACTIVATION_CODES = {"tanh": 0, "relu": 1}


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


def qnet_init(layer_sizes, seed: int = 0, activation: str = "tanh") -> QNetwork:
    """Seeded Glorot-uniform network; same seed gives bit-identical parameters."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be >= 1, got {sizes}")
    if activation not in ACTIVATION_CODES:
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
    and padding (item input_dim, value 0) up to the common width. forward
    reads rows in the canonical form, items ascending and the padding at the
    end; columns reads them in any order. One row is a (T,) pair of arrays,
    a block of rows (U, T)."""

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

    def columns(self, input_dim: int) -> "Columns":
        """A (B, T) block of rows, of any width, as Columns over the items
        they hold; the padding is dropped. The items' positions come from a
        bool mask over the inputs and a position map, not a sort, so x and
        cols are byte for byte the same for any order of a row's pairs and
        any placement of its padding, as long as a row holds each item at
        most once or repeats its pair whole (the same value written again)."""
        items = self.items.astype(np.intp, copy=False)     # index with it once, not per use
        touched = np.zeros(input_dim + 1, dtype=bool)
        touched[items] = True
        touched[input_dim] = True           # the padding's column, dropped below
        cols = touched.nonzero()[0]
        position = np.empty(input_dim + 1, dtype=np.intp)
        position[cols] = np.arange(cols.size)
        # one scatter over the flat matrix: each row's positions offset by its row
        x = np.zeros(len(items) * cols.size)
        x[position[items] + np.arange(0, x.size, cols.size)[:, None]] = self.values
        return Columns(x.reshape(len(items), cols.size)[:, :-1], cols[:-1])


@dataclass(frozen=True)
class Columns:
    """A batch of sparse input rows as a dense matrix over the k inputs the
    batch touches: x[b, j] is row b's value of input cols[j]. Every other
    input is 0 in every row, so the first layer's pre-activation is
    x @ W0.T[cols] and its weight gradient is 0 off those k columns."""

    x: np.ndarray           # (B, k) float64 input values
    cols: np.ndarray        # (k,) input indices, ascending


def input_major(net: QNetwork) -> QNetwork:
    """The network with its first layer stored column-major (Fortran order;
    its shape stays (H, n)), sharing every other array. One input's weights
    are then a contiguous row of W0.T, which is what a Pairs row gathers and
    what train_step updates for each input a batch touches. Every value, and
    so every output and checkpoint, is the same as the given network's. A
    network with no hidden layer is returned as it is: it reads Pairs as
    dense rows, and its one layer is the output layer, which train_step
    updates by rows."""
    if len(net.weights) == 1:
        return net
    return QNetwork(layer_sizes=net.layer_sizes,
                    weights=[np.asfortranarray(net.weights[0]), *net.weights[1:]],
                    biases=list(net.biases), activation=net.activation)


def _first_layer(net: QNetwork, states: Pairs) -> np.ndarray:
    """The first layer's (..., 1, H) pre-activation of pairs: per row one
    (1, T) @ (T, H) product over the gathered columns of W0, called once per
    row, so a row's values do not depend on its block. A padding item gathers
    the last column (clipped) and adds 0 times it."""
    w, b = net.weights[0], net.biases[0]
    z = states.values[..., None, :] @ w.T.take(states.items, axis=0, mode="clip")
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
    (batch, T) Pairs, through one matrix product per layer."""
    q = _hidden_layers(net, states)[0][-1] @ net.weights[-1].T
    q += net.biases[-1]
    return q


def _hidden_layers(net: QNetwork, states) -> tuple:
    """The input and every hidden layer's output, the last feeding the action
    values, and the rows W0.T[cols] that Columns gathered from the first
    layer (None for dense states). Pairs reach a first hidden layer as their
    Columns; a network with no hidden layer reads them as dense rows."""
    if isinstance(states, Pairs) and len(net.weights) == 1:
        states = states.dense(net.input_dim)
    gathered = None
    if isinstance(states, Pairs):
        x = states.columns(net.input_dim)
        gathered = net.weights[0].T[x.cols]
        z = x.x @ gathered
        z += net.biases[0]
        outputs = [x, _act(net.activation, z)]
    else:
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != net.input_dim:
            raise ValueError(f"batch shape {x.shape} does not match input width {net.input_dim}")
        outputs = [x]
    for w, b in zip(net.weights[len(outputs) - 1:-1], net.biases[len(outputs) - 1:-1]):
        z = outputs[-1] @ w.T
        z += b
        outputs.append(_act(net.activation, z))
    return outputs, gathered


def _subtract_rows(w: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """w[rows[b]] -= values[b] for each b in turn, bit for bit what
    np.subtract.at(w, rows, values) does (a row taken twice gets both
    updates, in order), as one scatter over w's flat view, which is faster
    than the 2-D call.

    Raises:
        ValueError: w is not C-contiguous; its flat form would be a copy,
            and the update would be lost.
    """
    if not w.flags.c_contiguous:
        raise ValueError("rows are subtracted in place only from a C-contiguous array")
    width = w.shape[1]
    np.subtract.at(w.reshape(-1), (rows[:, None] * width + np.arange(width)).ravel(),
                   values.ravel())


def masked_argmax(values: np.ndarray, mask: np.ndarray):
    """Index of the largest value among available actions, lowest index on
    ties, along the last axis: one index for an (n,) mask, one per row for a
    (U, n) mask (values of shape (n,) are shared by every row)."""
    if not mask.any(axis=-1).all():
        raise ValueError("empty availability mask")
    return np.argmax(np.where(mask, values, -np.inf), axis=-1)


def bootstrap_values(net: QNetwork, states, masks: np.ndarray) -> np.ndarray:
    """The (k,) max of net's values over each row's available actions, for a
    (k, input_dim) block of successor states or a (k, T) Pairs and their
    (k, n) bool availability: the bootstrap values of k non-terminal
    transitions under a frozen target network.

    Raises:
        ValueError: a row has no available action, that is a non-terminal
            transition with no available next actions.
    """
    if not masks.any(axis=1).all():
        raise ValueError("non-terminal transition with no available next actions")
    # overflow here is the divergence signal: the value goes into a TD
    # target, and train_step's finiteness check catches it
    with np.errstate(over="ignore", invalid="ignore"):
        q = forward_batch(net, states)
        np.copyto(q, -np.inf, where=~masks)
        return q.max(axis=1)


@dataclass(frozen=True)
class Batch:
    """A minibatch of transitions as arrays, one row per transition."""

    s: np.ndarray | Pairs           # (B, input_dim) states, or (B, T) Pairs
    a: np.ndarray                   # (B,) int64 taken actions
    y: np.ndarray                   # (B,) float64 TD targets


def train_step(net: QNetwork, batch: Batch, lr: float) -> float:
    """One averaged semi-gradient step towards the targets of a Batch.

    Only the output unit of each taken action receives an error signal, so
    Q(s, a) is the last hidden layer's row dot with each taken row of the
    output layer, and the output layer is updated on the B taken rows alone
    (a scatter-subtract; rows taken twice accumulate both updates). The
    hidden layers, which every output depends on, are updated densely,
    except that a first layer reading Pairs is updated on the columns of
    their Columns, the inputs the batch touches; no product is n-wide.

    Returns:
        Mean squared TD error of the batch before the parameter update.

    Raises:
        DivergenceError: the TD loss is no longer finite.
        ValueError: empty batch.
    """
    batch_size = batch.a.shape[0]
    if batch_size == 0:
        raise ValueError("empty batch")
    actions = batch.a

    # overflow here is the divergence signal, caught by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, gathered = _hidden_layers(net, batch.s)
        last = len(net.weights) - 1
        w_out, b_out = net.weights[last], net.biases[last]
        w_taken = w_out[actions]    # the weights before the update
        residual = batch.y - (np.einsum("ij,ij->i", hidden[last], w_taken) + b_out[actions])
        loss = float(np.add.reduce(residual * residual) / batch_size)
        if not np.isfinite(loss):
            raise DivergenceError("TD loss became non-finite; lower the learning rate")

        # error at each taken output unit; every other output's error is zero
        d = -residual / batch_size
        # gradient at the last hidden layer's output
        delta = d[:, None] * w_taken
        _subtract_rows(w_out, actions, lr * (d[:, None] * hidden[last]))
        np.subtract.at(b_out, actions, lr * d)
        for l in range(last - 1, -1, -1):
            delta = delta * _act_deriv_from_output(net.activation, hidden[l + 1])
            grad_b = delta.sum(axis=0)
            if isinstance(hidden[l], Columns):
                # the forward's gathered rows of W0.T, which no update has
                # touched since, serve the update's read
                x = hidden[l]
                gathered -= (lr * (delta.T @ x.x)).T
                net.weights[l].T[x.cols] = gathered
            else:
                grad_w = delta.T @ hidden[l]
                if l > 0:
                    delta = delta @ net.weights[l]
                net.weights[l] -= lr * grad_w
            net.biases[l] -= lr * grad_b
    return loss


def sync_target(net: QNetwork, target: QNetwork) -> None:
    """Copy the live parameters into the target, a frozen copy of net."""
    if target.layer_sizes != net.layer_sizes or target.activation != net.activation:
        raise ValidationError(
            f"architecture mismatch: {target.layer_sizes}/{target.activation} "
            f"vs {net.layer_sizes}/{net.activation}"
        )
    for tw, w in zip(target.weights, net.weights):
        tw[:] = w
    for tb, b in zip(target.biases, net.biases):
        tb[:] = b


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
        "activation": np.array(ACTIVATION_CODES[net.activation], dtype=np.int64),
        "params": flatten_params(net),
    })
    if manifest is not None:
        write_manifest(path, manifest)


def load_qnet(path) -> QNetwork:
    """Read a save_qnet checkpoint; anything else, or parameters that are
    not finite, raises ValidationError."""
    arrays = load_npz(path, "Q-network checkpoint", ("layer_sizes", "activation", "params"))
    sizes, code, flat = arrays["layer_sizes"], arrays["activation"], arrays["params"]
    if sizes.dtype != np.int64 or sizes.ndim != 1 or sizes.size < 2 or sizes.min() < 1:
        raise ValidationError(f"{path}: invalid layer sizes {sizes}")
    activation = None
    if code.dtype == np.int64 and code.shape == ():
        activation = {v: k for k, v in ACTIVATION_CODES.items()}.get(int(code))
    if activation is None:
        raise ValidationError(f"{path}: unknown activation code {code}")
    sizes = tuple(sizes.tolist())
    count = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if flat.dtype != np.float64 or flat.shape != (count,):
        raise ValidationError(
            f"{path}: parameters are {flat.dtype}{flat.shape}, layer sizes {sizes} "
            f"need float64{(count,)}")
    if not np.isfinite(flat).all():
        raise ValidationError(f"{path}: parameters are not finite")
    net = QNetwork(
        layer_sizes=sizes,
        weights=[np.empty((fan_out, fan_in)) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])],
        biases=[np.empty(fan_out) for fan_out in sizes[1:]],
        activation=activation,
    )
    assign_params(net, flat)
    return net
