"""Reference computations that the tests hold the program against.

Nothing in `cfrl` calls these: each restates, one transition or one rating
at a time or over every input densely, what a vectorized or sparse routine
of the package computes, so a test can compare the two. raw_update and
raw_pairs are the raw (dqn) state written densely, as an (n,) vector of the
rewards observed so far, and its canonical pairs. Transition and stack
write minibatches down row by row for qnet.train_step, which takes one
qnet.Batch; td_target is each row's target, one transition at a time, and
dense_train_step is that update over dense states. descend_touched is the
first layer's update on Pairs as a touched-column product built from an
(n + 1)-wide mask, which train_step's update must equal bit for bit.
load_ratings is the ratings reader as one loop over the file's lines.
"""

import io
from typing import NamedTuple

import numpy as np

from cfrl import qnet
from cfrl.dataset import FORMAT_SEPARATORS, MIN_RATINGS_PER_USER, RatingDataset
from cfrl.errors import ParseError, ValidationError


class Transition(NamedTuple):
    """One environment step: state, action, reward, successor, terminal flag
    and the bool availability at the successor."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool
    mask_next: np.ndarray


def stack(transitions, target: qnet.QNetwork, gamma: float) -> qnet.Batch:
    """The transitions as one qnet.Batch, a row each, with each target y
    the td_target of its transition."""
    return qnet.Batch(
        s=np.stack([tr.s for tr in transitions]),
        a=np.array([tr.a for tr in transitions], dtype=np.int64),
        y=np.array([td_target(tr, target, gamma) for tr in transitions]),
    )


def replay_rows(memory, episodes: int) -> dict:
    """memory.state() with each row's record "step", its "episode" and
    "terminal" flag, its action "a" and reward "r", its dense "s" and
    "s_next", and "mask_next", the availability at its successor, in either
    layout, over a record of `episodes` episodes.

    Each row's step is found by replaying the pushes into the ring, slot by
    slot, and its episode by walking the record's episodes to the first
    that ends past the step; the row is terminal if it is that episode's
    last step and the record says the environment ended the episode. A
    raw-layout row's state is rebuilt from the record one step at a time,
    from the first step of its episode, with raw_update; its successor adds
    the row's own step. A latent row's successor is the memory's state
    update applied to that row alone, as play applies it. A row's mask_next
    is the avail of the state that the memory's environment reaches by
    reset and step through the row's episode up to the row's own step."""
    rows = dict(memory.state())
    step_of = {}
    for step in range(memory.pushes):
        step_of[step % memory.capacity] = step
    steps = np.array([step_of[k] for k in range(len(memory))], dtype=np.int64)
    record, env = memory.record, memory.env
    items, rewards = record["item"], record["reward"]
    ends = [int(end) for end in record["end"][:episodes]]
    of = [next(e for e in range(episodes) if ends[e] > step) for step in steps]
    firsts = [ends[e - 1] if e else 0 for e in of]
    terminal = [bool(record["done"][e]) and step == ends[e] - 1 for e, step in zip(of, steps)]
    masks = []
    for step, first, episode in zip(steps, firsts, of):
        state = env.reset([int(record["user"][episode])])
        for g in range(first, step + 1):
            _, state, _ = env.step(state, items[[g]])
        masks.append(state.avail[0])
    a, r = items[steps].astype(np.int64), rewards[steps]
    rows.update(step=steps, episode=np.array(of, dtype=np.int64), terminal=np.array(terminal, bool),
                a=a, r=r, mask_next=np.array(masks).reshape(len(steps), env.n))
    if not memory.raw:
        s = rows["s"]
        s_next = np.array([memory.update(s[[k]], a[[k]], r[[k]])[0]
                           for k in range(len(steps))]).reshape(s.shape)
        return {**rows, "s_next": s_next}
    s = np.zeros((len(steps), env.n))
    for k, (step, first) in enumerate(zip(steps, firsts)):
        for g in range(first, step):
            s[[k]] = raw_update(s[[k]], items[[g]], rewards[[g]])
    s_next = raw_update(s, a, r)
    return {**rows, "s": s, "s_next": s_next}


def raw_update(states, items, rewards) -> np.ndarray:
    """The dense raw states of a (U, n) block after each row's user gave
    rewards[u] for items[u]: each row holds the reward observed at each item
    its user was asked, 0 elsewhere."""
    states = states.copy()
    states[np.arange(len(states)), items] = rewards
    return states


def raw_pairs(states, horizon: int) -> qnet.Pairs:
    """The canonical qnet.Pairs of one (n,) dense raw state or a (U, n)
    block: each row's nonzero (item, reward) pairs, items ascending, padded
    with item n and reward 0 to horizon + 1 pairs, the form agent.put_pairs
    keeps a raw state in.

    Raises:
        ValueError: a row holds more than horizon + 1 nonzeros.
    """
    x = np.asarray(states, dtype=np.float64)
    block = x.reshape(-1, x.shape[-1])
    width, n = horizon + 1, block.shape[1]
    items = np.full((len(block), width), n, dtype=np.int64)
    rewards = np.zeros((len(block), width))
    for row, dense in enumerate(block):
        nonzero = np.flatnonzero(dense)
        if nonzero.size > width:
            raise ValueError(f"raw state holds {nonzero.size} nonzeros, over the {width} "
                             f"pairs of the horizon {horizon}")
        items[row, : nonzero.size] = nonzero
        rewards[row, : nonzero.size] = dense[nonzero]
    return qnet.Pairs(items.reshape(*x.shape[:-1], width), rewards.reshape(*x.shape[:-1], width))


def td_target(transition: Transition, target: qnet.QNetwork, gamma: float) -> float:
    """Bootstrap target y = r + gamma * max over the successor's available
    actions of the frozen network, or r at the end of an episode."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must be in [0, 1]")
    if transition.done:
        return float(transition.r)
    if not transition.mask_next.any():
        raise ValueError("non-terminal transition with no available next actions")
    q_next = qnet.forward(target, transition.s_next)
    return float(transition.r + gamma * np.max(q_next[transition.mask_next]))


def dense_train_step(net, target, batch, gamma, lr):
    """qnet.train_step on a list of Transitions, written densely: every
    layer's forward and update over all of its inputs and outputs, with a
    (B, n) output error that is zero off the taken actions."""
    n = net.output_dim
    states = np.stack([tr.s for tr in batch])
    rows = np.arange(len(batch))
    actions = np.array([tr.a for tr in batch])
    y = np.array([td_target(tr, target, gamma) for tr in batch])
    acts = [states]
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if l == len(net.weights) - 1 else qnet._act(net.activation, z))
    residual = y - acts[-1][rows, actions]
    delta = np.zeros((len(batch), n))
    delta[rows, actions] = -residual / len(batch)
    grads = []
    for l in range(len(net.weights) - 1, -1, -1):
        grads.append((l, delta.T @ acts[l], delta.sum(axis=0)))
        if l > 0:
            delta = (delta @ net.weights[l]) * qnet._act_deriv_from_output(net.activation, acts[l])
    for l, gw, gb in grads:
        net.weights[l] -= lr * gw
        net.biases[l] -= lr * gb
    return float(np.mean(residual**2))


def descend_touched(w: np.ndarray, lr: float, delta: np.ndarray, x: qnet.Pairs) -> None:
    """w -= lr * delta.T @ X for the dense rows X of the canonical pairs x,
    over the input columns x touches: the columns are marked in an
    (n + 1)-wide mask, the padding's column among them, and each pair finds
    its column of X by a cumulative sum of the mask."""
    n = w.shape[1]
    touched = np.zeros(n + 1, dtype=bool)
    touched[x.items] = True
    touched[n] = True                       # the padding's column, dropped below
    cols = np.flatnonzero(touched)
    x_touched = np.zeros((len(x.items), cols.size))
    x_touched[np.arange(len(x.items))[:, None], (np.cumsum(touched) - 1)[x.items]] = x.values
    w.T[cols[:-1]] -= (lr * (delta.T @ x_touched[:, :-1])).T


def q_taken(net: qnet.QNetwork, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Q(s, a) of each state's taken action, computed as train_step computes
    it: the last hidden layer's row dot with each taken output row."""
    hidden = qnet._hidden_layers(net, states)[0][-1]
    return np.einsum("ij,ij->i", hidden, net.weights[-1][actions]) + net.biases[-1][actions]


def rating_grads(u_vec, v_vec, rating, reg):
    """Gradients of (u.v - r)^2 + reg*(|u|^2 + |v|^2) w.r.t. u and v."""
    err = float(u_vec @ v_vec) - rating
    grad_u = 2.0 * (err * v_vec + reg * u_vec)
    grad_v = 2.0 * (err * u_vec + reg * v_vec)
    return grad_u, grad_v


def load_ratings(path, fmt: str = "tab") -> RatingDataset:
    """dataset.load_ratings read one line at a time, whatever the file holds:
    UTF-8 text, any line ends, blank lines skipped, each line stripped and
    split into 4 fields that int() accepts, the fourth dropped."""
    if fmt not in FORMAT_SEPARATORS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMAT_SEPARATORS)}")
    sep = FORMAT_SEPARATORS[fmt]
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            path, data.count(b"\n", 0, exc.start) + 1,
            "not UTF-8 ratings text; a dataset snapshot written by an earlier "
            "`cfrl ingest` is no longer read, so run `cfrl ingest` on the ratings file again",
        ) from None
    users, items, ratings = [], [], []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != 4:
            raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
        try:
            user, item, rating, _ = map(int, parts)
        except ValueError:
            raise ParseError(path, lineno, f"non-integer field in {parts!r}") from None
        users.append(user)
        items.append(item)
        ratings.append(rating)
    if not users:
        raise ValidationError(f"no records in {path}")
    ds = RatingDataset.from_arrays(users, items, ratings)
    counts = np.diff(ds.indptr)
    short = np.flatnonzero(counts < MIN_RATINGS_PER_USER)
    if short.size:
        raise ValidationError(
            f"user {ds.user_ids[short[0]]} has {counts[short[0]]} ratings; "
            f"MovieLens files guarantee at least {MIN_RATINGS_PER_USER}"
        )
    return ds
