"""Reference computations that the tests hold the program against.

Nothing in `cfrl` calls these: each restates, one transition or one rating
at a time or over every input densely, what a vectorized or sparse routine
of the package computes, so a test can compare the two. raw_update and
raw_pairs are the raw (dqn) state written densely, as an (n,) vector of the
rewards observed so far, and its canonical pairs. Transition and stack
write minibatches down row by row for qnet.train_step, which takes one
qnet.Batch; dense_train_step is that update over dense states.
"""

from typing import NamedTuple

import numpy as np

from cfrl import qnet


class Transition(NamedTuple):
    """One environment step: state, action, reward, successor, terminal flag
    and the bool availability at the successor."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool
    mask_next: np.ndarray


def stack(transitions) -> qnet.Batch:
    """The transitions as one qnet.Batch, a row each."""
    return qnet.Batch(
        s=np.stack([tr.s for tr in transitions]),
        a=np.array([tr.a for tr in transitions], dtype=np.int64),
        r=np.array([tr.r for tr in transitions], dtype=np.float64),
        s_next=np.stack([tr.s_next for tr in transitions]),
        done=np.array([tr.done for tr in transitions], dtype=bool),
        mask_next=np.stack([tr.mask_next for tr in transitions]),
    )


def replay_rows(memory) -> dict:
    """memory.state() with dense "s" and "s_next" columns in either layout.

    A raw-layout memory keeps each state as (item, reward) pairs; here each
    row is rebuilt pair by pair, and its successor is the state with the
    taken action's reward written in."""
    rows = dict(memory.state())
    if memory.raw_horizon is None:
        return rows
    n = memory.state_dim
    s = np.zeros((len(rows["a"]), n))
    for k, (items, rewards) in enumerate(zip(rows.pop("s_items"), rows.pop("s_rewards"))):
        for item, reward in zip(items, rewards):
            if item < n:
                s[k, item] = reward
    s_next = s.copy()
    s_next[np.arange(len(s)), rows["a"]] = rows["r"]
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


def td_target(transition: Transition, target: qnet.TargetNetwork, gamma: float) -> float:
    """Bootstrap target y = r + gamma * max over the successor's available
    actions of the frozen network, or r at the end of an episode."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must be in [0, 1]")
    if transition.done:
        return float(transition.r)
    if not transition.mask_next.any():
        raise ValueError("non-terminal transition with no available next actions")
    q_next = qnet.forward(target.net, transition.s_next)
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


def q_taken(net: qnet.QNetwork, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Q(s, a) of each state's taken action, computed as train_step computes
    it: the last hidden layer's row dot with each taken output row."""
    return qnet._gathered_q(net, qnet._hidden_layers(net, states)[-1], actions)


def rating_grads(u_vec, v_vec, rating, reg):
    """Gradients of (u.v - r)^2 + reg*(|u|^2 + |v|^2) w.r.t. u and v."""
    err = float(u_vec @ v_vec) - rating
    grad_u = 2.0 * (err * v_vec + reg * u_vec)
    grad_v = 2.0 * (err * u_vec + reg * v_vec)
    return grad_u, grad_v
