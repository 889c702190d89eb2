"""Reference computations that the tests hold the program against.

Nothing in `cfrl` calls these: each restates, one transition or one rating
at a time, what a vectorized routine of the package computes, so a test can
compare the two. Transition and stack write minibatches down row by row for
qnet.train_step, which takes one qnet.Batch.
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
