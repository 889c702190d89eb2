"""Tiny deterministic MDP exposed through the episodic environment interface.

Three states (state 2 absorbing), three actions, rewards chosen so the
optimal policy is unique. Used as the convergence oracle for the Q-learning
loop: value iteration on the explicit tables gives the exact targets.

Like the recommendation environment, ChainEnv only pays rewards, on the same
block interface (here a block of one user); the agent's state comes from
`update`, the toy's own state update, starting from the zero vector every
episode begins with.
"""

from dataclasses import dataclass

import numpy as np

# state -> action -> (next state, reward, terminal)
TRANSITIONS = {
    0: {0: (1, 1.0, False), 1: (2, 2.0, True), 2: (1, 0.0, False)},
    1: {0: (2, 3.0, True), 1: (2, 0.0, True), 2: (2, 1.5, True)},
}
N_STATES = 3
N_ACTIONS = 3
LIVE_STATES = (0, 1)


def encode(s: int) -> np.ndarray:
    """State s as the agent sees it. The start state is the zero vector every
    episode begins from; any other state sets component 0 (the episode has
    started) and component s. Under a plain one-hot code for the other states
    the linear network's bias alone would carry the start state's values,
    shared with every other state, and Q-learning would converge about three
    times slower."""
    vec = np.zeros(N_STATES)
    if s:
        vec[[0, s]] = 1.0
    return vec


def update(states, actions, rewards) -> np.ndarray:
    """The toy's state update, row by row: the encoding of the state each
    action leads to."""
    return np.stack([encode(TRANSITIONS[decode(state)][int(action)][0])
                     for state, action in zip(states, actions)])


def decode(state) -> int:
    return 1 + int(np.argmax(state[1:])) if state.any() else 0


@dataclass
class ChainState:
    s: int
    avail: np.ndarray     # (1, N_ACTIONS)


class ChainEnv:
    """Duck-typed stand-in for the recommendation environment, for a block
    of one user."""

    n = N_ACTIONS

    def __init__(self, horizon: int = 10):
        self.horizon = horizon

    def reset(self, users) -> ChainState:
        assert len(users) == 1
        return ChainState(0, self.available(users, np.empty((1, 0), dtype=np.int64)))

    def available(self, users, taken) -> np.ndarray:
        """Every action, whatever was taken: the toy's availability rule."""
        return np.ones((len(users), N_ACTIONS), dtype=bool)

    def step(self, state: ChainState, actions):
        s2, reward, terminal = TRANSITIONS[state.s][int(actions[0])]
        return np.array([reward]), ChainState(s2, self.available([0], actions[:, None])), bool(terminal)


def value_iteration(gamma: float, sweeps: int = 500) -> np.ndarray:
    """Exact Q* over the live states by exhaustive backups."""
    values = np.zeros(N_STATES)
    q = np.zeros((len(LIVE_STATES), N_ACTIONS))
    for _ in range(sweeps):
        for s in LIVE_STATES:
            for a in range(N_ACTIONS):
                s2, r, terminal = TRANSITIONS[s][a]
                q[s, a] = r + (0.0 if terminal else gamma * values[s2])
        values[: len(LIVE_STATES)] = q.max(axis=1)
    return q
