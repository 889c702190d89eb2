"""Tiny deterministic MDP exposed through the episodic environment interface.

Three states (state 2 absorbing), three actions, rewards chosen so the
optimal policy is unique. Used as the convergence oracle for the Q-learning
loop: value iteration on the explicit tables gives the exact targets.
"""

import numpy as np

from cfrl.env import EnvState

# state -> action -> (next state, reward, terminal)
TRANSITIONS = {
    0: {0: (1, 1.0, False), 1: (2, 2.0, True), 2: (1, 0.0, False)},
    1: {0: (2, 3.0, True), 1: (2, 0.0, True), 2: (2, 1.5, True)},
}
N_STATES = 3
N_ACTIONS = 3
LIVE_STATES = (0, 1)


class ChainEnv:
    """Duck-typed stand-in for the recommendation environment."""

    n = N_ACTIONS

    def __init__(self, horizon: int = 10):
        self.horizon = horizon
        self.d = N_STATES

    def _state(self, s: int, t: int) -> EnvState:
        onehot = np.zeros(N_STATES)
        onehot[s] = 1.0
        return EnvState(
            user=0, t=t, raw_state=onehot.copy(), cf_state=onehot,
            avail=np.ones(N_ACTIONS, dtype=bool), asked=(), horizon=self.horizon,
            ratings=np.zeros(N_ACTIONS),
        )

    def reset(self, user: int) -> EnvState:
        return self._state(0, 0)

    def step(self, state: EnvState, action: int):
        s = int(np.argmax(state.cf_state))
        s2, reward, terminal = TRANSITIONS[s][int(action)]
        return reward, self._state(s2, state.t + 1), bool(terminal)


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
