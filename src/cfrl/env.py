"""Episodic recommendation environment over a block of users' logged ratings.

Each episode replays a block of users in lockstep: every step the agent
recommends one item per user, the logged rating (or 0 for an unrated item in
the full-catalog task) is paid as that user's reward, and recommended items
become unavailable to that user. Rows never interact, so a user's episode is
the same in any block. Evaluation plays all of a split's test users as one
block; training plays a block of one. The environment holds no model of the
users: each policy keeps its own state from the (item, reward) feedback.
States are plain values; every step returns a fresh state so mid-episode
snapshots can be replayed. run_episode plays every rollout of a policy, in
training as in evaluation, for the environment's horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IllegalActionError, ValidationError
from .persist import atomic_text


class TaskMode(Enum):
    """Which items an episode may recommend and how misses are rewarded."""

    TASK_I = "task1"     # only the user's rated items; rewards in 1..5
    TASK_II = "task2"    # full catalog; unrated items pay 0


@dataclass
class EnvState:
    users: np.ndarray         # (U,) int64, the user of each row
    t: int                    # steps taken, the same for every row
    avail: np.ndarray         # (U, n) bool, True where the row's user may take the item
    ratings: np.ndarray       # (U, n) the users' logged ratings, 0 where unrated; shared, read-only


class InteractiveEnv:
    """Factory and transition function for lockstep episodes of user blocks."""

    def __init__(self, ds, task: TaskMode, horizon: int):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.ds = ds
        self.task = task
        self.horizon = horizon
        self.n = ds.n

    def reset(self, users) -> EnvState:
        """Fresh t=0 state of a block, one row per user: full availability
        for the task."""
        users = np.array(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValidationError(f"users must be a sequence of indices, got shape {users.shape}")
        outside = (users < 0) | (users >= self.ds.m)
        if outside.any():
            raise ValidationError(f"user index {users[outside][0]} out of range")
        starts, ends = self.ds.indptr[users], self.ds.indptr[users + 1]
        if self.task is TaskMode.TASK_I:
            short = np.flatnonzero(ends - starts < self.horizon)
            if short.size:
                row = short[0]
                raise ValidationError(
                    f"user {users[row]} has {ends[row] - starts[row]} rated items, fewer than "
                    f"the horizon {self.horizon}; the restricted-catalog episode cannot complete"
                )
        ratings = np.zeros((users.size, self.n), dtype=np.float64)
        for row, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            ratings[row, self.ds.items[start:end]] = self.ds.ratings[start:end]
        ratings.flags.writeable = False
        if self.task is TaskMode.TASK_I:
            avail = ratings > 0
        else:
            avail = np.ones((users.size, self.n), dtype=bool)
        return EnvState(users=users, t=0, avail=avail, ratings=ratings)

    def step(self, state: EnvState, actions):
        """Take one action per row; returns ((U,) rewards, next state, done).

        Reward is the logged rating, or 0 when the full-catalog task hits an
        unrated item; a method that keeps a state sees that 0 as its
        feedback, so a miss acts as negative feedback. Every row is at the
        same step, so done is one flag for the block.
        """
        users = state.users
        if state.t >= self.horizon:
            first = f" for user {users[0]}" if users.size else ""
            raise IllegalActionError(f"episode{first} is already done")
        actions = np.asarray(actions)
        if actions.shape != users.shape or not np.issubdtype(actions.dtype, np.integer):
            raise IllegalActionError(
                f"actions {actions.dtype}{actions.shape} are not one item index per user "
                f"of the block of {users.size}"
            )
        rows = np.arange(users.size)
        legal = (actions >= 0) & (actions < self.n)
        legal[legal] = state.avail[rows[legal], actions[legal]]
        if not legal.all():
            row = np.flatnonzero(~legal)[0]
            raise IllegalActionError(
                f"item {actions[row]} is not available at step {state.t} for user {users[row]}"
            )
        rewards = state.ratings[rows, actions]
        avail = state.avail.copy()
        avail[rows, actions] = False
        t = state.t + 1
        next_state = EnvState(users=users, t=t, avail=avail, ratings=state.ratings)
        return rewards, next_state, t == self.horizon


def run_episode(environment, users, policy) -> list:
    """Play one episode of `policy` for a block of users in lockstep; returns
    its steps in order, each ((U,) actions, (U,) rewards, done).

    After the reset and policy.begin_episode(users), each step
    policy.act((U, n) avail) picks an item per user, the environment pays
    the rewards, and policy.observe(items, rewards, avail after the step,
    done) sees them before the next act. The episode ends at done or after
    environment.horizon steps.
    """
    state = environment.reset(users)
    policy.begin_episode(users)
    steps = []
    for _ in range(environment.horizon):
        actions = policy.act(state.avail)
        rewards, state, done = environment.step(state, actions)
        policy.observe(actions, rewards, state.avail, done)
        steps.append((actions, rewards, done))
        if done:
            break
    return steps


def user_steps(steps, row: int) -> list:
    """One row's (action, reward, done) steps of a run_episode result, as
    Python int, float and bool."""
    return [(int(actions[row]), float(rewards[row]), done) for actions, rewards, done in steps]


def write_trace(path, rows) -> None:
    """Append-free dump of per-step rows (episode, user, t, action, reward, done)."""
    with atomic_text(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "user", "t", "action", "reward", "done"])
        for row in rows:
            writer.writerow(row)
