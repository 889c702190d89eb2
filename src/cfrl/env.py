"""Episodic recommendation environment over one user's logged ratings.

Each episode replays a single user: the agent recommends an item per step,
the logged rating (or 0 for an unrated item in the full-catalog task) is paid
as reward, and recommended items become unavailable. The environment holds no
model of the user: each policy keeps its own state from the (item, reward)
feedback. States are plain values; every step returns a fresh state so
mid-episode snapshots can be replayed. run_episode plays every rollout of a
policy, in training as in evaluation, for the environment's horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IllegalActionError, ValidationError


class TaskMode(Enum):
    """Which items an episode may recommend and how misses are rewarded."""

    TASK_I = "task1"     # only the user's rated items; rewards in 1..5
    TASK_II = "task2"    # full catalog; unrated items pay 0


@dataclass
class EnvState:
    user: int
    t: int
    avail: np.ndarray         # (n,) bool, True where the item may still be taken
    asked: tuple              # items recommended so far, in order
    ratings: np.ndarray       # (n,) the user's logged ratings, 0 where unrated; shared, read-only


class InteractiveEnv:
    """Factory and transition function for per-user episodes."""

    def __init__(self, ds, task: TaskMode, horizon: int):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.ds = ds
        self.task = task
        self.horizon = horizon
        self.n = ds.n

    def reset(self, user: int) -> EnvState:
        """Fresh t=0 state: nothing asked, full availability for the task."""
        if not (0 <= user < self.ds.m):
            raise ValidationError(f"user index {user} out of range")
        start, end = self.ds.indptr[user], self.ds.indptr[user + 1]
        ratings = np.zeros(self.n, dtype=np.float64)
        ratings[self.ds.items[start:end]] = self.ds.ratings[start:end]
        ratings.flags.writeable = False
        if self.task is TaskMode.TASK_I:
            if end - start < self.horizon:
                raise ValidationError(
                    f"user {user} has {end - start} rated items, fewer than the "
                    f"horizon {self.horizon}; the restricted-catalog episode "
                    f"cannot complete"
                )
            avail = ratings > 0
        else:
            avail = np.ones(self.n, dtype=bool)
        return EnvState(
            user=user,
            t=0,
            avail=avail,
            asked=(),
            ratings=ratings,
        )

    def step(self, state: EnvState, action: int):
        """Take one action; returns (reward, next state, done).

        Reward is the logged rating, or 0 when the full-catalog task hits an
        unrated item; a method that keeps a state sees that 0 as its
        feedback, so a miss acts as negative feedback.
        """
        if state.t >= self.horizon:
            raise IllegalActionError(f"episode for user {state.user} is already done")
        if not (0 <= action < self.n) or not state.avail[action]:
            raise IllegalActionError(
                f"item {action} is not available at step {state.t} for user {state.user}"
            )
        reward = float(state.ratings[action])
        avail = state.avail.copy()
        avail[action] = False
        t = state.t + 1
        next_state = EnvState(
            user=state.user,
            t=t,
            avail=avail,
            asked=state.asked + (action,),
            ratings=state.ratings,
        )
        return reward, next_state, t == self.horizon


def run_episode(environment, user: int, policy) -> list:
    """Play one episode of `policy` for a user; returns its (action, reward,
    done) steps in order.

    After the reset and policy.begin_episode(user), each step policy.act(avail)
    picks an item, the environment pays its reward, and policy.observe(item,
    reward, avail after the step, done) sees it before the next act. The
    episode ends at done or after environment.horizon steps.
    """
    state = environment.reset(user)
    policy.begin_episode(user)
    steps = []
    for _ in range(environment.horizon):
        action = policy.act(state.avail)
        reward, state, done = environment.step(state, action)
        policy.observe(action, reward, state.avail, done)
        steps.append((action, reward, done))
        if done:
            break
    return steps


def write_trace(path, rows) -> None:
    """Append-free dump of per-step rows (episode, user, t, action, reward, done)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "user", "t", "action", "reward", "done"])
        for row in rows:
            writer.writerow(row)


def read_trace(path) -> list:
    """Parse rows written by write_trace back into typed tuples."""
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for ep, user, t, action, reward, done in reader:
            out.append((int(ep), int(user), int(t), int(action), float(reward), done == "True"))
    return out
