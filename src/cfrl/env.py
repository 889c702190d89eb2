"""Episodic recommendation environment over one user's logged ratings.

Each episode replays a single user: the agent recommends an item per step,
the logged rating (or 0 for an unrated item in the full-catalog task) is paid
as reward, recommended items become unavailable, and the user's latent state
advances by one online MF step on the observed value. States are plain values;
every step returns a fresh state so mid-episode snapshots can be replayed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import mf
from .errors import IllegalActionError, ValidationError


class TaskMode(Enum):
    """Which items an episode may recommend and how misses are rewarded."""

    TASK_I = "task1"     # only the user's rated items; rewards in 1..5
    TASK_II = "task2"    # full catalog; unrated items pay 0


@dataclass
class EnvState:
    user: int
    t: int
    raw_state: np.ndarray     # (n,) observed reward at each asked position
    cf_state: np.ndarray      # (d,) online latent user state
    avail: np.ndarray         # (n,) bool, True where the item may still be taken
    asked: tuple              # items recommended so far, in order
    horizon: int


class InteractiveEnv:
    """Factory and transition function for per-user episodes."""

    def __init__(self, ds, model: mf.MfModel, task: TaskMode, horizon: int):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.ds = ds
        self.model = model
        self.task = task
        self.horizon = horizon
        self.n = ds.n
        self.d = model.d

    def reset(self, user: int) -> EnvState:
        """Fresh t=0 state: zero vectors, full availability for the task."""
        if not (0 <= user < self.ds.m):
            raise ValidationError(f"user index {user} out of range")
        if self.task is TaskMode.TASK_I:
            rated = self.ds.user_ratings[user]
            if len(rated) < self.horizon:
                raise ValidationError(
                    f"user {user} has {len(rated)} rated items, fewer than the "
                    f"horizon {self.horizon}; the restricted-catalog episode "
                    f"cannot complete"
                )
            avail = np.zeros(self.n, dtype=bool)
            avail[list(rated)] = True
        else:
            avail = np.ones(self.n, dtype=bool)
        return EnvState(
            user=user,
            t=0,
            raw_state=np.zeros(self.n, dtype=np.float64),
            cf_state=mf.init_user_state(self.d),
            avail=avail,
            asked=(),
            horizon=self.horizon,
        )

    def step(self, state: EnvState, action: int):
        """Take one action; returns (reward, next state, done).

        Reward is the logged rating, or 0 when the full-catalog task hits an
        unrated item; that observed value also drives the raw-state write and
        the online latent update, so a miss acts as negative feedback.
        """
        if state.t >= state.horizon:
            raise IllegalActionError(f"episode for user {state.user} is already done")
        if not (0 <= action < self.n) or not state.avail[action]:
            raise IllegalActionError(
                f"item {action} is not available at step {state.t} for user {state.user}"
            )
        rating = self.ds.rating(state.user, action)
        reward = float(rating) if rating is not None else 0.0

        raw = state.raw_state.copy()
        raw[action] = reward
        avail = state.avail.copy()
        avail[action] = False
        cf = mf.online_update(self.model, state.cf_state, action, reward)
        t = state.t + 1
        next_state = EnvState(
            user=state.user,
            t=t,
            raw_state=raw,
            cf_state=cf,
            avail=avail,
            asked=state.asked + (action,),
            horizon=state.horizon,
        )
        return reward, next_state, t == state.horizon


def run_episode(environment, user: int, horizon: int, act, on_step=None) -> float:
    """Roll one episode for a user; returns the summed reward.

    act(state) picks each action. on_step(t, state, action, reward,
    next_state, done), when given, sees every transition right after the
    environment step, before the next action is picked.
    """
    state = environment.reset(user)
    total = 0.0
    for t in range(horizon):
        action = act(state)
        reward, next_state, done = environment.step(state, action)
        if on_step is not None:
            on_step(t, state, action, reward, next_state, done)
        total += reward
        state = next_state
        if done:
            break
    return total


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
