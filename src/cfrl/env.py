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

The environment alone says which users can play a full episode, which items
a user may still be shown and what each pays: the learners train on its
playable users, the replay derives availability from it, and check_episodes
refuses a saved record of episodes that its reset and step would not play.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import IllegalActionError, ValidationError


# check_episodes' lockstep block: 20,000 x 40 steps check in 0.25 s (0.35 s at 1,000)
_CHECK_BLOCK = 250


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
        # rated items a user needs to play a full episode: the horizon under
        # task1, whose catalog is the user's rated items
        self._min_rated = horizon if task is TaskMode.TASK_I else 0

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
        if self._min_rated:
            short = np.flatnonzero(ends - starts < self._min_rated)
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
        avail = self.available(users, np.empty((users.size, 0), dtype=np.int64))
        return EnvState(users=users, t=0, avail=avail, ratings=ratings)

    def playable(self, users) -> list:
        """The users, sorted, that can play a full episode: those reset accepts."""
        counts = np.diff(self.ds.indptr)
        return sorted(u for u in users if counts[u] >= self._min_rated)

    def available(self, users, taken) -> np.ndarray:
        """The one statement of which items a user may be shown: the (U, n)
        bool availability of each of the (U,) array `users` once its row of
        `taken`, a (U, w) block of items (w >= 0; a row may repeat one to
        pad), was recommended: the task's catalog (task1: the user's rated
        items) minus those items."""
        if self.task is TaskMode.TASK_I:
            avail = np.unpackbits(self._catalogs[users], axis=1, count=self.n).view(bool)
        else:
            avail = np.ones((len(users), self.n), dtype=bool)
        # one scatter over the flat view: each row's items offset by its row
        avail.reshape(-1)[taken + np.arange(0, avail.size, self.n)[:, None]] = False
        return avail

    @cached_property
    def _catalogs(self) -> np.ndarray:
        """Each user's task1 catalog, their rated items, as np.packbits packs a bool row."""
        packed = np.zeros((self.ds.m, (self.n + 7) // 8), dtype=np.uint8)
        users, items = np.repeat(np.arange(self.ds.m), np.diff(self.ds.indptr)), self.ds.items
        np.bitwise_or.at(packed, (users, items >> 3), (0x80 >> (items & 7)).astype(np.uint8))
        return packed

    def step(self, state: EnvState, actions):
        """Take one action per row; returns ((U,) rewards, next state, done).

        Reward is the logged rating, or 0 when the full-catalog task hits an
        unrated item; a method that keeps a state sees that 0 as its
        feedback, so a miss acts as negative feedback. Every row is at the
        same step, so done is one flag for the block. An unavailable item
        raises IllegalActionError with the first such row.
        """
        users = state.users
        if state.t >= self.horizon:
            first = f" for user {users[0]}" if users.size else ""
            raise IllegalActionError(f"episode{first} is already done")
        actions = np.asarray(actions)
        if actions.shape != users.shape or actions.dtype.kind not in "iu":
            raise IllegalActionError(
                f"actions {actions.dtype}{actions.shape} are not one item index per user "
                f"of the block of {users.size}"
            )
        rows = np.arange(users.size)
        legal = (actions >= 0) & (actions < self.n)
        legal[legal] = state.avail[rows[legal], actions[legal]]
        if not legal.all():
            row = int(np.flatnonzero(~legal)[0])
            raise IllegalActionError(f"item {actions[row]} is not available at step {state.t} "
                                     f"for user {users[row]}", row=row)
        rewards = state.ratings[rows, actions]
        avail = state.avail.copy()
        avail[rows, actions] = False
        t = state.t + 1
        next_state = EnvState(users=users, t=t, avail=avail, ratings=state.ratings)
        return rewards, next_state, t == self.horizon

    def check_episodes(self, users, ends, items, rewards, done) -> None:
        """Replay a record of episodes through reset and step, _CHECK_BLOCK
        episodes in lockstep, and refuse one that this environment could not
        have played. Episode e is user users[e]'s and holds the steps from
        ends[e - 1] (0 for the first) to ends[e] of items and rewards; ends
        must not decrease, and done[e] is step's done at its last step (False
        for none). The environment ends every episode at its horizon.

        Raises:
            ValidationError: naming the episode, and the step where it
                applies: an episode runs over the horizon or ends before it,
                reset refuses its user, step refuses one of its items (see
                step), a reward is not the one step pays, or its done flag
                is not the one step returned.
        """
        lengths = np.diff(ends, prepend=0)
        for wrong, what in ((lengths > self.horizon, "runs over"),
                            (lengths < self.horizon, "ends before")):
            if wrong.any():
                e = int(np.flatnonzero(wrong)[0])
                raise ValidationError(f"episode {e} of {lengths[e]} steps {what} the horizon "
                                      f"{self.horizon}, where the environment ends it")
        items = items.reshape(len(users), self.horizon)
        rewards = rewards.reshape(len(users), self.horizon)
        block = _CHECK_BLOCK
        for first in range(0, len(users), block):
            state, ended = self.reset(users[first:first + block]), False
            for t in range(self.horizon):
                try:
                    paid, state, ended = self.step(state, items[first:first + block, t])
                except IllegalActionError as exc:
                    e, item = first + exc.row, int(items[first + exc.row, t])
                    catalog = self.available(users[[e]], np.empty((1, 0), dtype=np.int64))[0]
                    why = (f"item outside 0..{self.n - 1}" if not 0 <= item < self.n else
                           "the episode repeats an item" if catalog[item] else
                           "the user has not rated it")
                    raise ValidationError(f"episode {e}: {exc}: {why}") from None
                wrong = np.flatnonzero(paid != rewards[first:first + block, t])
                if wrong.size:
                    row = int(wrong[0])
                    got = float(rewards[first + row, t])
                    what = (f"a reward is not finite ({got!r})" if not np.isfinite(got) else
                            f"reward {got!r} is not the {float(paid[row])!r} that step pays")
                    raise ValidationError(f"episode {first + row} step {t}: {what}")
            wrong = np.flatnonzero(done[first:first + block] != ended)
            if wrong.size:
                e = first + int(wrong[0])
                raise ValidationError(f"episode {e}: done is {bool(done[e])}, but the environment "
                                      f"{'ended' if ended else 'did not end'} it at its last step")


def run_episode(environment, users, policy) -> list:
    """Play one episode of `policy` for a block of users in lockstep; returns
    its steps in order, each ((U,) actions, (U,) rewards, done).

    After the reset and policy.begin_episode(users), each step
    policy.act((U, n) avail) picks an item per user, the environment pays
    the rewards, and policy.observe(items, rewards, done) sees them before
    the next act. The episode ends at done or after environment.horizon
    steps.
    """
    state = environment.reset(users)
    policy.begin_episode(users)
    steps = []
    for _ in range(environment.horizon):
        actions = policy.act(state.avail)
        rewards, state, done = environment.step(state, actions)
        policy.observe(actions, rewards, done)
        steps.append((actions, rewards, done))
        if done:
            break
    return steps
