"""The policy interface that env.run_episode plays, and Q-learning as a policy.

A policy plays a block of users in lockstep: it acts with one item per user
and observes one (item, reward) per user. Evaluation plays a split's test
users as one block; the Q-learner trains on blocks of one user.

The Q-learner acts epsilon-greedily on its own state, which state_kind
starts and advances from each (item, reward): the latent user vector, which
an online MF step advances, or the raw state as its canonical qnet.Pairs,
which put_pairs advances. Every observed step goes into a bounded replay
memory (arrays, one column per transition field) and is followed by one
minibatch TD update, with the target network, a plain copy of the network,
re-synced every fixed number of updates. The replay keeps each row's state
but not its successor, which it derives with the same state update as play,
so a state advances in one place. It samples a minibatch as one qnet.Batch
of (s, a, y): each row keeps its bootstrap value, the target's max over the
successor's available actions, and computes it (the TD update's one n-wide
product) only when the row is sampled for the first time after its push or
after a target sync. The same policy trains both the latent-state agent and
the raw-rating-vector variant. The trainer keeps one record of the episodes
it has played, and its step, sync and episode counts, its training log and
its trace all derive from that record.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mf, qnet
from .env import InteractiveEnv, TaskMode, run_episode
from .errors import ValidationError
from .persist import atomic_text, load_npz, save_npz
from .seeding import rng_for


class ReplayMemory:
    """Bounded FIFO buffer of transitions; oldest entries are evicted first.

    Transitions are stored column by column in arrays (struct of arrays):
    states, actions, rewards, terminal flags, the successor availability
    masks packed eight actions to a byte, and each row's bootstrap value with
    the target sync it was computed under. Slot k holds the k-th pushed
    transition until the buffer is full; after that each push overwrites the
    oldest slot. The arrays grow geometrically with the rows filled, up to
    the capacity, so a large capacity costs nothing until used.

    A row keeps no successor state. The memory is built from the learner's
    (start, update) of state_kind, and successors derives a row's successor
    as update(state, a, r): the step that advanced the learner's state in
    play, so the successor is that state bit for bit.

    The bootstrap value v(s') of a non-terminal row, the max of the target
    network over the successor's available actions, only changes when the
    target is synced. So a row keeps it in next_value, stamped with the
    trainer's sync count at the time (push writes -1: not yet computed), and
    sample computes it only for the sampled rows whose stamp is not the
    current sync count, in one forward_batch of the target over those rows,
    each row once. A terminal row's value is never computed: it stays the 0
    that push writes.

    The layout follows from `start`. A latent start, a (1, d) array, keeps
    each state as d floats; at d = 16 and n = 1,586 items a row takes 356
    bytes. A raw start, canonical qnet.Pairs T + 1 wide (see put_pairs),
    keeps a state's first T pairs, items ascending and padded with item n
    (n_actions) and reward 0, in the columns s_items and s_rewards: the
    last pair of a state that play pushes is always padding. At n = 1,586
    and T = 40 a row takes 708 bytes in place of 25.6 KB. A sampled batch's
    states are these T pairs as they are stored, which train_step reads as
    one qnet.Columns matrix; successors pads them to start's width first,
    as put_pairs needs.
    """

    _MIN_ROWS = 64

    def __init__(self, capacity: int, n_actions: int, start, update):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.n_actions = n_actions
        self.start = start
        self.update = update
        self.raw = isinstance(start, qnet.Pairs)
        if self.raw:
            width = start.items.shape[1] - 1
            layout = {"s_items": ((width,), np.int32), "s_rewards": ((width,), np.float64)}
        else:
            layout = {"s": ((start.shape[1],), np.float64)}
        self._shapes = {
            **layout,
            "a": ((), np.int64),
            "r": ((), np.float64),
            "done": ((), bool),
            "mask_bits": (((n_actions + 7) // 8,), np.uint8),
            "next_value": ((), np.float64),
            "stamp": ((), np.int32),
        }
        self._cols = {k: np.empty((0, *shape), dtype) for k, (shape, dtype) in self._shapes.items()}
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        rows = min(self.capacity, max(self._MIN_ROWS, 2 * self._size))
        for key, col in self._cols.items():
            grown = np.empty((rows, *col.shape[1:]), col.dtype)
            grown[: self._size] = col[: self._size]
            self._cols[key] = grown

    def push(self, s, a: int, r: float, done: bool, mask_next) -> None:
        """Store one transition from state s (one row, an array or
        qnet.Pairs); mask_next is the successor's bool availability.

        Raises:
            ValueError: a raw state's last pair is not padding: it holds more
                pairs than the horizon.
        """
        if self.raw and s.items[-1] != self.n_actions:
            raise ValueError(f"raw state holds {int((s.items < self.n_actions).sum())} pairs, "
                             f"over the horizon {s.items.shape[0] - 1}")
        if self._size < self.capacity:
            slot = self._size
            if slot == self._cols["a"].shape[0]:
                self._grow()
            self._size += 1
        else:
            slot = self._next
            self._next = (self._next + 1) % self.capacity
        cols = self._cols
        if self.raw:
            cols["s_items"][slot] = s.items[:-1]
            cols["s_rewards"][slot] = s.values[:-1]
        else:
            cols["s"][slot] = s
        cols["a"][slot] = a
        cols["r"][slot] = r
        cols["done"][slot] = done
        cols["mask_bits"][slot] = np.packbits(mask_next)
        cols["next_value"][slot] = 0.0
        cols["stamp"][slot] = -1

    def draw(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """The slots of a uniform minibatch; with replacement only while the
        buffer is smaller than the batch."""
        if not self._size:
            raise ValueError("cannot sample from an empty replay memory")
        if self._size < batch:
            return rng.integers(0, self._size, size=batch)
        return rng.choice(self._size, size=batch, replace=False)

    def sample(self, batch: int, rng: np.random.Generator, target: qnet.QNetwork,
               sync: int, gamma: float) -> qnet.Batch:
        """A uniform minibatch (see draw) as states, actions and TD targets
        y = r + gamma * v(s'), or r at the end of an episode. The bootstrap
        values v(s') are those of the frozen `target`, synced `sync` times;
        the rows that do not hold theirs under that sync get it first.

        Raises:
            ValueError: a non-terminal row's successor has no available action.
        """
        idx = self.draw(batch, rng)
        cols = self._cols
        stale = idx[(cols["stamp"][idx] != sync) & ~cols["done"][idx]]
        if self._size < batch:      # drawn with replacement: a row may repeat
            stale = np.unique(stale)
        if stale.size:
            masks = np.unpackbits(cols["mask_bits"][stale], axis=1, count=self.n_actions)
            cols["next_value"][stale] = qnet.bootstrap_values(target, self.successors(stale),
                                                              masks.view(bool))
            cols["stamp"][stale] = sync
        # a terminal row keeps the 0.0 that push wrote, so its y is r + 0.0 = r;
        # overflow here is the divergence signal, caught by train_step
        with np.errstate(over="ignore", invalid="ignore"):
            y = cols["r"][idx] + gamma * cols["next_value"][idx]
        if self.raw:
            s = qnet.Pairs(cols["s_items"][idx], cols["s_rewards"][idx])
        else:
            s = cols["s"][idx]
        return qnet.Batch(s=s, a=cols["a"][idx], y=y)

    def states(self, idx):
        """The states of rows idx, in the form of start: an array, or
        qnet.Pairs T + 1 wide."""
        cols = self._cols
        if not self.raw:
            return cols["s"][idx]
        shape = (len(idx), self.start.items.shape[1])
        items, rewards = np.full(shape, self.n_actions, dtype=np.int64), np.zeros(shape)
        items[:, :-1] = cols["s_items"][idx]
        rewards[:, :-1] = cols["s_rewards"][idx]
        return qnet.Pairs(items, rewards)

    def successors(self, idx):
        """The successor states of rows idx, in the form of states: each
        row's state advanced by update with its action and reward."""
        return self.update(self.states(idx), self._cols["a"][idx], self._cols["r"][idx])

    def state(self) -> dict:
        """The filled rows of every column (views, not copies), plus "next":
        the slot the next push overwrites once the buffer is full."""
        state = {key: col[: self._size] for key, col in self._cols.items()}
        state["next"] = np.array([self._next], dtype=np.int64)
        return state

    def load(self, state: dict, sync: int) -> None:
        """Replace the contents with a state() as saved by a trainer that had
        synced its target `sync` times.

        Raises:
            ValidationError: an array is missing or does not fit this memory's
                widths, dtypes, capacity or action count, a stamp is outside
                -1..sync, a state or reward is not finite, a non-terminal row
                with a stamp holds a bootstrap value that is not finite, a
                terminal row's is not 0, or a raw row's pairs are not in the
                form push writes: items inside 0..n, those below n (the
                state's items) strictly ascending, each with a nonzero
                reward, and after them only padding (item n, reward 0).
                Another order of the same pairs is not that form and is
                refused too.
        """
        columns = dict(state)
        next_slot = columns.pop("next", None)
        rows = check_columns(columns, self._shapes, "replay")
        if rows > self.capacity:
            raise ValidationError(f"replay holds {rows} rows, over the capacity {self.capacity}")
        if (
            next_slot is None or next_slot.dtype != np.int64 or next_slot.shape != (1,)
            or not 0 <= next_slot[0] < (self.capacity if rows == self.capacity else 1)
        ):
            raise ValidationError(f"replay next slot {next_slot} is invalid for {rows} rows")
        if rows and not ((columns["a"] >= 0) & (columns["a"] < self.n_actions)).all():
            raise ValidationError(f"replay action outside 0..{self.n_actions - 1}")
        for key in ("s", "s_rewards", "r"):
            if key in columns and not np.isfinite(columns[key]).all():
                raise ValidationError(f"replay column {key!r} holds a value that is not finite")
        stamp, values, done = columns["stamp"], columns["next_value"], columns["done"]
        if ((stamp < -1) | (stamp > sync)).any():
            raise ValidationError(f"replay stamp outside -1..{sync} (the target's sync count)")
        if not np.isfinite(values[(stamp >= 0) & ~done]).all():
            raise ValidationError("replay bootstrap value is not finite on a stamped, "
                                  "non-terminal row")
        if (values[done] != 0).any():
            raise ValidationError("replay bootstrap value is not 0 on a terminal row")
        if self.raw:
            items, rewards, n = columns["s_items"], columns["s_rewards"], self.n_actions
            pad = items == n
            if ((items < 0) | (items > n)).any():
                raise ValidationError(f"replay state item outside 0..{n} ({n} pads a row)")
            if (pad[:, :-1] & ~pad[:, 1:]).any():
                raise ValidationError(f"replay state has an item after its padding (item {n})")
            if ((items[:, 1:] <= items[:, :-1]) & ~pad[:, 1:]).any():
                raise ValidationError("replay state items are not strictly ascending: "
                                      "a row repeats an item or lists its items out of order")
            if (rewards[~pad] == 0).any():
                raise ValidationError("replay state holds an item with reward 0")
            if (rewards[pad] != 0).any():
                raise ValidationError(f"replay state padding (item {n}) holds a nonzero reward")
        self._cols = {key: np.require(col, requirements="CW") for key, col in columns.items()}
        self._size = rows
        self._next = int(next_slot[0])


def check_columns(columns: dict, shapes: dict, kind: str) -> int:
    """The row count that the arrays `columns` share. `shapes` maps each key
    to (its shape after the rows, its dtype), and the first key's array sets
    the row count. Raises ValidationError, naming the columns as `kind`, for
    a missing or extra key or an array of another dtype or shape."""
    if set(columns) != set(shapes):
        raise ValidationError(f"{kind} columns {sorted(columns)} != {sorted(shapes)}")
    first = next(iter(shapes))
    rows = columns[first].shape[0] if columns[first].ndim == len(shapes[first][0]) + 1 else -1
    for key, (shape, dtype) in shapes.items():
        col = columns[key]
        if col.dtype != dtype or col.shape != (rows, *shape):
            raise ValidationError(f"{kind} column {key!r} is {col.dtype}{col.shape}, "
                                  f"expected {np.dtype(dtype)}{(rows, *shape)}")
    return rows


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    episodes: int
    horizon: int = 40
    gamma: float = 0.9
    epsilon: float = 0.1
    q_lr: float = 0.001
    sync_period: int = 500
    batch_size: int = 32
    replay_capacity: int = 100_000
    hidden_sizes: tuple = (64,)
    activation: str = "tanh"
    task: TaskMode = TaskMode.TASK_I
    seed: int = 0

    def validate(self) -> None:
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if self.q_lr <= 0 or self.sync_period < 1 or self.batch_size < 1:
            raise ValueError("q_lr, sync_period and batch_size must be positive")
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be >= 1")


def select_action(net, state, mask, epsilon: float, rng) -> int:
    """Epsilon-greedy pick over the actions a bool mask makes available,
    lowest index breaking ties."""
    if mask.dtype != bool or mask.shape != (net.output_dim,):
        raise ValueError(f"mask {mask.dtype}{mask.shape} is not a bool vector over "
                         f"{net.output_dim} actions")
    if epsilon > 0 and rng.random() < epsilon:
        avail = np.flatnonzero(mask)
        if not avail.size:
            raise ValueError("empty availability mask")
        return int(avail[rng.integers(avail.size)])
    # masked_argmax refuses an empty mask
    return int(qnet.masked_argmax(qnet.forward(net, state), mask))


def put_pairs(states: qnet.Pairs, items, rewards, n: int) -> qnet.Pairs:
    """The raw states of a (U, width) block after each row's user gave
    rewards[u] for items[u]. A raw state is kept canonical: its nonzero
    (item, reward) pairs, items ascending, then padding (item n, reward 0)
    to the width; the first layer's rounding depends on the pairs' order.
    Each row drops its item's pair, if it has one, puts (item, reward) into
    its last slot, which must be padding, unless the reward is 0, and is
    sorted stably by item, so that the padding goes back to the end.
    Returns new arrays."""
    width = states.items.shape[1]
    held = states.items == items[:, None]
    next_items = np.where(held, n, states.items)
    next_rewards = np.where(held, 0.0, states.values)
    next_items[:, -1] = np.where(rewards != 0, items, n)
    next_rewards[:, -1] = rewards
    order = np.argsort(next_items, axis=1, kind="stable")
    order += np.arange(0, order.size, width)[:, None]     # flat indices, row by row
    return qnet.Pairs(next_items.ravel()[order], next_rewards.ravel()[order])


def state_update(mf_model: mf.MfModel):
    """The latent state update (states, items, rewards) -> next states: one
    online MF step of each user vector under `mf_model`, as a new array."""
    return lambda states, items, rewards: mf.online_update(mf_model, states, items, rewards)


def state_kind(mf_model: mf.MfModel | None, n: int, horizon: int) -> tuple:
    """A Q-learner's state as StatePolicy's (start, update). With a factor
    model it is the latent user vector, zeros at the start and advanced by
    state_update. With none it is the raw state: the canonical qnet.Pairs of
    the rewards observed so far, horizon + 1 wide (a state of T rewards and
    the one its successor adds), all padding at the start and advanced by
    put_pairs. Acting, the replay and evaluation all keep a raw state in
    this one form; acting and evaluation read it row by row, and training
    reads a minibatch of it as one qnet.Columns matrix."""
    if mf_model is None:
        start = qnet.Pairs(np.full((1, horizon + 1), n, dtype=np.int64), np.zeros((1, horizon + 1)))
        return start, lambda states, items, rewards: put_pairs(states, items, rewards, n)
    return np.zeros((1, mf_model.d)), state_update(mf_model)


class Policy:
    """Episodic policy over a block of U users: begin_episode(users), then per
    step act((U, n) avail) -> (U,) items and observe((U,) items, (U,) rewards,
    (U, n) avail, done)."""

    def begin_episode(self, users) -> None:
        pass

    def act(self, avail: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def observe(self, items, rewards, avail=None, done: bool = False) -> None:
        pass


class StatePolicy(Policy):
    """A policy whose state of a block of U users starts every episode as U
    copies of `start`, one user's state as a block of one row (an array or
    qnet.Pairs), and advances by update(states, items, rewards) on feedback."""

    def __init__(self, start, update):
        self.start = start
        self.update = update
        self.state = start[:0]

    def begin_episode(self, users) -> None:
        self.state = self.start[[0] * len(users)]

    def observe(self, items, rewards, avail=None, done: bool = False) -> None:
        self.state = self.update(self.state, items, rewards)


# The columns of a trainer's episode record, (shape after the rows, dtype):
# one row per episode, and one per step of all episodes in play order.
EPISODE_COLUMNS = {"user": ((), np.int64), "end": ((), np.int64), "loss": ((), np.float64)}
STEP_COLUMNS = {"item": ((), np.int32), "reward": ((), np.float64)}


class QTrainer(StatePolicy):
    """The learning Q-policy and the resumable state of its training run:
    network, target (a plain copy of it), replay, RNGs and the record of the
    episodes it has played. The record holds, per episode, its user, the
    end of its steps among all steps and its mean TD loss, and per step its
    item and reward; the train step, sync and episode counts, the training
    log and the trace all derive from it. It plays one user at a time, a
    block of one, from a start state of state_kind (the raw state's Pairs,
    or a dense state of its width)."""

    def __init__(self, env, users, start, update, cfg: TrainConfig):
        cfg.validate()
        super().__init__(start, update)
        raw = isinstance(start, qnet.Pairs)
        input_dim = env.n if raw else start.shape[1]
        self.env = env
        self.users = sorted(users)
        if not self.users and cfg.episodes > 0:
            raise ValueError("no training users")
        self.cfg = cfg
        sizes = (input_dim, *cfg.hidden_sizes, env.n)
        self.net = qnet.qnet_init(sizes, seed=cfg.seed, activation=cfg.activation)
        if raw:
            self.net = qnet.input_major(self.net)
        self.target = self.net.copy()
        self.memory = ReplayMemory(cfg.replay_capacity, env.n, start, update)
        self.user_rng = rng_for(cfg.seed, "episode-users")
        self.action_rng = rng_for(cfg.seed, "epsilon-greedy")
        self.replay_rng = rng_for(cfg.seed, "replay-sample")
        self.episode = 0    # episodes in the record
        self.record = self._allocate(cfg.episodes)
        self.losses = []    # TD losses of the current episode

    def _allocate(self, episodes: int) -> dict:
        """Record columns for `episodes` episodes of up to the horizon's steps.
        np.empty commits memory only as rows are written, so a column sized
        for the whole run costs what the episodes played so far fill."""
        steps = episodes * self.env.horizon
        return {**{key: np.empty(episodes, dtype) for key, (_, dtype) in EPISODE_COLUMNS.items()},
                **{key: np.empty(steps, dtype) for key, (_, dtype) in STEP_COLUMNS.items()}}

    @property
    def train_steps(self) -> int:
        """The last recorded episode's end plus the current episode's steps."""
        return (int(self.record["end"][self.episode - 1]) if self.episode else 0) + len(self.losses)

    @property
    def sync_count(self) -> int:
        return self.train_steps // self.cfg.sync_period

    def begin_episode(self, users) -> None:
        if len(users) != 1:
            raise ValueError(f"a Q-learner trains on one user at a time, not {len(users)}")
        super().begin_episode(users)

    def act(self, avail: np.ndarray) -> np.ndarray:
        return np.array([select_action(self.net, self.state[0], avail[0], self.cfg.epsilon,
                                       self.action_rng)])

    def observe(self, items, rewards, avail=None, done: bool = False) -> None:
        cfg, s, step = self.cfg, self.state[0], self.train_steps
        super().observe(items, rewards)
        self.record["item"][step], self.record["reward"][step] = items[0], rewards[0]
        self.memory.push(s, items[0], rewards[0], done, avail[0])
        batch = self.memory.sample(cfg.batch_size, self.replay_rng, self.target,
                                   self.sync_count, cfg.gamma)
        self.losses.append(qnet.train_step(self.net, batch, cfg.q_lr))
        if self.train_steps % cfg.sync_period == 0:
            qnet.sync_target(self.net, self.target)

    def run(self, until_episode: int | None = None) -> None:
        """Advance training to the requested episode count (default: all),
        recording each episode as it ends."""
        stop = self.cfg.episodes if until_episode is None else min(until_episode, self.cfg.episodes)
        record = self.record
        while self.episode < stop:
            user = self.users[int(self.user_rng.integers(len(self.users)))]
            run_episode(self.env, [user], self)
            e = self.episode
            record["user"][e], record["end"][e] = user, self.train_steps
            record["loss"][e] = float(np.mean(self.losses)) if self.losses else 0.0
            self.episode, self.losses = e + 1, []

    def episodes(self):
        """Each recorded episode as (episode, user, end, mean TD loss, items,
        rewards), its items and rewards as lists."""
        record, start = self.record, 0
        for e in range(self.episode):
            end = int(record["end"][e])
            yield (e, int(record["user"][e]), end, float(record["loss"][e]),
                   record["item"][start:end].tolist(), record["reward"][start:end].tolist())
            start = end

    def save(self, path) -> None:
        """Full-state checkpoint: exact continuation on load.

        The state is written to a temporary file beside `path` that then
        replaces it, so a save that fails part-way leaves the previous state.
        """
        meta = {
            "user_rng": self.user_rng.bit_generator.state,
            "action_rng": self.action_rng.bit_generator.state,
            "replay_rng": self.replay_rng.bit_generator.state,
            "run": self.run_record,
        }
        arrays = {
            "net": qnet.flatten_params(self.net),
            "target": qnet.flatten_params(self.target),
            "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        }
        for key in EPISODE_COLUMNS:
            arrays[f"record_{key}"] = self.record[key][: self.episode]
        for key in STEP_COLUMNS:
            arrays[f"record_{key}"] = self.record[key][: self.train_steps]
        for key, array in self.memory.state().items():
            arrays[f"replay_{key}"] = array
        save_npz(path, arrays)

    @cached_property
    def run_record(self) -> dict:
        """What a saved state must match to be resumed: the TrainConfig except
        its episode count, the dataset's (m, n) and digest, and a digest of
        the training users, which stands in for the split."""
        ds = self.env.ds
        record = {**vars(self.cfg), "hidden_sizes": list(self.cfg.hidden_sizes),
                  "task": self.cfg.task.value, "dataset": [ds.m, ds.n, ds.digest()],
                  "train_users": hashlib.sha256(np.array(self.users, dtype=np.int64)).hexdigest()}
        del record["episodes"]
        return record

    def _check_record(self, record: dict) -> int:
        """The episode count of a saved record.

        Raises:
            ValidationError: a column is missing or has another dtype or
                shape, an episode ends before the one before it or runs over
                the horizon, the last episode does not end at the step
                count, a user is not one of the run's training users, an
                item is outside 0..n-1, or a reward or loss is not finite.
        """
        episodes = check_columns({key: record[key] for key in EPISODE_COLUMNS}, EPISODE_COLUMNS,
                                 "episode record")
        steps = check_columns({key: record[key] for key in STEP_COLUMNS}, STEP_COLUMNS,
                              "episode record")
        ends, horizon = record["end"], self.env.horizon
        lengths = np.diff(ends, prepend=0)
        if (lengths < 0).any():
            raise ValidationError("episode record: an episode ends before the one before it")
        if (lengths > horizon).any():
            raise ValidationError(f"episode record: an episode runs over the horizon {horizon}")
        if (int(ends[-1]) if episodes else 0) != steps:
            raise ValidationError(f"episode record: the last episode does not end at the "
                                  f"record's {steps} steps")
        if not np.isin(record["user"], self.users).all():
            raise ValidationError("episode record: a user is not one of the run's training users")
        if ((record["item"] < 0) | (record["item"] >= self.env.n)).any():
            raise ValidationError(f"episode record: item outside 0..{self.env.n - 1}")
        for key in ("reward", "loss"):
            if not np.isfinite(record[key]).all():
                raise ValidationError(f"episode record: a {key} is not finite")
        return episodes

    def restore(self, path) -> None:
        """Continue from a save(). A file that cannot be read, does not fit
        this trainer (network, action count, replay capacity), was saved by
        a different run (see run_record), holds network parameters, replay
        states or rewards that are not finite, or an episode record that
        _check_record refuses raises ValidationError. So does a state saved
        by an earlier version, which holds no episode record."""
        replay = [f"replay_{key}" for key in self.memory.state()]
        record_keys = [f"record_{key}" for key in (*EPISODE_COLUMNS, *STEP_COLUMNS)]
        fmt = "the replay format changed: "
        changes = {"replay_s": fmt + "raw-state replay rows are now (item, reward) pairs",
                   "replay_s_next": fmt + "replay rows no longer store their successor state",
                   "replay_stamp": fmt + "replay rows now keep their bootstrap value",
                   "record_end": "the state now records its episodes in place of a step count "
                                 "and logs"}
        if not self.memory.raw:
            del changes["replay_s"]
        earlier = {key: f"{change}, and a trainer state saved by an earlier version is not read; "
                        "train afresh" for key, change in changes.items()}
        arrays = load_npz(path, "trainer state",
                          ("net", "target", "meta", *record_keys, *replay), earlier)
        try:
            params = [arrays.pop(key) for key in ("net", "target")]
            meta = json.loads(arrays.pop("meta").tobytes().decode())
            rng_states = [meta[key] for key in ("user_rng", "action_rng", "replay_rng")]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: unreadable trainer state ({exc})") from None
        for flat in params:
            if flat.dtype != np.float64 or flat.shape != (self.net.param_count,):
                raise ValidationError(
                    f"{path}: network parameters are {flat.dtype}{flat.shape}, "
                    f"expected float64{(self.net.param_count,)}"
                )
            if not np.isfinite(flat).all():
                raise ValidationError(f"{path}: network parameters are not finite")
        saved = meta.get("run")
        if not isinstance(saved, dict):
            raise ValidationError(f"{path}: no run record; the state was saved by an earlier version")
        differ = sorted(k for k in saved.keys() | self.run_record.keys()
                        if saved.get(k) != self.run_record.get(k))
        if differ:
            raise ValidationError(f"{path}: saved by a different run: {', '.join(differ)} differ")
        saved_record = {key[len("record_"):]: arrays.pop(key) for key in record_keys}
        memory = ReplayMemory(self.cfg.replay_capacity, self.env.n, self.start, self.update)
        try:
            episodes = self._check_record(saved_record)
            memory.load({key[len("replay_"):]: array for key, array in arrays.items()},
                        len(saved_record["item"]) // self.cfg.sync_period)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        try:
            for rng, state in zip((self.user_rng, self.action_rng, self.replay_rng), rng_states):
                rng.bit_generator.state = state
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError(f"{path}: invalid RNG state ({exc})") from None
        qnet.assign_params(self.net, params[0])
        qnet.assign_params(self.target, params[1])
        self.memory = memory
        # a resume may ask for fewer episodes than the state holds
        self.record = self._allocate(max(self.cfg.episodes, episodes))
        for key, col in saved_record.items():
            self.record[key][: len(col)] = col
        self.episode, self.losses = episodes, []


def eligible_train_users(ds, users, task: TaskMode, horizon: int) -> list:
    """Users whose episodes can run the full horizon under the task's catalog."""
    if task is TaskMode.TASK_II:
        return sorted(users)
    counts = np.diff(ds.indptr)
    return sorted(u for u in users if counts[u] >= horizon)


def make_trainer(ds, split, mf_model: mf.MfModel | None, cfg: TrainConfig) -> QTrainer:
    """Wire a trainer for the latent-state agent, or for the raw-vector
    variant when there is no factor model."""
    environment = InteractiveEnv(ds, cfg.task, cfg.horizon)
    users = eligible_train_users(ds, split.train_users, cfg.task, cfg.horizon)
    return QTrainer(environment, users, *state_kind(mf_model, ds.n, cfg.horizon), cfg)


def write_training_log(path, trainer: QTrainer) -> None:
    """One row per episode in the trainer's record: its number, user, reward
    sum and mean TD loss, the run's epsilon, and the target's sync count at
    the episode's end."""
    cfg = trainer.cfg
    with atomic_text(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "user", "reward_sum", "mean_td_loss", "epsilon", "sync_count"])
        for episode, user, end, loss, _, rewards in trainer.episodes():
            writer.writerow([episode, user, repr(sum(rewards, 0.0)), repr(loss),
                             repr(cfg.epsilon), end // cfg.sync_period])


def write_trace(path, trainer: QTrainer) -> None:
    """One row per step in the trainer's record: (episode, user, t, action,
    reward, done), where done marks an episode's last step."""
    with atomic_text(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "user", "t", "action", "reward", "done"])
        for episode, user, _, _, items, rewards in trainer.episodes():
            last = len(items) - 1
            writer.writerows((episode, user, t, item, reward, t == last)
                             for t, (item, reward) in enumerate(zip(items, rewards)))
