"""The policy interface that env.run_episode plays, and Q-learning as a policy.

A policy plays a block of users in lockstep: it acts with one item per user
and observes one (item, reward) per user. Evaluation plays a split's test
users as one block; the Q-learner trains on blocks of one user.

The Q-learner acts epsilon-greedily on its own state, which state_kind
starts and advances from each (item, reward): the latent user vector, or the
raw state as its canonical qnet.Pairs, which put_pairs advances in play and
in the replay alike. Every observed step goes into a bounded replay memory
(arrays, one column per transition field, sampled as one qnet.Batch) and is followed by one minibatch TD update, with the target
network re-synced every fixed number of updates. The same policy trains both
the latent-state agent and the raw-rating-vector variant.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mf, qnet
from .env import InteractiveEnv, TaskMode, run_episode, user_steps
from .errors import ValidationError
from .persist import atomic_text, load_npz, save_npz
from .seeding import rng_for


class ReplayMemory:
    """Bounded FIFO buffer of transitions; oldest entries are evicted first.

    Transitions are stored column by column in arrays (struct of arrays):
    states, actions, rewards, successor states, terminal flags and the
    successor availability masks packed eight actions to a byte. Slot k holds
    the k-th pushed transition until the buffer is full; after that each push
    overwrites the oldest slot. The arrays grow geometrically with the rows
    filled, up to the capacity, so a large capacity costs nothing until used.

    With `raw_horizon` set, states are raw states: canonical qnet.Pairs
    (see put_pairs), raw_horizon + 1 wide, of which at most raw_horizon are
    pairs. A row then keeps its state's first raw_horizon pairs, items
    ascending and padded with item n and reward 0, in the columns s_items and
    s_rewards, and no successor. sample returns the states and successors as
    qnet.Pairs at the width of play, raw_horizon + 1: each successor is
    put_pairs of its state with (a, r). At n = 1,586 items and T = 40 a row
    takes 696 bytes in place of 25.6 KB.
    """

    _MIN_ROWS = 64

    def __init__(self, capacity: int, state_dim: int, n_actions: int,
                 raw_horizon: int | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.raw_horizon = raw_horizon
        dense = ((state_dim,), np.float64)
        self._shapes = {
            "s": dense,
            "a": ((), np.int64),
            "r": ((), np.float64),
            "s_next": dense,
            "done": ((), bool),
            "mask_bits": (((n_actions + 7) // 8,), np.uint8),
        }
        if raw_horizon is not None:
            del self._shapes["s"], self._shapes["s_next"]
            self._shapes = {"s_items": ((raw_horizon,), np.int32),
                            "s_rewards": ((raw_horizon,), np.float64), **self._shapes}
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

    def push(self, s, a: int, r: float, s_next, done: bool, mask_next) -> None:
        """Store one transition; mask_next is the successor's bool availability.

        A raw-layout memory keeps the pairs of s as given and does not read
        s_next, which sample rebuilds.

        Raises:
            ValueError: a raw state's last pair is not padding: it holds more
                pairs than the horizon.
        """
        if self.raw_horizon is not None and s.items[-1] != self.state_dim:
            raise ValueError(f"raw state holds {int((s.items < self.state_dim).sum())} pairs, "
                             f"over the horizon {self.raw_horizon}")
        if self._size < self.capacity:
            slot = self._size
            if slot == self._cols["a"].shape[0]:
                self._grow()
            self._size += 1
        else:
            slot = self._next
            self._next = (self._next + 1) % self.capacity
        cols = self._cols
        if self.raw_horizon is None:
            cols["s"][slot] = s
            cols["s_next"][slot] = s_next
        else:
            cols["s_items"][slot] = s.items[: self.raw_horizon]
            cols["s_rewards"][slot] = s.values[: self.raw_horizon]
        cols["a"][slot] = a
        cols["r"][slot] = r
        cols["done"][slot] = done
        cols["mask_bits"][slot] = np.packbits(mask_next)

    def sample(self, batch: int, rng: np.random.Generator) -> qnet.Batch:
        """Uniform minibatch; with replacement only while the buffer is smaller
        than the batch."""
        if not self._size:
            raise ValueError("cannot sample from an empty replay memory")
        if self._size < batch:
            idx = rng.integers(0, self._size, size=batch)
        else:
            idx = rng.choice(self._size, size=batch, replace=False)
        cols = self._cols
        a, r = cols["a"][idx], cols["r"][idx]
        if self.raw_horizon is None:
            s, s_next = cols["s"][idx], cols["s_next"][idx]
        else:
            s, s_next = self._rows_as_pairs(idx, a, r)
        masks = np.unpackbits(cols["mask_bits"][idx], axis=1, count=self.n_actions)
        return qnet.Batch(s=s, a=a, r=r, s_next=s_next, done=cols["done"][idx],
                          mask_next=masks.view(bool))

    def _rows_as_pairs(self, idx, a, r) -> tuple:
        """The (state, successor) Pairs of the raw rows idx, raw_horizon + 1
        wide, the successor being put_pairs of the state with (a, r)."""
        n, width = self.state_dim, self.raw_horizon + 1
        items = np.full((len(idx), width), n, dtype=np.int64)
        rewards = np.zeros((len(idx), width))
        items[:, :-1] = self._cols["s_items"][idx]
        rewards[:, :-1] = self._cols["s_rewards"][idx]
        states = qnet.Pairs(items, rewards)
        return states, put_pairs(states, a, r, n)

    def state(self) -> dict:
        """The filled rows of every column (views, not copies), plus "next":
        the slot the next push overwrites once the buffer is full."""
        state = {key: col[: self._size] for key, col in self._cols.items()}
        state["next"] = np.array([self._next], dtype=np.int64)
        return state

    def load(self, state: dict) -> None:
        """Replace the contents with a state() as saved.

        Raises:
            ValidationError: an array is missing or does not fit this memory's
                widths, dtypes, capacity or action count, or a raw row's
                pairs are not in the form push writes: items inside 0..n,
                those below n (the state's items) strictly ascending, each
                with a nonzero reward, and after them only padding (item n,
                reward 0). The pairs' order sets the rounding of the first
                layer, so another order of the same pairs is refused too.
        """
        columns = dict(state)
        next_slot = columns.pop("next", None)
        if set(columns) != set(self._shapes):
            raise ValidationError(f"replay columns {sorted(columns)} != {sorted(self._shapes)}")
        rows = columns["a"].shape[0] if columns["a"].ndim == 1 else -1
        for key, (shape, dtype) in self._shapes.items():
            col = columns[key]
            if col.dtype != dtype or col.shape != (rows, *shape):
                raise ValidationError(
                    f"replay column {key!r} is {col.dtype}{col.shape}, "
                    f"expected {np.dtype(dtype)}{(rows, *shape)}"
                )
        if rows > self.capacity:
            raise ValidationError(f"replay holds {rows} rows, over the capacity {self.capacity}")
        if (
            next_slot is None or next_slot.dtype != np.int64 or next_slot.shape != (1,)
            or not 0 <= next_slot[0] < (self.capacity if rows == self.capacity else 1)
        ):
            raise ValidationError(f"replay next slot {next_slot} is invalid for {rows} rows")
        if rows and not ((columns["a"] >= 0) & (columns["a"] < self.n_actions)).all():
            raise ValidationError(f"replay action outside 0..{self.n_actions - 1}")
        if self.raw_horizon is not None:
            items, rewards, n = columns["s_items"], columns["s_rewards"], self.state_dim
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


@dataclass
class EpisodeLog:
    episode: int
    user: int
    reward_sum: float
    mean_td_loss: float
    epsilon: float
    sync_count: int


def select_action(net, state, mask, epsilon: float, rng) -> int:
    """Epsilon-greedy pick over the actions a bool mask makes available,
    lowest index breaking ties."""
    if mask.dtype != bool or mask.shape != (net.output_dim,):
        raise ValueError(f"mask {mask.dtype}{mask.shape} is not a bool vector over "
                         f"{net.output_dim} actions")
    if not mask.any():
        raise ValueError("empty availability mask")
    if epsilon > 0 and rng.random() < epsilon:
        avail = np.flatnonzero(mask)
        return int(avail[rng.integers(avail.size)])
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
    put_pairs. Acting, the replay and evaluation all read a raw state in
    this one form, so they compute one function of it."""
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


class QTrainer(StatePolicy):
    """The learning Q-policy and the resumable state of its training run
    (network, target, replay, RNGs). It plays one user at a time, a block of
    one. A qnet.Pairs start is the raw state of state_kind, which the replay
    keeps as pairs; an array start is a dense state of its width."""

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
        self.target = qnet.make_target(self.net)
        self.memory = ReplayMemory(cfg.replay_capacity, input_dim, env.n,
                                   cfg.horizon if raw else None)
        self.user_rng = rng_for(cfg.seed, "episode-users")
        self.action_rng = rng_for(cfg.seed, "epsilon-greedy")
        self.replay_rng = rng_for(cfg.seed, "replay-sample")
        self.episode = 0
        self.train_steps = 0
        self.sync_count = 0
        self.logs = []
        self.losses = []    # TD losses of the current episode

    def begin_episode(self, users) -> None:
        if len(users) != 1:
            raise ValueError(f"a Q-learner trains on one user at a time, not {len(users)}")
        super().begin_episode(users)
        self.losses = []

    def act(self, avail: np.ndarray) -> np.ndarray:
        return np.array([select_action(self.net, self.state[0], avail[0], self.cfg.epsilon,
                                       self.action_rng)])

    def observe(self, items, rewards, avail=None, done: bool = False) -> None:
        cfg, s = self.cfg, self.state[0]
        super().observe(items, rewards)
        self.memory.push(s, items[0], rewards[0], self.state[0], done, avail[0])
        batch = self.memory.sample(cfg.batch_size, self.replay_rng)
        self.losses.append(qnet.train_step(self.net, self.target, batch, cfg.gamma, cfg.q_lr))
        self.train_steps += 1
        if self.train_steps % cfg.sync_period == 0:
            qnet.sync_target(self.net, self.target)
            self.sync_count += 1

    def run(self, until_episode: int | None = None, trace: list | None = None) -> list:
        """Advance training to the requested episode count (default: all).

        Returns the full per-episode log list accumulated so far.
        """
        stop = self.cfg.episodes if until_episode is None else min(until_episode, self.cfg.episodes)
        while self.episode < stop:
            user = self.users[int(self.user_rng.integers(len(self.users)))]
            steps = user_steps(run_episode(self.env, [user], self), 0)
            if trace is not None:
                trace.extend((self.episode, user, t, *step) for t, step in enumerate(steps))
            self.logs.append(
                EpisodeLog(
                    episode=self.episode,
                    user=user,
                    reward_sum=sum((reward for _, reward, _ in steps), 0.0),
                    mean_td_loss=float(np.mean(self.losses)) if self.losses else 0.0,
                    epsilon=self.cfg.epsilon,
                    sync_count=self.sync_count,
                )
            )
            self.episode += 1
        return self.logs

    def save(self, path) -> None:
        """Full-state checkpoint: exact continuation on load.

        The state is written to a temporary file beside `path` that then
        replaces it, so a save that fails part-way leaves the previous state.
        """
        meta = {
            "episode": self.episode,
            "train_steps": self.train_steps,
            "sync_count": self.sync_count,
            "staleness": self.target.staleness,
            "user_rng": self.user_rng.bit_generator.state,
            "action_rng": self.action_rng.bit_generator.state,
            "replay_rng": self.replay_rng.bit_generator.state,
            "logs": [vars(log) for log in self.logs],
            "run": self.run_record,
        }
        arrays = {
            "net": qnet.flatten_params(self.net),
            "target": qnet.flatten_params(self.target.net),
            "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        }
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

    def restore(self, path) -> None:
        """Continue from a save(). A file that cannot be read, does not fit
        this trainer (network, action count, replay capacity) or was saved by
        a different run (see run_record) raises ValidationError."""
        replay = [f"replay_{key}" for key in self.memory.state()]
        retired = {} if self.memory.raw_horizon is None else {"replay_s": (
            "the replay format changed: raw-state replay rows are now (item, reward) pairs, "
            "and a dqn trainer state saved by an earlier version is not read; train afresh")}
        arrays = load_npz(path, "trainer state", ("net", "target", "meta", *replay), retired)
        try:
            params = [arrays.pop(key) for key in ("net", "target")]
            meta = json.loads(arrays.pop("meta").tobytes().decode())
            logs = [EpisodeLog(**row) for row in meta["logs"]]
            counters = [int(meta[key]) for key in ("episode", "train_steps", "sync_count", "staleness")]
            rng_states = [meta[key] for key in ("user_rng", "action_rng", "replay_rng")]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: unreadable trainer state ({exc})") from None
        for flat in params:
            if flat.dtype != np.float64 or flat.shape != (self.net.param_count,):
                raise ValidationError(
                    f"{path}: network parameters are {flat.dtype}{flat.shape}, "
                    f"expected float64{(self.net.param_count,)}"
                )
        memory = ReplayMemory(self.cfg.replay_capacity, self.net.input_dim, self.env.n,
                              self.memory.raw_horizon)
        try:
            memory.load({key[len("replay_"):]: array for key, array in arrays.items()})
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        saved = meta.get("run")
        if not isinstance(saved, dict):
            raise ValidationError(f"{path}: no run record; the state was saved by an earlier version")
        differ = sorted(k for k in saved.keys() | self.run_record.keys()
                        if saved.get(k) != self.run_record.get(k))
        if differ:
            raise ValidationError(f"{path}: saved by a different run: {', '.join(differ)} differ")
        try:
            for rng, state in zip((self.user_rng, self.action_rng, self.replay_rng), rng_states):
                rng.bit_generator.state = state
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError(f"{path}: invalid RNG state ({exc})") from None
        qnet.assign_params(self.net, params[0])
        qnet.assign_params(self.target.net, params[1])
        self.memory = memory
        self.episode, self.train_steps, self.sync_count, self.target.staleness = counters
        self.logs = logs


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


def write_training_log(path, logs) -> None:
    with atomic_text(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "user", "reward_sum", "mean_td_loss", "epsilon", "sync_count"])
        for log in logs:
            writer.writerow(
                [log.episode, log.user, repr(log.reward_sum), repr(log.mean_td_loss),
                 repr(log.epsilon), log.sync_count]
            )
