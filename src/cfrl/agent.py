"""The policy interface that env.run_episode plays, and Q-learning as a policy.

A policy plays a block of users in lockstep: it acts with one item per user
and observes one (item, reward) per user. Evaluation plays a split's test
users as one block; the Q-learner trains on blocks of one user.

The Q-learner acts epsilon-greedily on its own state, which state_kind
starts and advances from each (item, reward): the latent user vector, which
an online MF step advances, or the raw state as its canonical qnet.Pairs,
which put_pairs advances. Every observed step goes into the trainer's record
of the episodes it has played (per episode its user, where it ends and
whether the environment ended it), from which its step and episode counts,
its training log and its trace derive, and into a bounded replay memory, a
window over the record's last steps; one minibatch TD update follows, with
the target network, a plain copy of the network, re-synced every fixed
number of updates. The same policy trains both the latent-state agent and
the raw-rating-vector variant. A restored record must replay through the
environment (InteractiveEnv.check_episodes).
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
    """Bounded FIFO window over the last `capacity` steps of a trainer's
    record: after S pushes, slot j holds record step S - 1 - ((S - 1 - j) mod
    capacity), and the next push overwrites slot S mod capacity. Its columns
    are allocated once, with min(capacity, record steps) rows, and like the
    record's are committed only as rows are written.

    A row keeps only what the record cannot give: the state (latent rows, d
    floats: 137 bytes a row at d = 16) and its bootstrap value with a fresh
    flag (9 bytes a raw row). The record gives the row's action and reward,
    its episode (the first that ends past the row's step), that episode's
    user and first step, and whether the row is terminal: the last step of
    an episode that the environment ended, not a time limit. A raw state is
    read from the record's steps before the row's in the episode, as Pairs
    in play order: qnet.Columns, which train_step and the target read, is
    the same for any order. A latent successor is update(state, a, r), the
    learner's (start, update) of state_kind, as the step advanced the state
    in play. A raw successor is already in the record, which play wrote: the
    episode's steps through the row's own, read in the same gather as the
    state, so no state is advanced twice. Its availability is the
    environment's rule (env.available) for the user once the episode's items
    through the row's step were taken: all bit for bit as in play.

    The bootstrap value v(s'), the target's max over the successor's
    available actions, changes only at a target sync, which clears every
    fresh flag (expire_values). sample computes it, in one forward_batch,
    for the sampled rows that are neither terminal nor fresh, and marks
    them fresh; a terminal row bootstraps 0.
    """

    def __init__(self, capacity: int, env, start, update, record: dict):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.env = env
        self.update = update
        self.record = record    # the trainer's episode record, in play order
        self.raw = isinstance(start, qnet.Pairs)
        layout = {} if self.raw else {"s": ((start.shape[1],), np.float64)}
        self._shapes = {**layout, "next_value": ((), np.float64), "fresh": ((), bool)}
        rows = min(capacity, len(record["item"]))
        self._cols = {k: np.empty((rows, *shape), dtype) for k, (shape, dtype) in self._shapes.items()}
        self.pushes = 0

    def __len__(self) -> int:
        return min(self.pushes, self.capacity)

    def push(self, s) -> None:
        """Store the transition from state s (one row) of the record's next step."""
        slot = self.pushes % self.capacity
        self.pushes += 1
        cols = self._cols
        if not self.raw:
            cols["s"][slot] = s
        cols["next_value"][slot] = 0.0
        cols["fresh"][slot] = False

    def expire_values(self) -> None:
        """Mark every row's bootstrap value stale, after a target sync."""
        self._cols["fresh"][: len(self)] = False

    def draw(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """The slots of a uniform minibatch; with replacement only while the
        buffer is smaller than the batch."""
        size = len(self)
        if not size:
            raise ValueError("cannot sample from an empty replay memory")
        if size < batch:
            return rng.integers(0, size, size=batch)
        return rng.choice(size, size=batch, replace=False)

    def sample(self, batch: int, rng: np.random.Generator, target: qnet.QNetwork,
               gamma: float, episodes: int) -> qnet.Batch:
        """A uniform minibatch (see draw), over a record of `episodes`
        episodes, the one in play included, as states, actions and TD targets
        y = r + gamma * v(s'), or r at a terminal row, with v(s') the frozen
        `target`'s; the rows whose value is not fresh get it first.

        Raises:
            ValueError: a non-terminal row's successor has no available action.
        """
        idx = self.draw(batch, rng)
        cols = self._cols
        steps, eps, terminal = self.locate(idx, episodes)
        at = (~(terminal | cols["fresh"][idx])).nonzero()[0]
        if len(self) < batch:       # drawn with replacement: a row may repeat
            at = at[np.unique(idx[at], return_index=True)[1]]
        s, a, r, successors, taken = self.rows(idx, steps, eps, at)
        if at.size:
            stale = idx[at]
            avail = self.env.available(self.record["user"][eps[at]], taken)
            cols["next_value"][stale] = qnet.bootstrap_values(target, successors, avail)
            cols["fresh"][stale] = True
        # overflow here is the divergence signal, caught by train_step
        with np.errstate(over="ignore", invalid="ignore"):
            y = r + gamma * np.where(terminal, 0.0, cols["next_value"][idx])
        return qnet.Batch(s=s, a=a, y=y)

    def locate(self, idx, episodes: int) -> tuple:
        """The record steps that rows idx hold, their episodes in a record of
        `episodes` episodes, and whether each row is terminal."""
        ends = self.record["end"][:episodes]
        steps = ring_steps(idx, self.pushes, self.capacity)
        eps = ends.searchsorted(steps, side="right")
        return steps, eps, self.record["done"][eps] & (steps == ends[eps] - 1)

    def window(self, steps, eps) -> np.ndarray:
        """Each row's T record steps of its episode `eps` through its own
        step, the last repeated: (k, T)."""
        first = np.where(eps > 0, self.record["end"][eps - 1], 0)
        return np.minimum(first[:, None] + np.arange(self.env.horizon), steps[:, None])

    def rows(self, idx, steps, eps, at) -> tuple:
        """The states, actions (int64) and rewards of rows idx, which hold
        record `steps` of episodes `eps` (see locate), and the successors of
        rows idx[at] with the items their episodes took through their steps
        (see window). A state is an array, or for a raw start qnet.Pairs T
        wide: each row's steps before its own in its episode as (item,
        reward) pairs in play order, with padding (item n, reward 0) in
        place of a reward of 0 and after those steps. A latent successor is
        update(state, a, r), the learner's state update, as the step
        advanced the state in play. A raw successor is the same window
        through the row's own step, which repeats that step's pair at its
        tail: qnet.Columns, which the target reads, is the same for any
        order of a row's pairs and for equal repeats, so it is put_pairs'
        successor bit for bit."""
        record = self.record
        a, r = record["item"][steps].astype(np.int64), record["reward"][steps]
        if not self.raw:
            s = self._cols["s"][idx]
            if not at.size:
                return s, a, r, None, None
            return (s, a, r, self.update(s[at], a[at], r[at]),
                    record["item"][self.window(steps[at], eps[at])])
        through = self.window(steps, eps)
        taken, rewards = record["item"][through], record["reward"][through]
        items = np.where(rewards == 0, self.env.n, taken)
        successors = qnet.Pairs(items[at], rewards[at])
        own = through == steps[:, None]
        np.putmask(rewards, own, 0.0)
        np.putmask(items, own, self.env.n)
        return qnet.Pairs(items, rewards), a, r, successors, taken[at]

    def state(self) -> dict:
        """The filled rows of every column (views, not copies)."""
        return {key: col[: len(self)] for key, col in self._cols.items()}

    def load(self, state: dict, ends) -> None:
        """Replace the contents with a state() as saved by a trainer whose
        record held the episode `ends` (the last one its step count). Each
        saved column leaves `state` as it is copied into this memory's, so it
        is freed unless the caller holds it.

        Raises:
            ValidationError: an array is missing or does not fit this memory's
                widths or dtypes, the rows are not the record's steps up to
                the capacity, a state is not finite, or a fresh row holds a
                bootstrap value that is not finite.
        """
        rows = check_columns(state, self._shapes, "replay")
        pushes = int(ends[-1]) if len(ends) else 0
        if rows != min(pushes, self.capacity):
            raise ValidationError(f"replay holds {rows} rows, not the record's {pushes} steps "
                                  f"up to the capacity {self.capacity}")
        if "s" in state and not np.isfinite(state["s"]).all():
            raise ValidationError("replay column 's' holds a value that is not finite")
        if not np.isfinite(state["next_value"][state["fresh"]]).all():
            raise ValidationError("replay bootstrap value is not finite on a fresh row")
        for key, col in self._cols.items():
            col[:rows] = state.pop(key)
        self.pushes = pushes


def ring_steps(slots, pushes: int, capacity: int) -> np.ndarray:
    """The record steps that the slots of a replay of `capacity` rows hold
    after `pushes` pushes: slot j holds the last of the steps j,
    j + capacity, ... below `pushes`."""
    last = pushes - 1
    return last - (last - np.asarray(slots)) % capacity


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
        for name in ("q_lr", "sync_period", "batch_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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
    Each row puts (item, reward) into its last slot, which must be padding,
    unless the reward is 0, and is sorted stably by item, so that the
    padding goes back to the end; so a row whose pairs come in another
    order, as the replay reads them, gives the same canonical row. No row
    may hold its item already: an episode takes each item once. Returns new
    arrays."""
    width = states.items.shape[1]
    next_items, next_rewards = states.items.copy(), states.values.copy()
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
    done)."""

    def begin_episode(self, users) -> None:
        pass

    def act(self, avail: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def observe(self, items, rewards, done: bool = False) -> None:
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

    def observe(self, items, rewards, done: bool = False) -> None:
        self.state = self.update(self.state, items, rewards)


# The columns of a trainer's episode record, (shape after the rows, dtype):
# one row per episode (done: the environment ended it), and one per step of
# all episodes in play order.
EPISODE_COLUMNS = {"user": ((), np.int64), "end": ((), np.int64), "done": ((), bool),
                   "loss": ((), np.float64)}
STEP_COLUMNS = {"item": ((), np.int32), "reward": ((), np.float64)}


class QTrainer(StatePolicy):
    """The learning Q-policy and the resumable state of its training run:
    network, target (a plain copy of it), replay, RNGs and the record of the
    episodes it has played (per episode its user, the end of its steps,
    whether the environment ended it and its mean TD loss; per step its item
    and reward), the episode in play included. It plays one user at a time,
    a block of one, from a start state of state_kind."""

    def __init__(self, env, users, start, update, cfg: TrainConfig):
        self.episode_users = EpisodeUsers(users, cfg)
        super().__init__(start, update)
        raw = isinstance(start, qnet.Pairs)
        if raw and start.items.shape[1] != env.horizon + 1:
            raise ValueError(f"a raw start of {start.items.shape[1]} pairs does not fit the "
                             f"environment's horizon of {env.horizon} steps")
        input_dim = env.n if raw else start.shape[1]
        self.env = env
        self.cfg = cfg
        sizes = (input_dim, *cfg.hidden_sizes, env.n)
        self.net = qnet.qnet_init(sizes, seed=cfg.seed, activation=cfg.activation)
        if raw:
            self.net = qnet.input_major(self.net)
        self.target = self.net.copy()
        self.action_rng = rng_for(cfg.seed, "epsilon-greedy")
        self.replay_rng = rng_for(cfg.seed, "replay-sample")
        self.episode = 0    # episodes in the record
        self.record = self._allocate(cfg.episodes)
        self.memory = ReplayMemory(cfg.replay_capacity, env, start, update, self.record)
        self.losses = []    # TD losses of the current episode

    def _allocate(self, episodes: int, saved: dict | None = None) -> dict:
        """Record columns for `episodes` episodes of up to the horizon's steps.
        np.empty commits memory only as rows are written, so a column sized
        for the whole run costs what the episodes played so far fill. Each
        column of a `saved` record is popped from it and copied in as its
        column is allocated, so that it is freed before the next is."""
        record = {}
        for key, (_, dtype) in {**EPISODE_COLUMNS, **STEP_COLUMNS}.items():
            record[key] = np.empty(episodes * (self.env.horizon if key in STEP_COLUMNS else 1),
                                   dtype)
            if saved is not None:
                rows = len(saved[key])
                record[key][:rows] = saved.pop(key)
        return record

    @property
    def train_steps(self) -> int:
        """The last recorded episode's end plus the current episode's steps."""
        return (int(self.record["end"][self.episode - 1]) if self.episode else 0) + len(self.losses)

    def begin_episode(self, users) -> None:
        if len(users) != 1:
            raise ValueError(f"a Q-learner trains on one user at a time, not {len(users)}")
        super().begin_episode(users)

    def act(self, avail: np.ndarray) -> np.ndarray:
        return np.array([select_action(self.net, self.state[0], avail[0], self.cfg.epsilon,
                                       self.action_rng)])

    def observe(self, items, rewards, done: bool = False) -> None:
        cfg, s, step, e = self.cfg, self.state[0], self.train_steps, self.episode
        super().observe(items, rewards)
        self.record["item"][step], self.record["reward"][step] = items[0], rewards[0]
        self.record["end"][e], self.record["done"][e] = step + 1, done
        self.memory.push(s)
        batch = self.memory.sample(cfg.batch_size, self.replay_rng, self.target, cfg.gamma, e + 1)
        self.losses.append(qnet.train_step(self.net, batch, cfg.q_lr))
        if (step + 1) % cfg.sync_period == 0:
            qnet.sync_target(self.net, self.target)
            self.memory.expire_values()

    def run(self, until_episode: int | None = None) -> None:
        """Advance training to the requested episode count (default: all),
        recording each episode's user as it starts and its loss as it ends."""
        stop = self.cfg.episodes if until_episode is None else min(until_episode, self.cfg.episodes)
        record = self.record
        while self.episode < stop:
            e = self.episode
            user = self.episode_users.draw()
            record["user"][e], record["end"][e], record["done"][e] = user, self.train_steps, False
            run_episode(self.env, [user], self)
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
            "user_rng": self.episode_users.rng.bit_generator.state,
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
        ds, users = self.env.ds, np.array(self.episode_users.users, dtype=np.int64)
        record = {**vars(self.cfg), "hidden_sizes": list(self.cfg.hidden_sizes),
                  "task": self.cfg.task.value, "dataset": [ds.m, ds.n, ds.digest()],
                  "train_users": hashlib.sha256(users).hexdigest()}
        del record["episodes"]
        return record

    def _check_record(self, record: dict) -> int:
        """The episode count of a saved record. Raises ValidationError for a
        missing column or one of another dtype or shape, ends that decrease
        or do not reach the step count, a user outside the run's training
        users, a loss that is not finite, or episodes that do not replay
        through the environment (InteractiveEnv.check_episodes)."""
        episodes = check_columns({key: record[key] for key in EPISODE_COLUMNS}, EPISODE_COLUMNS,
                                 "episode record")
        steps = check_columns({key: record[key] for key in STEP_COLUMNS}, STEP_COLUMNS,
                              "episode record")
        ends = record["end"]
        if (np.diff(ends, prepend=0) < 0).any():
            raise ValidationError("episode record: an episode ends before the one before it")
        if (int(ends[-1]) if episodes else 0) != steps:
            raise ValidationError(f"episode record: the last episode does not end at the "
                                  f"record's {steps} steps")
        if not np.isin(record["user"], self.episode_users.users).all():
            raise ValidationError("episode record: a user is not one of the run's training users")
        if not np.isfinite(record["loss"]).all():
            raise ValidationError("episode record: a loss is not finite")
        try:
            self.env.check_episodes(record["user"], ends, record["item"], record["reward"],
                                    record["done"])
        except ValidationError as exc:
            raise ValidationError(f"episode record: {exc}") from None
        return episodes

    def restore(self, path) -> None:
        """Continue from a save(). A file that cannot be read, does not fit
        this trainer (network, action count, replay capacity), was saved by
        a different run (see run_record), holds network parameters or
        replay states that are not finite, an episode record that
        _check_record refuses or a replay that ReplayMemory.load refuses
        raises ValidationError. So does a state saved by an earlier version,
        whose replay holds replay_stamp, replay_mask_bits or replay_a."""
        replay = [f"replay_{key}" for key in self.memory.state()]
        record_keys = [f"record_{key}" for key in (*EPISODE_COLUMNS, *STEP_COLUMNS)]
        # every earlier layout holds replay_stamp, replay_mask_bits or replay_a
        earlier = dict.fromkeys(("replay_stamp", "replay_mask_bits", "replay_a"),
                                "the replay format changed: replay rows now read their action, "
                                "reward, raw state, episode, terminal flag and successor "
                                "availability from the episode record and the environment, and "
                                "a trainer state saved by an earlier version is not read; "
                                "train afresh")
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
        try:
            episodes = self._check_record(saved_record)
            # a resume may ask for fewer episodes than the state holds
            record = self._allocate(max(self.cfg.episodes, episodes), saved_record)
            memory = ReplayMemory(self.cfg.replay_capacity, self.env, self.start, self.update,
                                  record)
            # the saved columns leave `arrays`, so load frees each once copied
            memory.load({key[len("replay_"):]: arrays.pop(key) for key in replay},
                        record["end"][:episodes])
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        try:
            rngs = (self.episode_users.rng, self.action_rng, self.replay_rng)
            for rng, state in zip(rngs, rng_states):
                rng.bit_generator.state = state
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError(f"{path}: invalid RNG state ({exc})") from None
        qnet.assign_params(self.net, params[0])
        qnet.assign_params(self.target, params[1])
        self.memory, self.record = memory, record
        self.episode, self.losses = episodes, []


class EpisodeUsers:
    """Who plays each episode of a training run of `cfg`, which is checked
    here: one of `users`, sorted, drawn uniformly by the run's seeded
    "episode-users" stream. A run that trains refuses an empty set."""

    def __init__(self, users, cfg: TrainConfig):
        cfg.validate()
        self.users = sorted(users)
        if not self.users and cfg.episodes > 0:
            raise ValueError("no training users")
        self.rng = rng_for(cfg.seed, "episode-users")

    def draw(self) -> int:
        return self.users[int(self.rng.integers(len(self.users)))]


def training_env(ds, split, cfg: TrainConfig) -> tuple:
    """The environment of cfg's task and horizon, and the split's training
    users that can play a full episode in it: where every learner trains."""
    env = InteractiveEnv(ds, cfg.task, cfg.horizon)
    return env, env.playable(split.train_users)


def make_trainer(ds, split, mf_model: mf.MfModel | None, cfg: TrainConfig) -> QTrainer:
    """Wire a trainer for the latent-state agent, or for the raw-vector
    variant when there is no factor model."""
    return QTrainer(*training_env(ds, split, cfg), *state_kind(mf_model, ds.n, cfg.horizon), cfg)


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
