"""Q-learning over per-user episodes.

One training run repeatedly samples a training user, rolls an episode against
the environment under epsilon-greedy control, stores transitions in a bounded
replay memory, and applies one minibatch TD update per environment step, with
the target network re-synced every fixed number of updates. The same loop
trains both the latent-state agent and the raw-rating-vector variant; the
state extractor is a parameter.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import qnet
from .env import InteractiveEnv, TaskMode, run_episode
from .mf import MfModel
from .seeding import rng_for


@dataclass(frozen=True, eq=False)
class PackedMask:
    """Bit-packed availability mask; keeps replay memory small."""

    bits: np.ndarray
    n: int

    @classmethod
    def from_bool(cls, mask: np.ndarray) -> "PackedMask":
        return cls(bits=np.packbits(mask), n=mask.shape[0])

    def to_bool(self) -> np.ndarray:
        return np.unpackbits(self.bits, count=self.n).astype(bool)


@dataclass(frozen=True, eq=False)
class Transition:
    """One environment step as stored in replay memory (identity equality)."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool
    mask_next: object    # bool vector, index collection, or PackedMask


class ReplayMemory:
    """Bounded FIFO buffer of transitions; oldest entries are evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buf = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._buf)

    def push(self, tr: Transition) -> None:
        if len(self._buf) < self.capacity:
            self._buf.append(tr)
        else:
            self._buf[self._next] = tr
            self._next = (self._next + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator) -> list:
        """Uniform minibatch; with replacement only while the buffer is smaller
        than the batch."""
        if not self._buf:
            raise ValueError("cannot sample from an empty replay memory")
        size = len(self._buf)
        if size < batch:
            idx = rng.integers(0, size, size=batch)
        else:
            idx = rng.choice(size, size=batch, replace=False)
        return [self._buf[int(k)] for k in idx]

    def items(self) -> list:
        return list(self._buf)


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    episodes: int
    horizon: int = 40
    gamma: float = 0.9
    epsilon: float = 0.1
    epsilon_final: float | None = None   # linear decay target; None = constant
    q_lr: float = 0.001
    mf_lr: float | None = None           # override the model's online step size
    mf_reg: float | None = None          # override the model's ridge weight
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


def epsilon_at(cfg: TrainConfig, episode: int) -> float:
    """Exploration rate for one episode: constant, or linearly decayed."""
    if cfg.epsilon_final is None or cfg.episodes <= 1:
        return cfg.epsilon
    frac = episode / (cfg.episodes - 1)
    return cfg.epsilon + frac * (cfg.epsilon_final - cfg.epsilon)


def select_action(net, state, mask, epsilon: float, rng) -> int:
    """Epsilon-greedy pick over available actions, lowest index breaking ties."""
    mask_b = qnet.as_bool_mask(mask, net.output_dim)
    if not mask_b.any():
        raise ValueError("empty availability mask")
    if epsilon > 0 and rng.random() < epsilon:
        avail = np.flatnonzero(mask_b)
        return int(avail[rng.integers(avail.size)])
    return qnet.masked_argmax(qnet.forward(net, state), mask_b)


class QTrainer:
    """Resumable state of one training run (network, target, replay, RNGs)."""

    def __init__(self, env, users, input_dim: int, state_fn, cfg: TrainConfig):
        cfg.validate()
        self.env = env
        self.users = sorted(users)
        if not self.users and cfg.episodes > 0:
            raise ValueError("no training users")
        self.state_fn = state_fn
        self.cfg = cfg
        sizes = (input_dim, *cfg.hidden_sizes, env.n)
        self.net = qnet.qnet_init(sizes, seed=cfg.seed, activation=cfg.activation)
        self.target = qnet.make_target(self.net)
        self.memory = ReplayMemory(cfg.replay_capacity)
        self.user_rng = rng_for(cfg.seed, "episode-users")
        self.action_rng = rng_for(cfg.seed, "epsilon-greedy")
        self.replay_rng = rng_for(cfg.seed, "replay-sample")
        self.episode = 0
        self.train_steps = 0
        self.sync_count = 0
        self.logs = []

    def run(self, until_episode: int | None = None, trace: list | None = None) -> list:
        """Advance training to the requested episode count (default: all).

        Returns the full per-episode log list accumulated so far.
        """
        stop = self.cfg.episodes if until_episode is None else min(until_episode, self.cfg.episodes)
        cfg = self.cfg
        while self.episode < stop:
            ep = self.episode
            user = self.users[int(self.user_rng.integers(len(self.users)))]
            eps = epsilon_at(cfg, ep)
            losses = []

            def act(state):
                return select_action(self.net, self.state_fn(state), state.avail, eps, self.action_rng)

            def learn(t, state, action, reward, next_state, done):
                self.memory.push(
                    Transition(
                        s=self.state_fn(state),
                        a=action,
                        r=reward,
                        s_next=self.state_fn(next_state),
                        done=done,
                        mask_next=PackedMask.from_bool(next_state.avail),
                    )
                )
                batch = self.memory.sample(cfg.batch_size, self.replay_rng)
                losses.append(qnet.train_step(self.net, self.target, batch, cfg.gamma, cfg.q_lr))
                self.train_steps += 1
                if self.train_steps % cfg.sync_period == 0:
                    qnet.sync_target(self.net, self.target)
                    self.sync_count += 1
                if trace is not None:
                    trace.append((ep, user, t, action, reward, done))

            reward_sum = run_episode(self.env, user, cfg.horizon, act, learn)
            self.logs.append(
                EpisodeLog(
                    episode=ep,
                    user=user,
                    reward_sum=reward_sum,
                    mean_td_loss=float(np.mean(losses)) if losses else 0.0,
                    epsilon=eps,
                    sync_count=self.sync_count,
                )
            )
            self.episode += 1
        return self.logs

    def save(self, path) -> None:
        """Full-state checkpoint: exact continuation on load."""
        meta = {
            "episode": self.episode,
            "train_steps": self.train_steps,
            "sync_count": self.sync_count,
            "staleness": self.target.staleness,
            "user_rng": self.user_rng.bit_generator.state,
            "action_rng": self.action_rng.bit_generator.state,
            "replay_rng": self.replay_rng.bit_generator.state,
            "logs": [vars(log) for log in self.logs],
        }
        transitions = self.memory.items()
        arrays = {
            "net": qnet.flatten_params(self.net),
            "target": qnet.flatten_params(self.target.net),
            "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        }
        if transitions:
            arrays["tr_s"] = np.stack([tr.s for tr in transitions])
            arrays["tr_a"] = np.array([tr.a for tr in transitions], dtype=np.int64)
            arrays["tr_r"] = np.array([tr.r for tr in transitions], dtype=np.float64)
            arrays["tr_s_next"] = np.stack([tr.s_next for tr in transitions])
            arrays["tr_done"] = np.array([tr.done for tr in transitions], dtype=bool)
            arrays["tr_mask"] = np.stack(
                [qnet.as_bool_mask(tr.mask_next, self.env.n) for tr in transitions]
            )
            arrays["replay_next"] = np.array([self.memory._next], dtype=np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def restore(self, path) -> None:
        with np.load(path) as data:
            qnet.assign_params(self.net, data["net"])
            qnet.assign_params(self.target.net, data["target"])
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
            if "tr_a" in data:
                masks = data["tr_mask"]
                self.memory._buf = [
                    Transition(
                        s=data["tr_s"][k],
                        a=int(data["tr_a"][k]),
                        r=float(data["tr_r"][k]),
                        s_next=data["tr_s_next"][k],
                        done=bool(data["tr_done"][k]),
                        mask_next=PackedMask.from_bool(masks[k]),
                    )
                    for k in range(data["tr_a"].shape[0])
                ]
                self.memory._next = int(data["replay_next"][0])
        self.episode = meta["episode"]
        self.train_steps = meta["train_steps"]
        self.sync_count = meta["sync_count"]
        self.target.staleness = meta["staleness"]
        self.user_rng.bit_generator.state = meta["user_rng"]
        self.action_rng.bit_generator.state = meta["action_rng"]
        self.replay_rng.bit_generator.state = meta["replay_rng"]
        self.logs = [EpisodeLog(**row) for row in meta["logs"]]


def _effective_model(mf_model: MfModel, cfg: TrainConfig) -> MfModel:
    """Apply any online-update hyperparameter overrides without copying factors."""
    lr = cfg.mf_lr if cfg.mf_lr is not None else mf_model.lr
    reg = cfg.mf_reg if cfg.mf_reg is not None else mf_model.reg
    if lr == mf_model.lr and reg == mf_model.reg:
        return mf_model
    return replace(mf_model, lr=lr, reg=reg)


def eligible_train_users(ds, users, task: TaskMode, horizon: int) -> list:
    """Users whose episodes can run the full horizon under the task's catalog."""
    if task is TaskMode.TASK_II:
        return sorted(users)
    return sorted(u for u in users if len(ds.user_ratings[u]) >= horizon)


def make_trainer(ds, split, mf_model: MfModel, cfg: TrainConfig, raw_state: bool = False) -> QTrainer:
    """Wire a trainer for the latent-state agent or the raw-vector variant."""
    model = _effective_model(mf_model, cfg)
    environment = InteractiveEnv(ds, model, cfg.task, cfg.horizon)
    users = eligible_train_users(ds, split.train_users, cfg.task, cfg.horizon)
    if raw_state:
        return QTrainer(environment, users, ds.n, lambda st: st.raw_state, cfg)
    return QTrainer(environment, users, model.d, lambda st: st.cf_state, cfg)


def train_cfrl(ds, split, mf_model: MfModel, cfg: TrainConfig, trace: list | None = None):
    """Train the latent-state agent; returns (network, per-episode logs)."""
    trainer = make_trainer(ds, split, mf_model, cfg)
    logs = trainer.run(trace=trace)
    return trainer.net, logs


def write_training_log(path, logs) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "user", "reward_sum", "mean_td_loss", "epsilon", "sync_count"])
        for log in logs:
            writer.writerow(
                [log.episode, log.user, repr(log.reward_sum), repr(log.mean_td_loss),
                 repr(log.epsilon), log.sync_count]
            )


def read_training_log(path) -> list:
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for episode, user, reward_sum, loss, eps, syncs in reader:
            out.append(
                EpisodeLog(
                    episode=int(episode),
                    user=int(user),
                    reward_sum=float(reward_sum),
                    mean_td_loss=float(loss),
                    epsilon=float(eps),
                    sync_count=int(syncs),
                )
            )
    return out
