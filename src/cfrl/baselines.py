"""Comparison policies behind one episodic interface.

Every policy sees only what a live recommender would: the availability mask
when acting, and the (item, reward) feedback afterwards. Stateful policies
rebuild their per-user knowledge from that feedback alone, so evaluation
cannot leak logged ratings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mf, qnet
from .agent import TrainConfig, eligible_train_users, make_trainer
from .env import InteractiveEnv, run_episode
from .seeding import rng_for


class Policy:
    """Minimal episodic policy interface."""

    def begin_episode(self, user: int) -> None:
        pass

    def act(self, avail: np.ndarray) -> int:
        raise NotImplementedError

    def observe(self, item: int, reward: float) -> None:
        pass


class RandomPolicy(Policy):
    """Uniform choice among available items, seeded per user."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = rng_for(seed, "episode")

    def begin_episode(self, user: int) -> None:
        self._rng = rng_for(self.seed, f"user:{user}")

    def act(self, avail: np.ndarray) -> int:
        choices = np.flatnonzero(avail)
        if choices.size == 0:
            raise ValueError("empty availability mask")
        return int(choices[self._rng.integers(choices.size)])


class ScorePolicy(Policy):
    """Greedy pick of a fixed per-item score, lowest index breaking ties."""

    def __init__(self, scores: np.ndarray):
        self.scores = np.asarray(scores, dtype=np.float64)

    def act(self, avail: np.ndarray) -> int:
        return qnet.masked_argmax(self.scores, avail)


def popularity_counts(ds, train_users) -> np.ndarray:
    """Per-item rating counts over the training users."""
    counts = np.zeros(ds.n, dtype=np.float64)
    for u in train_users:
        for i in ds.user_ratings[u]:
            counts[i] += 1.0
    return counts


def popular_policy(ds, train_users) -> ScorePolicy:
    return ScorePolicy(popularity_counts(ds, train_users))


def impact_scores(ds, train_users) -> np.ndarray:
    """Co-rating neighborhood size per item on the training bipartite graph.

    impact(i) = number of distinct items j != i sharing at least one rater
    with i. Computed from the binary user-item incidence matrix: the sparsity
    pattern of B^T B gives exactly the co-rated pairs.
    """
    train = sorted(train_users)
    rows, cols = [], []
    for r, u in enumerate(train):
        for i in ds.user_ratings[u]:
            rows.append(r)
            cols.append(i)
    if not rows:
        return np.zeros(ds.n, dtype=np.float64)
    incidence = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(train), ds.n), dtype=np.float64
    )
    co = (incidence.T @ incidence).tocsr()
    neighbors = np.diff(co.indptr)
    has_self = co.diagonal() > 0
    return (neighbors - has_self).astype(np.float64)


def impact_policy(ds, train_users) -> ScorePolicy:
    return ScorePolicy(impact_scores(ds, train_users))


class OnlineMfPolicy(Policy):
    """Greedy latent-factor scorer with per-feedback SGD state updates."""

    def __init__(self, model: mf.MfModel):
        self.model = model
        self.state = mf.init_user_state(model.d)

    def begin_episode(self, user: int) -> None:
        self.state = mf.init_user_state(self.model.d)

    def act(self, avail: np.ndarray) -> int:
        return qnet.masked_argmax(mf.predict_all(self.model, self.state), avail)

    def observe(self, item: int, reward: float) -> None:
        self.state = mf.online_update(self.model, self.state, item, reward)


@dataclass
class LinUcbModel:
    """Shared ridge model over [user state; item vector] contexts."""

    A: np.ndarray            # (2d, 2d), identity plus rank-one updates
    b: np.ndarray            # (2d,)
    alpha_ucb: float

    @classmethod
    def fresh(cls, d: int, alpha_ucb: float = 1.0) -> "LinUcbModel":
        return cls(A=np.eye(2 * d), b=np.zeros(2 * d), alpha_ucb=alpha_ucb)


class LinUcbPolicy(Policy):
    """Upper-confidence-bound scorer on concatenated state/item contexts.

    The ridge statistics update online while frozen=False (training) and stay
    fixed during evaluation; the user state always updates from feedback.
    """

    def __init__(self, model: LinUcbModel, mf_model: mf.MfModel, frozen: bool = True):
        self.model = model
        self.mf_model = mf_model
        self.frozen = frozen
        self.state = mf.init_user_state(mf_model.d)

    def begin_episode(self, user: int) -> None:
        self.state = mf.init_user_state(self.mf_model.d)

    def act(self, avail: np.ndarray) -> int:
        choices = np.flatnonzero(avail)
        if choices.size == 0:
            raise ValueError("empty availability mask")
        contexts = np.concatenate(
            [np.tile(self.state, (choices.size, 1)), self.mf_model.V[:, choices].T],
            axis=1,
        )
        theta = np.linalg.solve(self.model.A, self.model.b)
        spread = np.linalg.solve(self.model.A, contexts.T)
        bonus = np.sqrt(np.sum(contexts.T * spread, axis=0))
        scores = contexts @ theta + self.model.alpha_ucb * bonus
        return int(choices[int(np.argmax(scores))])

    def observe(self, item: int, reward: float) -> None:
        if not self.frozen:
            x = np.concatenate([self.state, self.mf_model.V[:, item]])
            self.model.A += np.outer(x, x)
            self.model.b += reward * x
        self.state = mf.online_update(self.mf_model, self.state, item, reward)


def train_linucb(ds, split, mf_model: mf.MfModel, cfg: TrainConfig,
                 alpha_ucb: float = 1.0) -> LinUcbModel:
    """Fit the ridge statistics with the same per-user episode scheme as the
    Q-learning agents; exploration comes from the confidence bonus itself."""
    cfg.validate()
    model = LinUcbModel.fresh(mf_model.d, alpha_ucb)
    policy = LinUcbPolicy(model, mf_model, frozen=False)
    environment = InteractiveEnv(ds, mf_model, cfg.task, cfg.horizon)
    users = eligible_train_users(ds, split.train_users, cfg.task, cfg.horizon)
    if not users and cfg.episodes > 0:
        raise ValueError("no training users")
    user_rng = rng_for(cfg.seed, "episode-users")
    for _ in range(cfg.episodes):
        user = users[int(user_rng.integers(len(users)))]
        policy.begin_episode(user)
        run_episode(environment, user, cfg.horizon, lambda state: policy.act(state.avail),
                    lambda t, state, action, reward, *_: policy.observe(action, reward))
    return model


class GreedyQPolicy(Policy):
    """Frozen Q-network acting greedily, tracking its own input state."""

    def __init__(self, net: qnet.QNetwork, mf_model: mf.MfModel | None = None,
                 raw_state: bool = False):
        self.net = net
        self.mf_model = mf_model
        self.raw_state = raw_state
        if not raw_state and mf_model is None:
            raise ValueError("latent-state policy needs the MF model")
        self.state = np.zeros(net.input_dim)

    def begin_episode(self, user: int) -> None:
        self.state = np.zeros(self.net.input_dim)

    def act(self, avail: np.ndarray) -> int:
        return qnet.masked_argmax(qnet.forward(self.net, self.state), avail)

    def observe(self, item: int, reward: float) -> None:
        if self.raw_state:
            self.state = self.state.copy()
            self.state[item] = reward
        else:
            self.state = mf.online_update(self.mf_model, self.state, item, reward)


def null_mf_model(ds) -> mf.MfModel:
    """Zero-factor stand-in for agents that ignore the latent state."""
    return mf.MfModel(
        U=np.zeros((1, ds.m)), V=np.zeros((1, ds.n)), d=1, reg=0.0, lr=0.0
    )


def raw_dqn_agent(ds, split, cfg: TrainConfig, trace: list | None = None):
    """Train the raw-rating-vector Q-network; returns (network, logs)."""
    trainer = make_trainer(ds, split, null_mf_model(ds), cfg, raw_state=True)
    logs = trainer.run(trace=trace)
    return trainer.net, logs
