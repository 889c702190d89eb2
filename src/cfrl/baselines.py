"""The comparison policies, on agent.Policy's interface, played by env.run_episode.

Every policy sees only what a live recommender would: the availability mask
when acting, and the (item, reward) feedback afterwards. The latent policies
keep their per-user state through agent.StatePolicy, which advances it from
that feedback alone, so evaluation cannot leak ratings.

Each policy acts for a whole block of users per step, with one product per
step for the block. The products are numpy's stacked matmul, which calls BLAS
once per row, so every user's scores and picks are bit for bit those of the
user played alone; LinUCB while it learns plays one user at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mf, qnet
from .agent import Policy, StatePolicy, TrainConfig, eligible_train_users, state_update
from .env import InteractiveEnv, run_episode
from .seeding import rng_for


class RandomPolicy(Policy):
    """Uniform choice among available items, with one RNG per user, seeded by
    the user."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rngs = []

    def begin_episode(self, users) -> None:
        self._rngs = [rng_for(self.seed, f"user:{user}") for user in users]

    def act(self, avail: np.ndarray) -> np.ndarray:
        if len(avail) != len(self._rngs):
            raise ValueError(f"{len(avail)} masks for the {len(self._rngs)} users of the episode")
        picks = np.empty(len(avail), dtype=np.int64)
        for row, (rng, mask) in enumerate(zip(self._rngs, avail)):
            choices = np.flatnonzero(mask)
            if choices.size == 0:
                raise ValueError("empty availability mask")
            picks[row] = choices[rng.integers(choices.size)]
        return picks


class ScorePolicy(Policy):
    """Greedy pick of a fixed per-item score, lowest index breaking ties."""

    def __init__(self, scores: np.ndarray):
        self.scores = np.asarray(scores, dtype=np.float64)

    def act(self, avail: np.ndarray) -> np.ndarray:
        return qnet.masked_argmax(self.scores, avail)


# items per co-rating product in impact_scores; bounds its (chunk, n) float32
# block, 1.6 MB at n = 1,586 where the whole product would take 10 MB
_IMPACT_CHUNK = 256


def _train_ratings(ds, train_users) -> tuple:
    """(row, item) of each training user's ratings, the rows numbering the
    training users in index order, and the number of training users."""
    train = np.zeros(ds.m, dtype=bool)
    train[np.fromiter(train_users, dtype=np.int64)] = True
    per_user = np.diff(ds.indptr)
    kept = np.repeat(train, per_user)
    rows = np.repeat(np.cumsum(train) - 1, per_user)
    return rows[kept], ds.items[kept], int(train.sum())


def popularity_counts(ds, train_users) -> np.ndarray:
    """Per-item rating counts over the training users."""
    _, items, _ = _train_ratings(ds, train_users)
    return np.bincount(items, minlength=ds.n).astype(np.float64)


def popular_policy(ds, train_users) -> ScorePolicy:
    return ScorePolicy(popularity_counts(ds, train_users))


def impact_scores(ds, train_users) -> np.ndarray:
    """Co-rating neighborhood size per item on the training bipartite graph.

    impact(i) = number of distinct items j != i sharing at least one rater
    with i. With B the 0/1 user-item incidence of the training users, the
    nonzeros of row i of B^T B are exactly the items co-rated with i, i
    itself among them when it has a rater. The products run over chunks of
    _IMPACT_CHUNK items; their entries are rater counts, exact in float32.
    """
    rows, items, users = _train_ratings(ds, train_users)
    rated = np.zeros((users, ds.n), dtype=np.float32)
    rated[rows, items] = 1.0
    neighbors = np.empty(ds.n, dtype=np.int64)
    for lo in range(0, ds.n, _IMPACT_CHUNK):
        co = rated[:, lo:lo + _IMPACT_CHUNK].T @ rated
        neighbors[lo:lo + len(co)] = np.count_nonzero(co, axis=1)
    return (neighbors - rated.any(axis=0)).astype(np.float64)


def impact_policy(ds, train_users) -> ScorePolicy:
    return ScorePolicy(impact_scores(ds, train_users))


class OnlineMfPolicy(StatePolicy):
    """Greedy latent-factor scorer with per-feedback SGD state updates."""

    def __init__(self, model: mf.MfModel):
        super().__init__(np.zeros((1, model.d)), state_update(model))
        self.model = model

    def act(self, avail: np.ndarray) -> np.ndarray:
        return qnet.masked_argmax(mf.predict_all(self.model, self.state), avail)


@dataclass
class LinUcbModel:
    """Shared ridge model over [user state; item vector] contexts."""

    A: np.ndarray            # (2d, 2d), identity plus rank-one updates
    b: np.ndarray            # (2d,)
    alpha_ucb: float

    @classmethod
    def fresh(cls, d: int, alpha_ucb: float = 1.0) -> "LinUcbModel":
        return cls(A=np.eye(2 * d), b=np.zeros(2 * d), alpha_ucb=alpha_ucb)


class LinUcbPolicy(StatePolicy):
    """Upper-confidence-bound scorer on concatenated state/item contexts.

    A context x = [s; v_i] joins the user state s and the item vector v_i
    and scores x.theta + alpha * sqrt(x' M x), with M = A^-1 and theta = M b.
    The policy inverts A and solves for theta once, and keeps the per-item
    terms q_i = v_i' M22 v_i (M22 is the item block of M), so an act costs
    O(n * d) per user and runs no solver.

    While frozen=False (training) the policy owns model.A and model.b:
    observe adds the rank-one term x x' to A and r x to b, and updates M,
    theta and q to match by Sherman-Morrison (Li et al. 2010), so nothing
    else may change them while the policy is in use; it then plays one user
    at a time. Frozen, they stay fixed during evaluation, and a block of
    users is scored together. The user state always updates from feedback.
    """

    def __init__(self, model: LinUcbModel, mf_model: mf.MfModel, frozen: bool = True):
        super().__init__(np.zeros((1, mf_model.d)), state_update(mf_model))
        self.model = model
        self.mf_model = mf_model
        self.frozen = frozen
        V, d = mf_model.V, mf_model.d
        self._inv = np.linalg.inv(model.A)
        self._theta = np.linalg.solve(model.A, model.b)
        self._q = np.einsum("ij,ij->j", V, self._inv[d:, d:] @ V)

    def begin_episode(self, users) -> None:
        if not self.frozen and len(users) != 1:
            raise ValueError(f"a learning LinUCB plays one user at a time, not {len(users)}")
        super().begin_episode(users)

    def scores(self) -> np.ndarray:
        """(U, n) upper confidence bound of every item under each row's state."""
        d, inv, theta = self.mf_model.d, self._inv, self._theta
        s = self.state[:, None, :]                     # (U, 1, d): a 1-row product per user
        # v_i.theta2 and 2 (M21 s).v_i for every item; one (2, d) @ (d, n) product per user
        rows = np.empty((len(s), 2, d))
        rows[:, 0] = theta[d:]
        rows[:, 1] = 2.0 * (inv[d:, :d] @ s.transpose(0, 2, 1))[:, :, 0]
        linear, cross = (rows @ self.mf_model.V).transpose(1, 0, 2)
        spread = (s @ inv[:d, :d] @ s.transpose(0, 2, 1))[:, 0] + cross + self._q
        return (s @ theta[:d, None])[:, 0] + linear + self.model.alpha_ucb * np.sqrt(spread)

    def act(self, avail: np.ndarray) -> np.ndarray:
        return qnet.masked_argmax(self.scores(), avail)

    def observe(self, items, rewards, done: bool = False) -> None:
        if not self.frozen:
            (item,), (reward,), (state,) = items, rewards, self.state
            d = self.mf_model.d
            x = np.concatenate([state, self.mf_model.V[:, item]])
            self.model.A += np.outer(x, x)
            self.model.b += reward * x
            u = self._inv @ x
            scale = 1.0 + x @ u
            self._theta += u * ((reward - x @ self._theta) / scale)
            self._inv -= np.outer(u, u) / scale
            self._q -= (u[d:] @ self.mf_model.V) ** 2 / scale
        super().observe(items, rewards)


def train_linucb(ds, split, mf_model: mf.MfModel, cfg: TrainConfig,
                 alpha_ucb: float = 1.0) -> LinUcbModel:
    """Fit the ridge statistics with the same per-user episode scheme as the
    Q-learning agents; exploration comes from the confidence bonus itself."""
    cfg.validate()
    model = LinUcbModel.fresh(mf_model.d, alpha_ucb)
    policy = LinUcbPolicy(model, mf_model, frozen=False)
    environment = InteractiveEnv(ds, cfg.task, cfg.horizon)
    users = eligible_train_users(ds, split.train_users, cfg.task, cfg.horizon)
    if not users and cfg.episodes > 0:
        raise ValueError("no training users")
    user_rng = rng_for(cfg.seed, "episode-users")
    for _ in range(cfg.episodes):
        run_episode(environment, [users[int(user_rng.integers(len(users)))]], policy)
    return model


class GreedyQPolicy(StatePolicy):
    """Frozen Q-network acting greedily on the state kind it was trained on,
    agent.state_kind's (start, update): the latent user vector, or the raw
    state's canonical qnet.Pairs, whose network it holds input-major."""

    def __init__(self, net: qnet.QNetwork, start, update):
        super().__init__(start, update)
        self.net = qnet.input_major(net) if isinstance(start, qnet.Pairs) else net

    def act(self, avail: np.ndarray) -> np.ndarray:
        return qnet.masked_argmax(qnet.forward(self.net, self.state), avail)
