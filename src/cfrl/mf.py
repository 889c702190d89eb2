"""Latent-factor rating model.

Batch pretraining minimizes the ridge-regularized squared reconstruction loss

    sum_{(u,i) observed} (U_u . V_i - R_ui)^2 + reg * (||U||_F^2 + ||V||_F^2)

by per-rating SGD over shuffled training ratings. An epoch runs that
sequential loop in dependency rounds: each rating goes to the first round
after every earlier rating of its user or its item, and one round is one
gathered numpy update over ratings that share no user and no item. Updates
within a round touch disjoint rows, so each row still sees its updates in
shuffled order and from the same values as the rating-by-rating loop; the
factors equal that loop's bit for bit (for d a multiple of 4, see _row_dot).

During an interaction episode only the active users' vectors are maintained,
one SGD iteration per observed rating, against the frozen pretrained item
vectors; a block of users updates in one call, each row as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ValidationError
from .persist import load_npz, save_npz, write_manifest
from .seeding import rng_for

# Symmetric small init is the usual convention for SGD matrix factorization.
_INIT_SCALE = 0.01

# Ratings per block in the passes over all ratings that build per-rating
# temporaries: _rmse's factor gathers (16 x 8192 float64 is 1 MiB) and
# _schedule's Python ints.
_BLOCK = 8192


@dataclass
class MfModel:
    """User/item factor matrices plus the SGD hyperparameters they carry."""

    U: np.ndarray            # (d, m) user factors
    V: np.ndarray            # (d, n) item factors
    d: int
    reg: float               # ridge weight (lambda)
    lr: float                # SGD learning rate (alpha)
    epoch_rmse: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.U.shape[1]

    @property
    def n(self) -> int:
        return self.V.shape[1]


@dataclass
class MfConfig:
    """The [mf] settings of a run, one field per key: the factor model's
    width and the SGD pretrain's ridge weight, step size and epochs."""

    dim: int = 16
    reg: float = 0.01
    lr: float = 0.01
    epochs: int = 30

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.reg) and self.reg >= 0):
            raise ValueError(f"reg must be finite and >= 0, got {self.reg}")


def pretrain(ds, train_users, cfg: MfConfig, seed: int) -> MfModel:
    """Fit factors to the ratings of the training users by epoch-wise SGD.

    Each epoch is one pass of per-rating SGD over a seeded shuffle of the
    training ratings, run in rounds (_schedule): a rating's round comes after
    the round of every earlier rating of its user or item, so no round holds
    a user or an item twice. The updates of one round touch disjoint rows
    and commute, and every row receives its updates in shuffled order, each
    reading the values the rating-by-rating loop would read. The factors
    equal that loop's: bit for bit when d is a multiple of 4 (see _row_dot),
    to rounding otherwise.

    Factor matrices cover all m users and n items; columns of users outside
    train_users keep their initialization and are never consumed downstream
    (episodes start from a zero user state instead).

    Args:
        ds: RatingDataset.
        train_users: user indices whose ratings are trained on.
        cfg: the latent width, the ridge weight, the SGD step size and
            the passes over the shuffled training ratings.
        seed: controls init and shuffling.

    Returns:
        MfModel with per-epoch training RMSE in epoch_rmse.

    Raises:
        ValueError: a setting out of range (see MfConfig.validate).
        DivergenceError: the loss went non-finite (lr too large).
        ValidationError: no training ratings.
    """
    cfg.validate()
    d, reg, lr = cfg.dim, cfg.reg, cfg.lr
    users, items, ratings = _training_ratings(ds, train_users)
    if users.size == 0:
        raise ValidationError("no ratings for the given training users")

    rng = rng_for(seed, "mf-init")
    U = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(d, ds.m))
    V = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(d, ds.n))
    shuffle_rng = rng_for(seed, "mf-shuffle")

    # The ridge term enters the batch loss once per column, not once per
    # rating; scaling it by the inverse rating count keeps the per-epoch
    # aggregate equal to the batch gradient, so SGD settles at the batch
    # minimum instead of a count-weighted one.
    user_count = np.bincount(users, minlength=ds.m).astype(np.float64)
    item_count = np.bincount(items, minlength=ds.n).astype(np.float64)
    reg_u = np.divide(reg, user_count, out=np.zeros(ds.m), where=user_count > 0)
    reg_i = np.divide(reg, item_count, out=np.zeros(ds.n), where=item_count > 0)

    model = MfModel(U=U, V=V, d=d, reg=reg, lr=lr)
    # Row-major working copies: a round gathers whole user and item rows.
    Ur = np.ascontiguousarray(U.T)
    Vr = np.ascontiguousarray(V.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(users.size)
            _sgd_epoch(Ur, Vr, users[order], items[order], ratings[order],
                       reg_u, reg_i, 2.0 * lr)
            # _rmse sums over the (d, .) layout the model returns
            U[...] = Ur.T
            V[...] = Vr.T
            rmse = _rmse(U, V, users, items, ratings)
            if not np.isfinite(rmse):
                raise DivergenceError(
                    f"training RMSE became non-finite at epoch {epoch}; "
                    f"try a smaller learning rate than {lr}"
                )
            model.epoch_rmse.append(rmse)
    return model


def _sgd_epoch(Ur, Vr, users, items, ratings, reg_u, reg_i, two_lr) -> None:
    """Per-rating SGD over the ratings in the given order, in place on the
    row-major factors Ur (m, d) and Vr (n, d): one gathered update per round
    of _schedule, with the rating-by-rating loop's elementwise arithmetic.
    uv and vv are the rows before the update, as in that loop."""
    by_round, ends = _schedule(users, items, Ur.shape[0], Vr.shape[0])
    users, items, ratings = users[by_round], items[by_round], ratings[by_round]
    reg_u = reg_u[users][:, None]
    reg_i = reg_i[items][:, None]
    start = 0
    for end in ends.tolist():
        u = users[start:end]
        i = items[start:end]
        uv = Ur[u]
        vv = Vr[i]
        err = (_row_dot(uv, vv) - ratings[start:end])[:, None]
        Ur[u] = uv - two_lr * (err * vv + reg_u[start:end] * uv)
        Vr[i] = vv - two_lr * (err * uv + reg_i[start:end] * vv)
        start = end


def _schedule(users, items, m: int, n: int):
    """Rounds for the ratings (users[k], items[k]), k = 0, 1, ..., in order.

    A rating's round is the first one after every round that holds an earlier
    rating of its user or of its item: a topological order of the sequential
    loop's own dependencies, not a new SGD order.

    Returns:
        (by_round, ends): the positions k sorted by round (stable), and the
        end of each round's slice of by_round.
    """
    free_u = [0] * m
    free_i = [0] * n
    rounds = np.empty(users.size, dtype=np.int64)
    for start in range(0, users.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        out = []
        for u, i in zip(users[block].tolist(), items[block].tolist()):
            a = free_u[u]
            b = free_i[i]
            r = a if a > b else b
            free_u[u] = free_i[i] = r + 1
            out.append(r)
        rounds[block] = out
    return np.argsort(rounds, kind="stable"), np.cumsum(np.bincount(rounds))


def _row_dot(a, b) -> np.ndarray:
    """Dot products of matching rows, summed in the order OpenBLAS's strided
    ddot sums one column pair U[:, u] @ V[:, i]: over blocks of four
    products p0..p3, t1 += p0 + p2 and t2 += p1 + p3, then t1 + t2.

    The d % 4 trailing products go into t1 one by one; BLAS may fuse those
    steps into a multiply-add, which numpy cannot, so for such d the result
    can differ from the column dot in the last bit.
    """
    k, d = a.shape
    p = a * b
    full = d - d % 4
    blocks = p[:, :full].reshape(k, full // 4, 4)
    pairs = blocks[:, :, :2] + blocks[:, :, 2:]      # (k, blocks, [p0+p2, p1+p3])
    acc = np.zeros((k, 2))
    for blk in range(full // 4):
        acc += pairs[:, blk]
    t1 = acc[:, 0]
    for j in range(full, d):
        t1 = t1 + p[:, j]
    return t1 + acc[:, 1]


def _rmse(U, V, users, items, ratings) -> float:
    """Predictions go into one (ratings,) array, block by block, so the d x
    ratings gathers of U, V and their product never exist whole."""
    pred = np.empty(ratings.size)
    for start in range(0, ratings.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        pred[block] = np.sum(U[:, users[block]] * V[:, items[block]], axis=0)
    return float(np.sqrt(np.mean((pred - ratings) ** 2)))


def _training_ratings(ds, train_users):
    """(users, items, ratings) of the dataset's entries whose user is in
    train_users, in the dataset's (user, item) order."""
    users, items, ratings = ds.triples()
    keep = np.isin(users, np.fromiter(train_users, dtype=np.int64))
    return users[keep], items[keep], ratings[keep]


def online_update(model: MfModel, states, items, ratings):
    """One SGD iteration of an active user's vector on a single rating: of
    one (d,) state on one item and rating, or of each row of a (U, d) block
    of states on its own item and rating.

    The pretrained item vectors stay frozen; one iteration is enough in
    practice. Each row rounds as a lone state's update does, whatever the
    block around it (see _item_rows).

    Returns:
        The updated states as a new array; `states` is left untouched.
    """
    v = _item_rows(model.V, items)
    err = (states[..., None, :] @ v[..., :, None])[..., 0, 0] - ratings
    new_states = states - 2.0 * model.lr * (err[..., None] * v + model.reg * states)
    if not np.isfinite(new_states).all():
        diverged = ~np.isfinite(new_states).all(axis=-1)
        item = np.broadcast_to(items, diverged.shape)[diverged].flat[0]
        raise DivergenceError(
            f"user state became non-finite updating item {item}; "
            f"learning rate {model.lr} is too large for this data"
        )
    return new_states


def _item_rows(V, items) -> np.ndarray:
    """The item vectors V[:, i] of `items` as rows (..., d) with a stride of
    two elements. BLAS sums a dot product whose operands are not both
    contiguous in another order than a contiguous one; the column V[:, i] is
    strided, so this keeps each state's dot with its item vector on the
    strided path, bit for bit as `state @ V[:, i]`, for a block of one too."""
    rows = np.empty((*np.shape(items), V.shape[0], 2))[..., 0]
    rows[...] = V.T[items]
    return rows


def predict_all(model: MfModel, states) -> np.ndarray:
    """Scores of every item under one (d,) user state, or under each row of a
    (U, d) block, each row by its own matrix-vector product."""
    return (model.V.T @ states[..., None])[..., 0]


def save_mf(model: MfModel, path, manifest: dict | None = None) -> None:
    """Write the checkpoint atomically and, if given, a JSON manifest sidecar."""
    save_npz(path, {"U": model.U, "V": model.V,
                    "reg": np.array(model.reg, dtype=np.float64),
                    "lr": np.array(model.lr, dtype=np.float64)})
    if manifest is not None:
        write_manifest(path, manifest)


def load_mf(path) -> MfModel:
    """Read a save_mf checkpoint; anything else, or a value that is not
    finite, raises ValidationError."""
    arrays = load_npz(path, "factor-model checkpoint", ("U", "V", "reg", "lr"))
    U, V, reg, lr = (arrays[key] for key in ("U", "V", "reg", "lr"))
    if any(x.dtype != np.float64 for x in (U, V, reg, lr)) or not (
            U.ndim == V.ndim == 2 and U.shape[0] == V.shape[0] >= 1 and reg.shape == lr.shape == ()):
        shapes = [f"{x.dtype}{x.shape}" for x in (U, V, reg, lr)]
        raise ValidationError(f"{path}: U, V, reg, lr are {shapes}, "
                              f"expected float64 (d, m), (d, n), (), ()")
    if not all(np.isfinite(x).all() for x in (U, V, reg, lr)):
        raise ValidationError(f"{path}: U, V, reg or lr holds a value that is not finite")
    return MfModel(U=U, V=V, d=U.shape[0], reg=float(reg), lr=float(lr))
