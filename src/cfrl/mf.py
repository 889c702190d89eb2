"""Latent-factor rating model.

Batch pretraining minimizes the ridge-regularized squared reconstruction loss

    sum_{(u,i) observed} (U_u . V_i - R_ui)^2 + reg * (||U||_F^2 + ||V||_F^2)

by per-rating SGD over shuffled training ratings. During an interaction
episode only the active user's vector is maintained, one SGD iteration per
observed rating, against the frozen pretrained item vectors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ValidationError
from .persist import expect_end, read_exact, write_manifest
from .seeding import rng_for

_MF_MAGIC = b"CFRLMF\x00\x01"
_MF_VERSION = 1

# Symmetric small init is the usual convention for SGD matrix factorization.
_INIT_SCALE = 0.01


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


def rating_grads(u_vec, v_vec, rating, reg):
    """Gradients of (u.v - r)^2 + reg*(|u|^2 + |v|^2) w.r.t. u and v."""
    err = float(u_vec @ v_vec) - rating
    grad_u = 2.0 * (err * v_vec + reg * u_vec)
    grad_v = 2.0 * (err * u_vec + reg * v_vec)
    return grad_u, grad_v


def pretrain(
    ds,
    train_users,
    d: int = 16,
    reg: float = 0.01,
    lr: float = 0.01,
    epochs: int = 30,
    seed: int = 0,
) -> MfModel:
    """Fit factors to the ratings of the training users by epoch-wise SGD.

    Factor matrices cover all m users and n items; columns of users outside
    train_users keep their initialization and are never consumed downstream
    (episodes start from a zero user state instead).

    Args:
        ds: RatingDataset.
        train_users: user indices whose ratings are trained on.
        d: latent dimensionality.
        reg: ridge weight.
        lr: SGD step size.
        epochs: passes over the shuffled training ratings.
        seed: controls init and shuffling.

    Returns:
        MfModel with per-epoch training RMSE in epoch_rmse.

    Raises:
        DivergenceError: the loss went non-finite (lr too large).
        ValidationError: no training ratings.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    users, items, ratings = ds.triples()
    keep = np.isin(users, np.fromiter(train_users, dtype=np.int64))
    users, items, ratings = users[keep], items[keep], ratings[keep]
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
    two_lr = 2.0 * lr
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = shuffle_rng.permutation(users.size)
            for k in order:
                u = users[k]
                i = items[k]
                u_vec = U[:, u]
                v_vec = V[:, i]
                err = float(u_vec @ v_vec) - ratings[k]
                u_old = u_vec.copy()
                U[:, u] = u_vec - two_lr * (err * v_vec + reg_u[u] * u_vec)
                V[:, i] = v_vec - two_lr * (err * u_old + reg_i[i] * v_vec)
            rmse = _rmse(U, V, users, items, ratings)
            if not np.isfinite(rmse):
                raise DivergenceError(
                    f"training RMSE became non-finite at epoch {epoch}; "
                    f"try a smaller learning rate than {lr}"
                )
            model.epoch_rmse.append(rmse)
    return model


def _rmse(U, V, users, items, ratings) -> float:
    pred = np.sum(U[:, users] * V[:, items], axis=0)
    return float(np.sqrt(np.mean((pred - ratings) ** 2)))


def training_rmse(model: MfModel, ds, train_users) -> float:
    """RMSE of the model over the training users' ratings (recomputed)."""
    users, items, ratings = ds.triples()
    keep = np.isin(users, np.fromiter(train_users, dtype=np.int64))
    return _rmse(model.U, model.V, users[keep], items[keep], ratings[keep])


def init_user_state(d: int) -> np.ndarray:
    """Zero latent vector every interaction episode starts from."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return np.zeros(d, dtype=np.float64)


def online_update(model: MfModel, state, item: int, rating: float):
    """One SGD iteration of the active user's vector on a single rating.

    The pretrained item vector stays frozen; one iteration is enough in
    practice.

    Returns:
        The updated user state as a new array; `state` is left untouched.
    """
    v_vec = model.V[:, item]
    err = float(state @ v_vec) - rating
    new_state = state - 2.0 * model.lr * (err * v_vec + model.reg * state)
    if not np.all(np.isfinite(new_state)):
        raise DivergenceError(
            f"user state became non-finite updating item {item}; "
            f"learning rate {model.lr} is too large for this data"
        )
    return new_state


def predict(model: MfModel, state, item: int) -> float:
    """Score of one item under the given user state."""
    return float(state @ model.V[:, item])


def predict_all(model: MfModel, state) -> np.ndarray:
    """Scores of every item under the given user state."""
    return model.V.T @ state


def save_mf(model: MfModel, path, manifest: dict | None = None) -> None:
    """Write the binary checkpoint and, if given, a JSON manifest sidecar."""
    with open(path, "wb") as fh:
        fh.write(_MF_MAGIC)
        fh.write(struct.pack("<IIII", _MF_VERSION, model.d, model.m, model.n))
        fh.write(struct.pack("<dd", model.reg, model.lr))
        fh.write(np.ascontiguousarray(model.U, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(model.V, dtype=np.float64).tobytes())
    if manifest is not None:
        write_manifest(path, manifest)


def load_mf(path) -> MfModel:
    """Read a save_mf checkpoint; any other length or header raises ValidationError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MF_MAGIC))
        if magic != _MF_MAGIC:
            raise ValidationError(f"{path}: not an MF checkpoint")
        version, d, m, n = struct.unpack("<IIII", read_exact(fh, 16, path))
        if version != _MF_VERSION:
            raise ValidationError(f"{path}: unsupported MF checkpoint version {version}")
        reg, lr = struct.unpack("<dd", read_exact(fh, 16, path))
        U = np.frombuffer(read_exact(fh, d * m * 8, path), dtype=np.float64).reshape(d, m).copy()
        V = np.frombuffer(read_exact(fh, d * n * 8, path), dtype=np.float64).reshape(d, n).copy()
        expect_end(fh, path)
    return MfModel(U=U, V=V, d=d, reg=reg, lr=lr)
