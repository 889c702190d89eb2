import numpy as np
import pytest

from cfrl import mf
from cfrl.dataset import RatingDataset, RatingRecord, make_splits
from cfrl.errors import DivergenceError, ValidationError
from cfrl.persist import read_manifest

from conftest import make_dataset, needs_ml100k


def full_loss(U, V, entries, reg):
    """Objective evaluated directly: squared errors plus ridge terms."""
    total = sum((float(U[:, u] @ V[:, i]) - r) ** 2 for u, i, r in entries)
    return total + reg * (float(np.sum(U * U)) + float(np.sum(V * V)))


def dense_gd_oracle(m, n, entries, d, reg, lr, iters, seed):
    """Independent full-gradient descent on the same objective."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-0.01, 0.01, size=(d, m))
    V = rng.uniform(-0.01, 0.01, size=(d, n))
    R = np.zeros((m, n))
    mask = np.zeros((m, n))
    for u, i, r in entries:
        R[u, i] = r
        mask[u, i] = 1.0
    for _ in range(iters):
        E = mask * (U.T @ V - R)
        gU = 2.0 * (V @ E.T + reg * U)
        gV = 2.0 * (U @ E + reg * V)
        U = U - lr * gU
        V = V - lr * gV
    return full_loss(U, V, entries, reg)


def test_pretrain_fits_single_rating_exactly():
    ds = make_dataset({0: {0: 4}})
    model = mf.pretrain(ds, {0}, d=2, reg=0.0, lr=0.05, epochs=400, seed=1)
    assert mf.predict(model, model.U[:, 0], 0) == pytest.approx(4.0, abs=1e-3)


def test_pretrain_matches_dense_gradient_descent_oracle():
    profiles = {0: {0: 5, 1: 3, 2: 1}, 1: {0: 4, 1: 2, 2: 1}, 2: {0: 2, 1: 5, 2: 3}}
    ds = make_dataset(profiles)
    entries = list(zip(*[a.tolist() for a in ds.triples()]))
    entries = [(int(u), int(i), float(r)) for u, i, r in entries]
    model = mf.pretrain(ds, {0, 1, 2}, d=2, reg=0.01, lr=0.005, epochs=12000, seed=5)
    sgd_loss = full_loss(model.U, model.V, entries, 0.01)
    oracle_loss = dense_gd_oracle(3, 3, entries, d=2, reg=0.01, lr=0.02, iters=30000, seed=99)
    assert sgd_loss == pytest.approx(oracle_loss, rel=1e-3)


def test_pretrain_reaches_exactly_factorizable_matrix():
    # rank-1 integer matrix: R[u, i] = a[u] * b[i]
    a, b = [1, 2], [1, 2, 1]
    profiles = {u: {i: a[u] * b[i] for i in range(3)} for u in range(2)}
    ds = make_dataset(profiles)
    model = mf.pretrain(ds, {0, 1}, d=2, reg=0.0, lr=0.05, epochs=1000, seed=3)
    assert model.epoch_rmse[-1] < 1e-2


def test_pretrain_reports_rmse_per_epoch_and_is_deterministic():
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    m1 = mf.pretrain(ds, {0, 1}, d=2, reg=0.01, lr=0.01, epochs=5, seed=2)
    m2 = mf.pretrain(ds, {0, 1}, d=2, reg=0.01, lr=0.01, epochs=5, seed=2)
    assert len(m1.epoch_rmse) == 5
    assert m1.epoch_rmse == m2.epoch_rmse
    assert np.array_equal(m1.U, m2.U) and np.array_equal(m1.V, m2.V)


def test_pretrain_divergence_raises():
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    with pytest.raises(DivergenceError, match="learning rate"):
        mf.pretrain(ds, {0, 1}, d=2, reg=0.0, lr=50.0, epochs=50, seed=0)


def test_init_user_state():
    state = mf.init_user_state(8)
    assert state.shape == (8,)
    assert not state.any()
    with pytest.raises(ValueError):
        mf.init_user_state(0)


def test_zero_state_predicts_zero_everywhere():
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    model = mf.pretrain(ds, {0, 1}, d=3, reg=0.01, lr=0.01, epochs=3, seed=0)
    state = mf.init_user_state(3)
    for item in range(model.n):
        assert mf.predict(model, state, item) == 0.0


def test_online_update_from_zero_state_closed_form():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(4, 3))
    model = mf.MfModel(U=np.zeros((4, 1)), V=V, d=4, reg=0.3, lr=0.01)
    state = mf.init_user_state(4)
    for item, rating in [(0, 5.0), (2, 1.0)]:
        new = mf.online_update(model, state, item, rating)
        np.testing.assert_allclose(new, 2 * model.lr * rating * V[:, item], atol=1e-15)


def test_online_update_decreases_per_rating_objective():
    rng = np.random.default_rng(42)
    V = rng.normal(size=(6, 5))
    model = mf.MfModel(U=np.zeros((6, 1)), V=V, d=6, reg=0.01, lr=1e-3)
    state = rng.normal(size=6)
    for item in range(5):
        rating = float(rng.integers(1, 6))
        before = (float(state @ V[:, item]) - rating) ** 2 + 0.01 * float(state @ state)
        new = mf.online_update(model, state, item, rating)
        after = (float(new @ V[:, item]) - rating) ** 2 + 0.01 * float(new @ new)
        assert after < before
        state = new


def test_online_update_is_pure():
    rng = np.random.default_rng(1)
    V = rng.normal(size=(3, 4))
    model = mf.MfModel(U=np.zeros((3, 1)), V=V, d=3, reg=0.05, lr=0.02)
    state = rng.normal(size=3)
    v_before = model.V.copy()
    first = mf.online_update(model, state, 2, 4.0)
    second = mf.online_update(model, state, 2, 4.0)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(model.V, v_before)  # V stays frozen


def _central_difference(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        grad[k] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", range(20))
def test_rating_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    rating = float(rng.integers(1, 6))
    reg = float(rng.choice([0.0, 0.01, 0.1]))
    grad_u, grad_v = mf.rating_grads(u, v, rating, reg)
    fd_u = _central_difference(
        lambda x: (float(x @ v) - rating) ** 2 + reg * (float(x @ x) + float(v @ v)), u
    )
    fd_v = _central_difference(
        lambda x: (float(u @ x) - rating) ** 2 + reg * (float(u @ u) + float(x @ x)), v
    )
    for g, fd in [(grad_u, fd_u), (grad_v, fd_v)]:
        rel = np.abs(g - fd) / np.maximum(np.abs(g) + np.abs(fd), 1e-8)
        assert rel.max() < 1e-5


def test_online_update_is_gradient_step():
    rng = np.random.default_rng(7)
    V = rng.normal(size=(5, 3))
    model = mf.MfModel(U=np.zeros((5, 1)), V=V, d=5, reg=0.01, lr=1e-3)
    state = rng.normal(size=5)
    new = mf.online_update(model, state, 1, 4.0)
    grad_u, _ = mf.rating_grads(state, V[:, 1], 4.0, 0.01)
    np.testing.assert_allclose(new, state - model.lr * grad_u, atol=1e-12)


def test_predict_scalar_and_oracle():
    model = mf.MfModel(U=np.zeros((1, 1)), V=np.array([[1.5]]), d=1, reg=0.0, lr=0.01)
    assert mf.predict(model, np.array([2.0]), 0) == pytest.approx(3.0)
    rng = np.random.default_rng(3)
    V = rng.normal(size=(6, 10))
    model = mf.MfModel(U=np.zeros((6, 1)), V=V, d=6, reg=0.0, lr=0.01)
    state = rng.normal(size=6)
    for item in range(10):
        naive = sum(state[k] * V[k, item] for k in range(6))
        assert abs(mf.predict(model, state, item) - naive) < 1e-12


def test_prediction_ranking_is_scale_invariant():
    rng = np.random.default_rng(8)
    V = rng.normal(size=(4, 12))
    model = mf.MfModel(U=np.zeros((4, 1)), V=V, d=4, reg=0.0, lr=0.01)
    state = rng.normal(size=4)
    base = int(np.argmax(mf.predict_all(model, state)))
    for c in [0.1, 2.0, 17.0]:
        assert int(np.argmax(mf.predict_all(model, c * state))) == base


def _als_reference(fit_ds, d, reg, sweeps, seed):
    """Independent batch-MF oracle: regularized alternating least squares."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-0.01, 0.01, size=(d, fit_ds.m))
    V = rng.uniform(-0.01, 0.01, size=(d, fit_ds.n))
    by_user = [sorted(prof.items()) for prof in fit_ds.user_ratings]
    by_item = [[] for _ in range(fit_ds.n)]
    for u, prof in enumerate(fit_ds.user_ratings):
        for i, r in prof.items():
            by_item[i].append((u, r))
    eye = reg * np.eye(d)
    for _ in range(sweeps):
        for u, entries in enumerate(by_user):
            if not entries:
                continue
            Z = V[:, [i for i, _ in entries]]
            r = np.array([float(v) for _, v in entries])
            U[:, u] = np.linalg.solve(Z @ Z.T + eye, Z @ r)
        for i, entries in enumerate(by_item):
            if not entries:
                continue
            W = U[:, [u for u, _ in entries]]
            r = np.array([float(v) for _, v in entries])
            V[:, i] = np.linalg.solve(W @ W.T + eye, W @ r)
    return U, V


@needs_ml100k
def test_held_out_rmse_close_to_batch_reference(ml100k_ds):
    split = make_splits(ml100k_ds, 10, 0.10, 100, seed=0)[0]
    rng = np.random.default_rng(123)
    fit_records, held = [], []
    for u in sorted(split.train_users):
        items = sorted(ml100k_ds.user_ratings[u].items())
        k = max(1, len(items) // 10)
        held_idx = set(rng.choice(len(items), size=k, replace=False).tolist())
        for pos, (i, r) in enumerate(items):
            ext = (int(ml100k_ds.user_ids[u]), int(ml100k_ds.item_ids[i]), r)
            if pos in held_idx:
                held.append(ext)
            else:
                fit_records.append(RatingRecord(user=ext[0], item=ext[1], rating=ext[2]))
    fit_ds = RatingDataset.from_records(fit_records)

    model = mf.pretrain(fit_ds, set(range(fit_ds.m)), d=16, reg=0.01, lr=0.01,
                        epochs=30, seed=0)
    U_ref, V_ref = _als_reference(fit_ds, d=16, reg=0.01, sweeps=12, seed=7)

    def held_rmse(U, V):
        errs = []
        for ext_u, ext_i, r in held:
            u = fit_ds.user_index.get(ext_u)
            i = fit_ds.item_index.get(ext_i)
            if u is None or i is None:
                continue
            errs.append(float(U[:, u] @ V[:, i]) - r)
        return float(np.sqrt(np.mean(np.square(errs))))

    ours = held_rmse(model.U, model.V)
    reference = held_rmse(U_ref, V_ref)
    assert ours <= reference * 1.10, (
        f"held-out RMSE {ours:.4f} exceeds 110% of the batch reference {reference:.4f}"
    )


def test_checkpoint_round_trip(tmp_path):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    model = mf.pretrain(ds, {0, 1}, d=2, reg=0.01, lr=0.01, epochs=4, seed=9)
    path = tmp_path / "mf.ckpt"
    mf.save_mf(model, path, manifest={"seed": 9, "epochs": 4, "train_rmse": model.epoch_rmse[-1]})
    back = mf.load_mf(path)
    np.testing.assert_array_equal(back.U, model.U)
    np.testing.assert_array_equal(back.V, model.V)
    assert (back.d, back.reg, back.lr) == (model.d, model.reg, model.lr)
    manifest = read_manifest(path)
    assert manifest["train_rmse"] == model.epoch_rmse[-1]


def test_checkpoint_load_is_exact(tmp_path):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}, 2: {2: 3}})
    model = mf.pretrain(ds, {0, 1}, d=2, reg=0.01, lr=0.01, epochs=1, seed=9)
    path = tmp_path / "mf.ckpt"
    mf.save_mf(model, path)
    good = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for cut in range(len(good)):
        bad.write_bytes(good[:cut])
        with pytest.raises(ValidationError):
            mf.load_mf(bad)
    bad.write_bytes(good + b"\x00")
    with pytest.raises(ValidationError, match="trailing"):
        mf.load_mf(bad)
