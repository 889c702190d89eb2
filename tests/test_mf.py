import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import mf
from cfrl.dataset import RatingDataset, SplitConfig, make_splits
from cfrl.errors import DivergenceError, ValidationError
from cfrl.mf import MfConfig
from cfrl.persist import manifest_path
from cfrl.seeding import rng_for

from conftest import make_dataset, needs_ml100k, profile, synthetic_profiles
from oracles import rating_grads


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


def sequential_pretrain(ds, train_users, d, reg, lr, epochs, seed):
    """Reference: the rating-by-rating SGD loop that pretrain runs in rounds,
    with the same init, shuffle and per-rating ridge weights.

    Returns:
        (U, V, epoch_rmse).
    """
    users, items, ratings = ds.triples()
    keep = np.isin(users, np.fromiter(train_users, dtype=np.int64))
    users, items, ratings = users[keep], items[keep], ratings[keep]
    rng = rng_for(seed, "mf-init")
    U = rng.uniform(-0.01, 0.01, size=(d, ds.m))
    V = rng.uniform(-0.01, 0.01, size=(d, ds.n))
    shuffle_rng = rng_for(seed, "mf-shuffle")
    user_count = np.bincount(users, minlength=ds.m).astype(np.float64)
    item_count = np.bincount(items, minlength=ds.n).astype(np.float64)
    reg_u = np.divide(reg, user_count, out=np.zeros(ds.m), where=user_count > 0)
    reg_i = np.divide(reg, item_count, out=np.zeros(ds.n), where=item_count > 0)
    two_lr = 2.0 * lr
    epoch_rmse = []
    for _ in range(epochs):
        for k in shuffle_rng.permutation(users.size):
            u = users[k]
            i = items[k]
            u_vec = U[:, u]
            v_vec = V[:, i]
            err = float(u_vec @ v_vec) - ratings[k]
            u_old = u_vec.copy()
            U[:, u] = u_vec - two_lr * (err * v_vec + reg_u[u] * u_vec)
            V[:, i] = v_vec - two_lr * (err * u_old + reg_i[i] * v_vec)
        pred = np.sum(U[:, users] * V[:, items], axis=0)
        epoch_rmse.append(float(np.sqrt(np.mean((pred - ratings) ** 2))))
    return U, V, epoch_rmse


def assert_matches_sequential(model, reference):
    """Factors and epoch RMSEs equal the reference loop's to 1e-12 relative."""
    U, V, epoch_rmse = reference
    for got, want in ((model.U, U), (model.V, V)):
        assert got.flags.c_contiguous and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.epoch_rmse, epoch_rmse, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [2, 5, 16])
@pytest.mark.parametrize("seed, epochs", [(0, 1), (1, 3), (2, 6)])
def test_pretrain_equals_the_sequential_loop(d, seed, epochs):
    ds = make_dataset(synthetic_profiles(n_users=30, n_items=40, per_user=25, seed=seed))
    train_users = set(range(0, 30, 3)) | set(range(1, 30, 3))
    model = mf.pretrain(ds, train_users, MfConfig(dim=d, reg=0.05, lr=0.02, epochs=epochs),
                        seed=seed)
    reference = sequential_pretrain(ds, train_users, d=d, reg=0.05, lr=0.02, epochs=epochs,
                                    seed=seed)
    assert_matches_sequential(model, reference)


@settings(max_examples=200)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_schedule_rounds_are_conflict_free_and_keep_each_rows_order(m, n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               min_size=1, max_size=40))
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    items = np.array([i for _, i in pairs], dtype=np.int64)
    by_round, ends = mf._schedule(users, items, m, n)
    # every rating exactly once, no empty round
    assert sorted(by_round.tolist()) == list(range(len(pairs)))
    assert ends[-1] == len(pairs) and np.all(np.diff(ends) > 0)
    start = 0
    for end in ends.tolist():
        held = by_round[start:end]
        assert len(set(users[held].tolist())) == held.size
        assert len(set(items[held].tolist())) == held.size
        start = end
    # each user's and each item's ratings are applied in the given order
    for ids in (users, items):
        for row in set(ids.tolist()):
            applied = [k for k in by_round.tolist() if ids[k] == row]
            assert applied == sorted(applied)


@pytest.mark.parametrize(
    "bad",
    [dict(epochs=0), dict(epochs=-3), dict(lr=0.0), dict(lr=-0.01), dict(lr=float("nan")),
     dict(lr=float("inf")), dict(reg=-5.0), dict(reg=float("nan")), dict(reg=float("inf"))],
    ids=["epochs0", "epochs-3", "lr0", "lr-0.01", "lr-nan", "lr-inf", "reg-5", "reg-nan",
         "reg-inf"],
)
def test_pretrain_rejects_out_of_range_hyperparameters(bad):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    params = dict(dim=2, reg=0.01, lr=0.01, epochs=2) | bad
    (key,) = bad
    with pytest.raises(ValueError, match=key):
        mf.pretrain(ds, {0, 1}, MfConfig(**params), seed=0)


def test_pretrain_fits_single_rating_exactly():
    ds = make_dataset({0: {0: 4}})
    model = mf.pretrain(ds, {0}, MfConfig(dim=2, reg=0.0, lr=0.05, epochs=400), seed=1)
    assert mf.predict_all(model, model.U[:, 0])[0] == pytest.approx(4.0, abs=1e-3)


def test_pretrain_matches_dense_gradient_descent_oracle():
    profiles = {0: {0: 5, 1: 3, 2: 1}, 1: {0: 4, 1: 2, 2: 1}, 2: {0: 2, 1: 5, 2: 3}}
    ds = make_dataset(profiles)
    entries = list(zip(*[a.tolist() for a in ds.triples()]))
    entries = [(int(u), int(i), float(r)) for u, i, r in entries]
    model = mf.pretrain(ds, {0, 1, 2}, MfConfig(dim=2, reg=0.01, lr=0.005, epochs=12000), seed=5)
    sgd_loss = full_loss(model.U, model.V, entries, 0.01)
    oracle_loss = dense_gd_oracle(3, 3, entries, d=2, reg=0.01, lr=0.02, iters=30000, seed=99)
    assert sgd_loss == pytest.approx(oracle_loss, rel=1e-3)


def test_pretrain_reaches_exactly_factorizable_matrix():
    # rank-1 integer matrix: R[u, i] = a[u] * b[i]
    a, b = [1, 2], [1, 2, 1]
    profiles = {u: {i: a[u] * b[i] for i in range(3)} for u in range(2)}
    ds = make_dataset(profiles)
    model = mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.0, lr=0.05, epochs=1000), seed=3)
    assert model.epoch_rmse[-1] < 1e-2


def test_pretrain_reports_rmse_per_epoch_and_is_deterministic():
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    m1 = mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.01, lr=0.01, epochs=5), seed=2)
    m2 = mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.01, lr=0.01, epochs=5), seed=2)
    assert len(m1.epoch_rmse) == 5
    assert m1.epoch_rmse == m2.epoch_rmse
    assert np.array_equal(m1.U, m2.U) and np.array_equal(m1.V, m2.V)


def test_pretrain_divergence_raises():
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    with pytest.raises(DivergenceError, match="learning rate"):
        mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.0, lr=50.0, epochs=50), seed=0)


def test_zero_state_predicts_zero_everywhere():
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    model = mf.pretrain(ds, {0, 1}, MfConfig(dim=3, reg=0.01, lr=0.01, epochs=3), seed=0)
    scores = mf.predict_all(model, np.zeros(3))
    assert scores.shape == (model.n,)
    for item in range(model.n):
        assert scores[item] == 0.0


def test_online_update_from_zero_state_closed_form():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(4, 3))
    model = mf.MfModel(U=np.zeros((4, 1)), V=V, d=4, reg=0.3, lr=0.01)
    state = np.zeros(4)
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


@pytest.mark.parametrize("d", [3, 4, 16])
def test_online_update_and_predict_all_block_rows_are_bit_identical(d):
    rng = np.random.default_rng(d)
    model = mf.MfModel(U=np.zeros((d, 1)), V=rng.normal(size=(d, 50)), d=d, reg=0.01, lr=0.05)
    for rows in (1, 2, 23):
        states = rng.normal(size=(rows, d))
        items = rng.integers(50, size=rows)
        ratings = rng.integers(0, 6, size=rows).astype(float)
        updated = mf.online_update(model, states, items, ratings)
        scores = mf.predict_all(model, states)
        for row in range(rows):
            alone = mf.online_update(model, states[row], int(items[row]), float(ratings[row]))
            assert updated[row].tobytes() == alone.tobytes()
            assert scores[row].tobytes() == mf.predict_all(model, states[row]).tobytes()
            # the lone update's error term is the plain dot with the item's column
            err = float(states[row] @ model.V[:, items[row]]) - ratings[row]
            expected = states[row] - 2.0 * model.lr * (err * model.V[:, items[row]]
                                                       + model.reg * states[row])
            assert alone.tobytes() == expected.tobytes()


def test_online_update_divergence_names_the_item():
    model = mf.MfModel(U=np.zeros((2, 1)), V=np.full((2, 4), 1e200), d=2, reg=0.0, lr=1e300)
    states = np.zeros((3, 2))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="updating item 2;"):
        mf.online_update(model, states, np.array([1, 2, 3]), np.array([0.0, 5.0, 0.0]))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="updating item 3;"):
        mf.online_update(model, states[0], 3, 5.0)


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
    grad_u, grad_v = rating_grads(u, v, rating, reg)
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
    grad_u, _ = rating_grads(state, V[:, 1], 4.0, 0.01)
    np.testing.assert_allclose(new, state - model.lr * grad_u, atol=1e-12)


def test_predict_scalar_and_oracle():
    model = mf.MfModel(U=np.zeros((1, 1)), V=np.array([[1.5]]), d=1, reg=0.0, lr=0.01)
    assert mf.predict_all(model, np.array([2.0])).tolist() == [pytest.approx(3.0)]
    rng = np.random.default_rng(3)
    V = rng.normal(size=(6, 10))
    model = mf.MfModel(U=np.zeros((6, 1)), V=V, d=6, reg=0.0, lr=0.01)
    state = rng.normal(size=6)
    scores = mf.predict_all(model, state)
    for item in range(10):
        naive = sum(state[k] * V[k, item] for k in range(6))
        assert abs(scores[item] - naive) < 1e-12


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
    by_user = [sorted(profile(fit_ds, u).items()) for u in range(fit_ds.m)]
    by_item = [[] for _ in range(fit_ds.n)]
    for u, entries in enumerate(by_user):
        for i, r in entries:
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
    split = make_splits(ml100k_ds, SplitConfig(count=10, test_fraction=0.10, min_ratings=100),
                        seed=0)[0]
    rng = np.random.default_rng(123)
    fit_records, held = [], []
    for u in sorted(split.train_users):
        items = sorted(profile(ml100k_ds, u).items())
        k = max(1, len(items) // 10)
        held_idx = set(rng.choice(len(items), size=k, replace=False).tolist())
        for pos, (i, r) in enumerate(items):
            ext = (int(ml100k_ds.user_ids[u]), int(ml100k_ds.item_ids[i]), r)
            if pos in held_idx:
                held.append(ext)
            else:
                fit_records.append(ext)
    fit_ds = RatingDataset.from_arrays(*zip(*fit_records))

    model = mf.pretrain(fit_ds, set(range(fit_ds.m)),
                        MfConfig(dim=16, reg=0.01, lr=0.01, epochs=30),
                        seed=0)
    U_ref, V_ref = _als_reference(fit_ds, d=16, reg=0.01, sweeps=12, seed=7)

    def held_rmse(U, V):
        errs = []
        for ext_u, ext_i, r in held:
            if ext_u not in fit_ds.user_ids or ext_i not in fit_ds.item_ids:
                continue
            u = int(np.searchsorted(fit_ds.user_ids, ext_u))
            i = int(np.searchsorted(fit_ds.item_ids, ext_i))
            errs.append(float(U[:, u] @ V[:, i]) - r)
        return float(np.sqrt(np.mean(np.square(errs))))

    ours = held_rmse(model.U, model.V)
    reference = held_rmse(U_ref, V_ref)
    assert ours <= reference * 1.10, (
        f"held-out RMSE {ours:.4f} exceeds 110% of the batch reference {reference:.4f}"
    )


def test_checkpoint_round_trip(tmp_path):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}})
    model = mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.01, lr=0.01, epochs=4), seed=9)
    path = tmp_path / "mf.ckpt"
    mf.save_mf(model, path, manifest={"seed": 9, "epochs": 4, "train_rmse": model.epoch_rmse[-1]})
    back = mf.load_mf(path)
    np.testing.assert_array_equal(back.U, model.U)
    np.testing.assert_array_equal(back.V, model.V)
    assert (back.d, back.reg, back.lr) == (model.d, model.reg, model.lr)
    with open(manifest_path(path), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["train_rmse"] == model.epoch_rmse[-1]


def test_checkpoint_load_is_exact(tmp_path):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}, 2: {2: 3}})
    model = mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.01, lr=0.01, epochs=1), seed=9)
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


@pytest.mark.parametrize("key", ["U", "V"])
def test_checkpoint_with_factors_that_are_not_finite_is_refused(tmp_path, key):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}, 2: {2: 3}})
    model = mf.pretrain(ds, {0, 1}, MfConfig(dim=2, reg=0.01, lr=0.01, epochs=1), seed=9)
    getattr(model, key)[1, 0] = np.inf
    path = tmp_path / "mf.ckpt"
    mf.save_mf(model, path)
    with pytest.raises(ValidationError, match="not finite") as err:
        mf.load_mf(path)
    assert str(path) in str(err.value)
