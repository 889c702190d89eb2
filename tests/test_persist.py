"""The one artifact format: atomic writes and the validating loader.

Every artifact (dataset snapshot, factor model, Q-network, LinUCB statistics,
trainer state) is an .npz archive. Any truncation or single-bit flip of one
either loads exactly what was saved or raises ValidationError.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import dataset, mf, persist, qnet
from cfrl.agent import TrainConfig, make_trainer, write_trace, write_training_log
from cfrl.baselines import LinUcbModel
from cfrl.config import RunConfig
from cfrl.dataset import Split
from cfrl.env import TaskMode
from cfrl.errors import ValidationError
from cfrl.methods import METHODS, SplitContext

from conftest import make_dataset, synthetic_profiles


def _snapshot(tmp):
    ds = make_dataset(synthetic_profiles(n_users=6, n_items=8, per_user=3, seed=1))
    path = tmp / "ds.snap"
    dataset.save_snapshot(ds, path)
    return path, dataset.load_snapshot, lambda d: (
        d.m, d.n, d.rating_count,
        *(a.tobytes() for a in (d.user_ids, d.item_ids, d.indptr, d.items, d.ratings)))


def _factors(tmp):
    ds = make_dataset({0: {0: 5, 1: 1}, 1: {0: 4, 1: 2}, 2: {2: 3}})
    model = mf.pretrain(ds, {0, 1}, d=2, reg=0.01, lr=0.01, epochs=1, seed=9)
    path = tmp / "mf.ckpt"
    mf.save_mf(model, path)
    return path, mf.load_mf, lambda m: (
        m.U.shape, m.U.tobytes(), m.V.shape, m.V.tobytes(), m.d, m.reg, m.lr)


def _qnetwork(tmp):
    path = tmp / "net.ckpt"
    qnet.save_qnet(qnet.qnet_init([3, 4, 5], seed=2, activation="relu"), path)
    return path, qnet.load_qnet, lambda n: (
        n.layer_sizes, n.activation, qnet.flatten_params(n).tobytes())


def _linucb(tmp):
    model = mf.MfModel(U=np.zeros((2, 3)), V=np.ones((2, 4)), d=2, reg=0.0, lr=0.0)
    ctx = SplitContext(ds=None, split=None, index=0, cfg=RunConfig(), mf_model=model)
    ucb = LinUcbModel.fresh(2, alpha_ucb=0.5)
    ucb.A += 0.25
    ucb.b += 1.0
    path = tmp / "ucb.npz"
    METHODS["linucb"].save(ucb, path)
    return path, lambda p: METHODS["linucb"].load(ctx, p), lambda u: (
        u.A.tobytes(), u.b.tobytes(), u.alpha_ucb)


def _trainer_state(tmp, raw=False):
    """A latent-state trainer's state or, with `raw`, a raw-vector trainer's,
    whose replay keeps (item, reward) pairs; task1 pays a rating every step."""
    ds = make_dataset(synthetic_profiles(n_users=6, n_items=5, per_user=4, seed=3))
    split = Split(train_users=frozenset(range(5)), test_users=frozenset({5}), seed=0)
    model = None if raw else mf.pretrain(ds, split.train_users, d=2, epochs=1, seed=0)
    cfg = TrainConfig(episodes=2, horizon=2, hidden_sizes=(2,),
                      task=TaskMode.TASK_I if raw else TaskMode.TASK_II,
                      batch_size=2, replay_capacity=8, seed=1)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    path = tmp / f"state{'_raw' if raw else ''}.npz"
    trainer.save(path)

    def load(p):
        fresh = make_trainer(ds, split, model, cfg)
        fresh.restore(p)
        return fresh

    def contents(t):
        replay = {key: (col.dtype, col.shape, col.tobytes()) for key, col in t.memory.state().items()}
        rngs = [rng.bit_generator.state for rng in (t.user_rng, t.action_rng, t.replay_rng)]
        return (qnet.flatten_params(t.net).tobytes(), qnet.flatten_params(t.target).tobytes(),
                replay, rngs, t.train_steps, list(t.episodes()))

    return path, load, contents


ARTIFACTS = {"snapshot": _snapshot, "factors": _factors, "qnet": _qnetwork,
             "linucb": _linucb, "trainer": _trainer_state,
             "raw-trainer": lambda tmp: _trainer_state(tmp, raw=True)}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("artifacts")
    return {name: build(tmp) for name, build in ARTIFACTS.items()}


@pytest.mark.parametrize("name", ARTIFACTS)
@settings(max_examples=300)
@given(data=st.data())
def test_damaged_artifact_loads_exactly_or_is_refused(artifacts, name, data):
    path, load, contents = artifacts[name]
    good = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = good[:data.draw(st.integers(0, len(good) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(good) - 1), label="bit")
        damaged = bytearray(good)
        damaged[bit // 8] ^= 1 << (bit % 8)
    bad = path.with_name(f"damaged{path.suffix}")
    bad.write_bytes(damaged)
    try:
        loaded = load(bad)
    except ValidationError:
        return
    assert contents(loaded) == contents(load(path))


def test_loader_names_the_file_and_the_fault(tmp_path):
    good = tmp_path / "a.npz"
    persist.save_npz(good, {"x": np.arange(3.0), "y": np.array(2, dtype=np.int64)})
    arrays = persist.load_npz(good, "thing", ("y", "x"))
    assert list(arrays) == ["y", "x"]
    np.testing.assert_array_equal(arrays["x"], np.arange(3.0))
    assert arrays["x"].flags.writeable and arrays["y"].shape == ()

    bad = tmp_path / "bad.npz"
    raw = good.read_bytes()
    cases = [
        (b"CFRLQN\x00\x01" + raw, "not a thing"),       # the pre-.npz checkpoint magic
        (raw[:-1], "truncated thing"),
        (raw + b"\x00", "trailing bytes"),
    ]
    for damaged, message in cases:
        bad.write_bytes(damaged)
        with pytest.raises(ValidationError, match=message) as err:
            persist.load_npz(bad, "thing", ("x", "y"))
        assert str(bad) in str(err.value)
    with pytest.raises(ValidationError, match="members"):
        persist.load_npz(good, "thing", ("x",))
    # object arrays would be unpickled; they are refused instead
    with open(bad, "wb") as fh:
        np.savez(fh, x=np.array([{"a": 1}], dtype=object), y=np.zeros(1))
    with pytest.raises(ValidationError, match="plain array"):
        persist.load_npz(bad, "thing", ("x", "y"))


def test_failed_manifest_write_keeps_previous_sidecar(tmp_path, monkeypatch):
    ckpt = tmp_path / "net.ckpt"
    persist.write_manifest(ckpt, {"seed": 1})

    def disk_full(fd):
        raise OSError("disk full")

    monkeypatch.setattr(persist.os, "fsync", disk_full)
    with pytest.raises(OSError, match="disk full"):
        persist.write_manifest(ckpt, {"seed": 2})
    monkeypatch.undo()
    with open(persist.manifest_path(ckpt), encoding="utf-8") as fh:
        assert json.load(fh) == {"seed": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt.manifest.json"]


@pytest.mark.parametrize("writer", ["trace", "training_log"])
def test_failed_text_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    ds = make_dataset(synthetic_profiles(n_users=6, n_items=5, per_user=4, seed=3))
    split = Split(train_users=frozenset(range(5)), test_users=frozenset({5}), seed=0)
    trainer = make_trainer(ds, split, None, TrainConfig(
        episodes=2, horizon=2, hidden_sizes=(2,), task=TaskMode.TASK_II, batch_size=2, seed=1))
    trainer.run()
    write = {"trace": write_trace, "training_log": write_training_log}[writer]
    path = tmp_path / f"{writer}.csv"
    write(path, trainer)
    before = path.read_bytes()
    episodes = trainer.episodes

    def episode_then_disk_full():
        yield next(episodes())
        raise OSError("disk full")

    monkeypatch.setattr(trainer, "episodes", episode_then_disk_full)
    with pytest.raises(OSError, match="disk full"):
        write(path, trainer)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    with persist.atomic_text(path, newline="") as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
