import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import mf, qnet
from cfrl.agent import (
    EpisodeLog,
    QTrainer,
    ReplayMemory,
    TrainConfig,
    eligible_train_users,
    make_trainer,
    put_pairs,
    select_action,
    state_kind,
    write_training_log,
)
from cfrl.baselines import GreedyQPolicy
from cfrl.dataset import RatingDataset, Split
from cfrl.env import TaskMode
from cfrl.errors import ValidationError
from cfrl.evaluate import evaluate_policy
from cfrl.seeding import rng_for

from conftest import PLANTED_ITEM, make_dataset, planted_profiles, profile, synthetic_profiles
from oracles import raw_pairs, raw_update, replay_rows
from toy_mdp import ChainEnv, LIVE_STATES, encode, update, value_iteration


def _push_rows(mem, count, start=0):
    """Push transitions whose reward is their push number, so a row names itself."""
    for k in range(start, start + count):
        mask = np.arange(mem.n_actions) != k % mem.n_actions
        mem.push(np.full(2, float(k)), k % mem.n_actions, float(k), np.full(2, k + 0.5),
                 k % 2 == 0, mask)


class TestSelectAction:
    def test_greedy_limit(self):
        net = qnet.qnet_init([2, 4], seed=0)
        state = np.array([0.4, -1.0])
        q = qnet.forward(net, state)
        mask = np.ones(4, dtype=bool)
        pick = select_action(net, state, mask, epsilon=0.0, rng=None)
        assert pick == int(np.argmax(q))

    def test_masked_greedy_excludes_global_argmax(self):
        net = qnet.qnet_init([2, 4], seed=0)
        state = np.array([0.4, -1.0])
        q = qnet.forward(net, state)
        best = int(np.argmax(q))
        mask = np.ones(4, dtype=bool)
        mask[best] = False
        pick = select_action(net, state, mask, epsilon=0.0, rng=None)
        assert pick != best and mask[pick]
        assert q[pick] == max(q[k] for k in range(4) if mask[k])

    def test_uniform_exploration_frequencies(self):
        net = qnet.qnet_init([2, 5], seed=1)
        state = np.zeros(2)
        mask = np.array([True, True, False, True, True])
        rng = rng_for(0, "freq-test")
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            counts[select_action(net, state, mask, epsilon=1.0, rng=rng)] += 1
        freqs = counts / draws
        assert freqs[2] == 0.0
        np.testing.assert_allclose(freqs[[0, 1, 3, 4]], 0.25, atol=0.01)

    def test_empty_mask_is_an_error(self):
        net = qnet.qnet_init([2, 3], seed=0)
        with pytest.raises(ValueError, match="empty"):
            select_action(net, np.zeros(2), np.zeros(3, dtype=bool), 0.0, None)


class TestReplayMemory:
    def test_fifo_eviction(self):
        mem = ReplayMemory(capacity=2, state_dim=2, n_actions=4)
        _push_rows(mem, 3)
        assert len(mem) == 2
        # the third push overwrote slot 0, the oldest transition
        assert mem.state()["r"].tolist() == [2.0, 1.0]
        _push_rows(mem, 1, start=3)
        assert mem.state()["r"].tolist() == [2.0, 3.0]

    def test_sample_returns_the_pushed_rows(self):
        mem = ReplayMemory(capacity=10, state_dim=2, n_actions=11)
        _push_rows(mem, 10)
        batch = mem.sample(10, rng_for(0, "r"))
        k = batch.r.astype(np.int64)
        np.testing.assert_array_equal(batch.s, np.repeat(k[:, None], 2, axis=1).astype(float))
        np.testing.assert_array_equal(batch.s_next, batch.s + 0.5)
        np.testing.assert_array_equal(batch.a, k % 11)
        np.testing.assert_array_equal(batch.done, k % 2 == 0)
        assert batch.mask_next.dtype == bool and batch.mask_next.shape == (10, 11)
        np.testing.assert_array_equal(batch.mask_next, np.arange(11)[None, :] != (k % 11)[:, None])

    def test_sample_forced_duplicates_below_batch(self):
        mem = ReplayMemory(capacity=10, state_dim=2, n_actions=4)
        _push_rows(mem, 1)
        batch = mem.sample(4, rng_for(0, "r"))
        assert batch.r.tolist() == [0.0] * 4

    def test_sample_without_replacement_at_capacity(self):
        mem = ReplayMemory(capacity=10, state_dim=2, n_actions=4)
        _push_rows(mem, 6)
        batch = mem.sample(6, rng_for(0, "r"))
        assert sorted(batch.r.tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_sample_uniformity(self):
        mem = ReplayMemory(capacity=10, state_dim=2, n_actions=4)
        _push_rows(mem, 10)
        rng = rng_for(1, "uniform")
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            counts[int(mem.sample(1, rng).r[0])] += 1
        np.testing.assert_allclose(counts / draws, 0.1, atol=0.01)

    def test_sample_reproducible_and_empty_error(self):
        mem = ReplayMemory(capacity=5, state_dim=2, n_actions=4)
        with pytest.raises(ValueError, match="empty"):
            mem.sample(1, rng_for(0, "x"))
        _push_rows(mem, 5)
        a = mem.sample(3, rng_for(7, "s")).r.tolist()
        b = mem.sample(3, rng_for(7, "s")).r.tolist()
        assert a == b

    def test_stress_size_never_exceeds_capacity(self):
        mem = ReplayMemory(capacity=1000, state_dim=2, n_actions=4)
        s, mask = np.zeros(2), np.ones(4, dtype=bool)
        for k in range(1_000_000):
            mem.push(s, 0, 1.0, s, True, mask)
            if k % 100_000 == 0:
                assert len(mem) <= 1000
        assert len(mem) == 1000
        assert all(col.shape[0] == 1000 for key, col in mem.state().items() if key != "next")

    def test_memory_grows_with_rows_filled_not_capacity(self):
        # raw-state rows at the default capacity of 100,000 and horizon of 40:
        # (item, reward) pairs in place of two 1,586-wide float64 states
        n, cfg = 1586, TrainConfig(episodes=1)
        mem = ReplayMemory(cfg.replay_capacity, state_dim=n, n_actions=n,
                           raw_horizon=cfg.horizon)
        rng = np.random.default_rng(0)
        s, mask = np.zeros(n), rng.random(n) < 0.5
        s[rng.choice(n, cfg.horizon, replace=False)] = rng.integers(1, 6, cfg.horizon)
        pairs = raw_pairs(s, cfg.horizon)
        tracemalloc.start()
        try:
            for k in range(1000):
                mem.push(pairs, k, 1.0, None, False, mask)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_bytes = sum(col[0].nbytes for key, col in mem.state().items() if key != "next")
        assert row_bytes == cfg.horizon * (4 + 8) + 8 + 8 + 1 + (n + 7) // 8
        assert row_bytes <= 1536
        assert held <= 1.1 * 1000 * row_bytes
        batch = mem.sample(1, rng)
        np.testing.assert_array_equal(batch.mask_next[0], mask)
        np.testing.assert_array_equal(batch.s.dense(n)[0], s)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_raw_rows_rebuild_exactly(data):
    # every state a raw learner can hold: at most T nonzeros from a zero start,
    # items at both ends of the catalogue, rewards of 0 among them
    n = data.draw(st.integers(1, 40), label="n")
    horizon = data.draw(st.integers(0, n), label="horizon")
    rows = data.draw(st.integers(1, 6), label="rows")
    mem = ReplayMemory(rows, state_dim=n, n_actions=n, raw_horizon=horizon)
    states, actions = np.zeros((rows, n)), []
    for k in range(rows):
        items = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=horizon))
        states[k, items] = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0]),
                                              min_size=len(items), max_size=len(items)))
        actions.append(data.draw(st.integers(0, n - 1)))
        mem.push(raw_pairs(states[k], horizon), actions[k], float(k), None, False,
                 np.ones(n, dtype=bool))
    batch = mem.sample(rows, rng_for(0, "rebuild"))
    k = batch.r.astype(np.int64)
    assert batch.s.items.shape == batch.s_next.items.shape == (rows, horizon + 1)
    assert np.array_equal(batch.s.dense(n), states[k])
    expected_next = states[k]
    expected_next[np.arange(rows), np.array(actions)[k]] = batch.r
    assert np.array_equal(batch.s_next.dense(n), expected_next)
    assert np.array_equal(batch.a, np.array(actions)[k])
    # both are in the one canonical form that acting reads a raw state in
    for pairs, dense in ((batch.s, states[k]), (batch.s_next, expected_next)):
        canonical = raw_pairs(dense, horizon)
        assert np.array_equal(pairs.items, canonical.items)
        assert np.array_equal(pairs.values, canonical.values)
    # each successor is the one put of its stored state that play makes
    assert _bits(batch.s_next) == _bits(put_pairs(batch.s, batch.a, batch.r, n))


def _bits(pairs):
    """A Pairs block's dtypes and bytes: equal only if bit for bit the same."""
    return (pairs.items.dtype, pairs.items.tobytes(), pairs.values.dtype, pairs.values.tobytes())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_put_pairs_is_the_dense_raw_state_bit_for_bit(data):
    # from the all-padding start, putting any (item, reward) sequence gives
    # the oracle's canonical pairs of the dense state: zero rewards, repeated
    # items, items 0 and n - 1 and horizon 0 included, and U rows advanced
    # together give each row's pairs advanced alone
    n = data.draw(st.integers(1, 30), label="n")
    horizon = data.draw(st.integers(0, 8), label="horizon")
    users = data.draw(st.integers(1, 4), label="users")
    items = st.lists(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)),
                     min_size=users, max_size=users)
    rewards = st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0, -1.5]),
                       min_size=users, max_size=users)
    start, put = state_kind(None, n, horizon)
    block, dense, alone = start[[0] * users], np.zeros((users, n)), [start] * users
    assert _bits(block) == _bits(raw_pairs(dense, horizon))
    # up to horizon puts in play, then the one a replay successor adds
    for _ in range(data.draw(st.integers(0, horizon + 1), label="steps")):
        step_items = np.array(data.draw(items, label="items"))
        step_rewards = np.array(data.draw(rewards, label="rewards"))
        block = put(block, step_items, step_rewards)
        dense = raw_update(dense, step_items, step_rewards)
        assert _bits(block) == _bits(raw_pairs(dense, horizon))
        alone = [put_pairs(row, step_items[[u]], step_rewards[[u]], n)
                 for u, row in enumerate(alone)]
        assert [_bits(row) for row in alone] == [_bits(block[[u]]) for u in range(users)]


def test_raw_rows_at_the_catalog_ends_and_over_the_horizon():
    mem = ReplayMemory(4, state_dim=5, n_actions=5, raw_horizon=2)
    over = qnet.Pairs(np.array([0, 2, 4]), np.array([1.0, 2.0, 3.0]))   # horizon + 1 pairs
    with pytest.raises(ValueError, match="3 pairs, over the horizon 2"):
        mem.push(over, 1, 4.0, None, False, np.ones(5, bool))
    assert len(mem) == 0
    # items 0 and n - 1 fill the row; a zero reward at item 2 needs no pair
    s = np.array([5.0, 0.0, 0.0, 0.0, 1.0])
    mem.push(raw_pairs(s, 2), 2, 0.0, None, True, np.ones(5, bool))
    assert mem.state()["s_items"].tolist() == [[0, 4]]
    batch = mem.sample(1, rng_for(0, "ends"))
    assert np.array_equal(batch.s.dense(5)[0], s) and np.array_equal(batch.s_next.dense(5)[0], s)


@pytest.fixture
def small_setup():
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=15, per_user=8, seed=4))
    split = Split(train_users=frozenset(range(8)), test_users=frozenset({8, 9}), seed=0)
    model = mf.pretrain(ds, split.train_users, d=4, reg=0.01, lr=0.02, epochs=10, seed=0)
    return ds, split, model


def test_train_cfrl_zero_episodes_returns_untouched_net(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=0, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=5)
    trainer = make_trainer(ds, split, model, cfg)
    logs = trainer.run()
    fresh = qnet.qnet_init((model.d, 8, ds.n), seed=5)
    np.testing.assert_array_equal(qnet.flatten_params(trainer.net), qnet.flatten_params(fresh))
    assert logs == []


def test_training_log_shape_and_sync_cadence(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(
        episodes=6, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II,
        sync_period=5, batch_size=4, seed=1,
    )
    logs = make_trainer(ds, split, model, cfg).run()
    assert len(logs) == 6
    assert [log.episode for log in logs] == list(range(6))
    # 24 train steps at L=5 -> floor(24/5) syncs, recorded cumulatively
    assert logs[-1].sync_count == (6 * 4) // 5
    for prev, cur in zip(logs, logs[1:]):
        assert cur.sync_count - prev.sync_count in (0, 1)
    assert all(log.epsilon == cfg.epsilon for log in logs)


def test_training_trace_has_no_repeats_within_episode(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=5, horizon=6, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=3)
    trace = []
    make_trainer(ds, split, model, cfg).run(trace=trace)
    by_episode = {}
    for ep, user, t, action, reward, done in trace:
        by_episode.setdefault(ep, []).append(action)
    assert len(by_episode) == 5
    for actions in by_episode.values():
        assert len(actions) == len(set(actions)) == 6


class _InOrder:
    """Stands in for the replay's sampling RNG: draws every row once, in slot order."""

    def choice(self, rows, size, replace):
        return np.arange(rows)[:size]


@pytest.mark.parametrize("raw_state", [False, True])
def test_trainer_and_greedy_policy_share_one_state(small_setup, raw_state):
    # the minibatch rows the trainer learns from are, bit for bit, what the
    # evaluated policy reads before and after each observe of the same steps:
    # its latent state, or its raw state as the pairs it acts on
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=3, horizon=5, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      epsilon=0.5, seed=4)
    trainer = make_trainer(ds, split, None if raw_state else model, cfg)
    trace = []
    trainer.run(trace=trace)
    batch = trainer.memory.sample(len(trace), _InOrder())
    policy = GreedyQPolicy(trainer.net, mf_model=model, raw_state=raw_state, horizon=cfg.horizon)

    def row(states, k):
        if not raw_state:
            return states[k].tobytes()
        return states.items[k].tobytes() + states.values[k].tobytes()

    assert len(trace) == 3 * 5
    for k, (_, user, t, action, reward, _) in enumerate(trace):
        if t == 0:
            policy.begin_episode([user])
            if raw_state:  # every episode starts from no pairs, all padding
                assert (policy.state.items == ds.n).all() and not policy.state.values.any()
            else:  # or from the zero vector
                assert not policy.state.any()
        assert batch.a[k] == action and batch.r[k] == reward
        assert row(batch.s, k) == row(policy.state, 0)
        policy.observe(np.array([action]), np.array([reward]))
        assert row(batch.s_next, k) == row(policy.state, 0)


def test_training_is_deterministic(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=4, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=9)
    first, second = make_trainer(ds, split, model, cfg), make_trainer(ds, split, model, cfg)
    logs1, logs2 = first.run(), second.run()
    assert qnet.flatten_params(first.net).tobytes() == qnet.flatten_params(second.net).tobytes()
    assert logs1 == logs2


def test_trainer_save_restore_continues_exactly(tmp_path, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=6, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=2)
    for mf_model in (model, None):  # the latent and the raw replay layout
        straight = make_trainer(ds, split, mf_model, cfg)
        straight.run()

        first = make_trainer(ds, split, mf_model, cfg)
        first.run(until_episode=3)
        path = tmp_path / "state.npz"
        first.save(path)
        resumed = make_trainer(ds, split, mf_model, cfg)
        resumed.restore(path)
        assert resumed.episode == 3
        resumed.run()

        assert (
            qnet.flatten_params(resumed.net).tobytes()
            == qnet.flatten_params(straight.net).tobytes()
        )
        assert resumed.logs == straight.logs
        assert resumed.train_steps == straight.train_steps


def test_failed_save_keeps_previous_state(tmp_path, monkeypatch, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=6, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=2)
    straight = make_trainer(ds, split, model, cfg)
    straight.run()

    first = make_trainer(ds, split, model, cfg)
    first.run(until_episode=3)
    path = tmp_path / "state.npz"
    first.save(path)
    first.run(until_episode=4)

    real_header = np.lib.format.write_array_header_1_0
    headers = []

    def crash_on_third_array(fh, header):
        headers.append(header)
        if len(headers) == 3:
            raise OSError("disk full")
        real_header(fh, header)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", crash_on_third_array)
    with pytest.raises(OSError, match="disk full"):
        first.save(path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]

    resumed = make_trainer(ds, split, model, cfg)
    resumed.restore(path)
    assert resumed.episode == 3
    resumed.run()
    assert (
        qnet.flatten_params(resumed.net).tobytes()
        == qnet.flatten_params(straight.net).tobytes()
    )
    assert resumed.logs == straight.logs


def _rewrite_state(src, dst, **changes):
    """Copy a trainer state archive with arrays replaced (None drops one)."""
    with np.load(src) as data:
        arrays = {key: data[key] for key in data.files}
    for key, value in changes.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)
    return dst


def test_restore_rejects_states_that_do_not_fit(tmp_path, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      batch_size=4, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    with np.load(good) as data:
        s, a, bits = data["replay_s"], data["replay_a"], data["replay_mask_bits"]
        net = data["net"]
    bad = tmp_path / "bad.npz"
    cases = [  # (changed arrays, None for the file cut 40 bytes short; message)
        (None, "not a zip"),
        ({"net": None}, "unreadable"),
        ({"replay_done": None}, "unreadable"),
        ({"net": net[:-1]}, "parameters"),
        ({"net": net.astype(np.float32)}, "parameters"),
        ({"replay_s": s[:, :-1]}, "'s'"),
        ({"replay_mask_bits": bits[:, :-1]}, "'mask_bits'"),
        ({"replay_a": a[:-1]}, "replay column"),
        ({"replay_a": a + ds.n}, "action outside"),
        ({"replay_next": np.array([1], dtype=np.int64)}, "next slot"),
        ({"meta": np.frombuffer(b"{not json", dtype=np.uint8)}, "unreadable"),
    ]
    for changes, message in cases:
        if changes is None:
            bad.write_bytes(good.read_bytes()[:-40])
        else:
            _rewrite_state(good, bad, **changes)
        fresh = make_trainer(ds, split, model, cfg)
        with pytest.raises(ValidationError, match=message):
            fresh.restore(bad)
    # a smaller replay capacity cannot hold the saved rows
    small = make_trainer(ds, split, model, replace(cfg, replay_capacity=len(a) - 1))
    with pytest.raises(ValidationError, match="capacity"):
        small.restore(good)
    wider = make_trainer(ds, split, model, replace(cfg, hidden_sizes=(9,)))
    with pytest.raises(ValidationError, match="parameters"):
        wider.restore(good)


def test_restore_rejects_malformed_raw_pairs(tmp_path, small_setup):
    ds, split, _ = small_setup
    n = ds.n
    # task1 pays a rating at every step, so every step adds a pair
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_I,
                      batch_size=4, seed=2)
    trainer = make_trainer(ds, split, None, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    with np.load(good) as data:
        items, rewards = data["replay_s_items"], data["replay_s_rewards"]
    assert items.shape == rewards.shape == (6, 3) and items.dtype == np.int32
    # the third step of the first episode starts from two pairs and one pad
    assert (items[2] < n).sum() == 2 and items[2, 2] == n and rewards[2, 2] == 0.0

    def changed(array, row, col, value):
        array = array.copy()
        array[row, col] = value
        return array

    dense = replay_rows(trainer.memory)
    bad = tmp_path / "bad.npz"
    cases = [
        ({"replay_s_items": changed(items, 2, 0, n + 1)}, f"item outside 0..{n}"),
        ({"replay_s_items": changed(items, 2, 0, -1)}, "item outside"),
        ({"replay_s_items": changed(items, 2, 1, items[2, 0])}, "repeats an item"),
        # the pairs' order sets the rounding: one form only, as push writes it
        ({"replay_s_items": changed(changed(items, 2, 0, items[2, 1]), 2, 1, items[2, 0]),
          "replay_s_rewards": changed(changed(rewards, 2, 0, rewards[2, 1]), 2, 1, rewards[2, 0])},
         "out of order"),
        ({"replay_s_items": changed(changed(items, 2, 1, n), 2, 2, items[2, 1]),
          "replay_s_rewards": changed(changed(rewards, 2, 1, 0.0), 2, 2, rewards[2, 1])},
         "after its padding"),
        ({"replay_s_rewards": changed(rewards, 2, 0, 0.0)}, "item with reward 0"),
        ({"replay_s_rewards": changed(rewards, 2, 2, 1.0)}, "padding"),
        ({"replay_s_items": np.pad(items, ((0, 0), (0, 1)), constant_values=n),
          "replay_s_rewards": np.pad(rewards, ((0, 0), (0, 1)))}, "'s_items'"),
        ({"replay_s_items": items.astype(np.int64)}, "'s_items'"),
        # a raw state saved before the replay kept (item, reward) pairs
        ({"replay_s_items": None, "replay_s_rewards": None,
          "replay_s": dense["s"], "replay_s_next": dense["s_next"]}, "replay format changed"),
    ]
    for changes, message in cases:
        _rewrite_state(good, bad, **changes)
        with pytest.raises(ValidationError, match=message) as err:
            make_trainer(ds, split, None, cfg).restore(bad)
        assert str(bad) in str(err.value)
    # the same pairs in another order are refused; the state as saved loads
    _rewrite_state(good, bad, replay_s_items=items[:, ::-1], replay_s_rewards=rewards[:, ::-1])
    with pytest.raises(ValidationError, match="after its padding"):
        make_trainer(ds, split, None, cfg).restore(bad)
    restored = make_trainer(ds, split, None, cfg)
    restored.restore(good)
    for key in ("s", "s_next"):
        np.testing.assert_array_equal(replay_rows(restored.memory)[key], dense[key])


def test_restore_of_a_full_ring_keeps_evicting_in_order(tmp_path, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=4, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      batch_size=4, replay_capacity=5, seed=2)
    straight = make_trainer(ds, split, model, cfg)
    straight.run()
    first = make_trainer(ds, split, model, cfg)
    first.run(until_episode=2)
    path = tmp_path / "state.npz"
    first.save(path)
    resumed = make_trainer(ds, split, model, cfg)
    resumed.restore(path)
    assert len(resumed.memory) == 5 and resumed.memory.state()["next"].tolist() == [1]
    resumed.run()
    for key, col in straight.memory.state().items():
        np.testing.assert_array_equal(resumed.memory.state()[key], col)
    assert (
        qnet.flatten_params(resumed.net).tobytes()
        == qnet.flatten_params(straight.net).tobytes()
    )



def test_restore_refuses_a_state_saved_by_a_different_run(tmp_path, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      batch_size=4, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    # only the episode count may change between a save and its resume
    longer = make_trainer(ds, split, model, replace(cfg, episodes=5))
    longer.restore(good)
    assert longer.episode == 2
    users, items, _ = ds.triples()
    ratings = ds.ratings.copy()
    ratings[0] = ratings[0] % 5 + 1
    other_ds = RatingDataset.from_arrays(ds.user_ids[users], ds.item_ids[items], ratings)
    other_split = replace(split, train_users=frozenset(range(7)))
    cases = [
        (make_trainer(ds, split, model, replace(cfg, gamma=0.5)), "gamma differ"),
        (make_trainer(ds, split, model, replace(cfg, sync_period=9)), "sync_period differ"),
        (make_trainer(other_ds, split, model, cfg), "dataset differ"),
        (make_trainer(ds, other_split, model, cfg), "train_users differ"),
    ]
    for fresh, message in cases:
        with pytest.raises(ValidationError, match=message):
            fresh.restore(good)
    # a state saved before the run record existed
    with np.load(good) as data:
        meta = json.loads(data["meta"].tobytes())
    del meta["run"]
    bad = _rewrite_state(good, tmp_path / "old.npz",
                         meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    with pytest.raises(ValidationError, match="no run record"):
        make_trainer(ds, split, model, cfg).restore(bad)

def test_target_staleness_never_exceeds_sync_period(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=5, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=7, batch_size=4, seed=6)
    trainer = make_trainer(ds, split, model, cfg)
    while trainer.episode < cfg.episodes:
        trainer.run(until_episode=trainer.episode + 1)
        assert trainer.target.staleness <= cfg.sync_period
    assert trainer.train_steps == 5 * 4


def test_eligible_train_users_filters_short_profiles():
    profiles = {0: {i: 3 for i in range(5)}, 1: {i: 3 for i in range(2)}}
    ds = make_dataset(profiles)
    assert eligible_train_users(ds, {0, 1}, TaskMode.TASK_I, horizon=4) == [0]
    assert eligible_train_users(ds, {0, 1}, TaskMode.TASK_II, horizon=4) == [0, 1]


def _greedy_rollout(net, ds, model, user, horizon):
    """(score, rewards, actions) of one frozen latent-state Q-network episode."""
    split = Split(train_users=frozenset(), test_users=frozenset({user}), seed=0)
    trace = []
    scores = evaluate_policy(GreedyQPolicy(net, mf_model=model), ds, split, TaskMode.TASK_II,
                             horizon, trace=trace)
    return float(scores[0]), [row[4] for row in trace], [row[3] for row in trace]


def test_run_episode_greedy_contracts(small_setup):
    ds, split, model = small_setup
    net = qnet.qnet_init((model.d, ds.n), seed=0)
    assert _greedy_rollout(net, ds, model, 8, 0) == (0.0, [], [])
    # all-zero network: every Q value ties at 0, so the rollout walks the
    # lowest available index at each step
    qnet.assign_params(net, np.zeros(net.param_count))
    score, rewards, actions = _greedy_rollout(net, ds, model, 8, 4)
    assert actions == [0, 1, 2, 3]
    expected = [float(profile(ds, 8).get(i, 0)) for i in range(4)]
    assert rewards == expected
    assert score == sum(expected) / 4
    assert _greedy_rollout(net, ds, model, 8, 4) == (score, rewards, actions)


def test_training_log_round_trip(tmp_path):
    logs = [
        EpisodeLog(episode=0, user=3, reward_sum=12.5, mean_td_loss=0.75, epsilon=0.1, sync_count=0),
        EpisodeLog(episode=1, user=5, reward_sum=9.0, mean_td_loss=0.5, epsilon=0.1, sync_count=1),
    ]
    path = tmp_path / "log.csv"
    write_training_log(path, logs)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{key: str(value) for key, value in vars(log).items()} for log in logs]


def test_planted_optimum_learned_by_cfrl():
    ds = make_dataset(planted_profiles())
    split = Split(train_users=frozenset({0, 1, 2, 3}), test_users=frozenset({4}), seed=0)
    model = mf.pretrain(ds, split.train_users, d=4, reg=0.01, lr=0.02, epochs=40, seed=1)
    cfg = TrainConfig(
        episodes=400, horizon=4, gamma=0.9, epsilon=0.3, q_lr=0.01,
        sync_period=100, batch_size=16, replay_capacity=5000,
        hidden_sizes=(16,), task=TaskMode.TASK_II, seed=0,
    )
    trainer = make_trainer(ds, split, model, cfg)
    logs = trainer.run()
    assert len(logs) == 400
    state = np.zeros(model.d)
    first_pick = int(np.argmax(qnet.forward(trainer.net, state)))
    assert first_pick == PLANTED_ITEM
    _, rewards, _ = _greedy_rollout(trainer.net, ds, model, 4, 4)
    assert rewards[0] == 5.0


def test_trainer_plays_one_user_at_a_time(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=1, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=0)
    trainer = make_trainer(ds, split, model, cfg)
    with pytest.raises(ValueError, match="one user at a time, not 2"):
        trainer.begin_episode([0, 1])
    trainer.begin_episode([0])
    assert trainer.state.shape == (1, model.d)


def test_tabular_oracle_convergence():
    env = ChainEnv(horizon=10)
    cfg = TrainConfig(
        episodes=1500, horizon=10, gamma=0.9, epsilon=0.6, q_lr=0.05,
        sync_period=25, batch_size=16, replay_capacity=5000,
        hidden_sizes=(), seed=0,
    )
    trainer = QTrainer(env, [0], start=np.zeros((1, 3)), update=update, cfg=cfg)
    trainer.run()
    q_star = value_iteration(0.9)
    for s in LIVE_STATES:
        learned = qnet.forward(trainer.net, encode(s))
        np.testing.assert_allclose(learned, q_star[s], atol=1e-2)
        assert int(np.argmax(learned)) == int(np.argmax(q_star[s]))
