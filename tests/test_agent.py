import csv
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import env as env_module
from cfrl import mf, qnet
from cfrl.agent import (
    EPISODE_COLUMNS,
    STEP_COLUMNS,
    QTrainer,
    ReplayMemory,
    TrainConfig,
    make_trainer,
    put_pairs,
    ring_steps,
    select_action,
    state_kind,
    write_trace,
    write_training_log,
)
from cfrl.baselines import GreedyQPolicy
from cfrl.dataset import RatingDataset, Split
from cfrl.env import InteractiveEnv, TaskMode
from cfrl.errors import ValidationError
from cfrl.mf import MfConfig
from cfrl.seeding import rng_for

from conftest import PLANTED_ITEM, make_dataset, planted_profiles, profile, synthetic_profiles
from oracles import Transition, raw_pairs, raw_update, replay_rows, td_target
from rollouts import traced_eval
from toy_mdp import ChainEnv, LIVE_STATES, encode, update, value_iteration


def _record(steps):
    """Empty columns of an episode record for `steps` steps and as many
    episodes, each episode ending past every step until _push writes its
    end; so a replay over it may read all its episodes (see _episodes)."""
    record = {key: np.empty(steps, dtype)
              for key, (_, dtype) in {**EPISODE_COLUMNS, **STEP_COLUMNS}.items()}
    record["end"][:] = np.iinfo(np.int64).max
    return record


def _episodes(mem):
    """The episode count to read a replay over a _record with: all of it."""
    return len(mem.record["end"])


def _env(n, horizon=1):
    """The full-catalog environment over n items of a dataset whose one
    user, user 0, rated them all; a replay's rows derive their successors'
    availability from it."""
    return InteractiveEnv(make_dataset({0: dict.fromkeys(range(n), 1)}), TaskMode.TASK_II, horizon)


def _read(mem, idx, episodes=None):
    """What sample reads for rows idx, each taken as stale, from a record of
    `episodes` episodes (default: _episodes): (states, actions, rewards,
    successors, the items taken through each row's step), and the rows'
    episodes."""
    idx = np.asarray(idx)
    steps, eps, _ = mem.locate(idx, episodes or _episodes(mem))
    return mem.rows(idx, steps, eps, np.arange(idx.size)), eps


def _rows(mem, idx, episodes=None):
    """The states, actions and rewards of rows idx, as sample reads them."""
    return _read(mem, idx, episodes)[0][:3]


def _successor_avail(mem, idx, episodes=None):
    """The availability at the successors of rows idx, from the items that
    sample hands the bootstrap, in the environment's dense form."""
    (*_, taken), eps = _read(mem, idx, episodes)
    return mem.env.available(mem.record["user"][eps], taken)


def _successors(mem, idx):
    """The successors of rows idx as sample derives them: a latent state
    advanced by the learner's update with the row's action and reward, a
    raw one read from the record."""
    return _read(mem, idx)[0][3]


def _sample(mem, batch, rng, target):
    """sample at gamma 0.9 over the whole of a _record."""
    return mem.sample(batch, rng, target, 0.9, _episodes(mem))


def _dense(capacity, n_actions, steps=64):
    """A memory of 2-wide dense states whose successor is the state plus 0.5,
    over a record of `steps` steps, in the full-catalog task over n_actions
    items with a horizon of 1."""
    return ReplayMemory(capacity, _env(n_actions), np.zeros((1, 2)), lambda s, a, r: s + 0.5,
                        _record(steps))


def _push(mem, s, episode, a, r, done):
    """Record the next step's action and reward, as the trainer does, as a
    step of user 0's episode `episode`, which ends with it for now, ended by
    the environment if `done`, and push it."""
    record, step = mem.record, mem.pushes
    record["user"][episode], record["end"][episode], record["done"][episode] = 0, step + 1, done
    record["item"][step], record["reward"][step] = a, r
    mem.push(s)


def _push_rows(mem, count, start=0):
    """Push one-step episodes whose reward is their push number, so a row
    names itself; its successor may take every item but its own."""
    for k in range(start, start + count):
        _push(mem, np.full(2, float(k)), k, k % mem.env.n, float(k), k % 2 == 0)


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
        mem = _dense(2, 4)
        _push_rows(mem, 3)
        assert len(mem) == 2
        # the third push overwrote slot 0, the oldest transition
        assert _rows(mem, [0, 1])[2].tolist() == [2.0, 1.0]
        _push_rows(mem, 1, start=3)
        assert _rows(mem, [0, 1])[2].tolist() == [2.0, 3.0]

    def test_sample_returns_the_pushed_rows(self):
        mem = _dense(10, 11)
        _push_rows(mem, 10)
        target = qnet.qnet_init([2, 5, 11], seed=3)
        batch = _sample(mem, 10, rng_for(0, "r"), target)
        k = batch.s[:, 0].astype(np.int64)
        assert sorted(k.tolist()) == list(range(10))
        np.testing.assert_array_equal(batch.s, np.repeat(k[:, None], 2, axis=1).astype(float))
        np.testing.assert_array_equal(batch.a, k % 11)
        np.testing.assert_array_equal(_successors(mem, k), batch.s + 0.5)
        # y is the pushed transition's target: r at the end of an episode,
        # else r plus the discounted max over the successor's available actions
        pushed = [Transition(np.full(2, float(j)), j % 11, float(j), np.full(2, j + 0.5),
                             j % 2 == 0, np.arange(11) != j % 11) for j in k]
        np.testing.assert_allclose(batch.y, [td_target(tr, target, 0.9) for tr in pushed],
                                   rtol=1e-12, atol=0)
        assert batch.y[k % 2 == 0].tolist() == k[k % 2 == 0].tolist()

    def test_sample_forced_duplicates_below_batch(self):
        mem = _dense(10, 4)
        _push_rows(mem, 1)
        assert mem.draw(4, rng_for(0, "r")).tolist() == [0] * 4

    def test_sample_without_replacement_at_capacity(self):
        mem = _dense(10, 4)
        _push_rows(mem, 6)
        assert sorted(mem.draw(6, rng_for(0, "r")).tolist()) == [0, 1, 2, 3, 4, 5]

    def test_sample_uniformity(self):
        mem = _dense(10, 4)
        _push_rows(mem, 10)
        rng = rng_for(1, "uniform")
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            counts[int(mem.draw(1, rng)[0])] += 1
        np.testing.assert_allclose(counts / draws, 0.1, atol=0.01)

    def test_sample_reproducible_and_empty_error(self):
        mem = _dense(5, 4)
        with pytest.raises(ValueError, match="empty"):
            mem.draw(1, rng_for(0, "x"))
        _push_rows(mem, 5)
        a = mem.draw(3, rng_for(7, "s")).tolist()
        b = mem.draw(3, rng_for(7, "s")).tolist()
        assert a == b

    def test_a_slot_push_overwrites_is_computed_again(self):
        # a full ring of two rows, both holding a fresh bootstrap value; the
        # push that overwrites slot 0 writes its row stale, so the next sample
        # computes the new row's value and keeps the other's; a target sync
        # expires both, and the sample after it computes both again under
        # the synced target
        mem = _dense(2, 3)
        target = qnet.qnet_init([2, 4, 3], seed=1)
        rows = [Transition(np.full(2, float(k)), k, 1.0 + k, np.full(2, k + 0.5), False,
                           np.arange(3) != k) for k in range(3)]
        for k, tr in enumerate(rows[:2]):
            _push(mem, tr.s, k, tr.a, tr.r, tr.done)
        assert mem.state()["fresh"].tolist() == [False, False]
        first = _sample(mem, 2, _InOrder(), target)
        assert mem.state()["fresh"].tolist() == [True, True]
        _push(mem, rows[2].s, 2, rows[2].a, rows[2].r, rows[2].done)
        assert mem.state()["fresh"].tolist() == [False, True]
        second = _sample(mem, 2, _InOrder(), target)
        assert mem.state()["fresh"].tolist() == [True, True]
        np.testing.assert_allclose(second.y, [td_target(rows[2], target, 0.9),
                                              td_target(rows[1], target, 0.9)], rtol=1e-12)
        assert second.y[1] == first.y[1] and second.y[0] != first.y[0]
        synced = qnet.qnet_init([2, 4, 3], seed=2)
        mem.expire_values()
        assert mem.state()["fresh"].tolist() == [False, False]
        third = _sample(mem, 2, _InOrder(), synced)
        assert mem.state()["fresh"].tolist() == [True, True]
        np.testing.assert_allclose(third.y, [td_target(rows[2], synced, 0.9),
                                             td_target(rows[1], synced, 0.9)], rtol=1e-12)
        assert (third.y != second.y).all()

    def test_stress_size_never_exceeds_capacity(self):
        # the record has room for every push, as a trainer's does; its steps
        # are never written, so their memory is never committed
        mem = _dense(1000, 4, steps=1_000_000)
        s = np.zeros(2)
        for k in range(1_000_000):
            mem.push(s)
            if k % 100_000 == 0:
                assert len(mem) <= 1000
        assert len(mem) == 1000
        assert all(col.shape[0] == 1000 for col in mem.state().values())

    def test_memory_is_sized_by_its_record_not_its_capacity(self):
        # raw-state rows at the default capacity of 100,000 and horizon of 40:
        # a cached bootstrap value, with the record giving the episode, the
        # state's (item, reward) pairs and the successor's availability, in
        # place of two
        # 1,586-wide float64 states and a mask; a record of 10,000 steps
        # gives the replay 10,000 rows (a row is small enough now that at
        # 1,000 the memory's fixed 5.5 KB would pass for rows)
        n, cfg, steps = 1586, TrainConfig(episodes=1), 10_000
        rng = np.random.default_rng(0)
        episodes = steps // cfg.horizon
        items = np.concatenate([rng.choice(n, cfg.horizon, replace=False)
                                for _ in range(episodes)])
        rewards = rng.integers(1, 6, steps).astype(float)
        record, env = _record(steps), _env(n, cfg.horizon)
        tracemalloc.start()
        try:
            mem = ReplayMemory(cfg.replay_capacity, env, *state_kind(None, n, cfg.horizon), record)
            for k in range(steps):
                _push(mem, None, k // cfg.horizon, items[k], rewards[k], False)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_bytes = sum(col[0].nbytes for col in mem.state().values())
        # bootstrap value and its fresh flag
        assert row_bytes == 8 + 1 == 9
        assert held <= 1.1 * steps * row_bytes
        # the successor of the last step of the second episode may take
        # every item but the episode's 40
        assert np.flatnonzero(~_successor_avail(mem, [79])[0]).tolist() == sorted(items[40:80])
        # which starts from the 39 before it
        s = np.zeros(n)
        s[items[40:79]] = rewards[40:79]
        np.testing.assert_array_equal(_rows(mem, [79])[0].dense(n)[0], s)

    @pytest.mark.parametrize("latent", [False, True])
    def test_filling_to_capacity_peaks_at_what_it_holds(self, latent):
        # 50,000 rows over a 50,000-step record at n = 1,586 and T = 40, raw
        # or latent (d = 16): the columns are allocated once, so no step of
        # the fill holds a second copy of them (1% of the fill, at 9 bytes a
        # raw row, is 4.5 KB)
        n, d, horizon, rows = 1586, 16, 40, 50_000
        rng = np.random.default_rng(0)
        model = mf.MfModel(U=np.zeros((d, 1)), V=rng.normal(size=(d, n)), d=d, reg=0.01, lr=0.02)
        items = np.concatenate([rng.choice(n, horizon, replace=False)
                                for _ in range(rows // horizon)])
        s, record, env = rng.normal(size=d), _record(rows), _env(n, horizon)
        tracemalloc.start()
        try:
            mem = ReplayMemory(rows, env, *state_kind(model if latent else None, n, horizon),
                               record)
            for k in range(rows):
                _push(mem, s, k // horizon, items[k], 1.0 + k % 5, False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mem) == rows
        assert peak <= 1.01 * held

    def test_latent_rows_keep_no_successor(self):
        # latent rows at d = 16 and n = 1,586: the state, and no successor,
        # which sample derives with the learner's online MF step
        d, n = 16, 1586
        rng = np.random.default_rng(0)
        model = mf.MfModel(U=np.zeros((d, 1)), V=rng.normal(size=(d, n)), d=d, reg=0.01, lr=0.02)
        start, update = state_kind(model, n, 40)
        mem = ReplayMemory(TrainConfig(episodes=1).replay_capacity, _env(n, 40), start, update,
                           _record(100))
        s = rng.normal(size=d)
        for k in range(100):
            _push(mem, s + k, k // 40, k, 1.0 + k % 5, False)
        row_bytes = sum(col[0].nbytes for col in mem.state().values())
        # state, bootstrap value and its fresh flag; the episode, the
        # terminal flag, the action, the reward and the successor's
        # availability come from the record
        assert row_bytes == d * 8 + 8 + 1 == 137
        assert sorted(mem.state()) == ["fresh", "next_value", "s"]
        rows = np.arange(100)
        expected = mf.online_update(model, s + rows[:, None], rows, 1.0 + rows % 5)
        assert _successors(mem, rows).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_raw_rows_rebuild_exactly(data):
    # every state a raw learner can hold, read from the record: at most T
    # steps of an episode, distinct items at both ends of the catalogue,
    # rewards of 0 among them, in a ring that may have wrapped
    n = data.draw(st.integers(1, 40), label="n")
    horizon = data.draw(st.integers(1, n), label="horizon")
    capacity = data.draw(st.integers(1, 8), label="capacity")
    lengths = data.draw(st.lists(st.integers(0, horizon), min_size=1, max_size=4), label="lengths")
    # the record holds room for an episode's horizon of steps from its start;
    # an episode of no steps leaves no trace in it
    mem = ReplayMemory(capacity, _env(n, horizon), *state_kind(None, n, horizon),
                       _record(sum(lengths) + horizon))
    states, nexts, played = [], [], []
    for episode, length in enumerate(length for length in lengths if length):
        items = data.draw(st.lists(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)),
                                   unique=True, min_size=length, max_size=length))
        rewards = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0]),
                                     min_size=length, max_size=length))
        dense = np.zeros((1, n))
        for t, (item, reward) in enumerate(zip(items, rewards)):
            states.append(dense)
            played.append([(i, r) if r != 0 else (n, 0.0) for i, r in zip(items[:t], rewards[:t])])
            dense = raw_update(dense, np.array([item]), np.array([reward]))
            nexts.append(dense)
            # the environment ends an episode at its horizon
            _push(mem, None, episode, item, reward, t == horizon - 1)
    if not len(mem):
        return
    k = np.arange(len(mem))
    steps = np.array([max(s for s in range(mem.pushes) if s % capacity == j) for j in k])
    s, a, r = _rows(mem, k)
    s_next = mem.update(s, a, r)
    dense, dense_next = np.concatenate(states)[steps], np.concatenate(nexts)[steps]
    assert s.items.shape == s_next.items.shape == (len(k), horizon)
    assert np.array_equal(s.dense(n), dense) and np.array_equal(s_next.dense(n), dense_next)
    assert a.dtype == np.int64
    assert np.array_equal(a, mem.record["item"][steps])
    assert np.array_equal(r, mem.record["reward"][steps])
    # a state holds its episode's steps in play order, each step with a
    # reward of 0 and each after them as padding
    for row, step in zip(range(len(k)), steps):
        pairs = played[step]
        assert list(zip(s.items[row].tolist(), s.values[row].tolist())) == [
            *pairs, *[(n, 0.0)] * (horizon - len(pairs))]
    # which reads as the same Columns as the canonical state that acting
    # holds, and put_pairs advances to the canonical successor, as it
    # advances the canonical state, bit for bit
    canonical = raw_pairs(dense, horizon)
    for got, want in ((s.columns(n), canonical.columns(n)),
                      (s_next.columns(n), raw_pairs(dense_next, horizon).columns(n))):
        assert got.cols.tobytes() == want.cols.tobytes() and got.x.tobytes() == want.x.tobytes()
    assert _same_pairs(s_next, raw_pairs(dense_next, horizon - 1))
    assert _same_pairs(put_pairs(canonical, a, r, n)[:, :horizon], s_next)
    # the successor that sample reads from the record, each row's window
    # through its own step, reads as put_pairs' successor's Columns
    window = _successors(mem, k)
    got, want = window.columns(n), s_next.columns(n)
    assert got.cols.tobytes() == want.cols.tobytes() and got.x.tobytes() == want.x.tobytes()
    # a sampled batch holds these states and the record's actions
    batch = _sample(mem, len(k), _InOrder(), qnet.qnet_init([n, 3, n], seed=0))
    assert _same_pairs(batch.s, s) and np.array_equal(batch.a, a)


def _same_pairs(got, want):
    """Two Pairs blocks hold the same items and, bit for bit, the same values."""
    return (np.array_equal(got.items, want.items)
            and got.values.dtype == want.values.dtype
            and got.values.tobytes() == want.values.tobytes())


def _bits(pairs):
    """A Pairs block's dtypes and bytes: equal only if bit for bit the same."""
    return (pairs.items.dtype, pairs.items.tobytes(), pairs.values.dtype, pairs.values.tobytes())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_put_pairs_is_the_dense_raw_state_bit_for_bit(data):
    # from the all-padding start, putting any (item, reward) sequence of
    # distinct items, as an episode takes them, gives the oracle's canonical
    # pairs of the dense state: zero rewards, items 0 and n - 1 and horizon 0
    # included, and U rows advanced together give each row's pairs advanced
    # alone
    n = data.draw(st.integers(1, 30), label="n")
    horizon = data.draw(st.integers(0, 8), label="horizon")
    users = data.draw(st.integers(1, 4), label="users")
    # up to horizon puts in play, then the one a replay successor adds
    steps = data.draw(st.integers(0, min(horizon + 1, n)), label="steps")
    taken = np.array([data.draw(st.lists(st.one_of(st.sampled_from([0, n - 1]),
                                                   st.integers(0, n - 1)),
                                         unique=True, min_size=steps, max_size=steps),
                                label="items") for _ in range(users)], dtype=np.int64)
    rewards = st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0, -1.5]),
                       min_size=users, max_size=users)
    start, put = state_kind(None, n, horizon)
    block, dense, alone = start[[0] * users], np.zeros((users, n)), [start] * users
    assert _bits(block) == _bits(raw_pairs(dense, horizon))
    for step in range(steps):
        step_items = taken[:, step]
        step_rewards = np.array(data.draw(rewards, label="rewards"))
        block = put(block, step_items, step_rewards)
        dense = raw_update(dense, step_items, step_rewards)
        assert _bits(block) == _bits(raw_pairs(dense, horizon))
        alone = [put_pairs(row, step_items[[u]], step_rewards[[u]], n)
                 for u, row in enumerate(alone)]
        assert [_bits(row) for row in alone] == [_bits(block[[u]]) for u in range(users)]


def test_raw_rows_at_the_catalog_ends_and_over_the_horizon():
    # a raw start narrower than the environment's horizon cannot hold its states
    with pytest.raises(ValueError, match="3 pairs does not fit the environment's horizon of 3"):
        QTrainer(ChainEnv(horizon=3), [0], *state_kind(None, 3, 2),
                 TrainConfig(episodes=1, horizon=3, hidden_sizes=(4,)))
    mem = ReplayMemory(4, _env(5, 2), *state_kind(None, 5, 2), _record(4))
    # items 0 and n - 1 fill the successor; a zero reward at item 2 needs no pair
    for t, (item, reward) in enumerate([(0, 5.0), (4, 1.0)]):
        _push(mem, None, 0, item, reward, t == 1)
    _push(mem, None, 1, 2, 0.0, False)
    assert _rows(mem, [1])[0].items.tolist() == [[0, 5]]
    assert _successors(mem, [1]).items.tolist() == [[0, 4]]
    assert np.array_equal(_successors(mem, [1]).dense(5)[0], [5.0, 0.0, 0.0, 0.0, 1.0])
    assert not _rows(mem, [2])[0].dense(5).any() and not _successors(mem, [2]).dense(5).any()


def test_a_raw_replay_reads_its_successors_and_never_advances_a_state(small_setup):
    # a stale raw row's successor is its episode's window through its own
    # step, read from the record: training runs, and gives the same network,
    # with the replay's state update refused
    ds, split, _ = small_setup
    cfg = TrainConfig(episodes=6, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      batch_size=4, replay_capacity=8, seed=3)
    straight = make_trainer(ds, split, None, cfg)
    straight.run()
    trainer = make_trainer(ds, split, None, cfg)

    def refused(*args):
        raise AssertionError("the replay advanced a raw state")

    trainer.memory.update = refused
    trainer.run()
    assert qnet.flatten_params(trainer.net).tobytes() == qnet.flatten_params(straight.net).tobytes()


@pytest.fixture
def small_setup():
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=15, per_user=8, seed=4))
    split = Split(train_users=frozenset(range(8)), test_users=frozenset({8, 9}))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=4, reg=0.01, lr=0.02, epochs=10),
                        seed=0)
    return ds, split, model


def test_train_cfrl_zero_episodes_returns_untouched_net(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=0, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=5)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    fresh = qnet.qnet_init((model.d, 8, ds.n), seed=5)
    np.testing.assert_array_equal(qnet.flatten_params(trainer.net), qnet.flatten_params(fresh))
    assert list(trainer.episodes()) == [] and trainer.train_steps == 0


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _trace(trainer) -> list:
    """The trainer's recorded steps as (episode, user, t, item, reward) rows."""
    return [(episode, user, t, item, reward)
            for episode, user, _, _, items, rewards in trainer.episodes()
            for t, (item, reward) in enumerate(zip(items, rewards))]


def test_training_log_shape_and_sync_cadence(tmp_path, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(
        episodes=6, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II,
        sync_period=5, batch_size=4, seed=1,
    )
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    write_training_log(tmp_path / "log.csv", trainer)
    logs = _read_csv(tmp_path / "log.csv")
    assert len(logs) == 6
    assert [int(log["episode"]) for log in logs] == list(range(6))
    # 24 train steps at L=5 -> floor(24/5) syncs, recorded cumulatively
    assert int(logs[-1]["sync_count"]) == (6 * 4) // 5 == trainer.train_steps // cfg.sync_period
    for prev, cur in zip(logs, logs[1:]):
        assert int(cur["sync_count"]) - int(prev["sync_count"]) in (0, 1)
    assert all(float(log["epsilon"]) == cfg.epsilon for log in logs)


def test_training_trace_has_no_repeats_within_episode(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=5, horizon=6, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=3)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    by_episode = {}
    for ep, user, t, action, reward in _trace(trainer):
        by_episode.setdefault(ep, []).append(action)
    assert len(by_episode) == 5
    for actions in by_episode.values():
        assert len(actions) == len(set(actions)) == 6


class _InOrder:
    """Stands in for the replay's sampling RNG: draws every row once, in slot order."""

    def choice(self, rows, size, replace):
        return np.arange(rows)[:size]


@pytest.mark.parametrize("task", list(TaskMode))
@pytest.mark.parametrize("raw_state", [False, True])
def test_replay_derives_the_availability_that_play_had(small_setup, monkeypatch, task,
                                                        raw_state):
    # the environment's avail after each step of a run, as play held it, is
    # bit for bit the availability the replay derives for the successor of
    # that step's row, from the row's user and its episode's items; the ring
    # has wrapped, so its rows hold the record's last steps out of order
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=7, horizon=3, hidden_sizes=(8,), task=task, batch_size=4,
                      replay_capacity=8, epsilon=0.5, seed=3)
    trainer = make_trainer(ds, split, None if raw_state else model, cfg)
    step, played = trainer.env.step, []

    def recording_step(state, actions):
        rewards, state, done = step(state, actions)
        played.append(state.avail[0].copy())
        return rewards, state, done

    monkeypatch.setattr(trainer.env, "step", recording_step)
    trainer.run()
    memory = trainer.memory
    assert memory.pushes == len(played) == 21 and len(memory) == 8
    slots = np.arange(len(memory))
    steps = ring_steps(slots, memory.pushes, memory.capacity)
    derived, expected = _successor_avail(memory, slots), np.array(played)[steps]
    assert derived.dtype == expected.dtype == bool
    assert derived.shape == expected.shape and derived.tobytes() == expected.tobytes()
    # task1's catalog is the user's rated items; task2's is every item
    assert (expected.sum(axis=1) < ds.n - cfg.horizon).all() == (task is TaskMode.TASK_I)


@pytest.mark.parametrize("learner", ["cfrl-task1", "cfrl-task2", "dqn-task1", "dqn-task2", "chain"])
def test_derived_episodes_and_terminal_flags_are_the_played_ones(small_setup, monkeypatch,
                                                                  learner):
    # every sampled row's episode, and whether it is terminal (the step at
    # which the environment's step returned done), derived from the record,
    # are what play had: the ring has wrapped, the toy chain's episodes end
    # before its horizon, and a terminal row is sampled in the same observe
    # that pushed it
    if learner == "chain":
        cfg = TrainConfig(episodes=40, horizon=10, hidden_sizes=(), batch_size=4,
                          replay_capacity=7, epsilon=0.6, seed=0)
        trainer = QTrainer(ChainEnv(horizon=10), [0], start=np.zeros((1, 3)), update=update,
                           cfg=cfg)
    else:
        ds, split, model = small_setup
        method, task = learner.split("-")
        cfg = TrainConfig(episodes=12, horizon=3, hidden_sizes=(8,), task=TaskMode(task),
                          batch_size=4, replay_capacity=7, epsilon=0.5, seed=3)
        trainer = make_trainer(ds, split, model if method == "cfrl" else None, cfg)
    step, locate, played, seen = trainer.env.step, ReplayMemory.locate, [], []

    def recording_step(state, actions):
        rewards, state, done = step(state, actions)
        played.append((trainer.episode, done))
        return rewards, state, done

    def recording_locate(memory, idx, episodes):
        found = locate(memory, idx, episodes)
        seen.append((memory.pushes, found))
        return found

    monkeypatch.setattr(trainer.env, "step", recording_step)
    monkeypatch.setattr(ReplayMemory, "locate", recording_locate)
    trainer.run()
    assert len(seen) == len(played) == trainer.train_steps > 2 * cfg.replay_capacity
    episode, done = (np.array(col) for col in zip(*played))
    assert done.any() and (learner != "chain" or len(played) < cfg.episodes * cfg.horizon)
    just_pushed = 0
    for pushes, (steps, eps, terminal) in seen:
        assert (steps < pushes).all()
        assert eps.tolist() == episode[steps].tolist()
        assert terminal.dtype == bool and terminal.tolist() == done[steps].tolist()
        just_pushed += (terminal & (steps == pushes - 1)).sum()
    assert just_pushed > 0


def test_an_episode_cut_at_the_horizon_bootstraps_from_the_target(monkeypatch):
    # the toy chain at a horizon of 1: from the start, actions 0 and 2 lead
    # on to state 1, so the horizon cuts the episode and its done is False,
    # and its one row bootstraps from the target; action 1 ends it, and that
    # row's target is its reward alone
    cfg = TrainConfig(episodes=30, horizon=1, gamma=0.9, epsilon=1.0, hidden_sizes=(),
                      batch_size=4, replay_capacity=50, seed=0)
    trainer = QTrainer(ChainEnv(horizon=1), [0], start=np.zeros((1, 3)), update=update, cfg=cfg)
    draw, train_step, steps = ReplayMemory.draw, qnet.train_step, []

    def recording_draw(memory, batch, rng):
        steps.append({"idx": draw(memory, batch, rng)})
        return steps[-1]["idx"]

    def recording_train_step(net, batch, lr):
        steps[-1].update(y=batch.y.copy(), target=trainer.target.copy())
        return train_step(net, batch, lr)

    monkeypatch.setattr(ReplayMemory, "draw", recording_draw)
    monkeypatch.setattr(qnet, "train_step", recording_train_step)
    trainer.run()
    record = trainer.record
    items, rewards, done = record["item"][:30], record["reward"][:30], record["done"][:30]
    assert record["end"][:30].tolist() == list(range(1, 31))
    assert done.tolist() == (items == 1).tolist() and 0 < done.sum() < 30
    rows = [Transition(np.zeros(3), int(item), float(reward), encode(1), bool(ended),
                       np.ones(3, bool)) for item, reward, ended in zip(items, rewards, done)]
    cut = 0
    for step in steps:
        # the ring never wraps: slot k holds step k
        np.testing.assert_allclose(step["y"], [td_target(rows[k], step["target"], cfg.gamma)
                                               for k in step["idx"]], rtol=1e-12, atol=0)
        ended = done[step["idx"]]
        assert step["y"][ended].tolist() == rewards[step["idx"]][ended].tolist()
        cut += (~ended).sum()
    assert cut > 0


@pytest.mark.parametrize("raw_state", [False, True])
def test_fresh_flags_clear_at_each_sync_and_nowhere_else(small_setup, monkeypatch, raw_state):
    # between syncs a row's fresh flag is only set, by the sample that
    # computes its value, or written False by the push that overwrites its
    # slot; a sync clears every flag; every sampled row that is not terminal
    # is fresh after its sample
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=8, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=5, batch_size=3, replay_capacity=7, epsilon=0.5, seed=2)
    trainer = make_trainer(ds, split, None if raw_state else model, cfg)
    memory, sync_target, draw = trainer.memory, qnet.sync_target, ReplayMemory.draw
    observe, syncs, draws = trainer.observe, [], []
    cleared = 0

    def recording_sync(net, target):
        syncs.append(trainer.train_steps)
        sync_target(net, target)

    def recording_draw(memory, batch, rng):
        draws.append(draw(memory, batch, rng))
        return draws[-1]

    def checking_observe(items, rewards, done=False):
        nonlocal cleared
        kept = np.zeros(min(memory.pushes + 1, memory.capacity), bool)
        kept[: len(memory)] = memory.state()["fresh"]
        kept[memory.pushes % memory.capacity] = False
        synced = len(syncs)
        observe(items, rewards, done)
        fresh = memory.state()["fresh"]
        if len(syncs) > synced:
            assert not fresh.any()
            cleared += kept.sum()
            return
        drawn = np.zeros(len(fresh), bool)
        drawn[draws[-1]] = True
        terminal = np.zeros(len(fresh), bool)
        terminal[draws[-1]] = memory.locate(draws[-1], trainer.episode + 1)[2]
        assert not (kept & ~fresh).any()
        assert not (fresh & ~kept & ~drawn).any()
        assert (fresh | ~drawn | terminal).all()

    monkeypatch.setattr(qnet, "sync_target", recording_sync)
    monkeypatch.setattr(ReplayMemory, "draw", recording_draw)
    monkeypatch.setattr(trainer, "observe", checking_observe)
    trainer.run()
    assert syncs == [5, 10, 15, 20] and cleared > 0


_RUN_SPLIT = Split(train_users=frozenset(range(8)), test_users=frozenset({8, 9}))


@settings(max_examples=40, deadline=None)
@given(task=st.sampled_from(list(TaskMode)), horizon=st.integers(0, 4),
       episodes=st.integers(0, 6), raw_state=st.booleans(), seed=st.integers(0, 1000),
       block=st.integers(1, 4))
def test_check_episodes_accepts_every_record_a_run_writes(task, horizon, episodes, raw_state,
                                                          seed, block):
    # whatever the run, its record replays through the environment, in
    # blocks of any size
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=15, per_user=8, seed=4))
    model = mf.MfModel(U=np.zeros((4, ds.m)), V=np.random.default_rng(seed).normal(size=(4, ds.n)),
                       d=4, reg=0.01, lr=0.02)
    cfg = TrainConfig(episodes=episodes, horizon=horizon, hidden_sizes=(4,), task=task,
                      batch_size=3, replay_capacity=5, epsilon=0.5, seed=seed)
    trainer = make_trainer(ds, _RUN_SPLIT, None if raw_state else model, cfg)
    trainer.run()
    record, steps = trainer.record, trainer.train_steps
    assert steps == episodes * horizon
    with mock.patch.object(env_module, "_CHECK_BLOCK", block):
        trainer.env.check_episodes(record["user"][:episodes], record["end"][:episodes],
                                   record["item"][:steps], record["reward"][:steps],
                                   record["done"][:episodes])


@pytest.mark.parametrize("raw_state", [False, True])
def test_trainer_and_greedy_policy_share_one_state(small_setup, raw_state):
    # the minibatch rows the trainer learns from are, bit for bit, what the
    # evaluated policy reads before and after each observe of the same steps:
    # its latent state, or its raw state as the pairs it acts on
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=3, horizon=5, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      epsilon=0.5, seed=4)
    trainer = make_trainer(ds, split, None if raw_state else model, cfg)
    trainer.run()
    trace = _trace(trainer)
    rows = np.arange(len(trace))
    s, a, r = _rows(trainer.memory, rows, trainer.episode)
    s_next = trainer.memory.update(s, a, r)
    policy = GreedyQPolicy(trainer.net,
                           *state_kind(None if raw_state else model, ds.n, cfg.horizon))

    def row(states, k):
        # a raw state's pairs, in any order, as the Columns training reads
        if not raw_state:
            return states[k].tobytes()
        columns = states[[k]].columns(ds.n)
        return columns.cols.tobytes() + columns.x.tobytes()

    assert len(trace) == 3 * 5
    for k, (_, user, t, action, reward) in enumerate(trace):
        if t == 0:
            policy.begin_episode([user])
            if raw_state:  # every episode starts from no pairs, all padding
                assert (policy.state.items == ds.n).all() and not policy.state.values.any()
            else:  # or from the zero vector
                assert not policy.state.any()
        assert a[k] == action and r[k] == reward
        assert row(s, k) == row(policy.state, 0)
        policy.observe(np.array([action]), np.array([reward]))
        assert row(s_next, k) == row(policy.state, 0)


@pytest.mark.parametrize("raw_state", [False, True])
def test_every_trained_target_is_the_td_target_under_the_current_target(
        small_setup, monkeypatch, raw_state):
    # each y that train_step receives is r + gamma * max over the successor's
    # available actions of the target as it is at that step, whether the
    # replay computed the value at this step or kept it from an earlier one
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=8, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=4, batch_size=6, replay_capacity=20, epsilon=0.5, seed=7)
    trainer = make_trainer(ds, split, None if raw_state else model, cfg)
    draw, train_step = ReplayMemory.draw, qnet.train_step
    steps = []

    def recording_draw(memory, batch, rng):
        idx = draw(memory, batch, rng)
        # the episode in play is in the record
        rows = {key: col.copy() for key, col in replay_rows(memory, trainer.episode + 1).items()}
        steps.append({"idx": idx, "rows": rows})
        return idx

    def recording_train_step(net, batch, lr):
        steps[-1].update(y=batch.y.copy(), target=trainer.target.copy())
        return train_step(net, batch, lr)

    monkeypatch.setattr(ReplayMemory, "draw", recording_draw)
    monkeypatch.setattr(qnet, "train_step", recording_train_step)
    trainer.run()
    assert len(steps) == 8 * 4 and trainer.train_steps // cfg.sync_period == 8
    served = recomputed = 0
    sampled = set()     # the record steps sampled so far
    for step in steps:
        rows, idx = step["rows"], step["idx"]
        expected = [td_target(Transition(rows["s"][k], rows["a"][k], rows["r"][k], rows["s_next"][k],
                                         rows["terminal"][k], rows["mask_next"][k]),
                              step["target"], cfg.gamma) for k in idx]
        np.testing.assert_allclose(step["y"], expected, rtol=1e-12, atol=0)
        live, fresh = ~rows["terminal"][idx], rows["fresh"][idx]
        served += (live & fresh).sum()
        recomputed += (live & ~fresh & np.isin(rows["step"][idx], list(sampled))).sum()
        sampled.update(rows["step"][idx].tolist())
    # values kept within a sync period, and values computed before a sync and
    # computed again after it, are both among the checked rows
    assert served > 0 and recomputed > 0


def test_training_is_deterministic(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=4, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=9)
    first, second = make_trainer(ds, split, model, cfg), make_trainer(ds, split, model, cfg)
    first.run()
    second.run()
    assert qnet.flatten_params(first.net).tobytes() == qnet.flatten_params(second.net).tobytes()
    assert list(first.episodes()) == list(second.episodes())


def test_trainer_save_restore_continues_exactly(tmp_path, small_setup):
    ds, split, model = small_setup
    # 9 steps to the save: two syncs, then one step of the third period, so
    # the saved replay holds bootstrap values that the resumed run reuses
    cfg = TrainConfig(episodes=6, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=4, seed=2)
    for mf_model in (model, None):  # the latent and the raw replay layout
        straight = make_trainer(ds, split, mf_model, cfg)
        straight.run()

        first = make_trainer(ds, split, mf_model, cfg)
        first.run(until_episode=3)
        assert first.train_steps == 9
        assert first.memory.state()["fresh"].any()
        path = tmp_path / "state.npz"
        first.save(path)
        resumed = make_trainer(ds, split, mf_model, cfg)
        resumed.restore(path)
        assert resumed.episode == 3
        for key, col in first.memory.state().items():
            assert resumed.memory.state()[key].tobytes() == col.tobytes()
        resumed.run()

        assert (
            qnet.flatten_params(resumed.net).tobytes()
            == qnet.flatten_params(straight.net).tobytes()
        )
        assert list(resumed.episodes()) == list(straight.episodes())
        assert resumed.train_steps == straight.train_steps
        for key, col in straight.memory.state().items():
            assert resumed.memory.state()[key].tobytes() == col.tobytes()


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
    assert list(resumed.episodes()) == list(straight.episodes())


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
        replay = {key: data[key] for key in data.files if key.startswith("replay_")}
        s, fresh = replay["replay_s"], replay["replay_fresh"]
        net = data["net"]
    assert len(fresh) == 6
    bad = tmp_path / "bad.npz"
    cases = [  # (changed arrays, None for the file cut 40 bytes short; message)
        (None, "not a zip"),
        ({"net": None}, "unreadable"),
        ({"replay_fresh": None}, "unreadable"),
        ({"net": net[:-1]}, "parameters"),
        ({"net": net.astype(np.float32)}, "parameters"),
        ({"replay_s": s[:, :-1]}, "'s'"),
        ({"replay_fresh": fresh[:, None]}, "'fresh'"),
        ({"replay_fresh": fresh[:-1]}, "replay column"),
        # every column one row short: not the record's 6 steps
        ({key: col[:-1] for key, col in replay.items()}, "5 rows, not the record's 6 steps"),
        ({"meta": np.frombuffer(b"{not json", dtype=np.uint8)}, "unreadable"),
    ]
    for changes, message in cases:
        if changes is None:
            bad.write_bytes(good.read_bytes()[:-40])
        else:
            _rewrite_state(good, bad, **changes)
        with pytest.raises(ValidationError, match=message):
            make_trainer(ds, split, model, cfg).restore(bad)
    # a smaller replay capacity cannot hold the saved rows
    small = make_trainer(ds, split, model, replace(cfg, replay_capacity=len(fresh) - 1))
    with pytest.raises(ValidationError, match="capacity"):
        small.restore(good)
    wider = make_trainer(ds, split, model, replace(cfg, hidden_sizes=(9,)))
    with pytest.raises(ValidationError, match="parameters"):
        wider.restore(good)


def _with(array, row, value):
    array = array.copy()
    array[row] = value
    return array


@pytest.mark.parametrize("raw_state", [False, True])
@pytest.mark.parametrize("case", [
    # (changed arrays, given the saved fresh flags and bootstrap values; the
    # message)
    (lambda fresh, values: {"replay_fresh": fresh.astype(np.uint8)}, "'fresh'"),
    (lambda fresh, values: {"replay_next_value": values[:, None]}, "'next_value'"),
    (lambda fresh, values: {"replay_next_value": values.astype(np.float32)}, "'next_value'"),
    (lambda fresh, values: {"replay_next_value": _with(values, np.flatnonzero(fresh)[0], np.nan)},
     "not finite on a fresh row"),
    # load does not know which rows are terminal: a fresh flag on one, row 2
    # (the first episode's last step), is checked like any other
    (lambda fresh, values: {"replay_fresh": _with(fresh, 2, True),
                            "replay_next_value": _with(values, 2, np.inf)},
     "not finite on a fresh row"),
    # a state saved before the replay kept its rows' bootstrap values; it
    # held each row's action and reward, as every earlier layout did
    (lambda fresh, values: {"replay_fresh": None, "replay_next_value": None,
                            "replay_a": np.zeros(len(fresh), np.int64),
                            "replay_r": np.zeros(len(fresh))},
     "replay format changed.*train afresh"),
    # the layout before the record said whether the environment ended an
    # episode: each row kept its episode, its terminal flag and the sync
    # count its value was computed under
    (lambda fresh, values: {"replay_fresh": None, "record_done": None,
                            "replay_episode": np.repeat(np.arange(3, dtype=np.int32), 3),
                            "replay_done": np.arange(9) % 3 == 2,
                            "replay_stamp": np.where(fresh, 2, -1).astype(np.int32)},
     "replay format changed.*episode, terminal flag.*train afresh"),
], ids=["fresh-dtype", "value-shape", "value-dtype", "value-not-finite", "value-on-terminal-row",
        "earlier-layout", "stamped-layout"])
def test_restore_refuses_a_bad_bootstrap_column(tmp_path, small_setup, raw_state, case):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=3, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=4, batch_size=4, seed=2)
    model = None if raw_state else model
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    assert trainer.train_steps == 9
    good = tmp_path / "state.npz"
    trainer.save(good)
    with np.load(good) as data:
        fresh, values = data["replay_fresh"], data["replay_next_value"]
    assert fresh.dtype == bool and values.dtype == np.float64
    changes, message = case
    bad = _rewrite_state(good, tmp_path / "bad.npz", **changes(fresh, values))
    with pytest.raises(ValidationError, match=message) as err:
        make_trainer(ds, split, model, cfg).restore(bad)
    assert str(bad) in str(err.value)
    # the state as saved loads, with values kept since the last sync (at
    # step 8) among its rows
    assert fresh.any() and not fresh[2::3].any()
    make_trainer(ds, split, model, cfg).restore(good)


def test_restore_rejects_malformed_raw_pairs(tmp_path, small_setup):
    # a raw row's pairs come from the record, its episode's steps before its
    # own: an episode that repeats an item would build pairs that play never
    # held, and is refused
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
        users, items, rewards = (data[key] for key in ("record_user", "record_item", "record_reward"))
    assert trainer.memory.locate(np.arange(6), 2)[1].tolist() == [0, 0, 0, 1, 1, 1]
    dense = replay_rows(trainer.memory, 2)
    # the third step of the first episode starts from two pairs
    assert np.count_nonzero(dense["s"][2]) == 2
    bad = tmp_path / "bad.npz"
    cases = [
        # a raw state saved before the replay read its pairs from the record
        ({"replay_s_items": np.full((6, 3), n, np.int32),
          "replay_s_rewards": np.zeros((6, 3)), "replay_a": items.astype(np.int64),
          "replay_r": dense["r"]}, "replay format changed.*train afresh"),
    ]
    for changes, message in cases:
        _rewrite_state(good, bad, **changes)
        with pytest.raises(ValidationError, match=message) as err:
            make_trainer(ds, split, None, cfg).restore(bad)
        assert str(bad) in str(err.value)
    # the same items in two episodes are no repeat (see
    # test_restore_refuses_a_bad_episode_record): the first episode played
    # twice loads, and so does the state as saved
    twice = {key: np.concatenate([col[:3]] * 2) for key, col in
             (("record_item", items), ("record_reward", rewards))}
    _rewrite_state(good, bad, record_user=users[[0, 0]], **twice)
    make_trainer(ds, split, None, cfg).restore(bad)
    restored = make_trainer(ds, split, None, cfg)
    restored.restore(good)
    for key in ("s", "s_next", "a", "r"):
        np.testing.assert_array_equal(replay_rows(restored.memory, 2)[key], dense[key])


def test_restore_of_a_full_ring_keeps_evicting_in_order(tmp_path, small_setup):
    # a capacity of 5 is no multiple of the horizon of 3, so the resumed
    # ring's slots hold steps of different episodes at different offsets
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=4, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      batch_size=4, replay_capacity=5, seed=2)
    for mf_model in (model, None):  # the latent and the raw replay layout
        straight = make_trainer(ds, split, mf_model, cfg)
        straight.run()
        first = make_trainer(ds, split, mf_model, cfg)
        first.run(until_episode=2)
        path = tmp_path / "state.npz"
        first.save(path)
        resumed = make_trainer(ds, split, mf_model, cfg)
        resumed.restore(path)
        # six pushes: the next one overwrites slot 1
        assert len(resumed.memory) == 5 and resumed.memory.pushes == 6
        resumed.run()
        for key, col in straight.memory.state().items():
            np.testing.assert_array_equal(resumed.memory.state()[key], col)
        for key, col in replay_rows(straight.memory, 4).items():
            np.testing.assert_array_equal(replay_rows(resumed.memory, 4)[key], col)
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


def _misrated(record):
    """A saved record's rewards with the first logged rating r, paid at a
    rated item, recorded as r % 5 + 1, another rating."""
    rated = int(np.flatnonzero(record["reward"])[0])
    return _with(record["reward"], rated, record["reward"][rated] % 5 + 1)


def _unrated(record, ds):
    """The items that the user of a saved record's first episode never rated."""
    return sorted(set(range(ds.n)) - set(profile(ds, int(record["user"][0]))))


@pytest.mark.parametrize("case", [
    # (changed arrays, given the saved record and the dataset; the message)
    (lambda rec, ds: {"record_item": rec["item"].astype(np.int64)}, "'item'"),
    (lambda rec, ds: {"record_loss": rec["loss"][:-1]}, "'loss'"),
    (lambda rec, ds: {"record_end": rec["end"][:, None]}, "'end'"),
    (lambda rec, ds: {"record_user": None}, "unreadable trainer state"),
    (lambda rec, ds: {"record_end": np.array([3, 2, 9])}, "ends before the one before it"),
    (lambda rec, ds: {"record_end": np.array([0, 6, 9])}, "runs over the horizon 3"),
    (lambda rec, ds: {"record_end": np.array([3, 6, 8])}, "does not end at the record's 9 steps"),
    (lambda rec, ds: {"record_item": rec["item"][:-1], "record_reward": rec["reward"][:-1]},
     "does not end at the record's 8 steps"),
    (lambda rec, ds: {"record_user": _with(rec["user"], 1, 9)}, "run's training users"),
    (lambda rec, ds: {"record_item": _with(rec["item"], 4, ds.n)}, "item outside 0..14"),
    (lambda rec, ds: {"record_item": _with(rec["item"], 4, -1)}, "item outside"),
    (lambda rec, ds: {"record_reward": _with(rec["reward"], 4, np.nan)}, "a reward is not finite"),
    (lambda rec, ds: {"record_loss": _with(rec["loss"], 2, np.inf)}, "a loss is not finite"),
    (lambda rec, ds: {"record_done": rec["done"].astype(np.uint8)}, "'done'"),
    # the environment ends every episode at its horizon
    (lambda rec, ds: {"record_done": _with(rec["done"], 1, False)},
     "episode 1: done is False, but the environment ended it at its last step"),
    # a raw learner's replay builds its states from the record, one pair an
    # item; further elements name the learner and the task (default latent
    # and task2)
    (lambda rec, ds: {"record_item": _with(rec["item"], 2, rec["item"][0])},
     "episode 0: item .* repeats an item", "raw"),
    # records that no play of the environment could have written: a logged
    # rating recorded as another, on either task; an item the user never
    # rated, in the catalog of rated items; a repeated item in a latent
    # episode
    (lambda rec, ds: {"record_reward": _misrated(rec)},
     r"reward \d\.0 is not the \d\.0 that step pays", "raw", "task1"),
    (lambda rec, ds: {"record_reward": _misrated(rec)},
     r"reward \d\.0 is not the \d\.0 that step pays", "raw"),
    (lambda rec, ds: {"record_item": _with(rec["item"], 1, _unrated(rec, ds)[0]),
                      "record_reward": _with(rec["reward"], 1, 0.0)},
     "episode 0: item .* at step 1 .* the user has not rated it", "raw", "task1"),
    (lambda rec, ds: {"record_item": _with(rec["item"], 5, rec["item"][3])},
     "episode 1: item .* at step 2 .* repeats an item"),
], ids=["item-dtype", "loss-length", "end-shape", "user-missing", "ends-decrease",
        "over-horizon", "last-end", "step-count", "user", "item-above", "item-below",
        "reward", "loss", "done-dtype", "done", "raw-repeat", "raw-task1-reward", "raw-task2-reward",
        "raw-task1-unrated", "latent-repeat"])
def test_restore_refuses_a_bad_episode_record(tmp_path, small_setup, case):
    # the record is the one source of the step, sync and episode counts, the
    # log and the trace; a record that no run could have written is refused
    ds, split, model = small_setup
    changes, message, *options = case
    model = None if "raw" in options else model
    task = TaskMode.TASK_I if "task1" in options else TaskMode.TASK_II
    cfg = TrainConfig(episodes=3, horizon=3, hidden_sizes=(8,), task=task, sync_period=4, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    with np.load(good) as data:
        record = {key[len("record_"):]: data[key] for key in data.files
                  if key.startswith("record_")}
    assert record["end"].tolist() == [3, 6, 9] and len(record["item"]) == 9
    assert 9 in split.test_users
    bad = _rewrite_state(good, tmp_path / "bad.npz", **changes(record, ds))
    with pytest.raises(ValidationError, match=message) as err:
        make_trainer(ds, split, model, cfg).restore(bad)
    assert str(bad) in str(err.value)
    make_trainer(ds, split, model, cfg).restore(good)


@pytest.mark.parametrize("raw_state", [False, True])
def test_restore_refuses_a_state_without_an_episode_record(tmp_path, small_setup, raw_state):
    # a state saved before the record existed kept a step count and logs in
    # its meta instead, which no longer derive anything
    ds, split, model = small_setup
    model = None if raw_state else model
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    with np.load(good) as data:
        meta = json.loads(data["meta"].tobytes())
        keys = [key for key in data.files if key.startswith("record_")]
    logs = [{"episode": e, "user": user, "reward_sum": sum(rewards, 0.0), "mean_td_loss": loss,
             "epsilon": cfg.epsilon, "sync_count": end // cfg.sync_period}
            for e, user, end, loss, _, rewards in trainer.episodes()]
    meta.update(train_steps=trainer.train_steps, logs=logs)
    _, a, r = _rows(trainer.memory, np.arange(len(trainer.memory)), trainer.episode)
    bad = _rewrite_state(good, tmp_path / "old.npz", **dict.fromkeys(keys), replay_a=a, replay_r=r,
                         meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    with pytest.raises(ValidationError, match="replay format changed.*train afresh") as err:
        make_trainer(ds, split, model, cfg).restore(bad)
    assert str(bad) in str(err.value)


def test_record_fits_a_resume_that_asks_for_fewer_episodes(tmp_path, small_setup):
    # the record's columns are sized for the run's episodes, or for the
    # saved ones when a resume asks for fewer
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=4, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    path = tmp_path / "state.npz"
    trainer.save(path)
    shorter = make_trainer(ds, split, model, replace(cfg, episodes=2))
    shorter.restore(path)
    shorter.run()
    assert (shorter.episode, shorter.train_steps) == (4, 12)
    assert list(shorter.episodes()) == list(trainer.episodes())
    shorter.save(tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()


def test_record_of_a_default_run_takes_12_bytes_a_step(tmp_path, small_setup):
    # a default run, 20,000 episodes of 40 steps: 12 bytes a step (an int32
    # item, a float64 reward) and 25 an episode, in memory and in the state;
    # a catalog of 50 items holds an episode of 40
    _, split, _ = small_setup
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=50, per_user=8, seed=4))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=4, reg=0.01, lr=0.02, epochs=1), seed=0)
    cfg = TrainConfig(episodes=20_000, horizon=40, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      replay_capacity=8, seed=0)
    tracemalloc.start()
    try:
        trainer = make_trainer(ds, split, model, cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = 20_000 * 25 + 800_000 * 12
    assert sum(col.nbytes for col in trainer.record.values()) == size <= held <= 11e6
    # a record filled to the end, user 3 taking the same 40 items in every
    # episode, is saved as it is held, and loads
    rng = np.random.default_rng(0)
    items = rng.permutation(ds.n)[:40]
    record = trainer.record
    record["user"][:], record["end"][:], record["done"][:] = 3, 40 * np.arange(1, 20_001), True
    record["loss"][:], record["item"][:] = rng.random(20_000), np.tile(items, 20_000)
    record["reward"][:] = np.tile(trainer.env.reset([3]).ratings[0, items], 20_000)
    trainer.episode = 20_000
    # a full replay of 8 rows holds the record's last 8 steps
    for _ in range(8):
        trainer.memory.push(np.zeros(model.d))
    trainer.memory.pushes = 800_000
    path = tmp_path / "state.npz"
    trainer.save(path)
    with np.load(path) as data:
        assert sum(data[key].nbytes for key in data.files if key.startswith("record_")) == size
    resumed = make_trainer(ds, split, model, cfg)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        resumed.restore(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the saved record and its copy are held at once one column at a time:
    # the restore peaks at most the largest column, the rewards, above the
    # saved record and its copy's first columns, not at two records
    assert peak - before <= size + 800_000 * 8 + 1e6 < 2 * size
    assert resumed.train_steps == 800_000
    for key, col in record.items():
        assert resumed.record[key].tobytes() == col.tobytes()


def test_target_is_the_net_right_after_each_sync(small_setup, monkeypatch):
    # the sync count is derived, train_steps // sync_period: the target is
    # synced that many times, each time to the net as it is then, and stays
    # as the last sync left it until the next
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=5, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=7, batch_size=4, seed=6)
    trainer = make_trainer(ds, split, model, cfg)
    sync_target, synced = qnet.sync_target, [qnet.flatten_params(trainer.target)]
    assert synced[0].tobytes() == qnet.flatten_params(trainer.net).tobytes()

    def recording_sync(net, target):
        sync_target(net, target)
        assert target is trainer.target and net is trainer.net
        assert qnet.flatten_params(target).tobytes() == qnet.flatten_params(net).tobytes()
        synced.append(qnet.flatten_params(target))

    monkeypatch.setattr(qnet, "sync_target", recording_sync)
    while trainer.episode < cfg.episodes:
        trainer.run(until_episode=trainer.episode + 1)
        assert trainer.train_steps // cfg.sync_period == len(synced) - 1
        assert qnet.flatten_params(trainer.target).tobytes() == synced[-1].tobytes()
    assert trainer.train_steps == 5 * 4 and len(synced) - 1 == 2
    assert [end // cfg.sync_period for _, _, end, *_ in trainer.episodes()] == [
        4 * (k + 1) // 7 for k in range(5)]


def test_restore_refuses_a_latent_state_that_stores_successors(tmp_path, small_setup):
    # a cfrl state saved before the replay derived its successors holds a
    # replay_s_next column
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      batch_size=4, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    rows = replay_rows(trainer.memory, trainer.episode)
    bad = _rewrite_state(good, tmp_path / "old.npz", replay_s_next=rows["s_next"],
                         replay_a=rows["a"], replay_r=rows["r"])
    with pytest.raises(ValidationError, match="replay format changed.*train afresh") as err:
        make_trainer(ds, split, model, cfg).restore(bad)
    assert str(bad) in str(err.value)


@pytest.mark.parametrize("raw_state, key, value", [
    (False, "record_reward", np.inf),
    (False, "replay_s", np.inf),
    (False, "replay_s", np.nan),
    (True, "record_reward", -np.inf),
    (False, "net", np.nan),
    (True, "target", np.inf),
], ids=["latent-reward", "latent-state-inf", "latent-state-nan", "raw-reward", "net", "target"])
def test_restore_refuses_values_that_are_not_finite(tmp_path, small_setup, raw_state, key, value):
    # a damaged state is refused as such, not left to surface later as a
    # TD loss or an online MF step that is no longer finite
    ds, split, model = small_setup
    model = None if raw_state else model
    # task1 pays a rating at every step, so every raw row holds pairs
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_I,
                      batch_size=4, seed=2)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    good = tmp_path / "state.npz"
    trainer.save(good)
    with np.load(good) as data:
        array = data[key].copy()
    # the second row of a state column, or the second step's reward, which
    # the third step's raw state holds as a pair
    array.reshape(len(array), -1)[1, 0] = value
    bad = _rewrite_state(good, tmp_path / "bad.npz", **{key: array})
    with pytest.raises(ValidationError, match="not finite") as err:
        make_trainer(ds, split, model, cfg).restore(bad)
    assert str(bad) in str(err.value)


def test_eligible_train_users_filters_short_profiles():
    profiles = {0: {i: 3 for i in range(5)}, 1: {i: 3 for i in range(2)}}
    ds = make_dataset(profiles)
    assert InteractiveEnv(ds, TaskMode.TASK_I, horizon=4).playable({0, 1}) == [0]
    assert InteractiveEnv(ds, TaskMode.TASK_II, horizon=4).playable({0, 1}) == [0, 1]


def _greedy_rollout(net, ds, model, user, horizon):
    """(score, rewards, actions) of one frozen latent-state Q-network episode."""
    split = Split(train_users=frozenset(), test_users=frozenset({user}))
    policy = GreedyQPolicy(net, *state_kind(model, ds.n, horizon))
    scores, trace = traced_eval(policy, ds, split, TaskMode.TASK_II, horizon)
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


def test_training_log_round_trip(tmp_path, small_setup, monkeypatch):
    # each row holds its episode's number, user and reward sum, the mean of
    # the TD losses train_step returned in it, the run's epsilon and the
    # target's sync count at the episode's end
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=3, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                      sync_period=4, epsilon=0.25, seed=5)
    trainer = make_trainer(ds, split, model, cfg)
    train_step, losses = qnet.train_step, []

    def recording_train_step(net, batch, lr):
        losses.append(train_step(net, batch, lr))
        return losses[-1]

    monkeypatch.setattr(qnet, "train_step", recording_train_step)
    trainer.run()
    path = tmp_path / "log.csv"
    write_training_log(path, trainer)
    rewards = _rows(trainer.memory, np.arange(9), trainer.episode)[2].tolist()
    users = [user for _, user, *_ in trainer.episodes()]
    assert _read_csv(path) == [
        {"episode": str(e), "user": str(users[e]),
         "reward_sum": repr(sum(rewards[3 * e:3 * e + 3], 0.0)),
         "mean_td_loss": repr(float(np.mean(losses[3 * e:3 * e + 3]))), "epsilon": "0.25",
         "sync_count": str(3 * (e + 1) // 4)} for e in range(3)]


def test_trace_round_trip(tmp_path, small_setup):
    # one row per step, in play order, as the replay reads it: the action,
    # the reward and done, which marks an episode's last step, the terminal
    # row of an episode that the environment ended at its horizon
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=3, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=5)
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    path = tmp_path / "trace.csv"
    write_trace(path, trainer)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    (_, a, r), done = (_rows(trainer.memory, np.arange(12), trainer.episode),
                       trainer.memory.locate(np.arange(12), trainer.episode)[2])
    users = [user for _, user, *_ in trainer.episodes()]
    assert lines == [["episode", "user", "t", "action", "reward", "done"], *[
        [str(k // 4), str(users[k // 4]), str(k % 4), str(a[k]),
         repr(r[k].item()), str(done[k])] for k in range(12)]]
    assert [line[5] for line in lines[1:]] == ["False", "False", "False", "True"] * 3


def test_planted_optimum_learned_by_cfrl():
    ds = make_dataset(planted_profiles())
    split = Split(train_users=frozenset({0, 1, 2, 3}), test_users=frozenset({4}))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=4, reg=0.01, lr=0.02, epochs=40),
                        seed=1)
    cfg = TrainConfig(
        episodes=400, horizon=4, gamma=0.9, epsilon=0.3, q_lr=0.01,
        sync_period=100, batch_size=16, replay_capacity=5000,
        hidden_sizes=(16,), task=TaskMode.TASK_II, seed=0,
    )
    trainer = make_trainer(ds, split, model, cfg)
    trainer.run()
    assert trainer.episode == 400
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
