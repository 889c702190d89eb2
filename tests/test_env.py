import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import mf
from cfrl.env import InteractiveEnv, TaskMode, read_trace, write_trace
from cfrl.errors import IllegalActionError, ValidationError

from conftest import make_dataset, synthetic_profiles


def toy_model(ds, d=4, seed=0, lr=0.01, reg=0.01):
    rng = np.random.default_rng(seed)
    return mf.MfModel(
        U=np.zeros((d, ds.m)), V=rng.normal(size=(d, ds.n)), d=d, reg=reg, lr=lr
    )


@pytest.fixture
def ds():
    return make_dataset(synthetic_profiles(n_users=8, n_items=12, per_user=6, seed=1))


def test_reset_task2_exposes_all_items(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_II, horizon=4)
    state = env.reset(0)
    assert state.avail.sum() == ds.n
    assert state.t == 0
    assert not state.raw_state.any()
    assert not state.cf_state.any()


def test_reset_task1_restricts_to_rated(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_I, horizon=4)
    state = env.reset(2)
    rated = set(ds.user_ratings[2])
    assert set(np.flatnonzero(state.avail).tolist()) == rated


def test_reset_task1_rejects_short_profiles(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_I, horizon=7)
    with pytest.raises(ValidationError, match="fewer than the .?horizon"):
        env.reset(0)


def test_reset_rejects_bad_user(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_II, horizon=2)
    with pytest.raises(ValidationError):
        env.reset(ds.m)


def test_step_pays_logged_rating(ds):
    model = toy_model(ds)
    env = InteractiveEnv(ds, model, TaskMode.TASK_I, horizon=3)
    user = 1
    state = env.reset(user)
    item = next(iter(ds.user_ratings[user]))
    reward, nxt, done = env.step(state, item)
    assert reward == float(ds.user_ratings[user][item])
    assert nxt.raw_state[item] == reward
    assert not nxt.avail[item]
    assert nxt.t == 1 and not done
    np.testing.assert_array_equal(
        nxt.cf_state, mf.online_update(model, state.cf_state, item, reward)
    )


def test_step_task2_unrated_pays_zero(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_II, horizon=3)
    user = 0
    unrated = [i for i in range(ds.n) if i not in ds.user_ratings[user]]
    state = env.reset(user)
    reward, nxt, _ = env.step(state, unrated[0])
    assert reward == 0.0
    assert nxt.raw_state[unrated[0]] == 0.0
    assert unrated[0] in nxt.asked  # a genuine zero is distinguishable from never-asked


def test_step_illegal_action_and_done(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_II, horizon=2)
    state = env.reset(0)
    _, state, _ = env.step(state, 5)
    with pytest.raises(IllegalActionError):
        env.step(state, 5)  # already taken
    _, state, done = env.step(state, 6)
    assert done
    with pytest.raises(IllegalActionError, match="already done"):
        env.step(state, 7)


def test_mask_shrinks_by_one_each_step(ds):
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_II, horizon=6)
    state = env.reset(3)
    initial = int(state.avail.sum())
    rng = np.random.default_rng(0)
    for k in range(6):
        action = int(rng.choice(np.flatnonzero(state.avail)))
        _, state, _ = env.step(state, action)
        assert int(state.avail.sum()) == initial - (k + 1)
        assert len(state.asked) == k + 1
        assert len(set(state.asked)) == k + 1  # no repeats


def test_replay_reproduces_cf_trajectory_bitwise(ds):
    model = toy_model(ds)
    env = InteractiveEnv(ds, model, TaskMode.TASK_II, horizon=5)
    rng = np.random.default_rng(7)
    state = env.reset(4)
    actions, cf_states = [], []
    for _ in range(5):
        action = int(rng.choice(np.flatnonzero(state.avail)))
        _, state, _ = env.step(state, action)
        actions.append(action)
        cf_states.append(state.cf_state.copy())
    state = env.reset(4)
    for action, expected in zip(actions, cf_states):
        _, state, _ = env.step(state, action)
        assert state.cf_state.tobytes() == expected.tobytes()


def test_markov_property_from_mid_episode_snapshot(ds):
    model = toy_model(ds)
    env = InteractiveEnv(ds, model, TaskMode.TASK_II, horizon=6)
    state = env.reset(5)
    rng = np.random.default_rng(3)
    for _ in range(3):
        action = int(rng.choice(np.flatnonzero(state.avail)))
        _, state, _ = env.step(state, action)
    snapshot = state
    tail = [int(a) for a in rng.choice(np.flatnonzero(state.avail), size=3, replace=False)]
    first = []
    s = snapshot
    for action in tail:
        _, s, _ = env.step(s, action)
        first.append(s.cf_state.copy())
    s = snapshot  # states are values; replaying the suffix is side-effect free
    for action, expected in zip(tail, first):
        _, s, _ = env.step(s, action)
        assert s.cf_state.tobytes() == expected.tobytes()


def test_reward_ranges(ds):
    model = toy_model(ds)
    rng = np.random.default_rng(11)
    env1 = InteractiveEnv(ds, model, TaskMode.TASK_I, horizon=5)
    env2 = InteractiveEnv(ds, model, TaskMode.TASK_II, horizon=5)
    for env, allowed in [(env1, {1, 2, 3, 4, 5}), (env2, {0, 1, 2, 3, 4, 5})]:
        for user in range(ds.m):
            state = env.reset(user)
            for _ in range(5):
                action = int(rng.choice(np.flatnonzero(state.avail)))
                reward, state, _ = env.step(state, action)
                assert reward in allowed


def test_task1_enumeration_total_is_order_independent(ds):
    model = toy_model(ds)
    user = 2
    rated = sorted(ds.user_ratings[user])
    env = InteractiveEnv(ds, model, TaskMode.TASK_I, horizon=len(rated))
    total_expected = float(sum(ds.user_ratings[user].values()))
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(rated)
        state = env.reset(user)
        total = 0.0
        for action in order:
            reward, state, _ = env.step(state, int(action))
            total += reward
        assert total == total_expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.randoms(use_true_random=False))
def test_no_repeat_property(user, pyrandom):
    ds = make_dataset(synthetic_profiles(n_users=8, n_items=12, per_user=6, seed=1))
    env = InteractiveEnv(ds, toy_model(ds), TaskMode.TASK_II, horizon=8)
    state = env.reset(user)
    taken = []
    for _ in range(8):
        choices = np.flatnonzero(state.avail).tolist()
        action = pyrandom.choice(choices)
        _, state, _ = env.step(state, action)
        taken.append(action)
    assert len(taken) == len(set(taken))
    assert set(taken).isdisjoint(np.flatnonzero(state.avail).tolist())


def test_trace_round_trip(tmp_path):
    rows = [(0, 3, 0, 7, 4.0, False), (0, 3, 1, 2, 0.0, True)]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    assert read_trace(path) == rows
