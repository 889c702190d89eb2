import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import mf, qnet
from cfrl.agent import Policy, put_pairs, state_kind, state_update
from cfrl.env import InteractiveEnv, TaskMode, run_episode, user_steps, write_trace
from cfrl.errors import IllegalActionError, ValidationError

from conftest import make_dataset, profile, synthetic_profiles
from toy_mdp import ChainEnv


def toy_model(ds, d=4, seed=0, lr=0.01, reg=0.01):
    rng = np.random.default_rng(seed)
    return mf.MfModel(
        U=np.zeros((d, ds.m)), V=rng.normal(size=(d, ds.n)), d=d, reg=reg, lr=lr
    )


@pytest.fixture
def ds():
    return make_dataset(synthetic_profiles(n_users=8, n_items=12, per_user=6, seed=1))


class ScriptedPolicy(Policy):
    """Plays a fixed (U,) action array per step and records every mask it
    is shown after a step."""

    def __init__(self, script):
        self.script = [np.asarray(actions) for actions in script]
        self.avail_after = []

    def act(self, avail):
        return self.script[len(self.avail_after)]

    def observe(self, items, rewards, avail=None, done=False):
        self.avail_after.append(avail.copy())


class RowRandomPolicy(Policy):
    """Uniform pick among each row's available items from one shared RNG;
    records every mask it is shown after a step."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.avail_after = []

    def act(self, avail):
        return np.array([int(self.rng.choice(np.flatnonzero(row))) for row in avail])

    def observe(self, items, rewards, avail=None, done=False):
        self.avail_after.append(avail.copy())


def test_reset_task2_exposes_all_items(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=4)
    state = env.reset([0])
    assert state.avail.sum() == ds.n
    assert state.t == 0
    assert state.users.tolist() == [0] and state.avail.shape == (1, ds.n)
    # nothing asked yet: an episode of no steps returns no actions
    assert run_episode(InteractiveEnv(ds, TaskMode.TASK_II, horizon=0), [0], ScriptedPolicy([])) == []


def test_reset_task1_restricts_to_rated(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_I, horizon=4)
    state = env.reset([2])
    rated = set(profile(ds, 2))
    assert set(np.flatnonzero(state.avail[0]).tolist()) == rated
    block = env.reset([5, 2, 7])
    for row, user in enumerate([5, 2, 7]):
        assert set(np.flatnonzero(block.avail[row]).tolist()) == set(profile(ds, user))


def test_reset_task1_rejects_short_profiles(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_I, horizon=7)
    with pytest.raises(ValidationError, match="fewer than the .?horizon"):
        env.reset([0])
    # in a block, the error names the first user whose profile is short
    with pytest.raises(ValidationError, match="^user 3 has 6 rated items"):
        env.reset([3, 0])


def test_reset_rejects_bad_user(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=2)
    with pytest.raises(ValidationError):
        env.reset([ds.m])
    with pytest.raises(ValidationError, match=f"user index {ds.m} out of range"):
        env.reset([0, ds.m])


def test_step_pays_logged_rating(ds):
    model = toy_model(ds)
    env = InteractiveEnv(ds, TaskMode.TASK_I, horizon=3)
    user = 1
    state = env.reset([user])
    item = next(iter(profile(ds, user)))
    rewards, nxt, done = env.step(state, np.array([item]))
    reward = rewards[0]
    assert reward == float(profile(ds, user)[item])
    assert not nxt.avail[0, item]
    assert nxt.t == 1 and not done
    # the paid reward is what the agents' states advance on
    start, put = state_kind(None, ds.n, 3)
    raw = put(start, np.array([item]), rewards).dense(ds.n)
    assert raw[0, item] == reward and np.count_nonzero(raw) == 1
    latent = np.zeros((1, model.d))
    np.testing.assert_array_equal(
        state_update(model)(latent, np.array([item]), rewards),
        mf.online_update(model, latent, np.array([item]), rewards),
    )


def test_step_task2_unrated_pays_zero(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=3)
    user = 0
    unrated = [i for i in range(ds.n) if i not in profile(ds, user)]
    state = env.reset([user])
    rewards, nxt, _ = env.step(state, np.array([unrated[0]]))
    assert rewards[0] == 0.0
    # a raw state that held the item holds no pair for it after the 0
    held = qnet.Pairs(np.array([[unrated[0], ds.n]]), np.array([[1.0, 0.0]]))
    assert put_pairs(held, np.array([unrated[0]]), rewards, ds.n).dense(ds.n)[0, unrated[0]] == 0.0
    # a genuine zero is distinguishable from never-asked: the episode's
    # actions hold the item, and it is no longer available
    steps = run_episode(env, [user], ScriptedPolicy([[unrated[0]], [unrated[1]], [unrated[2]]]))
    assert unrated[0] in [a for a, _, _ in user_steps(steps, 0)]
    assert not nxt.avail[0, unrated[0]]


def test_step_illegal_action_and_done(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=2)
    state = env.reset([0])
    _, state, _ = env.step(state, np.array([5]))
    with pytest.raises(IllegalActionError):
        env.step(state, np.array([5]))  # already taken
    _, state, done = env.step(state, np.array([6]))
    assert done
    with pytest.raises(IllegalActionError, match="already done"):
        env.step(state, np.array([7]))


def test_mask_shrinks_by_one_each_step(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=6)
    initial = int(env.reset([3]).avail.sum())
    policy = RowRandomPolicy(0)
    actions = [a for a, _, _ in user_steps(run_episode(env, [3], policy), 0)]
    assert len(actions) == 6
    for k in range(6):
        assert int(policy.avail_after[k].sum()) == initial - (k + 1)
        assert len(actions[: k + 1]) == k + 1
        assert len(set(actions[: k + 1])) == k + 1  # no repeats


def test_block_rows_keep_the_invariants_of_single_episodes(ds):
    """Every row of a block: no repeats, an exact mask decrement per step,
    the logged rating as reward and zero on unrated items."""
    users = list(range(ds.m))
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=ds.n)
    initial = env.reset(users).avail
    policy = RowRandomPolicy(5)
    steps = run_episode(env, users, policy)
    assert len(steps) == ds.n
    for row, user in enumerate(users):
        rated = profile(ds, user)
        taken = []
        for k, (action, reward, _) in enumerate(user_steps(steps, row)):
            taken.append(action)
            mask = policy.avail_after[k][row]
            assert int(mask.sum()) == int(initial[row].sum()) - (k + 1)
            assert not mask[action] and mask.sum() + len(taken) == ds.n
            assert reward == float(rated.get(action, 0))
            if action not in rated:
                assert reward == 0.0
        assert len(taken) == len(set(taken)) == ds.n
    assert sum(1 for _, rewards, _ in steps for r in rewards if r == 0.0) == ds.m * ds.n - ds.rating_count


def test_block_step_refuses_a_taken_item_in_any_row(ds):
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=4)
    state = env.reset([0, 1, 2])
    _, state, _ = env.step(state, np.array([3, 4, 5]))
    # row 1 repeats its item; the others are legal
    with pytest.raises(IllegalActionError, match="item 4 is not available at step 1 for user 1"):
        env.step(state, np.array([4, 4, 4]))
    with pytest.raises(IllegalActionError, match=f"item {ds.n} is not available .* user 2"):
        env.step(state, np.array([6, 6, ds.n]))
    with pytest.raises(IllegalActionError, match="one item index per user"):
        env.step(state, np.array([6, 6]))
    with pytest.raises(IllegalActionError, match="one item index per user"):
        env.step(state, np.array([6.0, 6.0, 6.0]))
    rewards, after, _ = env.step(state, np.array([4, 3, 3]))  # each row's own history counts
    assert rewards.shape == (3,) and after.avail.sum(axis=1).tolist() == [ds.n - 2] * 3


def _step(env, update, state, cf, action):
    """One environment step and the latent state's update on its reward."""
    rewards, state, _ = env.step(state, np.array([action]))
    return state, update(cf, np.array([action]), rewards)


def test_replay_reproduces_cf_trajectory_bitwise(ds):
    update = state_update(toy_model(ds))
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=5)
    rng = np.random.default_rng(7)
    state, cf = env.reset([4]), np.zeros((1, 4))
    actions, cf_states = [], []
    for _ in range(5):
        action = int(rng.choice(np.flatnonzero(state.avail[0])))
        state, cf = _step(env, update, state, cf, action)
        actions.append(action)
        cf_states.append(cf.copy())
    state, cf = env.reset([4]), np.zeros((1, 4))
    for action, expected in zip(actions, cf_states):
        state, cf = _step(env, update, state, cf, action)
        assert cf.tobytes() == expected.tobytes()


def test_markov_property_from_mid_episode_snapshot(ds):
    update = state_update(toy_model(ds))
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=6)
    state, cf = env.reset([5]), np.zeros((1, 4))
    rng = np.random.default_rng(3)
    for _ in range(3):
        action = int(rng.choice(np.flatnonzero(state.avail[0])))
        state, cf = _step(env, update, state, cf, action)
    snapshot = (state, cf)
    tail = [int(a) for a in rng.choice(np.flatnonzero(state.avail[0]), size=3, replace=False)]
    first = []
    s = snapshot
    for action in tail:
        s = _step(env, update, *s, action)
        first.append(s[1].copy())
    s = snapshot  # states are values; replaying the suffix is side-effect free
    for action, expected in zip(tail, first):
        s = _step(env, update, *s, action)
        assert s[1].tobytes() == expected.tobytes()


def test_reward_ranges(ds):
    rng = np.random.default_rng(11)
    env1 = InteractiveEnv(ds, TaskMode.TASK_I, horizon=5)
    env2 = InteractiveEnv(ds, TaskMode.TASK_II, horizon=5)
    for env, allowed in [(env1, {1, 2, 3, 4, 5}), (env2, {0, 1, 2, 3, 4, 5})]:
        for user in range(ds.m):
            state = env.reset([user])
            for _ in range(5):
                action = int(rng.choice(np.flatnonzero(state.avail[0])))
                rewards, state, _ = env.step(state, np.array([action]))
                assert rewards[0] in allowed
        # the same ranges hold row by row when every user plays in one block
        steps = run_episode(env, list(range(ds.m)), RowRandomPolicy(11))
        assert {float(r) for _, rewards, _ in steps for r in rewards} <= allowed


def test_task1_enumeration_total_is_order_independent(ds):
    user = 2
    rated = sorted(profile(ds, user))
    env = InteractiveEnv(ds, TaskMode.TASK_I, horizon=len(rated))
    total_expected = float(sum(profile(ds, user).values()))
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(rated)
        state = env.reset([user])
        total = 0.0
        for action in order:
            rewards, state, _ = env.step(state, np.array([action]))
            total += rewards[0]
        assert total == total_expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.randoms(use_true_random=False))
def test_no_repeat_property(user, pyrandom):
    ds = make_dataset(synthetic_profiles(n_users=8, n_items=12, per_user=6, seed=1))
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=8)
    state = env.reset([user])
    taken = []
    for _ in range(8):
        choices = np.flatnonzero(state.avail[0]).tolist()
        action = pyrandom.choice(choices)
        _, state, _ = env.step(state, np.array([action]))
        taken.append(action)
    assert len(taken) == len(set(taken))
    assert set(taken).isdisjoint(np.flatnonzero(state.avail[0]).tolist())


def test_trace_round_trip(tmp_path):
    rows = [(0, 3, 0, 7, 4.0, False), (0, 3, 1, 2, 0.0, True)]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert lines == [["episode", "user", "t", "action", "reward", "done"],
                     *[[str(value) for value in row] for row in rows]]


class RecordingPolicy(Policy):
    """Takes each row's lowest available item and records every call it gets."""

    def __init__(self):
        self.calls = []

    def begin_episode(self, users):
        self.calls.append(("begin", list(users)))

    def act(self, avail):
        self.calls.append(("act", avail.tolist()))
        return np.array([int(np.flatnonzero(row)[0]) for row in avail])

    def observe(self, items, rewards, avail=None, done=False):
        self.calls.append(("observe", items.tolist(), rewards.tolist(), avail.tolist(), done))


def test_run_episode_stops_at_done_before_the_horizon():
    policy = RecordingPolicy()
    steps = run_episode(ChainEnv(horizon=10), [0], policy)
    # action 0 leads from state 0 to state 1 (reward 1), then ends (reward 3)
    assert user_steps(steps, 0) == [(0, 1.0, False), (0, 3.0, True)]
    ones = [[True] * 3]
    assert policy.calls == [
        ("begin", [0]),
        ("act", ones), ("observe", [0], [1.0], ones, False),
        ("act", ones), ("observe", [0], [3.0], ones, True),
    ]


def test_run_episode_stops_at_the_horizon_without_done():
    policy = RecordingPolicy()
    assert user_steps(run_episode(ChainEnv(horizon=1), [0], policy), 0) == [(0, 1.0, False)]
    assert [call[0] for call in policy.calls] == ["begin", "act", "observe"]


def test_run_episode_drives_the_policy_through_the_environment(ds):
    policy = RecordingPolicy()
    user = 1
    steps = run_episode(InteractiveEnv(ds, TaskMode.TASK_II, horizon=3), [user], policy)
    rewards = [float(profile(ds, user).get(item, 0)) for item in range(3)]
    assert user_steps(steps, 0) == [(0, rewards[0], False), (1, rewards[1], False),
                                    (2, rewards[2], True)]
    avail = [True] * ds.n
    expected = [("begin", [user])]
    for item in range(3):
        expected.append(("act", [list(avail)]))
        avail[item] = False
        expected.append(("observe", [item], [rewards[item]], [list(avail)], item == 2))
    assert policy.calls == expected


def test_run_episode_plays_a_block_in_lockstep(ds):
    policy = RecordingPolicy()
    users = [4, 1]
    steps = run_episode(InteractiveEnv(ds, TaskMode.TASK_II, horizon=2), users, policy)
    assert [call[0] for call in policy.calls] == ["begin", "act", "observe", "act", "observe"]
    assert policy.calls[0] == ("begin", users)
    for row, user in enumerate(users):
        rated = profile(ds, user)
        assert user_steps(steps, row) == [(0, float(rated.get(0, 0)), False),
                                          (1, float(rated.get(1, 0)), True)]


def test_run_episode_at_horizon_zero_plays_no_step(ds):
    policy = RecordingPolicy()
    assert run_episode(InteractiveEnv(ds, TaskMode.TASK_II, horizon=0), [2], policy) == []
    assert policy.calls == [("begin", [2])]
