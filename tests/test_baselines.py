from collections import Counter

import numpy as np
import pytest

from cfrl import mf, qnet
from cfrl.agent import TrainConfig
from cfrl.baselines import (
    GreedyQPolicy,
    LinUcbModel,
    LinUcbPolicy,
    OnlineMfPolicy,
    RandomPolicy,
    impact_policy,
    impact_scores,
    null_mf_model,
    popular_policy,
    popularity_counts,
    raw_dqn_agent,
    train_linucb,
)
from cfrl.dataset import Split
from cfrl.env import TaskMode
from cfrl.errors import ValidationError
from cfrl.methods import METHODS, SplitContext
from cfrl.evaluate import evaluate_policy

from conftest import PLANTED_ITEM, make_dataset, planted_profiles, synthetic_profiles


@pytest.fixture
def ds():
    return make_dataset(synthetic_profiles(n_users=12, n_items=16, per_user=8, seed=6))


@pytest.fixture
def model(ds):
    return mf.pretrain(ds, set(range(10)), d=4, reg=0.01, lr=0.02, epochs=10, seed=0)


class TestRandomPolicy:
    def test_singleton_mask(self):
        policy = RandomPolicy(seed=0)
        policy.begin_episode(3)
        mask = np.zeros(6, dtype=bool)
        mask[4] = True
        assert all(policy.act(mask) == 4 for _ in range(10))

    def test_empty_mask(self):
        policy = RandomPolicy(seed=0)
        with pytest.raises(ValueError, match="empty"):
            policy.act(np.zeros(3, dtype=bool))

    def test_uniform_frequencies(self):
        policy = RandomPolicy(seed=1)
        policy.begin_episode(0)
        mask = np.array([True, False, True, True, True])
        counts = Counter(policy.act(mask) for _ in range(100_000))
        assert counts[1] == 0
        for item in (0, 2, 3, 4):
            assert abs(counts[item] / 100_000 - 0.25) < 0.01

    def test_exhaustive_task1_episode_pays_profile_mean(self, ds):
        # consuming every rated item makes the mean reward order-independent
        split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
        scores = evaluate_policy(
            RandomPolicy(seed=3), ds, null_mf_model(ds), split, TaskMode.TASK_I, horizon=8
        )
        expected = [
            np.mean(list(ds.user_ratings[u].values())) for u in sorted(split.test_users)
        ]
        np.testing.assert_allclose(scores, expected, atol=1e-12)


class TestPopular:
    def test_argmax_of_counts(self):
        ds = make_dataset({0: {0: 3, 1: 4}, 1: {0: 2}, 2: {0: 5, 1: 1}})
        policy = popular_policy(ds, {0, 1, 2})
        assert policy.act(np.ones(2, dtype=bool)) == 0  # counts (3, 2)
        assert policy.act(np.array([False, True])) == 1

    def test_counts_match_brute_force(self, ds):
        train = set(range(9))
        counts = popularity_counts(ds, train)
        brute = Counter(i for u in train for i in ds.user_ratings[u])
        for item in range(ds.n):
            assert counts[item] == brute.get(item, 0)

    def test_deterministic(self, ds):
        train = set(range(9))
        a = popular_policy(ds, train)
        b = popular_policy(ds, train)
        mask = np.ones(ds.n, dtype=bool)
        assert a.act(mask) == b.act(mask)


class TestImpact:
    def test_unrated_item_has_zero_impact(self):
        ds = make_dataset({0: {0: 3, 1: 4}})  # items 0 and 1 exist; nothing else
        scores = impact_scores(ds, {0})
        assert scores.tolist() == [1.0, 1.0]
        # now with a user left out of training, their items get no credit
        ds2 = make_dataset({0: {0: 3, 1: 4}, 1: {2: 5}})
        scores2 = impact_scores(ds2, {0})
        assert scores2[2] == 0.0

    def test_two_user_toy_graph(self):
        # u1 rates {a, b}, u2 rates {b, c}: b touches both a and c
        a, b, c = 0, 1, 2
        ds = make_dataset({0: {a: 3, b: 3}, 1: {b: 3, c: 3}})
        scores = impact_scores(ds, {0, 1})
        assert scores[b] == 2.0
        assert scores[a] == 1.0 and scores[c] == 1.0

    def test_matches_brute_force_double_loop(self, ds):
        train = sorted(range(10))
        scores = impact_scores(ds, train)
        for i in range(ds.n):
            neighbors = set()
            for u in train:
                profile = ds.user_ratings[u]
                if i in profile:
                    neighbors |= set(profile)
            neighbors.discard(i)
            assert scores[i] == len(neighbors)


class TestOnlineMf:
    def test_zero_state_tie_breaks_to_lowest_index(self, model):
        policy = OnlineMfPolicy(model)
        policy.begin_episode(0)
        assert policy.act(np.ones(model.n, dtype=bool)) == 0
        mask = np.ones(model.n, dtype=bool)
        mask[:3] = False
        assert policy.act(mask) == 3

    def test_positive_feedback_raises_similar_item_scores(self):
        # item 1 is nearly parallel to item 0; item 2 is orthogonal
        V = np.array([[1.0, 0.95, 0.0], [0.0, 0.05, 1.0]])
        m = mf.MfModel(U=np.zeros((2, 1)), V=V, d=2, reg=0.0, lr=0.05)
        policy = OnlineMfPolicy(m)
        policy.begin_episode(0)
        before = mf.predict(m, policy.state, 1)
        policy.observe(0, 5.0)
        after = mf.predict(m, policy.state, 1)
        assert after > before

    def test_state_resets_per_episode(self, model):
        policy = OnlineMfPolicy(model)
        policy.begin_episode(0)
        policy.observe(2, 5.0)
        assert policy.state.any()
        policy.begin_episode(1)
        assert not policy.state.any()


class TestLinUcb:
    def test_fresh_model_maximizes_context_norm(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=True)
        policy.begin_episode(0)
        mask = np.ones(model.n, dtype=bool)
        pick = policy.act(mask)
        norms = np.linalg.norm(model.V, axis=0)  # state is zero, so |x| = |V_i|
        assert pick == int(np.argmax(norms))

    def test_single_observation_matches_closed_form(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=False)
        policy.begin_episode(0)
        x = np.concatenate([policy.state, model.V[:, 5]])
        policy.observe(5, 4.0)
        np.testing.assert_allclose(ucb.A, np.eye(2 * model.d) + np.outer(x, x), atol=1e-12)
        np.testing.assert_allclose(ucb.b, 4.0 * x, atol=1e-12)
        theta = np.linalg.solve(ucb.A, ucb.b)
        # Sherman-Morrison closed form for (I + x x^T)^-1 (r x)
        expected = 4.0 * x / (1.0 + float(x @ x))
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_ucb_width_shrinks_under_repeated_context(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=False)
        policy.begin_episode(0)
        x = np.concatenate([np.zeros(model.d), model.V[:, 2]])
        widths = []
        for _ in range(6):
            spread = np.linalg.solve(ucb.A, x)
            widths.append(float(np.sqrt(x @ spread)))
            ucb.A += np.outer(x, x)
            ucb.b += 3.0 * x
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_checkpoint_round_trip_checks_width(self, ds, model, tmp_path):
        spec = METHODS["linucb"]
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=0.5)
        ucb.A += 1.0
        path = tmp_path / "ucb.npz"
        spec.save(ucb, path)
        ctx = SplitContext(ds=ds, split=None, index=0, seed=0, mf_model=model)
        back = spec.load(ctx, path)
        np.testing.assert_array_equal(back.A, ucb.A)
        np.testing.assert_array_equal(back.b, ucb.b)
        assert back.alpha_ucb == 0.5
        narrow = mf.MfModel(U=model.U[:-1], V=model.V[:-1], d=model.d - 1, reg=0.0, lr=0.0)
        with pytest.raises(ValidationError, match="factor width"):
            spec.load(SplitContext(ds=ds, split=None, index=0, seed=0, mf_model=narrow), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValidationError):
            spec.load(ctx, path)

    def test_matrix_stays_symmetric_positive_definite(self, ds, model):
        split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
        cfg = TrainConfig(episodes=10, horizon=5, task=TaskMode.TASK_II, seed=0)
        ucb = train_linucb(ds, split, model, cfg, alpha_ucb=1.0)
        np.testing.assert_allclose(ucb.A, ucb.A.T, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(ucb.A)
        assert eigenvalues.min() >= 1.0 - 1e-9
        assert not np.allclose(ucb.A, np.eye(2 * model.d))  # training actually updated it


class TestGreedyQPolicy:
    def test_raw_state_tracking(self):
        net = qnet.qnet_init([6, 6], seed=0)
        policy = GreedyQPolicy(net, raw_state=True)
        policy.begin_episode(0)
        policy.observe(2, 4.0)
        assert policy.state[2] == 4.0
        policy.begin_episode(1)
        assert not policy.state.any()

    def test_cf_policy_needs_model(self):
        net = qnet.qnet_init([4, 6], seed=0)
        with pytest.raises(ValueError, match="MF model"):
            GreedyQPolicy(net, mf_model=None, raw_state=False)


def test_raw_dqn_input_width_is_item_count(ds):
    split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=0)
    net, logs = raw_dqn_agent(ds, split, cfg)
    assert net.input_dim == ds.n
    assert len(logs) == 2


def test_raw_dqn_learns_planted_optimum():
    ds = make_dataset(planted_profiles())
    split = Split(train_users=frozenset({0, 1, 2, 3}), test_users=frozenset({4}), seed=0)
    cfg = TrainConfig(
        episodes=400, horizon=4, gamma=0.9, epsilon=0.3, q_lr=0.01,
        sync_period=100, batch_size=16, hidden_sizes=(16,),
        task=TaskMode.TASK_II, seed=0,
    )
    net, _ = raw_dqn_agent(ds, split, cfg)
    first_pick = int(np.argmax(qnet.forward(net, np.zeros(ds.n))))
    assert first_pick == PLANTED_ITEM


def test_every_policy_acts_inside_the_mask(ds, model):
    rng = np.random.default_rng(0)
    net_cf = qnet.qnet_init([model.d, 8, ds.n], seed=1)
    net_raw = qnet.qnet_init([ds.n, 8, ds.n], seed=2)
    policies = [
        RandomPolicy(seed=5),
        popular_policy(ds, set(range(10))),
        impact_policy(ds, set(range(10))),
        OnlineMfPolicy(model),
        LinUcbPolicy(LinUcbModel.fresh(model.d), model, frozen=True),
        GreedyQPolicy(net_cf, mf_model=model),
        GreedyQPolicy(net_raw, raw_state=True),
    ]
    for policy in policies:
        policy.begin_episode(0)
        for _ in range(40):
            mask = rng.random(ds.n) < 0.4
            if not mask.any():
                mask[int(rng.integers(ds.n))] = True
            pick = policy.act(mask)
            assert mask[pick]
            policy.observe(pick, float(rng.integers(0, 6)))
