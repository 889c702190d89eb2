from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import baselines, mf, qnet
from cfrl.agent import TrainConfig, make_trainer, state_kind
from cfrl.baselines import (
    GreedyQPolicy,
    LinUcbModel,
    LinUcbPolicy,
    OnlineMfPolicy,
    RandomPolicy,
    impact_policy,
    impact_scores,
    popular_policy,
    popularity_counts,
    train_linucb,
)
from cfrl.config import RunConfig
from cfrl.dataset import Split
from cfrl.env import TaskMode
from cfrl.errors import ValidationError
from cfrl.methods import METHODS, SplitContext
from cfrl.evaluate import evaluate_policy

from conftest import PLANTED_ITEM, make_dataset, planted_profiles, profile, synthetic_profiles
from oracles import raw_pairs


@pytest.fixture
def ds():
    return make_dataset(synthetic_profiles(n_users=12, n_items=16, per_user=8, seed=6))


@pytest.fixture
def model(ds):
    return mf.pretrain(ds, set(range(10)), d=4, reg=0.01, lr=0.02, epochs=10, seed=0)


class TestRandomPolicy:
    def test_singleton_mask(self):
        policy = RandomPolicy(seed=0)
        policy.begin_episode([3])
        mask = np.zeros((1, 6), dtype=bool)
        mask[0, 4] = True
        assert all(policy.act(mask).tolist() == [4] for _ in range(10))

    def test_empty_mask(self):
        policy = RandomPolicy(seed=0)
        policy.begin_episode([0])
        with pytest.raises(ValueError, match="empty"):
            policy.act(np.zeros((1, 3), dtype=bool))
        with pytest.raises(ValueError, match="2 masks for the 1 users"):
            policy.act(np.ones((2, 3), dtype=bool))

    def test_uniform_frequencies(self):
        policy = RandomPolicy(seed=1)
        policy.begin_episode([0])
        mask = np.array([[True, False, True, True, True]])
        counts = Counter(int(policy.act(mask)[0]) for _ in range(100_000))
        assert counts[1] == 0
        for item in (0, 2, 3, 4):
            assert abs(counts[item] / 100_000 - 0.25) < 0.01

    def test_exhaustive_task1_episode_pays_profile_mean(self, ds):
        # consuming every rated item makes the mean reward order-independent
        split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
        scores = evaluate_policy(
            RandomPolicy(seed=3), ds, split, TaskMode.TASK_I, horizon=8
        )
        expected = [
            np.mean(list(profile(ds, u).values())) for u in sorted(split.test_users)
        ]
        np.testing.assert_allclose(scores, expected, atol=1e-12)


@st.composite
def datasets_and_training_users(draw):
    """A small dataset, at times wider than one impact chunk of items, and a
    subset of its users to train on; the empty subset among them."""
    m, width = draw(st.integers(1, 12)), draw(st.integers(1, 600))
    density = draw(st.floats(0.0, 0.25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rated = rng.random((m, width)) < density
    rated[np.arange(m), rng.integers(width, size=m)] = True    # every user rates an item
    rated[rng.integers(m, size=width), np.arange(width)] = True    # every item has a rater
    ds = make_dataset({u: {int(i): int(rng.integers(1, 6)) for i in np.flatnonzero(row)}
                       for u, row in enumerate(rated)})
    return ds, draw(st.sets(st.integers(0, m - 1)))


class TestPopular:
    def test_argmax_of_counts(self):
        ds = make_dataset({0: {0: 3, 1: 4}, 1: {0: 2}, 2: {0: 5, 1: 1}})
        policy = popular_policy(ds, {0, 1, 2})
        assert policy.act(np.ones(2, dtype=bool)) == 0  # counts (3, 2)
        assert policy.act(np.array([False, True])) == 1

    @settings(max_examples=40, deadline=None)
    @given(case=datasets_and_training_users())
    def test_counts_match_brute_force(self, case):
        ds, train = case
        counts = popularity_counts(ds, train)
        brute = Counter(i for u in train for i in profile(ds, u))
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

    @settings(max_examples=40, deadline=None)
    @given(case=datasets_and_training_users())
    def test_matches_brute_force_double_loop(self, case):
        ds, train = case
        scores = impact_scores(ds, train)
        profiles = [profile(ds, u) for u in train]
        for i in range(ds.n):
            neighbors = set()
            for rated in profiles:
                if i in rated:
                    neighbors |= set(rated)
            neighbors.discard(i)
            assert scores[i] == len(neighbors)


class TestOnlineMf:
    def test_zero_state_tie_breaks_to_lowest_index(self, model):
        policy = OnlineMfPolicy(model)
        policy.begin_episode([0])
        assert policy.act(np.ones((1, model.n), dtype=bool)).tolist() == [0]
        mask = np.ones((1, model.n), dtype=bool)
        mask[0, :3] = False
        assert policy.act(mask).tolist() == [3]

    def test_positive_feedback_raises_similar_item_scores(self):
        # item 1 is nearly parallel to item 0; item 2 is orthogonal
        V = np.array([[1.0, 0.95, 0.0], [0.0, 0.05, 1.0]])
        m = mf.MfModel(U=np.zeros((2, 1)), V=V, d=2, reg=0.0, lr=0.05)
        policy = OnlineMfPolicy(m)
        policy.begin_episode([0])
        before = mf.predict_all(m, policy.state[0])[1]
        policy.observe(np.array([0]), np.array([5.0]))
        after = mf.predict_all(m, policy.state[0])[1]
        assert after > before

    def test_state_resets_per_episode(self, model):
        policy = OnlineMfPolicy(model)
        policy.begin_episode([0])
        policy.observe(np.array([2]), np.array([5.0]))
        assert policy.state.any()
        policy.begin_episode([1])
        assert not policy.state.any()


def reference_ucb_scores(ucb, mf_model, state, choices):
    """LinUCB scores by two dense solves against A per call, as the policy
    once computed them."""
    contexts = np.concatenate(
        [np.tile(state, (choices.size, 1)), mf_model.V[:, choices].T], axis=1)
    theta = np.linalg.solve(ucb.A, ucb.b)
    spread = np.linalg.solve(ucb.A, contexts.T)
    return contexts @ theta + ucb.alpha_ucb * np.sqrt(np.sum(contexts.T * spread, axis=0))


class ReferenceLinUcbPolicy(baselines.Policy):
    """The two-solve LinUCB policy, kept as the oracle for the cached one;
    it plays a block of one user."""

    def __init__(self, model, mf_model, frozen=True):
        self.model, self.mf_model, self.frozen = model, mf_model, frozen
        self.state = np.zeros((1, mf_model.d))

    def begin_episode(self, users):
        assert len(users) == 1
        self.state = np.zeros((1, self.mf_model.d))

    def act(self, avail):
        choices = np.flatnonzero(avail[0])
        scores = reference_ucb_scores(self.model, self.mf_model, self.state[0], choices)
        return np.array([choices[int(np.argmax(scores))]])

    def observe(self, items, rewards, avail=None, done=False):
        if not self.frozen:
            x = np.concatenate([self.state[0], self.mf_model.V[:, items[0]]])
            self.model.A += np.outer(x, x)
            self.model.b += rewards[0] * x
        self.state = mf.online_update(self.mf_model, self.state, items, rewards)


class TestLinUcb:
    def test_fresh_model_maximizes_context_norm(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=True)
        policy.begin_episode([0])
        mask = np.ones((1, model.n), dtype=bool)
        (pick,) = policy.act(mask)
        norms = np.linalg.norm(model.V, axis=0)  # state is zero, so |x| = |V_i|
        assert pick == int(np.argmax(norms))

    def test_single_observation_matches_closed_form(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=False)
        policy.begin_episode([0])
        x = np.concatenate([policy.state[0], model.V[:, 5]])
        policy.observe(np.array([5]), np.array([4.0]))
        np.testing.assert_allclose(ucb.A, np.eye(2 * model.d) + np.outer(x, x), atol=1e-12)
        np.testing.assert_allclose(ucb.b, 4.0 * x, atol=1e-12)
        theta = np.linalg.solve(ucb.A, ucb.b)
        # Sherman-Morrison closed form for (I + x x^T)^-1 (r x)
        expected = 4.0 * x / (1.0 + float(x @ x))
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_ucb_width_shrinks_under_repeated_context(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=False)
        policy.begin_episode([0])
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
        ctx = SplitContext(ds, None, 0, RunConfig(), model)
        back = spec.load(ctx, path)
        np.testing.assert_array_equal(back.A, ucb.A)
        np.testing.assert_array_equal(back.b, ucb.b)
        assert back.alpha_ucb == 0.5
        narrow = mf.MfModel(U=model.U[:-1], V=model.V[:-1], d=model.d - 1, reg=0.0, lr=0.0)
        with pytest.raises(ValidationError, match="factor width"):
            spec.load(SplitContext(ds, None, 0, RunConfig(), narrow), path)
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

    def test_frozen_scores_match_two_solve_reference(self, ds, model):
        split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
        cfg = TrainConfig(episodes=30, horizon=5, task=TaskMode.TASK_II, seed=0)
        ucb = train_linucb(ds, split, model, cfg, alpha_ucb=0.7)
        policy = LinUcbPolicy(ucb, model, frozen=True)
        rng = np.random.default_rng(3)
        for _ in range(500):
            policy.state = rng.normal(0.0, 1.0, (1, model.d))
            mask = rng.random(model.n) < rng.uniform(0.1, 1.0)
            mask[int(rng.integers(model.n))] = True
            choices = np.flatnonzero(mask)
            expected = reference_ucb_scores(ucb, model, policy.state[0], choices)
            np.testing.assert_allclose(policy.scores()[0, choices], expected, rtol=1e-12, atol=0)
            assert policy.act(mask[None]).tolist() == [choices[int(np.argmax(expected))]]
        # a block's rows score bit for bit as each state alone
        block = rng.normal(0.0, 1.0, (20, model.d))
        policy.state = block
        together = policy.scores()
        for row, state in enumerate(block):
            policy.state = state[None]
            np.testing.assert_array_equal(together[row], policy.scores()[0])

    def test_learning_policy_plays_one_user_at_a_time(self, model):
        policy = LinUcbPolicy(LinUcbModel.fresh(model.d), model, frozen=False)
        with pytest.raises(ValueError, match="one user at a time, not 2"):
            policy.begin_episode([0, 1])
        frozen = LinUcbPolicy(LinUcbModel.fresh(model.d), model, frozen=True)
        frozen.begin_episode([0, 1])
        assert frozen.state.shape == (2, model.d)

    def test_training_matches_two_solve_reference(self, ds, model, monkeypatch):
        split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
        cfg = TrainConfig(episodes=40, horizon=6, task=TaskMode.TASK_II, seed=1)
        cached = train_linucb(ds, split, model, cfg, alpha_ucb=1.0)
        monkeypatch.setattr(baselines, "LinUcbPolicy", ReferenceLinUcbPolicy)
        reference = train_linucb(ds, split, model, cfg, alpha_ucb=1.0)
        np.testing.assert_array_equal(cached.A, reference.A)
        np.testing.assert_array_equal(cached.b, reference.b)

    def test_sherman_morrison_inverse_tracks_the_matrix(self, model):
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=1.0)
        policy = LinUcbPolicy(ucb, model, frozen=False)
        rng = np.random.default_rng(4)
        for t in range(5000):
            if t % 40 == 0:
                policy.begin_episode([0])
            policy.observe(rng.integers(model.n, size=1), rng.integers(0, 6, size=1).astype(float))
        exact = np.linalg.inv(ucb.A)
        assert np.linalg.norm(policy._inv - exact) <= 1e-9 * np.linalg.norm(exact)
        choices = np.arange(model.n)
        np.testing.assert_allclose(
            policy.scores()[0], reference_ucb_scores(ucb, model, policy.state[0], choices),
            rtol=1e-9, atol=0)

    def test_failed_save_keeps_previous_archive(self, ds, model, tmp_path, monkeypatch):
        spec = METHODS["linucb"]
        ucb = LinUcbModel.fresh(model.d, alpha_ucb=0.5)
        path = tmp_path / "ucb.npz"
        spec.save(ucb, path)
        before = path.read_bytes()
        real_header = np.lib.format.write_array_header_1_0
        headers = []

        def crash_on_second_array(fh, header):
            headers.append(header)
            if len(headers) == 2:
                raise OSError("disk full")
            real_header(fh, header)

        monkeypatch.setattr(np.lib.format, "write_array_header_1_0", crash_on_second_array)
        changed = LinUcbModel(A=ucb.A + 1.0, b=ucb.b + 1.0, alpha_ucb=2.0)
        with pytest.raises(OSError, match="disk full"):
            spec.save(changed, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ucb.npz"]
        assert path.read_bytes() == before
        back = spec.load(SplitContext(ds, None, 0, RunConfig(), model), path)
        np.testing.assert_array_equal(back.A, ucb.A)
        assert back.alpha_ucb == 0.5

    @pytest.mark.parametrize("corrupt", ["nan_A", "inf_b", "nan_alpha", "not_spd", "asymmetric"])
    def test_load_refuses_statistics_it_cannot_invert(self, ds, model, tmp_path, corrupt):
        width = 2 * model.d
        A, b, alpha = np.eye(width) + 0.5, np.ones(width), np.array([1.0])
        if corrupt == "nan_A":
            A[1, 2] = A[2, 1] = np.nan
        elif corrupt == "inf_b":
            b[0] = np.inf
        elif corrupt == "nan_alpha":
            alpha[0] = np.nan
        elif corrupt == "not_spd":
            A[3, 3] = -1.0
        else:
            A[0, 1] += 1e-3  # Cholesky reads one triangle only
        path = tmp_path / "ucb.npz"
        np.savez(path, A=A, b=b, alpha_ucb=alpha)
        ctx = SplitContext(ds, None, 0, RunConfig(), model)
        with pytest.raises(ValidationError, match="not finite|positive definite"):
            METHODS["linucb"].load(ctx, path)


class TestGreedyQPolicy:
    def test_raw_state_tracking(self):
        net = qnet.qnet_init([6, 6], seed=0)
        policy = GreedyQPolicy(net, *state_kind(None, 6, 3))
        policy.begin_episode([0])
        policy.observe(np.array([2]), np.array([4.0]))
        assert policy.state.dense(6)[0, 2] == 4.0
        policy.begin_episode([1])
        assert (policy.state.items == 6).all() and not policy.state.values.any()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_state_values_do_not_depend_on_the_block(data):
    # a raw state's Q-values are bit for bit the same alone and in a block of
    # U, whatever the other rows hold: in qnet.forward on its pairs, and in
    # the values GreedyQPolicy acts on while it plays the block
    n = data.draw(st.integers(2, 120), label="n")
    horizon = data.draw(st.integers(1, 40), label="horizon")
    users = data.draw(st.integers(2, 9), label="block")
    hidden = data.draw(st.sampled_from([(4,), (64,), (8, 5)]), label="hidden")
    net = qnet.qnet_init([n, *hidden, n], seed=data.draw(st.integers(0, 99)))
    if data.draw(st.booleans(), label="input-major W0"):
        net = qnet.input_major(net)
    ratings = st.sampled_from([0.0, 1.0, 2.0, 3.5, 5.0])
    block = np.zeros((users, n))
    for row in block:
        for item in data.draw(st.lists(st.integers(0, n - 1), max_size=horizon)):
            row[item] = data.draw(ratings)
    together = qnet.forward(net, raw_pairs(block, horizon))
    for row, state in enumerate(block):
        assert together[row].tobytes() == qnet.forward(net, raw_pairs(state, horizon)).tobytes()

    steps = data.draw(st.integers(1, min(horizon, n)), label="steps")
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    masks = rng.random((steps, users, n)) < 0.5
    masks[:, :, 0] = True
    rewards = rng.choice([0.0, 1.0, 4.0], size=(steps, users))

    def play(rows):
        """The values the policy acts on at each step for the given rows."""
        seen = []

        def spy(net, states):
            seen.append(forward(net, states))
            return seen[-1]

        policy = GreedyQPolicy(net, *state_kind(None, n, horizon))
        forward = qnet.forward
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qnet, "forward", spy)
            policy.begin_episode(rows)
            for t in range(steps):
                policy.observe(policy.act(masks[t, rows]), rewards[t, rows])
        return seen

    in_block = play(list(range(users)))
    for row in range(users):
        alone = play([row])
        assert [q[row].tobytes() for q in in_block] == [q[0].tobytes() for q in alone]


def test_raw_dqn_input_width_is_item_count(ds):
    split = Split(train_users=frozenset(range(10)), test_users=frozenset({10, 11}), seed=0)
    cfg = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=0)
    trainer = make_trainer(ds, split, None, cfg)
    trainer.run()
    assert trainer.net.input_dim == ds.n
    assert trainer.episode == 2


def test_raw_dqn_learns_planted_optimum():
    ds = make_dataset(planted_profiles())
    split = Split(train_users=frozenset({0, 1, 2, 3}), test_users=frozenset({4}), seed=0)
    cfg = TrainConfig(
        episodes=400, horizon=4, gamma=0.9, epsilon=0.3, q_lr=0.01,
        sync_period=100, batch_size=16, hidden_sizes=(16,),
        task=TaskMode.TASK_II, seed=0,
    )
    trainer = make_trainer(ds, split, None, cfg)
    trainer.run()
    first_pick = int(np.argmax(qnet.forward(trainer.net, np.zeros(ds.n))))
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
        GreedyQPolicy(net_cf, *state_kind(model, ds.n, 40)),
        GreedyQPolicy(net_raw, *state_kind(None, ds.n, 40)),
    ]
    rows = np.arange(3)
    for policy in policies:
        policy.begin_episode([0, 1, 2])
        for _ in range(40):
            mask = rng.random((3, ds.n)) < 0.4
            mask[rows, rng.integers(ds.n, size=3)] = True
            picks = policy.act(mask)
            assert picks.shape == (3,) and mask[rows, picks].all()
            policy.observe(picks, rng.integers(0, 6, size=3).astype(float))
