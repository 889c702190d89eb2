import numpy as np
import pytest

from cfrl import mf, qnet
from cfrl.agent import (
    EpisodeLog,
    PackedMask,
    QTrainer,
    ReplayMemory,
    TrainConfig,
    Transition,
    epsilon_at,
    eligible_train_users,
    make_trainer,
    read_training_log,
    select_action,
    train_cfrl,
    write_training_log,
)
from cfrl.baselines import GreedyQPolicy
from cfrl.dataset import Split
from cfrl.env import TaskMode
from cfrl.evaluate import evaluate_policy
from cfrl.seeding import rng_for

from conftest import PLANTED_ITEM, make_dataset, planted_profiles, synthetic_profiles
from toy_mdp import ChainEnv, LIVE_STATES, value_iteration


def _dummy_transition(n=4):
    return Transition(
        s=np.zeros(2), a=0, r=1.0, s_next=np.zeros(2), done=True,
        mask_next=PackedMask.from_bool(np.ones(n, dtype=bool)),
    )


def test_packed_mask_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mask = rng.random(int(rng.integers(1, 40))) < 0.5
        np.testing.assert_array_equal(PackedMask.from_bool(mask).to_bool(), mask)


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
        mem = ReplayMemory(capacity=2)
        trs = [_dummy_transition() for _ in range(3)]
        for tr in trs:
            mem.push(tr)
        assert len(mem) == 2
        kept = mem.items()
        assert trs[0] not in kept
        assert trs[1] in kept and trs[2] in kept

    def test_sample_forced_duplicates_below_batch(self):
        mem = ReplayMemory(capacity=10)
        tr = _dummy_transition()
        mem.push(tr)
        batch = mem.sample(4, rng_for(0, "r"))
        assert batch == [tr, tr, tr, tr]

    def test_sample_without_replacement_at_capacity(self):
        mem = ReplayMemory(capacity=10)
        trs = [_dummy_transition() for _ in range(6)]
        for tr in trs:
            mem.push(tr)
        batch = mem.sample(6, rng_for(0, "r"))
        assert len({id(tr) for tr in batch}) == 6

    def test_sample_uniformity(self):
        mem = ReplayMemory(capacity=10)
        trs = [_dummy_transition() for _ in range(10)]
        for tr in trs:
            mem.push(tr)
        index = {id(tr): k for k, tr in enumerate(trs)}
        rng = rng_for(1, "uniform")
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            counts[index[id(mem.sample(1, rng)[0])]] += 1
        np.testing.assert_allclose(counts / draws, 0.1, atol=0.01)

    def test_sample_reproducible_and_empty_error(self):
        mem = ReplayMemory(capacity=5)
        with pytest.raises(ValueError, match="empty"):
            mem.sample(1, rng_for(0, "x"))
        for _ in range(5):
            mem.push(_dummy_transition())
        a = [id(t) for t in mem.sample(3, rng_for(7, "s"))]
        b = [id(t) for t in mem.sample(3, rng_for(7, "s"))]
        assert a == b

    def test_stress_size_never_exceeds_capacity(self):
        mem = ReplayMemory(capacity=1000)
        tr = _dummy_transition()
        rng = rng_for(2, "stress")
        for k in range(1_000_000):
            mem.push(tr)
            if k % 100_000 == 0:
                assert len(mem) <= 1000
        assert len(mem) == 1000


def test_epsilon_schedule():
    constant = TrainConfig(episodes=10, epsilon=0.2)
    assert epsilon_at(constant, 0) == epsilon_at(constant, 9) == 0.2
    decayed = TrainConfig(episodes=11, epsilon=1.0, epsilon_final=0.0)
    assert epsilon_at(decayed, 0) == 1.0
    assert epsilon_at(decayed, 10) == 0.0
    assert epsilon_at(decayed, 5) == pytest.approx(0.5)


@pytest.fixture
def small_setup():
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=15, per_user=8, seed=4))
    split = Split(train_users=frozenset(range(8)), test_users=frozenset({8, 9}), seed=0)
    model = mf.pretrain(ds, split.train_users, d=4, reg=0.01, lr=0.02, epochs=10, seed=0)
    return ds, split, model


def test_train_cfrl_zero_episodes_returns_untouched_net(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=0, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=5)
    net, logs = train_cfrl(ds, split, model, cfg)
    fresh = qnet.qnet_init((model.d, 8, ds.n), seed=5)
    np.testing.assert_array_equal(qnet.flatten_params(net), qnet.flatten_params(fresh))
    assert logs == []


def test_training_log_shape_and_sync_cadence(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(
        episodes=6, horizon=4, hidden_sizes=(8,), task=TaskMode.TASK_II,
        sync_period=5, batch_size=4, seed=1,
    )
    net, logs = train_cfrl(ds, split, model, cfg)
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
    train_cfrl(ds, split, model, cfg, trace=trace)
    by_episode = {}
    for ep, user, t, action, reward, done in trace:
        by_episode.setdefault(ep, []).append(action)
    assert len(by_episode) == 5
    for actions in by_episode.values():
        assert len(actions) == len(set(actions)) == 6


def test_training_is_deterministic(small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=4, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=9)
    net1, logs1 = train_cfrl(ds, split, model, cfg)
    net2, logs2 = train_cfrl(ds, split, model, cfg)
    assert qnet.flatten_params(net1).tobytes() == qnet.flatten_params(net2).tobytes()
    assert logs1 == logs2


def test_trainer_save_restore_continues_exactly(tmp_path, small_setup):
    ds, split, model = small_setup
    cfg = TrainConfig(episodes=6, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=2)
    straight = make_trainer(ds, split, model, cfg)
    straight.run()

    first = make_trainer(ds, split, model, cfg)
    first.run(until_episode=3)
    path = tmp_path / "state.npz"
    first.save(path)
    resumed = make_trainer(ds, split, model, cfg)
    resumed.restore(path)
    assert resumed.episode == 3
    resumed.run()

    assert (
        qnet.flatten_params(resumed.net).tobytes()
        == qnet.flatten_params(straight.net).tobytes()
    )
    assert resumed.logs == straight.logs
    assert resumed.train_steps == straight.train_steps


def test_state_update_hyperparameter_overrides(small_setup):
    ds, split, model = small_setup
    base = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II, seed=4)
    overridden = TrainConfig(episodes=2, horizon=3, hidden_sizes=(8,), task=TaskMode.TASK_II,
                             seed=4, mf_lr=0.2, mf_reg=0.0)
    net_a, _ = train_cfrl(ds, split, model, base)
    net_b, _ = train_cfrl(ds, split, model, overridden)
    # a different online step size changes the visited latent states
    assert qnet.flatten_params(net_a).tobytes() != qnet.flatten_params(net_b).tobytes()
    assert model.lr != 0.2  # the shared model is not mutated by the override


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
    scores = evaluate_policy(GreedyQPolicy(net, mf_model=model), ds, model, split,
                             TaskMode.TASK_II, horizon, trace=trace)
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
    expected = [float(ds.user_ratings[8].get(i, 0)) for i in range(4)]
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
    assert read_training_log(path) == logs


def test_planted_optimum_learned_by_cfrl():
    ds = make_dataset(planted_profiles())
    split = Split(train_users=frozenset({0, 1, 2, 3}), test_users=frozenset({4}), seed=0)
    model = mf.pretrain(ds, split.train_users, d=4, reg=0.01, lr=0.02, epochs=40, seed=1)
    cfg = TrainConfig(
        episodes=400, horizon=4, gamma=0.9, epsilon=0.3, q_lr=0.01,
        sync_period=100, batch_size=16, replay_capacity=5000,
        hidden_sizes=(16,), task=TaskMode.TASK_II, seed=0,
    )
    net, logs = train_cfrl(ds, split, model, cfg)
    assert len(logs) == 400
    state = np.zeros(model.d)
    first_pick = int(np.argmax(qnet.forward(net, state)))
    assert first_pick == PLANTED_ITEM
    _, rewards, _ = _greedy_rollout(net, ds, model, 4, 4)
    assert rewards[0] == 5.0


def test_tabular_oracle_convergence():
    env = ChainEnv(horizon=10)
    cfg = TrainConfig(
        episodes=1500, horizon=10, gamma=0.9, epsilon=0.6, q_lr=0.05,
        sync_period=25, batch_size=16, replay_capacity=5000,
        hidden_sizes=(), seed=0,
    )
    trainer = QTrainer(env, [0], input_dim=3, state_fn=lambda st: st.cf_state, cfg=cfg)
    trainer.run()
    q_star = value_iteration(0.9)
    for s in LIVE_STATES:
        onehot = np.zeros(3)
        onehot[s] = 1.0
        learned = qnet.forward(trainer.net, onehot)
        np.testing.assert_allclose(learned, q_star[s], atol=1e-2)
        assert int(np.argmax(learned)) == int(np.argmax(q_star[s]))
