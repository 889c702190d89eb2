"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion. Criteria 1-5 evaluate against the real ML100K ratings file and are
skipped (loudly) when it is absent; see the README for where to place it.
Criteria 6-10 are self-contained and always run.
"""

import os
import time

import numpy as np
import pytest

from cfrl import mf, qnet
from cfrl.agent import QTrainer, TrainConfig, make_trainer, state_kind, state_update
from cfrl.baselines import (
    GreedyQPolicy,
    OnlineMfPolicy,
    RandomPolicy,
    popular_policy,
)
from cfrl.dataset import Split, SplitConfig, make_splits
from cfrl.env import InteractiveEnv, TaskMode
from cfrl.evaluate import evaluate_policy
from cfrl.mf import MfConfig
from cfrl.seeding import derive_seed

from conftest import (
    PLANTED_ITEM,
    make_dataset,
    needs_ml100k,
    planted_profiles,
    synthetic_profiles,
)
from oracles import Transition, rating_grads, stack, td_target
from toy_mdp import ChainEnv, LIVE_STATES, encode, update, value_iteration

HORIZON = 40
SEED = 0


def _report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion:02d}: PASS  ({message})")


def _trained(trainer) -> qnet.QNetwork:
    """The trainer's network once it has run every episode."""
    trainer.run()
    return trainer.net


@pytest.fixture(scope="module")
def ml100k_splits(ml100k_ds):
    return make_splits(ml100k_ds, SplitConfig(count=10, test_fraction=0.10, min_ratings=100),
                       seed=SEED)


def _split_means(policy_factory, ds, splits, task):
    scores = []
    for s, split in enumerate(splits):
        per_user = evaluate_policy(policy_factory(s, split), ds, split, task, HORIZON)
        scores.append(float(np.mean(per_user)))
    return scores


@needs_ml100k
def test_criterion_01_random_task1(ml100k_ds, ml100k_splits):
    start = time.perf_counter()
    scores = _split_means(
        lambda s, split: RandomPolicy(seed=derive_seed(SEED, f"random:{s}")),
        ml100k_ds, ml100k_splits, TaskMode.TASK_I,
    )
    elapsed = time.perf_counter() - start
    mean = float(np.mean(scores))
    assert abs(mean - 3.513) <= 0.10, f"random task1 mean {mean:.4f} outside 3.513 +- 0.10"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    _report(1, f"random task1 mean {mean:.4f} in 3.513+-0.10, {elapsed:.1f}s")


@needs_ml100k
def test_criterion_02_random_task2(ml100k_ds, ml100k_splits):
    scores = _split_means(
        lambda s, split: RandomPolicy(seed=derive_seed(SEED, f"random:{s}")),
        ml100k_ds, ml100k_splits, TaskMode.TASK_II,
    )
    mean = float(np.mean(scores))
    assert abs(mean - 0.454) <= 0.10, f"random task2 mean {mean:.4f} outside 0.454 +- 0.10"
    _report(2, f"random task2 mean {mean:.4f} in 0.454+-0.10")


@needs_ml100k
def test_criterion_03_popular_task2(ml100k_ds, ml100k_splits):
    scores = _split_means(
        lambda s, split: popular_policy(ml100k_ds, split.train_users),
        ml100k_ds, ml100k_splits, TaskMode.TASK_II,
    )
    mean = float(np.mean(scores))
    assert abs(mean - 2.404) <= 0.15, f"popular task2 mean {mean:.4f} outside 2.404 +- 0.15"
    # determinism per split
    split = ml100k_splits[0]
    again = evaluate_policy(
        popular_policy(ml100k_ds, split.train_users), ml100k_ds, split, TaskMode.TASK_II, HORIZON,
    )
    first = evaluate_policy(
        popular_policy(ml100k_ds, split.train_users), ml100k_ds, split, TaskMode.TASK_II, HORIZON,
    )
    np.testing.assert_array_equal(first, again)
    _report(3, f"popular task2 mean {mean:.4f} in 2.404+-0.15, deterministic")


@pytest.fixture(scope="module")
def ml100k_mf_models(ml100k_ds, ml100k_splits):
    return [
        mf.pretrain(ml100k_ds, split.train_users, MfConfig(dim=16, reg=0.01, lr=0.01, epochs=30),
                    seed=derive_seed(SEED, f"mf:{s}"))
        for s, split in enumerate(ml100k_splits)
    ]


@needs_ml100k
def test_criterion_04_online_mf_task1(ml100k_ds, ml100k_splits, ml100k_mf_models):
    scores = _split_means(
        lambda s, split: OnlineMfPolicy(ml100k_mf_models[s]),
        ml100k_ds, ml100k_splits, TaskMode.TASK_I,
    )
    mean = float(np.mean(scores))
    assert mean >= 3.95, f"online MF task1 mean {mean:.4f} below 3.95"
    _report(4, f"online MF task1 mean {mean:.4f} >= 3.95")


@needs_ml100k
def test_criterion_05_cfrl_beats_raw_dqn_at_desk_scale(ml100k_ds, ml100k_splits):
    episodes = int(os.environ.get("CFRL_ACCEPT_EPISODES", "20000"))
    split = ml100k_splits[0]
    model = mf.pretrain(ml100k_ds, split.train_users,
                        MfConfig(dim=16, reg=0.01, lr=0.01, epochs=30),
                        seed=derive_seed(SEED, "mf:0"))
    cfg = TrainConfig(
        episodes=episodes, horizon=HORIZON, gamma=0.9, epsilon=0.1, q_lr=0.001,
        sync_period=500, batch_size=32, replay_capacity=100_000,
        hidden_sizes=(64,), task=TaskMode.TASK_II, seed=derive_seed(SEED, "cfrl"),
    )
    cfrl_net = _trained(make_trainer(ml100k_ds, split, model, cfg))
    dqn_cfg = TrainConfig(
        episodes=episodes, horizon=HORIZON, gamma=0.9, epsilon=0.1, q_lr=0.001,
        sync_period=500, batch_size=32, replay_capacity=100_000,
        hidden_sizes=(64,), task=TaskMode.TASK_II, seed=derive_seed(SEED, "dqn"),
    )
    dqn_net = _trained(make_trainer(ml100k_ds, split, None, dqn_cfg))

    cfrl_scores = evaluate_policy(
        GreedyQPolicy(cfrl_net, *state_kind(model, ml100k_ds.n, HORIZON)), ml100k_ds, split,
        TaskMode.TASK_II, HORIZON,
    )
    dqn_scores = evaluate_policy(
        GreedyQPolicy(dqn_net, *state_kind(None, ml100k_ds.n, HORIZON)), ml100k_ds, split,
        TaskMode.TASK_II, HORIZON,
    )
    cfrl_mean = float(np.mean(cfrl_scores))
    dqn_mean = float(np.mean(dqn_scores))
    assert cfrl_mean >= dqn_mean + 0.5, (
        f"cfrl {cfrl_mean:.4f} does not beat dqn {dqn_mean:.4f} by 0.5"
    )
    assert cfrl_mean >= 2.6, f"cfrl task2 mean {cfrl_mean:.4f} below 2.6"
    _report(5, f"cfrl {cfrl_mean:.4f} vs dqn {dqn_mean:.4f} at K={episodes}")


def test_criterion_06_gradient_suite():
    start = time.perf_counter()
    tol = 1e-4

    def rel_err(a, b):
        return np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)

    # factor-model gradients on 100 random instances
    rng = np.random.default_rng(101)
    for _ in range(100):
        d = int(rng.integers(1, 10))
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        r = float(rng.integers(1, 6))
        reg = float(rng.choice([0.0, 0.01, 0.1]))
        gu, gv = rating_grads(u, v, r, reg)
        h = 1e-6
        fd_u = np.zeros(d)
        fd_v = np.zeros(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            f = lambda uu, vv: (float(uu @ vv) - r) ** 2 + reg * (float(uu @ uu) + float(vv @ vv))
            fd_u[k] = (f(u + e, v) - f(u - e, v)) / (2 * h)
            fd_v[k] = (f(u, v + e) - f(u, v - e)) / (2 * h)
        assert rel_err(gu, fd_u).max() < tol
        assert rel_err(gv, fd_v).max() < tol

    # Q-network batch update gradients on 100 random instances
    rng = np.random.default_rng(202)
    for trial in range(100):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(2, 5))]
        net = qnet.qnet_init(sizes, seed=trial, activation="tanh")
        target = net.copy()
        n = net.output_dim
        batch = []
        for _ in range(4):
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[int(rng.integers(n))] = True
            batch.append(Transition(
                s=rng.normal(size=net.input_dim), a=int(rng.integers(n)),
                r=float(rng.uniform(0, 5)), s_next=rng.normal(size=net.input_dim),
                done=bool(rng.random() < 0.4), mask_next=mask,
            ))
        y = np.array([td_target(tr, target, 0.9) for tr in batch])
        before = qnet.flatten_params(net)
        lr = 1e-3
        qnet.train_step(net, stack(batch, target, 0.9), lr=lr)
        applied = (before - qnet.flatten_params(net)) / lr

        probe = net.copy()
        h = 1e-6

        def half_mse(flat):
            qnet.assign_params(probe, flat)
            q = qnet.forward_batch(probe, np.stack([tr.s for tr in batch]))
            qa = q[np.arange(len(batch)), [tr.a for tr in batch]]
            return 0.5 * float(np.mean((y - qa) ** 2))

        fd = np.zeros_like(before)
        for k in range(before.size):
            e = np.zeros_like(before)
            e[k] = h
            fd[k] = (half_mse(before + e) - half_mse(before - e)) / (2 * h)
        assert rel_err(applied, fd).max() < tol

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s, over the 30s budget"
    _report(6, f"200 gradient checks at 1e-4 in {elapsed:.1f}s")


def test_criterion_07_tabular_oracle():
    start = time.perf_counter()
    env = ChainEnv(horizon=10)
    cfg = TrainConfig(
        episodes=1500, horizon=10, gamma=0.9, epsilon=0.6, q_lr=0.05,
        sync_period=25, batch_size=16, replay_capacity=5000,
        hidden_sizes=(), seed=SEED,
    )
    trainer = QTrainer(env, [0], start=np.zeros((1, 3)), update=update, cfg=cfg)
    trainer.run()
    q_star = value_iteration(0.9)
    worst = 0.0
    for s in LIVE_STATES:
        learned = qnet.forward(trainer.net, encode(s))
        worst = max(worst, float(np.abs(learned - q_star[s]).max()))
        assert int(np.argmax(learned)) == int(np.argmax(q_star[s])), (
            f"greedy action mismatch in state {s}"
        )
    assert worst <= 1e-2, f"max |Q - Q*| = {worst:.4f} exceeds 1e-2"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"tabular oracle took {elapsed:.1f}s, over the 10s budget"
    _report(7, f"max |Q - Q*| = {worst:.2e}, optimal policy recovered, {elapsed:.1f}s")


def test_criterion_08_environment_invariants():
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=20, per_user=12, seed=5))
    rng = np.random.default_rng(0)
    model = mf.MfModel(U=np.zeros((4, ds.m)), V=rng.normal(size=(4, ds.n)), d=4,
                       reg=0.01, lr=0.02)
    env = InteractiveEnv(ds, TaskMode.TASK_II, horizon=10)
    # every user in one lockstep block, each row with its own action stream
    users = list(range(ds.m))
    action_rngs = [np.random.default_rng(1000 + user) for user in users]
    state = env.reset(users)
    taken = [[] for _ in users]
    initial = state.avail.sum(axis=1)
    for step in range(10):
        actions = np.array([int(rng_u.choice(np.flatnonzero(mask)))
                            for rng_u, mask in zip(action_rngs, state.avail)])
        rewards, state, done = env.step(state, actions)
        for row, user in enumerate(users):
            action, reward = int(actions[row]), rewards[row]
            taken[row].append(action)
            assert int(state.avail[row].sum()) == initial[row] - (step + 1)  # exact decrement
            if action not in ds.items[ds.indptr[user]:ds.indptr[user + 1]]:
                assert reward == 0.0  # unrated items pay zero
    for row_taken in taken:
        assert len(set(row_taken)) == len(row_taken)  # no repeated actions
    # bit-exact replay under a fixed seed, of the rewards and the latent
    # state the agents advance on them
    advance = state_update(model)

    def rollout(seed):
        action_rng = np.random.default_rng(seed)
        state, latent = env.reset([3]), np.zeros((1, model.d))
        rewards, cf = [], []
        for _ in range(10):
            action = np.array([int(action_rng.choice(np.flatnonzero(state.avail[0])))])
            reward, state, _ = env.step(state, action)
            latent = advance(latent, action, reward)
            rewards.append(float(reward[0]))
            cf.append(latent.tobytes())
        return rewards, cf

    first, second = rollout(77), rollout(77)
    assert first[0] == second[0]
    assert first[1] == second[1]
    _report(8, "no repeats, exact mask decrement, zero-on-unrated, bit-exact replay")


def test_criterion_09_planted_optimum_both_agents():
    start = time.perf_counter()
    ds = make_dataset(planted_profiles())
    split = Split(train_users=frozenset({0, 1, 2, 3}), test_users=frozenset({4}))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=4, reg=0.01, lr=0.02, epochs=40),
                        seed=1)
    cfg = TrainConfig(
        episodes=400, horizon=4, gamma=0.9, epsilon=0.3, q_lr=0.01,
        sync_period=100, batch_size=16, replay_capacity=5000,
        hidden_sizes=(16,), task=TaskMode.TASK_II, seed=SEED,
    )
    cfrl_net = _trained(make_trainer(ds, split, model, cfg))
    dqn_net = _trained(make_trainer(ds, split, None, cfg))
    cfrl_pick = int(np.argmax(qnet.forward(cfrl_net, np.zeros(model.d))))
    dqn_pick = int(np.argmax(qnet.forward(dqn_net, np.zeros(ds.n))))
    assert cfrl_pick == PLANTED_ITEM, f"cfrl first pick {cfrl_pick} != {PLANTED_ITEM}"
    assert dqn_pick == PLANTED_ITEM, f"dqn first pick {dqn_pick} != {PLANTED_ITEM}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"planted-optimum test took {elapsed:.1f}s, over the 1min budget"
    _report(9, f"both agents pick item {PLANTED_ITEM} first, {elapsed:.1f}s")


def _warm_step_setup(hidden: int, d: int, n: int):
    """A [d, hidden, n] network, its target and the arrays of a 32-transition
    batch, after 30 warm-up TD steps."""
    rng = np.random.default_rng(55)
    net = qnet.qnet_init([d, hidden, n], seed=1)
    target = net.copy()
    rows = (rng.normal(size=(32, d)), rng.integers(n, size=32), rng.uniform(0, 5, size=32),
            rng.normal(size=(32, d)), np.ones((32, n), dtype=bool))
    for _ in range(30):  # warmup
        _td_step(net, target, rows)
    return net, target, rows


def _td_step(net, target, rows):
    """One TD step as training takes it when no row of the minibatch holds
    its bootstrap value: the target's n-wide values over the successors,
    then train_step."""
    s, a, r, s_next, masks = rows
    y = r + 0.9 * qnet.bootstrap_values(target, s_next, masks)
    qnet.train_step(net, qnet.Batch(s, a, y), lr=1e-4)


def _median_step_times(widths, d: int, n: int, steps: int = 120, rounds: int = 5):
    """(parameter count, median time per TD step) of a network of each
    hidden width. The widths take turns, one timed round of `steps` each, so
    load on the machine lands on every width alike."""
    setups = [_warm_step_setup(hidden, d, n) for hidden in widths]
    times = [[] for _ in widths]
    for _ in range(rounds):
        for (net, target, rows), width_times in zip(setups, times):
            t0 = time.perf_counter()
            for _ in range(steps):
                _td_step(net, target, rows)
            width_times.append((time.perf_counter() - t0) / steps)
    return [(net.param_count, float(np.median(t))) for (net, _, _), t in zip(setups, times)]


def test_criterion_10_complexity_contract():
    # power-of-two widths keep the BLAS kernel choice comparable between the
    # two measurements; 64 -> 128 multiplies the parameter count by 1.985
    d, n = 16, 512
    (count1, t1), (count2, t2) = _median_step_times((64, 128), d, n)
    assert 1.9 <= count2 / count1 <= 2.1, "network sizing did not double the parameters"
    ratio = t2 / t1
    assert ratio <= 2.5, (
        f"doubling parameters scaled per-step time by {ratio:.2f}x (> 2.5x)"
    )
    _report(10, f"params x{count2 / count1:.2f} -> per-step time x{ratio:.2f} (<= 2.5)")
