"""Protocol smoke tests at the real corpus dimensions (943 x ~1600, ~100k
ratings) on a synthetic rating structure. These check runtime budgets and
method orderings the protocol must produce on any corpus with popularity and
quality structure; they make no claims about scores on the real dataset.
"""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfrl import mf
from cfrl.agent import TrainConfig, make_trainer, state_kind
from cfrl.baselines import (
    GreedyQPolicy,
    OnlineMfPolicy,
    RandomPolicy,
    impact_policy,
    popular_policy,
)
from cfrl.dataset import Split, SplitConfig, make_splits
from cfrl.env import TaskMode
from cfrl.evaluate import evaluate_policy
from cfrl.mf import MfConfig
from cfrl.seeding import derive_seed

from conftest import make_dataset, ml100k_like_profiles, two_cluster_profiles
from test_mf import assert_matches_sequential, sequential_pretrain


@pytest.fixture(scope="module")
def big_ds():
    return make_dataset(ml100k_like_profiles(seed=0))


@pytest.fixture(scope="module")
def big_splits(big_ds):
    return make_splits(big_ds, SplitConfig(count=10, test_fraction=0.10, min_ratings=100), seed=0)


@pytest.fixture(scope="module")
def big_mf(big_ds, big_splits):
    return mf.pretrain(big_ds, big_splits[0].train_users,
                       MfConfig(dim=16, reg=0.01, lr=0.01, epochs=5),
                       seed=0)


def test_random_ten_split_protocol_fits_time_budget(big_ds, big_splits):
    start = time.perf_counter()
    scores = []
    for s, split in enumerate(big_splits):
        per_user = evaluate_policy(
            RandomPolicy(seed=derive_seed(0, f"random:{s}")), big_ds, split,
            TaskMode.TASK_I, 40,
        )
        scores.append(float(np.mean(per_user)))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    # exhaustless sampling of rated items concentrates near the corpus mean
    assert 3.0 < float(np.mean(scores)) < 4.0
    assert float(np.std(scores)) < 0.2


def test_nonpersonalized_orderings_at_scale(big_ds, big_splits):
    split = big_splits[0]

    def score(policy, task):
        return float(np.mean(evaluate_policy(policy, big_ds, split, task, 40)))

    rand2 = score(RandomPolicy(seed=1), TaskMode.TASK_II)
    pop2 = score(popular_policy(big_ds, split.train_users), TaskMode.TASK_II)
    imp2 = score(impact_policy(big_ds, split.train_users), TaskMode.TASK_II)
    assert pop2 > rand2 + 1.0
    assert imp2 > rand2 + 1.0


def test_online_mf_beats_random_at_scale(big_ds, big_splits, big_mf):
    split = big_splits[0]
    mf_score = float(np.mean(evaluate_policy(
        OnlineMfPolicy(big_mf), big_ds, split, TaskMode.TASK_I, 40
    )))
    rand_score = float(np.mean(evaluate_policy(
        RandomPolicy(seed=2), big_ds, split, TaskMode.TASK_I, 40
    )))
    assert mf_score > rand_score + 0.3


def test_latent_state_enables_personalization():
    """The core mechanism: on a corpus where only per-user preference matters,
    the latent-state agent must beat every fixed ranking, which caps at ~3.0.
    Needs a faster online state-update rate than the pretraining default so
    the state calibrates within short desk-scale episodes."""
    ds = make_dataset(two_cluster_profiles())
    split = Split(train_users=frozenset(range(180)), test_users=frozenset(range(180, 200)))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=8, reg=0.01, lr=0.01, epochs=15),
                        seed=0)
    cfg = TrainConfig(
        episodes=2000, horizon=10, gamma=0.9, epsilon=0.2, q_lr=0.002,
        sync_period=500, batch_size=32, replay_capacity=100_000,
        hidden_sizes=(64,), task=TaskMode.TASK_I, seed=derive_seed(0, "cfrl"),
    )
    eval_model = replace(model, lr=0.1)
    trainer = make_trainer(ds, split, eval_model, cfg)
    trainer.run()
    cfrl_score = float(np.mean(evaluate_policy(
        GreedyQPolicy(trainer.net, *state_kind(eval_model, ds.n, 10)), ds, split, TaskMode.TASK_I,
        10
    )))
    rand_score = float(np.mean(evaluate_policy(
        RandomPolicy(seed=9), ds, split, TaskMode.TASK_I, 10
    )))
    assert rand_score < 3.0
    assert cfrl_score > rand_score + 0.5
    assert cfrl_score > 3.05  # above any fixed ranking: the state is being used


def test_short_budget_cfrl_beats_random_at_scale(big_ds, big_splits, big_mf):
    split = big_splits[0]
    cfg = TrainConfig(
        episodes=400, horizon=10, gamma=0.9, epsilon=0.2, q_lr=0.005,
        sync_period=200, batch_size=32, replay_capacity=50_000,
        hidden_sizes=(64,), task=TaskMode.TASK_II, seed=0,
    )
    trainer = make_trainer(big_ds, split, big_mf, cfg)
    trainer.run()
    assert trainer.episode == 400
    cfrl_score = float(np.mean(evaluate_policy(
        GreedyQPolicy(trainer.net, *state_kind(big_mf, big_ds.n, 10)), big_ds, split,
        TaskMode.TASK_II, 10
    )))
    rand_score = float(np.mean(evaluate_policy(
        RandomPolicy(seed=5), big_ds, split, TaskMode.TASK_II, 10
    )))
    assert cfrl_score > rand_score + 0.8


def test_epoch_rmse_equals_the_one_shot_formula(big_ds, big_splits, big_mf):
    users, items, ratings = big_ds.triples()
    keep = np.isin(users, np.fromiter(big_splits[0].train_users, dtype=np.int64))
    users, items, ratings = users[keep], items[keep], ratings[keep]
    pred = np.sum(big_mf.U[:, users] * big_mf.V[:, items], axis=0)
    assert big_mf.epoch_rmse[-1] == float(np.sqrt(np.mean((pred - ratings) ** 2)))


def test_pretrain_epoch_at_least_three_times_faster_than_the_sequential_loop(big_ds, big_splits):
    """One d=16 epoch on the full-size corpus, timed alternately against the
    rating-by-rating loop it reschedules (about 8x on a 2-vCPU x86-64 machine
    with OpenBLAS); a ratio taken within one process, so machine load moves
    both sides."""
    args = (big_ds, big_splits[0].train_users)
    params = dict(d=16, reg=0.01, lr=0.01, epochs=1, seed=0)
    rounds_s, loop_s = [], []
    for _ in range(3):
        start = time.perf_counter()
        model = mf.pretrain(*args, MfConfig(dim=16, reg=0.01, lr=0.01, epochs=1), seed=0)
        rounds_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        reference = sequential_pretrain(*args, **params)
        loop_s.append(time.perf_counter() - start)
    assert_matches_sequential(model, reference)
    speedup = float(np.median(loop_s)) / float(np.median(rounds_s))
    assert speedup >= 3.0, f"rounds {rounds_s} s vs loop {loop_s} s: only {speedup:.2f}x"


def test_dataset_holds_at_most_two_megabytes():
    # 99,518 ratings: the CSR arrays take about 1.6 MB; per-user Python
    # objects (one dict per user, one entry per rating) took 4.2 MB
    profiles = ml100k_like_profiles(seed=0)
    tracemalloc.start()
    try:
        ds = make_dataset(profiles)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.rating_count == 99_518
    assert held <= 2.0 * 2**20
