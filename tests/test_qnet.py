import json
import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrl import qnet
from cfrl.errors import DivergenceError, ValidationError
from cfrl.persist import manifest_path, save_npz

from oracles import Transition, dense_train_step, q_taken, raw_pairs, stack, td_target


def test_parameter_count_closed_form():
    net = qnet.qnet_init([16, 64, 1682], seed=0)
    assert net.param_count == 16 * 64 + 64 + 64 * 1682 + 1682


def test_same_seed_is_bit_identical():
    a = qnet.qnet_init([5, 7, 3], seed=42)
    b = qnet.qnet_init([5, 7, 3], seed=42)
    assert qnet.flatten_params(a).tobytes() == qnet.flatten_params(b).tobytes()
    c = qnet.qnet_init([5, 7, 3], seed=43)
    assert qnet.flatten_params(a).tobytes() != qnet.flatten_params(c).tobytes()


def test_degenerate_architectures_rejected():
    with pytest.raises(ValueError):
        qnet.qnet_init([16], seed=0)
    with pytest.raises(ValueError):
        qnet.qnet_init([4, 0, 2], seed=0)
    with pytest.raises(ValueError):
        qnet.qnet_init([4, 2], seed=0, activation="softsign")


def test_zero_parameters_give_zero_output():
    net = qnet.qnet_init([3, 5, 4], seed=1)
    qnet.assign_params(net, np.zeros(net.param_count))
    out = qnet.forward(net, np.array([1.0, -2.0, 0.5]))
    assert out.shape == (4,)
    assert not out.any()


def test_forward_matches_hand_arithmetic():
    net = qnet.qnet_init([2, 2, 2], seed=0, activation="tanh")
    net.weights[0][:] = [[0.5, -0.3], [0.1, 0.2]]
    net.biases[0][:] = [0.1, -0.2]
    net.weights[1][:] = [[1.0, -1.0], [0.25, 0.75]]
    net.biases[1][:] = [0.05, 0.0]
    out = qnet.forward(net, np.array([1.0, 2.0]))
    # by hand: z1 = (0.0, 0.3); a1 = (0, tanh 0.3); identity output
    h = math.tanh(0.3)
    assert out[0] == pytest.approx(0.05 - h, abs=1e-12)
    assert out[1] == pytest.approx(0.75 * h, abs=1e-12)


def test_forward_shape_contract():
    net = qnet.qnet_init([6, 8, 11], seed=3)
    assert qnet.forward(net, np.zeros(6)).shape == (11,)
    with pytest.raises(ValueError, match="input width"):
        qnet.forward(net, np.zeros(7))
    assert qnet.forward(net, np.zeros((4, 6))).shape == (4, 11)
    with pytest.raises(ValueError, match="input width"):
        qnet.forward(net, np.zeros((4, 7)))
    with pytest.raises(ValueError, match="input width"):
        qnet.forward(net, np.zeros((2, 4, 6)))


@pytest.mark.parametrize("hidden", [(), (8,), (8, 5)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_forward_block_rows_are_bit_identical_to_single_states(hidden, activation):
    rng = np.random.default_rng(len(hidden))
    net = qnet.qnet_init((7, *hidden, 40), seed=2, activation=activation)
    for rows in (1, 3, 17):
        block = rng.normal(size=(rows, 7))
        together = qnet.forward(net, block)
        for row, state in enumerate(block):
            assert together[row].tobytes() == qnet.forward(net, state).tobytes()
            # a single state goes through the same 1-row product as a batch of one
            assert qnet.forward(net, state).tobytes() == qnet.forward_batch(net, state[None])[0].tobytes()


def _value_iteration(transitions, gamma, n_states, n_actions, sweeps=200):
    """Exhaustive backup oracle on explicit (s', r, terminal) tables."""
    values = np.zeros(n_states)
    for _ in range(sweeps):
        q = np.zeros((n_states, n_actions))
        for s in range(n_states):
            for a in range(n_actions):
                s2, r, terminal = transitions[s][a]
                q[s, a] = r + (0.0 if terminal else gamma * values[s2])
        values = q.max(axis=1)
    return q, values


def test_td_target_terminal_and_zero_gamma():
    net = qnet.qnet_init([2, 2], seed=0)
    target = qnet.make_target(net)
    done_tr = Transition(s=np.zeros(2), a=0, r=3.0, s_next=np.zeros(2), done=True,
                         mask_next=np.ones(2, dtype=bool))
    assert td_target(done_tr, target, 0.9) == 3.0
    live_tr = Transition(s=np.zeros(2), a=0, r=2.0, s_next=np.ones(2), done=False,
                         mask_next=np.ones(2, dtype=bool))
    assert td_target(live_tr, target, 0.0) == 2.0


def test_td_target_empty_mask_is_an_error():
    net = qnet.qnet_init([2, 2], seed=0)
    target = qnet.make_target(net)
    tr = Transition(s=np.zeros(2), a=0, r=1.0, s_next=np.zeros(2), done=False,
                    mask_next=np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="no available"):
        td_target(tr, target, 0.9)
    # train_step refuses the same transition
    with pytest.raises(ValueError, match="no available"):
        qnet.train_step(net, target, stack([tr]), 0.9, 0.1)


def test_td_target_matches_value_iteration_backups():
    # 2-state, 2-action deterministic MDP
    transitions = {
        0: {0: (1, 1.0, False), 1: (1, 0.0, True)},
        1: {0: (0, 2.0, True), 1: (1, 0.5, False)},
    }
    gamma = 0.8
    q_star, values = _value_iteration(transitions, gamma, n_states=2, n_actions=2)
    # linear identity-feature net representing exactly q_star
    net = qnet.qnet_init([2, 2], seed=0)
    net.weights[0][:] = q_star.T
    net.biases[0][:] = 0.0
    target = qnet.make_target(net)
    for s in range(2):
        for a in range(2):
            s2, r, terminal = transitions[s][a]
            onehot = np.eye(2)[s2]
            tr = Transition(s=np.eye(2)[s], a=a, r=r, s_next=onehot, done=terminal,
                            mask_next=np.ones(2, dtype=bool))
            y = td_target(tr, target, gamma)
            assert y == pytest.approx(r + (0.0 if terminal else gamma * values[s2]), abs=1e-12)


def _random_batch(rng, net, size=6):
    n = net.output_dim
    batch = []
    for _ in range(size):
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        batch.append(
            Transition(
                s=rng.normal(size=net.input_dim),
                a=int(rng.integers(n)),
                r=float(rng.uniform(0, 5)),
                s_next=rng.normal(size=net.input_dim),
                done=bool(rng.random() < 0.3),
                mask_next=mask,
            )
        )
    return batch


def _batch_targets(net, target, batch, gamma):
    return np.array(
        [td_target(tr, target, gamma) for tr in batch]
    )


def _half_mse(net, batch, y):
    q = qnet.forward_batch(net, np.stack([tr.s for tr in batch]))
    qa = q[np.arange(len(batch)), [tr.a for tr in batch]]
    return 0.5 * float(np.mean((y - qa) ** 2))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("seed", range(5))
def test_train_step_gradient_matches_finite_differences(activation, seed):
    rng = np.random.default_rng(1000 + seed)
    net = qnet.qnet_init([3, 4, 5], seed=seed, activation=activation)
    target = qnet.make_target(net)
    batch = _random_batch(rng, net)
    y = _batch_targets(net, target, batch, gamma=0.9)

    before = qnet.flatten_params(net)
    lr = 1e-3
    qnet.train_step(net, target, stack(batch), gamma=0.9, lr=lr)
    applied = (before - qnet.flatten_params(net)) / lr

    probe = net.copy()
    fd = np.zeros_like(before)
    h = 1e-6
    for k in range(before.size):
        step = np.zeros_like(before)
        step[k] = h
        qnet.assign_params(probe, before + step)
        up = _half_mse(probe, batch, y)
        qnet.assign_params(probe, before - step)
        down = _half_mse(probe, batch, y)
        fd[k] = (up - down) / (2 * h)
    rel = np.abs(applied - fd) / np.maximum(np.abs(applied) + np.abs(fd), 1e-8)
    assert rel.max() < 1e-4


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_train_step_matches_dense_reference(hidden, activation):
    rng = np.random.default_rng(len(hidden))
    net = qnet.qnet_init([4, *hidden, 5], seed=3, activation=activation)
    target = qnet.make_target(qnet.qnet_init([4, *hidden, 5], seed=4, activation=activation))
    reference = net.copy()
    for step in range(20):
        batch = _random_batch(rng, net, size=8)  # 8 actions over 5 outputs: repeats
        assert len({tr.a for tr in batch}) < len(batch)
        loss = qnet.train_step(net, target, stack(batch), gamma=0.9, lr=0.05)
        ref_loss = dense_train_step(reference, target, batch, gamma=0.9, lr=0.05)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(
            qnet.flatten_params(net), qnet.flatten_params(reference), rtol=1e-12, atol=0
        )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pairs_forward_and_update_match_the_dense_reference(data):
    # raw states as Pairs: the first layer gathers the pairs' columns and the
    # update touches only those columns; item 0 and item n - 1 are genuine
    # items of rows that also hold padding, and rows share items
    n = data.draw(st.integers(2, 24), label="n")
    horizon = data.draw(st.integers(2, 6), label="horizon")
    hidden = data.draw(st.sampled_from([(3,), (6,), (5, 4)]), label="hidden")
    activation = data.draw(st.sampled_from(["tanh", "relu"]), label="activation")
    size = data.draw(st.integers(2, 6), label="batch")
    net = qnet.qnet_init([n, *hidden, n], seed=data.draw(st.integers(0, 99)), activation=activation)
    if data.draw(st.booleans(), label="input-major W0"):
        net = qnet.input_major(net)
    target = qnet.make_target(qnet.qnet_init([n, *hidden, n], seed=100, activation=activation))
    rewards = st.sampled_from([1.0, 2.0, 5.0, 0.25, -1.5])
    batch = []
    for row in range(size):
        items = set(data.draw(st.lists(st.integers(0, n - 1), max_size=horizon), label="items"))
        if row == 0:
            items = {0, n - 1}
        elif row == 1:
            items = set(sorted(items)[: horizon - 1]) | {0}
        s = np.zeros(n)
        for item in items:
            s[item] = data.draw(rewards)
        a = data.draw(st.integers(0, n - 1), label="a")
        r = data.draw(st.sampled_from([0.0, 3.0]), label="r")
        s_next = s.copy()
        s_next[a] = r
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mask[a] = True
        batch.append(Transition(s, a, r, s_next, data.draw(st.booleans()), mask))
    dense = stack(batch)
    pairs = qnet.Batch(raw_pairs(dense.s, horizon), dense.a, dense.r,
                       raw_pairs(dense.s_next, horizon), dense.done, dense.mask_next)
    assert pairs.s.items[0, :2].tolist() == [0, n - 1] and pairs.s.items[0, -1] == n

    for sparse, states in ((pairs.s, dense.s), (pairs.s_next, dense.s_next)):
        np.testing.assert_allclose(qnet.forward_batch(net, sparse),
                                   qnet.forward_batch(net, states), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(qnet.forward(net, sparse), qnet.forward(net, states),
                                   rtol=1e-12, atol=1e-15)
        # W0's memory order does not change a value
        assert (qnet.forward(net, sparse).tobytes()
                == qnet.forward(qnet.input_major(net), sparse).tobytes())

    reference, before = net.copy(), net.weights[0].copy()
    loss = qnet.train_step(net, target, pairs, gamma=0.9, lr=0.05)
    ref_loss = dense_train_step(reference, target, batch, gamma=0.9, lr=0.05)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-15)
    untouched = ~dense.s.any(axis=0)
    assert (net.weights[0][:, untouched].tobytes() == before[:, untouched].tobytes()
            == reference.weights[0][:, untouched].tobytes())
    np.testing.assert_allclose(qnet.flatten_params(net), qnet.flatten_params(reference),
                               rtol=1e-12, atol=1e-15)


def test_train_step_rejects_an_empty_batch():
    net = qnet.qnet_init([3, 4, 5], seed=1)
    target = qnet.make_target(net)
    empty = qnet.Batch(s=np.zeros((0, 3)), a=np.zeros(0, dtype=np.int64), r=np.zeros(0),
                       s_next=np.zeros((0, 3)), done=np.zeros(0, dtype=bool),
                       mask_next=np.zeros((0, 5), dtype=bool))
    with pytest.raises(ValueError, match="empty"):
        qnet.train_step(net, target, empty, 0.9, 0.1)


def test_train_step_zero_residual_leaves_parameters_unchanged():
    rng = np.random.default_rng(5)
    net = qnet.qnet_init([3, 6, 4], seed=5)
    target = qnet.make_target(net)
    states = rng.normal(size=(4, 3))
    actions = rng.integers(4, size=4)
    # terminal transitions whose r equals the Q(s, a) that training computes,
    # so every residual is exactly zero
    q = q_taken(net, states, actions)
    batch = [
        Transition(s=states[k], a=int(actions[k]), r=float(q[k]),
                   s_next=states[k], done=True, mask_next=np.ones(4, dtype=bool))
        for k in range(4)
    ]
    before = qnet.flatten_params(net)
    loss = qnet.train_step(net, target, stack(batch), gamma=0.9, lr=0.1)
    assert loss == pytest.approx(0.0, abs=1e-25)
    np.testing.assert_array_equal(before, qnet.flatten_params(net))


def test_train_step_converges_on_fixed_transition():
    net = qnet.qnet_init([2, 8, 3], seed=7)
    target = qnet.make_target(net)
    tr = Transition(s=np.array([0.3, -1.2]), a=1, r=4.0, s_next=np.zeros(2), done=True,
                    mask_next=np.ones(3, dtype=bool))
    for _ in range(3000):
        qnet.train_step(net, target, stack([tr]), gamma=0.9, lr=0.05)
    assert abs(4.0 - qnet.forward(net, tr.s)[1]) < 1e-3


def test_train_step_only_touches_taken_action_outputs():
    net = qnet.qnet_init([2, 3], seed=11)  # linear: output rows are per-action
    target = qnet.make_target(net)
    tr = Transition(s=np.array([1.0, 2.0]), a=0, r=3.0, s_next=np.zeros(2), done=True,
                    mask_next=np.ones(3, dtype=bool))
    before_w = net.weights[0].copy()
    before_b = net.biases[0].copy()
    qnet.train_step(net, target, stack([tr]), gamma=0.9, lr=0.01)
    assert not np.array_equal(net.weights[0][0], before_w[0])
    np.testing.assert_array_equal(net.weights[0][1:], before_w[1:])
    np.testing.assert_array_equal(net.biases[0][1:], before_b[1:])


def test_train_step_divergence_error():
    net = qnet.qnet_init([2, 3], seed=0)
    target = qnet.make_target(net)
    tr = Transition(s=np.array([1.0, 1.0]), a=0, r=np.inf, s_next=np.zeros(2), done=True,
                    mask_next=np.ones(3, dtype=bool))
    with pytest.raises(DivergenceError):
        qnet.train_step(net, target, stack([tr]), gamma=0.9, lr=0.1)


def test_train_step_divergence_error_from_a_taken_output_row():
    net = qnet.qnet_init([2, 4, 3], seed=0)
    target = qnet.make_target(net)
    net.weights[-1][1] = np.inf
    # terminal transitions skip the target forward, so only Q(s, a) sees the inf
    batch = [
        Transition(s=np.array([0.5, -1.0]), a=a, r=1.0, s_next=np.zeros(2), done=True,
                   mask_next=np.ones(3, dtype=bool))
        for a in (0, 1)
    ]
    with pytest.raises(DivergenceError):
        qnet.train_step(net, target, stack(batch), gamma=0.9, lr=0.1)


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_q_taken_agrees_with_forward_batch(hidden, activation):
    rng = np.random.default_rng(len(hidden))
    net = qnet.qnet_init([4, *hidden, 7], seed=2, activation=activation)
    states = rng.normal(size=(9, 4))
    actions = rng.integers(7, size=9)
    expected = qnet.forward_batch(net, states)[np.arange(9), actions]
    np.testing.assert_allclose(q_taken(net, states, actions), expected, rtol=1e-13)


def test_sync_target_copies_and_resets_staleness():
    net = qnet.qnet_init([3, 5, 4], seed=2)
    target = qnet.make_target(net)
    rng = np.random.default_rng(0)
    tr = Transition(s=rng.normal(size=3), a=1, r=2.0, s_next=rng.normal(size=3), done=False,
                    mask_next=np.ones(4, dtype=bool))
    for _ in range(5):
        qnet.train_step(net, target, stack([tr]), gamma=0.9, lr=0.01)
    assert target.staleness == 5
    s = rng.normal(size=3)
    assert not np.array_equal(qnet.forward(net, s), qnet.forward(target.net, s))
    qnet.sync_target(net, target)
    assert target.staleness == 0
    np.testing.assert_array_equal(qnet.forward(net, s), qnet.forward(target.net, s))


def test_sync_target_architecture_mismatch():
    net = qnet.qnet_init([3, 5, 4], seed=2)
    other = qnet.make_target(qnet.qnet_init([3, 6, 4], seed=2))
    with pytest.raises(ValidationError, match="architecture mismatch"):
        qnet.sync_target(net, other)


def test_masked_argmax_respects_mask_and_ties():
    values = np.array([1.0, 5.0, 5.0, 0.0])
    assert qnet.masked_argmax(values, np.array([True, True, True, True])) == 1
    assert qnet.masked_argmax(values, np.array([True, False, True, True])) == 2
    assert qnet.masked_argmax(values, np.array([True, False, False, True])) == 0
    with pytest.raises(ValueError, match="empty"):
        qnet.masked_argmax(values, np.zeros(4, dtype=bool))
    rng = np.random.default_rng(0)
    for _ in range(200):
        vals = rng.normal(size=9)
        mask = rng.random(9) < 0.5
        if not mask.any():
            mask[int(rng.integers(9))] = True
        assert mask[qnet.masked_argmax(vals, mask)]
    # a (U, n) mask picks per row, as each row alone; values may be shared or per row
    vals = rng.normal(size=(6, 9))
    masks = rng.random((6, 9)) < 0.5
    masks[np.arange(6), rng.integers(9, size=6)] = True
    picks = qnet.masked_argmax(vals, masks)
    assert picks.tolist() == [qnet.masked_argmax(v, m) for v, m in zip(vals, masks)]
    assert qnet.masked_argmax(values, np.ones((2, 4), dtype=bool)).tolist() == [1, 1]
    masks[4] = False
    with pytest.raises(ValueError, match="empty"):
        qnet.masked_argmax(vals, masks)


def test_batched_targets_agree_with_single_path():
    rng = np.random.default_rng(9)
    net = qnet.qnet_init([4, 6, 5], seed=9)
    target = qnet.make_target(net)
    batch = _random_batch(rng, net, size=12)
    y_single = _batch_targets(net, target, batch, gamma=0.7)
    # recover the batched-path targets from the loss identity
    q = qnet.forward_batch(net, np.stack([tr.s for tr in batch]))
    qa = q[np.arange(len(batch)), [tr.a for tr in batch]]
    loss = qnet.train_step(net.copy(), qnet.make_target(net), stack(batch), gamma=0.7, lr=0.0)
    assert loss == pytest.approx(float(np.mean((y_single - qa) ** 2)), abs=1e-12)


def test_training_trajectory_is_deterministic():
    def run():
        rng = np.random.default_rng(21)
        net = qnet.qnet_init([3, 7, 4], seed=21)
        target = qnet.make_target(net)
        for step in range(50):
            batch = _random_batch(rng, net, size=4)
            qnet.train_step(net, target, stack(batch), gamma=0.9, lr=0.01)
            if (step + 1) % 10 == 0:
                qnet.sync_target(net, target)
        return qnet.flatten_params(net)

    assert run().tobytes() == run().tobytes()


def test_checkpoint_round_trip(tmp_path):
    net = qnet.qnet_init([4, 9, 6], seed=13, activation="relu")
    path = tmp_path / "net.ckpt"
    qnet.save_qnet(net, path, manifest={"seed": 13, "steps": 0})
    back = qnet.load_qnet(path)
    assert back.layer_sizes == net.layer_sizes
    assert back.activation == "relu"
    np.testing.assert_array_equal(qnet.flatten_params(back), qnet.flatten_params(net))
    with open(manifest_path(path), encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 13
    with pytest.raises(ValidationError, match="not a Q-network"):
        qnet.load_qnet(tmp_path / "net.ckpt.manifest.json")


def test_checkpoint_load_is_exact(tmp_path):
    net = qnet.qnet_init([3, 4, 5], seed=2)
    path = tmp_path / "net.ckpt"
    qnet.save_qnet(net, path)
    good = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for cut in range(len(good)):
        bad.write_bytes(good[:cut])
        with pytest.raises(ValidationError):
            qnet.load_qnet(bad)
    bad.write_bytes(good + b"\x00")
    with pytest.raises(ValidationError, match="trailing"):
        qnet.load_qnet(bad)
    # the activation code is its own member
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    save_npz(bad, {**arrays, "activation": np.array(7)})
    with pytest.raises(ValidationError, match="activation"):
        qnet.load_qnet(bad)
    # a corrupt array shape must not make the loader allocate what it claims
    count = arrays["params"].size
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(bad, "w") as dst:
        for name in src.namelist():
            raw = src.read(name)
            if name == "params.npy":
                # the header's space padding absorbs the nine extra digits
                raw = raw.replace(b"(%d,), }" % count + b" " * 9, b"(%d,), }" % (count * 10**9))
                assert str(count * 10**9).encode() in raw
            dst.writestr(name, raw)
    with pytest.raises(ValidationError, match="truncated"):
        qnet.load_qnet(bad)
