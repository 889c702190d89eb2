import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfrl import mf
from cfrl.agent import TrainConfig
from cfrl.cli import main
from cfrl.config import RunConfig, dump_config, load_config
from cfrl.dataset import load_ratings, make_splits
from cfrl.env import TaskMode

from conftest import synthetic_profiles, write_ratings_file


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh Python interpreter on this checkout's `src`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _read_csv(path) -> list:
    """The rows of a CSV file the program wrote, as dicts keyed by its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _with_replay_actions(arrays) -> dict:
    """A trainer state's arrays with the replay columns of each row's action
    and reward that every earlier layout held (a replay that never wrapped
    holds the record's steps in order)."""
    return {**arrays, "replay_a": arrays["record_item"].astype(np.int64),
            "replay_r": arrays["record_reward"]}


@pytest.fixture
def workspace(tmp_path):
    """Ratings file plus a small config pointing at it."""
    data = tmp_path / "ratings.tsv"
    write_ratings_file(data, synthetic_profiles(n_users=14, n_items=30, per_user=22, seed=8))
    cfg = tmp_path / "config.ini"
    cfg.write_text(
        f"""
[run]
seed = 3
out = {tmp_path / "out"}

[data]
path = {data}
format = tab
name = synth

[split]
count = 2
test_fraction = 0.2
min_ratings = 10

[mf]
dim = 3
reg = 0.01
lr = 0.02
epochs = 4

[agent]
episodes = 3
horizon = 4
epsilon = 0.2
q_lr = 0.01
sync_period = 5
batch_size = 4
replay_capacity = 500
hidden = 8
task = task2

[eval]
tasks = task1
methods = random,popular
""",
        encoding="utf-8",
    )
    return tmp_path, data, cfg


def test_config_round_trip(tmp_path):
    agent = TrainConfig(episodes=20000, hidden_sizes=(32, 16), task=TaskMode.TASK_II, gamma=0.5)
    cfg = RunConfig(seed=11, agent=agent, methods=("random", "mf"),
                    eval_tasks=(TaskMode.TASK_II,))
    path = tmp_path / "cfg.ini"
    path.write_text(dump_config(cfg), encoding="utf-8")
    back = load_config(path)
    assert back == cfg
    assert "hidden = 32,16\n" in dump_config(back) and "task = task2\n" in dump_config(back)


# every default a run takes, as the resolved config states it; a default that
# moves between RunConfig and TrainConfig must not change it (an empty path
# is written with the space after its '=')
DEFAULT_CONFIG = """[run]
seed = 0
out = runs/latest

[data]
path =\x20
format = tab
name = dataset

[split]
count = 10
test_fraction = 0.1
min_ratings = 100

[mf]
dim = 16
reg = 0.01
lr = 0.01
epochs = 30

[agent]
episodes = 20000
horizon = 40
gamma = 0.9
epsilon = 0.1
q_lr = 0.001
sync_period = 500
batch_size = 32
replay_capacity = 100000
hidden = 64
activation = tanh
task = task1
checkpoint_every = 0

[eval]
tasks = task1,task2
methods = random,popular,impact,mf,linucb,dqn,cfrl
linucb_alpha = 1.0
jobs = 1
"""


def test_every_default_is_pinned(tmp_path):
    assert dump_config(RunConfig()) == DEFAULT_CONFIG
    path = tmp_path / "empty.ini"
    path.write_text("", encoding="utf-8")
    assert load_config(path) == RunConfig()
    assert RunConfig().train_config() == TrainConfig(episodes=20000, seed=0)


@pytest.mark.parametrize("command", ["ingest", "pretrain", "train", "eval", "benchmark"])
@pytest.mark.parametrize("section, key", [("agent", "task"), ("eval", "tasks")])
def test_a_bad_task_name_fails_every_command_at_load(workspace, capsys, command, section, key):
    tmp_path, _, cfg_path = workspace
    text = cfg_path.read_text(encoding="utf-8")
    old = {"task": "task = task2\n", "tasks": "tasks = task1\n"}[key]
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, f"{key} = task3\n"), encoding="utf-8")
    argv = [command, "--config", str(bad)] + (["--method", "random"] if command == "eval" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: [{section}] {key}: unknown task 'task3'")
    assert not (tmp_path / "out").exists()


def test_readme_example_config_loads(tmp_path):
    # README's ```ini block is the documented example; a renamed key or a value
    # that the config's checks refuse must fail here instead of in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = [block.split("```", 1)[0] for block in readme.split("```ini\n")[1:]]
    path = tmp_path / "example.ini"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    assert dump_config(cfg) != dump_config(RunConfig())


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[agent]\nlearning_rate = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


@pytest.mark.parametrize(
    "text, named",
    [
        ("seed = 3\n[run]\nout = o\n", "no section headers"),
        ("[run]\nseed = 3\nseed = 4\n", "'seed'"),
        ("[run]\nseed = 3\n[run]\nout = o\n", "'run'"),
        ("[run]\nseed = abc\n", "[run] seed"),
        ("[DEFAULT]\nseed = 7\n", "[DEFAULT]"),
        ("[DEFAULT]\nseed = 7\n[run]\nout = o\n", "[DEFAULT]"),
    ],
    ids=["no-section-header", "repeated-key", "repeated-section", "unparsable-value",
         "default-section-alone", "default-section-beside-others"],
)
def test_malformed_config_exits_2_without_a_traceback(tmp_path, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    out = _python("-m", "cfrl.cli", "ingest", "--config", str(path))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith(f"error: {path}:") and named in out.stderr


def test_ingest_prints_stats_and_writes_snapshot(workspace, capsys):
    tmp_path, data, cfg = workspace
    assert main(["ingest", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "mean_rating" in out and "rating_count" in out
    assert (tmp_path / "out" / "dataset.snap").exists()
    assert (tmp_path / "out" / "config.resolved.ini").exists()


def test_ingest_of_its_own_snapshot_writes_the_same_snapshot(workspace, capsys):
    tmp_path, data, cfg = workspace
    assert main(["ingest", "--config", str(cfg)]) == 0
    stats = capsys.readouterr().out.splitlines()[:-1]   # the last line names the snapshot
    snap = tmp_path / "out" / "dataset.snap"
    assert main(["ingest", "--config", str(cfg), "--data", str(snap),
                 "--out", str(tmp_path / "out2")]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == stats
    assert (tmp_path / "out2" / "dataset.snap").read_bytes() == snap.read_bytes()


def test_missing_data_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = main(["ingest", "--data", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_unreadable_data_path_exits_2(tmp_path, capsys):
    code = main(["pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_pretrain_writes_deterministic_checkpoint(workspace, capsys):
    tmp_path, data, cfg = workspace
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["pretrain", "--config", str(cfg), "--out", str(out_a)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("train_rmse") == 4  # one line per epoch
    assert main(["pretrain", "--config", str(cfg), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "mf_split0.ckpt").read_bytes()
    bytes_b = (out_b / "mf_split0.ckpt").read_bytes()
    assert bytes_a == bytes_b


# id: (section, line of the workspace config, its out-of-range replacement, key)
_OUT_OF_RANGE = {
    "epochs-3": ("mf", "epochs = 4", "epochs = -3", "epochs"),
    "lr-0.01": ("mf", "lr = 0.02", "lr = -0.01", "lr"),
    "lr0": ("mf", "lr = 0.02", "lr = 0", "lr"),
    "reg-5": ("mf", "reg = 0.01", "reg = -5", "reg"),
    "dim0": ("mf", "dim = 3", "dim = 0", "dim"),
    "gamma2": ("agent", "epsilon = 0.2", "epsilon = 0.2\ngamma = 2.0", "gamma"),
    "test_fraction1.5": ("split", "test_fraction = 0.2", "test_fraction = 1.5", "test_fraction"),
    "hidden64,-3": ("agent", "hidden = 8", "hidden = 64,-3", "hidden"),
    "hidden0": ("agent", "hidden = 8", "hidden = 0", "hidden"),
    "activation-relu2": ("agent", "hidden = 8", "hidden = 8\nactivation = relu2", "activation"),
    "format-xml": ("data", "format = tab", "format = xml", "format"),
    "methods-poppular": ("eval", "methods = random,popular", "methods = poppular", "methods"),
    "jobs0": ("eval", "methods = random,popular", "methods = random,popular\njobs = 0", "jobs"),
    "linucb_alpha-nan": ("eval", "methods = random,popular",
                         "methods = random,popular\nlinucb_alpha = nan", "linucb_alpha"),
    "linucb_alpha-1": ("eval", "methods = random,popular",
                       "methods = random,popular\nlinucb_alpha = -1", "linucb_alpha"),
}
_COMMANDS = ("ingest", "pretrain", "train", "eval", "benchmark")


@pytest.mark.parametrize(
    "command, probe",
    [(command, probe) for probe in _OUT_OF_RANGE for command in _COMMANDS],
    # the test is named for pretrain, whose cases the probe alone names
    ids=[probe if command == "pretrain" else f"{probe}-{command}"
         for probe in _OUT_OF_RANGE for command in _COMMANDS],
)
def test_pretrain_out_of_range_mf_setting_exits_2(workspace, capsys, command, probe):
    # every command refuses the config as it loads, naming file, section and field
    tmp_path, data, cfg_path = workspace
    section, old, new, key = _OUT_OF_RANGE[probe]
    text = cfg_path.read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    argv = [command, "--config", str(bad)] + (["--method", "random"] if command == "eval" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: [{section}] {key} ")
    assert not (tmp_path / "out").exists()


def test_pretrain_manifest_rmse_matches_recomputation(workspace):
    tmp_path, data, cfg_path = workspace
    out = tmp_path / "out"
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    ckpt = out / "mf_split0.ckpt"
    manifest = json.loads((out / "mf_split0.ckpt.manifest.json").read_text(encoding="utf-8"))
    model = mf.load_mf(ckpt)
    cfg = load_config(cfg_path)
    ds = load_ratings(cfg.data_path, cfg.data_format)
    splits = make_splits(ds, cfg.split, cfg.seed)
    users, items, ratings = ds.triples()
    train = np.isin(users, list(splits[0].train_users))
    pred = np.sum(model.U[:, users[train]] * model.V[:, items[train]], axis=0)
    recomputed = float(np.sqrt(np.mean((pred - ratings[train]) ** 2)))
    assert manifest["train_rmse"] == pytest.approx(recomputed, abs=1e-12)


def test_train_smoke_one_episode_row(workspace):
    tmp_path, data, cfg_path = workspace
    single = tmp_path / "single.ini"
    text = cfg_path.read_text().replace("episodes = 3", "episodes = 1")
    text = text.replace("horizon = 4", "horizon = 2")
    single.write_text(text, encoding="utf-8")
    assert main(["pretrain", "--config", str(single)]) == 0
    assert main(["train", "--config", str(single), "--method", "cfrl"]) == 0
    logs = _read_csv(tmp_path / "out" / "cfrl_task2_split0_train_log.csv")
    assert len(logs) == 1
    assert (tmp_path / "out" / "cfrl_task2_split0.ckpt").exists()


def test_train_log_rewards_replayable_from_trace(workspace):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl", "--trace"]) == 0
    logs = _read_csv(tmp_path / "out" / "cfrl_task2_split0_train_log.csv")
    trace = _read_csv(tmp_path / "out" / "cfrl_task2_split0_trace.csv")
    sums = {}
    users = {}
    for row in trace:
        ep = int(row["episode"])
        sums[ep] = sums.get(ep, 0.0) + float(row["reward"])
        users[ep] = int(row["user"])
    assert len(logs) == len(sums) == 3
    for log in logs:
        assert abs(float(log["reward_sum"]) - sums[int(log["episode"])]) < 1e-9
        assert int(log["user"]) == users[int(log["episode"])]


def test_train_resume_matches_uninterrupted_run(workspace):
    # a run of 5 episodes, and the same run stopped after 3 and resumed to
    # 5, each with --trace, write the same checkpoint, manifest, training
    # log and trace, byte for byte: all of them derive from the trainer's
    # record, which the state carries across the resume
    tmp_path, data, cfg_path = workspace
    text = cfg_path.read_text()
    straight_cfg, resumed_cfg = tmp_path / "straight.ini", tmp_path / "resumed.ini"
    straight_cfg.write_text(text.replace("episodes = 3", "episodes = 5")
                            .replace(str(tmp_path / "out"), str(tmp_path / "straight")),
                            encoding="utf-8")
    resumed_cfg.write_text(text.replace("episodes = 3", "episodes = 5"), encoding="utf-8")
    for config in (straight_cfg, cfg_path):
        assert main(["pretrain", "--config", str(config)]) == 0
    for method in ("cfrl", "dqn"):
        assert main(["train", "--config", str(straight_cfg), "--method", method, "--trace"]) == 0
        assert main(["train", "--config", str(cfg_path), "--method", method, "--trace"]) == 0
        assert main(["train", "--config", str(resumed_cfg), "--method", method,
                     "--resume", "--trace"]) == 0
        stem = f"{method}_task2_split0"
        for name in (f"{stem}.ckpt", f"{stem}.ckpt.manifest.json", f"{stem}_train_log.csv",
                     f"{stem}_trace.csv"):
            resumed = (tmp_path / "out" / name).read_bytes()
            assert resumed == (tmp_path / "straight" / name).read_bytes(), name
        logs = _read_csv(tmp_path / "out" / f"{stem}_train_log.csv")
        assert [int(log["episode"]) for log in logs] == list(range(5))
        trace = _read_csv(tmp_path / "out" / f"{stem}_trace.csv")
        assert [(int(row["episode"]), int(row["t"])) for row in trace] == [
            (e, t) for e in range(5) for t in range(4)]
        assert [row["done"] for row in trace] == ["False", "False", "False", "True"] * 5


def test_train_resume_refuses_a_state_without_an_episode_record(workspace, capsys):
    # a trainer state saved before the record existed kept its step count
    # and logs in its meta; --resume refuses it and names the file
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    state = tmp_path / "out" / "cfrl_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = _with_replay_actions({key: saved[key] for key in saved.files})
    arrays = {key: array for key, array in arrays.items() if not key.startswith("record_")}
    meta = json.loads(arrays["meta"].tobytes())
    logs = _read_csv(tmp_path / "out" / "cfrl_task2_split0_train_log.csv")
    meta.update(train_steps=3 * 4, logs=[{**log, "episode": int(log["episode"])} for log in logs])
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl", "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "train afresh" in err


def test_train_resume_from_truncated_state_exits_2(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    state = tmp_path / "out" / "cfrl_task2_split0_state.npz"
    state.write_bytes(state.read_bytes()[:-40])
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl", "--resume"]) == 2
    assert str(state) in capsys.readouterr().err



def test_train_resume_of_a_dqn_state_with_dense_replay_exits_2(workspace, capsys):
    # earlier versions kept each raw replay row as two dense n-wide states
    tmp_path, data, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--method", "dqn"]) == 0
    state = tmp_path / "out" / "dqn_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = _with_replay_actions({key: saved[key] for key in saved.files})
    rows = len(arrays["replay_a"])
    arrays["replay_s"] = arrays["replay_s_next"] = np.zeros((rows, 30))
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", "dqn", "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "replay format changed" in err


@pytest.mark.parametrize("method", ["cfrl", "dqn"])
def test_train_resume_of_a_state_without_bootstrap_values_exits_2(workspace, capsys, method):
    # earlier versions kept no bootstrap value in the replay rows
    tmp_path, data, cfg_path = workspace
    if method == "cfrl":
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", method]) == 0
    state = tmp_path / "out" / f"{method}_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = _with_replay_actions({key: saved[key] for key in saved.files
                                       if key not in ("replay_next_value", "replay_fresh")})
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", method, "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "replay format changed" in err and "train afresh" in err


def test_train_resume_of_a_cfrl_state_with_stored_successors_exits_2(workspace, capsys):
    # earlier versions kept each latent replay row's successor as a column
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    state = tmp_path / "out" / "cfrl_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = _with_replay_actions({key: saved[key] for key in saved.files})
    arrays["replay_s_next"] = arrays["replay_s"] + 0.5
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl", "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "replay format changed" in err and "train afresh" in err


@pytest.mark.parametrize("method", ["cfrl", "dqn"])
def test_train_resume_of_a_state_with_a_reward_that_is_not_finite_exits_2(
        workspace, capsys, method):
    # a damaged state, not a diverging run (which exits 1)
    tmp_path, data, cfg_path = workspace
    if method == "cfrl":
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", method]) == 0
    state = tmp_path / "out" / f"{method}_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = {key: saved[key] for key in saved.files}
    arrays["record_reward"][0] = np.inf
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", method, "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "a reward is not finite" in err


def test_train_resume_of_a_state_with_a_reward_that_step_does_not_pay_exits_2(workspace, capsys):
    # a logged rating recorded as another: a valid archive whose record no
    # play of the environment could have written
    tmp_path, data, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--method", "dqn"]) == 0
    state = tmp_path / "out" / "dqn_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = {key: saved[key] for key in saved.files}
    rewards = arrays["record_reward"]
    rated = np.flatnonzero(rewards)[0]
    logged, rewards[rated] = rewards[rated], rewards[rated] % 5 + 1
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", "dqn", "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err
    assert f"reward {float(rewards[rated])!r} is not the {float(logged)!r} that step pays" in err


@pytest.mark.parametrize("method", ["cfrl", "dqn"])
def test_train_resume_of_a_state_whose_replay_stores_successor_masks_exits_2(
        workspace, capsys, method):
    # the layout before the environment derived a successor's availability:
    # each row kept its step in its episode and the mask packed to bits
    tmp_path, data, cfg_path = workspace
    if method == "cfrl":
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", method]) == 0
    state = tmp_path / "out" / f"{method}_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = {key: saved[key] for key in saved.files}
    rows = len(arrays["replay_next_value"])
    arrays["replay_t"] = np.tile(np.arange(4, dtype=np.int32), rows // 4)
    arrays["replay_mask_bits"] = np.full((rows, 4), 255, np.uint8)
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", method, "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "replay format changed" in err and "train afresh" in err


@pytest.mark.parametrize("method", ["cfrl", "dqn"])
def test_train_resume_of_a_state_whose_replay_stores_episodes_and_stamps_exits_2(
        workspace, capsys, method):
    # the layout before the record said whether the environment ended an
    # episode: each replay row kept its episode, its terminal flag and the
    # sync count its bootstrap value was computed under
    tmp_path, data, cfg_path = workspace
    if method == "cfrl":
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", method]) == 0
    state = tmp_path / "out" / f"{method}_task2_split0_state.npz"
    with np.load(state) as saved:
        arrays = {key: saved[key] for key in saved.files if key not in ("record_done", "replay_fresh")}
    rows = len(arrays["replay_next_value"])
    arrays.update(replay_episode=np.repeat(np.arange(rows // 4, dtype=np.int32), 4),
                  replay_done=np.arange(rows) % 4 == 3, replay_stamp=np.full(rows, -1, np.int32))
    with open(state, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", method, "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "replay format changed" in err and "train afresh" in err


def test_eval_of_a_checkpoint_with_nan_parameters_exits_2(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--method", "dqn"]) == 0
    ckpt = tmp_path / "out" / "dqn_task2_split0.ckpt"
    with np.load(ckpt) as saved:
        arrays = {key: saved[key] for key in saved.files}
    arrays["params"][3] = np.nan
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--method", "dqn", "--task", "task2"]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "not finite" in err


def test_old_binary_snapshot_as_data_exits_2(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    old = tmp_path / "dataset.snap"
    # the head of a snapshot in the earlier binary format: magic, then m, n, count
    old.write_bytes(b"CFRLDS\x00\x01" + struct.pack("<3q", 943, 1586, 99518))
    assert main(["pretrain", "--config", str(cfg_path), "--data", str(old)]) == 2
    err = capsys.readouterr().err
    assert str(old) in err and "not UTF-8" in err and "cfrl ingest" in err

@pytest.mark.parametrize(
    "old, new, key",
    [
        ("[agent]\n", "[agent]\ngamma = 0.5\n", "gamma"),
        ("q_lr = 0.01", "q_lr = 0.02", "q_lr"),
        ("epsilon = 0.2", "epsilon = 0.3", "epsilon"),
        ("seed = 3", "seed = 4", "seed"),
        ("test_fraction = 0.2", "test_fraction = 0.3", "train_users"),
    ],
    ids=["gamma", "q_lr", "epsilon", "seed", "split"],
)
def test_train_resume_of_a_changed_run_exits_2(workspace, capsys, old, new, key):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    text = cfg_path.read_text()
    assert old in text
    changed = tmp_path / "changed.ini"
    changed.write_text(text.replace(old, new).replace("episodes = 3", "episodes = 5"),
                       encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(changed), "--method", "cfrl", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "cfrl_task2_split0_state.npz" in err and f"{key}" in err and "differ" in err

def test_train_divergence_exits_1(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    bad = tmp_path / "bad.ini"
    bad.write_text(
        cfg_path.read_text()
        .replace("q_lr = 0.01", "q_lr = 1e9")
        .replace("episodes = 3", "episodes = 30"),
        encoding="utf-8",
    )
    assert main(["pretrain", "--config", str(bad)]) == 0
    assert main(["train", "--config", str(bad), "--method", "cfrl"]) == 1
    assert "diverged" in capsys.readouterr().err


def test_train_divergence_keeps_the_trace_of_completed_episodes(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    bad = tmp_path / "bad.ini"
    bad.write_text(
        cfg_path.read_text()
        .replace("q_lr = 0.01", "q_lr = 1e9")
        .replace("episodes = 3", "episodes = 30"),
        encoding="utf-8",
    )
    assert main(["pretrain", "--config", str(bad)]) == 0
    assert main(["train", "--config", str(bad), "--method", "cfrl", "--trace"]) == 1
    assert "diverged" in capsys.readouterr().err
    logs = _read_csv(tmp_path / "out" / "cfrl_task2_split0_train_log.csv")
    trace = _read_csv(tmp_path / "out" / "cfrl_task2_split0_trace.csv")
    assert 0 < len(logs) < 30
    horizon = 4   # the workspace config's [agent] horizon
    assert [(int(row["episode"]), int(row["t"])) for row in trace] == [
        (int(log["episode"]), t) for log in logs for t in range(horizon)
    ]


def test_train_requires_pretrained_model(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    code = main(["train", "--config", str(cfg_path), "--method", "cfrl",
                 "--out", str(tmp_path / "fresh")])
    assert code == 2
    assert "pretrain" in capsys.readouterr().err


def test_train_and_eval_linucb(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "linucb"]) == 0
    assert (tmp_path / "out" / "linucb_task2_split0.npz").exists()
    assert main(["eval", "--config", str(cfg_path), "--method", "linucb",
                 "--task", "task2"]) == 0
    assert "mean reward" in capsys.readouterr().out


def test_eval_refuses_linucb_archive_with_unknown_compression(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "linucb"]) == 0
    ckpt = tmp_path / "out" / "linucb_task2_split0.npz"
    raw = bytearray(ckpt.read_bytes())
    central = int.from_bytes(raw[-6:-2], "little")   # the end record's central directory offset
    raw[central + 10] ^= 1   # the first member's compression method: stored (0) becomes 1
    ckpt.write_bytes(raw)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--method", "linucb",
                 "--task", "task2"]) == 2
    assert str(ckpt) in capsys.readouterr().err


@pytest.mark.parametrize("split", ["2", "-1"], ids=["count", "negative"])
@pytest.mark.parametrize(
    "command",
    [["pretrain"], ["train", "--method", "cfrl"], ["eval", "--method", "random"]],
    ids=["pretrain", "train", "eval"],
)
def test_split_outside_the_configured_count_exits_2(workspace, capsys, command, split):
    tmp_path, data, cfg_path = workspace
    # [split] count = 2: only splits 0 and 1 exist
    assert main([*command, "--config", str(cfg_path), "--split", split]) == 2
    assert f"--split {split}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--resume", "--trace"])
def test_train_linucb_refuses_trainer_flags(workspace, capsys, flag):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    ckpt = tmp_path / "out" / "linucb_task2_split0.npz"
    ckpt.write_bytes(b"the previous checkpoint")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--method", "linucb", flag]) == 2
    assert flag in capsys.readouterr().err
    assert ckpt.read_bytes() == b"the previous checkpoint"
    assert not (tmp_path / "out" / "linucb_task2_split0_trace.csv").exists()


def test_eval_takes_the_task_that_train_trained(workspace, capsys):
    # the workspace's [agent] task is task2, and no --task is given
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    assert main(["eval", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    assert (tmp_path / "out" / "eval_cfrl_task2_split0.csv").exists()


def test_eval_random_writes_scores(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["eval", "--config", str(cfg_path), "--method", "random",
                 "--task", "task1", "--split", "1"]) == 0
    out = capsys.readouterr().out
    assert "random task1 split 1" in out
    scores = (tmp_path / "out" / "eval_random_task1_split1.csv").read_text()
    assert scores.startswith("user,score")
    for line in scores.splitlines()[1:]:
        float(line.split(",")[1])


def test_eval_truncated_checkpoint_exits_2(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", "cfrl"]) == 0
    ckpt = tmp_path / "out" / "cfrl_task2_split0.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--method", "cfrl", "--task", "task2"]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, wider",
    [("dqn", "items"), ("cfrl", "items"), ("cfrl", "factors")],
)
def test_eval_refuses_a_q_network_that_does_not_fit(workspace, capsys, method, wider):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--method", method]) == 0
    if wider == "items":
        # the network has 30 actions; this file has 40 items
        data = tmp_path / "wider.tsv"
        write_ratings_file(data, synthetic_profiles(n_users=14, n_items=40, per_user=22, seed=8))
        # factors that fit the file, so the network is the one artifact that does not
        assert main(["pretrain", "--config", str(cfg_path), "--data", str(data)]) == 0
        needs = "40 actions"
    else:
        # the network takes the 3 factors it was trained on; the new model has 4
        cfg_path.write_text(cfg_path.read_text().replace("dim = 3", "dim = 4"), encoding="utf-8")
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        needs = "4 inputs"
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--method", method, "--task", "task2",
                 "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "out" / f"{method}_task2_split0.ckpt") in err and needs in err


@pytest.mark.parametrize("method", ["mf", "linucb"])
def test_eval_refuses_factors_that_do_not_fit_the_data(workspace, capsys, method):
    tmp_path, data, cfg_path = workspace
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    # the factors were pretrained on 30 items; this file has 40
    wider = tmp_path / "wider.tsv"
    write_ratings_file(wider, synthetic_profiles(n_users=14, n_items=40, per_user=22, seed=8))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--method", method, "--task", "task2",
                 "--data", str(wider)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "out" / "mf_split0.ckpt") in err and "14 x 30" in err
    assert "14 x 40" in err


def test_eval_matches_benchmark_cells(workspace):
    """`cfrl eval` and `cfrl benchmark` build every method the same way."""
    tmp_path, data, cfg_path = workspace
    both = tmp_path / "both.ini"
    both.write_text(cfg_path.read_text().replace("tasks = task1", "tasks = task1,task2"),
                    encoding="utf-8")
    methods = ("random", "popular", "impact", "mf")
    assert main(["benchmark", "--config", str(both), "--methods", ",".join(methods),
                 "--out", str(tmp_path / "grid")]) == 0
    rows = csv.reader((tmp_path / "grid" / "report.csv").read_text().splitlines())
    report = {(method, task, split): score for method, task, _, split, score in rows}
    assert main(["pretrain", "--config", str(both), "--split", "1"]) == 0
    for method in methods:
        for task in ("task1", "task2"):
            assert main(["eval", "--config", str(both), "--method", method,
                         "--task", task, "--split", "1"]) == 0
            path = tmp_path / "out" / f"eval_{method}_{task}_split1.csv"
            rows = list(csv.reader(path.read_text().splitlines()))[1:]
            mean = float(np.mean([float(score) for _, score in rows]))
            assert repr(mean) == report[(method, task, "1")], (method, task)


def test_benchmark_single_cell_and_determinism(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    out_a = tmp_path / "ba"
    out_b = tmp_path / "bb"
    assert main(["benchmark", "--config", str(cfg_path), "--methods", "random",
                 "--out", str(out_a)]) == 0
    text = capsys.readouterr().out
    assert "random" in text and "task1" in text
    assert main(["benchmark", "--config", str(cfg_path), "--methods", "random",
                 "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_text() == (out_b / "report.csv").read_text()


def test_benchmark_cell_failure_exits_1(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    # horizon 40 with 22-rating users makes every task1 episode unrunnable
    broken = tmp_path / "broken.ini"
    broken.write_text(cfg_path.read_text().replace("horizon = 4", "horizon = 40"),
                      encoding="utf-8")
    code = main(["benchmark", "--config", str(broken), "--methods", "random",
                 "--out", str(tmp_path / "bf")])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out
    report = (tmp_path / "bf" / "report.csv").read_text()
    assert "ERROR" in report


def test_benchmark_empty_methods_is_usage_error(workspace, capsys):
    tmp_path, data, cfg_path = workspace
    assert main(["benchmark", "--config", str(cfg_path), "--methods", ""]) == 2
    assert "methods" in capsys.readouterr().err


_JOBS_CASES = [(jobs, where) for jobs in (0, -3) for where in ("flag", "config")]


@pytest.mark.parametrize(
    "where, key, value, refusal",
    [(where, "jobs", jobs, f"jobs must be >= 1, not {jobs}") for jobs, where in _JOBS_CASES]
    # a flag's value is checked as the file's are, and the message names the flag
    + [("flag", "methods", "poppular", "error: --methods has unknown methods ['poppular']")],
    ids=[f"{jobs}-{where}" for jobs, where in _JOBS_CASES] + ["methods-poppular-flag"],
)
def test_benchmark_with_fewer_than_one_job_is_usage_error(workspace, capsys, where, key, value,
                                                          refusal):
    tmp_path, data, cfg_path = workspace
    if where == "flag":
        argv = ["--config", str(cfg_path), f"--{key}", str(value)]
    else:
        config = tmp_path / "jobs.ini"
        config.write_text(cfg_path.read_text() + f"{key} = {value}\n", encoding="utf-8")
        argv = ["--config", str(config)]
    # the last --methods given wins
    assert main(["benchmark", "--methods", "random", *argv, "--out", str(tmp_path / "j")]) == 2
    err = capsys.readouterr().err
    assert refusal in err and (where == "config" or f"error: --{key} " in err)
    assert not (tmp_path / "j").exists()


def test_benchmark_runs_from_snapshot(workspace):
    tmp_path, data, cfg_path = workspace
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    snap = tmp_path / "out" / "dataset.snap"
    assert main(["benchmark", "--config", str(cfg_path), "--data", str(snap),
                 "--methods", "random,popular", "--out", str(tmp_path / "snapbench")]) == 0


def test_a_benchmark_with_popular_impact_and_p_values_loads_no_scipy(workspace):
    # the program depends on numpy alone, also where it ranks items by the
    # training graph and tests the two leading methods
    tmp_path, data, cfg_path = workspace
    out_dir = tmp_path / "noscipy"
    code = (
        "import sys; from cfrl import cli; "
        f"code = cli.main(['benchmark', '--config', {str(cfg_path)!r}, "
        f"'--methods', 'random,popular,impact', '--out', {str(out_dir)!r}]); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = _python("-c", code)
    out.check_returncode()
    assert out.stdout.splitlines()[-1] == "0 []"
    (p_row,) = [line for line in (out_dir / "report.txt").read_text().splitlines()
                if line.startswith("p-value")]
    assert 0.0 <= float(p_row.split()[1]) <= 1.0


def test_importing_the_cli_loads_no_evaluation_or_process_pool():
    # ingest, pretrain and train use neither; eval and benchmark import them
    code = ("import sys, cfrl.cli; "
            "print(sorted(m for m in ('cfrl.evaluate', 'concurrent.futures.process') "
            "if m in sys.modules))")
    out = _python("-c", code)
    out.check_returncode()
    assert out.stdout.splitlines()[-1] == "[]"
