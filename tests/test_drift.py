"""tools/drift.py finds a change of one ulp, or of one byte in a text output, and
none between equal outputs, and extracts the base tree of a git revision itself."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfrl import qnet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import drift  # noqa: E402


def _outputs(tmp_path, name):
    out = tmp_path / name
    out.mkdir()
    (out / "cfrl_task2_split0_trace.csv").write_text(
        "episode,user,t,action,reward,done\n0,3,0,7,4.0,False\n0,3,1,2,0.0,True\n")
    (out / "cfrl_task2_split0_train_log.csv").write_text(_LOG)
    (out / "report.csv").write_text(
        "method,task,dataset,split,score\ncfrl,task2,u,0,1.25\ndqn,task2,u,0,0.5\n")
    _write_state(out / "cfrl_task2_split0_state.npz", _STATE)
    return out


_STATE = {"record_reward": np.array([4.0, 0.0, 2.5]), "record_item": np.array([7, 2, 5], np.int32),
          "replay_stamp": np.array([-1, 0, 0], np.int32)}


def _write_state(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


_LOG = ("episode,user,reward_sum,mean_td_loss,epsilon,sync_count\n"
        "0,3,4.0,0.5,0.1,0\n1,5,2.0,0.25,0.1,1\n")


def test_a_planted_one_ulp_change_in_an_output_weight_is_drift(tmp_path):
    net = qnet.qnet_init([4, 6, 9], seed=3)
    base, head, same = (_outputs(tmp_path, name) for name in ("base", "head", "same"))
    qnet.save_qnet(net, base / "cfrl_task2_split0.ckpt")
    qnet.save_qnet(net, same / "cfrl_task2_split0.ckpt")
    w = net.weights[-1]
    w[5, 2] = np.nextafter(w[5, 2], np.inf)
    qnet.save_qnet(net, head / "cfrl_task2_split0.ckpt")

    lines, drifted = drift.compare_checkpoints(base, head)
    assert drifted == 1
    ulp = np.spacing(abs(qnet.load_qnet(base / "cfrl_task2_split0.ckpt").weights[-1][5, 2]))
    assert f"1 of {net.param_count} differ, max abs {ulp:.3g}" in "\n".join(lines)
    # the tree against itself: no drift anywhere
    for compare in (drift.compare_checkpoints, drift.compare_states, drift.compare_traces,
                    drift.compare_train_logs, drift.compare_cells):
        assert compare(base, same)[1] == 0


def test_a_planted_one_ulp_change_in_a_trainer_state_is_drift(tmp_path):
    base, head = _outputs(tmp_path, "base"), _outputs(tmp_path, "head")
    reward = _STATE["record_reward"].copy()
    reward[2] = np.nextafter(reward[2], np.inf)
    # a changed layout: the head state drops one array and adds another
    layout = {key: col for key, col in _STATE.items() if key != "replay_stamp"}
    _write_state(head / "cfrl_task2_split0_state.npz",
                 {**layout, "record_reward": reward, "replay_t": np.zeros(3, np.int32)})
    lines, drifted = drift.compare_states(base, head)
    assert drifted == 1
    assert "  cfrl_task2_split0_state.npz[record_reward]: 1 of 3 differ" in lines
    assert "  cfrl_task2_split0_state.npz[record_item]: 0 of 3 differ" in lines
    assert ("  cfrl_task2_split0_state.npz: only the base state holds replay_stamp (not drift)"
            in lines)
    assert "  cfrl_task2_split0_state.npz: only the head state holds replay_t (not drift)" in lines


def test_trace_and_cell_changes_are_drift(tmp_path):
    base, head = _outputs(tmp_path, "base"), _outputs(tmp_path, "head")
    (head / "cfrl_task2_split0_trace.csv").write_text(
        "episode,user,t,action,reward,done\n0,3,0,7,4.0,False\n0,3,1,5,0.0,True\n")
    (head / "report.csv").write_text(
        "method,task,dataset,split,score\ncfrl,task2,u,0,1.25\ndqn,task2,u,0,0.75\n")
    lines, drifted = drift.compare_traces(base, head)
    assert drifted == 1 and "first at episode 0 user 3 step 1" in lines[0]
    lines, drifted = drift.compare_cells(base, head)
    assert drifted == 1 and "method=dqn" in lines[0] and "delta 0.25" in lines[0]


def test_train_log_changes_are_drift(tmp_path):
    base, head, longer = (_outputs(tmp_path, name) for name in ("base", "head", "longer"))
    # a planted one-ulp change of one episode's mean TD loss
    loss = repr(float(np.nextafter(0.25, 1.0)))
    (head / "cfrl_task2_split0_train_log.csv").write_text(_LOG.replace("0.25", loss))
    lines, drifted = drift.compare_train_logs(base, head)
    assert drifted == 1
    assert f"first at episode 1 column mean_td_loss: 0.25 -> {loss}" in lines[0]
    # an episode only one log holds differs in each of its six columns
    (longer / "cfrl_task2_split0_train_log.csv").write_text(_LOG + "2,3,1.0,0.5,0.1,1\n")
    lines, drifted = drift.compare_train_logs(base, longer)
    assert drifted == 6 and "first at episode 2 column episode: - -> 2" in lines[0]


def _text_outputs(work):
    """An out directory under `work`, with a resolved config that names it
    and a manifest sidecar."""
    out = work / "out0"
    out.mkdir(parents=True)
    (out / "config.resolved.ini").write_text(
        f"[run]\nseed = 0\nout = {out}\n\n[data]\npath = {out / 'dataset.snap'}\n")
    (out / "cfrl_task2_split0.ckpt.manifest.json").write_text(
        '{\n  "gamma": 0.9,\n  "seed": 4\n}\n')
    return out


def test_text_outputs_are_compared_byte_for_byte_but_for_the_work_directory(tmp_path):
    base, head, same = (_text_outputs(tmp_path / tree) for tree in ("base", "head", "same"))
    # each config names its own work directory, which reads as the placeholder
    lines, drifted = drift.compare_texts(base, same)
    assert drifted == 0
    assert lines == ["  cfrl_task2_split0.ckpt.manifest.json: identical, 4 lines",
                     "  config.resolved.ini: identical, 6 lines"]
    # planted: a manifest value, and a config line outside the work directory
    manifest = head / "cfrl_task2_split0.ckpt.manifest.json"
    manifest.write_text(manifest.read_text().replace("0.9,", "0.95,"))
    config = head / "config.resolved.ini"
    config.write_text(config.read_text().replace("seed = 0", "seed = 1") + "\n")
    lines, drifted = drift.compare_texts(base, head)
    assert drifted == 1 + 2
    assert lines == [
        "  cfrl_task2_split0.ckpt.manifest.json: 1 lines differ; first at line 2: "
        "'  \"gamma\": 0.9,\\n' -> '  \"gamma\": 0.95,\\n'",
        "  config.resolved.ini: 2 lines differ; first at line 2: 'seed = 0\\n' -> 'seed = 1\\n'",
    ]
    (head / "config.resolved.ini").unlink()
    with pytest.raises(FileNotFoundError, match="config.resolved.ini is written by one tree only"):
        drift.compare_texts(base, head)


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=drift", "-c",
                    "user.email=drift@example.com", "-c", "commit.gpgsign=false", *args],
                   check=True, capture_output=True)


def test_base_rev_is_the_committed_src_of_the_revision(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "base"
    module = repo / "src" / "cfrl" / "mark.py"
    module.parent.mkdir(parents=True)
    dest.mkdir()
    module.write_text("VALUE = 1\n")
    (repo / "README").write_text("outside src\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    # an uncommitted change is what --base HEAD compares against HEAD
    module.write_text("VALUE = 2\n")

    src = drift.extract_src(repo, "HEAD", dest)
    assert src == dest / "src"
    assert (src / "cfrl" / "mark.py").read_text() == "VALUE = 1\n"
    assert sorted(p.name for p in dest.iterdir()) == ["src"]
    with pytest.raises(RuntimeError, match="exited 128"):
        drift.extract_src(repo, "no-such-revision", dest)


@pytest.mark.parametrize("argv", [[], ["--base", "HEAD", "--base-src", "src"]])
def test_exactly_one_base_option_is_required(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        drift.main([*argv, "--size", "tiny"])
    assert exit_info.value.code == 2
    assert "--base" in capsys.readouterr().err
