"""End-to-end benchmark of the cfrl command line on a seeded synthetic corpus.

    python3 perfbench/run.py --workload train-cfrl --seed 0 --seconds 12 --trace 0

Run it from the root of a source checkout (the directory holding `src/cfrl`).
The seed generates an ML-100K-shaped ratings file and one INI config; the
benchmark then drives the real `cfrl` commands as an operator does, one
command at a time (a closed loop of one client), with `--jobs 1` and BLAS
pinned to one thread. Every command's exit code and outputs are checked.

A run has several replicas (WORKLOADS): out directories on the same corpus,
each with its own `--seed` (split, MF initialisation, training randomness).
Each replica is set up once, and setup_s is the median. The timed command
then runs in one replica after another until `--seconds` have passed and
every replica whose agent is evaluated has trained it; its time is the
median. The train workloads then `eval` each replica's agent; the grid's
timed command evaluates its own cells.

Workloads:
  train-cfrl     set-up `ingest`, `pretrain`; timed `train --method cfrl` on
                 task2; then `eval` of cfrl on task2.
  train-dqn-raw  set-up `ingest`; timed `train --method dqn` on task2 with a
                 periodic trainer checkpoint; then `eval` of dqn on task2.
Both train at ten times the default step size (see WORKLOADS).
  grid           set-up `ingest`; timed `benchmark` of all seven methods on
                 task1 and task2 over two splits with a small budget.

End-to-end metrics, printed with `--trace 0`:
  setup_s            median wall time of a replica's set-up commands.
  train_steps_per_s  training steps the timed command runs (episodes x
                     horizon, summed over every agent it trains) over its
                     median wall time, checkpoint saves included. On the grid
                     that is 1,440 steps over the wall time of `cfrl
                     benchmark`, which is also printed as grid_s.
  peak_rss_mb        highest peak RSS of any of the run's command processes.
  eval_reward        mean per-step reward, averaged over the replicas: of the
                     trained agent's own task2 cell on the train workloads,
                     of the report's 14 cells on the grid.
failed_ratio (failed over attempted operations: exits, output checks, grid
cells, untraced layers) is printed by name; the JSON carries it as
`attempted` and `failed`.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics. With `--trace 1` the first replica's commands run
once each, in process through `cfrl.cli.main`, first untraced and then with
timing wrappers around each layer (see layers.py); the JSON then holds the
per-layer metrics and the tracing overhead. Exit status is 0 when the run
completed, also when an output check failed (counted in `failed`), and 2
when the directory is not a cfrl checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here or in any child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import layers  # noqa: E402

HORIZON = 40            # steps per episode ([agent] horizon, the paper's T=40)
MF_DIM = 16             # latent width ([mf] dim): the cfrl agent's state width
RUN_BUDGET_S = 170.0    # hard stop for one benchmark run
GRID_METHODS = layers.METHODS
GRID_TASKS = ("task1", "task2")
GRID_TRAINED = ("linucb", "dqn", "cfrl")   # methods the grid trains per split and task
GOLDEN_FILE = HERE / "golden.json"
# Outputs whose SHA-256 at the default seed guards refactors (golden.json).
GOLDEN_OUTPUTS = {"train-cfrl": "cfrl_task2_split0.ckpt", "grid": "report.csv"}
WORK_DIR = ".perfbench_work"

# method: what `cfrl train` learns (None: the grid runs `cfrl benchmark`).
# mf_epochs: MF pretrain epochs, in train-cfrl's set-up and inside the grid.
# q_lr: the [agent] step size; None keeps the program's default (0.001). At
# the default, a cfrl agent trained for this budget earns about a quarter more
# task2 reward than an untrained one, so a change that broke learning would
# move eval_reward by less than its bound. At ten times the step size the
# trained agents earn about 1.8 (cfrl) and 2.6 (dqn) times the untrained
# reward. Per-step work does not depend on the step size.
# replicas: at this small budget one agent's greedy task2 reward is still a
# lottery over the items its first updates favour: it varies by 20-25%
# (coefficient of variation) from one seed to the next, and four times the
# episodes or more evaluated users do not narrow it. So eval_reward averages
# several agents. Replicas also set how many set-ups and timed commands a run
# has.
WORKLOADS = {
    "train-cfrl": {"method": "cfrl", "pretrain": True, "splits": 1, "mf_epochs": 1,
                   "episodes": 30, "q_lr": 0.01, "checkpoint_every": 0, "replicas": 6},
    "train-dqn-raw": {"method": "dqn", "pretrain": False, "splits": 1, "mf_epochs": 1,
                      "episodes": 25, "q_lr": 0.01, "checkpoint_every": 5, "replicas": 5},
    "grid": {"method": None, "pretrain": False, "splits": 2, "mf_epochs": 1,
             "episodes": 3, "q_lr": None, "checkpoint_every": 0, "replicas": 2},
}

END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "eval_reward": "reward/step",
}
_NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


class Tally:
    """Attempted and failed operations: commands, output checks, grid cells."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


class Deadline(Exception):
    """The run's time budget is spent."""


def run_process(cmd, env, log: Path, deadline: float) -> tuple:
    """Run one child to completion; returns (wall s, exit code).

    The exit code is None when the child was killed because the run's
    deadline passed; subprocess.run kills and reaps it on any interruption."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return 0.0, None
    with open(log, "ab") as fh:
        start = time.perf_counter()
        try:
            code = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  timeout=remaining).returncode
        except subprocess.TimeoutExpired:
            code = None
    return time.perf_counter() - start, code


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- inputs -----------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: str, work: Path) -> dict:
    """The corpus, one INI config and the commands of every replica.

    A replica is one out directory with its own [run] seed (`--seed`): its
    own split, MF initialisation and training randomness on the shared
    corpus. Replica 0 runs with the benchmark's seed itself."""
    spec = dict(WORKLOADS[workload])
    if size == "tiny":  # smoke-test sizing: same commands, a budget of seconds
        spec.update(episodes=2, mf_epochs=1, checkpoint_every=min(spec["checkpoint_every"], 1))
    dims = corpus.SIZES[size]
    data = work / "u.data"
    ini = work / f"{workload}.ini"
    shape = corpus.write_udata(
        data, corpus.ml100k_like_profiles(seed, dims["m"], dims["n"], dims["target"])
    )
    corpus.write_config(
        ini, seed=seed, out=work / "out0", data=data, min_ratings=dims["min_ratings"],
        splits=spec["splits"], mf_dim=MF_DIM, mf_epochs=spec["mf_epochs"],
        episodes=spec["episodes"], horizon=HORIZON, q_lr=spec["q_lr"],
        checkpoint_every=spec["checkpoint_every"],
    )
    method = spec["method"]
    replicas = []
    for k in range(spec["replicas"]):
        out = work / f"out{k}"
        snap = str(out / "dataset.snap")
        common = ["--config", str(ini), "--seed", str(seed * spec["replicas"] + k),
                  "--out", str(out)]
        setup = [["ingest", *common]]
        if spec["pretrain"]:
            setup.append(["pretrain", *common, "--data", snap, "--split", "0"])
        if method:
            measured = ["train", *common, "--data", snap, "--method", method, "--split", "0"]
            # eval output is the same on every repeat of the training, so it runs once
            evals = [["eval", *common, "--data", snap, "--method", method, "--task", "task2",
                      "--split", "0"]]
        else:
            measured = ["benchmark", *common, "--data", snap, "--jobs", "1"]
            evals = []
        replicas.append({"out": out, "setup": setup, "measured": measured, "evals": evals})
    if method:
        train_steps = spec["episodes"] * HORIZON
    else:
        trained = len(GRID_TRAINED) * len(GRID_TASKS) * spec["splits"]
        train_steps = trained * spec["episodes"] * HORIZON
    return {"spec": spec, "shape": shape, "replicas": replicas, "train_steps": train_steps}


# --- output checks ------------------------------------------------------------


def _score(text: str) -> float:
    """A score cell as a number (numpy's `np.float64(x)` repr included), else NaN."""
    match = _NP_FLOAT.fullmatch(text.strip())
    try:
        return float(match.group(1) if match else text)
    except ValueError:
        return math.nan


def check_train(tally: Tally, inputs: dict, out: Path, qnet) -> None:
    spec, n = inputs["spec"], inputs["shape"]["n"]
    stem = f"{spec['method']}_task2_split0"
    log = out / f"{stem}_train_log.csv"
    rows = _read_rows(log)
    try:
        ok = [int(r["episode"]) for r in rows] == list(range(spec["episodes"])) and all(
            math.isfinite(float(r["mean_td_loss"])) for r in rows
        )
    except (KeyError, TypeError, ValueError):
        ok = False
    tally.check(ok, f"{log.name}: one row per episode with finite losses")
    try:
        net = qnet.load_qnet(out / f"{stem}.ckpt")
        width = n if spec["method"] == "dqn" else MF_DIM
        ok = net.output_dim == n and net.input_dim == width
    except Exception:  # any load failure is a failed check
        ok = False
    tally.check(ok, f"{stem}.ckpt loads with qnet.load_qnet")


def _read_rows(path: Path) -> list:
    """Rows of a CSV with a header; a missing or unreadable file has none."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except (OSError, csv.Error, UnicodeDecodeError):
        return []


def check_measured(tally: Tally, inputs: dict, out: Path, qnet) -> dict:
    """Checks of the timed command's outputs; returns the grid's cell means."""
    if inputs["spec"]["method"]:
        check_train(tally, inputs, out, qnet)
        return {}
    return cell_means(tally, inputs, out)


def cell_means(tally: Tally, inputs: dict, out: Path) -> dict:
    """Mean per-step reward of every evaluated cell (NaN if it fails its check).

    Train workloads: the trained agent's `cfrl eval` output on task2, every
    score in [0, 5]. Grid: the report's (method, task) cells, one score in [0, 5]
    per split and no ERROR rows."""
    spec = inputs["spec"]
    if spec["method"]:
        key = f"{spec['method']}/task2"
        expected = {key: None}
        texts = {key: [r.get("score") or "" for r in
                       _read_rows(out / f"eval_{spec['method']}_task2_split0.csv")]}
    else:
        expected = {f"{m}/{t}": spec["splits"] for m in GRID_METHODS for t in GRID_TASKS}
        texts = {}
        for r in _read_rows(out / "report.csv"):
            texts.setdefault(f"{r.get('method')}/{r.get('task')}", []).append(r.get("score") or "")
    means = {}
    for key, count in expected.items():
        cell = texts.get(key, [])
        scores = [_score(t) for t in cell if not t.startswith("ERROR:")]
        ok = scores and len(scores) == len(cell) and count in (None, len(scores))
        ok = tally.check(bool(ok) and all(0.0 <= x <= 5.0 for x in scores),
                         f"cell {key}: {len(cell)} scores in [0, 5], first {cell[:1]}")
        means[key] = statistics.fmean(scores) if ok else math.nan
    return means


def golden_status(workload: str, seed: int, size: str, inputs: dict) -> str:
    """Compare an output's digest with the one recorded at the default seed.

    A mismatch is reported, not counted as a failure: a change may drift at
    rounding level and must show that drift."""
    if workload not in GOLDEN_OUTPUTS:
        return "none recorded for this workload"
    path = inputs["replicas"][0]["out"] / GOLDEN_OUTPUTS[workload]
    digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    if seed != golden["seed"] or size != "full":
        verdict = f"not compared (recorded for --seed {golden['seed']} at full size)"
    elif digest == golden["sha256"][workload]:
        verdict = "match"
    else:
        verdict = f"MISMATCH (golden {golden['sha256'][workload]})"
    return f"{path.name} sha256 {digest}: {verdict}"


# --- environment record -------------------------------------------------------------


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build record is informational
        blas_build = "unknown"
    commit = "unavailable (not a git checkout)"
    if (root / ".git").exists():  # git would otherwise report an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cfrl").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --- runs -----------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def untraced(workload: str, inputs: dict, seconds: int, root: Path, work: Path,
             tally: Tally, deadline: float) -> tuple:
    import cfrl.qnet as qnet

    env = child_env(root)
    log = work / "commands.log"

    def command(argv):
        wall, code = run_process([sys.executable, "-m", "cfrl.cli", *argv], env, log, deadline)
        tally.check(code == 0, f"cfrl {argv[0]} exited {code}")
        if code is None:
            raise Deadline()
        return wall

    replicas = inputs["replicas"]
    evaluated = sum(1 for replica in replicas if replica["evals"])
    setup, busy, rewards = [], [], {}
    try:
        for replica in replicas:
            setup.append(sum(command(argv) for argv in replica["setup"]))
        start = time.monotonic()
        while True:
            k = len(busy) % len(replicas)
            t0 = time.monotonic()
            busy.append(command(replicas[k]["measured"]))
            cells = check_measured(tally, inputs, replicas[k]["out"], qnet)
            if cells:
                rewards[k] = cells
            now = time.monotonic()
            if tally.failed or now + (now - t0) > deadline:
                break
            if now - start >= seconds and len(busy) >= evaluated:
                break
        for k, replica in enumerate(replicas[:len(busy)]):
            if replica["evals"]:
                for argv in replica["evals"]:
                    command(argv)
                rewards[k] = cell_means(tally, inputs, replica["out"])
    except Deadline:
        pass
    replica_means = [statistics.fmean(cells.values()) for cells in rewards.values()]
    metrics = {
        "setup_s": statistics.median(setup) if setup else math.nan,
        "train_steps_per_s": inputs["train_steps"] / statistics.median(busy) if busy else math.nan,
        "peak_rss_mb": children_peak_rss_mb(),
        "eval_reward": statistics.fmean(replica_means) if replica_means else math.nan,
    }
    detail = {"setup_runs_s": setup, "measured_runs_s": busy, "cells": rewards}
    return metrics, detail


def traced(workload: str, inputs: dict, root: Path, work: Path, tally: Tally,
           deadline: float, run_id: str) -> tuple:
    """Each command once untraced and once traced, each in its own process.

    A process per command keeps each command's peak RSS its own, as in the
    untraced runs. Wall times are taken inside the process around
    `cfrl.cli.main`; the tracing overhead is the traced sum minus the
    untraced sum."""
    import cfrl.qnet as qnet

    walls = {0: 0.0, 1: 0.0}
    span_files, missing, hook_errors = [], set(), {}
    replica = inputs["replicas"][0]
    commands = replica["setup"] + [replica["measured"]] + replica["evals"]
    for k, argv in enumerate(commands):
        for trace in (0, 1):
            spans = work / f"spans{k}.jsonl"
            result_path = work / f"result{k}-{trace}.json"
            _, code = run_process(
                [sys.executable, str(HERE / "layers.py"), "--src", str(root / "src"),
                 "--trace", str(trace), "--run-id", run_id, "--spans", str(spans),
                 "--result", str(result_path), "--", *argv],
                child_env(root), work / "commands.log", deadline,
            )
            if code != 0 or not result_path.exists():
                tally.check(False, f"in-process cfrl {argv[0]} (trace {trace}) exited {code}")
                if code is None:
                    return None, None
                continue
            result = json.loads(result_path.read_text(encoding="utf-8"))
            tally.check(result["exit_code"] == 0,
                        f"cfrl {argv[0]} (trace {trace}) exited {result['exit_code']}")
            walls[trace] += result["wall_s"]
            missing.update(result["missing"])
            for name, count in result["hook_errors"].items():
                hook_errors[name] = hook_errors.get(name, 0) + count
        if spans.exists():
            span_files.append(spans)
    # a layer that is not traced, or whose hook fails, would read as 0: a false gain
    for name in sorted(missing):
        tally.check(False, f"layer {name} not traced (absent from the program)")
    for name, count in sorted(hook_errors.items()):
        tally.check(False, f"layer {name}: {count} tracing hook calls raised")
    check_measured(tally, inputs, replica["out"], qnet)
    if replica["evals"]:
        cell_means(tally, inputs, replica["out"])
    spans = layers.read_spans(span_files)
    layers.write_spans(root / WORK_DIR / f"{workload}.spans.jsonl", spans, run_id)
    return layers.per_layer_metrics(spans, walls[1], walls[1] - walls[0]), {
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "layers": layers.layer_table(spans, walls[1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(corpus.SIZES), default="full",
                        help="corpus size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cfrl" / "cli.py").is_file():
        print(f"error: {root} is not a cfrl checkout (no src/cfrl/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # a terminated benchmark unwinds, so its running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_BUDGET_S
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = root / WORK_DIR / run_id
    work.mkdir(parents=True, exist_ok=True)
    try:
        env_record = environment(root)
        inputs = make_inputs(args.workload, args.seed, args.size, work)
        tally = Tally()
        if args.trace:
            metrics, detail = traced(args.workload, inputs, root, work, tally, deadline, run_id)
            if metrics is None:
                metrics = {name: {"value": math.nan, "unit": unit}
                           for name, unit, _ in layers.PER_LAYER}
        else:
            values, detail = untraced(args.workload, inputs, args.seconds, root, work, tally,
                                      deadline)
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        golden = golden_status(args.workload, args.seed, args.size, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = len(tally.failed) / tally.attempted if tally.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print(f"inputs   m={inputs['shape']['m']} n={inputs['shape']['n']} "
          f"ratings={inputs['shape']['ratings']}")
    print("environment " + json.dumps(env_record))
    print(f"golden   {golden}")
    if args.trace and detail:
        print(f"tracing overhead {detail['traced_wall_s'] - detail['untraced_wall_s']:.3f} s "
              f"(traced {detail['traced_wall_s']:.3f} s, untraced {detail['untraced_wall_s']:.3f} s)")
        print(f"{'layer':40s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'self_share':>10s}")
        for name, calls, total, self_s, share in detail["layers"]:
            print(f"{name:40s} {calls:9d} {total:9.3f} {self_s:9.3f} {share:10.1%}")
    elif not args.trace:
        runs = detail["measured_runs_s"]
        print(f"runs     setup {['%.3f' % s for s in detail['setup_runs_s']]}  "
              f"measured {['%.3f' % s for s in runs]}")
        if inputs["spec"]["method"] is None and runs:
            print(f"grid_s = {statistics.median(runs)} s")
        for k, cells in sorted(detail["cells"].items()):
            for cell, mean in cells.items():
                print(f"cell replica{k} {cell} = {mean} reward/step")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_ratio = {failed_ratio} fraction ({len(tally.failed)} of {tally.attempted})")
    for what in tally.failed:
        print(f"FAILED {what}")
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
