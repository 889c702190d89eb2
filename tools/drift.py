"""Rounding drift of the working tree's outputs against a base tree's.

    python3 tools/drift.py --base REV [--size full|tiny]
    python3 tools/drift.py --base-src ../base/src [--size full|tiny]

Run it from the root of a cfrl checkout, with exactly one of the two base
options. `--base REV` compares the working tree, committed or not, with a
git revision of this repository, whose `src` the tool extracts itself (with
`git archive`, into a temporary directory): `--base HEAD` shows what an
uncommitted change does. `--base-src` is the `src` directory of any tree to
compare with (a second checkout, say); `--base-src src` compares the tree
with itself. On each tree it runs, at seed 0 and on the corpus and config
of perfbench/run.py's `make_inputs` (replica 0):

  train-cfrl       ingest, pretrain, `train --method cfrl --trace`, eval
  train-dqn-raw    ingest, `train --method dqn --trace`, eval
  grid             ingest, benchmark
  wrap-and-resume  train-cfrl and train-dqn-raw with a replay of a quarter
                   of the run's steps, so that it wraps, and a sync period
                   of 37 steps, no multiple of the horizon: `train` for
                   half the episodes, then `train --resume --trace` for the
                   rest (the config is edited in the tool's own work
                   directory)

and prints, per workload:

  - for every checkpoint (`*.ckpt`) and each of its arrays, the largest
    absolute and relative change of a parameter;
  - for every trainer state (`*_state.npz`), how many values of each array
    that both trees' states hold by name differ bit for bit; the arrays
    only one state holds (a changed layout) are listed, not counted;
  - for every training trace, the first step at which the two traces
    differ (episode, user, step, action, reward or done), and how many
    steps do;
  - for every training log, the first episode and column at which the two
    logs differ, and how many values do;
  - every eval and `report.csv` cell whose score differs, with its delta;
  - for the resolved config (`config.resolved.ini`) and every manifest
    sidecar (`*.manifest.json`), the first line at which the two files
    differ byte for byte, and how many lines do. Each tree's own work
    directory, which the config's `out` and data `path` name, reads as
    WORK in both trees first.

Exit status: 0 when every output is the same bit for bit, 1 when any of
them drifts, 2 when a command fails or an output is missing.

Acceptance rule for a declared rounding change (fixed when this tool was
added; it never loosens):

  - no cell moves by more than the base tree's seed-to-seed standard
    deviation of that cell (perfbench's replicas give the spread);
  - `eval_reward` stays within its BENCHMARK.json bound;
  - acceptance criteria 6-10 (tests/test_acceptance.py) pass unchanged.

A change that claims to be byte-identical must show no drift at all.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-cfrl", "train-dqn-raw", "grid", "wrap-and-resume")
RESUMED = ("train-cfrl", "train-dqn-raw")   # the train workloads that wrap-and-resume runs
SYNC_PERIOD = 37                            # wrap-and-resume's [agent] sync_period
WORK = b"<work>"                            # a tree's own work directory in its text outputs


def compare_checkpoints(base: Path, head: Path) -> tuple:
    """(report lines, drifted values) over the checkpoints of two out
    directories: per array, the largest absolute and relative change."""
    lines, drifted = [], 0
    names = sorted({p.name for p in base.glob("*.ckpt")} | {p.name for p in head.glob("*.ckpt")})
    for name in names:
        if not (base / name).exists() or not (head / name).exists():
            raise FileNotFoundError(f"checkpoint {name} is written by one tree only")
        with np.load(base / name) as old, np.load(head / name) as new:
            for key in old.files:
                a, b = old[key], new[key]
                if a.shape != b.shape or a.dtype != b.dtype:
                    lines.append(f"  {name}[{key}]: {a.dtype}{a.shape} -> {b.dtype}{b.shape}")
                    drifted += max(a.size, b.size)
                    continue
                changed = a.tobytes() != b.tobytes()
                a, b = a.astype(np.float64), b.astype(np.float64)
                delta = np.abs(b - a)
                rel = np.divide(delta, np.abs(a), out=np.where(delta > 0, np.inf, 0.0),
                                where=a != 0)
                count = max(int(np.count_nonzero(delta != 0)), 1) if changed else 0
                drifted += count
                lines.append(f"  {name}[{key}]: {count} of {a.size} differ, max abs "
                             f"{float(delta.max(initial=0.0)):.3g}, max rel "
                             f"{float(rel.max(initial=0.0)):.3g}")
    return lines, drifted


def compare_states(base: Path, head: Path) -> tuple:
    """(report lines, drifted values) over the trainer states of two out
    directories: per array both hold by name, the values whose bits
    differ; the arrays only one holds are named as information."""
    lines, drifted = [], 0
    names = sorted({p.name for p in base.glob("*_state.npz")}
                   | {p.name for p in head.glob("*_state.npz")})
    for name in names:
        if not (base / name).exists() or not (head / name).exists():
            raise FileNotFoundError(f"trainer state {name} is written by one tree only")
        with np.load(base / name) as old, np.load(head / name) as new:
            for key in sorted(set(old.files) & set(new.files)):
                a, b = old[key], new[key]
                if a.shape != b.shape or a.dtype != b.dtype:
                    lines.append(f"  {name}[{key}]: {a.dtype}{a.shape} -> {b.dtype}{b.shape}")
                    drifted += max(a.size, b.size)
                    continue
                bits = (a.size, a.dtype.itemsize)
                count = int(np.count_nonzero(
                    (a.reshape(-1).view(np.uint8).reshape(bits)
                     != b.reshape(-1).view(np.uint8).reshape(bits)).any(axis=1)))
                drifted += count
                lines.append(f"  {name}[{key}]: {count} of {a.size} differ")
            for tree, only in (("base", set(old.files) - set(new.files)),
                               ("head", set(new.files) - set(old.files))):
                if only:
                    lines.append(f"  {name}: only the {tree} state holds {', '.join(sorted(only))}"
                                 " (not drift)")
    return lines, drifted


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def compare_traces(base: Path, head: Path) -> tuple:
    """(report lines, differing steps) over the training traces."""
    lines, drifted = [], 0
    for path in sorted(base.glob("*_trace.csv")):
        old, new = _rows(path), _rows(head / path.name)
        differ = [k for k, (a, b) in enumerate(zip(old, new)) if a != b]
        differ += list(range(min(len(old), len(new)), max(len(old), len(new))))
        drifted += len(differ)
        if not differ:
            lines.append(f"  {path.name}: identical, {len(old)} steps")
            continue
        k = differ[0]
        at = old[k] if k < len(old) else new[k]
        lines.append(f"  {path.name}: {len(differ)} of {max(len(old), len(new))} steps differ; "
                     f"first at episode {at['episode']} user {at['user']} step {at['t']}: "
                     f"{old[k] if k < len(old) else '-'} -> {new[k] if k < len(new) else '-'}")
    return lines, drifted


def compare_train_logs(base: Path, head: Path) -> tuple:
    """(report lines, differing values) over the training logs; a row only
    one log holds differs in every column."""
    lines, drifted = [], 0
    for path in sorted(base.glob("*_train_log.csv")):
        old, new = _rows(path), _rows(head / path.name)
        differ = []
        for k in range(max(len(old), len(new))):
            a, b = old[k] if k < len(old) else {}, new[k] if k < len(new) else {}
            differ += [(k, key, a.get(key, "-"), b.get(key, "-"))
                       for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
        drifted += len(differ)
        if not differ:
            lines.append(f"  {path.name}: identical, {len(old)} episodes")
            continue
        k, key, a, b = differ[0]
        lines.append(f"  {path.name}: {len(differ)} values differ; first at episode {k} "
                     f"column {key}: {a} -> {b}")
    return lines, drifted


def _score(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _cells(path: Path) -> dict:
    """A CSV's scores, keyed by each row's other columns."""
    return {tuple((k, v) for k, v in row.items() if k != "score"): row["score"]
            for row in _rows(path)}


def compare_cells(base: Path, head: Path) -> tuple:
    """(report lines, differing cells) over the eval CSVs and report.csv:
    each row is a cell keyed by its columns other than score."""
    lines, drifted = [], 0
    for path in sorted([*base.glob("eval_*.csv"), *base.glob("report.csv")]):
        old, new = _cells(path), _cells(head / path.name)
        same = 0
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key, "-"), new.get(key, "-")
            if a == b:
                same += 1
                continue
            drifted += 1
            cell = " ".join(f"{k}={v}" for k, v in key)
            lines.append(f"  {path.name} {cell}: {a} -> {b} (delta {_score(b) - _score(a):.3g})")
        lines.append(f"  {path.name}: {same} of {len(old.keys() | new.keys())} cells identical")
    return lines, drifted


def _text_lines(out: Path, name: str) -> list:
    """The lines, with their ends, of a text output of the out directory
    `out`, its tree's work directory (out's parent) read as WORK."""
    return (out / name).read_bytes().replace(os.fsencode(out.parent), WORK).splitlines(True)


def compare_texts(base: Path, head: Path) -> tuple:
    """(report lines, differing lines) over the resolved configs and the
    manifest sidecars, compared byte for byte; a line only one file holds
    differs too."""
    lines, drifted = [], 0
    names = sorted({p.name for out in (base, head)
                    for p in [*out.glob("config.resolved.ini"), *out.glob("*.manifest.json")]})
    for name in names:
        if not (base / name).exists() or not (head / name).exists():
            raise FileNotFoundError(f"{name} is written by one tree only")
        old, new = _text_lines(base, name), _text_lines(head, name)
        differ = [k for k in range(max(len(old), len(new))) if old[k:k + 1] != new[k:k + 1]]
        drifted += len(differ)
        if not differ:
            lines.append(f"  {name}: identical, {len(old)} lines")
            continue
        k = differ[0]
        a, b = (repr(text[k].decode(errors="replace")) if k < len(text) else "-"
                for text in (old, new))
        lines.append(f"  {name}: {len(differ)} lines differ; first at line {k + 1}: {a} -> {b}")
    return lines, drifted


def run_cli(src: Path, commands) -> None:
    """Run each cfrl command (an argv list) on the package in `src`.

    Raises:
        RuntimeError: a command exits other than 0.
    """
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "cfrl.cli", *argv], env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"cfrl {argv[0]} on {src} exited {done.returncode}:\n"
                               f"{done.stderr[-2000:]}")


def run_tree(make_inputs, src: Path, workload: str, size: str, work: Path) -> list:
    """Run a workload's seed-0 replica 0 (perfbench's make_inputs) on the
    tree whose package is in `src`; returns its out directories."""
    if workload == "wrap-and-resume":
        return [run_resumed(make_inputs, src, name, size, work / name) for name in RESUMED]
    replica = make_inputs(workload, 0, size, work)["replicas"][0]
    measured = replica["measured"] + (["--trace"] if replica["measured"][0] == "train" else [])
    run_cli(src, [*replica["setup"], measured, *replica["evals"]])
    return [replica["out"]]


def _edit(text: str, old: str, new: str) -> str:
    """`text` with its one `old` replaced by `new`."""
    if text.count(old) != 1:
        raise RuntimeError(f"the workload config does not hold {old!r} once")
    return text.replace(old, new)


def run_resumed(make_inputs, src: Path, workload: str, size: str, work: Path) -> Path:
    """Run a train workload's seed-0 replica 0 with a replay of a quarter of
    its steps and a sync period of SYNC_PERIOD, for half its episodes and
    then, resumed, for the rest; returns its out directory."""
    work.mkdir()
    inputs = make_inputs(workload, 0, size, work)
    replica, episodes = inputs["replicas"][0], inputs["spec"]["episodes"]
    ini = work / f"{workload}.ini"
    config = _edit(ini.read_text(encoding="utf-8"), "[agent]\n",
                   f"[agent]\nreplay_capacity = {inputs['train_steps'] // 4}\n"
                   f"sync_period = {SYNC_PERIOD}\n")
    ini.write_text(_edit(config, f"episodes = {episodes}\n", f"episodes = {episodes // 2}\n"),
                   encoding="utf-8")
    run_cli(src, [*replica["setup"], replica["measured"]])
    ini.write_text(config, encoding="utf-8")
    run_cli(src, [[*replica["measured"], "--resume", "--trace"], *replica["evals"]])
    return replica["out"]


def extract_src(repo: Path, rev: str, dest: Path) -> Path:
    """The `src` directory of revision `rev` of the git repository `repo`,
    extracted with git archive under `dest`.

    Raises:
        RuntimeError: git cannot archive `rev` (an unknown revision, say), or
            tar cannot extract it.
    """
    tar = dest / "base.tar"
    for argv in (["git", "-C", str(repo), "archive", "--output", str(tar), rev, "src"],
                 ["tar", "-xf", str(tar), "-C", str(dest)]):
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                               f"{done.stderr.strip()}")
    tar.unlink()
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", metavar="REV",
                      help="a git revision of this repository to compare with")
    base.add_argument("--base-src", type=Path,
                      help="the src directory of the tree to compare with")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench  # pins BLAS to one thread for every child

    total = 0
    try:
        with tempfile.TemporaryDirectory(prefix="cfrl-drift-") as tmp:
            base_src = args.base_src or extract_src(ROOT, args.base, Path(tmp))
            for workload in WORKLOADS:
                outs = []
                for tree in ("base", "head"):
                    work = Path(tmp) / tree / workload
                    work.mkdir(parents=True)
                    src = base_src if tree == "base" else ROOT / "src"
                    outs.append(run_tree(perfbench.make_inputs, src, workload, args.size, work))
                print(f"{workload}:")
                for pair in zip(*outs):
                    for compare in (compare_checkpoints, compare_states, compare_traces,
                                    compare_train_logs, compare_cells, compare_texts):
                        lines, drifted = compare(*pair)
                        total += drifted
                        for line in lines:
                            print(line)
    except (RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"drift: {total} differing values" if total else "drift: none")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
