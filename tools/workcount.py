"""Deterministic work counts of a Q-learner's TD step, beside wall time.

    python3 tools/workcount.py [--size full|tiny]

Run it from the root of a cfrl checkout. For each train workload of
perfbench/run.py (train-cfrl and train-dqn-raw) it builds the
corpus, config and commands of the workload's seed-0 replica 0 with
perfbench's `make_inputs`, as tools/drift.py does, runs the set-up commands
through `cfrl.cli.main`, and then runs the timed `cfrl train` command in
process under `sys.setprofile`. Each workload runs in a fresh Python process
with PYTHONHASHSEED=0, so no workload warms another's caches.

Only what runs inside `agent.QTrainer.run` is counted: every Python function
call (`call` events) and every call of a C function (`c_call` events: numpy's
functions and methods, builtins). Each event is credited to the top-level
layer it runs under, the outermost of LAYERS on the stack, or to `other`
(the episode loop, the environment's reset, the record writes). Counts are
of calls, not time, so two runs of the same tree give the same numbers, and
a change's counts say where its wall-time pairs gain or lose; they do not
replace those pairs.

Prints one JSON object: per workload, the TD steps counted (calls of
`qnet.train_step`) and, per layer and in total, the calls and C calls, as
counts and per TD step. Exit status 0, or 2 when a command fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-cfrl", "train-dqn-raw")
# the top-level layers of a training step, by module and qualified name
LAYERS = ("agent.select_action", "env.InteractiveEnv.step", "agent.ReplayMemory.push",
          "agent.ReplayMemory.sample", "qnet.train_step", "qnet.sync_target",
          "agent.ReplayMemory.expire_values", "mf.online_update", "agent.put_pairs")
GATE = "agent.QTrainer.run"
EVENTS = ("call", "c_call")


def resolve(name: str):
    """The code object of the cfrl function or method `module.qualname`."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"cfrl.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj.__code__


class Counter:
    """A sys.setprofile function that counts the events under the gate's
    frame, each credited to the outermost layer running."""

    def __init__(self, gate, layers: dict):
        self.gate, self.layers = gate, layers
        self.under = None       # the gate's running frame
        self.layer = None       # (frame, name) of the outermost layer running
        self.counts = {name: dict.fromkeys(EVENTS, 0) for name in (*layers.values(), "other")}
        self.entries = dict.fromkeys(layers.values(), 0)

    def __call__(self, frame, event, arg):
        if self.under is None:
            if event == "call" and frame.f_code is self.gate:
                self.under = frame
            return
        if event in EVENTS:
            if event == "call" and self.layer is None and frame.f_code in self.layers:
                self.layer = (frame, self.layers[frame.f_code])
                self.entries[self.layer[1]] += 1
            self.counts[self.layer[1] if self.layer else "other"][event] += 1
        elif event == "return":
            if self.layer is not None and frame is self.layer[0]:
                self.layer = None
            elif frame is self.under:
                self.under = None


def count(workload: str, size: str, work: Path) -> dict:
    """Run a workload's set-up and, counted, its timed train command."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench  # pins BLAS to one thread before numpy loads

    sys.path.insert(0, str(ROOT / "src"))
    from cfrl import cli

    replica = perfbench.make_inputs(workload, 0, size, work)["replicas"][0]
    for argv in replica["setup"]:
        if cli.main(argv) != 0:
            raise RuntimeError(f"cfrl {argv[0]} failed")
    counter = Counter(resolve(GATE), {resolve(name): name for name in LAYERS})
    sys.setprofile(counter)
    try:
        code = cli.main(replica["measured"])
    finally:
        sys.setprofile(None)
    if code != 0:
        raise RuntimeError(f"cfrl {replica['measured'][0]} exited {code}")
    steps = counter.entries["qnet.train_step"]
    counts = {name: c for name, c in counter.counts.items() if any(c.values())}
    counts["total"] = {event: sum(c[event] for c in counter.counts.values()) for event in EVENTS}
    return {"td_steps": steps, "counts": counts,
            "per_step": {name: {event: round(c[event] / steps, 2) for event in EVENTS}
                         for name, c in counts.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--count", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count:      # one workload, in this fresh process
        with tempfile.TemporaryDirectory(prefix="cfrl-workcount-") as tmp:
            print(json.dumps(count(args.count, args.size, Path(tmp))))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    result = {}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--size", args.size, "--count", workload],
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"error: {workload}: {done.stderr[-2000:]}", file=sys.stderr)
            return 2
        result[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
