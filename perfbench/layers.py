"""Per-layer tracing of the cfrl program, installed from outside `src/`.

Timing wrappers replace the attributes the program looks up at call time
(module functions and class methods of `cfrl.*`). A wrapped function that
another cfrl module imported by name (`from .agent import make_trainer`) is
replaced there too. Each call records a span: name, parent span, start and
end; the run id is attached when the spans are written. Spans stay in memory
and are written once the command ends.

Run as a script, this file runs one `cfrl` command through `cfrl.cli.main`
in its own process, with or without the wrappers, and writes the command's
in-process wall time (and the spans, when traced):

    python3 perfbench/layers.py --src src --trace 1 --run-id ID \
        --spans spans.jsonl --result result.json -- train --config run.ini
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time
import weakref
from pathlib import Path

METHODS = ("random", "popular", "impact", "mf", "linucb", "dqn", "cfrl")
CLI_COMMANDS = ("ingest", "pretrain", "train", "eval", "benchmark")
# Inclusive time of these spans is reported as a share of the traced wall time.
SHARE_SPANS = (
    "qnet.train_step",
    "mf.pretrain",
    "baselines.LinUcbPolicy.act",
    "agent.QTrainer.save",
    "env.InteractiveEnv.step",
    "mf.online_update",
    "agent.select_action",
)

# (name, unit, better). `.calls` counts calls, `.us` and `.self_us` are the
# median per call (self = span minus its child spans), `.s` is the total over
# the workload and `.share` that total over the traced wall time.
# `.peak_rss_delta_mb` is how far the layer's calls raise the process's peak
# RSS, so the layer that sets peak_rss_mb shows a non-zero delta.
# QTrainer.save.bytes is the largest checkpoint written. A layer the workload
# never calls reads 0.
PER_LAYER = [
    ("dataset.load_ratings.s", "s", "lower"),
    ("dataset.load_snapshot.s", "s", "lower"),
    ("mf.pretrain.epoch_s", "s", "lower"),
    ("mf.online_update.calls", "count", "lower"),
    ("mf.online_update.us", "us", "lower"),
    ("env.InteractiveEnv.step.calls", "count", "lower"),
    ("env.InteractiveEnv.step.self_us", "us", "lower"),
    ("env.InteractiveEnv.reset.us", "us", "lower"),
    ("qnet.train_step.calls", "count", "lower"),
    ("qnet.train_step.us", "us", "lower"),
    ("qnet.train_step.self_us", "us", "lower"),
    ("qnet.forward_batch.target_us", "us", "lower"),
    ("qnet.forward.calls", "count", "lower"),
    ("qnet.forward.us", "us", "lower"),
    ("qnet.sync_target.calls", "count", "lower"),
    ("agent.select_action.self_us", "us", "lower"),
    ("agent.ReplayMemory.push.us", "us", "lower"),
    ("agent.ReplayMemory.sample.us", "us", "lower"),
    ("agent.QTrainer.run.peak_rss_delta_mb", "MB", "lower"),
    ("agent.QTrainer.save.calls", "count", "lower"),
    ("agent.QTrainer.save.s", "s", "lower"),
    ("agent.QTrainer.save.bytes", "bytes", "lower"),
    ("agent.QTrainer.save.peak_rss_delta_mb", "MB", "lower"),
    ("baselines.LinUcbPolicy.act.calls", "count", "lower"),
    ("baselines.LinUcbPolicy.act.frozen_us", "us", "lower"),
    ("baselines.LinUcbPolicy.act.train_us", "us", "lower"),
    ("baselines.train_linucb.s", "s", "lower"),
    ("baselines.impact_scores.s", "s", "lower"),
    ("baselines.GreedyQPolicy.act.us", "us", "lower"),
    ("baselines.OnlineMfPolicy.act.us", "us", "lower"),
    *[(f"evaluate.evaluate_policy.{m}.s", "s", "lower") for m in METHODS],
    ("evaluate.cells.attempted", "count", "higher"),
    ("evaluate.cells.failed", "count", "lower"),
    *[(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS],
    *[(f"{name}.share", "fraction", "lower") for name in SHARE_SPANS],
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Span record fields (lists, to keep per-call cost low).
NAME, PARENT, START, END, NOTE = range(5)


def _maxrss_mb() -> float:
    """This process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder for one run on one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._policy_method = weakref.WeakKeyDictionary()
        self.hook_errors: dict = {}   # span name -> hook calls that raised

    def wrap(self, name, fn, pre=None, post=None):
        """Wrapper recording one span per call; `post` may attach a note.

        `pre(args, kwargs)` runs before the call and its value is passed to
        `post(before, args, kwargs, result)`, whose return value is the note.
        A call that raises gets the note "raised". A hook that fails (the
        program changed shape) leaves the note empty, is counted in
        `hook_errors` and never reaches the program.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self._hook(name, pre, args, kwargs) if pre is not None else None
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[NOTE] = "raised"
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if post is not None:
                rec[NOTE] = self._hook(name, post, before, args, kwargs, result)
            return result

        return traced

    def _hook(self, name, fn, *args):
        try:
            return fn(*args)
        except Exception:  # a benchmark hook must not change the program's behaviour
            self.hook_errors[name] = self.hook_errors.get(name, 0) + 1
            return None

    def call(self, name, fn, *args):
        """Record one span around a call made by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    def tag_policy(self, method):
        """Post-hook naming the policy a factory returns: popular and impact
        are both a ScorePolicy, so their class cannot tell them apart."""
        def post(_before, _args, _kwargs, policy):
            self._policy_method[policy] = method
        return post

    def policy_method(self, policy) -> str:
        """The method a policy object evaluates: its tag, else its class."""
        try:
            tagged = self._policy_method.get(policy)
        except TypeError:
            tagged = None
        if tagged:
            return tagged
        kind = type(policy).__name__
        if kind == "GreedyQPolicy":
            return "dqn" if getattr(policy, "raw_state", False) else "cfrl"
        return {
            "RandomPolicy": "random",
            "OnlineMfPolicy": "mf",
            "LinUcbPolicy": "linucb",
        }.get(kind, kind)


def write_spans(path: Path, spans: list, run_id: str) -> None:
    """One JSON object per span; `parent` is the index of the parent span."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, (name, parent, start, end, note) in enumerate(spans):
            fh.write(json.dumps({
                "id": k, "parent": parent, "name": name, "start": start,
                "end": end, "note": note, "run": run_id,
            }) + "\n")


def install(tracer: Tracer) -> list:
    """Patch every traced attribute; returns the names that were not found.

    A target the program no longer has is skipped and returned; the
    benchmark counts each as a failed check, so a moved or renamed layer
    shows as an incorrect run rather than as a metric of 0.
    """
    def peak_before(_args, _kwargs):
        return _maxrss_mb()

    def peak_raise(peak, _args, _kwargs, _result):
        return _maxrss_mb() - peak

    def saved(peak, args, kwargs, _result):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        return {"bytes": os.path.getsize(path), "peak_mb": _maxrss_mb() - peak}

    def linucb_mode(_before, args, _kwargs, _result):
        return "frozen" if getattr(args[0], "frozen", True) else "train"

    def epochs_run(_before, _args, kwargs, model):
        return len(getattr(model, "epoch_rmse", ())) or kwargs.get("epochs")

    def policy_name(args, kwargs):
        return tracer.policy_method(args[0] if args else kwargs.get("policy"))

    def keep_method(method, _args, _kwargs, _result):
        return method

    def report_cells(_before, _args, _kwargs, report):
        return [len(report.cells), len(report.failed_cells())]

    targets = [
        ("cfrl.dataset", "load_ratings", {}),
        ("cfrl.dataset", "load_snapshot", {}),
        ("cfrl.mf", "pretrain", {"post": epochs_run}),
        ("cfrl.mf", "online_update", {}),
        ("cfrl.env", "InteractiveEnv.step", {}),
        ("cfrl.env", "InteractiveEnv.reset", {}),
        ("cfrl.qnet", "train_step", {}),
        ("cfrl.qnet", "forward_batch", {}),
        ("cfrl.qnet", "forward", {}),
        ("cfrl.qnet", "sync_target", {}),
        ("cfrl.agent", "select_action", {}),
        ("cfrl.agent", "ReplayMemory.push", {}),
        ("cfrl.agent", "ReplayMemory.sample", {}),
        ("cfrl.agent", "QTrainer.run", {"pre": peak_before, "post": peak_raise}),
        ("cfrl.agent", "QTrainer.save", {"pre": peak_before, "post": saved}),
        ("cfrl.baselines", "popular_policy", {"post": tracer.tag_policy("popular")}),
        ("cfrl.baselines", "impact_policy", {"post": tracer.tag_policy("impact")}),
        ("cfrl.baselines", "impact_scores", {}),
        ("cfrl.baselines", "train_linucb", {}),
        ("cfrl.baselines", "LinUcbPolicy.act", {"post": linucb_mode}),
        ("cfrl.baselines", "GreedyQPolicy.act", {}),
        ("cfrl.baselines", "OnlineMfPolicy.act", {}),
        ("cfrl.evaluate", "evaluate_policy", {"pre": policy_name, "post": keep_method}),
        ("cfrl.evaluate", "benchmark", {"post": report_cells}),
    ]
    missing = []
    for module_name, _, _ in targets:
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    modules = [m for key, m in sys.modules.items() if key == "cfrl" or key.startswith("cfrl.")]
    for module_name, attr, hooks in targets:
        owner = sys.modules.get(module_name)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        name = f"{module_name.split('.', 1)[1]}.{attr}"
        wrapped = tracer.wrap(name, original, **hooks)
        setattr(owner, path[-1], wrapped)
        if len(path) == 1:
            # rebind names imported with `from module import function`
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return missing


def _median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    self_t = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            self_t[rec[PARENT]] -= rec[END] - rec[START]
    return self_t


def per_layer_metrics(spans: list, wall_s: float, overhead_s: float) -> dict:
    """Every PER_LAYER metric from the recorded spans."""
    dur, self_t, notes = {}, {}, {}
    target_fwd = []
    for rec, own in zip(spans, _self_times(spans)):
        d = rec[END] - rec[START]
        dur.setdefault(rec[NAME], []).append(d)
        self_t.setdefault(rec[NAME], []).append(own)
        notes.setdefault(rec[NAME], []).append(rec[NOTE])
        if rec[NAME] == "qnet.forward_batch" and rec[PARENT] >= 0 \
                and spans[rec[PARENT]][NAME] == "qnet.train_step":
            target_fwd.append(d)

    def durs(name):
        return dur.get(name, [])

    def total(name):
        return float(sum(durs(name)))

    def noted(name, note):
        return [d for d, n in zip(durs(name), notes.get(name, [])) if n == note]

    def under_benchmark(k):
        while k >= 0:
            if spans[k][NAME] == "evaluate.benchmark":
                return True
            k = spans[k][PARENT]
        return False

    epochs = sum(n for n in notes.get("mf.pretrain", []) if isinstance(n, int))
    saves = [n for n in notes.get("agent.QTrainer.save", []) if isinstance(n, dict)]
    rss = [n for n in notes.get("agent.QTrainer.run", []) if isinstance(n, float)]
    # a cell is one (method, task) entry of a grid report, or one `cfrl eval`
    attempted = failed = 0
    for n in notes.get("evaluate.benchmark", []):
        if isinstance(n, list):
            attempted += n[0]
            failed += n[1]
    for k, rec in enumerate(spans):
        if rec[NAME] == "evaluate.evaluate_policy" and not under_benchmark(k):
            attempted += 1
            failed += rec[NOTE] == "raised"

    m = {
        "dataset.load_ratings.s": total("dataset.load_ratings"),
        "dataset.load_snapshot.s": total("dataset.load_snapshot"),
        "mf.pretrain.epoch_s": total("mf.pretrain") / epochs if epochs else 0.0,
        "mf.online_update.calls": len(durs("mf.online_update")),
        "mf.online_update.us": _median_us(durs("mf.online_update")),
        "env.InteractiveEnv.step.calls": len(durs("env.InteractiveEnv.step")),
        "env.InteractiveEnv.step.self_us": _median_us(self_t.get("env.InteractiveEnv.step")),
        "env.InteractiveEnv.reset.us": _median_us(durs("env.InteractiveEnv.reset")),
        "qnet.train_step.calls": len(durs("qnet.train_step")),
        "qnet.train_step.us": _median_us(durs("qnet.train_step")),
        "qnet.train_step.self_us": _median_us(self_t.get("qnet.train_step")),
        "qnet.forward_batch.target_us": _median_us(target_fwd),
        "qnet.forward.calls": len(durs("qnet.forward")),
        "qnet.forward.us": _median_us(durs("qnet.forward")),
        "qnet.sync_target.calls": len(durs("qnet.sync_target")),
        "agent.select_action.self_us": _median_us(self_t.get("agent.select_action")),
        "agent.ReplayMemory.push.us": _median_us(durs("agent.ReplayMemory.push")),
        "agent.ReplayMemory.sample.us": _median_us(durs("agent.ReplayMemory.sample")),
        "agent.QTrainer.run.peak_rss_delta_mb": sum(rss, 0.0),
        "agent.QTrainer.save.calls": len(durs("agent.QTrainer.save")),
        "agent.QTrainer.save.s": total("agent.QTrainer.save"),
        "agent.QTrainer.save.bytes": max((n["bytes"] for n in saves), default=0),
        "agent.QTrainer.save.peak_rss_delta_mb": sum((n["peak_mb"] for n in saves), 0.0),
        "baselines.LinUcbPolicy.act.calls": len(durs("baselines.LinUcbPolicy.act")),
        "baselines.LinUcbPolicy.act.frozen_us":
            _median_us(noted("baselines.LinUcbPolicy.act", "frozen")),
        "baselines.LinUcbPolicy.act.train_us":
            _median_us(noted("baselines.LinUcbPolicy.act", "train")),
        "baselines.train_linucb.s": total("baselines.train_linucb"),
        "baselines.impact_scores.s": total("baselines.impact_scores"),
        "baselines.GreedyQPolicy.act.us": _median_us(durs("baselines.GreedyQPolicy.act")),
        "baselines.OnlineMfPolicy.act.us": _median_us(durs("baselines.OnlineMfPolicy.act")),
        "evaluate.cells.attempted": attempted,
        "evaluate.cells.failed": failed,
        "trace.wall_s": wall_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
    for method in METHODS:
        m[f"evaluate.evaluate_policy.{method}.s"] = float(sum(noted("evaluate.evaluate_policy", method)))
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    for name in SHARE_SPANS:
        m[f"{name}.share"] = sum(durs(name)) / wall_s if wall_s > 0 else 0.0
    return {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}


def layer_table(spans: list, wall_s: float) -> list:
    """(name, calls, total s, self s, self share) per span name, by self time."""
    rows = {}
    for rec, own in zip(spans, _self_times(spans)):
        row = rows.setdefault(rec[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += rec[END] - rec[START]
        row[2] += own
    table = [(name, c, t, s, s / wall_s if wall_s > 0 else 0.0) for name, (c, t, s) in rows.items()]
    return sorted(table, key=lambda r: -r[3])


def read_spans(paths) -> list:
    """Spans of several runs (one file each) as one list with global parents."""
    spans = []
    for path in paths:
        offset = len(spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                parent = row["parent"] + offset if row["parent"] >= 0 else -1
                spans.append([row["name"], parent, row["start"], row["end"], row["note"]])
    return spans


def run_command(argv: list, traced: bool, run_id: str, spans_path: Path) -> dict:
    """Run one cfrl command through cfrl.cli.main in this process."""
    import cfrl.cli

    tracer = Tracer() if traced else None
    missing = install(tracer) if traced else []
    start = time.perf_counter()
    if tracer is None:
        code = cfrl.cli.main(argv)
    else:
        code = tracer.call(f"cli.{argv[0]}", cfrl.cli.main, argv)
    wall = time.perf_counter() - start
    if tracer is not None:
        write_spans(spans_path, tracer.spans, run_id)
    return {"wall_s": wall, "exit_code": code, "missing": missing,
            "hook_errors": tracer.hook_errors if tracer is not None else {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the cfrl package")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", required=True, help="where the spans are written")
    parser.add_argument("--result", required=True, help="where the wall time is written")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- cfrl arguments")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    result = run_command(command, bool(args.trace), args.run_id, Path(args.spans))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
