"""Smoke test of the benchmark itself, at a size that runs in seconds.

    python3 perfbench/smoke.py

From the root of a cfrl checkout: runs every workload of BENCHMARK.json on
the tiny corpus, untraced and traced, and asserts that each run succeeds and
prints exactly the metric names BENCHMARK.json declares. It also asserts that
a directory holding only the benchmark, without the program, is refused.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            found = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                problems.append(f"{label}: metric names or units differ; "
                                f"missing {missing}, extra {extra}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            if len(problems) == found:
                print(f"ok  {label}: {len(printed)} metrics, {result['attempted']} operations")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, Path(bare) / RUN.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(RUN.parent.name) / RUN.name), "--workload", "grid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without the program was not refused")
        else:
            print(f"ok  refused outside a checkout (exit {proc.returncode})")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
