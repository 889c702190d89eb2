"""Offline evaluation protocol: per-split greedy rollouts over test users,
aggregation across splits, paired significance testing, and the comparison
report.

Scores average over users first, then over splits, so every test user weighs
the same within a split regardless of profile size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import mf
from .agent import TrainConfig
from .env import InteractiveEnv, TaskMode, run_episode
from .errors import ValidationError
from .methods import METHODS, SplitContext
from .seeding import derive_seed


def evaluate_policy(policy, ds, mf_model, split, task: TaskMode, horizon: int,
                    trace: list | None = None) -> np.ndarray:
    """One greedy episode per test user; returns each user's mean reward.

    Users run in ascending index order; the policy is reset per episode via
    begin_episode, so shared models are never mutated.
    """
    environment = InteractiveEnv(ds, mf_model, task, horizon)
    means = []
    for idx, user in enumerate(sorted(split.test_users)):
        policy.begin_episode(user)

        def observe(t, state, action, reward, next_state, done):
            policy.observe(action, reward)
            if trace is not None:
                trace.append((idx, user, t, action, reward, done))

        total = run_episode(environment, user, horizon, lambda st: policy.act(st.avail), observe)
        means.append(total / horizon if horizon else 0.0)
    return np.array(means)


# ---------------------------------------------------------------------------
# Paired t-test. The t distribution's tail is evaluated through the
# regularized incomplete beta function; the continued fraction iterates to a
# 1e-10 relative tolerance.
# ---------------------------------------------------------------------------

_CF_TOL = 1e-10
_CF_MAX_ITER = 500


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) via the tail identity with the incomplete beta."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def paired_t_test(a, b) -> float:
    """Two-sided p-value of the paired t statistic on two score sequences.

    Raises:
        ValueError: length mismatch or fewer than 2 pairs.
        ValidationError: the paired differences have zero variance (the
            statistic is undefined; e.g. one sequence is a constant shift of
            the other).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length 1-d score sequences")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    diffs = a - b
    sd = float(np.std(diffs, ddof=1))
    if sd == 0.0:
        raise ValidationError("paired differences have zero variance; t statistic undefined")
    t = float(np.mean(diffs)) / (sd / math.sqrt(n))
    return t_two_sided_p(t, n - 1)


# ---------------------------------------------------------------------------
# Benchmark grid
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    method: str
    task: TaskMode
    dataset: str
    split_scores: list

    @property
    def mean(self) -> float:
        return float(np.mean(self.split_scores))

    @property
    def std(self) -> float:
        if len(self.split_scores) < 2:
            return 0.0
        return float(np.std(self.split_scores, ddof=1))


@dataclass
class ComparisonReport:
    dataset: str
    methods: list
    tasks: list
    cells: dict              # (method, TaskMode) -> EvalResult | error string
    horizon: int

    def failed_cells(self) -> list:
        return [key for key, value in self.cells.items() if not isinstance(value, EvalResult)]

    def ranking(self, task: TaskMode) -> list:
        """Methods with results for the task, best mean first."""
        scored = [
            (m, self.cells[(m, task)])
            for m in self.methods
            if isinstance(self.cells.get((m, task)), EvalResult)
        ]
        return sorted(scored, key=lambda pair: -pair[1].mean)

    def best_vs_second(self, task: TaskMode):
        """(p_value, relative_improvement) between the two leading methods.

        Either entry is None when undefined (fewer than two methods, a single
        split, zero-variance differences, or a zero second-best mean).
        """
        ranked = self.ranking(task)
        if len(ranked) < 2:
            return None, None
        best, second = ranked[0][1], ranked[1][1]
        try:
            p_value = paired_t_test(best.split_scores, second.split_scores)
        except (ValueError, ValidationError):
            p_value = None
        improvement = None
        if second.mean != 0.0:
            improvement = (best.mean - second.mean) / second.mean
        return p_value, improvement

    def render_text(self) -> str:
        lines = [
            f"Average reward over T={self.horizon} steps on {self.dataset} "
            f"(** best, * second-best)",
            "",
        ]
        task_names = [t.value for t in self.tasks]
        width = max([len("method")] + [len(m) for m in self.methods]) + 2
        col = 24
        header = "method".ljust(width) + "".join(name.ljust(col) for name in task_names)
        lines.append(header)
        marks = {}
        for task in self.tasks:
            ranked = self.ranking(task)
            if ranked:
                marks[(ranked[0][0], task)] = "**"
            if len(ranked) > 1:
                marks[(ranked[1][0], task)] = "*"
        for method in self.methods:
            row = method.ljust(width)
            for task in self.tasks:
                value = self.cells.get((method, task))
                if isinstance(value, EvalResult):
                    text = f"{value.mean:.3f}±{value.std:.3f}{marks.get((method, task), '')}"
                elif value is None:
                    text = "-"
                else:
                    text = "FAILED"
                row += text.ljust(col)
            lines.append(row)
        p_row = "p-value".ljust(width)
        imp_row = "improve".ljust(width)
        for task in self.tasks:
            p_value, improvement = self.best_vs_second(task)
            p_row += (f"{p_value:.3g}" if p_value is not None else "-").ljust(col)
            imp_row += (f"{improvement * 100:.2f}%" if improvement is not None else "-").ljust(col)
        lines.extend([p_row, imp_row])
        failures = self.failed_cells()
        if failures:
            lines.append("")
            for method, task in failures:
                lines.append(f"FAILED {method}/{task.value}: {self.cells[(method, task)]}")
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list:
        rows = [("method", "task", "dataset", "split", "score")]
        for method in self.methods:
            for task in self.tasks:
                value = self.cells.get((method, task))
                if isinstance(value, EvalResult):
                    for s, score in enumerate(value.split_scores):
                        rows.append((method, task.value, self.dataset, s, repr(float(score))))
                else:
                    rows.append((method, task.value, self.dataset, "", f"ERROR:{value}"))
        return rows


def _run_split(ctx: SplitContext, methods: tuple, tasks: tuple, horizon: int, mf_params: dict,
               train_cfg: TrainConfig | None) -> dict:
    """Scores (or error strings) for every (method, task) cell of one split."""
    out = {}
    if any(METHODS[m].needs_mf for m in methods):
        seed = derive_seed(ctx.seed, f"mf:{ctx.index}")
        ctx = replace(ctx, mf_model=mf.pretrain(ctx.ds, ctx.split.train_users, seed=seed, **mf_params))
    for task in tasks:
        for method in methods:
            try:
                spec = METHODS[method]
                artifact = None
                if spec.trains:
                    artifact = spec.fit(ctx, _train_cfg_for(ctx, train_cfg, horizon, method, task))
                policy, env_model = spec.policy(ctx, artifact)
                scores = evaluate_policy(policy, ctx.ds, env_model, ctx.split, task, horizon)
                out[(method, task.value)] = float(np.mean(scores))
            except Exception as exc:  # cell failures must not kill the grid
                out[(method, task.value)] = f"error: {exc}"
    return out


def _train_cfg_for(ctx: SplitContext, train_cfg: TrainConfig | None, horizon: int, method: str,
                   task: TaskMode) -> TrainConfig:
    if train_cfg is None:
        raise ValidationError(f"method {method!r} needs a training budget (train config)")
    return replace(
        train_cfg,
        task=task,
        horizon=horizon,
        seed=derive_seed(ctx.seed, f"{method}:{task.value}:{ctx.index}"),
    )


def benchmark(
    ds,
    splits,
    methods,
    tasks,
    dataset_name: str = "dataset",
    seed: int = 0,
    horizon: int = 40,
    mf_dim: int = 16,
    mf_reg: float = 0.01,
    mf_lr: float = 0.01,
    mf_epochs: int = 30,
    train_cfg: TrainConfig | None = None,
    linucb_alpha: float = 1.0,
    jobs: int = 1,
) -> ComparisonReport:
    """Run the full methods-by-tasks grid over all splits.

    Per-split work is independent and seeded by split index, so results do
    not depend on the degree of parallelism. Cell failures are recorded in
    the report instead of aborting the run.
    """
    methods = tuple(methods)
    tasks = tuple(tasks)
    if not methods:
        raise ValueError("no methods requested")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValidationError(f"unknown methods {unknown}; known: {tuple(METHODS)}")
    run_split = partial(
        _run_split, methods=methods, tasks=tasks, horizon=horizon, train_cfg=train_cfg,
        mf_params=dict(d=mf_dim, reg=mf_reg, lr=mf_lr, epochs=mf_epochs),
    )
    contexts = [
        SplitContext(ds=ds, split=split, index=s, seed=seed, linucb_alpha=linucb_alpha)
        for s, split in enumerate(splits)
    ]
    if jobs > 1 and len(contexts) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            split_results = list(pool.map(run_split, contexts))
    else:
        split_results = [run_split(ctx) for ctx in contexts]

    cells = {}
    for method in methods:
        for task in tasks:
            scores, errors = [], []
            for s, result in enumerate(split_results):
                value = result[(method, task.value)]
                if isinstance(value, float):
                    scores.append(value)
                else:
                    errors.append(f"split {s}: {value}")
            if errors:
                cells[(method, task)] = "; ".join(errors)
            else:
                cells[(method, task)] = EvalResult(
                    method=method, task=task, dataset=dataset_name, split_scores=scores
                )
    return ComparisonReport(
        dataset=dataset_name, methods=list(methods), tasks=list(tasks),
        cells=cells, horizon=horizon,
    )


def write_report(report: ComparisonReport, out_dir) -> None:
    """Emit report.txt (human table) and report.csv (one row per cell/split)."""
    import csv
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.render_text(), encoding="utf-8")
    with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(report.csv_rows())
