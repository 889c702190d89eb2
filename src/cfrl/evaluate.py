"""Offline evaluation protocol: per-split greedy rollouts over test users,
aggregation across splits, paired significance testing, and the comparison
report.

A split's test users play one lockstep episode as one block, so each step is
one act for all of them; every user's rollout is the one it has played alone.
Scores average over users first, then over splits, so every test user weighs
the same within a split regardless of profile size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .env import InteractiveEnv, TaskMode, run_episode
from .errors import ValidationError
from .methods import METHODS, SplitContext, pretrain_split
from .persist import atomic_text
from .seeding import derive_seed


def evaluate_policy(policy, ds, split, task: TaskMode, horizon: int) -> np.ndarray:
    """One greedy episode per test user; returns each user's mean reward.

    The test users, in ascending index order, play one episode as one block;
    run_episode resets the policy for it via begin_episode, so shared models
    are never mutated.
    """
    users = sorted(split.test_users)
    steps = run_episode(InteractiveEnv(ds, task, horizon), users, policy)
    totals = np.zeros(len(users))
    for _, rewards, _ in steps:
        totals += rewards
    return totals / horizon if horizon else totals


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) via the tail identity with the regularized incomplete
    beta function, I_{df/(df+t^2)}(df/2, 1/2).

    I_x(a, b) is evaluated by its continued fraction with the modified Lentz
    method (Press et al., Numerical Recipes, section 6.4): directly for
    x < (a + 1)/(a + b + 2), where it converges quickly, and through
    I_x(a, b) = 1 - I_{1-x}(b, a) otherwise. Near x = 1 the fraction's
    recurrences cancel, losing about a / t^2 ulps, so for a >= 20 and
    x >= 1/2 the expansion in 1/a of _beta_half_near_one is used instead.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isnan(t):
        return math.nan
    x, y = df / (df + t * t), t * t / (df + t * t)   # x and 1 - x, each without cancellation
    if x == 0.0 or y == 0.0:   # |t| beyond double range, or so small that t^2 vanishes
        return 0.0 if x == 0.0 else 1.0
    a, b = df / 2.0, 0.5
    if a >= _EXPANSION_FROM and y <= 0.5:
        return _beta_half_near_one(a, y)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


# Smallest a for which _beta_half_near_one holds to about 1e-14 relative.
_EXPANSION_FROM = 20.0
# log Gamma(a + 1/2) - log Gamma(a) - log(a)/2 is the sum of c / a^k over
# these (c, k): (2^(1-k) - 2) B_k / (k (k - 1)) for the Bernoulli numbers
# B_k, k = 2, 4, ..., 10. The first term left out is under 4e-3 / a^11.
_GAMMA_HALF_SERIES = ((-1 / 8, 1), (1 / 192, 3), (-1 / 640, 5), (17 / 14336, 7), (-31 / 18432, 9))


def _beta_half_near_one(a: float, y: float) -> float:
    """I_{1-y}(a, 1/2) for large a, by the asymptotic expansion of DiDonato
    and Morris (ACM TOMS 18, 1992, eq. 9; BGRAT in their algorithm 708).

    With T = a - 1/4 and u = -T log(1 - y), the result is
    Gamma(a + 1/2) / (Gamma(a) sqrt(T)) times the sum of p_n J_n over n, a
    series in 1/T^2 that starts from J_0 = Q(1/2, u) = erfc(sqrt(u)). The
    gamma ratio comes from its asymptotic series: lgamma(a + 1/2) - lgamma(a)
    would cancel about a log a ulps, and log(1 - y) is taken by log1p.
    """
    b, big_t = 0.5, a - 0.25
    log_x = math.log1p(-y)
    u = -big_t * log_x
    h = math.sqrt(u / math.pi) * math.exp(-u)   # u^b e^-u / Gamma(b)
    j = math.erfc(math.sqrt(u))   # J_n scaled by h, so that h may underflow
    total, p, power = j, [1.0], 1.0
    for n in range(1, 30):
        p.append((b - 1.0) / math.factorial(2 * n + 1)
                 + sum((m * b - n) * p[n - m] / math.factorial(2 * m + 1) for m in range(1, n)) / n)
        j = ((b + 2 * n - 2) * (b + 2 * n - 1) * j + (u + b + 2 * n - 1) * h * power) / (4 * big_t**2)
        power *= (log_x / 2.0) ** 2
        total += p[n] * j
        if abs(p[n] * j) <= math.ulp(1.0) * abs(total):
            break
    log_ratio = 0.5 * math.log(a) + sum(c / a**k for c, k in _GAMMA_HALF_SERIES)
    return math.exp(log_ratio) / math.sqrt(big_t) * total


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= math.ulp(1.0):
            break
    return h


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
    """A cell's per-split scores; the report's cells key says whose."""

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
                value = self.cells[(method, task)]
                if isinstance(value, EvalResult):
                    text = f"{value.mean:.3f}±{value.std:.3f}{marks.get((method, task), '')}"
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


def _run_split(ctx: SplitContext) -> dict:
    """Scores (or error strings) for every (method, task) cell of one split."""
    cfg, out = ctx.cfg, {}
    if any(METHODS[m].needs_mf for m in cfg.methods):
        ctx = replace(ctx, mf_model=pretrain_split(ctx)[0])
    untrained = {}  # an untrained method's policy ignores the task and resets per episode
    for task in cfg.eval_tasks:
        for method in cfg.methods:
            try:
                spec = METHODS[method]
                if spec.trains:
                    seed = derive_seed(cfg.seed, f"{method}:{task.value}:{ctx.index}")
                    artifact = spec.fit(ctx, replace(cfg.agent, task=task, seed=seed))
                    policy = spec.policy(ctx, artifact)
                elif method in untrained:
                    policy = untrained[method]
                else:
                    policy = untrained[method] = spec.policy(ctx, None)
                scores = evaluate_policy(policy, ctx.ds, ctx.split, task, cfg.agent.horizon)
                out[(method, task.value)] = float(np.mean(scores))
            except Exception as exc:  # cell failures must not kill the grid
                out[(method, task.value)] = f"error: {type(exc).__name__}: {exc}"
    return out


def benchmark(ds, splits, cfg) -> ComparisonReport:
    """Run the config's methods-by-tasks grid over all splits.

    `cfg` is the run's config.RunConfig: its [eval] methods, tasks and jobs,
    its [mf] and [agent] settings, and the seed every per-split and per-cell
    seed derives from, all checked by RunConfig.validate before any cell
    runs. Per-split work is independent and seeded by split index, so
    results do not depend on the degree of parallelism: `jobs` caps the
    worker processes, at most one a split. Cell failures are recorded in the
    report instead of aborting the run.
    """
    cfg.validate()
    methods, tasks = tuple(cfg.methods), tuple(cfg.eval_tasks)
    contexts = [SplitContext(ds, split, s, cfg) for s, split in enumerate(splits)]
    if cfg.jobs > 1 and len(contexts) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(contexts))) as pool:
            split_results = list(pool.map(_run_split, contexts))
    else:
        split_results = [_run_split(ctx) for ctx in contexts]

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
                cells[(method, task)] = EvalResult(scores)
    return ComparisonReport(
        dataset=cfg.dataset_name, methods=list(methods), tasks=list(tasks),
        cells=cells, horizon=cfg.agent.horizon,
    )


def write_report(report: ComparisonReport, out_dir) -> None:
    """Emit report.txt (human table) and report.csv (one row per cell/split)."""
    import csv
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_text(out / "report.txt") as fh:
        fh.write(report.render_text())
    with atomic_text(out / "report.csv", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())
