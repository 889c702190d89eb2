import math

import numpy as np
import pytest

from cfrl import baselines, mf
from cfrl import evaluate as evaluate_module
from cfrl.agent import TrainConfig
from cfrl.baselines import OnlineMfPolicy, RandomPolicy
from cfrl.config import RunConfig
from cfrl.dataset import Split, SplitConfig, make_splits
from cfrl.env import TaskMode
from cfrl.errors import ValidationError
from cfrl.evaluate import (
    ComparisonReport,
    EvalResult,
    benchmark,
    evaluate_policy,
    paired_t_test,
    t_two_sided_p,
    write_report,
)
from cfrl.methods import METHODS, SplitContext
from cfrl.mf import MfConfig

from conftest import make_dataset, synthetic_profiles
from rollouts import traced_eval


def test_constant_reward_environment_scores_exactly():
    # every logged rating is 2, so any policy earns exactly 2 per step
    ds = make_dataset({u: {i: 2 for i in range(6)} for u in range(3)})
    split = Split(train_users=frozenset({0, 1}), test_users=frozenset({2}))
    scores = evaluate_policy(
        RandomPolicy(seed=0), ds, split, TaskMode.TASK_I, horizon=6
    )
    assert scores.tolist() == [2.0]


def test_evaluation_is_repeatable_and_does_not_mutate_models():
    ds = make_dataset(synthetic_profiles(n_users=10, n_items=14, per_user=8, seed=2))
    split = Split(train_users=frozenset(range(8)), test_users=frozenset({8, 9}))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=3, reg=0.01, lr=0.02, epochs=5), seed=0)
    before_u, before_v = model.U.copy(), model.V.copy()
    first = evaluate_policy(OnlineMfPolicy(model), ds, split, TaskMode.TASK_I, 8)
    second = evaluate_policy(OnlineMfPolicy(model), ds, split, TaskMode.TASK_I, 8)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(model.U, before_u)
    np.testing.assert_array_equal(model.V, before_v)


def test_aggregation_identity_from_raw_trace():
    ds = make_dataset(synthetic_profiles(n_users=8, n_items=12, per_user=6, seed=3))
    split = Split(train_users=frozenset(range(6)), test_users=frozenset({6, 7}))
    scores, trace = traced_eval(RandomPolicy(seed=1), ds, split, TaskMode.TASK_II, horizon=5)
    by_user = {}
    for _, user, _, _, reward, _ in trace:
        by_user.setdefault(user, []).append(reward)
    recomputed = np.array([np.mean(by_user[u]) for u in sorted(by_user)])
    assert abs(float(np.mean(recomputed)) - float(np.mean(scores))) < 1e-9


# ---------------------------------------------------------------------------
# t statistics
# ---------------------------------------------------------------------------


def t_two_sided_quadrature(t: float, df: int, panels: int = 4000) -> float:
    """Brute-force tail probability by Simpson integration of the t density.

    Substituting x = sqrt(df) tan(phi) maps the infinite tail onto a finite
    interval with integrand cos(phi)^(df-1).
    """
    t = abs(t)
    lo = math.atan(t / math.sqrt(df))
    hi = math.pi / 2.0
    h = (hi - lo) / (2 * panels)
    xs = [lo + k * h for k in range(2 * panels + 1)]
    ys = [math.cos(x) ** (df - 1) for x in xs]
    integral = ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])
    integral *= h / 3.0
    coeff = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0))
    coeff /= math.sqrt(df * math.pi)
    return 2.0 * coeff * math.sqrt(df) * integral


def test_t_tail_matches_quadrature_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = float(rng.uniform(-4.0, 4.0))
        df = int(rng.integers(2, 31))
        assert t_two_sided_p(t, df) == pytest.approx(
            t_two_sided_quadrature(t, df), abs=1e-8
        )


# (df, t, P(|T_df| >= t)) from scipy.special.betainc(df / 2, 1 / 2, df / (df + t^2)),
# each within 1e-12 relative of a 50-digit mpmath evaluation; 0.0 is the
# underflow of a tail near 1e-570
T_TAIL_REFERENCE = [
    (1, 0.0, 1.0),
    (1, 0.01, 0.993634014470186),
    (1, 0.5, 0.7048327646991335),
    (1, 1.0, 0.5000000000000001),
    (1, 2.5, 0.24223788318168682),
    (1, 10.0, 0.06345103486110713),
    (1, 100.0, 0.00636598552981651),
    (1, 10000.0, 6.366197702455154e-05),
    (2, 0.0, 1.0),
    (2, 0.01, 0.9929291089581912),
    (2, 0.5, 0.6666666666666666),
    (2, 1.0, 0.4226497308103742),
    (2, 2.5, 0.12961172022151082),
    (2, 10.0, 0.00985245702332569),
    (2, 100.0, 9.998500249956258e-05),
    (2, 10000.0, 9.999999850000001e-09),
    (3, 0.0, 1.0),
    (3, 0.01, 0.9926491114128453),
    (3, 0.5, 0.6514479648481513),
    (3, 1.0, 0.3910022189557705),
    (3, 2.5, 0.08770664700806556),
    (3, 10.0, 0.0021283990584141503),
    (3, 100.0, 2.2045219231849105e-06),
    (3, 10000.0, 2.20531550229581e-12),
    (4, 0.0, 1.0),
    (4, 0.01, 0.9925001562459106),
    (4, 0.5, 0.6433299631818633),
    (4, 1.0, 0.37390096630005887),
    (4, 2.5, 0.06676654481198814),
    (4, 10.0, 0.000562003622715991),
    (4, 100.0, 5.99600209899246e-08),
    (4, 10000.0, 5.999999600000023e-16),
    (9, 0.0, 1.0),
    (9, 0.01, 0.9922394455363172),
    (9, 0.5, 0.6290712998260265),
    (9, 1.0, 0.3434363961379134),
    (9, 2.5, 0.033861827682985735),
    (9, 10.0, 3.578237431924736e-06),
    (9, 100.0, 5.073089766208564e-15),
    (9, 10000.0, 5.091792199508464e-33),
    (30, 0.0, 1.0),
    (30, 0.01, 0.9920874925731968),
    (30, 0.5, 0.6207230048851278),
    (30, 1.0, 0.3253086154260304),
    (30, 2.5, 0.01811564906806669),
    (30, 10.0, 4.575251408229618e-11),
    (30, 100.0, 1.984611796727031e-39),
    (30, 10000.0, 2.0728978939548114e-99),
    (200, 0.0, 1.0),
    (200, 0.01, 0.9920312551529022),
    (200, 0.5, 0.6176247523164603),
    (200, 1.0, 0.31851884790974766),
    (200, 2.5, 0.013223172641700833),
    (200, 10.0, 2.3774831444207646e-19),
    (200, 100.0, 9.956843590453632e-173),
    (200, 10000.0, 0.0),
]


def test_t_tail_matches_frozen_reference_values():
    misses = [(df, signed, t_two_sided_p(signed, df), expected)
              for df, t, expected in T_TAIL_REFERENCE for signed in (t, -t)
              if not math.isclose(t_two_sided_p(signed, df), expected, rel_tol=1e-10)]
    assert misses == []


# (df, t, P(|T_df| >= t)) at large df, from mpmath at 400 digits as
# 1 - betainc(1/2, df/2, 0, t^2/(df + t^2)), which agrees with the
# betainc(df/2, 1/2, 0, df/(df + t^2)) of the definition to 1e-53 relative
T_TAIL_LARGE_DF_REFERENCE = [
    (10_000, 0.01, 0.9920214868493558),
    (10_000, 0.5, 0.6170860793232334),
    (10_000, 1.0, 0.31733470433042915),
    (10_000, 2.5, 0.012435219550583698),
    (10_000, 10.0, 1.9632807428663828e-23),
    (10_000, 20.0, 2.7646525865407734e-87),
    (100_000, 0.01, 0.9920213073188232),
    (100_000, 0.5, 0.617076177654418),
    (100_000, 1.0, 0.31731292756411),
    (100_000, 2.5, 0.012420919192559046),
    (100_000, 10.0, 1.5633015300207278e-23),
    (100_000, 20.0, 8.223493910654362e-89),
    (1_000_000, 0.01, 0.9920212893655477),
    (1_000_000, 0.5, 0.6170751874723713),
    (1_000_000, 1.0, 0.31731074983357815),
    (1_000_000, 2.5, 0.012419489502163246),
    (1_000_000, 10.0, 1.527861076817825e-23),
    (1_000_000, 20.0, 5.733087047390372e-89),
    (100_000_000, 0.01, 0.992021287390685),
    (100_000_000, 0.5, 0.6170750785521779),
    (100_000_000, 1.0, 0.31731051028262136),
    (100_000_000, 2.5, 0.012419332240054542),
    (100_000_000, 10.0, 1.5240094630247841e-23),
    (100_000_000, 20.0, 5.5094625766577934e-89),
]


def test_t_tail_keeps_its_precision_at_large_df():
    misses = [(df, signed, t_two_sided_p(signed, df), expected)
              for df, t, expected in T_TAIL_LARGE_DF_REFERENCE for signed in (t, -t)
              if not math.isclose(t_two_sided_p(signed, df), expected, rel_tol=1e-13)]
    assert misses == []


def test_t_tail_of_nan_is_nan_and_df_below_one_is_refused():
    assert math.isnan(t_two_sided_p(math.nan, 3))
    for df in (0, -1):
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_two_sided_p(1.0, df)


def test_paired_t_test_textbook_values():
    # frozen reference values (paired t, two-sided)
    a = [83.0, 105.0, 96.0, 88.0, 101.0, 92.0, 77.0, 94.0, 99.0, 85.0]
    b = [78.0, 98.0, 97.0, 82.0, 95.0, 89.0, 74.0, 90.0, 93.0, 80.0]
    assert paired_t_test(a, b) == pytest.approx(0.00020250, abs=1e-3)
    a2 = [12.1, 14.3, 9.8, 11.4, 13.0, 10.2, 12.7, 11.9]
    b2 = [11.0, 13.8, 10.5, 10.9, 12.2, 10.6, 12.0, 11.1]
    assert paired_t_test(a2, b2) == pytest.approx(0.10596514, abs=1e-3)


def test_paired_t_test_zero_variance_is_an_error():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 3.0, 4.0, 5.0]  # constant shift
    with pytest.raises(ValidationError, match="zero variance"):
        paired_t_test(a, b)


def test_paired_t_test_symmetric_differences_give_p_one():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 1.0, 4.0, 3.0]  # differences (-1, 1, -1, 1): t = 0
    assert paired_t_test(a, b) == 1.0


def test_paired_t_test_validates_inputs():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# report arithmetic and the benchmark grid
# ---------------------------------------------------------------------------


def _stub_report(means_by_method, task=TaskMode.TASK_II):
    cells = {
        (name, task): EvalResult(split_scores=list(scores))
        for name, scores in means_by_method.items()
    }
    return ComparisonReport(
        dataset="stub", methods=list(means_by_method), tasks=[task],
        cells=cells, horizon=40,
    )


def test_improvement_arithmetic_for_constant_stubs():
    rng = np.random.default_rng(0)
    noise = rng.normal(0, 1e-6, size=10)
    report = _stub_report({
        "three": (3.0 + noise).tolist(),
        "four": (4.0 - noise).tolist(),
    })
    p_value, improvement = report.best_vs_second(TaskMode.TASK_II)
    assert improvement == pytest.approx(1.0 / 3.0, rel=1e-4)
    assert p_value is not None and p_value < 0.01
    text = report.render_text()
    assert "33.3" in text


def test_improvement_reproduces_published_arithmetic():
    # leading pair of means 3.018 vs 2.634 must render as 14.58%
    rng = np.random.default_rng(1)
    noise = rng.normal(0, 1e-9, size=10)
    report = _stub_report({
        "leader": (3.018 + noise).tolist(),
        "runner_up": (2.634 - noise).tolist(),
    })
    _, improvement = report.best_vs_second(TaskMode.TASK_II)
    assert improvement * 100 == pytest.approx(14.58, abs=0.005)
    assert "14.58%" in report.render_text()


def test_report_marks_best_and_second():
    report = _stub_report({
        "low": [1.0, 1.1], "high": [3.0, 3.1], "mid": [2.0, 2.1],
    })
    text = report.render_text()
    high_line = next(line for line in text.splitlines() if line.startswith("high"))
    mid_line = next(line for line in text.splitlines() if line.startswith("mid"))
    assert "**" in high_line
    assert "*" in mid_line and "**" not in mid_line


@pytest.fixture
def bench_ds():
    return make_dataset(synthetic_profiles(n_users=16, n_items=20, per_user=12, seed=9))


def _grid(methods, tasks, horizon=5, **settings) -> RunConfig:
    """A run config for the grid of `methods` by `tasks` at `horizon`, the
    other settings the defaults unless given."""
    return RunConfig(methods=methods, eval_tasks=tasks,
                     agent=TrainConfig(episodes=20000, horizon=horizon), **settings)


def test_benchmark_grid_structure_and_determinism(bench_ds, tmp_path):
    splits = make_splits(bench_ds, SplitConfig(count=3, test_fraction=0.2, min_ratings=10), seed=5)
    methods = ("random", "popular", "impact", "mf")
    tasks = (TaskMode.TASK_I, TaskMode.TASK_II)
    cfg = _grid(methods, tasks, horizon=6, dataset_name="synth", seed=5,
                mf=MfConfig(dim=3, epochs=4), jobs=1)
    report = benchmark(bench_ds, splits, cfg)
    assert report.methods == list(methods)
    assert report.tasks == list(tasks)
    assert not report.failed_cells()
    for method in methods:
        for task in tasks:
            cell = report.cells[(method, task)]
            assert isinstance(cell, EvalResult)
            assert len(cell.split_scores) == 3
            assert cell.mean == pytest.approx(float(np.mean(cell.split_scores)), abs=1e-12)
    again = benchmark(bench_ds, splits, cfg)
    assert report.csv_rows() == again.csv_rows()
    write_report(report, tmp_path)
    assert (tmp_path / "report.txt").exists()
    rows = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + len(methods) * len(tasks) * 3


def test_failed_report_write_keeps_the_previous_csv(tmp_path):
    report = _stub_report({"a": [1.0, 2.0], "b": [0.5, 1.5]})
    write_report(report, tmp_path)
    before = (tmp_path / "report.csv").read_bytes()

    def rows_then_disk_full():
        yield ("method", "task", "dataset", "split", "score")
        raise OSError("disk full")

    report.csv_rows = rows_then_disk_full
    with pytest.raises(OSError, match="disk full"):
        write_report(report, tmp_path)
    assert (tmp_path / "report.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.txt"]


def test_benchmark_parallel_equals_serial(bench_ds):
    splits = make_splits(bench_ds, SplitConfig(count=3, test_fraction=0.2, min_ratings=10), seed=5)
    methods = ("random", "popular")
    tasks = (TaskMode.TASK_I,)
    serial = benchmark(bench_ds, splits, _grid(methods, tasks, seed=1, jobs=1))
    parallel = benchmark(bench_ds, splits, _grid(methods, tasks, seed=1, jobs=3))
    assert serial.csv_rows() == parallel.csv_rows()


def test_benchmark_starts_at_most_one_worker_a_split(bench_ds, monkeypatch):
    # a stand-in pool, which runs the splits in this process, records the
    # worker count that each benchmark asks for; no process is started
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(evaluate_module, "ProcessPoolExecutor", RecordingPool)
    splits = make_splits(bench_ds, SplitConfig(count=2, test_fraction=0.2, min_ratings=10), seed=5)

    def run(jobs, chosen=splits):
        cfg = _grid(("random",), (TaskMode.TASK_I,), seed=1, jobs=jobs)
        return benchmark(bench_ds, chosen, cfg)

    serial = run(jobs=1).csv_rows()
    for jobs in (2, 3, 64):
        assert run(jobs=jobs).csv_rows() == serial
    assert asked == [2, 2, 2]
    # one split needs no pool
    assert run(64, splits[:1]).csv_rows() == serial[:2] and asked == [2, 2, 2]
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, not {jobs}"):
            run(jobs=jobs)
    assert asked == [2, 2, 2]


def test_benchmark_records_cell_failures_without_aborting(bench_ds, tmp_path, monkeypatch):
    splits = make_splits(bench_ds, SplitConfig(count=2, test_fraction=0.2, min_ratings=10), seed=5)

    def no_budget(*args, **kwargs):
        raise ValidationError("no training budget")

    # a linucb fit that raises must fail its cell, not the grid
    monkeypatch.setattr(baselines, "train_linucb", no_budget)
    report = benchmark(bench_ds, splits, _grid(("random", "linucb"), (TaskMode.TASK_I,), seed=2))
    assert isinstance(report.cells[("random", TaskMode.TASK_I)], EvalResult)
    failed = report.failed_cells()
    assert failed == [("linucb", TaskMode.TASK_I)]
    assert "training budget" in report.cells[("linucb", TaskMode.TASK_I)]
    assert "FAILED" in report.render_text()
    write_report(report, tmp_path)
    assert "ValidationError: " in (tmp_path / "report.csv").read_text()


def test_benchmark_builds_untrained_policies_once_per_split(bench_ds, monkeypatch):
    splits = make_splits(bench_ds, SplitConfig(count=2, test_fraction=0.2, min_ratings=10), seed=5)
    calls = []
    scores = baselines.impact_scores
    monkeypatch.setattr(baselines, "impact_scores", lambda *a: calls.append(a) or scores(*a))
    report = benchmark(bench_ds, splits,
                       _grid(("impact",), (TaskMode.TASK_I, TaskMode.TASK_II), seed=2))
    assert not report.failed_cells()
    assert len(calls) == len(splits)


def test_benchmark_rejects_empty_or_unknown_methods(bench_ds):
    splits = make_splits(bench_ds, SplitConfig(count=2, test_fraction=0.2, min_ratings=10), seed=5)
    with pytest.raises(ValueError, match="no methods"):
        benchmark(bench_ds, splits, _grid((), (TaskMode.TASK_I,)))
    with pytest.raises(ValidationError, match="unknown methods"):
        benchmark(bench_ds, splits, _grid(("poppular",), (TaskMode.TASK_I,)))


# ---------------------------------------------------------------------------
# lockstep evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lockstep_setup():
    """A split, its factor model and every trained method's artifact per task."""
    ds = make_dataset(synthetic_profiles(n_users=18, n_items=24, per_user=10, seed=4))
    split = Split(train_users=frozenset(range(10)), test_users=frozenset(range(10, 18)))
    model = mf.pretrain(ds, split.train_users, MfConfig(dim=4, reg=0.01, lr=0.02, epochs=5), seed=1)
    ctx = SplitContext(ds, split, 0, RunConfig(seed=3, agent=TrainConfig(episodes=6, horizon=8)),
                       model)
    artifacts = {}
    for task in (TaskMode.TASK_I, TaskMode.TASK_II):
        for method, spec in METHODS.items():
            if spec.trains:
                cfg = TrainConfig(episodes=6, horizon=8, q_lr=0.01, hidden_sizes=(8,),
                                  batch_size=8, task=task, seed=2)
                artifacts[(method, task)] = spec.fit(ctx, cfg)
    return ctx, artifacts


@pytest.mark.parametrize("task", [TaskMode.TASK_I, TaskMode.TASK_II], ids=lambda t: t.value)
@pytest.mark.parametrize("method", list(METHODS))
def test_lockstep_evaluation_matches_each_user_alone(lockstep_setup, method, task):
    # the test users play one block; each user played as a block of one
    # must give the same score and trace rows, byte for byte
    ctx, artifacts = lockstep_setup
    spec = METHODS[method]
    policy = spec.policy(ctx, artifacts.get((method, task)))
    horizon = 8
    scores, trace = traced_eval(policy, ctx.ds, ctx.split, task, horizon)
    users = sorted(ctx.split.test_users)
    assert scores.shape == (len(users),) and len(trace) == len(users) * horizon
    for idx, user in enumerate(users):
        alone = Split(train_users=ctx.split.train_users, test_users=frozenset({user}))
        (alone_score,), alone_trace = traced_eval(policy, ctx.ds, alone, task, horizon)
        assert scores[idx].tobytes() == alone_score.tobytes()
        rows = [row for row in trace if row[1] == user]
        assert [row[0] for row in rows] == [idx] * horizon
        assert [row[1:] for row in rows] == [row[1:] for row in alone_trace]
        assert [type(v) for v in rows[0]] == [int, int, int, int, float, bool]
