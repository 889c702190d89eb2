"""Operator command line.

Subcommands: ingest, pretrain, train, eval, benchmark. Every command resolves
one INI config (flags override file values), writes the resolved copy into the
output directory, and exits 0 on success, 1 on method failure, 2 on usage or
I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import agent, dataset, mf
from .config import RunConfig, load_config, task_mode, write_resolved
from .errors import CfrlError, DivergenceError, ParseError, ValidationError
from .methods import METHODS, SplitContext
from .persist import atomic_text
from .seeding import derive_seed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
    if getattr(args, "data", None):
        cfg.data_path = args.data
    if getattr(args, "format", None):
        cfg.data_format = args.format
    return cfg


def _load_dataset(cfg: RunConfig):
    if not cfg.data_path:
        raise ValueError("no dataset path configured; set [data] path or pass --data")
    if dataset.is_snapshot(cfg.data_path):
        return dataset.load_snapshot(cfg.data_path)
    return dataset.load_ratings(cfg.data_path, cfg.data_format)


def _splits(cfg: RunConfig, ds):
    return dataset.make_splits(
        ds,
        n_splits=cfg.split_count,
        test_fraction=cfg.test_fraction,
        min_ratings=cfg.min_ratings,
        seed=cfg.seed,
    )


def _split(cfg: RunConfig, ds, index: int):
    """Split `index`; an index outside 0..[split] count - 1 is a usage error."""
    if not 0 <= index < cfg.split_count:
        raise ValidationError(f"--split {index} is outside 0..{cfg.split_count - 1} ([split] count)")
    return _splits(cfg, ds)[index]


def _mf_ckpt_path(out: Path, split_index: int) -> Path:
    return out / f"mf_split{split_index}.ckpt"


def _artifact_stem(method: str, task, split_index: int) -> str:
    """One stem per method, task and split, so no two agents overwrite each other."""
    return f"{method}_{task.value}_split{split_index}"


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    if not cfg.data_path:
        raise ValueError("no dataset path configured; set [data] path or pass --data")
    ds = dataset.load_ratings(cfg.data_path, cfg.data_format)
    stats = dataset.dataset_stats(ds)
    for key in ("m", "n", "rating_count", "mean_rating", "density"):
        print(f"{key} = {stats[key]}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    snap = out / "dataset.snap"
    dataset.save_snapshot(ds, snap)
    print(f"snapshot written to {snap}")
    write_resolved(cfg, out)
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    ds = _load_dataset(cfg)
    split = _split(cfg, ds, args.split)
    seed = derive_seed(cfg.seed, f"mf:{args.split}")
    model = mf.pretrain(
        ds, split.train_users, d=cfg.mf_dim, reg=cfg.mf_reg, lr=cfg.mf_lr,
        epochs=cfg.mf_epochs, seed=seed,
    )
    for epoch, rmse in enumerate(model.epoch_rmse):
        print(f"epoch {epoch:3d}  train_rmse {rmse:.6f}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = _mf_ckpt_path(out, args.split)
    mf.save_mf(
        model, path,
        manifest={
            "seed": seed,
            "epochs": cfg.mf_epochs,
            "dim": cfg.mf_dim,
            "reg": cfg.mf_reg,
            "lr": cfg.mf_lr,
            "split": args.split,
            "train_rmse": model.epoch_rmse[-1],
        },
    )
    print(f"checkpoint written to {path}")
    write_resolved(cfg, out)
    return EXIT_OK


def _context(cfg: RunConfig, ds, split, split_index: int, out: Path, method: str) -> SplitContext:
    """The split's inputs, with the pretrained factor model if the method needs
    it; factors whose (m, n) is not the data's raise ValidationError."""
    model = None
    if METHODS[method].needs_mf:
        path = _mf_ckpt_path(out, split_index)
        if not path.exists():
            raise FileNotFoundError(
                f"MF checkpoint {path} not found; run `cfrl pretrain --split {split_index}` first"
            )
        model = mf.load_mf(path)
        if (model.m, model.n) != (ds.m, ds.n):
            raise ValidationError(
                f"{path}: factors for {model.m} x {model.n} users x items do not fit the "
                f"data's {ds.m} x {ds.n}; run `cfrl pretrain --split {split_index}` on this data"
            )
    return SplitContext(ds, split, split_index, cfg, model)


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    spec = METHODS[args.method]
    if spec.trainer is None and (args.resume or args.trace):
        raise ValidationError(f"--resume and --trace need a trainer; {args.method} has none")
    ds = _load_dataset(cfg)
    split = _split(cfg, ds, args.split)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, out)
    ctx = _context(cfg, ds, split, args.split, out, args.method)
    train_cfg = cfg.train_config()
    stem = _artifact_stem(args.method, train_cfg.task, args.split)
    ckpt = out / f"{stem}{spec.suffix}"

    if spec.trainer is None:
        spec.save(spec.fit(ctx, train_cfg), ckpt)
        print(f"checkpoint written to {ckpt}")
        return EXIT_OK

    trainer = spec.trainer(ctx, train_cfg)
    state_path = out / f"{stem}_state.npz"
    if args.resume:
        if not state_path.exists():
            raise FileNotFoundError(f"--resume given but {state_path} does not exist")
        trainer.restore(state_path)
        print(f"resumed at episode {trainer.episode}")
    log_path = out / f"{stem}_train_log.csv"
    diverged = None
    try:
        while trainer.episode < train_cfg.episodes:
            if cfg.checkpoint_every > 0:
                target = min(train_cfg.episodes, trainer.episode + cfg.checkpoint_every)
            else:
                target = train_cfg.episodes
            trainer.run(until_episode=target)
            trainer.save(state_path)
    except DivergenceError as exc:
        diverged = exc
    # the log and trace derive from the trainer's record: every completed
    # episode, also those before a resume or a divergence
    agent.write_training_log(log_path, trainer)
    if args.trace:
        agent.write_trace(out / f"{stem}_trace.csv", trainer)
    if diverged is not None:
        kept = (
            f"last-good state kept at {state_path}"
            if state_path.exists()
            else "no checkpoint had been written yet"
        )
        print(f"training diverged: {diverged}; {kept}", file=sys.stderr)
        return EXIT_FAILURE
    spec.save(
        trainer.net, ckpt,
        manifest={
            "seed": train_cfg.seed,
            "episodes": trainer.episode,
            "train_steps": trainer.train_steps,
            "sync_period": train_cfg.sync_period,
            "gamma": train_cfg.gamma,
            "q_lr": train_cfg.q_lr,
            "task": train_cfg.task.value,
            "split": args.split,
        },
    )
    print(f"checkpoint written to {ckpt}")
    print(f"training log written to {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evaluate      # loads multiprocessing, which the other commands do not use

    cfg = _resolve_config(args)
    ds = _load_dataset(cfg)
    split = _split(cfg, ds, args.split)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    task = task_mode(args.task)
    spec = METHODS[args.method]
    ctx = _context(cfg, ds, split, args.split, out, args.method)
    stem = _artifact_stem(args.method, task, args.split)
    artifact = spec.load(ctx, out / f"{stem}{spec.suffix}") if spec.trains else None
    scores = evaluate.evaluate_policy(spec.policy(ctx, artifact), ds, split, task,
                                      cfg.agent.horizon)
    path = out / f"eval_{stem}.csv"
    with atomic_text(path) as fh:
        fh.write("user,score\n")
        for user, score in zip(sorted(split.test_users), scores):
            fh.write(f"{user},{float(score)!r}\n")
    print(f"{args.method} {task.value} split {args.split}: "
          f"mean reward {float(np.mean(scores)):.4f} over {scores.size} users")
    print(f"per-user scores written to {path}")
    write_resolved(cfg, out)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    from . import evaluate

    cfg = _resolve_config(args)
    if args.methods is not None:
        cfg.methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not cfg.methods:
        raise ValueError("empty methods list")
    ds = _load_dataset(cfg)
    report = evaluate.benchmark(ds, _splits(cfg, ds), cfg)
    out = Path(cfg.out)
    evaluate.write_report(report, out)
    write_resolved(cfg, out)
    print(report.render_text())
    print(f"report files written to {out}")
    return EXIT_FAILURE if report.failed_cells() else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfrl",
        description="Interactive recommendation simulator and benchmark suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--out", help="override [run] out directory")

    p_ingest = sub.add_parser("ingest", help="parse a ratings file, print stats, write a snapshot")
    common(p_ingest)
    p_ingest.add_argument("--data", help="ratings file path")
    p_ingest.add_argument("--format", choices=sorted(dataset.FORMAT_SEPARATORS))
    p_ingest.set_defaults(func=cmd_ingest)

    p_pre = sub.add_parser("pretrain", help="pretrain the factor model for one split")
    common(p_pre)
    p_pre.add_argument("--data", help="ratings file or snapshot path")
    p_pre.add_argument("--format", choices=sorted(dataset.FORMAT_SEPARATORS))
    p_pre.add_argument("--split", type=int, default=0)
    p_pre.set_defaults(func=cmd_pretrain)

    p_train = sub.add_parser("train", help="train one learning method on one split")
    common(p_train)
    p_train.add_argument("--data", help="ratings file or snapshot path")
    p_train.add_argument("--format", choices=sorted(dataset.FORMAT_SEPARATORS))
    p_train.add_argument("--method", choices=[m for m, spec in METHODS.items() if spec.trains],
                         default="cfrl")
    p_train.add_argument("--split", type=int, default=0)
    p_train.add_argument("--resume", action="store_true", help="continue from the saved state")
    p_train.add_argument("--trace", action="store_true", help="write the per-step episode trace")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate one method on one split")
    common(p_eval)
    p_eval.add_argument("--data", help="ratings file or snapshot path")
    p_eval.add_argument("--format", choices=sorted(dataset.FORMAT_SEPARATORS))
    p_eval.add_argument("--method", required=True, choices=tuple(METHODS))
    p_eval.add_argument("--task", default="task1")
    p_eval.add_argument("--split", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("benchmark", help="run the full methods-by-tasks grid")
    common(p_bench)
    p_bench.add_argument("--data", help="ratings file or snapshot path")
    p_bench.add_argument("--format", choices=sorted(dataset.FORMAT_SEPARATORS))
    p_bench.add_argument("--methods", help="comma-separated method subset")
    p_bench.add_argument("--jobs", type=int, help="parallel split workers")
    p_bench.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CfrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
