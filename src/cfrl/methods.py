"""The compared methods, in report order, and how each one is built.

The benchmark grid, `cfrl train` and `cfrl eval` all go through one entry
per method. Entries look their builders up on the `agent`, `baselines` and
`qnet` modules each time they run, so a builder rebound there is the one
every path calls.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import agent, baselines, qnet
from .errors import ValidationError
from .seeding import derive_seed


@dataclass
class SplitContext:
    """What a method may draw on for one split."""

    ds: object
    split: object
    index: int                   # split index, part of the per-split seeds
    seed: int                    # the run's top-level seed
    mf_model: object = None      # pretrained factors, when some method needs them
    linucb_alpha: float = 1.0

    @property
    def null_model(self):
        return baselines.null_mf_model(self.ds)


@dataclass(frozen=True)
class MethodSpec:
    """How one method is trained, stored and turned into a policy."""

    needs_mf: bool
    policy: Callable                  # (ctx, artifact) -> (policy, environment model)
    fit: Callable | None = None       # (ctx, cfg) -> artifact, trained in memory
    save: Callable | None = None      # (artifact, path, manifest=None); LinUCB keeps no manifest
    load: Callable | None = None      # (ctx, path) -> artifact
    suffix: str = ""                  # artifact file extension
    trainer: Callable | None = None   # (ctx, cfg) -> the resumable QTrainer behind fit

    @property
    def trains(self) -> bool:
        return self.fit is not None


def _load_linucb(ctx, path) -> baselines.LinUcbModel:
    """Ridge statistics whose shapes fit the split's factor model."""
    try:
        with np.load(path) as data:
            A, b, alpha = data["A"], data["b"], data["alpha_ucb"]
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a LinUCB checkpoint ({exc})") from None
    shapes, width = (A.shape, b.shape, alpha.shape), 2 * ctx.mf_model.d
    if shapes != ((width, width), (width,), (1,)):
        raise ValidationError(f"{path}: LinUCB shapes {shapes} do not fit factor width {width // 2}")
    return baselines.LinUcbModel(A=A, b=b, alpha_ucb=float(alpha[0]))


def _q_learner(raw_state: bool, fit: Callable) -> MethodSpec:
    """A greedy Q-network over the raw rating vector (dqn) or the latent state (cfrl)."""

    def model(ctx):
        return ctx.null_model if raw_state else ctx.mf_model

    return MethodSpec(
        needs_mf=not raw_state,
        policy=lambda ctx, net: (
            baselines.GreedyQPolicy(net, mf_model=model(ctx), raw_state=raw_state), model(ctx)),
        fit=fit,
        save=lambda net, path, manifest=None: qnet.save_qnet(net, path, manifest=manifest),
        load=lambda ctx, path: qnet.load_qnet(path),
        suffix=".ckpt",
        trainer=lambda ctx, cfg: agent.make_trainer(
            ctx.ds, ctx.split, model(ctx), cfg, raw_state=raw_state),
    )


METHODS = {
    "random": MethodSpec(False, lambda ctx, _: (
        baselines.RandomPolicy(seed=derive_seed(ctx.seed, f"random:{ctx.index}")), ctx.null_model)),
    "popular": MethodSpec(False, lambda ctx, _: (
        baselines.popular_policy(ctx.ds, ctx.split.train_users), ctx.null_model)),
    "impact": MethodSpec(False, lambda ctx, _: (
        baselines.impact_policy(ctx.ds, ctx.split.train_users), ctx.null_model)),
    "mf": MethodSpec(True, lambda ctx, _: (baselines.OnlineMfPolicy(ctx.mf_model), ctx.mf_model)),
    "linucb": MethodSpec(
        True,
        lambda ctx, ucb: (baselines.LinUcbPolicy(ucb, ctx.mf_model, frozen=True), ctx.mf_model),
        fit=lambda ctx, cfg: baselines.train_linucb(
            ctx.ds, ctx.split, ctx.mf_model, cfg, alpha_ucb=ctx.linucb_alpha),
        save=lambda ucb, path, manifest=None: np.savez(
            path, A=ucb.A, b=ucb.b, alpha_ucb=np.array([ucb.alpha_ucb])),
        load=_load_linucb,
        suffix=".npz",
    ),
    "dqn": _q_learner(True, lambda ctx, cfg: baselines.raw_dqn_agent(ctx.ds, ctx.split, cfg)[0]),
    "cfrl": _q_learner(
        False, lambda ctx, cfg: agent.train_cfrl(ctx.ds, ctx.split, ctx.mf_model, cfg)[0]),
}
