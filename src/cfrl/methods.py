"""The compared methods, in report order, and how each one is built.

The benchmark grid, `cfrl train` and `cfrl eval` all go through one entry
per method. An entry turns the split (and its trained artifact) into a
policy, which keeps its own state; the environment it is evaluated in needs
no model. A Q-learner's fit is its trainer run to the end, so `cfrl train`
(with or without `--resume`) and the grid train it through one
agent.make_trainer. A split's context carries the run's config.RunConfig,
the one place its settings are stated, and the entries read the seed, the
[agent] settings and LinUCB's alpha from it. Entries look their builders up
on the `agent`, `baselines` and `qnet` modules each time they run, so a
builder rebound there is the one every path calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import agent, baselines, persist, qnet
from .errors import ValidationError
from .seeding import derive_seed


@dataclass
class SplitContext:
    """What a method may draw on for one split."""

    ds: object
    split: object
    index: int                   # split index, part of the per-split seeds
    cfg: object                  # the run's config.RunConfig
    mf_model: object = None      # pretrained factors, when some method needs them


@dataclass(frozen=True)
class MethodSpec:
    """How one method is trained, stored and turned into a policy."""

    needs_mf: bool
    policy: Callable                  # (ctx, artifact) -> policy
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
    A, b, alpha = persist.load_npz(path, "LinUCB checkpoint", ("A", "b", "alpha_ucb")).values()
    shapes, width = (A.shape, b.shape, alpha.shape), 2 * ctx.mf_model.d
    if shapes != ((width, width), (width,), (1,)):
        raise ValidationError(f"{path}: LinUCB shapes {shapes} do not fit factor width {width // 2}")
    if any(x.dtype != np.float64 or not np.isfinite(x).all() for x in (A, b, alpha)):
        raise ValidationError(f"{path}: LinUCB statistics are not finite float64")
    # The policy inverts A once and scores with the blocks of A^-1 as a
    # symmetric matrix, so A must be symmetric positive definite.
    try:
        np.linalg.cholesky(A)
        spd = np.array_equal(A, A.T)
    except np.linalg.LinAlgError:
        spd = False
    if not spd:
        raise ValidationError(f"{path}: LinUCB matrix A is not symmetric positive definite")
    return baselines.LinUcbModel(A=A, b=b, alpha_ucb=float(alpha[0]))


def _q_learner(raw_state: bool) -> MethodSpec:
    """A greedy Q-network over the raw rating vector (dqn) or the latent state
    (cfrl); fit is its trainer run to the end. The greedy policy acts on the
    state kind that agent.make_trainer trains on."""

    def trainer(ctx, cfg) -> agent.QTrainer:
        return agent.make_trainer(ctx.ds, ctx.split, None if raw_state else ctx.mf_model, cfg)

    def fit(ctx, cfg) -> qnet.QNetwork:
        learner = trainer(ctx, cfg)
        learner.run()
        return learner.net

    def load(ctx, path) -> qnet.QNetwork:
        """A network whose input and action widths fit the data and state."""
        net = qnet.load_qnet(path)
        width = ctx.ds.n if raw_state else ctx.mf_model.d
        if (net.input_dim, net.output_dim) != (width, ctx.ds.n):
            raise ValidationError(
                f"{path}: Q-network maps {net.input_dim} inputs to {net.output_dim} actions, "
                f"but this data and state need {width} inputs and {ctx.ds.n} actions")
        return net

    return MethodSpec(
        needs_mf=not raw_state,
        policy=lambda ctx, net: baselines.GreedyQPolicy(net, *agent.state_kind(
            None if raw_state else ctx.mf_model, ctx.ds.n, ctx.cfg.agent.horizon)),
        fit=fit,
        save=lambda net, path, manifest=None: qnet.save_qnet(net, path, manifest=manifest),
        load=load,
        suffix=".ckpt",
        trainer=trainer,
    )


METHODS = {
    "random": MethodSpec(False, lambda ctx, _: baselines.RandomPolicy(
        seed=derive_seed(ctx.cfg.seed, f"random:{ctx.index}"))),
    "popular": MethodSpec(False, lambda ctx, _: baselines.popular_policy(
        ctx.ds, ctx.split.train_users)),
    "impact": MethodSpec(False, lambda ctx, _: baselines.impact_policy(
        ctx.ds, ctx.split.train_users)),
    "mf": MethodSpec(True, lambda ctx, _: baselines.OnlineMfPolicy(ctx.mf_model)),
    "linucb": MethodSpec(
        True,
        lambda ctx, ucb: baselines.LinUcbPolicy(ucb, ctx.mf_model, frozen=True),
        fit=lambda ctx, cfg: baselines.train_linucb(
            ctx.ds, ctx.split, ctx.mf_model, cfg, alpha_ucb=ctx.cfg.linucb_alpha),
        save=lambda ucb, path, manifest=None: persist.save_npz(
            path, {"A": ucb.A, "b": ucb.b, "alpha_ucb": np.array([ucb.alpha_ucb])}),
        load=_load_linucb,
        suffix=".npz",
    ),
    "dqn": _q_learner(raw_state=True),
    "cfrl": _q_learner(raw_state=False),
}
