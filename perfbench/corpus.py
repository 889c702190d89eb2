"""Seeded inputs: an ML-100K-shaped ratings file and one INI config per workload.

The corpus follows the test suite's ML-100K-like generator (heavy-tailed item
popularity, per-item quality plus a user taste offset, lognormal profile sizes
clipped to [20, 600]). At seed 0 it has 943 users, 1,586 rated items and
99,518 ratings. It is written in MovieLens u.data layout (user, item, rating,
timestamp, tab-separated) so `cfrl ingest` parses it like the real file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Full size matches MovieLens 100K; tiny is for the smoke test only.
SIZES = {
    "full": {"m": 943, "n": 1682, "target": 100_000, "min_ratings": 100},
    "tiny": {"m": 80, "n": 160, "target": 4_000, "min_ratings": 40},
}


def ml100k_like_profiles(seed: int, m: int, n: int, target: int) -> dict:
    """{user: {item: rating}} with the real dataset's dimensions and rough shape."""
    rng = np.random.default_rng(seed)
    pop = rng.zipf(1.4, size=n).astype(float)
    pop /= pop.sum()
    quality = np.clip(rng.normal(3.6, 0.9, size=n), 1.2, 4.8)
    sizes = np.clip(rng.lognormal(4.2, 0.75, size=m).astype(int), 20, 600)
    sizes = np.maximum((sizes * (target / sizes.sum())).astype(int), 20)
    profiles = {}
    for u in range(m):
        k = min(int(sizes[u]), n)
        items = rng.choice(n, size=k, replace=False, p=pop)
        taste = rng.normal(0, 0.5)
        vals = np.clip(np.round(quality[items] + taste + rng.normal(0, 0.7, size=k)), 1, 5)
        profiles[u] = {int(i): int(v) for i, v in zip(items, vals)}
    return profiles


def write_udata(path: Path, profiles: dict) -> dict:
    """Write u.data lines; returns the corpus shape (m, n rated items, ratings)."""
    lines = []
    ts = 881000000
    for u, prof in sorted(profiles.items()):
        for i, r in sorted(prof.items()):
            lines.append(f"{u}\t{i}\t{r}\t{ts}")
            ts += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rated = {i for prof in profiles.values() for i in prof}
    return {"m": len(profiles), "n": len(rated), "ratings": len(lines)}


def write_config(path: Path, *, seed: int, out: Path, data: Path, min_ratings: int,
                 splits: int, mf_dim: int, mf_epochs: int, episodes: int, horizon: int,
                 q_lr: float | None, checkpoint_every: int) -> None:
    """One run config; everything not set here (q_lr when None) keeps the
    program's default."""
    step = "" if q_lr is None else f"q_lr = {q_lr}\n"
    path.write_text(
        f"""[run]
seed = {seed}
out = {out}

[data]
path = {data}
format = tab
name = synthetic-ml100k

[split]
count = {splits}
min_ratings = {min_ratings}

[mf]
dim = {mf_dim}
epochs = {mf_epochs}

[agent]
episodes = {episodes}
horizon = {horizon}
{step}task = task2
checkpoint_every = {checkpoint_every}

[eval]
tasks = task1,task2
methods = random,popular,impact,mf,linucb,dqn,cfrl
jobs = 1
""",
        encoding="utf-8",
    )
