import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cfrl.dataset import RatingDataset, load_ratings

# Loads can outlast the default 200 ms deadline on a loaded 2-CPU machine, and
# the suite should leave no .hypothesis/ directory in the checkout: no example
# database, and the constants cache Hypothesis keeps goes to the temp dir.
settings.register_profile("cfrl", deadline=None, database=None)
settings.load_profile("cfrl")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "cfrl-hypothesis"))


def make_dataset(profiles):
    """Dataset from {user id: {item id: rating}} (ids become dense indices)."""
    users, items, ratings = zip(
        *[(u, i, r) for u, prof in profiles.items() for i, r in prof.items()]
    )
    return RatingDataset.from_arrays(users, items, ratings)


def profile(ds, user):
    """{item index: rating} of one user's row, read off the CSR arrays."""
    start, end = ds.indptr[user], ds.indptr[user + 1]
    return dict(zip(ds.items[start:end].tolist(), ds.ratings[start:end].tolist()))


def synthetic_profiles(n_users=30, n_items=40, per_user=25, seed=7):
    """Random rating profiles with a mild popularity/quality structure."""
    rng = np.random.default_rng(seed)
    quality = rng.uniform(1.0, 5.0, size=n_items)
    profiles = {}
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user, replace=False)
        prof = {}
        for i in items:
            r = int(np.clip(round(quality[i] + rng.normal(0, 0.8)), 1, 5))
            prof[int(i)] = r
        profiles[u] = prof
    return profiles


def write_ratings_file(path, profiles, sep="\t"):
    lines = []
    ts = 881000000
    for u, prof in sorted(profiles.items()):
        for i, r in sorted(prof.items()):
            lines.append(f"{u}{sep}{i}{sep}{r}{sep}{ts}")
            ts += 1
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def synth_ds():
    return make_dataset(synthetic_profiles())


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "ratings.tsv"
    write_ratings_file(path, synthetic_profiles())
    return path


def ml100k_like_profiles(seed=0, m=943, n=1682, target=100_000):
    """Synthetic corpus with the real dataset's dimensions and rough shape.

    Heavy-tailed item popularity, per-item quality plus user taste offsets,
    lognormal profile sizes clipped to [20, 600]. For scale and ordering
    smoke tests only; it is not a stand-in for the real ratings."""
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


def two_cluster_profiles(seed=0, m=200, n=200, per_group=40):
    """Personalization-only corpus: two user clusters with opposite item-group
    preferences and uniform popularity. A fixed global ranking earns ~3.0 per
    step; telling the clusters apart from observed feedback earns ~4.4."""
    rng = np.random.default_rng(seed)
    half = n // 2
    profiles = {}
    for u in range(m):
        cluster = u % 2
        liked = rng.choice(half, size=per_group, replace=False) + (0 if cluster == 0 else half)
        disliked = rng.choice(half, size=per_group, replace=False) + (half if cluster == 0 else 0)
        prof = {}
        for i in liked:
            prof[int(i)] = int(np.clip(5 + rng.integers(-1, 1), 1, 5))
        for i in disliked:
            prof[int(i)] = int(np.clip(1 + rng.integers(0, 2), 1, 5))
        profiles[u] = prof
    return profiles


PLANTED_ITEM = 3


def planted_profiles():
    """5 users, 6 items; item 3 is rated 5 by everyone, the rest are low."""
    return {
        0: {PLANTED_ITEM: 5, 0: 1, 1: 2},
        1: {PLANTED_ITEM: 5, 1: 1, 2: 2},
        2: {PLANTED_ITEM: 5, 2: 1, 4: 2},
        3: {PLANTED_ITEM: 5, 4: 1, 5: 2},
        4: {PLANTED_ITEM: 5, 0: 2, 5: 1},
    }


@pytest.fixture
def planted_ds():
    return make_dataset(planted_profiles())


def ml100k_path():
    """Locate the real ML100K ratings file, if present."""
    candidates = [os.environ.get("CFRL_ML100K")]
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "ml-100k" / "u.data", Path("data/ml-100k/u.data")]
    for cand in candidates:
        if cand and Path(cand).exists():
            return Path(cand)
    return None


def ml1m_path():
    candidates = [os.environ.get("CFRL_ML1M")]
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "ml-1m" / "ratings.dat", Path("data/ml-1m/ratings.dat")]
    for cand in candidates:
        if cand and Path(cand).exists():
            return Path(cand)
    return None


ML100K_MISSING = (
    "ML100K dataset not present (set CFRL_ML100K or place data/ml-100k/u.data); "
    "this environment has no network route to fetch it"
)

needs_ml100k = pytest.mark.skipif(ml100k_path() is None, reason=ML100K_MISSING)


@pytest.fixture(scope="session")
def ml100k_ds():
    path = ml100k_path()
    if path is None:
        pytest.skip(ML100K_MISSING)
    return load_ratings(path, "tab")
