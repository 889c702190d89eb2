"""MovieLens-format explicit ratings: ingestion, train/test splits, snapshots.

External user/item ids are densified to 0-based indices by sorting the ids
ascending, so index maps (and everything seeded downstream) are stable across
reloads of the same file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .persist import is_npz, load_npz, save_npz
from .seeding import rng_for

# Line formats: MovieLens u.data is tab-separated, ratings.dat uses "::".
FORMAT_SEPARATORS = {"tab": "\t", "double-colon": "::"}

# Every MovieLens user has at least 20 ratings; asserted at file ingestion.
MIN_RATINGS_PER_USER = 20


@dataclass(frozen=True)
class RatingRecord:
    """One observed explicit rating. Timestamps are parsed but never used."""

    user: int
    item: int
    rating: int
    timestamp: int = 0


@dataclass
class RatingDataset:
    """Sparse user-item rating matrix with dense 0-based index maps."""

    m: int
    n: int
    user_ids: np.ndarray          # dense user index -> external id, sorted ascending
    item_ids: np.ndarray          # dense item index -> external id, sorted ascending
    user_index: dict              # external id -> dense user index
    item_index: dict              # external id -> dense item index
    user_ratings: list            # per user index: {item index: rating}
    rating_count: int
    _triples: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_records(cls, records) -> "RatingDataset":
        """Build a dataset from RatingRecords, validating ratings and duplicates."""
        records = list(records)
        if not records:
            raise ValidationError("no records")
        for rec in records:
            if rec.rating not in (1, 2, 3, 4, 5):
                raise ValidationError(
                    f"rating {rec.rating!r} for user {rec.user}, item {rec.item} "
                    f"outside 1..5"
                )
        user_ids = np.array(sorted({r.user for r in records}), dtype=np.int64)
        item_ids = np.array(sorted({r.item for r in records}), dtype=np.int64)
        user_index = {ext: i for i, ext in enumerate(user_ids.tolist())}
        item_index = {ext: i for i, ext in enumerate(item_ids.tolist())}
        user_ratings = [dict() for _ in range(len(user_ids))]
        count = 0
        for rec in records:
            u = user_index[rec.user]
            i = item_index[rec.item]
            if i in user_ratings[u]:
                raise ValidationError(
                    f"duplicate rating for user {rec.user}, item {rec.item}"
                )
            user_ratings[u][i] = rec.rating
            count += 1
        return cls(
            m=len(user_ids),
            n=len(item_ids),
            user_ids=user_ids,
            item_ids=item_ids,
            user_index=user_index,
            item_index=item_index,
            user_ratings=user_ratings,
            rating_count=count,
        )

    def rating(self, user: int, item: int):
        """Logged rating for (user index, item index), or None if unobserved."""
        return self.user_ratings[user].get(item)

    def mean_rating(self) -> float:
        total = sum(sum(d.values()) for d in self.user_ratings)
        return total / self.rating_count

    def triples(self):
        """(users, items, ratings) index arrays over all observed entries.

        Row order follows (user index, item index) ascending; cached.
        """
        if self._triples is None:
            us, its, rs = [], [], []
            for u, d in enumerate(self.user_ratings):
                for i in sorted(d):
                    us.append(u)
                    its.append(i)
                    rs.append(d[i])
            self._triples = (
                np.array(us, dtype=np.int64),
                np.array(its, dtype=np.int64),
                np.array(rs, dtype=np.float64),
            )
        return self._triples


@dataclass(frozen=True)
class Split:
    """One train/test partition of the user set."""

    train_users: frozenset
    test_users: frozenset
    seed: int


def parse_rating_line(line: str, sep: str) -> RatingRecord:
    parts = line.split(sep)
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields, got {len(parts)}")
    try:
        user, item, rating, ts = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-integer field in {parts!r}") from None
    return RatingRecord(user=user, item=item, rating=rating, timestamp=ts)


def load_ratings(path, fmt: str = "tab") -> RatingDataset:
    """Read a MovieLens ratings file into a RatingDataset.

    Args:
        path: ratings file (u.data or ratings.dat layout).
        fmt: "tab" or "double-colon" field separator.

    Raises:
        ParseError: a line does not split into 4 integer fields.
        ValidationError: rating outside 1..5, duplicate (user, item) pair,
            empty file, or a user with fewer than 20 ratings.
    """
    if fmt not in FORMAT_SEPARATORS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMAT_SEPARATORS)}")
    sep = FORMAT_SEPARATORS[fmt]
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse_rating_line(line, sep))
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
    if not records:
        raise ValidationError(f"no records in {path}")
    ds = RatingDataset.from_records(records)
    short = [u for u, d in enumerate(ds.user_ratings) if len(d) < MIN_RATINGS_PER_USER]
    if short:
        ext = ds.user_ids[short[0]]
        raise ValidationError(
            f"user {ext} has {len(ds.user_ratings[short[0]])} ratings; "
            f"MovieLens files guarantee at least {MIN_RATINGS_PER_USER}"
        )
    return ds


def dataset_stats(ds: RatingDataset) -> dict:
    """Basic corpus statistics: m, n, rating_count, mean_rating, density."""
    if ds.rating_count == 0:
        raise ValidationError("empty dataset")
    return {
        "m": ds.m,
        "n": ds.n,
        "rating_count": ds.rating_count,
        "mean_rating": ds.mean_rating(),
        "density": ds.rating_count / (ds.m * ds.n),
    }


def split_candidates(ds: RatingDataset, min_ratings: int) -> list:
    """User indices with strictly more than min_ratings observed ratings."""
    return [u for u, d in enumerate(ds.user_ratings) if len(d) > min_ratings]


def make_splits(
    ds: RatingDataset,
    n_splits: int = 10,
    test_fraction: float = 0.10,
    min_ratings: int = 100,
    seed: int = 0,
) -> list:
    """Draw independent train/test splits over heavy-rater candidates.

    Per split, ceil(test_fraction * |candidates|) users with more than
    min_ratings ratings are sampled uniformly without replacement as the test
    set; everyone else (including non-candidates) trains. Deterministic in
    (seed, split index).
    """
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    candidates = split_candidates(ds, min_ratings)
    if not candidates:
        raise ValidationError(f"no users with more than {min_ratings} ratings")
    k = math.ceil(test_fraction * len(candidates))
    all_users = frozenset(range(ds.m))
    splits = []
    for s in range(n_splits):
        rng = rng_for(seed, f"split:{s}")
        test = frozenset(rng.choice(candidates, size=k, replace=False).tolist())
        splits.append(Split(train_users=all_users - test, test_users=test, seed=seed))
    return splits


def is_snapshot(path) -> bool:
    """True when the file starts as a zip archive, as every snapshot does."""
    return is_npz(path)


def save_snapshot(ds: RatingDataset, path) -> None:
    """Write a normalized snapshot that re-loads without re-parsing: one
    (rating_count, 3) int64 array of (user id, item id, rating) records in
    ascending (user, item) order, written atomically."""
    users, items, ratings = ds.triples()
    rec = np.empty((ds.rating_count, 3), dtype=np.int64)
    rec[:, 0] = ds.user_ids[users]
    rec[:, 1] = ds.item_ids[items]
    rec[:, 2] = ratings
    save_npz(path, {"records": rec})


def load_snapshot(path) -> RatingDataset:
    """Load a snapshot written by save_snapshot.

    Raises:
        ValidationError: the file is not a snapshot, is truncated, damaged or
            has trailing bytes, or its records are not what save_snapshot
            writes (ratings in 1..5, (user, item) pairs strictly ascending).
    """
    rec = load_npz(path, "dataset snapshot", ("records",))["records"]
    if rec.dtype != np.int64 or rec.ndim != 2 or rec.shape[1] != 3:
        raise ValidationError(f"{path}: records are {rec.dtype}{rec.shape}, expected int64 (count, 3)")
    count = rec.shape[0]
    if count == 0:
        raise ValidationError(f"{path}: no records")
    users, items, ratings = rec.T
    if ((ratings < 1) | (ratings > 5)).any():
        raise ValidationError(f"{path}: rating outside 1..5")
    du, di = np.diff(users), np.diff(items)
    if ((du == 0) & (di == 0)).any():
        raise ValidationError(f"{path}: duplicate (user, item) record")
    if ((du < 0) | ((du == 0) & (di < 0))).any():
        raise ValidationError(f"{path}: records are not in ascending (user, item) order")
    user_ids, per_user = np.unique(users, return_counts=True)
    item_ids, item_idx = np.unique(items, return_inverse=True)
    m, n = len(user_ids), len(item_ids)
    ends = np.cumsum(per_user).tolist()
    # one int object per item index, shared by every user's dict (as from_records does)
    item_objs = list(range(n))
    item_list = [item_objs[k] for k in item_idx.tolist()]
    rating_list = ratings.tolist()
    user_ratings = [
        dict(zip(item_list[start:end], rating_list[start:end]))
        for start, end in zip([0, *ends[:-1]], ends)
    ]
    return RatingDataset(
        m=m,
        n=n,
        user_ids=user_ids,
        item_ids=item_ids,
        user_index={ext: k for k, ext in enumerate(user_ids.tolist())},
        item_index={ext: k for k, ext in enumerate(item_ids.tolist())},
        user_ratings=user_ratings,
        rating_count=count,
    )
