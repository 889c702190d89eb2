"""MovieLens-format explicit ratings: ingestion, the CSR rating matrix,
train/test splits, snapshots.

External user/item ids are densified to 0-based indices by sorting the ids
ascending, so indices (and everything seeded downstream) are stable across
reloads of the same file.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .persist import is_npz, load_npz, save_npz
from .seeding import rng_for

# Line formats: MovieLens u.data is tab-separated, ratings.dat uses "::".
FORMAT_SEPARATORS = {"tab": "\t", "double-colon": "::"}

# Every MovieLens user has at least 20 ratings; asserted at file ingestion.
MIN_RATINGS_PER_USER = 20

# A plain ratings file is parsed in blocks of at most this many bytes.
_BLOCK_BYTES = 1 << 20
# Longest field of a plain file: 18 digits always fit int64.
_PLAIN_DIGITS = 18


@dataclass(frozen=True, eq=False)
class RatingDataset:
    """Sparse user-item rating matrix in CSR form, with sorted external ids.

    Row u (dense user index) holds items[indptr[u]:indptr[u + 1]], its dense
    item indices in ascending order, and the matching ratings in 1..5. The
    arrays are read-only.
    """

    user_ids: np.ndarray     # dense user index -> external id, sorted ascending
    item_ids: np.ndarray     # dense item index -> external id, sorted ascending
    indptr: np.ndarray       # (m + 1,) int64 row starts
    items: np.ndarray        # (rating_count,) int64 item index per rating
    ratings: np.ndarray      # (rating_count,) int64 rating, 1..5

    @classmethod
    def from_arrays(cls, users, items, ratings) -> "RatingDataset":
        """The matrix of (user id, item id, rating) triples, given in any order.
        Triples in strictly ascending (user, item) order, as a snapshot holds
        them, are taken as they come; any other order is sorted first.

        Raises:
            ValidationError: no triples, a value that is not an integer, a
                rating outside 1..5 or a repeated (user, item) pair.
        """
        users, items, ratings = (np.asarray(a) for a in (users, items, ratings))
        for values, what in ((users, "user id"), (items, "item id"), (ratings, "rating")):
            with np.errstate(invalid="ignore"):  # a NaN or 1e30 cast warns; refused below
                changed = np.flatnonzero(values.astype(np.int64) != values)
            if changed.size:
                k = changed[0]
                raise ValidationError(f"{what} {values[k].item()!r} at position {k} "
                                      f"is not a 64-bit integer")
        users, items = (a.astype(np.int64, copy=False) for a in (users, items))
        ratings = ratings.astype(np.int64)      # a copy: the matrix's own, made read-only
        if not users.size:
            raise ValidationError("no records")
        bad = np.flatnonzero((ratings < 1) | (ratings > 5))
        if bad.size:
            k = bad[0]
            raise ValidationError(
                f"rating {ratings[k]} for user {users[k]}, item {items[k]} outside 1..5"
            )
        item_ids, cols = np.unique(items, return_inverse=True)
        # compared, not subtracted: a difference of two int64 ids can wrap
        same_user = users[1:] == users[:-1]
        if not ((users[1:] > users[:-1]) | (same_user & (items[1:] > items[:-1]))).all():
            order = np.lexsort((items, users))
            users, cols, ratings = users[order], cols[order], ratings[order]
            same_user = users[1:] == users[:-1]
        # sorted, a repeated pair is a neighbour of itself
        dup = np.flatnonzero(same_user & (cols[1:] == cols[:-1]))
        if dup.size:
            k = dup[0]
            raise ValidationError(f"duplicate rating for user {users[k]}, item {item_ids[cols[k]]}")
        first = np.flatnonzero(np.concatenate(([True], ~same_user)))    # each user's first triple
        user_ids, indptr = users[first], np.append(first, users.size)
        arrays = (user_ids, item_ids, indptr, cols, ratings)
        for array in arrays:
            array.flags.writeable = False
        return cls(*arrays)

    @property
    def m(self) -> int:
        return self.user_ids.size

    @property
    def n(self) -> int:
        return self.item_ids.size

    @property
    def rating_count(self) -> int:
        return self.items.size

    def mean_rating(self) -> float:
        return int(self.ratings.sum()) / self.rating_count

    def triples(self):
        """(users, items, ratings) index arrays over all observed entries, in
        (user index, item index) order; ratings as float64."""
        users = np.repeat(np.arange(self.m, dtype=np.int64), np.diff(self.indptr))
        return users, self.items, self.ratings.astype(np.float64)

    def digest(self) -> str:
        """SHA-256 of the five arrays: equal for equal matrices."""
        arrays = (self.user_ids, self.item_ids, self.indptr, self.items, self.ratings)
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@dataclass(frozen=True)
class Split:
    """One train/test partition of the user set."""

    train_users: frozenset
    test_users: frozenset
    seed: int


def parse_rating_line(line: str, sep: str) -> tuple:
    """(user id, item id, rating) of one line of 4 integer fields; the fourth,
    a timestamp, is checked and dropped."""
    parts = line.split(sep)
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields, got {len(parts)}")
    try:
        user, item, rating, _ = map(int, parts)
    except ValueError:
        raise ValueError(f"non-integer field in {parts!r}") from None
    return user, item, rating


def load_ratings(path, fmt: str = "tab") -> RatingDataset:
    """Read a MovieLens ratings file into a RatingDataset.

    A plain file (see _parse_plain) is parsed by whole-array passes; any
    other is read line by line. Both give the same triples for a plain file.

    Args:
        path: ratings file (u.data or ratings.dat layout).
        fmt: "tab" or "double-colon" field separator.

    Raises:
        ParseError: the file is not UTF-8 text, or a line does not split
            into 4 integer fields.
        ValidationError: rating outside 1..5, duplicate (user, item) pair,
            empty file, or a user with fewer than 20 ratings.
    """
    if fmt not in FORMAT_SEPARATORS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMAT_SEPARATORS)}")
    sep = FORMAT_SEPARATORS[fmt]
    with open(path, "rb") as fh:
        data = fh.read()
    records = _parse_plain(data, sep.encode("ascii"))
    users, items, ratings = records if records is not None else _parse_lines(path, data, sep)
    if not len(users):
        raise ValidationError(f"no records in {path}")
    ds = RatingDataset.from_arrays(users, items, ratings)
    counts = np.diff(ds.indptr)
    short = np.flatnonzero(counts < MIN_RATINGS_PER_USER)
    if short.size:
        raise ValidationError(
            f"user {ds.user_ids[short[0]]} has {counts[short[0]]} ratings; "
            f"MovieLens files guarantee at least {MIN_RATINGS_PER_USER}"
        )
    return ds


def _parse_lines(path, data: bytes, sep: str) -> tuple:
    """(users, items, ratings) lists of a ratings file, read one line at a
    time: UTF-8 text, any line ends, blank lines skipped, each line stripped
    and split into 4 fields that int() accepts.

    Raises:
        ParseError: the file is not UTF-8, or a line is not 4 integer fields.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            path, data.count(b"\n", 0, exc.start) + 1,
            "not UTF-8 ratings text; a dataset snapshot written by an earlier "
            "`cfrl ingest` is no longer read, so run `cfrl ingest` on the ratings file again",
        ) from None
    users, items, ratings = [], [], []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            user, item, rating = parse_rating_line(line, sep)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        users.append(user)
        items.append(item)
        ratings.append(rating)
    return users, items, ratings


def _parse_plain(data: bytes, sep: bytes):
    """(users, items, ratings) int64 arrays of a plain ratings file, or None
    for any other file.

    A plain file holds only ASCII digits, the separator's bytes and "\n",
    and each of its non-blank lines is 4 digit runs of at most
    _PLAIN_DIGITS digits joined by single separators. The file is parsed in
    blocks of at most _BLOCK_BYTES, each ending after a newline or at the end
    of the file, so the temporaries do not grow with the file.
    """
    blocks, start = [], 0
    while start < len(data):
        end = len(data)
        if end - start > _BLOCK_BYTES:
            end = data.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
            if end <= start:   # no newline in a whole block: a line no plain file has
                return None
        fields = _plain_fields(data[start:end], sep)
        if fields is None:
            return None
        blocks.append(fields[:, :3].copy())   # the timestamp is dropped
        start = end
    records = np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.int64)
    return records[:, 0], records[:, 1], records[:, 2]


def _plain_fields(block: bytes, sep: bytes):
    """The (lines, 4) int64 fields of a block of plain lines, or None when a
    byte or a line of the block is not plain.

    The separators are checked on the block's own bytes: every run of
    non-digits inside a line must be exactly sep, and no separator byte may
    stand anywhere else (a lone ":", a ":::" or a blank line of separators).
    """
    a = np.frombuffer(block, dtype=np.uint8)
    digit = (a - np.uint8(ord("0"))) < 10   # wraps below "0", so one compare
    sep_bytes = np.count_nonzero(a == sep[0])   # both separators repeat one byte
    if np.count_nonzero(digit) + sep_bytes + np.count_nonzero(a == ord("\n")) != a.size:
        return None
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]   # digit runs as [start, end)
    if starts.size % 4 or (starts.size and (ends - starts).max() > _PLAIN_DIGITS):
        return None
    gaps = ends.reshape(-1, 4)[:, :3]   # the in-line gaps, one after each of fields 0-2
    if (starts.reshape(-1, 4)[:, 1:] - gaps != len(sep)).any():
        return None
    if any((a[gaps + k] != byte).any() for k, byte in enumerate(sep)):
        return None
    if sep_bytes != gaps.size * len(sep):   # a separator byte outside the in-line gaps
        return None
    return np.fromstring(block.replace(sep, b" "), dtype=np.int64, sep=" ").reshape(-1, 4)


def dataset_stats(ds: RatingDataset) -> dict:
    """Basic corpus statistics: m, n, rating_count, mean_rating, density."""
    return {
        "m": ds.m,
        "n": ds.n,
        "rating_count": ds.rating_count,
        "mean_rating": ds.mean_rating(),
        "density": ds.rating_count / (ds.m * ds.n),
    }


def split_candidates(ds: RatingDataset, min_ratings: int) -> list:
    """User indices with strictly more than min_ratings observed ratings."""
    return np.flatnonzero(np.diff(ds.indptr) > min_ratings).tolist()


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
    users = np.repeat(ds.user_ids, np.diff(ds.indptr))
    save_npz(path, {"records": np.column_stack((users, ds.item_ids[ds.items], ds.ratings))})


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
    users, items, ratings = rec.T
    # compared, not subtracted: a difference of two int64 ids can wrap
    same_user = users[1:] == users[:-1]
    if ((users[1:] < users[:-1]) | (same_user & (items[1:] < items[:-1]))).any():
        raise ValidationError(f"{path}: records are not in ascending (user, item) order")
    try:
        return RatingDataset.from_arrays(users, items, ratings)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
