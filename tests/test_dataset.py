import math
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cfrl import dataset
from cfrl.baselines import popularity_counts
from cfrl.dataset import (
    FORMAT_SEPARATORS,
    RatingDataset,
    SplitConfig,
    dataset_stats,
    load_ratings,
    load_snapshot,
    make_splits,
    parse_rating_line,
    save_snapshot,
    split_candidates,
)
from cfrl.errors import ParseError, ValidationError
from cfrl.persist import save_npz

from conftest import (
    make_dataset,
    ml100k_path,
    ml1m_path,
    needs_ml100k,
    synthetic_profiles,
    write_ratings_file,
)


def assert_same_matrix(got, want):
    """The five CSR arrays are equal, dtypes included."""
    for name in ("user_ids", "item_ids", "indptr", "items", "ratings"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_parse_line_tab():
    assert parse_rating_line("196\t242\t3\t881250949", "\t") == (196, 242, 3)


def test_parse_line_double_colon():
    assert parse_rating_line("1::1193::5::978300760", "::") == (1, 1193, 5)


def test_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ValidationError, match="no records"):
        load_ratings(path, "tab")


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t2\t3\t4\n1\t2\tthree\n")
    with pytest.raises(ParseError, match=":2:"):
        load_ratings(path, "tab")



def test_non_utf8_file_is_a_parse_error_on_its_line(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"1\t2\t3\t4\n1\t3\t3\t4\n1\t4\t\xaf\t4\n")
    with pytest.raises(ParseError, match=":3: not UTF-8"):
        load_ratings(path, "tab")

def test_rating_out_of_range_rejected():
    with pytest.raises(ValidationError, match="outside 1..5"):
        RatingDataset.from_arrays([1], [1], [6])


@pytest.mark.parametrize("ratings, shown", [
    ([3.5, 2.0, 5.9], "rating 3.5 at position 0"),
    ([3.0, float("nan"), 2.0], "rating nan at position 1"),
    ([3.0, 2.0, 1e30], "rating 1e+30 at position 2"),
])
def test_non_integer_input_rejected(ratings, shown):
    with pytest.raises(ValidationError, match=re.escape(f"{shown} is not a 64-bit integer")):
        RatingDataset.from_arrays([1, 2, 3], [1, 2, 3], ratings)
    with pytest.raises(ValidationError, match="item id 2.5 at position 1"):
        RatingDataset.from_arrays([1, 2, 3], [1.0, 2.5, 3.0], [3, 4, 5])


def test_from_arrays_round_trips_triples(synth_ds):
    # triples() gives float64 ratings; integral floats load exactly
    again = RatingDataset.from_arrays(*synth_ds.triples())
    for key in ("indptr", "items", "ratings"):
        assert getattr(again, key).dtype == np.int64
        np.testing.assert_array_equal(getattr(again, key), getattr(synth_ds, key))
    np.testing.assert_array_equal(again.user_ids, np.arange(synth_ds.m))
    np.testing.assert_array_equal(again.item_ids, np.arange(synth_ds.n))


def test_duplicate_pair_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        RatingDataset.from_arrays([1, 1], [1, 1], [3, 4])


def test_load_asserts_movielens_min_ratings(tmp_path):
    path = tmp_path / "short.tsv"
    write_ratings_file(path, {5: {i: 3 for i in range(4)}})
    with pytest.raises(ValidationError, match="at least 20"):
        load_ratings(path, "tab")


def test_indices_are_sorted_bijections(synth_ds):
    # strictly ascending ids: searchsorted maps each external id to its index
    for ids in (synth_ds.user_ids, synth_ds.item_ids):
        assert (np.diff(ids) > 0).all()
        assert np.array_equal(np.searchsorted(ids, ids), np.arange(ids.size))
    # every index is used: each user has a row, each item a rating
    assert synth_ds.indptr[0] == 0 and (np.diff(synth_ds.indptr) > 0).all()
    assert np.array_equal(np.unique(synth_ds.items), np.arange(synth_ds.n))


def test_reload_is_stable(tmp_path):
    path = tmp_path / "ratings.tsv"
    write_ratings_file(path, synthetic_profiles())
    first = load_ratings(path, "tab")
    second = load_ratings(path, "tab")
    assert np.array_equal(first.user_ids, second.user_ids)
    assert np.array_equal(first.item_ids, second.item_ids)
    assert_same_matrix(first, second)


def test_double_colon_format_round_trip(tmp_path):
    profiles = synthetic_profiles(n_users=25, per_user=22, seed=3)
    path = tmp_path / "ratings.dat"
    write_ratings_file(path, profiles, sep="::")
    ds = load_ratings(path, "double-colon")
    assert ds.m == 25
    assert ds.rating_count == sum(len(p) for p in profiles.values())


def test_stats_single_record():
    ds = make_dataset({1: {7: 5}})
    stats = dataset_stats(ds)
    assert stats["mean_rating"] == 5.0
    assert stats["m"] == 1 and stats["n"] == 1
    assert stats["density"] == 1.0


def test_stats_against_one_pass_count_oracle(synth_file, synth_ds):
    # independent oracle: re-count the raw file with throwaway code
    total = 0
    count = 0
    pairs = set()
    with open(synth_file) as fh:
        for line in fh:
            u, i, r, _ = line.split("\t")
            total += int(r)
            count += 1
            pairs.add((u, i))
    stats = dataset_stats(synth_ds)
    assert stats["rating_count"] == count == len(pairs)
    assert stats["mean_rating"] == pytest.approx(total / count, abs=1e-12)
    assert stats["density"] == pytest.approx(count / (synth_ds.m * synth_ds.n), abs=1e-15)


def test_make_splits_shape_and_determinism(synth_ds):
    splits = make_splits(synth_ds, SplitConfig(count=4, test_fraction=0.25, min_ratings=20),
                         seed=11)
    again = make_splits(synth_ds, SplitConfig(count=4, test_fraction=0.25, min_ratings=20), seed=11)
    assert len(splits) == 4
    candidates = set(split_candidates(synth_ds, 20))
    expected_size = math.ceil(0.25 * len(candidates))
    all_users = frozenset(range(synth_ds.m))
    for s, split in enumerate(splits):
        assert split.test_users <= candidates
        assert len(split.test_users) == expected_size
        assert split.train_users | split.test_users == all_users
        assert not (split.train_users & split.test_users)
        assert split.test_users == again[s].test_users
    # different seeds must not all coincide
    other = make_splits(synth_ds, SplitConfig(count=4, test_fraction=0.25, min_ratings=20), seed=12)
    assert any(a.test_users != b.test_users for a, b in zip(splits, other))


def test_make_splits_strict_threshold():
    profiles = {u: {i: 3 for i in range(10)} for u in range(4)}
    profiles[4] = {i: 3 for i in range(11)}
    ds = make_dataset(profiles)
    # exactly 10 ratings does not qualify when min_ratings=10
    assert split_candidates(ds, 10) == [int(np.searchsorted(ds.user_ids, 4))]


def test_make_splits_no_candidates():
    ds = make_dataset({1: {1: 3, 2: 4}})
    with pytest.raises(ValidationError, match="no users"):
        make_splits(ds, SplitConfig(count=2, test_fraction=0.5, min_ratings=100), seed=0)


def test_make_splits_validates_arguments(synth_ds):
    with pytest.raises(ValueError):
        make_splits(synth_ds, SplitConfig(count=0, test_fraction=0.1, min_ratings=5), seed=0)
    with pytest.raises(ValueError):
        make_splits(synth_ds, SplitConfig(count=1, test_fraction=1.5, min_ratings=5), seed=0)


def test_snapshot_round_trip(tmp_path, synth_ds):
    path = tmp_path / "ds.snap"
    save_snapshot(synth_ds, path)
    back = load_snapshot(path)
    assert back.m == synth_ds.m and back.n == synth_ds.n
    assert_same_matrix(back, synth_ds)


def test_snapshot_round_trip_equals_load_ratings(tmp_path, synth_file):
    ds = load_ratings(synth_file, "tab")
    path = tmp_path / "ds.snap"
    save_snapshot(ds, path)
    back = load_snapshot(path)
    assert (back.m, back.n, back.rating_count) == (ds.m, ds.n, ds.rating_count)
    assert_same_matrix(back, ds)
    for got, want in zip(back.triples(), ds.triples()):
        assert got.dtype == want.dtype and np.array_equal(got, want)



def _reference_rows(records):
    """The dict-of-dicts build this package used to keep: (user ids, item ids,
    one {item index: rating} dict per user index), or None where it refused
    the (user id, item id, rating) records."""
    if not records or any(r not in (1, 2, 3, 4, 5) for _, _, r in records):
        return None
    user_ids = sorted({u for u, _, _ in records})
    item_ids = sorted({i for _, i, _ in records})
    dense_user = {ext: k for k, ext in enumerate(user_ids)}
    dense_item = {ext: k for k, ext in enumerate(item_ids)}
    rows = [{} for _ in user_ids]
    for u, i, r in records:
        row, item = rows[dense_user[u]], dense_item[i]
        if item in row:
            return None
        row[item] = r
    return user_ids, item_ids, rows


def _from_records(records):
    return RatingDataset.from_arrays(*np.array(records, dtype=np.int64).reshape(-1, 3).T)


@st.composite
def rating_records(draw, faults=True):
    """(user id, item id, rating) records in random order; with faults, some
    draws repeat a (user, item) pair or hold a rating of 0 or 6."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2**40)),
                          min_size=0 if faults else 1, max_size=60, unique=True))
    ratings = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    records = [(u, i, r) for (u, i), r in zip(pairs, ratings)]
    if faults and records and draw(st.booleans()):
        k = draw(st.integers(0, len(records) - 1))
        u, i, _ = records[k]
        fault = draw(st.sampled_from(["duplicate", "rating 0", "rating 6"]))
        if fault == "duplicate":
            records.append((u, i, draw(st.integers(1, 5))))
        else:
            records[k] = (u, i, int(fault[-1]))
    return draw(st.permutations(records))


@given(rating_records())
def test_from_arrays_refuses_exactly_what_the_reference_refuses(records):
    if _reference_rows(records) is None:
        with pytest.raises(ValidationError):
            _from_records(records)
    else:
        _from_records(records)


@given(rating_records(faults=False))
def test_from_arrays_rows_match_the_reference(records):
    _assert_rows_match_the_reference(records)


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("records", [
    [(INT64.max, 0, 1), (INT64.min, 0, 2)],     # users whose difference wraps to +1
    [(0, 5, 1), (0, INT64.min, 2)],             # items likewise, under one user
    [(INT64.min, INT64.max, 3), (INT64.max, INT64.min, 4), (0, 0, 5), (0, INT64.max, 1)],
])
def test_ids_at_the_ends_of_int64_are_ordered_by_value(records, tmp_path):
    _assert_rows_match_the_reference(records)
    digest = _from_records(sorted(records)).digest()
    assert _from_records(records).digest() == _from_records(records[::-1]).digest() == digest
    # a snapshot's order check compares the ids too: the matrix round-trips,
    # and its records reversed are refused
    ds = _from_records(records)
    path = tmp_path / "ds.snap"
    save_snapshot(ds, path)
    assert_same_matrix(load_snapshot(path), ds)
    reversed_path = _edited_snapshot(tmp_path, ds, lambda rec: rec.__setitem__(
        slice(None), rec[::-1].copy()))
    with pytest.raises(ValidationError, match="order"):
        load_snapshot(reversed_path)


def _assert_rows_match_the_reference(records):
    user_ids, item_ids, rows = _reference_rows(records)
    ds = _from_records(records)
    assert (ds.m, ds.n, ds.rating_count) == (len(user_ids), len(item_ids), len(records))
    assert ds.user_ids.tolist() == user_ids and ds.item_ids.tolist() == item_ids
    for u, row in enumerate(rows):
        start, end = ds.indptr[u], ds.indptr[u + 1]
        assert ds.items[start:end].tolist() == sorted(row)
        assert ds.ratings[start:end].tolist() == [row[i] for i in sorted(row)]


@given(rating_records(faults=False), st.integers(0, 5), st.data())
def test_from_arrays_summaries_match_the_reference(records, min_ratings, data):
    _, _, rows = _reference_rows(records)
    ds = _from_records(records)
    assert ds.mean_rating() == sum(sum(row.values()) for row in rows) / len(records)
    got = list(zip(*(a.tolist() for a in ds.triples())))
    assert got == [(u, i, float(row[i])) for u, row in enumerate(rows) for i in sorted(row)]
    assert split_candidates(ds, min_ratings) == [
        u for u, row in enumerate(rows) if len(row) > min_ratings
    ]
    train = data.draw(st.sets(st.integers(0, ds.m - 1)), label="train")
    counts = Counter(i for u in train for i in rows[u])
    assert popularity_counts(ds, train).tolist() == [float(counts[i]) for i in range(ds.n)]


@given(rating_records())
def test_ascending_triples_skip_the_sort_and_build_the_same_matrix(records):
    # the same triples, in strictly ascending (user, item) order and in the
    # drawn order, give equal digests or are both refused; only triples that
    # pass the value checks and are not strictly ascending are sorted
    ascending = sorted(records)
    strict = all(a[:2] < b[:2] for a, b in zip(ascending, ascending[1:]))
    digests = []
    for order in (records, ascending):
        with mock.patch.object(dataset.np, "lexsort", wraps=np.lexsort) as lexsort:
            try:
                digests.append(_from_records(order).digest())
            except ValidationError:
                digests.append(None)
        checked = bool(order) and all(1 <= r <= 5 for *_, r in order)
        in_order = strict and list(order) == ascending
        assert lexsort.called == (checked and not in_order)
    assert digests[0] == digests[1]
    assert (digests[0] is None) == (_reference_rows(records) is None)


@given(rating_records(faults=False))
def test_snapshot_round_trip_gives_equal_arrays(records):
    ds = _from_records(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.snap"
        save_snapshot(ds, path)
        assert_same_matrix(load_snapshot(path), ds)

# Field texts other than a plain digit run: some int() reads (spaces, signs,
# underscores, non-ASCII digits), some it refuses.
_ODD_FIELDS = ["", " 7", "7 ", "+7", "-7", "1_0", "_1", "\u0663", "\uff17", "7.0", "x"]
_ODD_SEPARATORS = ["\t", ":", "::", ":::", " ", "\t::", "::\t"]
_ODD_ENDS = ["\r\n", "\r", "\n\n", " \n", "\t\n"]
# Inserted lines; "{}" is the format's separator. A line that ends in a
# separator and a line of one field make four digit runs together.
_ODD_LINES = ["", " ", "\t", ":", "::", "\t\t\t", "1\t2::3::4", "1:::2::3::4", "1::2:3::4",
              "{}1{}2{}3{}4", "1{}2{}3{}\n4", "1{}\n2{}3{}4"]
_ODD_BYTES = [b"\xff", b"\xaf", b"\xc3", "\u00e9".encode(), b"\r"]
_FAULTS = ["field", "digits", "separator", "end", "count", "line", "byte", "drop"]


@st.composite
def ratings_files(draw):
    """(format, bytes) of a ratings file: 1-3 users with 20-23 ratings each,
    lines in random order, with up to three faults among odd fields, digit
    runs of 1, 18, 19 and 25 digits (a one-digit rating may be 0 or 6-9),
    separators, line ends, field counts, inserted lines and bytes and a
    dropped line, and sometimes no final newline."""
    fmt = draw(st.sampled_from(sorted(FORMAT_SEPARATORS)))
    sep = FORMAT_SEPARATORS[fmt]
    ids = st.one_of(st.integers(0, 5000), st.integers(10**17, 10**18 - 1))
    lines = []
    for user in draw(st.lists(ids, min_size=1, max_size=3, unique=True)):
        k = draw(st.integers(20, 23))
        items = draw(st.lists(ids, min_size=k, max_size=k, unique=True))
        ratings = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
        stamps = draw(st.lists(st.integers(0, 10**18 - 1), min_size=k, max_size=k))
        lines += [[str(user), str(i), str(r), str(ts)] for i, r, ts in zip(items, ratings, stamps)]
    lines = [(fields, [sep] * 3, "\n") for fields in draw(st.permutations(lines))]
    inserted, dropped = {}, set()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_FAULTS))
        at = draw(st.integers(0, len(lines) - 1))
        fields, seps, end = lines[at]
        # a line an earlier "count" fault cut to 3 fields has no field 3 and
        # no third separator
        if kind == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_ODD_FIELDS))
        elif kind == "digits":
            width = draw(st.sampled_from([1, 18, 19, 25]))
            digits = st.text("0123456789", min_size=width, max_size=width)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(digits)
        elif kind == "separator":
            seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from(_ODD_SEPARATORS))
        elif kind == "end":
            lines[at] = (fields, seps, draw(st.sampled_from(_ODD_ENDS)))
        elif kind == "count":   # 3 or 5 fields
            if draw(st.booleans()):
                del fields[draw(st.integers(0, len(fields) - 1))]
            else:
                fields.append(fields[-1])
            seps[:] = [sep] * (len(fields) - 1)
        elif kind == "line":
            inserted[at] = draw(st.sampled_from(_ODD_LINES)).replace("{}", sep) + "\n"
        elif kind == "byte":
            inserted[at] = draw(st.sampled_from(_ODD_BYTES))
        else:
            dropped.add(at)
    data = b""
    for k, (fields, seps, end) in enumerate(lines):
        before = inserted.get(k, b"")
        data += before if isinstance(before, bytes) else before.encode()
        if k in dropped:
            continue
        text = fields[0] + "".join(s + f for s, f in zip(seps, fields[1:])) + end
        data += text.encode()
    if draw(st.booleans()):
        data = data[:-1]
    return fmt, data


def _outcome(load, path, fmt):
    """The loaded matrix's digest, or the type and message of what it raised."""
    try:
        return load(path, fmt).digest()
    except Exception as exc:   # compared as type and message
        return type(exc), str(exc)


@settings(max_examples=300)
@given(ratings_files(), st.sampled_from([16, 64, 200, dataset._BLOCK_BYTES]))
def test_load_ratings_matches_the_per_line_reference(file, block_bytes):
    fmt, data = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ratings"
        path.write_bytes(data)
        want = _outcome(oracles.load_ratings, path, fmt)
        with mock.patch.object(dataset, "_BLOCK_BYTES", block_bytes):
            assert _outcome(load_ratings, path, fmt) == want


@pytest.mark.parametrize("fmt", sorted(FORMAT_SEPARATORS))
@pytest.mark.parametrize("block_bytes", [100, dataset._BLOCK_BYTES])
def test_plain_files_are_parsed_without_the_line_reader(tmp_path, monkeypatch, fmt, block_bytes):
    path = tmp_path / "ratings"
    write_ratings_file(path, synthetic_profiles(), sep=FORMAT_SEPARATORS[fmt])
    path.write_bytes(b"\n" + path.read_bytes()[:-1].replace(b"\n", b"\n\n", 3))
    want = oracles.load_ratings(path, fmt).digest()

    def refuse(*args):
        raise AssertionError("a plain file went to the line reader")

    monkeypatch.setattr(dataset, "_parse_lines", refuse)
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", block_bytes)
    assert load_ratings(path, fmt).digest() == want


@pytest.mark.parametrize("line, fields", [
    ("1\t2::3::4", 3), ("1:::2::3::4", 4), ("1::2:3::4", 3), ("1::2::3::4:", 4),
    ("1::2::3::::4", 5), ("::1::2::3", 4),
])
def test_double_colon_lines_the_array_parse_must_refuse(tmp_path, line, fields):
    path = tmp_path / "ratings.dat"
    path.write_text("1::2::3::4\n1::3::3::4\n" + line + "\n")
    with pytest.raises(ParseError, match=":3: ") as exc:
        load_ratings(path, "double-colon")
    assert _outcome(oracles.load_ratings, path, "double-colon") == (ParseError, str(exc.value))
    if fields != 4:
        assert f"expected 4 fields, got {fields}" in str(exc.value)


def test_snapshot_load_is_exact(tmp_path, synth_ds):
    path = tmp_path / "ds.snap"
    save_snapshot(synth_ds, path)
    good = path.read_bytes()
    bad = tmp_path / "bad.snap"
    bad.write_bytes(good + bytes(24))
    with pytest.raises(ValidationError, match="trailing"):
        load_snapshot(bad)
    bad.write_bytes(good[:-8])
    with pytest.raises(ValidationError, match="truncated"):
        load_snapshot(bad)


def _edited_snapshot(tmp_path, ds, edit):
    """Snapshot of ds whose (count, 3) record array was changed in place by edit."""
    path = tmp_path / "ds.snap"
    save_snapshot(ds, path)
    with np.load(path) as data:
        rec = data["records"]
    edit(rec)
    save_npz(path, {"records": rec})
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rec: rec.__setitem__([0, 1], rec[[1, 0]]), "order"),
        (lambda rec: rec.__setitem__(-1, rec[0]), "order"),
        (lambda rec: rec.__setitem__(1, rec[0]), "duplicate"),
        (lambda rec: rec.__setitem__((2, 2), 6), "outside 1..5"),
        (lambda rec: rec.__setitem__((3, 2), 0), "outside 1..5"),
    ],
)
def test_snapshot_rejects_records_save_snapshot_cannot_write(tmp_path, synth_ds, edit, message):
    path = _edited_snapshot(tmp_path, synth_ds, edit)
    with pytest.raises(ValidationError, match=message):
        load_snapshot(path)


def test_snapshot_rejects_other_files(tmp_path, synth_file):
    with pytest.raises(ValidationError, match="not a dataset snapshot"):
        load_snapshot(synth_file)


@needs_ml100k
def test_ml100k_mean_rating(ml100k_ds):
    stats = dataset_stats(ml100k_ds)
    assert stats["m"] == 943 and stats["n"] == 1682
    assert abs(stats["mean_rating"] - 3.529) <= 1e-3


@pytest.mark.skipif(ml1m_path() is None, reason="ML1M dataset not present")
def test_ml1m_mean_rating():
    ds = load_ratings(ml1m_path(), "double-colon")
    assert abs(dataset_stats(ds)["mean_rating"] - 3.581) <= 1e-3


@needs_ml100k
def test_ml100k_candidates_match_brute_force_count(ml100k_ds):
    # independent oracle: count ratings per raw user id straight off the file
    counts = Counter()
    with open(ml100k_path()) as fh:
        for line in fh:
            counts[int(line.split("\t")[0])] += 1
    heavy = {u for u, c in counts.items() if c > 100}
    candidates = split_candidates(ml100k_ds, 100)
    assert {int(ml100k_ds.user_ids[u]) for u in candidates} == heavy
    splits = make_splits(ml100k_ds, SplitConfig(count=10, test_fraction=0.10, min_ratings=100),
                         seed=0)
    assert len(splits) == 10
    for split in splits:
        assert len(split.test_users) == math.ceil(0.1 * len(heavy))
