import math
from collections import Counter

import numpy as np
import pytest

from cfrl.dataset import (
    RatingDataset,
    RatingRecord,
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


def test_parse_line_tab():
    rec = parse_rating_line("196\t242\t3\t881250949", "\t")
    assert rec == RatingRecord(user=196, item=242, rating=3, timestamp=881250949)


def test_parse_line_double_colon():
    rec = parse_rating_line("1::1193::5::978300760", "::")
    assert rec.user == 1 and rec.item == 1193 and rec.rating == 5


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


def test_rating_out_of_range_rejected():
    with pytest.raises(ValidationError, match="outside 1..5"):
        RatingDataset.from_records([RatingRecord(user=1, item=1, rating=6)])


def test_duplicate_pair_rejected():
    records = [
        RatingRecord(user=1, item=1, rating=3),
        RatingRecord(user=1, item=1, rating=4),
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        RatingDataset.from_records(records)


def test_load_asserts_movielens_min_ratings(tmp_path):
    path = tmp_path / "short.tsv"
    write_ratings_file(path, {5: {i: 3 for i in range(4)}})
    with pytest.raises(ValidationError, match="at least 20"):
        load_ratings(path, "tab")


def test_indices_are_sorted_bijections(synth_ds):
    assert list(synth_ds.user_ids) == sorted(synth_ds.user_ids)
    assert list(synth_ds.item_ids) == sorted(synth_ds.item_ids)
    for ext in synth_ds.user_ids.tolist():
        assert synth_ds.user_ids[synth_ds.user_index[ext]] == ext
    for ext in synth_ds.item_ids.tolist():
        assert synth_ds.item_ids[synth_ds.item_index[ext]] == ext
    assert 0 <= min(synth_ds.user_index.values())
    assert max(synth_ds.user_index.values()) == synth_ds.m - 1


def test_reload_is_stable(tmp_path):
    path = tmp_path / "ratings.tsv"
    write_ratings_file(path, synthetic_profiles())
    first = load_ratings(path, "tab")
    second = load_ratings(path, "tab")
    assert np.array_equal(first.user_ids, second.user_ids)
    assert np.array_equal(first.item_ids, second.item_ids)
    assert first.user_ratings == second.user_ratings


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
    splits = make_splits(synth_ds, n_splits=4, test_fraction=0.25, min_ratings=20, seed=11)
    again = make_splits(synth_ds, n_splits=4, test_fraction=0.25, min_ratings=20, seed=11)
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
    other = make_splits(synth_ds, n_splits=4, test_fraction=0.25, min_ratings=20, seed=12)
    assert any(a.test_users != b.test_users for a, b in zip(splits, other))


def test_make_splits_strict_threshold():
    profiles = {u: {i: 3 for i in range(10)} for u in range(4)}
    profiles[4] = {i: 3 for i in range(11)}
    ds = make_dataset(profiles)
    # exactly 10 ratings does not qualify when min_ratings=10
    assert split_candidates(ds, 10) == [ds.user_index[4]]


def test_make_splits_no_candidates():
    ds = make_dataset({1: {1: 3, 2: 4}})
    with pytest.raises(ValidationError, match="no users"):
        make_splits(ds, n_splits=2, test_fraction=0.5, min_ratings=100, seed=0)


def test_make_splits_validates_arguments(synth_ds):
    with pytest.raises(ValueError):
        make_splits(synth_ds, n_splits=0, test_fraction=0.1, min_ratings=5, seed=0)
    with pytest.raises(ValueError):
        make_splits(synth_ds, n_splits=1, test_fraction=1.5, min_ratings=5, seed=0)


def test_snapshot_round_trip(tmp_path, synth_ds):
    path = tmp_path / "ds.snap"
    save_snapshot(synth_ds, path)
    back = load_snapshot(path)
    assert back.m == synth_ds.m and back.n == synth_ds.n
    assert back.user_ratings == synth_ds.user_ratings
    assert np.array_equal(back.user_ids, synth_ds.user_ids)


def test_snapshot_round_trip_equals_load_ratings(tmp_path, synth_file):
    ds = load_ratings(synth_file, "tab")
    path = tmp_path / "ds.snap"
    save_snapshot(ds, path)
    back = load_snapshot(path)
    assert (back.m, back.n, back.rating_count) == (ds.m, ds.n, ds.rating_count)
    for got, want in ((back.user_ids, ds.user_ids), (back.item_ids, ds.item_ids)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert back.user_index == ds.user_index and back.item_index == ds.item_index
    assert [list(d.items()) for d in back.user_ratings] == [
        list(d.items()) for d in ds.user_ratings
    ]
    for got, want in zip(back.triples(), ds.triples()):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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
    splits = make_splits(ml100k_ds, n_splits=10, test_fraction=0.10, min_ratings=100, seed=0)
    assert len(splits) == 10
    for split in splits:
        assert len(split.test_users) == math.ceil(0.1 * len(heavy))
