"""Round-trip and error tests for dataset I/O."""

from datetime import datetime, timezone

import pytest

from repro.data import (
    CheckIn,
    CheckInDataset,
    Venue,
    load_dataset,
    read_csv,
    read_foursquare_tsv,
    read_jsonl,
    save_dataset,
    write_csv,
    write_foursquare_tsv,
    write_jsonl,
)
from repro.geo import GeoPoint

UTC = timezone.utc


@pytest.fixture
def dataset():
    checkins = [
        CheckIn(
            user_id=f"u{i % 3}",
            venue_id=f"v{i % 4}",
            category_id="cat-1",
            category_name="Thai Restaurant",
            lat=40.7 + i * 0.001,
            lon=-74.0 - i * 0.001,
            tz_offset_min=-240,
            timestamp=datetime(2012, 4, 1 + i, 11 + i % 6, 30, 15, tzinfo=UTC),
        )
        for i in range(8)
    ]
    venues = {
        f"v{j}": Venue(f"v{j}", f"Venue {j}", "cat-1", "Thai Restaurant",
                       GeoPoint(40.7, -74.0))
        for j in range(4)
    }
    return CheckInDataset(checkins, venues, name="io-test")


def assert_same_records(a: CheckInDataset, b: CheckInDataset):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.user_id == y.user_id
        assert x.venue_id == y.venue_id
        assert x.category_name == y.category_name
        assert x.timestamp == y.timestamp
        assert x.lat == pytest.approx(y.lat, abs=1e-7)
        assert x.tz_offset_min == y.tz_offset_min


class TestFoursquareTsv:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "data.tsv"
        write_foursquare_tsv(dataset, path)
        loaded = read_foursquare_tsv(path)
        assert_same_records(dataset, loaded)

    def test_real_dump_line_parses(self, tmp_path):
        # Verbatim format of dataset_TSMC2014_NYC.txt.
        line = ("470\t49bbd6c0f964a520f4531fe3\t4bf58dd8d48988d127951735\t"
                "Arts & Crafts Store\t40.719810375488535\t-74.00258103213994\t"
                "-240\tTue Apr 03 18:00:09 +0000 2012\n")
        path = tmp_path / "nyc.txt"
        path.write_text(line)
        ds = read_foursquare_tsv(path)
        assert len(ds) == 1
        record = ds[0]
        assert record.user_id == "470"
        assert record.category_name == "Arts & Crafts Store"
        assert record.timestamp == datetime(2012, 4, 3, 18, 0, 9, tzinfo=UTC)
        assert record.local_time.hour == 14  # UTC-4

    def test_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n")
        with pytest.raises(ValueError, match="expected 8"):
            read_foursquare_tsv(path)

    def test_bad_latitude_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u\tv\tc\tCafe\tNOT_A_NUMBER\t-74.0\t-240\t"
                        "Tue Apr 03 18:00:09 +0000 2012\n")
        with pytest.raises(ValueError, match=":1:"):
            read_foursquare_tsv(path)

    @pytest.mark.parametrize("lat, tz, message", [
        ("40.7", "99999", "tz_offset_min 99999 out of range"),
        ("nan", "-240", "latitude nan out of range"),
    ])
    def test_out_of_range_fields_raise_with_path_and_line(self, tmp_path, lat, tz, message):
        path = tmp_path / "bad.tsv"
        good = "u\tv\tc\tCafe\t40.7\t-74.0\t-240\tTue Apr 03 18:00:09 +0000 2012\n"
        bad = f"u\tv2\tc\tCafe\t{lat}\t-74.0\t{tz}\tTue Apr 03 18:00:09 +0000 2012\n"
        path.write_text(good + bad)
        with pytest.raises(ValueError, match=f"bad.tsv:2: malformed record: {message}"):
            read_foursquare_tsv(path)

    def test_blank_lines_skipped(self, dataset, tmp_path):
        path = tmp_path / "data.tsv"
        write_foursquare_tsv(dataset, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_foursquare_tsv(path)) == len(dataset)


class TestCsv:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(dataset, path)
        assert_same_records(dataset, read_csv(path))

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,venue_id\nu,v\n")
        with pytest.raises(ValueError, match="missing CSV columns"):
            read_csv(path)


class TestJsonl:
    def test_roundtrip_with_sidecar(self, dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(dataset, path)
        assert (tmp_path / "data.jsonl.venues.json").exists()
        loaded = read_jsonl(path)
        assert_same_records(dataset, loaded)
        assert loaded.venues["v0"].name == "Venue 0"

    def test_load_without_sidecar_synthesizes_venues(self, dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(dataset, path)
        (tmp_path / "data.jsonl.venues.json").unlink()
        loaded = read_jsonl(path)
        assert set(loaded.venues) == {c.venue_id for c in dataset}

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match=":1:"):
            read_jsonl(path)


class TestDispatch:
    @pytest.mark.parametrize("ext", [".tsv", ".txt", ".csv", ".jsonl"])
    def test_save_load_roundtrip(self, dataset, tmp_path, ext):
        path = tmp_path / f"data{ext}"
        save_dataset(dataset, path)
        assert_same_records(dataset, load_dataset(path))

    def test_unknown_extension_raises(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            save_dataset(dataset, tmp_path / "data.parquet")
        with pytest.raises(ValueError, match="unsupported"):
            load_dataset(tmp_path / "data.parquet")
