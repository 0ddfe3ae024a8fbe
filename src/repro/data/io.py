"""Dataset readers and writers.

Three formats are supported:

* **Foursquare TSV** — the exact column layout of the public
  ``dataset_TSMC2014_NYC.txt`` dump the paper uses, so the pipeline runs
  unchanged on the genuine data when it is available.
* **CSV** — a header-carrying round-trippable export.
* **JSONL** — one JSON object per check-in, with a venue sidecar; the format
  the web API serves.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..geo import GeoPoint, validate_lat_lon
from .records import CheckIn, CheckInDataset, Venue

__all__ = [
    "read_foursquare_tsv",
    "write_foursquare_tsv",
    "read_csv",
    "write_csv",
    "read_jsonl",
    "write_jsonl",
    "load_dataset",
    "save_dataset",
]

#: Foursquare dump timestamp format, e.g. ``Tue Apr 03 18:00:09 +0000 2012``.
_FOURSQUARE_TIME_FORMAT = "%a %b %d %H:%M:%S %z %Y"

#: Valid UTC offsets in minutes: UTC-12:00 to UTC+14:00.
_TZ_OFFSET_RANGE_MIN = (-720, 840)

_CSV_FIELDS = [
    "user_id",
    "venue_id",
    "category_id",
    "category_name",
    "lat",
    "lon",
    "tz_offset_min",
    "utc_time",
]


def _parse_foursquare_time(raw: str) -> datetime:
    return datetime.strptime(raw.strip(), _FOURSQUARE_TIME_FORMAT).astimezone(timezone.utc)


def _format_foursquare_time(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(_FOURSQUARE_TIME_FORMAT)


def read_foursquare_tsv(path: Union[str, Path], name: Optional[str] = None) -> CheckInDataset:
    """Load a Foursquare TSMC2014-format TSV file.

    Columns: user id, venue id, venue category id, venue category name,
    latitude, longitude, timezone offset in minutes, UTC time.
    Malformed rows raise :class:`ValueError` with the offending line number:
    unparsable fields, non-finite or out-of-range coordinates, and timezone
    offsets outside UTC-12:00..UTC+14:00.
    """
    path = Path(path)
    checkins: List[CheckIn] = []
    venues: Dict[str, Venue] = {}
    tz_lo, tz_hi = _TZ_OFFSET_RANGE_MIN
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 tab-separated fields, got {len(parts)}")
            try:
                lat, lon, tz_offset_min = float(parts[4]), float(parts[5]), int(parts[6])
                validate_lat_lon(lat, lon)  # NaN and inf fail the range test too
                if not tz_lo <= tz_offset_min <= tz_hi:
                    raise ValueError(f"tz_offset_min {tz_offset_min} out of range [{tz_lo}, {tz_hi}]")
                record = CheckIn(
                    user_id=parts[0],
                    venue_id=parts[1],
                    category_id=parts[2],
                    category_name=parts[3],
                    lat=lat,
                    lon=lon,
                    tz_offset_min=tz_offset_min,
                    timestamp=_parse_foursquare_time(parts[7]),
                )
                if record.venue_id not in venues:
                    venues[record.venue_id] = Venue(
                        venue_id=record.venue_id,
                        name=record.venue_id,
                        category_id=record.category_id,
                        category_name=record.category_name,
                        location=GeoPoint(lat, lon),
                    )
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            checkins.append(record)
    return CheckInDataset(checkins, venues, name=name or path.stem)


def write_foursquare_tsv(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Write a dataset in the Foursquare dump layout."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for c in dataset:
            fh.write(
                "\t".join(
                    [
                        c.user_id,
                        c.venue_id,
                        c.category_id,
                        c.category_name,
                        f"{c.lat:.8f}",
                        f"{c.lon:.8f}",
                        str(c.tz_offset_min),
                        _format_foursquare_time(c.timestamp),
                    ]
                )
                + "\n"
            )


def read_csv(path: Union[str, Path], name: Optional[str] = None) -> CheckInDataset:
    """Load the CSV export produced by :func:`write_csv`."""
    path = Path(path)
    checkins: List[CheckIn] = []
    venues: Dict[str, Venue] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(_CSV_FIELDS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: missing CSV columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                record = CheckIn(
                    user_id=row["user_id"],
                    venue_id=row["venue_id"],
                    category_id=row["category_id"],
                    category_name=row["category_name"],
                    lat=float(row["lat"]),
                    lon=float(row["lon"]),
                    tz_offset_min=int(row["tz_offset_min"]),
                    timestamp=datetime.fromisoformat(row["utc_time"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                # TypeError covers DictReader's None fills for short rows.
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            checkins.append(record)
            venues.setdefault(
                record.venue_id,
                Venue(
                    venue_id=record.venue_id,
                    name=record.venue_id,
                    category_id=record.category_id,
                    category_name=record.category_name,
                    location=GeoPoint(record.lat, record.lon),
                ),
            )
    return CheckInDataset(checkins, venues, name=name or path.stem)


def write_csv(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for c in dataset:
            writer.writerow(
                [
                    c.user_id,
                    c.venue_id,
                    c.category_id,
                    c.category_name,
                    f"{c.lat:.8f}",
                    f"{c.lon:.8f}",
                    c.tz_offset_min,
                    c.timestamp.astimezone(timezone.utc).isoformat(),
                ]
            )


def write_jsonl(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Write one JSON object per check-in plus a ``.venues.json`` sidecar."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for c in dataset:
            fh.write(
                json.dumps(
                    {
                        "user_id": c.user_id,
                        "venue_id": c.venue_id,
                        "category_id": c.category_id,
                        "category_name": c.category_name,
                        "lat": c.lat,
                        "lon": c.lon,
                        "tz_offset_min": c.tz_offset_min,
                        "utc_time": c.timestamp.astimezone(timezone.utc).isoformat(),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
    sidecar = path.with_suffix(path.suffix + ".venues.json")
    with sidecar.open("w", encoding="utf-8") as fh:
        json.dump(
            {
                vid: {
                    "name": v.name,
                    "category_id": v.category_id,
                    "category_name": v.category_name,
                    "lat": v.lat,
                    "lon": v.lon,
                }
                for vid, v in sorted(dataset.venues.items())
            },
            fh,
            indent=1,
            sort_keys=True,
        )


def read_jsonl(path: Union[str, Path], name: Optional[str] = None) -> CheckInDataset:
    """Load a JSONL export (venue sidecar is used when present)."""
    path = Path(path)
    checkins: List[CheckIn] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"expected a JSON object, got {type(row).__name__}")
                checkins.append(
                    CheckIn(
                        user_id=row["user_id"],
                        venue_id=row["venue_id"],
                        category_id=row.get("category_id", ""),
                        category_name=row.get("category_name", ""),
                        lat=float(row["lat"]),
                        lon=float(row["lon"]),
                        tz_offset_min=int(row.get("tz_offset_min", 0)),
                        timestamp=datetime.fromisoformat(row["utc_time"]),
                    )
                )
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
    venues: Dict[str, Venue] = {}
    sidecar = path.with_suffix(path.suffix + ".venues.json")
    if sidecar.exists():
        with sidecar.open("r", encoding="utf-8") as fh:
            for vid, row in json.load(fh).items():
                venues[vid] = Venue(
                    venue_id=vid,
                    name=row.get("name", vid),
                    category_id=row.get("category_id", ""),
                    category_name=row.get("category_name", ""),
                    location=GeoPoint(float(row["lat"]), float(row["lon"])),
                )
    else:
        for c in checkins:
            venues.setdefault(
                c.venue_id,
                Venue(c.venue_id, c.venue_id, c.category_id, c.category_name, c.location),
            )
    return CheckInDataset(checkins, venues, name=name or path.stem)


_READERS = {".tsv": read_foursquare_tsv, ".txt": read_foursquare_tsv, ".csv": read_csv, ".jsonl": read_jsonl}
_WRITERS = {".tsv": write_foursquare_tsv, ".txt": write_foursquare_tsv, ".csv": write_csv, ".jsonl": write_jsonl}


def load_dataset(path: Union[str, Path]) -> CheckInDataset:
    """Load a dataset, dispatching on file extension (.tsv/.txt/.csv/.jsonl)."""
    path = Path(path)
    reader = _READERS.get(path.suffix.lower())
    if reader is None:
        raise ValueError(f"unsupported dataset extension {path.suffix!r} (expected one of {sorted(_READERS)})")
    return reader(path)


def save_dataset(dataset: CheckInDataset, path: Union[str, Path]) -> None:
    """Save a dataset, dispatching on file extension (.tsv/.txt/.csv/.jsonl)."""
    path = Path(path)
    writer = _WRITERS.get(path.suffix.lower())
    if writer is None:
        raise ValueError(f"unsupported dataset extension {path.suffix!r} (expected one of {sorted(_WRITERS)})")
    writer(dataset, path)
