"""Crime-statistics ingestion, feature engineering, labeling, and synthesis.

The CSV schema is ``Unit, Year`` followed by one column per configured crime
type (16 by default).  Engineering derives aggregate features per record and
the four-tier severity label comes from the violent-crime ratio and total
case count.  A seeded generator produces datasets with the same shape so the
whole pipeline runs without the original (unpublished) source data.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError

DEFAULT_CRIME_TYPES: tuple[str, ...] = (
    "Dacoity",
    "Robbery",
    "Murder",
    "Speedy Trial",
    "Riot",
    "Woman & Child Repression",
    "Kidnapping",
    "Police Assault",
    "Burglary",
    "Theft",
    "Other Cases",
    "Arms Act",
    "Explosive Act",
    "Narcotics",
    "Smuggling",
    "Recovery Cases",
)

SEVERITY_LEVELS: tuple[str, ...] = ("Low", "Medium", "High", "Critical")
SEVERITY_RANK: dict[str, int] = {name: i for i, name in enumerate(SEVERITY_LEVELS)}

# (violent-ratio threshold, total-cases threshold) per tier, checked top-down
_SEVERITY_TIERS: tuple[tuple[str, float, float], ...] = (
    ("Critical", 0.3, 30_000.0),
    ("High", 0.15, 15_000.0),
    ("Medium", 0.05, 5_000.0),
)


@dataclass(frozen=True)
class CrimeSchema:
    """Configured crime-type universe and the aggregate membership lists."""

    crime_types: tuple[str, ...] = DEFAULT_CRIME_TYPES
    violent_types: tuple[str, ...] = ("Murder", "Dacoity", "Robbery", "Kidnapping", "Riot")
    property_types: tuple[str, ...] = ("Theft", "Robbery", "Dacoity", "Burglary")
    social_types: tuple[str, ...] = ("Woman & Child Repression", "Riot", "Narcotics", "Smuggling")

    def __post_init__(self) -> None:
        known = set(self.crime_types)
        if len(known) != len(self.crime_types):
            raise UsageError("crime_types contains duplicates")
        for group_name in ("violent_types", "property_types", "social_types"):
            unknown = set(getattr(self, group_name)) - known
            if unknown:
                raise UsageError(f"{group_name} not in crime_types: {sorted(unknown)}")


DEFAULT_SCHEMA = CrimeSchema()


@dataclass(frozen=True)
class CrimeRecord:
    """One reporting unit's counts for one year; absent types count as 0."""

    unit: str
    year: int
    counts: Mapping[str, int]
    source_row: int | None = None

    def count_vector(self, schema: CrimeSchema) -> np.ndarray:
        values = np.array(
            [int(self.counts.get(name, 0)) for name in schema.crime_types], dtype=float
        )
        if np.any(values < 0):
            bad = [
                name for name in schema.crime_types if self.counts.get(name, 0) < 0
            ]
            raise DataError(f"negative counts for {bad} in unit {self.unit!r}")
        return values


@dataclass(frozen=True)
class SeverityInputs:
    """Violent-crime ratio and total case count feeding the severity rule.

    When derived from a record the ratio is defined as 0 for an empty year
    (see :func:`severity_inputs`); direct construction only enforces ranges
    so threshold grids can probe arbitrary combinations.
    """

    violent_ratio: float
    total_cases: float

    def __post_init__(self) -> None:
        if self.total_cases < 0:
            raise UsageError("total_cases must be >= 0")
        if not 0.0 <= self.violent_ratio <= 1.0:
            raise UsageError(f"violent_ratio out of [0, 1]: {self.violent_ratio}")


def severity_label(inputs: SeverityInputs) -> str:
    """Four-tier severity: first tier whose ratio OR volume bound is exceeded."""
    for name, ratio_bound, case_bound in _SEVERITY_TIERS:
        if inputs.violent_ratio > ratio_bound or inputs.total_cases > case_bound:
            return name
    return "Low"


def severity_inputs(record: CrimeRecord, schema: CrimeSchema = DEFAULT_SCHEMA) -> SeverityInputs:
    counts = record.count_vector(schema)
    total = float(counts.sum())
    violent = float(sum(record.counts.get(name, 0) for name in schema.violent_types))
    ratio = violent / total if total > 0 else 0.0
    return SeverityInputs(violent_ratio=ratio, total_cases=total)


@dataclass
class LabeledDataset:
    """Feature matrix, optional severity labels, and where they came from."""

    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray | None
    provenance: str

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] != len(self.feature_names):
            raise DataError("X must be 2-D with one column per feature name")
        if not np.all(np.isfinite(self.X)):
            raise DataError("X contains non-finite values")
        if self.y is not None:
            self.y = np.asarray(self.y)
            if len(self.y) != len(self.X):
                raise DataError("label count does not match row count")
            unknown = set(np.unique(self.y)) - set(SEVERITY_LEVELS)
            if unknown:
                raise DataError(f"unknown severity labels: {sorted(unknown)}")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


_RAW_FEATURE_TYPES = ("Woman & Child Repression", "Other Cases", "Murder", "Theft", "Robbery")


def engineer_features(
    records: Sequence[CrimeRecord], schema: CrimeSchema = DEFAULT_SCHEMA
) -> LabeledDataset:
    """Aggregate counts into the derived feature set (labels not attached).

    Columns: total cases, violent/property/social aggregates, the population
    standard deviation and the nonzero-type count of the per-record counts,
    plus the five configured raw count columns.
    """
    if not records:
        raise DataError("no records to engineer")
    names = [
        "Total Cases",
        "Violent Crime Total",
        "Property Crime Total",
        "Social Crime Total",
        "Crime Standard Deviation",
        "Crime Diversity",
        *_RAW_FEATURE_TYPES,
    ]
    rows = np.empty((len(records), len(names)))
    for r, record in enumerate(records):
        counts = record.count_vector(schema)
        get = record.counts.get
        rows[r, 0] = counts.sum()
        rows[r, 1] = sum(get(t, 0) for t in schema.violent_types)
        rows[r, 2] = sum(get(t, 0) for t in schema.property_types)
        rows[r, 3] = sum(get(t, 0) for t in schema.social_types)
        rows[r, 4] = np.std(counts)
        rows[r, 5] = np.count_nonzero(counts)
        for c, type_name in enumerate(_RAW_FEATURE_TYPES):
            rows[r, 6 + c] = get(type_name, 0)
    return LabeledDataset(feature_names=names, X=rows, y=None, provenance="ingested")


def label_records(
    records: Sequence[CrimeRecord], schema: CrimeSchema = DEFAULT_SCHEMA
) -> np.ndarray:
    return np.array([severity_label(severity_inputs(r, schema)) for r in records])


def build_dataset(
    records: Sequence[CrimeRecord],
    schema: CrimeSchema = DEFAULT_SCHEMA,
    provenance: str = "ingested",
) -> LabeledDataset:
    """Engineer features and attach severity labels in one step."""
    dataset = engineer_features(records, schema)
    dataset.y = label_records(records, schema)
    dataset.provenance = provenance
    return dataset


def select_features(dataset: LabeledDataset, k: int = 10, n_bins: int = 10) -> LabeledDataset:
    """Keep the ``k`` features most informative about the labels.

    Ranking is by mutual information, descending, with ties broken by
    original column order; the retained columns appear in rank order.
    """
    if dataset.y is None:
        raise UsageError("dataset must be labeled before feature selection")
    if k > dataset.n_features:
        raise UsageError(f"k={k} exceeds available features ({dataset.n_features})")
    from .classical import mutual_information  # here, so that qcb synth loads no model

    scores = np.array(
        [
            mutual_information(dataset.X[:, j], dataset.y, n_bins=n_bins)
            for j in range(dataset.n_features)
        ]
    )
    order = sorted(range(dataset.n_features), key=lambda j: (-scores[j], j))
    keep = order[:k]
    return LabeledDataset(
        feature_names=[dataset.feature_names[j] for j in keep],
        X=dataset.X[:, keep].copy(),
        y=dataset.y.copy(),
        provenance=dataset.provenance,
    )


# ---------------------------------------------------------------------------
# CSV I/O


def ingest_csv(path, schema: CrimeSchema = DEFAULT_SCHEMA) -> list[CrimeRecord]:
    """Parse a crime-statistics CSV, reporting row/column for every defect."""
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:2] != ["Unit", "Year"]:
            raise DataError(f"{path}: header must start with 'Unit,Year', got {header[:2]}")
        expected = set(schema.crime_types)
        present = header[2:]
        unknown = [h for h in present if h not in expected]
        if unknown:
            raise DataError(f"{path}: unknown columns {unknown}")
        missing = sorted(expected - set(present))
        if missing:
            raise DataError(f"{path}: missing crime-type columns {missing}")
        records = []
        first_row: dict[tuple[str, int], int] = {}
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_number} has {len(row)} fields, expected {len(header)}"
                )
            unit = row[0].strip()
            try:
                year = int(row[1])
            except ValueError:
                raise DataError(f"{path}: row {row_number}, column 'Year': {row[1]!r} is not an integer") from None
            earlier = first_row.setdefault((unit, year), row_number)
            if earlier != row_number:
                raise DataError(
                    f"{path}: rows {earlier} and {row_number} both hold unit {unit!r}, year {year}"
                )
            counts = {}
            for col_name, value in zip(present, row[2:]):
                try:
                    count = int(value)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_number}, column {col_name!r}: {value!r} is not an integer"
                    ) from None
                if count < 0:
                    raise DataError(
                        f"{path}: row {row_number}, column {col_name!r}: negative count {count}"
                    )
                counts[col_name] = count
            records.append(
                CrimeRecord(unit=unit, year=year, counts=counts, source_row=row_number)
            )
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def write_csv(records: Sequence[CrimeRecord], path, schema: CrimeSchema = DEFAULT_SCHEMA) -> None:
    path = Path(path)
    try:
        handle = path.open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    with handle:
        writer = csv.writer(handle)
        writer.writerow(["Unit", "Year", *schema.crime_types])
        for record in records:
            writer.writerow(
                [record.unit, record.year]
                + [int(record.counts.get(name, 0)) for name in schema.crime_types]
            )


# ---------------------------------------------------------------------------
# synthetic generator

# baseline annual rates per crime type for a median reporting unit; violent
# types are kept low so the baseline violent ratio sits below the Medium bound
_BASE_RATES: dict[str, float] = {
    "Theft": 620.0,
    "Burglary": 430.0,
    "Other Cases": 1400.0,
    "Narcotics": 760.0,
    "Woman & Child Repression": 680.0,
    "Recovery Cases": 360.0,
    "Smuggling": 190.0,
    "Speedy Trial": 120.0,
    "Police Assault": 60.0,
    "Arms Act": 70.0,
    "Explosive Act": 25.0,
    "Murder": 60.0,
    "Robbery": 48.0,
    "Dacoity": 26.0,
    "Kidnapping": 22.0,
    "Riot": 14.0,
}

# pairs sharing an extra log-normal factor so rank correlations above the
# default 0.5 threshold survive even within same-sized units
_LINKED_PAIRS: tuple[tuple[str, str], ...] = (
    ("Theft", "Burglary"),
    ("Murder", "Robbery"),
    ("Narcotics", "Smuggling"),
)

_START_YEAR = 2008
_ANNUAL_GROWTH = 0.09


def synthesize(n_units: int = 18, n_years: int = 16, seed: int = 0) -> list[CrimeRecord]:
    """Seeded synthetic crime records with realistic structure.

    Unit sizes follow a geometric ladder from small stations to large
    metropolitan commands (jittered log-normally), years carry a mild growth
    trend, a few type pairs share latent factors (so the high-correlation
    pair set is non-empty), and per-unit/year violence multipliers spread
    records across all four severity tiers with the top tier in the minority.
    """
    if n_units < 1 or n_years < 1:
        raise UsageError("n_units and n_years must be positive")
    if set(_BASE_RATES) != set(DEFAULT_CRIME_TYPES):
        raise AssertionError("generator rates out of sync with default schema")
    rng = np.random.default_rng(seed)
    unit_scale = np.geomspace(0.07, 4.0, n_units) * rng.lognormal(
        mean=0.0, sigma=0.10, size=n_units
    )
    unit_violence = rng.lognormal(mean=0.0, sigma=0.25, size=n_units)
    year_noise = rng.lognormal(mean=0.0, sigma=0.06, size=(n_units, n_years))
    records: list[CrimeRecord] = []
    for u in range(n_units):
        unit_name = f"Unit-{u + 1:02d}"
        for t in range(n_years):
            year_factor = (1.0 + _ANNUAL_GROWTH) ** t * year_noise[u, t]
            violence = unit_violence[u] * rng.lognormal(0.0, 0.5)
            linked = {
                pair: rng.lognormal(0.0, 0.3) for pair in _LINKED_PAIRS
            }
            counts = {}
            for name, base in _BASE_RATES.items():
                rate = base * unit_scale[u] * year_factor * rng.lognormal(0.0, 0.25)
                if name in DEFAULT_SCHEMA.violent_types:
                    rate *= violence
                for pair, factor in linked.items():
                    if name in pair:
                        rate *= factor
                counts[name] = int(rng.poisson(rate))
            records.append(
                CrimeRecord(unit=unit_name, year=_START_YEAR + t, counts=counts)
            )
    return records
