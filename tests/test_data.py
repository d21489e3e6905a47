import numpy as np
import pytest

from qcb import cli
from qcb.circuits import build_correlation_graph
from qcb.data import (
    DEFAULT_CRIME_TYPES,
    DEFAULT_SCHEMA,
    SEVERITY_LEVELS,
    SEVERITY_RANK,
    CrimeRecord,
    CrimeSchema,
    SeverityInputs,
    build_dataset,
    engineer_features,
    ingest_csv,
    label_records,
    select_features,
    severity_inputs,
    severity_label,
    synthesize,
    write_csv,
)
from qcb.errors import DataError, UsageError

from oracles import two_pass_std


def make_record(unit="U", year=2010, **counts):
    return CrimeRecord(unit=unit, year=year, counts=counts)


class TestSeverityLabel:
    def test_critical_by_ratio(self):
        assert severity_label(SeverityInputs(0.35, 100)) == "Critical"

    def test_high_by_cases(self):
        assert severity_label(SeverityInputs(0.10, 20000)) == "High"

    def test_all_zero_is_low(self):
        assert severity_label(SeverityInputs(0.0, 0)) == "Low"

    def test_boundaries_are_strict(self):
        assert severity_label(SeverityInputs(0.3, 0)) == "High"
        assert severity_label(SeverityInputs(0.15, 0)) == "Medium"
        assert severity_label(SeverityInputs(0.05, 0)) == "Low"
        assert severity_label(SeverityInputs(0.0, 30000)) == "High"
        assert severity_label(SeverityInputs(0.0, 15000)) == "Medium"
        assert severity_label(SeverityInputs(0.0, 5000)) == "Low"

    def test_monotone_in_both_inputs(self):
        rng = np.random.default_rng(0)
        ratios = np.sort(rng.uniform(0, 1, size=12))
        cases = np.sort(rng.uniform(0, 40000, size=12))
        for c in cases:
            ranks = [SEVERITY_RANK[severity_label(SeverityInputs(r, c))] for r in ratios]
            assert np.all(np.diff(ranks) >= 0)
        for r in ratios:
            ranks = [SEVERITY_RANK[severity_label(SeverityInputs(r, c))] for c in cases]
            assert np.all(np.diff(ranks) >= 0)

    def test_invalid_inputs(self):
        with pytest.raises(UsageError):
            SeverityInputs(1.2, 10)
        with pytest.raises(UsageError):
            SeverityInputs(0.0, -1)


class TestEngineering:
    def test_all_zero_record(self):
        ds = engineer_features([make_record()])
        row = dict(zip(ds.feature_names, ds.X[0]))
        assert row["Total Cases"] == 0
        assert row["Crime Standard Deviation"] == 0
        assert row["Crime Diversity"] == 0

    def test_violent_aggregate(self):
        ds = engineer_features([make_record(Murder=5, Robbery=3)])
        row = dict(zip(ds.feature_names, ds.X[0]))
        assert row["Violent Crime Total"] == 8
        assert row["Crime Diversity"] == 2
        assert row["Total Cases"] == 8

    def test_aggregates_sum_configured_members(self):
        rng = np.random.default_rng(1)
        counts = {name: int(rng.integers(0, 300)) for name in DEFAULT_CRIME_TYPES}
        record = make_record(**counts)
        ds = engineer_features([record])
        row = dict(zip(ds.feature_names, ds.X[0]))
        assert row["Violent Crime Total"] == sum(
            counts[t] for t in DEFAULT_SCHEMA.violent_types
        )
        assert row["Property Crime Total"] == sum(
            counts[t] for t in DEFAULT_SCHEMA.property_types
        )
        assert row["Social Crime Total"] == sum(
            counts[t] for t in DEFAULT_SCHEMA.social_types
        )

    def test_std_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        counts = {name: int(rng.integers(0, 800)) for name in DEFAULT_CRIME_TYPES}
        ds = engineer_features([make_record(**counts)])
        row = dict(zip(ds.feature_names, ds.X[0]))
        expected = two_pass_std([counts[n] for n in DEFAULT_CRIME_TYPES])
        assert abs(row["Crime Standard Deviation"] - expected) < 1e-10

    def test_no_negative_engineered_values(self):
        ds = engineer_features(synthesize(n_units=4, n_years=4, seed=3))
        assert np.all(ds.X >= 0)

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            engineer_features([make_record(Murder=-1)])

    def test_empty_records_rejected(self):
        with pytest.raises(DataError):
            engineer_features([])


class TestSeverityInputsFromRecord:
    def test_ratio_and_total(self):
        record = make_record(Murder=10, Theft=90)
        s = severity_inputs(record)
        assert s.total_cases == 100
        assert abs(s.violent_ratio - 0.1) < 1e-15

    def test_zero_total(self):
        s = severity_inputs(make_record())
        assert s.total_cases == 0
        assert s.violent_ratio == 0.0


class TestSelectFeatures:
    def test_identity_when_k_equals_feature_count(self):
        ds = build_dataset(synthesize(n_units=6, n_years=6, seed=4))
        out = select_features(ds, k=ds.n_features)
        assert set(out.feature_names) == set(ds.feature_names)

    def test_label_coded_feature_survives(self):
        ds = build_dataset(synthesize(n_units=6, n_years=8, seed=5))
        codes = np.array([SEVERITY_RANK[label] for label in ds.y], dtype=float)
        ds.X = np.column_stack([ds.X, codes])
        ds.feature_names = ds.feature_names + ["label_code"]
        out = select_features(ds, k=1)
        assert out.feature_names == ["label_code"]

    def test_deterministic(self):
        ds = build_dataset(synthesize(n_units=6, n_years=6, seed=6))
        a = select_features(ds, k=5).feature_names
        b = select_features(ds, k=5).feature_names
        assert a == b

    def test_k_too_large(self):
        ds = build_dataset(synthesize(n_units=3, n_years=3, seed=7))
        with pytest.raises(UsageError):
            select_features(ds, k=ds.n_features + 1)


class TestSynthesize:
    def test_reproducible(self):
        a = synthesize(n_units=5, n_years=5, seed=11)
        b = synthesize(n_units=5, n_years=5, seed=11)
        assert a == b

    def test_default_sizes(self):
        records = synthesize(seed=0)
        assert len(records) == 18 * 16

    def test_all_classes_present_critical_minority(self):
        for seed in (0, 1, 2):
            labels = label_records(synthesize(seed=seed))
            counts = {level: int(np.sum(labels == level)) for level in SEVERITY_LEVELS}
            assert all(counts[level] >= 1 for level in SEVERITY_LEVELS), counts
            assert counts["Critical"] / len(labels) < 0.15

    def test_correlated_pair_exists_at_seed_zero(self):
        ds = build_dataset(synthesize(seed=0), provenance="synthetic")
        graph = build_correlation_graph(ds.X)
        assert len(graph.pairs) >= 1
        assert any(abs(rho) > 0.5 for _, _, rho in graph.pairs)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        records = synthesize(n_units=3, n_years=4, seed=9)
        path = tmp_path / "crime.csv"
        write_csv(records, path)
        loaded = ingest_csv(path)
        assert len(loaded) == len(records)
        for original, parsed in zip(records, loaded):
            assert parsed.unit == original.unit
            assert parsed.year == original.year
            assert all(
                parsed.counts[name] == original.counts.get(name, 0)
                for name in DEFAULT_CRIME_TYPES
            )

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "two.csv"
        header = "Unit,Year," + ",".join(DEFAULT_CRIME_TYPES)
        zeros = ",".join(["0"] * 16)
        path.write_text(f"{header}\nA,2001,{zeros}\nB,2002,{zeros}\n")
        records = ingest_csv(path)
        assert len(records) == 2
        assert records[0].source_row == 2

    def test_negative_count_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "Unit,Year," + ",".join(DEFAULT_CRIME_TYPES)
        values = ["0"] * 16
        values[2] = "-3"  # Murder column
        path.write_text(f"{header}\nA,2001,{','.join(values)}\n")
        with pytest.raises(DataError, match=r"row 2.*Murder.*-3"):
            ingest_csv(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "Unit,Year," + ",".join(DEFAULT_CRIME_TYPES)
        values = ["0"] * 16
        values[0] = "3.5"
        path.write_text(f"{header}\nA,2001,{','.join(values)}\n")
        with pytest.raises(DataError, match="not an integer"):
            ingest_csv(path)

    def test_duplicate_unit_year_names_both_rows(self, tmp_path):
        path = tmp_path / "dup.csv"
        header = "Unit,Year," + ",".join(DEFAULT_CRIME_TYPES)
        zeros = ",".join(["0"] * 16)
        path.write_text(f"{header}\nA,2001,{zeros}\nA,2002,{zeros}\nB,2001,{zeros}\nA,2001,{zeros}\n")
        with pytest.raises(DataError, match=r"rows 2 and 5.*'A', year 2001"):
            ingest_csv(path)
        assert cli.main(["run", "--data", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "missing.csv"
        names = [n for n in DEFAULT_CRIME_TYPES if n != "Murder"]
        header = "Unit,Year," + ",".join(names)
        path.write_text(f"{header}\nA,2001,{','.join(['0'] * len(names))}\n")
        with pytest.raises(DataError, match="Murder"):
            ingest_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "unknown.csv"
        header = "Unit,Year,Cybercrime," + ",".join(DEFAULT_CRIME_TYPES)
        path.write_text(f"{header}\nA,2001,{','.join(['0'] * 17)}\n")
        with pytest.raises(DataError, match="Cybercrime"):
            ingest_csv(path)


class TestSchemaValidation:
    def test_aggregate_members_must_exist(self):
        with pytest.raises(UsageError):
            CrimeSchema(
                crime_types=("Murder", "Theft"),
                violent_types=("Murder", "Arson"),
                property_types=("Theft",),
                social_types=(),
            )

    def test_duplicate_types_rejected(self):
        with pytest.raises(UsageError):
            CrimeSchema(
                crime_types=("Murder", "Murder"),
                violent_types=("Murder",),
                property_types=(),
                social_types=(),
            )
