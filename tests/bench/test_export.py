"""Unit tests for :mod:`repro.bench.export`."""

import json

import pytest

from repro.bench.experiments import ExperimentResult
from repro.bench.export import load_json, to_csv, to_json, write_csv, write_json


@pytest.fixture
def result():
    return ExperimentResult(
        name="figure_test",
        description="a small result",
        rows=[
            {"table_count": 2, "algorithm": "IAMA", "avg": 0.25},
            {"table_count": 3, "algorithm": "IAMA", "avg": 0.5, "note": "extra"},
        ],
    )


class TestCsv:
    def test_header_is_union_of_keys(self, result):
        text = to_csv(result)
        header = text.splitlines()[0]
        assert header.split(",") == ["table_count", "algorithm", "avg", "note"]

    def test_row_count(self, result):
        assert len(to_csv(result).strip().splitlines()) == 3

    def test_missing_values_are_empty(self, result):
        first_row = to_csv(result).splitlines()[1]
        assert first_row.endswith(",")

    def test_explicit_columns(self, result):
        text = to_csv(result, columns=["algorithm"])
        assert text.splitlines()[0] == "algorithm"

    def test_write_csv_creates_parent_dirs(self, result, tmp_path):
        path = write_csv(result, tmp_path / "nested" / "out.csv")
        assert path.exists()
        assert "IAMA" in path.read_text()


class TestJson:
    def test_round_trip(self, result, tmp_path):
        path = write_json(result, tmp_path / "out.json")
        loaded = load_json(path)
        assert loaded.name == result.name
        assert loaded.rows == result.rows

    def test_json_is_valid(self, result):
        payload = json.loads(to_json(result))
        assert payload["name"] == "figure_test"
        assert len(payload["rows"]) == 2

    def test_non_serializable_values_fall_back_to_str(self):
        from repro.costs.vector import CostVector

        result = ExperimentResult(
            name="x", description="", rows=[{"cost": CostVector([1, 2])}]
        )
        payload = json.loads(to_json(result))
        assert payload["rows"][0]["cost"] == [1.0, 2.0]
