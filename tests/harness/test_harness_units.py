"""Harness unit tests: rendering, CSV export, summaries (fast subsets)."""

import csv
import io

import pytest

from repro.corpus import app
from repro.harness import (
    build_row,
    CSV_COLUMNS,
    percent,
    render_table,
    render_table1,
    result_analysis_csv,
    run_table1,
)


def test_render_table_alignment():
    text = render_table(
        ["Name", "N"],
        [("alpha", 1), ("a-much-longer-name", 22)],
    )
    lines = text.splitlines()
    assert len(lines) == 4
    assert len({len(line.rstrip()) for line in lines[2:]}) <= 2
    assert lines[0].startswith("Name")
    assert "a-much-longer-name" in lines[3]


def test_percent_formatting():
    assert percent(1, 4) == "25%"
    assert percent(0, 0) == "-"
    assert percent(3, 3) == "100%"


@pytest.fixture(scope="module")
def small_rows():
    return run_table1(
        validate=False,
        apps=[app("todolist"), app("connectbot")],
    )


def test_build_row_without_validation(small_rows):
    todolist, connectbot = small_rows
    assert todolist.name == "todolist"
    assert todolist.true_harmful == 0
    assert connectbot.counts["after_unsound"] == 7


def test_render_table1_contains_every_app(small_rows):
    text = render_table1(small_rows)
    assert "todolist" in text and "connectbot" in text
    assert "Potential" in text


def test_csv_export_schema(small_rows):
    seconds = {row.name: {"modeling": 0.25, "detection": 0.5,
                          "filtering": 0.125, "total": 0.875}
               for row in small_rows}
    text = result_analysis_csv(small_rows, seconds)
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == CSV_COLUMNS
    rows = list(reader)
    assert len(rows) == 2
    by_name = {row[1]: row for row in rows}
    connectbot = by_name["connectbot"]
    assert connectbot[0] == "train"
    potential_index = CSV_COLUMNS.index("potential_uafs")
    assert int(connectbot[potential_index]) > 0
    assert connectbot[CSV_COLUMNS.index("detection_seconds")] == "0.500000"


def test_build_row_with_validation_on_tiny_app():
    row = build_row(app("clipstack"), validate=True, random_attempts=5)
    assert row.true_harmful == 0
    assert row.fp_breakdown and sum(row.fp_breakdown.values()) == 0
