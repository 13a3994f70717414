"""Tests for table rendering."""

import pytest

from repro.bench.harness import Cell, ExperimentTable
from repro.bench.reporting import flatten, format_markdown, format_table


@pytest.fixture
def table():
    t = ExperimentTable("exp9", "Demo", "s", ["m1", "m2"])
    t.set("NY", "m1", Cell(1.5))
    t.set("NY", "m2", Cell(None, "INF"))
    t.set("FLA", "m1", Cell(42.0))
    return t


class TestTextFormat:
    def test_contains_header_and_values(self, table):
        text = format_table(table)
        assert "exp9: Demo [s]" in text
        assert "m1" in text and "m2" in text
        assert "1.50" in text
        assert "INF" in text
        assert "42" in text

    def test_missing_cell_rendered_as_dash(self, table):
        text = format_table(table)
        assert "-" in text  # FLA has no m2 measurement

    def test_alignment(self, table):
        lines = format_table(table).splitlines()
        # All body lines equal width per column: dataset column padded.
        assert lines[1].startswith("dataset")


class TestMarkdownFormat:
    def test_pipe_table(self, table):
        md = format_markdown(table)
        assert md.count("|") >= 12
        assert "**exp9: Demo**" in md
        assert "| NY | 1.50 | INF |" in md


class TestFlatten:
    def test_single_table(self, table):
        assert flatten(table) == [table]

    def test_dict_of_tables(self, table):
        assert flatten({"a": table, "b": table}) == [table, table]

    def test_bad_type(self):
        with pytest.raises(TypeError):
            flatten(42)
