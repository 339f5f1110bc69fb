import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_reference

from pendular.chain import Phase
from pendular.fits import comparison_table
from pendular.pair import coupling_surface
from pendular.tables import _BLOCK_ROWS, Table, render_csv, render_json


@pytest.fixture()
def table():
    return Table(
        schema="demo.v1",
        columns=("x", "label", "value"),
        rows=[(0.1, "a", 1.0 / 3.0), (0.2, "b", 12345.6789012345)],
    )


def test_csv_layout(table):
    text = render_csv(table)
    lines = text.split("\n")
    assert lines[0] == "# schema=demo.v1"
    assert lines[1] == "x,label,value"
    assert lines[2] == "0.1,a,0.333333333333"
    assert lines[3] == "0.2,b,12345.6789012"
    assert text.endswith("\n") and "\r" not in text


def test_csv_deterministic(table):
    assert render_csv(table) == render_csv(table)


def test_enum_and_none_rendering():
    t = Table(schema="s.v1", columns=("p", "q"), rows=[(Phase.FERROMAGNETIC, None)])
    assert "ferromagnetic," in render_csv(t)
    payload = json.loads(render_json(t))
    assert payload["rows"][0] == ["ferromagnetic", None]


def test_json_payload(table):
    payload = json.loads(render_json(table, metadata={"n": 4}))
    assert payload["schema_version"] == "demo.v1"
    assert payload["columns"] == ["x", "label", "value"]
    assert payload["metadata"] == {"n": 4}
    assert payload["rows"][0][0] == 0.1


def test_json_writes_non_finite_as_null_and_negative_zero_as_zero():
    t = Table(schema="s.v1", columns=("a", "b", "c", "d"), rows=[(math.nan, -math.inf, -0.0, -1.5)])
    text = render_json(t)
    payload = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in a JSON payload"))
    assert payload["rows"][0] == [None, None, 0.0, -1.5]
    assert "-0.0" not in text
    assert render_csv(t).splitlines()[2] == "nan,-inf,0,-1.5"


def test_column_accessor(table):
    assert table.column("label") == ["a", "b"]


EDGE_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 123456789012345.0)


class TestCsvMatchesPerCellReference:
    """`render_csv` against `oracles.csv_reference`, the per-cell `csv.writer` route, byte for byte."""

    @pytest.mark.parametrize(
        "rows",
        [
            [EDGE_FLOATS, EDGE_FLOATS[::-1], (-1e-300, 1.0 / 3.0, -2.5, 1e-5, 0.1, 1e16, -1e16, 2.0**60)],
            [(np.float64(-0.0), np.float64(0.25), 3, True, Phase.FERROMAGNETIC, None, False, -0.0)],
            [("a,b", 'say "hi"', "two\nlines", "", "plain", 1.5, -0.0, None)],
            [EDGE_FLOATS, (1.0, "x", None, 2, False, Phase.ANTIFERROMAGNETIC, np.float64(-0.0), 0.5), EDGE_FLOATS],
            [(1.0, 2.0), (1.0,) * 9, ()],
            # 7 + 9 cells fill two 8-column rows, so only a per-row width check keeps them apart.
            [(1.0,) * 7, (2.0,) * 9],
            [],
        ],
        ids=[
            "edge-floats",
            "non-float-cells",
            "quoted-strings",
            "float-next-to-mixed",
            "short-and-long",
            "seven-and-nine",
            "no-rows",
        ],
    )
    def test_fixed_rows(self, rows):
        table = Table(schema="s.v1", columns=tuple(f"c{i}" for i in range(8)), rows=rows)
        assert render_csv(table) == csv_reference(table)

    def test_rows_across_block_boundaries(self):
        # Three blocks: all-float, one with a Phase row (row by row), and a short all-float tail,
        # with -0.0 on both sides of each boundary.
        assert 2 * _BLOCK_ROWS < 2500 < 3 * _BLOCK_ROWS
        rng = np.random.default_rng(7)
        values = rng.standard_normal((2500, 8)) * 10.0 ** rng.integers(-20, 20, size=(2500, 8))
        rows = [tuple(row) for row in values.tolist()]
        rows[0] = EDGE_FLOATS
        for i in (_BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS):
            rows[i] = (-0.0,) + rows[i][1:-1] + (-0.0,)
        rows[1500] = (Phase.FERROMAGNETIC,) + rows[1500][1:]
        table = Table(schema="s.v1", columns=tuple(f"c{i}" for i in range(8)), rows=rows)
        text = render_csv(table)
        assert text == csv_reference(table)
        lines = text.splitlines()
        assert lines[2 + _BLOCK_ROWS].startswith("0,") and lines[2 + 2 * _BLOCK_ROWS].endswith(",0")
        assert lines[2 + 1500].startswith("ferromagnetic,")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(), min_size=3, max_size=3).map(tuple), max_size=20))
    def test_drawn_float_rows(self, rows):
        table = Table(schema="s.v1", columns=("a", "b", "c"), rows=rows)
        assert render_csv(table) == csv_reference(table)

    def test_surface_and_fit_tables(self):
        surface = coupling_surface(np.linspace(0.05, 12.0, 240), np.linspace(0.0, math.pi / 2, 60))
        tables = [surface] + [comparison_table(q)[0] for q in ("gap", "c0", "c1", "cx")]
        for table in tables:
            assert render_csv(table) == csv_reference(table)
