import json
import math

import pytest

from pendular.chain import Phase
from pendular.tables import Table, render_csv, render_json


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
