import json

import pytest

from oracles import read_table
from zetaflow.errors import DomainError
from zetaflow.tables import HEADER, ResultRow, emit_table, render_table

ROWS = [
    ResultRow(s=1.5 + 0.0j, value=-0.25 + 1e-17j, tail_bound=1.25e-9),
    ResultRow(s=2.0 - 3.0j, value=0.1 + 0.2j, tail_bound=0.0),
    ResultRow(s=0.3333333333333333 + 0j, value=1e300 - 1e-300j, tail_bound=float("inf")),
]


def test_csv_header_and_shape():
    text = render_table(ROWS, "csv")
    lines = text.splitlines()
    assert lines[0] == "s_re,s_im,value_re,value_im,tail_bound"
    assert lines[0] == ",".join(HEADER)
    assert len(lines) == 1 + len(ROWS)
    assert text.endswith("\n")
    # shortest round-trip decimal literals, dot-separated
    assert lines[1].split(",")[0] == "1.5"
    assert "," in text and ";" not in text


def test_csv_values_round_trip_exactly():
    text = render_table(ROWS, "csv")
    for line, row in zip(text.splitlines()[1:], ROWS):
        sre, sim, vre, vim, tail = (float(x) for x in line.split(","))
        assert (sre, sim) == (row.s.real, row.s.imag)
        assert (vre, vim) == (row.value.real, row.value.imag)
        assert tail == row.tail_bound or (tail != tail and row.tail_bound != row.tail_bound)


def test_json_is_an_array_of_keyed_records():
    text = render_table(ROWS, "json")
    records = json.loads(text)
    assert isinstance(records, list) and len(records) == len(ROWS)
    for rec, row in zip(records, ROWS):
        assert list(rec.keys()) == list(HEADER)
        assert rec["s_re"] == row.s.real
        assert rec["value_im"] == row.value.imag


def test_render_is_deterministic():
    assert render_table(ROWS, "csv") == render_table(ROWS, "csv")
    assert render_table(ROWS, "json") == render_table(ROWS, "json")


def test_emit_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "t.csv"
    emit_table(ROWS, "csv", out)
    assert out.read_text() == render_table(ROWS, "csv")
    emit_table(ROWS, "json")
    assert capsys.readouterr().out == render_table(ROWS, "json")


def test_read_table_parses_both_formats(tmp_path):
    for fmt in ("csv", "json"):
        p = tmp_path / f"t.{fmt}"
        emit_table(ROWS[:2], fmt, p)
        back = read_table(p)
        assert back == ROWS[:2]


def test_empty_table_is_just_the_header():
    text = render_table([], "csv")
    assert text == "s_re,s_im,value_re,value_im,tail_bound\n"
    assert json.loads(render_table([], "json")) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_non_finite_value_is_refused_before_writing(tmp_path, fmt):
    # the first non-finite row in table order is named; the tail_bound
    # column is not checked (ROWS ends with an infinite tail)
    rows = [*ROWS, ResultRow(4.0 + 0j, complex(float("nan"), 1.0), 0.0),
            ResultRow(5.0 + 0j, complex(0.0, float("inf")), 0.0)]
    out = tmp_path / "t.out"
    with pytest.raises(DomainError, match=r"at s = \(4\+0j\) overflows"):
        emit_table(rows, fmt, out)
    assert not out.exists()
