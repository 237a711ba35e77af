import json
import math

import numpy as np
import pytest

from schmidt_lab.errors import MatrixParseError
from schmidt_lab.output import (
    dump_json,
    fmt_float,
    parse_matrix_file,
    write_csv,
    write_json,
)


def test_fmt_float_round_trips():
    rng = np.random.default_rng(99)
    samples = list(rng.normal(scale=1e3, size=50)) + [
        0.0,
        1.0,
        -1.0,
        math.pi,
        1e-300,
        1e300,
        2.0 / 3.0,
    ]
    for x in samples:
        assert float(fmt_float(float(x))) == float(x)
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("nan"), np.float64("-inf")])
def test_fmt_float_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        fmt_float(bad)


def test_fmt_float_formats_numpy_and_python_floats_alike():
    for x in (0.0, -0.0, 1.0 / 3.0, -2.5e-300, 1.7976931348623157e308, 5e-324):
        assert fmt_float(np.float64(x)) == fmt_float(x) == format(x, ".17g")


def test_dump_json_is_deterministic_and_standard():
    obj = {
        "name": "run",
        "count": 3,
        "ok": True,
        "nothing": None,
        "weights": np.array([0.5, 0.25, 0.25]),
        "nested": {"z_first": 1, "a_second": 2},
        "amplitude": 1.0 + 2.0j,
        "text": 'quo"te\\and\nnewline',
    }
    out1 = dump_json(obj)
    out2 = dump_json(obj)
    assert out1 == out2
    assert out1.endswith("\n")
    parsed = json.loads(out1)
    assert parsed["weights"] == [0.5, 0.25, 0.25]
    assert parsed["amplitude"] == {"re": 1.0, "im": 2.0}
    assert parsed["text"] == 'quo"te\\and\nnewline'
    # insertion order is preserved, not sorted
    keys = list(parsed["nested"].keys())
    assert keys == ["z_first", "a_second"]
    assert json.loads(dump_json(True)) is True
    # empty containers stay on one line, at any depth
    assert dump_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'
    assert dump_json({}) == "{}\n"
    with pytest.raises(TypeError):
        dump_json({"bad": object()})


def test_dump_json_escapes_control_characters():
    text = "tab\tcr\rsoh\x01 nl\n quote\" backslash\\ \u00e9"
    out = dump_json({"text": text, "key\twith tab": 1})
    assert json.loads(out) == {"text": text, "key\twith tab": 1}
    for raw in ("\t", "\r", "\x01"):
        assert raw not in out
    # non-ASCII stays as UTF-8 text, as before
    assert "\u00e9" in out


def test_write_json_and_csv_files(tmp_path):
    p = tmp_path / "summary.json"
    write_json(p, {"a": 1.5})
    raw = p.read_bytes()
    assert raw == b'{\n  "a": 1.5\n}\n'

    c = tmp_path / "table.csv"
    write_csv(c, ["k", "value"], [[1, 0.5], [2, 0.25]])
    assert c.read_bytes() == b"k,value\n1,0.5\n2,0.25\n"


def test_write_csv_formats_floats_at_full_precision(tmp_path):
    c = tmp_path / "t.csv"
    x = 2.0 / 3.0
    write_csv(c, ["x"], [[x]])
    body = c.read_text().splitlines()[1]
    assert float(body) == x


def test_write_csv_cells_of_every_type(tmp_path):
    # Every table is converted to one float64 array: a numeric cell of any
    # Python or NumPy type writes the bytes of its float64 value, an integer
    # with no decimal point.  A text cell that is not a number is refused.
    row = [0.1, np.float64(0.1), -0.0, np.float32(0.5), 3, np.int64(3), np.int32(-7), 2**53]
    write_csv(tmp_path / "t.csv", [f"c{i}" for i in range(len(row))], [row])
    body = (tmp_path / "t.csv").read_text().splitlines()[1]
    assert body == "0.10000000000000001,0.10000000000000001,-0,0.5,3,3,-7,9007199254740992"
    assert body == ",".join(fmt_float(v) for v in row)
    with pytest.raises(ValueError):
        write_csv(tmp_path / "str.csv", ["k", "x"], [[1, "a"]])
    assert not (tmp_path / "str.csv").exists()
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(tmp_path / "bad.csv", ["x"], [[math.nan]])


def test_write_csv_writes_an_array_as_the_same_rows_as_lists(tmp_path):
    cells = [-0.0, 5e-324, 1e308, 1.0, 1e-300]
    rows = [cells, cells[::-1], [-x for x in cells]]
    header = [f"c{i}" for i in range(len(cells))]
    write_csv(tmp_path / "lists.csv", header, rows)
    write_csv(tmp_path / "array.csv", header, np.array(rows))
    raw = (tmp_path / "array.csv").read_bytes()
    assert raw == (tmp_path / "lists.csv").read_bytes()
    assert raw.splitlines()[1] == b"-0,4.9406564584124654e-324,1e+308,1,1e-300"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_csv_refuses_a_non_finite_array_cell_as_a_list_cell(tmp_path, bad):
    rows = [[1.0, 2.0], [3.0, bad]]
    errors = []
    for given in (rows, np.array(rows)):
        with pytest.raises(ValueError, match="non-finite") as exc:
            write_csv(tmp_path / "bad.csv", ["a", "b"], given)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_parse_matrix_file_valid(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 2\n3-4j 1+2j\n\n")
    m = parse_matrix_file(f)
    assert m.shape == (2, 2)
    assert m.dtype == complex
    assert m[1, 0] == 3 - 4j
    assert m[1, 1] == 1 + 2j


def test_parse_matrix_file_reports_position(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 2\n3 oops\n")
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_file(f)
    assert exc.value.line == 2
    assert exc.value.column == 2
    assert "line 2, column 2" in str(exc.value)
    assert "invalid matrix entry 'oops' (expected `re` or `re+imj`)" in str(exc.value)


def test_parse_matrix_file_rejections(tmp_path):
    ragged = tmp_path / "r.txt"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(MatrixParseError, match="row"):
        parse_matrix_file(ragged)

    empty = tmp_path / "e.txt"
    empty.write_text("\n  \n")
    with pytest.raises(MatrixParseError, match="no rows"):
        parse_matrix_file(empty)

    nonfinite = tmp_path / "n.txt"
    nonfinite.write_text("1 inf\n2 3\n")
    with pytest.raises(MatrixParseError, match="finite"):
        parse_matrix_file(nonfinite)

    nan_file = tmp_path / "nan.txt"
    nan_file.write_text("nan 1\n2 3\n")
    with pytest.raises(MatrixParseError, match="finite"):
        parse_matrix_file(nan_file)

    with pytest.raises(MatrixParseError, match="read"):
        parse_matrix_file(tmp_path / "missing.txt")


def test_parse_matrix_file_refuses_a_file_that_is_not_utf8(tmp_path):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1 2\n3 4\xb5\n")
    with pytest.raises(MatrixParseError, match="cannot read matrix file .*utf-8"):
        parse_matrix_file(latin1)


def test_parse_matrix_file_locates_non_finite_entry_after_blank_lines(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 2 3\n\n  \n4 5 6\n7 8 -inf+1j\n")
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_file(f)
    assert (exc.value.line, exc.value.column) == (5, 3)
    assert "non-finite matrix entry '-inf+1j'" in str(exc.value)
    assert "line 5, column 3" in str(exc.value)


def test_matrix_write_parse_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lines = []
    for row in m:
        cells = []
        for z in row:
            sign = "+" if z.imag >= 0 else "-"
            cells.append(f"{z.real:.17g}{sign}{abs(z.imag):.17g}j")
        lines.append(" ".join(cells))
    f = tmp_path / "m.txt"
    f.write_text("\n".join(lines) + "\n")
    back = parse_matrix_file(f)
    np.testing.assert_array_equal(back, m)
