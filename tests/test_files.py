import ast
from pathlib import Path

import numpy as np
import pytest

from ddopf.errors import SchemaError
from ddopf.files import numbers, read_csv, read_mapping, write_csv, write_mapping

SRC = Path(__file__).resolve().parents[1] / "src" / "ddopf"


def test_write_csv_format(tmp_path):
    # a float keeps 17 significant digits, so it reads back as the same
    # double; ints and labels are written as given
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "label", "value"], [[0, "1->2", 0.1], [1, "", np.float64(-2.5)]])
    assert path.read_bytes() == b"k,label,value\r\n0,1->2,0.10000000000000001\r\n1,,-2.5\r\n"


def test_read_csv_keeps_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,v\n0,0.5\n\n2,1e-3\n")
    header, rows = read_csv(path, "test")
    assert header == ["k", "v"]
    assert rows == [(2, ["0", "0.5"]), (4, ["2", "1e-3"])]
    np.testing.assert_array_equal(numbers(rows, 2, "test"), [[0.0, 0.5], [2.0, 1e-3]])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty test file"),
        ("k,v\n", "test file has no rows"),
        ("k,v\n0,1\n1\n", "test row 3 has 1 fields, expected 2"),
        ("k,v\n0,x\n", "test row 2: could not convert string to float: 'x'"),
    ],
    ids=["empty", "header-only", "short-row", "non-numeric"],
)
def test_csv_schema_errors(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match="^" + message):
        header, rows = read_csv(path, "test")
        numbers(rows, len(header), "test")


def test_non_utf8_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("k,v\n0,1\n# café\n".encode("latin-1"))
    with pytest.raises(SchemaError, match="test file is not UTF-8 at line 3"):
        read_csv(path, "test")


def test_mapping_round_trip(tmp_path):
    path = tmp_path / "t.yaml"
    write_mapping(path, {"b": [1, 2.5], "a": "x"})
    assert path.read_text() == "b:\n- 1\n- 2.5\na: x\n"
    assert read_mapping(path, "test") == {"b": [1, 2.5], "a": "x"}


@pytest.mark.parametrize(
    "content, message",
    [
        (b"a: [1\n", '(?s)test is not valid YAML: .* in ".*t.yaml", line 2'),
        (b"- 1\n", "test must be a mapping"),
        ("a: 1\nb: café\n".encode("latin-1"), "test file is not UTF-8 at line 2"),
    ],
    ids=["syntax", "list", "latin-1"],
)
def test_mapping_schema_errors(tmp_path, content, message):
    path = tmp_path / "t.yaml"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match=message):
        read_mapping(path, "test")


def test_only_files_module_touches_file_formats():
    # how a file is read or written is decided in ddopf.files alone
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "files.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]] if node.level == 0 else []
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = ["open()"] if node.func.id == "open" else []
            else:
                continue
            found = [n for n in names if n in ("csv", "yaml", "open()")]
            offenders += [f"{path.name}:{node.lineno} {n}" for n in found]
    assert offenders == []
