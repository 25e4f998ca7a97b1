"""How ddopf reads and writes files: one CSV dialect and one YAML form.

Every file is UTF-8. A CSV file has a header row, then one record per
row; a float cell is written with 17 significant digits, so it reads back
as the same double. A YAML file holds one mapping. A file that cannot be
read as its format raises SchemaError naming the line. Each format's own
schema (column names, keys, ranges) stays with its reader.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import SchemaError


def write_csv(path, header, rows) -> None:
    """Write the header and the rows; a float cell gets 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def _text(path, what: str) -> str:
    """The file decoded as UTF-8; SchemaError names the first line that is not."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{what} file is not UTF-8 at line {line}: {exc.reason}") from None


def read_csv(path, what: str):
    """The header and the nonblank rows of a CSV file, as (line number, row) pairs."""
    reader = csv.reader(io.StringIO(_text(path, what), newline=""))
    try:
        header = next(reader, None)
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise SchemaError(f"{what} row {reader.line_num}: {exc}") from None
    if header is None:
        raise SchemaError(f"empty {what} file")
    return header, rows


def numbers(rows, width: int, what: str) -> np.ndarray:
    """The (line number, row) pairs of read_csv as a float array of the given width."""
    if not rows:
        raise SchemaError(f"{what} file has no rows")
    data = []
    for line, row in rows:
        if len(row) != width:
            raise SchemaError(f"{what} row {line} has {len(row)} fields, expected {width}")
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise SchemaError(f"{what} row {line}: {exc}") from None
    return np.array(data)


# PyYAML is imported inside the two functions below, so `import ddopf`
# does without it


def read_mapping(path, what: str) -> dict:
    """The mapping a YAML file holds."""
    import yaml

    stream = io.StringIO(_text(path, what))
    stream.name = str(path)  # so the error marks name the file
    try:
        raw = yaml.safe_load(stream)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{what} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{what} must be a mapping")
    return raw


def write_mapping(path, doc: dict) -> None:
    """Write doc as YAML, keys in their given order."""
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
