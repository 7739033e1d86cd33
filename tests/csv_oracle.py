"""Cell-by-cell CSV reader and csv.writer-based writer.

The references the data loader and the result writer are checked against.
They use csv.reader, float() and csv.writer only, with the file rules of
rejectsvm.model_io: the header row names the columns, blank rows are dropped,
every other row has the header's width, and every cell, stripped, must be a
finite float.  Errors are the loader's DataError, worded as it words them.
"""

import csv
import math

import numpy as np

from rejectsvm.model_io import DataError


def _float(token, where):
    token = token.strip()
    if token == "":
        raise DataError(f"missing value at {where}")
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"non-numeric value {token!r} at {where}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {token!r} at {where}")
    return value


def read_floats(path):
    """(header, table): the row widths are checked before any cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("empty file")
        header = [h.strip() for h in header]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {reader.line_num}: expected "
                                f"{len(header)} fields, got {len(row)}")
            rows.append((reader.line_num, row))
    if not rows:
        raise DataError("no data rows")
    return header, np.array([
        [_float(token, f"line {line}, column {name}")
         for name, token in zip(header, row)]
        for line, row in rows
    ])


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows(path, rows, columns):
    """Dict rows under a fixed column order, written by csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
