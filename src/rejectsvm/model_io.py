"""File formats: model JSON, data CSV, distribution CSV, result CSV.

All floats are serialized with Python's shortest round-trip repr, so every
double survives save -> load -> save byte-identically and files diff cleanly
across runs.

Data and distribution files parse in numpy's C reader.  A file it refuses is
read again cell by cell with csv.reader and float(), which gives the same
values and names the first bad cell by file line and column.  Result files
are written as one joined string, string cells quoted as csv.writer quotes
them.
"""

import csv
import json
import math
import warnings

import numpy as np

from .dictionary import Dictionary
from .losses import CostParams, DiscreteDistribution
from .train import Model

__all__ = [
    "DataError",
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "load_data",
    "load_distribution",
    "write_rows_csv",
    "write_reports_csv",
]

FORMAT_VERSION = 1


class DataError(Exception):
    """A file exists but its contents do not fit the expected format."""


def _array_field(value):
    return None if value is None else np.asarray(value, dtype=float).tolist()


def _int_field(value, name):
    """value if it was a JSON integer; a bool, float or other is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def save_model(model, path):
    """Write a fitted model as deterministic, sorted, indented JSON."""
    dic = model.dic
    if dic is None:
        raise DataError("model has no dictionary attached; cannot persist")
    doc = {
        "format_version": FORMAT_VERSION,
        "dictionary": {
            "kind": dic.kind,
            "dim": int(dic.dim),
            "M": int(dic.M),
            "C_F": float(dic.C_F),
            "C_F_estimated": bool(dic.C_F_estimated),
            "centers": _array_field(dic.centers),
            "beta": None if dic.beta is None else float(dic.beta),
            "grid": None if dic.grid is None else [int(g) for g in dic.grid],
            "box": _array_field(dic.box),
        },
        "lambda": [float(v) for v in model.lam],
        "d": float(model.cp.d),
        "a": float(model.cp.a),
        "tau": float(model.cp.tau),
        "r": float(model.r),
        "c_f": float(model.c_f),
        "c_f_estimated": bool(dic.C_F_estimated),
        "train_meta": {
            "n": int(model.n_train),
            "objective": float(model.objective),
            "iterations": int(model.iterations),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path):
    """Read a model file back, re-validated by Dictionary and CostParams; a
    stored M, a, C_F flag or c_f (1 for Gaussian kinds, finite and > 0 for
    linear ones) that does not fit the file's other fields, or a dim, grid
    count, n or iterations that is not a JSON integer, is a DataError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"not a model file: {exc}") from exc
    try:
        if doc["format_version"] != FORMAT_VERSION:
            raise DataError(
                f"unsupported format version {doc['format_version']!r}"
            )
        spec = doc["dictionary"]
        dic = Dictionary(
            spec["kind"], _int_field(spec["dim"], "dim"),
            centers=None if spec["centers"] is None
            else np.asarray(spec["centers"], dtype=float),
            beta=None if spec["beta"] is None else float(spec["beta"]),
            grid=None if spec["grid"] is None
            else tuple(_int_field(g, "grid count") for g in spec["grid"]),
            box=None if spec["box"] is None
            else np.asarray(spec["box"], dtype=float),
        )
        if spec["M"] != dic.M:
            raise ValueError(f"dictionary M is {spec['M']}, but its kind and "
                             f"shape give {dic.M} functions")
        flags = spec["C_F"], spec["C_F_estimated"], doc["c_f_estimated"]
        if flags != (dic.C_F, dic.C_F_estimated, dic.C_F_estimated):
            raise DataError(f"C_F, C_F_estimated and c_f_estimated {flags} "
                            f"do not fit a {dic.kind} dictionary")
        lam = np.asarray(doc["lambda"], dtype=float)
        if lam.shape != (dic.M,) or not np.all(np.isfinite(lam)):
            raise DataError(f"lambda must hold {dic.M} finite coefficients")
        cp = CostParams(d=float(doc["d"]), tau=float(doc["tau"]))
        a = float(doc["a"])
        if not abs(a - cp.a) <= 1e-12 * max(1.0, cp.a):
            raise ValueError(f"slope a={a} inconsistent with d={cp.d}")
        c_f = float(doc["c_f"])
        if not (0.0 < c_f < math.inf if dic.C_F_estimated else c_f == 1.0):
            raise ValueError(f"c_f={c_f!r} does not fit a {dic.kind} "
                             f"dictionary")
        meta = doc["train_meta"]
        return Model(
            lam=lam,
            dic=dic,
            cp=cp,
            r=float(doc["r"]),
            n_train=_int_field(meta["n"], "n"),
            objective=float(meta["objective"]),
            iterations=_int_field(meta["iterations"], "iterations"),
            c_f=c_f,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc


def _parse_float(token, where):
    token = token.strip()
    if token == "":
        raise DataError(f"missing value at {where}")
    try:
        value = float(token)
    except ValueError as exc:
        raise DataError(f"non-numeric value {token!r} at {where}") from exc
    if not math.isfinite(value):
        raise DataError(f"non-finite value {token!r} at {where}")
    return value


def _read_table(path):
    """Header, data rows and each row's file line number; blank rows dropped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        header = [h.strip() for h in header]
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {reader.line_num}: expected "
                                f"{len(header)} fields, got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)
    if not rows:
        raise DataError("no data rows")
    return header, rows, lines


def _read_floats(path):
    """Header and every cell as one finite float array.

    The header is read by csv.reader and the body by numpy's C reader.  A
    body numpy refuses, or that yields no row, a row of other than the
    header's width or a non-finite value, is read again cell by cell
    (csv.reader and float()): that read gives the same values and names the
    first bad cell by line and column.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError("empty file")
        try:
            with warnings.catch_warnings():
                # an empty body is refused below, without numpy's warning
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None,
                                   quotechar='"', ndmin=2)
        except ValueError:
            table = None
    if (table is not None and len(table) and table.shape[1] == len(header)
            and np.isfinite(table).all()):
        return [h.strip() for h in header], table
    header, rows, lines = _read_table(path)
    table = np.array([
        [_parse_float(token, f"line {line}, column {name}")
         for name, token in zip(header, row)]
        for line, row in zip(lines, rows)
    ])
    return header, table


def load_data(path, require_y=False):
    """Read a feature CSV; returns (x, y) with y None when absent.

    The column named y, wherever it sits, holds labels in {-1, +1}; all
    other columns are features in file order.  Any missing, non-numeric or
    non-finite cell is an error.
    """
    header, table = _read_floats(path)
    if "y" in header:
        y_col = header.index("y")
    else:
        y_col = None
        if require_y:
            raise DataError("data file lacks the y label column")
    feat_cols = [j for j in range(len(header)) if j != y_col]
    if not feat_cols:
        raise DataError("data file has no feature columns")
    x = table.take(feat_cols, axis=1)
    if y_col is None:
        return x, None
    y = table[:, y_col].copy()
    bad = np.flatnonzero((y != -1.0) & (y != 1.0))
    if bad.size:
        i = int(bad[0])
        line = _read_table(path)[2][i]
        raise DataError(f"line {line}: label {float(y[i])!r} "
                        "is not -1 or +1")
    return x, y


def load_distribution(path):
    """Read a finite-support distribution CSV: columns p, eta, features."""
    header, table = _read_floats(path)
    for col in ("p", "eta"):
        if col not in header:
            raise DataError(f"distribution file lacks the {col} column")
    p_col, e_col = header.index("p"), header.index("eta")
    feat_cols = [j for j in range(len(header)) if j not in (p_col, e_col)]
    if not feat_cols:
        raise DataError("distribution file has no feature columns")
    try:
        return DiscreteDistribution(x=table.take(feat_cols, axis=1),
                                    p=table[:, p_col].copy(),
                                    eta=table[:, e_col].copy())
    except ValueError as exc:
        raise DataError(f"invalid distribution: {exc}") from exc


def _quoted(text):
    """A string cell as csv.writer's minimal quoting writes it."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value):
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _column_cells(values):
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        # tolist() gives Python bools, ints and floats, whose reprs are the
        # cells _cell writes
        return list(map(repr, values.tolist()))
    return [_cell(v) for v in values]


def write_rows_csv(path, columns):
    """Write a table given as {column name: cells}, with repr-exact floats.

    Columns are written in the mapping's order and must be of one length.
    Numbers are written as their shortest round-trip repr, booleans as True
    or False, and strings as csv.writer writes them.
    """
    cells = [[_quoted(name), *_column_cells(values)]
             for name, values in columns.items()]
    lines = map(",".join, zip(*cells, strict=True))
    if len(cells) == 1:
        # csv.writer quotes a lone empty cell, so the row does not read as
        # a blank line
        lines = (line or '""' for line in lines)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_reports_csv(path, reports):
    """One row per check: name, status, slack, witness."""
    write_rows_csv(path, {
        "name": [rep.name for rep in reports],
        "status": [rep.status for rep in reports],
        "slack": [rep.slack for rep in reports],
        "witness": [rep.witness for rep in reports],
    })
