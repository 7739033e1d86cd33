"""File formats: model JSON, data CSV, distribution CSV, result CSV.

All floats are serialized with Python's shortest round-trip repr, so every
double survives save -> load -> save byte-identically and files diff cleanly
across runs.
"""

import csv
import json
import math

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
        "c_f_estimated": bool(model.c_f_estimated),
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
    """Read a model file back; re-validates the cost-parameter identity."""
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
            kind=spec["kind"],
            dim=int(spec["dim"]),
            M=int(spec["M"]),
            C_F=float(spec["C_F"]),
            C_F_estimated=bool(spec["C_F_estimated"]),
            centers=None if spec["centers"] is None
            else np.asarray(spec["centers"], dtype=float),
            beta=spec["beta"],
            grid=None if spec["grid"] is None else tuple(spec["grid"]),
            box=None if spec["box"] is None
            else np.asarray(spec["box"], dtype=float),
        )
        # a and tau are cross-checked against d here
        cp = CostParams(d=float(doc["d"]), tau=float(doc["tau"]),
                        a=float(doc["a"]))
        meta = doc["train_meta"]
        return Model(
            lam=np.asarray(doc["lambda"], dtype=float),
            dic=dic,
            cp=cp,
            r=float(doc["r"]),
            n_train=int(meta["n"]),
            objective=float(meta["objective"]),
            iterations=int(meta["iterations"]),
            c_f=float(doc["c_f"]),
            c_f_estimated=bool(doc["c_f_estimated"]),
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
    """Header, every cell as one finite float array, and the line numbers.

    numpy converts the whole table at once; only when it fails, or yields a
    non-finite value, does the cell-by-cell parse run, to name the first
    bad cell.
    """
    header, rows, lines = _read_table(path)
    try:
        table = np.asarray(rows, dtype=float)
        if np.isfinite(table).all():
            return header, table, lines
    except ValueError:
        pass
    table = np.array([
        [_parse_float(token, f"line {line}, column {name}")
         for name, token in zip(header, row)]
        for line, row in zip(lines, rows)
    ])
    return header, table, lines


def load_data(path, require_y=False):
    """Read a feature CSV; returns (x, y) with y None when absent.

    The column named y, wherever it sits, holds labels in {-1, +1}; all
    other columns are features in file order.  Any missing, non-numeric or
    non-finite cell is an error.
    """
    header, table, lines = _read_floats(path)
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
        raise DataError(f"line {lines[i]}: label {float(y[i])!r} "
                        "is not -1 or +1")
    return x, y


def load_distribution(path):
    """Read a finite-support distribution CSV: columns p, eta, features."""
    header, table, _ = _read_floats(path)
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


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows_csv(path, rows, columns):
    """Write dict rows under a fixed column order with repr-exact floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def write_reports_csv(path, reports):
    """One row per check: name, status, slack, witness."""
    rows = [
        {"name": rep.name, "status": rep.status, "slack": rep.slack,
         "witness": rep.witness}
        for rep in reports
    ]
    write_rows_csv(path, rows, ("name", "status", "slack", "witness"))
