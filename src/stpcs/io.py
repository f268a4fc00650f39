"""Matrix and signal file formats used by the CLI.

CSV: a header line ``# rows,cols,kind`` followed by one comma-separated
matrix row per line.  Floats are rendered with shortest-roundtrip repr,
so integer matrices round-trip losslessly and reals bit-exactly.
Signals are single-column CSVs.

JSON: ``{"name", "rows", "cols", "kind", "provenance", "entries"}`` with
the same kind vocabulary.  The kind constrains the entries and is
validated on load: ``boolean`` means {0,1}, ``sign`` means {-1,+1},
``real`` any finite value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import BadShape
from .stp import as_matrix, as_signal

__all__ = [
    "KINDS",
    "format_row",
    "save_matrix",
    "load_matrix",
    "save_signal",
    "load_signal",
]

KINDS = ("real", "sign", "boolean")


def _validate_kind(a: np.ndarray, kind: str) -> np.ndarray:
    """Return a unchanged if its entries fit kind; raise BadShape otherwise."""
    if kind not in KINDS:
        raise BadShape(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind == "boolean" and not np.all(np.isin(a, (0.0, 1.0))):
        raise BadShape("boolean matrix must contain only 0 and 1")
    if kind == "sign" and not np.all(np.isin(a, (-1.0, 1.0))):
        raise BadShape("sign matrix must contain only -1 and +1")
    return a


def format_row(row, kind: str = "real") -> str:
    """One matrix row as a CSV line, as save_matrix writes it.

    Entries of sign and boolean matrices and integral floats are written
    as integers, other floats in shortest round-trip repr.
    """
    whole = kind in ("sign", "boolean")
    return ",".join(str(int(v)) if whole or float(v).is_integer() else repr(float(v))
                    for v in row)


def save_matrix(path, a, kind: str = "real", name: str | None = None,
                provenance: dict | None = None) -> None:
    """Write a matrix as CSV or JSON depending on the file suffix."""
    a = as_matrix(a)
    _validate_kind(a, kind)
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {
            "name": name,
            "rows": int(a.shape[0]),
            "cols": int(a.shape[1]),
            "kind": kind,
            "provenance": provenance,
            "entries": [[float(v) for v in row] for row in a],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return
    lines = [f"# {a.shape[0]},{a.shape[1]},{kind}"]
    lines.extend(format_row(row, kind) for row in a)
    path.write_text("\n".join(lines) + "\n")


def _json_field(path, doc: dict, name: str, parse):
    """parse(doc[name]), with a value of the wrong type reported as BadShape."""
    try:
        return parse(doc[name])
    except TypeError as exc:
        raise BadShape(f"{path}: JSON field {name!r} is malformed: {exc}") from None


def _json_int(v) -> int:
    """v itself when it is a JSON integer; a float, bool or string is refused."""
    if type(v) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _check_rows(path, entries, cols: int) -> None:
    """BadShape naming the file and the row where a nested `entries` list is not all rows.

    Once any item of the list `entries` is a list, every item must be a
    list of `cols` numbers.  A flat list (one row) and anything else are
    left for `as_matrix` to read or refuse.
    """
    if not isinstance(entries, list) or not any(isinstance(row, list) for row in entries):
        return
    for i, row in enumerate(entries, 1):
        if not isinstance(row, list) or any(isinstance(v, list) for v in row):
            raise BadShape(f"{path}: row {i} is not a list of numbers, as a row of a matrix is")
        if len(row) != cols:
            raise BadShape(f"{path}: row {i} has {len(row)} entries, declared cols {cols}")


def load_matrix(path):
    """Read a matrix (CSV or JSON); returns (array, metadata dict).

    Rows of a length other than the declared column count raise BadShape
    naming the file.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = json.loads(path.read_text())
        missing = [f for f in ("rows", "cols", "entries")
                   if not isinstance(doc, dict) or f not in doc]
        if missing:
            raise BadShape(f"{path}: JSON matrix lacks field(s) {', '.join(missing)}")
        meta = {
            "rows": _json_field(path, doc, "rows", _json_int),
            "cols": _json_field(path, doc, "cols", _json_int),
            "kind": doc.get("kind", "real"),
            "name": doc.get("name"),
            "provenance": doc.get("provenance"),
        }
        _check_rows(path, doc["entries"], meta["cols"])
        a = _json_field(path, doc, "entries", as_matrix)
    else:
        lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise BadShape(f"{path}: missing '# rows,cols,kind' header")
        fields = [f.strip() for f in lines[0].lstrip("#").split(",")]
        if len(fields) != 3:
            raise BadShape(f"{path}: malformed header {lines[0]!r}")
        rows, cols, kind = int(fields[0]), int(fields[1]), fields[2]
        entries = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        _check_rows(path, entries, cols)
        a = as_matrix(entries)
        meta = {"rows": rows, "cols": cols, "kind": kind, "name": None, "provenance": None}
    if a.shape != (meta["rows"], meta["cols"]):
        raise BadShape(
            f"{path}: declared shape {(meta['rows'], meta['cols'])} != parsed {a.shape}"
        )
    _validate_kind(a, meta["kind"])
    return a, meta


def save_signal(path, x) -> None:
    """Write a signal as a single-column real CSV/JSON matrix."""
    x = as_signal(x)
    save_matrix(path, x.reshape(-1, 1))


def load_signal(path) -> np.ndarray:
    """Read a single-column matrix file back as a signal."""
    a, _ = load_matrix(path)
    if a.shape[1] != 1:
        raise BadShape(f"{path}: signals must be single-column, got {a.shape[1]} columns")
    return a.reshape(-1)
