"""Matrix and signal file formats used by the CLI.

CSV: a header line ``# rows,cols,kind`` followed by one comma-separated
matrix row per line.  Signals are single-column CSVs.  One number rule
holds for every kind: an integral entry is written as an integer
(``str(int(v))``) and any other in shortest round-trip repr, so integer
matrices round-trip losslessly (-0.0 reads back as 0.0) and reals
bit-exactly.  The writer renders whole arrays, 2^16 entries at a time.
The reader reads the file a line at a time, a line ending at ``\n``,
``\r\n`` or ``\r`` (Python's text mode), and parses blocks of lines
holding about 2^16 entries each, so it never holds the text of the whole
file.  Blank lines are skipped, and whitespace around an entry or before
the header's ``#`` is ignored.  Text, a header or an entry that does not
parse is a ValueError whose message starts with the file's path.

JSON: ``{"name", "rows", "cols", "kind", "provenance", "entries"}`` with
the same kind vocabulary.  The kind constrains the entries and is
validated on load: ``boolean`` means {0,1}, ``sign`` means {-1,+1},
``real`` any finite value.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import BadShape
from .stp import as_matrix, as_signal

__all__ = [
    "KINDS",
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


def _csv_rows(a: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, without the header.

    An integral entry is written as an integer, any other in shortest
    round-trip repr.  `_validate_kind` admits only integral entries to a
    sign or boolean matrix, so the rule needs no kind.  The rows are
    rendered about 2^16 entries at a time, so that only one block's
    strings are alive at once.
    """
    step = max(1, (1 << 16) // a.shape[1])
    return "\n".join(_csv_block(a[i:i + step]) for i in range(0, len(a), step))


def _csv_block(a: np.ndarray) -> str:
    # a memoryview yields one Python float at a time: no list of all of them
    cells = [str(int(v)) if v.is_integer() else repr(v) for v in memoryview(a.ravel())]
    return "\n".join(map(",".join, zip(*[iter(cells)] * a.shape[1])))  # a.shape[1] cells a line


def save_matrix(path, a, kind: str = "real", name: str | None = None,
                provenance: dict | None = None) -> None:
    """Write a matrix as CSV or JSON depending on the file suffix."""
    a = _validate_kind(as_matrix(a), kind)
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {
            "name": name,
            "rows": int(a.shape[0]),
            "cols": int(a.shape[1]),
            "kind": kind,
            "provenance": provenance,
            "entries": a.tolist(),
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return
    path.write_text(f"# {a.shape[0]},{a.shape[1]},{kind}\n{_csv_rows(a)}\n")


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
    """BadShape naming the file and the row where a nested JSON `entries` list is not all rows.

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
    naming the file and the row.
    """
    path = Path(path)
    try:
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
            with open(path) as fh:  # text mode ends a line at \n, \r\n or \r
                lines = filter(None, map(str.strip, fh))
                head = next(lines, "")
                if not head.startswith("#"):
                    raise BadShape(f"{path}: missing '# rows,cols,kind' header")
                fields = [f.strip() for f in head.lstrip("#").split(",")]
                if len(fields) != 3:
                    raise BadShape(f"{path}: malformed header {head!r}")
                rows, cols, kind = int(fields[0]), int(fields[1]), fields[2]
                cells, n, bad = [], 0, None
                while body := list(islice(lines, max(1, (1 << 16) // max(1, cols)))):
                    # numpy parses each string with Python's float, so it takes what float(v) takes
                    cells.append(np.array(",".join(body).split(","), dtype=float))
                    if bad is None:  # the first ragged row, numbered in the whole file
                        widths = enumerate((row.count(",") + 1 for row in body), n + 1)
                        bad = next(((i, w) for i, w in widths if w != cols), None)
                    n += len(body)
            if not n:
                raise BadShape(f"{path}: no matrix rows after the header")
            if bad:
                raise BadShape(f"{path}: row {bad[0]} has {bad[1]} entries, declared cols {cols}")
            a = as_matrix(np.concatenate(cells).reshape(n, cols))
            meta = {"rows": rows, "cols": cols, "kind": kind, "name": None, "provenance": None}
    except ValueError as exc:  # every ValueError here is about the file's text: name the file
        raise ValueError(f"{path}: {exc}") from None
    if a.shape != (meta["rows"], meta["cols"]):
        raise BadShape(
            f"{path}: declared shape {(meta['rows'], meta['cols'])} != parsed {a.shape}"
        )
    return _validate_kind(a, meta["kind"]), meta


def save_signal(path, x) -> None:
    """Write a signal as a single-column real CSV/JSON matrix."""
    save_matrix(path, as_signal(x).reshape(-1, 1))


def load_signal(path) -> np.ndarray:
    """Read a single-column matrix file back as a signal."""
    a, _ = load_matrix(path)
    if a.shape[1] != 1:
        raise BadShape(f"{path}: signals must be single-column, got {a.shape[1]} columns")
    return a.reshape(-1)
