"""The numeric CSV format shared by every file tustin reads and writes.

A file is one header line naming the columns, then one row per line of
comma-separated floats printed with 9 significant digits (``%.9g``) and
ending in ``\\n``.  Readers skip blank lines and report a wrong header, a
wrong column count or a non-numeric field with the file name and line.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from typing import Sequence, TextIO

import numpy as np

# Rows formatted by one ``%`` call: Python objects exist for one slice at a
# time, not for the whole table.
ROWS_PER_WRITE = 4096


def write_csv(fh: TextIO, header: str, columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length columns under ``header``, one ``%.9g`` row each."""
    fh.write(header + "\n")
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    for i in range(0, len(columns[0]), ROWS_PER_WRITE):
        rows = np.column_stack([c[i:i + ROWS_PER_WRITE] for c in columns])
        fh.write(row * len(rows) % tuple(rows.ravel().tolist()))


def read_csv(fh: TextIO, header: str) -> np.ndarray:
    """Read a file written by :func:`write_csv`; rows x columns float64.

    The column count comes from ``header``.  numpy's parser reads the body;
    where it fails or finds another column count (a line of spaces, a
    non-numeric field, a short row, an empty body) the file is read again
    from its start and scanned line by line, which skips blank lines or
    names the error.  Only that rescan needs a stream that can seek.
    """
    name = getattr(fh, "name", "<stream>")
    got = fh.readline().strip()
    if got != header:
        raise ValueError(f"{name}: expected header {header!r}, got {got!r}")
    ncols = header.count(",") + 1
    with suppress(ValueError), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if table.shape[1:] == (ncols,):
            return table
    fh.seek(0)
    fh.readline()
    values: list[float] = []
    for lineno, line in enumerate(fh, start=2):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        if len(fields) != ncols:
            raise ValueError(
                f"{name}:{lineno}: expected {ncols} columns, got {len(fields)}"
            )
        try:
            values.extend(map(float, fields))
        except ValueError:
            raise ValueError(f"{name}:{lineno}: non-numeric field") from None
    return np.array(values, dtype=np.float64).reshape(-1, ncols)
