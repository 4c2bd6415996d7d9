"""The numeric CSV format shared by every file tustin reads and writes.

A file is one header line naming the columns, then one row per line of
comma-separated floats printed with 9 significant digits (``%.9g``) and
ending in ``\\n``.  Readers skip blank lines and report a wrong header, a
wrong column count or a non-numeric field with the file name and line.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Sequence, TextIO

import numpy as np


def write_csv(fh: TextIO, header: str, columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length columns under ``header``, one ``%.9g`` row each."""
    fh.write(header + "\n")
    row = ",".join(["%.9g"] * len(columns)) + "\n"
    fh.writelines(row % r for r in zip(*(np.asarray(c).tolist() for c in columns)))


def read_csv(fh: TextIO, header: str) -> np.ndarray:
    """Read a file written by :func:`write_csv`; rows x columns float64.

    The column count comes from ``header``.  When every line holds that
    many fields the body is parsed in one pass; otherwise, or when a field
    is not a number, it is scanned line by line to name the error.
    """
    name = getattr(fh, "name", "<stream>")
    got = fh.readline().strip()
    if got != header:
        raise ValueError(f"{name}: expected header {header!r}, got {got!r}")
    ncols = header.count(",") + 1
    lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if set(map(str.count, lines, repeat(","))) <= {ncols - 1}:
        try:
            tokens = chain.from_iterable(map(str.split, lines, repeat(",")))
            return _table(map(float, tokens), ncols)
        except ValueError:
            pass
    values: list[float] = []
    for lineno, line in enumerate(lines, start=2):
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
    return _table(values, ncols)


def _table(values, ncols: int) -> np.ndarray:
    return np.fromiter(values, dtype=np.float64).reshape(-1, ncols)
