"""The numeric CSV format shared by every file tustin reads and writes.

A file is one header line naming the columns, then one row per line of
comma-separated floats printed with 9 significant digits (``%.9g``) and
ending in ``\\n``.  Readers skip blank lines and report a wrong header, a
wrong column count or a non-numeric field with the file name and line.

The reader takes a path or a text stream.  numpy parses the body: given
a path that names a regular file, it reads the file itself in large
chunks; a stream, and a path to a pipe, a FIFO or a device, is iterated
line by line through the open handle.

The writer formats in numpy, about 8,192 values at a time so that every
temporary stays in cache, and writes exactly the bytes of ``'%.9g' % x``:

- *Significand.*  Take e = floor(log10|x|), corrected by one where the
  scaled value falls outside [1e8, 1e9).  For e in [-14, 30], 10^|8-e| <=
  10^22 is an exact float64, so q = |x|*10^(8-e), one multiplication or
  division, is the exact t = |x|*10^(8-e) rounded once.  As q < 2^30,
  |q - t| <= 2^-24.  So where q lies in [1e8, 1e9) and its fraction lies
  more than 1e-6 from 1/2, n = rint(q) is the correctly rounded 9-digit
  significand of x.  (A t a hair under 1e8 rounds to 1e9 of the decade
  below, the same number.)  An n of 1e9 becomes 1e8 of the next decade.
- *Digits.*  The first eight digits become ASCII bytes of one 64-bit word
  by multiply-shift division within lanes (SWAR): 10^4 across the two
  32-bit halves, then 100 and 10 across narrower lanes.  Tables indexed by
  the decade place them, the ninth digit, the ``.``, the ``0.0...`` of
  e in [-4, -1] and the ``e+-XX`` exponent of e < -4 or e > 8 in a 16-byte
  cell after a sign byte.  Bytes past the last printed digit are zeroed,
  and ``bytes.translate`` deletes every zero byte of the chunk.
- *Everything else* goes through ``'%.9g' % x``, CPython's correctly
  rounded conversion, one value at a time: +-0, nan and +-inf, decades
  outside [-14, 30], and values within 1e-6 of a tie.
"""

from __future__ import annotations

import io
import os
import stat
import warnings
from contextlib import suppress
from typing import Sequence, TextIO

import numpy as np

# Values formatted per chunk: each temporary is 8 bytes a value, so about
# 64 KB, and stays in cache; whole-column temporaries do not.
CHUNK_VALUES = 8192

# Decades whose scaling power 10**|8 - e| is an exact float64.
_LOW_E, _HIGH_E = -14, 30
# Tables start one decade below the window, and a round-up reaches one above.
_DECADES = range(_LOW_E - 1, _HIGH_E + 2)
# A row of cells: 16 bytes of text, zero-padded, and its "," or "\n".
_CELL = 17
_U64 = np.uint64


def _tables():
    """Per-decade constants, indexed by e - _DECADES.start.

    The digit word holds d1..d8 in its bytes 0..7.  A cell is byte 0 for
    the sign, then d1..dp, the gap (``.``, ``0.0...`` or nothing), the rest
    of the digits, and the exponent in bytes 11..15; the cell's low and high
    64-bit words are built separately.
    """
    # nan outside the window, so that q fails its range check there
    mul = [float(10 ** max(8 - e, 0)) if e >= _LOW_E else np.nan for e in _DECADES]
    div = [float(10 ** max(e - 8, 0)) if e <= _HIGH_E else np.nan for e in _DECADES]
    split, shl, gap_lo, gap_hi, exp_hi = ([] for _ in range(5))
    keep = []
    for e in _DECADES:
        if 0 <= e <= 8:
            whole, gap, exponent = e + 1, "." if e < 8 else "", ""
        elif -4 <= e < 0:
            whole, gap, exponent = 0, "0." + "0" * (-e - 1), ""
        else:
            whole, gap, exponent = 1, ".", "e%+03d" % e
        # whole digits precede the point; the first p of them are in the word
        p, g = min(whole, 8), len(gap)
        split.append((1 << 8 * p) - 1)
        shl.append(8 * (g + 1))
        gap_bits = int.from_bytes(gap.encode(), "little") << 8 * (p + 1)
        gap_lo.append(gap_bits & (2**64 - 1))
        gap_hi.append(gap_bits >> 64)
        exp_hi.append(int.from_bytes(exponent.encode(), "little") << 24)
        # bytes kept, by 10 * (e - _DECADES.start) + j for the last nonzero
        # digit d_j (j = 0 is unused)
        for j in range(10):
            shown = max(j, whole)
            last = shown + g if shown > p else shown
            keep.append((1 << 8 * (last + 1)) - 1)
    keep_lo = [k & (2**64 - 1) for k in keep]
    keep_hi = [k >> 64 for k in keep]
    return (np.array(mul), np.array(div)) + tuple(
        np.array(t, dtype=_U64)
        for t in (split, shl, gap_lo, gap_hi, exp_hi, keep_lo, keep_hi)
    )


_MUL, _DIV, _SPLIT, _SHL, _GAP_LO, _GAP_HI, _EXP_HI, _KEEP_LO, _KEEP_HI = _tables()


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the zero-padded ``'%.9g' % v`` of each v.

    ``x`` is a C-contiguous float64 array; both results have its shape.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(a)
        np.floor(e, out=e)
        np.fmax(e, _LOW_E, out=e)
        np.fmin(e, _HIGH_E, out=e)
        u = e.astype(np.intp)
        u -= _DECADES.start
        q = a * _MUL.take(u)
        q /= _DIV.take(u)
        u += q >= 1e9
        u -= q < 1e8
        np.multiply(a, _MUL.take(u), out=q)
        q /= _DIV.take(u)
        n = np.rint(q)
        ok = q >= 1e8
        ok &= q < 1e9
        np.subtract(q, n, out=a)
        np.abs(a, out=a)
        # q is within 2**-24 of the exact t, so only a near-tie can round
        # the other way
        ok &= a < 0.5 - 1e-6
    bad = ~ok
    n[bad] = 1e8  # any significand: '%' overwrites these cells
    up = n >= 1e9
    n[up] = 1e8
    u += up
    # d1..d8 in the bytes of one word, d1 first in memory; then d9
    n = n.astype(_U64)
    top = (n * _U64(0xCCCCCCCD)) >> _U64(35)
    d9 = n - top * _U64(10)
    h = (top * _U64(109951163)) >> _U64(40)
    w = h + ((top - h * _U64(10000)) << _U64(32))
    h = ((w * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    w = h + ((w - h * _U64(100)) << _U64(16))
    h = ((w * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    w = h + ((w - h * _U64(10)) << _U64(8))
    # The last nonzero digit d_j: flag bit 8(j - 1) for each nonzero byte of
    # the word and bit 62 for d9; the top flag's float exponent x gives
    # j = (x + 10) >> 3, which is 9 for bit 62.
    flags = ((w + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080)) >> _U64(7)
    flags |= ((d9 + _U64(15)) >> _U64(4)) << _U64(62)
    keep = flags.view(np.int64).astype(np.float64).view(np.int64) >> 52
    keep -= 1013
    keep >>= 3
    keep += u * 10
    w += _U64(0x3030303030303030)
    low = w & _SPLIT.take(u)
    w ^= low
    shift = _SHL.take(u)
    lo = (x.view(_U64) >> _U64(63)) * _U64(ord("-"))
    lo |= low << _U64(8)
    lo |= w << shift
    lo |= _GAP_LO.take(u)
    lo &= _KEEP_LO.take(keep)
    hi = low >> _U64(56)
    hi |= w >> (_U64(64) - shift)
    d9 += _U64(ord("0"))
    hi |= d9 << shift
    hi |= _GAP_HI.take(u)
    hi &= _KEEP_HI.take(keep)
    hi |= _EXP_HI.take(u)
    redo = np.flatnonzero(bad)
    if redo.size:
        text = np.array(["%.9g" % v for v in x.ravel()[redo].tolist()], dtype="S16")
        words = text.view("<u8").reshape(-1, 2)
        lo.ravel()[redo] = words[:, 0]
        hi.ravel()[redo] = words[:, 1]
    return lo, hi


def write_csv(fh: TextIO, header: str, columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length columns under ``header``, one ``%.9g`` row each.

    Raises ``ValueError``, before writing anything, when the column count
    is not the header's or the columns differ in length.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    ncols = header.count(",") + 1
    if len(columns) != ncols:
        raise ValueError(
            f"expected {ncols} columns for header {header!r}, got {len(columns)}"
        )
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    fh.write(header + "\n")
    rows = max(1, min(CHUNK_VALUES // ncols, lengths[0]))
    table = np.empty((rows, ncols, _CELL), np.uint8)
    table[:, :, -1] = ord(",")
    table[:, -1, -1] = ord("\n")
    # each cell's two words, in place in the rows; little-endian, so that a
    # word's low byte is the first character
    words = np.ndarray(
        (rows, ncols, 2), "<u8", table, strides=(_CELL * ncols, _CELL, 8)
    )
    for start in range(0, lengths[0], rows):
        block = np.column_stack([c[start:start + rows] for c in columns])
        k = len(block)
        words[:k, :, 0], words[:k, :, 1] = _cells(block)
        fh.write(table[:k].tobytes().translate(None, b"\0").decode("ascii"))


def read_csv(source: str | os.PathLike[str] | TextIO, header: str) -> np.ndarray:
    """Read a file written by :func:`write_csv`; rows x columns float64.

    ``source`` is a path or a text stream; errors name the path, or the
    stream's ``name``.  The column count comes from ``header``.  numpy's
    parser reads the body.  Given a path that names a regular file, numpy
    reads the file itself, in large chunks; a stream, or a path to a pipe,
    a FIFO or a device, is iterated line by line through the open handle.
    Both give the same table, bit for bit.  Where numpy fails or
    finds another column count (a line of spaces, a non-numeric field, a
    short row, an empty body) the file is read again from its start and
    scanned line by line through the handle, which skips blank lines or
    names the error.  A stream that cannot seek, such as a pipe, is read
    into memory first for that rescan.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return _read(fh, header, os.path.abspath(source))
    return _read(source, header, None)


# Names that numpy's loadtxt opens through a decompressor: a plain file so
# named is read through its handle.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read(fh: TextIO, header: str, path: str | None) -> np.ndarray:
    # path is the absolute path fh was opened from, or None for a stream;
    # absolute, so that numpy never takes it for a URL.
    name = getattr(fh, "name", "<stream>")
    if not fh.seekable():
        fh, path = io.StringIO(fh.read()), None
    got = fh.readline().strip()
    if got != header:
        raise ValueError(f"{name}: expected header {header!r}, got {got!r}")
    ncols = header.count(",") + 1
    own = None if path is None else os.fstat(fh.fileno())
    if own is None or not stat.S_ISREG(own.st_mode) or path.endswith(_COMPRESSED):
        table = _parse(fh, ncols)
    else:
        # numpy opens the path again and reads it from its start.  If the
        # path no longer names the file fh has open, fh's body is read.
        try:
            table = _parse(path, ncols, skiprows=1)
        except OSError:
            table = None
        if not _names(path, own):
            table = _parse(fh, ncols)
    if table is not None:
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
            values.extend(map(_number, fields))
        except ValueError:
            raise ValueError(f"{name}:{lineno}: non-numeric field") from None
    return np.array(values, dtype=np.float64).reshape(-1, ncols)


def _parse(body: str | TextIO, ncols: int, skiprows: int = 0) -> np.ndarray | None:
    # numpy's parse of a path or of a handle from its position; None where
    # it fails or finds another column count.
    with suppress(ValueError), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, skiprows=skiprows)
        if table.shape[1:] == (ncols,):
            return table
    return None


def _names(path: str, own: os.stat_result) -> bool:
    # Whether path names the file that own describes: the same device and
    # inode.
    try:
        return os.path.samestat(os.stat(path), own)
    except OSError:
        return False


def _number(field: str) -> float:
    # float() also reads digit-group underscores and other scripts' digits,
    # which numpy's parser, and so the format, refuses.
    text = field.strip()
    if "_" in text or not text.isascii():
        raise ValueError(field)
    return float(text)
