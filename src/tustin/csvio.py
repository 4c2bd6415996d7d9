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

- *Significand.*  The sign and biased binary exponent of x, its top 12
  bits, index a table of the decade estimate floor(k log10 2), k the
  unbiased exponent.  floor(log10|x|) is that e or e + 1; one compare of
  |x| against the next power of ten decides.  For e in [-300, 308],
  10^(8-e) correctly rounded is a normal float64, so q = |x|*10^(8-e), one
  multiplication, is the exact t = |x|*10^(8-e) rounded at most twice:
  |q - t| < 2^-21.  So where q's fraction lies more than 1e-6 from 1/2,
  n = rint(q) is the correctly rounded 9-digit significand of x.  t lies
  in [1e8, 1e9) but for slivers at the decade's ends that the rounded
  powers leave: a t a hair under 1e8 rounds to 1e9 of the decade below,
  the same number, and an n of 1e9 is 1e8 of the next decade.
- *Digits.*  Multiply-shift division splits n into 10 * top + d9 and top
  into 10^4 * hi4 + lo4.  Tables of 10,000 entries give the ASCII digits
  of hi4 and lo4 in bytes 0..3 and 4..7 of one word, and the position of
  each group's last nonzero digit; their maximum with d9's gives d_j, the
  last nonzero digit of the nine.  hi4 = 10^4, from an n of 1e9, reads as
  1000 with j = 10.  The decade places the word's first p digits after a sign byte
  and the rest, then d9, past a gap left for the ``.`` or ``0.0...``.
  One xor from a table indexed by the signed decade and j writes the sign,
  the gap and the ``e+-XX`` exponent of e < -4 or e > 8 into the 16-byte
  cell and zeroes the digits after d_j (turns the cell into that of
  10^(e+1) for j = 10); ``bytes.translate`` deletes every zero byte of
  the chunk.
- *Everything else* goes through ``'%.9g' % x``, CPython's correctly
  rounded conversion, one value at a time: +-0, subnormals, nan and +-inf,
  decades outside [-300, 308], and values within 1e-6 of a tie.
"""

from __future__ import annotations

import io
import os
import stat
import warnings
from contextlib import suppress
from functools import cache
from typing import Sequence, TextIO

import numpy as np

# Values formatted per chunk: each temporary is 8 bytes a value, so about
# 64 KB, and stays in cache; whole-column temporaries do not.
CHUNK_VALUES = 8192

# Decades of the fast path: 10**(8 - e) is a finite normal float64.
_LOW_E, _HIGH_E = -300, 308
# The decade tables run from one decade below the window to one above it,
# once for x >= 0 and then again for x < 0: u = e - _FIRST_E, plus _SPAN
# where x < 0.
_FIRST_E = _LOW_E - 1
_SPAN = _HIGH_E + 2 - _FIRST_E
# A row of cells: 16 bytes of text, zero-padded, and its "," or "\n".
_CELL = 17
_U64 = np.uint64


def _layout(e: int) -> tuple[int, str]:
    """The whole digits and the gap of ``'%.9g'`` at decade e."""
    if 0 <= e <= 8:
        return e + 1, "." if e < 8 else ""
    if -4 <= e < 0:
        return 0, "0." + "0" * (-e - 1)
    return 1, "."


def _placed(e: int, digits: bytes) -> int:
    """The cell ``_cells`` assembles from 9 digits at decade e, as an int:
    a zero sign byte, the first p digits, a zero gap, the other digits."""
    whole, gap = _layout(e)
    p = min(whole, 8)
    return int.from_bytes(b"\0" + digits[:p] + bytes(len(gap)) + digits[p:], "little")


def _fix(e: int, j: int) -> int:
    """What turns an assembled cell of decade e into the text of ``'%.9g'``,
    xor-ed in, the sign and exponent left out: the gap if a digit follows
    it, and the "0" of each digit after d_j, its last nonzero digit.  j = 10
    stands for a significand rounded up to 10^9, the text of 10^(e+1)."""
    if j == 10:
        one = b"100000000"
        return _placed(e, one) ^ _placed(e + 1, one) ^ _fix(e + 1, 1)
    whole, gap = _layout(e)
    p = min(whole, 8)
    shown = max(j, whole)
    fix = int.from_bytes(b"0" * (9 - shown), "little") << 8 * (shown + len(gap) + 1)
    if shown > p:
        fix |= int.from_bytes(gap.encode(), "little") << 8 * (p + 1)
    return fix


def _exponents(first: int, last: int) -> np.ndarray:
    """``e+XX`` or ``e+XXX`` in bytes 3..7 of a word for e from first to
    last, zero for e in [-4, 8]."""
    e = np.arange(first, last + 1)
    m = np.abs(e)
    digits = (m // 10 % 10 + 48) | (m % 10 + 48) << 8
    # three digits where m >= 100, that is where (m + 900) // 1000 is 1
    wide = (m + 900) // 1000
    digits += wide * (((m // 100 + 48) | digits << 8) - digits)
    sign = ord("+") - 2 * (e >> 63)
    word = ord("e") | sign << 8 | digits << 16
    word[-4 - first:9 - first] = 0
    return word.astype(_U64) << _U64(24)


def _decade_tables():
    """The tables ``_cells`` indexes by the top 12 bits of x, by u and by
    11 * u + j.

    With d1..d8 in bytes 0..7 of a word, a cell takes the p digits that
    ``split`` keeps into bytes 1..p and the others, d9 included, ``shift``
    bits further.  Its fix adds the sign and the exponent to ``_fix``.
    """
    bits = np.arange(4096)
    biased = bits & 2047
    # floor(log10 |x|) is e = floor(k log10 2), which the multiply-shift
    # gives exactly for |k| <= 1100, or e + 1.  The clip sends zeros,
    # subnormals and decades below the window to the bottom sentinel;
    # infinities and nans go to the top one.
    e = ((biased - 1023) * 78913) >> 18
    e[2047::2048] = _HIGH_E + 1
    decade = np.clip(e, _FIRST_E, _HIGH_E + 1) - _FIRST_E + _SPAN * (bits >> 11)

    e = np.arange(_FIRST_E, _HIGH_E + 2)
    # 10.0**k correctly rounded, inf past the largest float
    first = 7 - _HIGH_E
    power = np.array([float("1e%d" % k) for k in range(first, _HIGH_E + 3)])
    # |x| moves up a decade where its bits exceed bump: those of 10^(e+1)
    # less one, or the largest int64 in the top sentinel, which no |x|
    # leaves
    bump = power[e + 1 - first].view(np.int64) - 1
    bump[-1] = np.iinfo(np.int64).max
    # nan in the sentinels, so that their q fails the tie check
    mul = power[8 - e - first]
    mul[[0, -1]] = np.nan

    # Decades -5..8 have layouts or round-ups of their own; the others share
    # those of -6 or 9 but for the exponent
    keys = range(-6, 10)
    key = np.clip(e, keys.start, keys.stop - 1) - keys.start
    split, shift = [], []
    for k in keys:
        whole, gap = _layout(k)
        split.append((1 << 8 * min(whole, 8)) - 1)
        shift.append(8 * (len(gap) + 1))
    fix = [[_fix(k, j) for j in range(11)] for k in keys]
    fix_lo = np.array([[f & (2**64 - 1) for f in row] for row in fix], _U64)[key]
    fix_hi = np.array([[f >> 64 for f in row] for row in fix], _U64)[key]
    fix_hi[:, :10] |= _exponents(_FIRST_E, _HIGH_E + 1)[:, None]
    fix_hi[:, 10] |= _exponents(_FIRST_E + 1, _HIGH_E + 2)
    fix_lo = np.concatenate([fix_lo, fix_lo | _U64(ord("-"))])
    split = np.array(split, _U64)[key]
    shift = np.array(shift, _U64)[key]
    return (decade,) + tuple(
        np.concatenate([t, t]) for t in (bump, mul, split, shift)
    ) + (fix_lo.ravel(), np.concatenate([fix_hi, fix_hi]).ravel())


def _digit_tables():
    """The digit groups: 4 ASCII digits, by value, in bytes 0..3 and in
    bytes 4..7, and the position of the group's last nonzero digit: 1..4
    in the high group, 5..8 in the low group, 0 for 0000.  Entry 10000 of
    the high group, a significand rounded up to 10^9, reads as 1000 with
    position 10.  Last, the position of d9: 9, or 0 for d9 = 0."""
    # axis i of the grids runs over the digit of weight 10^(3 - i)
    d = np.arange(10)
    grid = [d.reshape([10 if i == k else 1 for i in range(4)]) for k in range(4)]
    text, last = 0, 0
    for i, g in enumerate(grid):
        text = text | (g + 48).astype(_U64) << _U64(8 * i)
        last = np.maximum(last, (g > 0) * (i + 1))
    text, last = text.ravel(), last.ravel()
    return (
        np.append(text, text[1000]),
        text << _U64(32),
        np.append(last, 10).astype(np.int8),
        ((last + 4) * (last > 0)).astype(np.int8),
        np.array([0] + [9] * 9, np.int8),
    )


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The decade and digit tables, built at the first write, so that a
    program that writes no CSV does not build them at import."""
    tables = _decade_tables() + _digit_tables()
    for t in tables:
        t.flags.writeable = False
    return tables


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the zero-padded ``'%.9g' % v`` of each v.

    ``x`` is a C-contiguous float64 array; both results have its shape.
    """
    (decade, bump, mul, split, shifts, fix_lo, fix_hi,
     high4, low4, last_high, last_low, last_d9) = _tables()
    a = np.abs(x)
    u = decade.take((x.view(_U64) >> _U64(52)).view(np.intp))
    # u += (bits of |x| > bump), as bump - bits is negative
    up = bump.take(u)
    up -= a.view(np.int64)
    up >>= 63
    u -= up
    with np.errstate(invalid="ignore"):
        a *= mul.take(u)
        n = np.rint(a)
        a -= n
        np.abs(a, out=a)
        # q is within 2**-21 of the exact t, so only a near-tie can round
        # the other way
        ok = a < 0.5 - 1e-6
        n = n.astype(np.intp)
    # n = 10 * top + d9 and top = 10^4 * hi4 + lo4.  A lane that failed
    # holds any n: clipped, its indices stay in the tables, and '%'
    # overwrites its cell.
    top = (n * 0xCCCCCCCD) >> 35
    d9 = n - top * 10
    hi4 = (top * 109951163) >> 40
    lo4 = top - hi4 * 10000
    w = high4.take(hi4, mode="clip")
    w |= low4.take(lo4, mode="clip")
    # d_j is the last nonzero digit; j = 10 for an n of 10^9
    j = np.maximum(last_high.take(hi4, mode="clip"), last_low.take(lo4, mode="clip"))
    np.maximum(j, last_d9.take(d9, mode="clip"), out=j)
    j = 11 * u + j
    low = w & split.take(u)
    w ^= low
    shift = shifts.take(u)
    lo = low << _U64(8)
    lo |= w << shift
    lo ^= fix_lo.take(j)
    hi = low >> _U64(56)
    hi |= w >> (_U64(64) - shift)
    d9 += 48
    hi |= d9.view(_U64) << shift
    hi ^= fix_hi.take(j)
    if not ok.all():
        redo = np.flatnonzero(~ok)
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
