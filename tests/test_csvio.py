"""The shared numeric CSV codec: byte format, exact round trip, errors."""

import io
import math
import os
import threading
import tracemalloc
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tustin.csvio import CHUNK_VALUES, read_csv, write_csv

HEADER = "t,a,b"

finite = st.floats(allow_nan=False, allow_infinity=False)
rows = st.lists(st.tuples(finite, finite, finite), max_size=40)


def around(v, ulps=4):
    """``v`` and the floats up to ``ulps`` steps below and above it."""
    out, down, up = [v], v, v
    for _ in range(ulps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def as_rows(values):
    values = list(values)
    values += [0.0] * (-len(values) % 3)
    return list(zip(values[0::3], values[1::3], values[2::3]))


# (m + 1/2) * 10^k for 9-digit m: the 10th significant digit is a 5, so
# the float lies within an ulp or so of a tie, or on one
NEAR_TIES = [(m + 0.5) * 10.0**k for m, k in (
    (123456789, 0), (123456789, -8), (987654321, -15), (100000000, 5),
    (500000000, -20), (999999999, -1), (314159265, 13), (271828182, -30),
)]


@given(rows)
@example([(0.0, -0.0, 5e-324)])
@example([(-5e-324, 2.2250738585072014e-308, -1.7976931348623157e308)])
@example([(1e16, 123456789.5, 0.1)])
@example(as_rows(w for v in NEAR_TIES for s in (1, -1) for w in around(s * v)))
@example(as_rows(w for v in (1e-4, 1e9, 1e-14, 1e31) for w in around(v)))
@example(as_rows([1.5e-15, -2.5e-5, 6.02e23, 9.87654321e-99, 1.23456789e100,
                  -1e-300, 4.4e-100, 7e307, 5e-310]))
@example(as_rows([999999999.5, 9.9999999995e-5, 999999999.7, -99999999.97,
                  9.99999999996e-5, 9.99999999996e-15, 9.99999999996e30,
                  0.99999999996, 9999.99999996]))
def test_writer_is_9g_and_reader_returns_the_rounded_floats(table):
    buf = io.StringIO()
    write_csv(buf, HEADER, [np.array([r[k] for r in table]) for k in range(3)])
    text = buf.getvalue()
    want = HEADER + "\n" + "".join(
        f"{a:.9g},{b:.9g},{c:.9g}\n" for a, b, c in table
    )
    assert text == want
    back = read_csv(io.StringIO(text), HEADER)
    rounded = np.array([[float(f"{v:.9g}") for v in r] for r in table]).reshape(-1, 3)
    assert back.shape == rounded.shape
    assert back.tobytes() == rounded.tobytes()


def test_writer_matches_bulk_percent_over_a_million_values():
    # The writer's exactness argument holds value by value; this crosses
    # chunk edges with every distribution that reaches another branch.
    rng = np.random.default_rng(20261020)
    n = 160_000

    def ulps_apart(v, k):
        return (v.view(np.int64) + k).view(np.float64)

    nine_digits = rng.integers(10**8, 10**9, n).astype(np.float64)
    decades = 10.0 ** rng.integers(-25, 35, n).astype(np.float64)
    near_ties = (nine_digits + 0.5) * decades
    powers = np.array([10.0**k for k in range(-20, 40)]
                      + [float(f"1e{k}") for k in range(-20, 40)])
    window_edges = np.array([1e-14, 1e-5, 1e-4, 1e8, 1e9, 1e31])
    steps = np.arange(-5, 6)
    values = np.concatenate([
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        np.exp(rng.uniform(np.log(1e-20), np.log(1e35), n)),
        nine_digits * decades,
        nine_digits / decades,
        near_ties,
        ulps_apart(near_ties, rng.integers(-4, 5, n)),
        ulps_apart(np.concatenate([powers, window_edges])[:, None], steps).ravel(),
        rng.integers(1, 2**52, n // 10, dtype=np.uint64).view(np.float64),
        np.tile([0.0, -0.0, np.inf, -np.inf, np.nan], 1000),
        rng.normal(size=n) * 3e-7,
    ])
    values = np.where(rng.random(len(values)) < 0.5, values, -values)
    values = rng.permutation(values)
    assert len(values) >= 1_000_000
    third = len(values) // 3
    for ncols in (1, 2, 3):
        part = values[(ncols - 1) * third:ncols * third]
        table = part[:len(part) // ncols * ncols].reshape(-1, ncols)
        assert len(table) % (CHUNK_VALUES // ncols) != 0
        header = ",".join("abc"[:ncols])
        buf = io.StringIO()
        write_csv(buf, header, list(table.T))
        row = ",".join(["%.9g"] * ncols) + "\n"
        want = row * len(table) % tuple(table.ravel().tolist())
        assert buf.getvalue() == header + "\n" + want


def test_writer_is_percent_at_every_decade_digit_count_and_power_of_ten():
    # A deterministic cover of the formatter's tables: every group of 4
    # digits as the first and as the second group of the significand; the
    # first and last float of every binary exponent; in every decade, 1 to
    # 9 significant digits, the power of ten and the floats 3 ulps either
    # side (where the decade estimate turns over), a value just past it, one
    # that rounds up to the next decade, and near-ties at the 10th digit, 2
    # ulps either side; and in decades -16..31, which reach every
    # fixed-point layout, 1 to 9 digits with and without inner zeros after
    # each leading digit (so every binade of the decade).
    values = [g / 1000 for g in range(1000, 10000)]
    values += [float(f"1.000{g:04d}") for g in range(10000)]
    values += [math.ldexp(m, k) for k in range(-1074, 1024) for m in (1.0, 2.0 - 2**-52)]
    for k in range(-324, 309):
        values += [float(f"1.{'1' * j}e{k}") for j in range(9)]
        values += around(float(f"1e{k}"), 3)
        values += [float(f"1.00000001e{k}"), float(f"9.9999999996e{k}")]
        for tie in ("1.234567895", "9.999999995", "1.000000005", "5.000000005"):
            values += around(float(f"{tie}e{k}"), 2)
    for k in range(-16, 32):
        for m in range(1, 10):
            for lead in range(1, 10):
                full = "".join(str((lead + 7 * i) % 9 + 1) for i in range(m))
                sparse = (str(lead) + "0" * (m - 2) + "7")[:m]
                values += [float(f"{d[0]}.{d[1:]}e{k}") for d in (full, sparse)]
    values = [v for v in values if math.isfinite(v)]
    values += [-v for v in values]
    table = as_rows(values)
    buf = io.StringIO()
    write_csv(buf, HEADER, [np.array([r[k] for r in table]) for k in range(3)])
    got = buf.getvalue().split("\n")
    want = [HEADER] + [f"{a:.9g},{b:.9g},{c:.9g}" for a, b, c in table] + [""]
    # the first rows that differ, not a diff of the whole text
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []


@pytest.mark.parametrize("header, columns, message", [
    ("a,b,c", [[1.0], [2.0]], r"^expected 3 columns for header 'a,b,c', got 2$"),
    ("a", [[1.0], [2.0]], r"^expected 1 columns for header 'a', got 2$"),
    ("a,b", [[1.0, 2.0, 3.0], [4.0, 5.0]], r"^columns differ in length: \[3, 2\]$"),
])
def test_writer_refuses_bad_columns_before_writing(header, columns, message):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_csv(buf, header, columns)
    assert buf.getvalue() == ""


class Sink:
    """A text file that keeps nothing of what it is given."""

    def write(self, text):
        return len(text)


def test_writer_temporaries_stay_chunk_sized():
    # numpy reports its buffers to tracemalloc; a formatter that worked on
    # whole columns would peak at tens of MB here.
    columns = [np.linspace(0.0, 1e3, 1_000_000) * k for k in (1.0, -np.pi, 1e-7)]
    tracemalloc.start()
    try:
        write_csv(Sink(), HEADER, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def named(text, name="curve.csv"):
    fh = io.StringIO(text)
    fh.name = name
    return fh


@pytest.fixture
def read(tmp_path, monkeypatch):
    """read_csv of a text by a file's path and as a stream of that name.

    The two must give the same table, bit for bit, or the same error
    message; the table is returned, the error raised.
    """
    monkeypatch.chdir(tmp_path)

    def read(text, name="curve.csv"):
        with open(name, "w", newline="") as fh:
            fh.write(text)
        outcomes = []
        for source in (name, named(text, name)):
            try:
                outcomes.append(read_csv(source, HEADER))
            except ValueError as e:
                outcomes.append(str(e))
        by_path, by_stream = outcomes
        if isinstance(by_path, str) or isinstance(by_stream, str):
            assert by_path == by_stream
            raise ValueError(by_path)
        assert by_path.shape == by_stream.shape
        assert by_path.tobytes() == by_stream.tobytes()
        return by_path

    return read


def test_reader_skips_blank_lines_and_outer_whitespace(read):
    got = read(HEADER + "\n1,2,3\n\n  \n 4,5 ,6 \n")
    assert got.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_reader_accepts_an_empty_body(read):
    assert read(HEADER + "\n").shape == (0, 3)


def test_reader_names_file_and_line(read):
    with pytest.raises(ValueError, match=r"^curve\.csv: expected header"):
        read("x,y,z\n1,2,3\n")
    with pytest.raises(ValueError, match=r"^curve\.csv:4: expected 3 columns, got 2"):
        read(HEADER + "\n1,2,3\n\n4,5\n")
    with pytest.raises(ValueError, match=r"^curve\.csv:3: non-numeric field"):
        read(HEADER + "\n1,2,3\n4,five,6\n7,8\n")


def test_reader_reports_the_first_bad_line_of_either_kind(read):
    # a column-count error after a non-numeric one: the earlier line wins
    with pytest.raises(ValueError, match=r":2: non-numeric field"):
        read(HEADER + "\n1,x,3\n4,5\n")
    # and the other way round
    with pytest.raises(ValueError, match=r":2: expected 3 columns"):
        read(HEADER + "\n1,2,3,4\n4,x,6\n")


def test_reader_rejects_rows_that_only_balance_overall(read):
    # 2 + 4 fields add up to two rows of 3 but neither row has 3
    with pytest.raises(ValueError, match=r":2: expected 3 columns, got 2"):
        read(HEADER + "\n1,2\n3,4,5,6\n")


def test_reader_accepts_a_body_of_blank_lines(read):
    assert read(HEADER + "\n\n  \n\n").shape == (0, 3)


def test_reader_rejects_rows_that_all_have_another_column_count(read):
    with pytest.raises(ValueError, match=r"^curve\.csv:2: expected 3 columns, got 4"):
        read(HEADER + "\n1,2,3,4\n5,6,7,8\n")


def test_reader_gives_a_large_table_by_path_as_by_stream(read):
    # Many of numpy's read chunks, every kind of field the writer prints,
    # and a last row without its newline.
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64)
    values[::97] = np.tile([0.0, -0.0, np.nan, np.inf, -np.inf], 619)[:len(values[::97])]
    buf = io.StringIO()
    write_csv(buf, HEADER, list(values.reshape(-1, 3).T))
    got = read(buf.getvalue().rstrip("\n"))
    want = np.array([float(f"{v:.9g}") for v in values.tolist()]).reshape(-1, 3)
    assert got.tobytes() == want.tobytes()


class Pipe(io.StringIO):
    """A stream that cannot seek back, such as standard input."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("underlying stream is not seekable")

    seek = tell


def test_reader_reads_a_well_formed_stream_that_cannot_seek():
    got = read_csv(Pipe(HEADER + "\n1,2,3\n4,5,6\n"), HEADER)
    assert got.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_reader_names_the_bad_line_of_a_stream_that_cannot_seek():
    fh = Pipe(HEADER + "\n1,2,3\n4,five,6\n")
    fh.name = "/dev/stdin"
    with pytest.raises(ValueError, match=r"^/dev/stdin:3: non-numeric field"):
        read_csv(fh, HEADER)


def test_reader_skips_a_line_of_spaces_in_a_stream_that_cannot_seek():
    text = HEADER + "\n1,2,3\n   \n4,5,6\n"
    got = read_csv(Pipe(text), HEADER)
    assert got.tobytes() == read_csv(named(text), HEADER).tobytes()
    assert got.shape == (2, 3)


@pytest.mark.parametrize("field", ["1_0", "\uff11", "\u0663"])
@pytest.mark.parametrize("spaces", ["", "   \n"], ids=["", "line-of-spaces"])
def test_reader_refuses_what_numpys_parser_refuses(read, field, spaces):
    # float() reads each of these; the scan after numpy fails must not
    text = f"{HEADER}\n{spaces}1,2,3\n4,{field},6\n"
    line = 4 if spaces else 3
    with pytest.raises(ValueError, match=rf"^curve\.csv:{line}: non-numeric field$"):
        read(text)
    with pytest.raises(ValueError, match=rf"^<stream>:{line}: non-numeric field$"):
        read_csv(Pipe(text), HEADER)


class NoRescan(io.StringIO):
    """A file that fails if it is read a second time."""

    name = "curve.csv"

    def seek(self, *args):
        raise AssertionError("well-formed input was scanned line by line")


def test_reader_parses_well_formed_input_in_one_pass():
    got = read_csv(NoRescan(HEADER + "\n1,2,3\n-4e5,nan,inf\n"), HEADER)
    assert got.tobytes() == np.array([[1.0, 2.0, 3.0], [-4e5, np.nan, np.inf]]).tobytes()


# ------------------------------------------------------- reading by path


def loadtxt_spy(monkeypatch, before=None):
    """Record what numpy's loadtxt is given; ``before(path)`` runs ahead of
    each read by path."""
    real, seen = np.loadtxt, []

    def spy(body, *args, **kwargs):
        seen.append(body)
        if before is not None and isinstance(body, str):
            before(body)
        return real(body, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return seen


TEXT = HEADER + "\n1,2,3\n-4e5,nan,inf\n"
TABLE = np.array([[1.0, 2.0, 3.0], [-4e5, np.nan, np.inf]])


def test_reader_hands_numpy_the_path_of_a_regular_file(tmp_path, monkeypatch):
    path = tmp_path / "curve.csv"
    path.write_text(TEXT)
    seen = loadtxt_spy(monkeypatch)
    for source in (str(path), path):
        assert read_csv(source, HEADER).tobytes() == TABLE.tobytes()
    assert seen == [str(path)] * 2
    seen.clear()
    with open(path) as fh:
        read_csv(fh, HEADER)
    assert [type(body) for body in seen] == [type(fh)]


def test_reader_reads_a_plain_file_named_like_a_compressed_one(tmp_path, monkeypatch):
    # numpy would open these names through a decompressor
    seen = loadtxt_spy(monkeypatch)
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        path = tmp_path / f"curve.csv{suffix}"
        path.write_text(TEXT)
        assert read_csv(str(path), HEADER).tobytes() == TABLE.tobytes()
    assert not any(isinstance(body, str) for body in seen)


def test_reader_reads_a_fifo_once_through_its_handle(tmp_path):
    # A second open of a FIFO, or of /dev/stdin on a pipe, would start
    # where the first handle's buffer ended, not at the first row.
    fifo = tmp_path / "sweep.csv"
    os.mkfifo(fifo)
    rows = np.arange(60_000.0).reshape(-1, 3)
    buf = io.StringIO()
    write_csv(buf, HEADER, list(rows.T))

    def feed():
        with suppress(BrokenPipeError), open(fifo, "w") as fh:
            fh.write(buf.getvalue())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = read_csv(str(fifo), HEADER)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("change", ["replaced", "removed"])
def test_reader_reads_its_own_handle_when_the_path_moves_on(tmp_path, monkeypatch, change):
    # The path names another file, or none, by the time numpy opens it:
    # the body is still that of the file whose header was read.
    path = tmp_path / "curve.csv"
    path.write_text(TEXT)

    def move_on(name):
        if change == "replaced":
            other = tmp_path / "other.csv"
            other.write_text(HEADER + "\n7,8,9\n")
            os.replace(other, name)
        else:
            os.remove(name)

    seen = loadtxt_spy(monkeypatch, move_on)
    assert read_csv(str(path), HEADER).tobytes() == TABLE.tobytes()
    assert isinstance(seen[0], str) and not isinstance(seen[-1], str)


def test_reader_reads_its_own_handle_when_the_inode_differs(tmp_path, monkeypatch):
    path = tmp_path / "curve.csv"
    path.write_text(TEXT)
    real_stat = os.stat

    def stat(name, *args, **kwargs):
        st = real_stat(name, *args, **kwargs)
        if os.fspath(name) != str(path):
            return st
        fields = list(st)
        fields[1] += 1  # st_ino
        return os.stat_result(fields)

    monkeypatch.setattr(os, "stat", stat)
    seen = loadtxt_spy(monkeypatch)
    assert read_csv(str(path), HEADER).tobytes() == TABLE.tobytes()
    assert [type(body) for body in seen[:1]] == [str]
    assert len(seen) == 2 and hasattr(seen[1], "read")
