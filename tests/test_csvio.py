"""The shared numeric CSV codec: byte format, exact round trip, errors."""

import io
import math
import tracemalloc

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


def test_reader_skips_blank_lines_and_outer_whitespace():
    got = read_csv(named(HEADER + "\n1,2,3\n\n  \n 4,5 ,6 \n"), HEADER)
    assert got.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_reader_accepts_an_empty_body():
    assert read_csv(named(HEADER + "\n"), HEADER).shape == (0, 3)


def test_reader_names_file_and_line():
    with pytest.raises(ValueError, match=r"^curve\.csv: expected header"):
        read_csv(named("x,y,z\n1,2,3\n"), HEADER)
    with pytest.raises(ValueError, match=r"^curve\.csv:4: expected 3 columns, got 2"):
        read_csv(named(HEADER + "\n1,2,3\n\n4,5\n"), HEADER)
    with pytest.raises(ValueError, match=r"^curve\.csv:3: non-numeric field"):
        read_csv(named(HEADER + "\n1,2,3\n4,five,6\n7,8\n"), HEADER)


def test_reader_reports_the_first_bad_line_of_either_kind():
    # a column-count error after a non-numeric one: the earlier line wins
    with pytest.raises(ValueError, match=r":2: non-numeric field"):
        read_csv(named(HEADER + "\n1,x,3\n4,5\n"), HEADER)
    # and the other way round
    with pytest.raises(ValueError, match=r":2: expected 3 columns"):
        read_csv(named(HEADER + "\n1,2,3,4\n4,x,6\n"), HEADER)


def test_reader_rejects_rows_that_only_balance_overall():
    # 2 + 4 fields add up to two rows of 3 but neither row has 3
    with pytest.raises(ValueError, match=r":2: expected 3 columns, got 2"):
        read_csv(named(HEADER + "\n1,2\n3,4,5,6\n"), HEADER)


def test_reader_accepts_a_body_of_blank_lines():
    assert read_csv(named(HEADER + "\n\n  \n\n"), HEADER).shape == (0, 3)


def test_reader_rejects_rows_that_all_have_another_column_count():
    with pytest.raises(ValueError, match=r"^curve\.csv:2: expected 3 columns, got 4"):
        read_csv(named(HEADER + "\n1,2,3,4\n5,6,7,8\n"), HEADER)


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
def test_reader_refuses_what_numpys_parser_refuses(field, spaces):
    # float() reads each of these; the scan after numpy fails must not
    text = f"{HEADER}\n{spaces}1,2,3\n4,{field},6\n"
    line = 4 if spaces else 3
    for fh in (named(text), Pipe(text)):
        with pytest.raises(ValueError, match=rf"^(curve\.csv|<stream>):{line}: non-numeric field$"):
            read_csv(fh, HEADER)


class NoRescan(io.StringIO):
    """A file that fails if it is read a second time."""

    name = "curve.csv"

    def seek(self, *args):
        raise AssertionError("well-formed input was scanned line by line")


def test_reader_parses_well_formed_input_in_one_pass():
    got = read_csv(NoRescan(HEADER + "\n1,2,3\n-4e5,nan,inf\n"), HEADER)
    assert got.tobytes() == np.array([[1.0, 2.0, 3.0], [-4e5, np.nan, np.inf]]).tobytes()
