"""The shared numeric CSV codec: byte format, exact round trip, errors."""

import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tustin.csvio import read_csv, write_csv

HEADER = "t,a,b"

finite = st.floats(allow_nan=False, allow_infinity=False)
rows = st.lists(st.tuples(finite, finite, finite), max_size=40)


@given(rows)
@example([(0.0, -0.0, 5e-324)])
@example([(-5e-324, 2.2250738585072014e-308, -1.7976931348623157e308)])
@example([(1e16, 123456789.5, 0.1)])
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
