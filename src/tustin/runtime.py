"""Fixed-rate execution of a designed difference equation.

Each tick computes y[0] = b_hat . y_prev + a_hat . x_hist, shifts the new
input and output into their histories and returns y[0].  A filter's tick
is a closure generated once per filter order: its coefficients and both
histories, most recent first, are cells of that closure, and the shift
moves each value one cell along.  The whole tick, checks included, is one
frame of straight-line code, O(order) with no loop and no tuple built.

On the very first tick both histories are filled with the first input
before the normal update runs.  For a unity-DC filter that starts the
output on top of the input instead of ramping from zero; disable it with
``use_startup_heuristic=False`` to get the classical zero initial state.

Whole series run two ways.  :func:`process` is the fold of tick(), the
exact per-sample reference.  :func:`filter_series` is the batch kernel: the
block realization of Burrus ("Block realization of digital filters", IEEE
Trans. Audio Electroacoust. AU-20(4), 1972), in which each block of
BLOCK_LEN outputs is one row of a matrix product over the block's inputs
and the n inputs before it, read from the series, plus a term in the n
outputs before it.  Only those n outputs cross block edges, by a linear
recurrence that one scan solves for every block at once.  The products sum
in another order than tick(), so the kernel agrees with the fold to
rounding, not bitwise; where rounding could grow, it hands the series to
the fold.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from functools import lru_cache
from itertools import takewhile

from .discretize import UNIT_CIRCLE_MARGIN, DigitalFilterCoefficients, pole_radii
from .signals import TimeSeries

import numpy as np

# Inputs below the smallest normal magnitude are flushed to zero before the
# dot products; feeding denormals through an IIR recursion is a well-known
# slow path on real hardware.
_MIN_NORMAL = sys.float_info.min

# Relative disagreement between a series' sample rate and the design rate
# beyond which processing refuses to run.
RATE_RTOL = 1e-9

# Outputs per block of filter_series.  It trades the size of the block
# products against the length of the output-history scan, one row per
# block; the kernel's gap to the fold kept its order of magnitude from 32
# to 256.
BLOCK_LEN = 128

# Blocks per slice of the block products.  Slicing bounds the kernel's
# temporaries, and so the peak RSS of the CLI; it is not there for the
# output.  With one slice for the whole series, the written CSVs stayed
# byte-identical (butter2, notch, leadlag and multiorder at 120k, 2M and 4M
# samples; some float outputs moved in their last bits at 2M, none in %.9g),
# but `tustin filter` on a 2M-row sweep peaked at 139-140 MB resident against
# 124 MB, and `bode --method chirp` of a pid designed at 100 kHz at 710 MB
# against 689 MB.  The price is speed: that chirp takes 2.9-3.0 s against
# 2.4-2.7 s with one slice, and filter_series at 2M samples 31.9-32.1 ms
# against 22.8-25.2 ms (2-CPU x86_64).
SLICE_BLOCKS = 64

# filter_series runs its blocks only while eps * ||O_y||_inf**2 stays at or
# below this, O_y being the response of one block to a unit output history.
# On Butterworth designs of orders 2-8, notches and the catalog's
# multiorder example, the kernel's gap to the fold, relative to the largest
# output, stayed within 0.4-34 times that estimate.  The direct form of a
# high-order or low-corner design exceeds the limit, and the fold runs.
BLOCK_ROUNDING_LIMIT = 1e-11


class RateMismatchError(ValueError):
    """Input series is sampled at a different rate than the filter design."""


class DigitalFilter:
    """Mutable filter state over an immutable coefficient set.

    ``f.tick(x0)`` advances one sample period: it takes input x0 and
    returns output y0.  It is a function of this filter's own, so a loop
    may hold ``tick = f.tick``; reset() leaves it valid.

    Single-owner: one thread ticks a filter at a time.  Share the
    coefficients freely, not the filter; a copy, deep copy or unpickled
    filter has state of its own.
    """

    __slots__ = ("_coeffs", "tick", "_get", "_set", "__weakref__")

    def __init__(
        self,
        coeffs: DigitalFilterCoefficients,
        use_startup_heuristic: bool = True,
    ) -> None:
        n = coeffs.order
        self.__setstate__(
            (coeffs, bool(use_startup_heuristic), True, (0.0,) * (n + 1), (0.0,) * n)
        )

    def __getstate__(self) -> tuple:
        # The closures cannot be pickled; their state is, and they are rebuilt.
        return (self._coeffs, *self._get())

    def __setstate__(self, state: tuple) -> None:
        self._coeffs = coeffs = state[0]
        self.tick, self._get, self._set = _tick_maker(coeffs.order)(coeffs.a_hat, coeffs.b_hat)
        self._set(*state[1:])

    @property
    def coeffs(self) -> DigitalFilterCoefficients:
        """The design this filter runs; read-only, its order sizes the histories."""
        return self._coeffs

    @property
    def use_startup_heuristic(self) -> bool:
        """Whether the first tick fills both histories with its input."""
        return self._get()[0]

    @property
    def first_tick(self) -> bool:
        """True until the first tick after construction or reset()."""
        return self._get()[1]

    @property
    def x_hist(self) -> tuple[float, ...]:
        """Input history, most recent first."""
        return self._get()[2]

    @property
    def y_hist(self) -> tuple[float, ...]:
        """Output history, most recent first (empty for order 0)."""
        return self._get()[3]

    def reset(self) -> None:
        """Zero the histories and re-arm the startup heuristic."""
        n = self._coeffs.order
        self._set(self.use_startup_heuristic, True, (0.0,) * (n + 1), (0.0,) * n)


# Products per statement of a generated tick: one sum of some thousands of
# terms nests too deep for the compiler.
_TERMS_PER_STATEMENT = 64


@lru_cache(maxsize=64)
def _tick_maker(n: int) -> Callable:
    """make(a_hat, b_hat) -> (tick, get, set) for order n.

    tick(x0) is DigitalFilter.tick: it converts, checks and flushes x0,
    runs the startup heuristic on the first tick, and returns y0 = 0.0 +
    a0*x0 + ... + an*xn + b1*y1 + ... + bn*yn, summed left to right as a
    loop over the coefficients would, so every output equals that loop's
    bitwise (process and the tests pin this order, which sum() or a dot
    would change).  The state lives in cells of the closure: the startup
    flags, the input history x1..x(n+1) and the output history y1..yn, most
    recent first, shifted one cell assignment at a time.  A tick is thus
    one frame that builds no tuple.  get() returns (use_startup_heuristic,
    first_tick, x_hist, y_hist) and set() takes them back.

    It is generated because, unrolled, a sample costs no loop and no
    indexing.  The source depends on n alone: make binds the coefficients
    as closure cells, never as text, so one compile per order serves every
    design of that order.  No closure refers to the filter that holds it.
    """
    xs = [f"x{k}" for k in range(1, n + 2)]
    ys = [f"y{k}" for k in range(1, n + 1)]
    a = [f"a{k}" for k in range(n + 1)]
    b = [f"b{k}" for k in range(1, n + 1)]
    terms = [f"{c} * {v}" for c, v in zip(a + b, ["x0"] + xs[:n] + ys)]
    sums = [
        " + ".join(["0.0" if i == 0 else "acc"] + terms[i:i + _TERMS_PER_STATEMENT])
        for i in range(0, len(terms), _TERMS_PER_STATEMENT)
    ]
    cells = ["heuristic", "first"] + xs + ys
    # Oldest first, so each cell is read before it is overwritten.
    shift = [f"{new} = {old}" for new, old in zip(xs[::-1], xs[-2::-1] + ["x0"])]
    shift += [f"{new} = {old}" for new, old in zip(ys[::-1], ys[-2::-1] + ["acc"])]

    def tup(names: list[str]) -> str:
        return "(" + "".join(f"{v}, " for v in names) + ")"

    # The coefficients are cells of make and the state cells of state():
    # CPython's compile time grows with the square of one function's cell
    # count, and the two halves compile order 4096 in 1.6 s against 2.5 s
    # for one function (2-CPU x86_64).
    lines = [
        "def make(a, b):",
        f"    {tup(a)} = a",
        f"    {tup(b)} = b",
        "    def state():",
        f"        {' = '.join(cells)} = None",
        "        def tick(x0):",
        '            "Advance one sample period: take input x0, return output y0."',
        f"            nonlocal {', '.join(cells[1:])}",
        "            x0 = float(x0)",
        "            if not isfinite(x0):",
        "                raise ValueError(f'filter input must be finite, got {x0!r}')",
        "            if -MIN_NORMAL < x0 < MIN_NORMAL:",
        "                x0 = 0.0",
        "            if first:",
        "                first = False",
        "                if heuristic:",
        f"                    {' = '.join(xs + ys)} = x0",
        *(f"            acc = {s}" for s in sums),
        *(f"            {s}" for s in shift),
        "            return acc",
        "        def get():",
        f"            return heuristic, first, {tup(xs)}, {tup(ys)}",
        "        def set(h, f, x, y):",
        f"            nonlocal {', '.join(cells)}",
        "            heuristic, first = h, f",
        f"            {tup(xs)} = x",
        f"            {tup(ys)} = y",
        "        return tick, get, set",
        "    return state()",
    ]
    namespace = {"isfinite": math.isfinite, "MIN_NORMAL": _MIN_NORMAL}
    exec(compile("\n".join(lines), f"<tustin tick, order {n}>", "exec"), namespace)
    return namespace["make"]


def _check_rate(coeffs: DigitalFilterCoefficients, series: TimeSeries) -> None:
    if abs(series.sample_rate - coeffs.loop_rate_hz) > RATE_RTOL * coeffs.loop_rate_hz:
        raise RateMismatchError(
            f"series rate {series.sample_rate} Hz != design rate "
            f"{coeffs.loop_rate_hz} Hz"
        )


def process(
    coeffs: DigitalFilterCoefficients,
    series: TimeSeries,
    use_startup_heuristic: bool = True,
) -> TimeSeries:
    """Run a fresh filter over a whole series; a fold of tick().

    The series must be sampled at the design loop rate (within RATE_RTOL
    relative), otherwise RateMismatchError is raised.  An output that
    overflows to inf or nan stops the run and raises ValueError naming that
    sample and the design's largest z-pole radius.
    """
    _check_rate(coeffs, series)
    tick = DigitalFilter(coeffs, use_startup_heuristic).tick
    out = np.fromiter(
        takewhile(math.isfinite, map(tick, series.samples.tolist())), np.float64
    )
    if len(out) < len(series):
        raise ValueError(
            f"filter output is not finite from sample {len(out)} on; "
            f"largest z-pole radius {max(pole_radii(coeffs), default=0.0):.6g}"
        )
    return TimeSeries(series.sample_rate, out, series.t0)


def filter_series(
    coeffs: DigitalFilterCoefficients,
    series: TimeSeries,
    use_startup_heuristic: bool = True,
) -> TimeSeries:
    """Run a fresh filter over a whole series with the block kernel.

    Same arguments, errors and result as :func:`process`, to rounding.  The
    series goes to :func:`process` unchanged where the block form cannot be
    trusted: an order above BLOCK_LEN, a z-pole on or outside the unit
    circle (within UNIT_CIRCLE_MARGIN), a rounding estimate above
    BLOCK_ROUNDING_LIMIT, or an input or output that is not finite.  Every
    error is therefore the one :func:`process` raises.
    """
    realization = _block_realization(coeffs)
    # A non-finite input would also spoil the output; checking it here keeps
    # that independent of how the BLAS multiplies nan by zero.
    if realization is not None and np.all(np.isfinite(series.samples)):
        _check_rate(coeffs, series)
        # An overflow is not an error here: the fold reruns and names its sample.
        with np.errstate(over="ignore", invalid="ignore"):
            out = _run_blocks(*realization, series.samples, use_startup_heuristic)
        if np.all(np.isfinite(out)):
            return TimeSeries(series.sample_rate, out, series.t0)
    # The fold checks the rate itself.
    return process(coeffs, series, use_startup_heuristic)


@lru_cache(maxsize=16)
def _block_realization(
    coeffs: DigitalFilterCoefficients,
) -> tuple[np.ndarray, np.ndarray] | None:
    """(M, O) of one block, or None where filter_series must fold.

    A block's BLOCK_LEN outputs are M w + O y, w being its inputs preceded
    by the n inputs before it and y the n outputs before it, both oldest
    first: M is BLOCK_LEN x (n + BLOCK_LEN), O is BLOCK_LEN x n.  Both come
    from one run of the difference equation over n + BLOCK_LEN + n unit
    columns, one per entry of w and then one per entry of y.  At order 0, a
    gain, M is that gain times the identity and O has no columns.  Cached
    per design, as stepped_sine_bode runs one design many times.
    """
    n = coeffs.order
    if n > BLOCK_LEN or max(pole_radii(coeffs), default=0.0) >= 1.0 - UNIT_CIRCLE_MARGIN:
        return None
    # Rows are time, oldest first: n rows of history, then the block.
    width = n + BLOCK_LEN
    x = np.eye(width, width + n)
    y = np.eye(width, width + n, k=width)
    a = np.array(coeffs.a_hat[::-1])
    b = np.array(coeffs.b_hat[::-1])
    for t in range(BLOCK_LEN):
        y[n + t] = a @ x[t:t + n + 1] + b @ y[t:t + n]
    m, o = y[n:, :width], y[n:, width:]
    estimate = np.finfo(float).eps * np.abs(o).sum(axis=1).max() ** 2
    if not estimate <= BLOCK_ROUNDING_LIMIT:
        return None
    return m, o


def _run_blocks(
    m: np.ndarray, o: np.ndarray, samples: np.ndarray, use_startup_heuristic: bool
) -> np.ndarray:
    """The outputs of blocks of BLOCK_LEN samples, each M w + O y.

    Per slice of blocks, one product gives every block's M w, its window w
    read straight from the series.  Only the output history y crosses block
    edges, y_{i+1} = P y_i + t_i with P the last n rows of O and t_i the last
    n entries of block i's M w (none of either at n = 0, where O y adds
    zero): a linear recurrence, solved for all blocks at once by doubling
    in log2 of the block count steps (Hillis and Steele, "Data parallel
    algorithms", CACM 29(12), 1986).  A second product per slice then adds
    O y to every block.
    """
    n = o.shape[1]
    # n samples of input history, then the series padded to whole blocks,
    # flushed as tick() flushes.  Block i's window starts at buf[i * L]
    # (L = BLOCK_LEN) and its outputs overwrite buf[i * L:(i + 1) * L],
    # which no later window reads, so buf[k] ends as output k.
    buf = np.zeros(n + -(-len(samples) // BLOCK_LEN) * BLOCK_LEN)
    buf[n:n + len(samples)] = samples
    buf[:n] = samples[0] if use_startup_heuristic else 0.0
    buf[np.abs(buf) < _MIN_NORMAL] = 0.0
    windows = np.lib.stride_tricks.sliding_window_view(buf, n + BLOCK_LEN)[::BLOCK_LEN]
    out = buf[:len(windows) * BLOCK_LEN].reshape(-1, BLOCK_LEN)
    # tick() starts its output history y_0 equal to its input history.
    hist = np.empty((len(out), n))
    hist[0] = buf[:n]
    for j in range(0, len(out), SLICE_BLOCKS):
        # A contiguous copy: the overlapping windows would keep the product
        # off the BLAS.
        np.matmul(np.ascontiguousarray(windows[j:j + SLICE_BLOCKS]), m.T,
                  out=out[j:j + SLICE_BLOCKS])
    # hist[i] = t_{i-1}, then after step s the sum of P^k t_{i-1-k} over
    # k < 2s: once 2s covers every block, hist[i] = y_i.
    hist[1:] = out[:-1, BLOCK_LEN - n:]
    p, s = o[BLOCK_LEN - n:], 1
    while s < len(hist):
        hist[s:] += hist[:-s] @ p.T
        p, s = p @ p, 2 * s
    for j in range(0, len(out), SLICE_BLOCKS):
        out[j:j + SLICE_BLOCKS] += hist[j:j + SLICE_BLOCKS] @ o.T
    return buf[:len(samples)]
