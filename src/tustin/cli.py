"""Command-line front end.

Subcommands: design (continuous TF -> coefficient file), chirp (sweep CSV),
filter (run a coefficient file over a CSV), bode (response curves by four
methods) and compare (deviation between two curves).

Frequencies on the command line are Hz; internal corner parameters use
omega = 2*pi*f.  All outputs are deterministic: the same invocation writes
byte-identical files.  Every failure prints a single line to stderr of the
form ``error[CODE]: message`` and exits nonzero (PARSE and ARGS exit 2,
NONCAUSAL 3, DEGENERATE 4, RATE 5, anything else 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from . import catalog
from .analysis import (
    bode_continuous,
    bode_digital,
    chirp_bode,
    compare_responses,
    read_bode_csv,
    stepped_sine_bode,
    write_bode_csv,
)
from .csvio import read_csv, write_csv
from .discretize import (
    UNIT_CIRCLE_MARGIN,
    ContinuousTransferFunction,
    DegenerateLeadingCoefficientError,
    DigitalFilterCoefficients,
    NonCausalError,
    pole_radii,
    tustin_horner,
)
from .runtime import RateMismatchError, filter_series
# Not called here: perfbench's span tests expect the fold in this namespace.
from .runtime import process  # noqa: F401
from .signals import CHIRP_KINDS, MAX_SAMPLES, ChirpSpec, TimeSeries, generate_chirp
from .tfparse import TfSyntaxError, canonical_text, parse_coeff_lists, parse_expression

SERIES_CSV_HEADER = "time_s,value"
FILTER_CSV_HEADER = "time_s,input,output"

COEFF_FILE_KEYS = ("order", "a_hat", "b_hat", "loop_rate_hz", "provenance")

# Catalog families by CLI name: constructor and its parameters, in call
# order, as CLI flag names.  Parameters ending in _hz are converted to rad/s.
FAMILIES = {
    "lowpass1": (catalog.lowpass1, ("cutoff_hz",)),
    "butter2": (catalog.butterworth2, ("cutoff_hz",)),
    "notch": (catalog.notch, ("notch_hz", "q")),
    "pid": (catalog.pid, ("kp", "ki", "kd", "tau")),
    "leadlag": (catalog.leadlag, ("gain", "zero_hz", "pole_hz")),
    "multiorder": (catalog.multiorder_example, ()),
}

# The flags each bode method reads besides --method and --out, its source
# first: analytic-continuous takes H(s) from --tf, or --num with --den.
_GRID = ("fmin_hz", "fmax_hz", "points")
BODE_METHODS = {
    "analytic-continuous": ("tf", "num", "den", *_GRID),
    "analytic-digital": ("coeffs", *_GRID),
    "stepped": ("coeffs", *_GRID, "settle_cycles", "measure_cycles"),
    "chirp": ("coeffs", "kind", "fmin_hz", "fmax_hz", "duration", "amplitude",
              "window_cycles", "hop_cycles"),
}

# Names every design and bode variant reads: the subcommand, the variant
# itself (family or method), the design rate and the output path.
_ALWAYS_READ = ("command", "func", "family", "method", "rate", "out")

# CSV time columns carry 9 significant digits, so a re-derived sample rate
# can differ from the design rate by roundoff alone; rates this close are
# snapped to the design rate before the strict runtime check.
RATE_SNAP_RTOL = 1e-6


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # Options are matched exactly: with argparse's prefix matching, a flag
    # one subcommand lacks (bode --ki) would silently mean another (--kind).
    # Subparsers are built by this class too, so they inherit the default.
    def __init__(self, *args, allow_abbrev: bool = False, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message: str):  # argparse hook
        raise _UsageError(message)


def _fmt5(v: float) -> str:
    return f"{v:.4E}"


def _fmt_list5(values: Sequence[float]) -> str:
    return "[" + ", ".join(_fmt5(v) for v in values) + "]"


def _out_stream(path: str | None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def write_coeff_file(path: str, coeffs: DigitalFilterCoefficients, provenance: str) -> None:
    doc = {
        "order": coeffs.order,
        "a_hat": list(coeffs.a_hat),
        "b_hat": list(coeffs.b_hat),
        "loop_rate_hz": coeffs.loop_rate_hz,
        "provenance": provenance,
    }
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_coeff_file(path: str) -> tuple[DigitalFilterCoefficients, str]:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid JSON coefficient file: {exc}")
    if not isinstance(doc, dict) or set(doc) != set(COEFF_FILE_KEYS):
        raise ValueError(
            f"{path}: coefficient file must contain exactly the keys {COEFF_FILE_KEYS}"
        )
    for key, ok, kind in (
        ("order", _is(doc["order"], int), "an integer"),
        ("a_hat", _is_number_list(doc["a_hat"]), "a list of finite numbers"),
        ("b_hat", _is_number_list(doc["b_hat"]), "a list of finite numbers"),
        ("loop_rate_hz", _is_number(doc["loop_rate_hz"]), "a finite number"),
        ("provenance", _is(doc["provenance"], str), "a string"),
    ):
        if not ok:
            raise ValueError(f"{path}: {key!r} must be {kind}, got {doc[key]!r}")
    coeffs = DigitalFilterCoefficients(
        tuple(doc["a_hat"]), tuple(doc["b_hat"]), float(doc["loop_rate_hz"])
    )
    if coeffs.order != doc["order"]:
        raise ValueError(
            f"{path}: coefficient file order {doc['order']} does not match "
            f"{len(doc['b_hat'])} b_hat entries"
        )
    return coeffs, doc["provenance"]


def _is(value: object, types: type | tuple[type, ...]) -> bool:
    # JSON true/false load as bool, a subclass of int; never a number here
    return isinstance(value, types) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    # also rejects JSON integers too large for a float
    return _is(value, (int, float)) and abs(value) <= sys.float_info.max


def _is_number_list(value: object) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def first_irregular_sample(times: np.ndarray, rate: float) -> int | None:
    """Index of the first sample not 1/rate after its predecessor, or None.

    A step passes when |dt*rate - 1| <= RATE_SNAP_RTOL plus the rounding
    of two 9-significant-digit time stamps, 1e-8 * rate * max(|t|).
    """
    t = np.asarray(times, dtype=float)
    err = np.abs(np.diff(t) * rate - 1.0)
    tol = RATE_SNAP_RTOL + 1e-8 * rate * np.maximum(np.abs(t[:-1]), np.abs(t[1:]))
    bad = np.flatnonzero(~(err <= tol))
    return int(bad[0]) + 1 if bad.size else None


def _refuse_unread(args: argparse.Namespace, variant: str, reads: Sequence[str]) -> None:
    # design and bode parse with argument_default=SUPPRESS, so vars() holds
    # only the flags given, in command-line order.
    for name in vars(args):
        if name not in reads and name not in _ALWAYS_READ:
            raise _UsageError(f"{variant} does not take --{name.replace('_', '-')}")


def _tf_from_args(
    args: argparse.Namespace, reads: Sequence[str] = (),
    sources: str = "a catalog family, --tf, or --num with --den",
) -> tuple[ContinuousTransferFunction, str]:
    """H(s) from its source: the family, else the first of --tf and --num/--den.

    Any flag given that neither the source nor ``reads`` names is refused;
    ``sources`` lists the sources the command takes, for when none is given.
    """
    given = vars(args)
    family = given.get("family")
    first = next((name for name in given if name in ("tf", "num", "den")), None)
    if family is not None:
        variant, names = f"family {family!r}", FAMILIES[family][1]
    elif first == "tf":
        variant, names = "source --tf", ("tf",)
    elif first is not None:
        variant, names = "source --num/--den", ("num", "den")
    else:
        raise _UsageError(f"give exactly one transfer function source: {sources}")
    _refuse_unread(args, variant, (*names, *reads))
    for name in names:
        if name not in given:
            raise _UsageError(f"{variant} requires --{name.replace('_', '-')}")
    if family is not None:
        values = [given[name] for name in names]
        settings = ", ".join(f"{n}={v}" for n, v in zip(names, values))
        params = [
            2.0 * math.pi * v if n.endswith("_hz") else v for n, v in zip(names, values)
        ]
        return FAMILIES[family][0](*params), f"{family}({settings})"
    if first == "tf":
        return parse_expression(args.tf), args.tf
    tf = parse_coeff_lists(args.num, args.den)
    return tf, canonical_text(tf)


def cmd_design(args: argparse.Namespace) -> int:
    tf, provenance = _tf_from_args(args)
    coeffs = tustin_horner(tf, args.rate)
    print(f"a_hat = {_fmt_list5(coeffs.a_hat)}")
    print(f"b_hat = {_fmt_list5(coeffs.b_hat)}")
    radii = pole_radii(coeffs)
    print(f"z-pole radii: {_fmt_list5(radii)}")
    # pid's integrator maps onto z = 1 and np.roots returns it a rounding
    # error to either side, as filter_series allows for.
    if any(r > 1.0 + UNIT_CIRCLE_MARGIN for r in radii):
        print(
            "warning: a pole lies outside the unit circle; the difference "
            "equation is unstable at this rate"
        )
    if args.out is not None:
        write_coeff_file(args.out, coeffs, provenance)
    return 0


def _band(args: argparse.Namespace, rate: float | None) -> tuple[float, float]:
    # bode's default band is 0.1-100 Hz, or, below a design rate of 250 Hz,
    # the three decades up to 0.4 * rate: under the stepped limit,
    # analysis.STEPPED_SINE_MAX_FREQ_FRACTION.  analytic-continuous has no rate.
    top = 100.0 if rate is None else min(100.0, 0.4 * rate)
    return getattr(args, "fmin_hz", min(0.1, top / 1000.0)), getattr(args, "fmax_hz", top)


def _chirp_spec(args: argparse.Namespace, rate: float) -> ChirpSpec:
    # The defaults for chirp and bode alike; chirp requires the band and
    # --duration.  Below 250 Hz the default sweep lasts 120 s * 250 Hz / rate,
    # so that on the default band it is the 30,000 samples of a 250 Hz design.
    fmin, fmax = _band(args, rate)
    return ChirpSpec(
        kind=getattr(args, "kind", "exponential"),
        omega_min=2.0 * math.pi * fmin,
        omega_max=2.0 * math.pi * fmax,
        duration_s=args.duration if "duration" in args else 120.0 * max(1.0, 250.0 / rate),
        amplitude=getattr(args, "amplitude", 1.0),
        sample_rate=rate,
    )


def cmd_chirp(args: argparse.Namespace) -> int:
    series = generate_chirp(_chirp_spec(args, args.rate))
    with _out_stream(args.out) as fh:
        write_csv(fh, SERIES_CSV_HEADER, [series.times, series.samples])
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    coeffs, _ = read_coeff_file(args.coeffs)
    with open(args.input) as fh:
        table = read_csv(fh, SERIES_CSV_HEADER)
    if len(table) < 2:
        raise ValueError(f"{args.input}: need at least two samples")
    times, values = table[:, 0], table[:, 1]
    # Before the rate: a nan or inf time would make it nan.
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise ValueError(f"{args.input}: sample {bad[0]} at t = {times[bad[0]]} s is not finite")
    span = times[-1] - times[0]
    if span <= 0.0:
        raise ValueError(f"{args.input}: time column must increase")
    rate = (len(times) - 1) / span
    if abs(rate - coeffs.loop_rate_hz) <= RATE_SNAP_RTOL * coeffs.loop_rate_hz:
        rate = coeffs.loop_rate_hz
    i = first_irregular_sample(times, rate)
    if i is not None:
        raise ValueError(
            f"{args.input}: sample {i} at t = {times[i]:.9g} s is not "
            f"1/{rate:.9g} s after the previous one"
        )
    series = TimeSeries(rate, values, t0=times[0])
    out = filter_series(coeffs, series, use_startup_heuristic=not args.no_heuristic)
    with _out_stream(args.out) as fh:
        write_csv(fh, FILTER_CSV_HEADER, [series.times, series.samples, out.samples])
    return 0


def _frequency_grid(args: argparse.Namespace, rate: float | None) -> np.ndarray:
    fmin, fmax = _band(args, rate)
    if not (0.0 < fmin < fmax):
        raise _UsageError("need 0 < --fmin-hz < --fmax-hz")
    points = getattr(args, "points", 200)
    if points < 2:
        raise _UsageError("--points must be at least 2")
    if points > MAX_SAMPLES:
        raise _UsageError(f"--points must be at most {MAX_SAMPLES}")
    return np.logspace(math.log10(fmin), math.log10(fmax), points)


def cmd_bode(args: argparse.Namespace) -> int:
    method = args.method
    _refuse_unread(args, f"method {method!r}", BODE_METHODS[method])
    # The --*-cycles flags tune the measured methods.  They go to analysis
    # only when given, so its defaults hold.
    tuning = {name: v for name, v in vars(args).items() if name.endswith("_cycles")}
    if method == "analytic-continuous":
        tf, _ = _tf_from_args(args, _GRID, "--tf or --num with --den")
        points = bode_continuous(tf, _frequency_grid(args, None))
    elif not hasattr(args, "coeffs"):
        raise _UsageError(f"method {method!r} requires --coeffs")
    else:
        coeffs, _ = read_coeff_file(args.coeffs)
        rate = coeffs.loop_rate_hz
        if method == "analytic-digital":
            points = bode_digital(coeffs, _frequency_grid(args, rate))
        elif method == "stepped":
            points = stepped_sine_bode(coeffs, _frequency_grid(args, rate), **tuning)
        else:
            points = chirp_bode(coeffs, _chirp_spec(args, rate), **tuning)
    with _out_stream(args.out) as fh:
        write_bode_csv(points, fh)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # A nan limit would pass every curve: no deviation compares above it.
    for flag, limit in (("--max-db", args.max_db), ("--max-deg", args.max_deg)):
        if limit is not None and not limit >= 0.0:
            raise _UsageError(f"{flag} must be a number >= 0, got {limit}")
    with open(args.curve_a) as fh:
        a = read_bode_csv(fh)
    with open(args.curve_b) as fh:
        b = read_bode_csv(fh)
    result = compare_responses(a, b)
    print(f"points_compared = {result.points_compared}")
    print(f"max_abs_magnitude_db = {result.max_abs_magnitude_db:.9g}")
    print(f"mean_abs_magnitude_db = {result.mean_abs_magnitude_db:.9g}")
    print(f"max_abs_phase_deg = {result.max_abs_phase_deg:.9g}")
    print(f"mean_abs_phase_deg = {result.mean_abs_phase_deg:.9g}")
    failed = False
    if args.max_db is not None and result.max_abs_magnitude_db > args.max_db:
        print(f"magnitude deviation exceeds {args.max_db:.9g} dB")
        failed = True
    if args.max_deg is not None and result.max_abs_phase_deg > args.max_deg:
        print(f"phase deviation exceeds {args.max_deg:.9g} deg")
        failed = True
    return 1 if failed else 0


def _add_tf_source_arguments(p: argparse.ArgumentParser, with_family: bool) -> None:
    p.add_argument("--tf", help="transfer function expression, e.g. '1/(10s+1)'")
    p.add_argument("--num", help="descending numerator coefficients, e.g. '1'")
    p.add_argument("--den", help="descending denominator coefficients, e.g. '10,1'")
    if not with_family:
        return
    p.add_argument(
        "family",
        nargs="?",
        default=None,
        choices=list(FAMILIES),
        help="catalog filter family (omit when using --tf or --num/--den)",
    )
    p.add_argument("--cutoff-hz", type=float, help="lowpass1/butter2 corner, Hz")
    p.add_argument("--notch-hz", type=float, help="notch center, Hz")
    p.add_argument("--q", type=float, help="notch quality factor")
    p.add_argument("--kp", type=float, help="pid proportional gain")
    p.add_argument("--ki", type=float, help="pid integral gain")
    p.add_argument("--kd", type=float, help="pid derivative gain")
    p.add_argument("--tau", type=float, help="pid derivative roll-off, rad/s")
    p.add_argument("--gain", type=float, help="leadlag gain")
    p.add_argument("--zero-hz", type=float, help="leadlag zero, Hz")
    p.add_argument("--pole-hz", type=float, help="leadlag pole, Hz")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tustin",
        description="design and verify digital IIR filters from continuous "
        "transfer functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # design, chirp and bode leave each flag not given out of the namespace:
    # _refuse_unread then sees only the flags given, and a default is stated
    # once, where its flag is read.  --out and the family are set either way.
    omit = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("design", **omit,
                       help="convert H(s) to difference-equation coefficients")
    _add_tf_source_arguments(p, with_family=True)
    p.add_argument("--rate", type=float, required=True, help="loop rate f_l, Hz")
    p.add_argument("--out", default=None, help="write a JSON coefficient file here")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("chirp", help="generate a frequency sweep CSV", **omit)
    p.add_argument("--kind", choices=CHIRP_KINDS)
    p.add_argument("--fmin-hz", type=float, required=True)
    p.add_argument("--fmax-hz", type=float, required=True)
    p.add_argument("--duration", type=float, required=True, help="sweep length, s")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--rate", type=float, required=True, help="sample rate, Hz")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_chirp)

    p = sub.add_parser("filter", help="run a designed filter over a CSV signal")
    p.add_argument("--coeffs", required=True, help="JSON coefficient file")
    p.add_argument("--input", required=True, help="input CSV (time_s,value)")
    p.add_argument("--no-heuristic", action="store_true",
                   help="start from zero history instead of the first input")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("bode", help="produce a frequency-response CSV", **omit)
    p.add_argument("--method", required=True, choices=list(BODE_METHODS))
    _add_tf_source_arguments(p, with_family=False)
    p.add_argument("--coeffs", help="JSON coefficient file (digital methods)")
    p.add_argument("--fmin-hz", type=float)
    p.add_argument("--fmax-hz", type=float)
    p.add_argument("--points", type=int,
                   help="log-spaced grid size (analytic/stepped methods)")
    p.add_argument("--settle-cycles", type=int,
                   help="input cycles settled per stepped probe (>= 5; default: "
                        "derived from the design's impulse response)")
    p.add_argument("--measure-cycles", type=int)
    p.add_argument("--kind", choices=CHIRP_KINDS, help="sweep law (chirp method)")
    p.add_argument("--duration", type=float, help="sweep length, s (chirp method)")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--window-cycles", type=float)
    p.add_argument("--hop-cycles", type=float)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("compare", help="deviation between two response CSVs")
    p.add_argument("curve_a")
    p.add_argument("curve_b")
    p.add_argument("--max-db", type=float, help="fail if magnitude deviation exceeds")
    p.add_argument("--max-deg", type=float, help="fail if phase deviation exceeds")
    p.set_defaults(func=cmd_compare)

    return parser


def _fail(code: str, exit_code: int, message: str) -> int:
    print(f"error[{code}]: {message}", file=sys.stderr)
    return exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse exits 0 once --help is printed
        return e.code
    except _UsageError as e:
        return _fail("ARGS", 2, str(e))
    except TfSyntaxError as e:
        return _fail("PARSE", 2, str(e))
    except NonCausalError as e:
        return _fail("NONCAUSAL", 3, str(e))
    except DegenerateLeadingCoefficientError as e:
        return _fail("DEGENERATE", 4, str(e))
    except RateMismatchError as e:
        return _fail("RATE", 5, str(e))
    except (ValueError, ZeroDivisionError) as e:
        return _fail("INVALID", 1, str(e))
    except OSError as e:
        return _fail("IO", 1, str(e))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
