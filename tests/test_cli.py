"""End-to-end CLI tests driven through main() with real files."""

import io
import json
import math

import numpy as np
import pytest

from tustin import catalog
from tustin.analysis import stepped_sine_bode, write_bode_csv
from tustin.cli import first_irregular_sample, main, read_coeff_file, write_coeff_file
from tustin.discretize import DigitalFilterCoefficients, tustin_horner


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- design


def test_design_butter2_prints_reference_listing(capsys):
    code, out, err = run(
        capsys, "design", "butter2", "--cutoff-hz", "10", "--rate", "1000"
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "a_hat = [9.4408E-04, 1.8882E-03, 9.4408E-04]"
    assert lines[1] == "b_hat = [1.9112E+00, -9.1500E-01]"
    assert lines[2].startswith("z-pole radii: ")


def test_design_from_coefficient_lists(capsys):
    code, out, _ = run(
        capsys, "design", "--num", "1", "--den", "10,1", "--rate", "0.1"
    )
    assert code == 0
    assert out.splitlines()[0] == "a_hat = [3.3333E-01, 3.3333E-01]"
    assert out.splitlines()[1] == "b_hat = [3.3333E-01]"


def test_design_from_expression(capsys):
    code, out, _ = run(
        capsys, "design", "--tf", "1/(10s+1)", "--rate", "0.1"
    )
    assert code == 0
    assert out.splitlines()[0] == "a_hat = [3.3333E-01, 3.3333E-01]"


def test_design_writes_coefficient_file(capsys, tmp_path):
    path = tmp_path / "butter.json"
    code, _, _ = run(
        capsys, "design", "butter2", "--cutoff-hz", "10", "--rate", "1000",
        "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"order", "a_hat", "b_hat", "loop_rate_hz", "provenance"}
    assert doc["order"] == 2
    assert doc["loop_rate_hz"] == 1000.0
    assert doc["a_hat"] == pytest.approx([9.4408e-4, 1.8882e-3, 9.4408e-4], rel=5e-5)
    assert doc["b_hat"] == pytest.approx([1.9112, -0.915], rel=5e-5)
    assert doc["provenance"] == "butter2(cutoff_hz=10.0)"
    coeffs, provenance = read_coeff_file(str(path))
    assert coeffs.order == 2
    assert provenance == doc["provenance"]


def test_design_warns_on_unstable_pole(capsys):
    code, out, _ = run(
        capsys, "design", "--num", "1", "--den", "1,-1", "--rate", "10"
    )
    assert code == 0
    assert "unstable" in out


def test_design_requires_exactly_one_source(capsys):
    code, _, err = run(
        capsys, "design", "butter2", "--cutoff-hz", "10",
        "--tf", "1/(s+1)", "--rate", "100",
    )
    assert code == 2
    assert err.startswith("error[ARGS]: ")
    code, _, err = run(capsys, "design", "--rate", "100")
    assert code == 2


def test_design_family_missing_parameter(capsys):
    code, _, err = run(capsys, "design", "notch", "--notch-hz", "60", "--rate", "1000")
    assert code == 2
    assert "--q" in err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "design", "--tf", "1/(10q+1)", "--rate", "1")
    assert code == 2
    assert err.startswith("error[PARSE]: ")
    assert "byte 5" in err


def test_exit_code_noncausal(capsys):
    code, _, err = run(capsys, "design", "--num", "1,0", "--den", "1", "--rate", "1000")
    assert code == 3
    assert err.startswith("error[NONCAUSAL]: ")


def test_exit_code_degenerate(capsys):
    # denominator root exactly at s = 2*f_l
    code, _, err = run(
        capsys, "design", "--num", "1", "--den", "1,-1,-2", "--rate", "1"
    )
    assert code == 4
    assert err.startswith("error[DEGENERATE]: ")


def test_exit_code_bad_rate(capsys):
    code, _, err = run(capsys, "design", "--tf", "1/(s+1)", "--rate", "0")
    assert code == 1
    assert err.startswith("error[INVALID]: ")


# ------------------------------------------------------------------ chirp


def test_chirp_csv_shape_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "chirp", "--fmin-hz", "1", "--fmax-hz", "50", "--duration", "2",
        "--rate", "500", "--amplitude", "2",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "time_s,value"
    assert len(lines) == 1001
    assert lines[1] == "0,0"


def test_chirp_to_stdout(capsys):
    code, out, _ = run(
        capsys, "chirp", "--kind", "linear", "--fmin-hz", "1", "--fmax-hz", "10",
        "--duration", "1", "--rate", "100",
    )
    assert code == 0
    assert out.splitlines()[0] == "time_s,value"
    assert len(out.splitlines()) == 101


def test_chirp_rejects_reversed_band(capsys):
    code, _, err = run(
        capsys, "chirp", "--fmin-hz", "50", "--fmax-hz", "1",
        "--duration", "1", "--rate", "100",
    )
    assert code == 1
    assert err.startswith("error[INVALID]: ")


# ----------------------------------------------------------------- filter


def write_identity(path, rate=1000.0):
    write_coeff_file(str(path), DigitalFilterCoefficients((1.0,), (), rate), "identity")


def test_filter_identity_round_trip(capsys, tmp_path):
    signal = tmp_path / "sig.csv"
    coeffs = tmp_path / "id.json"
    out = tmp_path / "out.csv"
    assert main([
        "chirp", "--fmin-hz", "1", "--fmax-hz", "50", "--duration", "1",
        "--rate", "1000", "--out", str(signal),
    ]) == 0
    write_identity(coeffs)
    assert main([
        "filter", "--coeffs", str(coeffs), "--input", str(signal),
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "time_s,input,output"
    assert len(lines) == 1001
    for line in lines[1:]:
        _, vin, vout = line.split(",")
        assert vin == vout  # identity passes samples through untouched


def make_constant_csv(path, value=5.0, n=100, rate=1000.0):
    rows = ["time_s,value"]
    rows += [f"{i / rate:.9g},{value:.9g}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")


def test_filter_heuristic_contrast(capsys, tmp_path):
    signal = tmp_path / "const.csv"
    coeffs = tmp_path / "butter.json"
    make_constant_csv(signal)
    assert main([
        "design", "butter2", "--cutoff-hz", "10", "--rate", "1000",
        "--out", str(coeffs),
    ]) == 0
    smooth = tmp_path / "smooth.csv"
    rough = tmp_path / "rough.csv"
    assert main([
        "filter", "--coeffs", str(coeffs), "--input", str(signal),
        "--out", str(smooth),
    ]) == 0
    assert main([
        "filter", "--coeffs", str(coeffs), "--input", str(signal),
        "--no-heuristic", "--out", str(rough),
    ]) == 0
    capsys.readouterr()
    first_smooth = float(smooth.read_text().splitlines()[1].split(",")[2])
    first_rough = float(rough.read_text().splitlines()[1].split(",")[2])
    assert first_smooth == pytest.approx(5.0, abs=1e-9)
    assert abs(first_rough - 5.0) > 0.5


def test_filter_rate_mismatch_exits_5(capsys, tmp_path):
    signal = tmp_path / "sig.csv"
    coeffs = tmp_path / "id.json"
    make_constant_csv(signal, rate=1000.0)
    write_identity(coeffs, rate=500.0)
    code, _, err = run(
        capsys, "filter", "--coeffs", str(coeffs), "--input", str(signal)
    )
    assert code == 5
    assert err.startswith("error[RATE]: ")


def test_filter_snaps_rate_within_tolerance(capsys, tmp_path):
    # 9-digit CSV time stamps infer 999.9999xx Hz; that snaps to 1000
    signal = tmp_path / "sig.csv"
    coeffs = tmp_path / "id.json"
    rows = ["time_s,value"]
    rows += [f"{i / 1000.0:.9g},{1.0:.9g}" for i in range(1000)]
    signal.write_text("\n".join(rows) + "\n")
    write_identity(coeffs)
    code, _, _ = run(
        capsys, "filter", "--coeffs", str(coeffs), "--input", str(signal),
        "--out", str(tmp_path / "out.csv"),
    )
    assert code == 0


def test_filter_rejects_malformed_inputs(capsys, tmp_path):
    coeffs = tmp_path / "id.json"
    write_identity(coeffs)
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n0,1\n")
    code, _, err = run(capsys, "filter", "--coeffs", str(coeffs), "--input", str(bad))
    assert code == 1
    assert err.startswith("error[INVALID]: ")
    missing = tmp_path / "nope.csv"
    code, _, err = run(
        capsys, "filter", "--coeffs", str(coeffs), "--input", str(missing)
    )
    assert code == 1
    assert err.startswith("error[IO]: ")


def test_broken_coeff_files_rejected(capsys, tmp_path):
    signal = tmp_path / "sig.csv"
    make_constant_csv(signal)
    not_json = tmp_path / "broken.json"
    not_json.write_text("{]")
    code, _, err = run(
        capsys, "filter", "--coeffs", str(not_json), "--input", str(signal)
    )
    assert code == 1
    assert err.startswith("error[INVALID]: ")
    wrong_keys = tmp_path / "keys.json"
    wrong_keys.write_text(json.dumps({"a_hat": [1.0], "b_hat": []}))
    code, _, err = run(
        capsys, "filter", "--coeffs", str(wrong_keys), "--input", str(signal)
    )
    assert code == 1
    wrong_order = tmp_path / "order.json"
    wrong_order.write_text(json.dumps({
        "order": 3, "a_hat": [1.0], "b_hat": [],
        "loop_rate_hz": 1000.0, "provenance": "x",
    }))
    code, _, err = run(
        capsys, "filter", "--coeffs", str(wrong_order), "--input", str(signal)
    )
    assert code == 1


BUTTER2_FILE = {
    "order": 2,
    "a_hat": [9.4e-04, 1.9e-03, 9.4e-04],
    "b_hat": [1.9, -0.915],
    "loop_rate_hz": 1000.0,
    "provenance": "butter2(cutoff_hz=10.0)",
}


@pytest.mark.parametrize("key, value", [
    ("order", None),
    ("loop_rate_hz", None),
    ("a_hat", 5),
    ("a_hat", [None, 1.0, 2.0]),
    ("order", 2.7),
    ("loop_rate_hz", "1000"),
    ("loop_rate_hz", True),
    ("loop_rate_hz", 10**400),
])
def test_coeff_file_value_types_checked(capsys, tmp_path, key, value):
    signal = tmp_path / "sig.csv"
    make_constant_csv(signal)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BUTTER2_FILE, key: value}))
    for argv in (
        ["filter", "--coeffs", str(path), "--input", str(signal)],
        ["bode", "--method", "analytic-digital", "--coeffs", str(path)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error[INVALID]: {path}: {key!r} must be ")


def test_filter_names_where_an_unstable_design_diverged(capsys, tmp_path):
    signal = tmp_path / "sig.csv"
    make_constant_csv(signal, value=1e10, n=5000)
    path = tmp_path / "c.json"
    write_coeff_file(
        str(path), DigitalFilterCoefficients((1.0, 0.0), (1.5,), 1000.0), "unstable"
    )
    code, _, err = run(capsys, "filter", "--coeffs", str(path), "--input", str(signal))
    assert code == 1
    assert err == (
        "error[INVALID]: filter output is not finite from sample 1691 on; "
        "largest z-pole radius 1.5\n"
    )


# ------------------------------------------------------------------- bode


@pytest.fixture()
def butter_file(tmp_path):
    path = tmp_path / "butter.json"
    assert main([
        "design", "butter2", "--cutoff-hz", "10", "--rate", "1000",
        "--out", str(path),
    ]) == 0
    return path


def read_curve(path):
    rows = []
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,magnitude_db,phase_deg"
    for line in lines[1:]:
        f, m, p = (float(v) for v in line.split(","))
        rows.append((f, m, p))
    return rows


def test_bode_analytic_continuous(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "bode", "--method", "analytic-continuous",
        "--tf", "1/(0.0159155s+1)",
        "--fmin-hz", "1", "--fmax-hz", "100", "--points", "31",
        "--out", str(out),
    )
    assert code == 0
    rows = read_curve(out)
    assert len(rows) == 31
    assert rows[0][0] == pytest.approx(1.0)
    assert rows[-1][0] == pytest.approx(100.0)


def test_bode_analytic_digital_and_stepped_agree(capsys, tmp_path, butter_file):
    dig = tmp_path / "dig.csv"
    stp = tmp_path / "stp.csv"
    common = ["--coeffs", str(butter_file), "--fmin-hz", "1",
              "--fmax-hz", "50", "--points", "11"]
    assert main(["bode", "--method", "analytic-digital", *common,
                 "--out", str(dig)]) == 0
    assert main(["bode", "--method", "stepped", *common, "--out", str(stp)]) == 0
    capsys.readouterr()
    for (f1, m1, p1), (f2, m2, p2) in zip(read_curve(dig), read_curve(stp)):
        assert f1 == pytest.approx(f2)
        assert m1 == pytest.approx(m2, abs=0.01)
        assert p1 == pytest.approx(p2, abs=0.1)


def test_bode_stepped_settle_cycles_keeps_its_meaning(capsys, tmp_path, butter_file):
    common = ["bode", "--method", "stepped", "--coeffs", str(butter_file),
              "--fmin-hz", "1", "--fmax-hz", "50", "--points", "5"]
    code, _, err = run(capsys, *common, "--settle-cycles", "4")
    assert code == 1
    assert err == "error[INVALID]: settle_cycles must be at least 5\n"
    out = tmp_path / "s20.csv"
    assert run(capsys, *common, "--settle-cycles", "20", "--out", str(out))[0] == 0
    coeffs, _ = read_coeff_file(butter_file)
    want = io.StringIO()
    write_bode_csv(
        stepped_sine_bode(coeffs, np.logspace(0.0, math.log10(50.0), 5), settle_cycles=20),
        want,
    )
    assert out.read_text() == want.getvalue()


def test_bode_chirp_runs(capsys, tmp_path, butter_file):
    out = tmp_path / "chirp_curve.csv"
    code, _, _ = run(
        capsys, "bode", "--method", "chirp", "--coeffs", str(butter_file),
        "--fmin-hz", "0.5", "--fmax-hz", "80", "--duration", "30",
        "--out", str(out),
    )
    assert code == 0
    rows = read_curve(out)
    assert len(rows) > 30
    freqs = [r[0] for r in rows]
    assert freqs == sorted(freqs)


def test_bode_chirp_rejects_a_subnormal_amplitude(capsys, butter_file):
    code, _, err = run(
        capsys, "bode", "--method", "chirp", "--coeffs", str(butter_file),
        "--duration", "30", "--amplitude", "1e-310",
    )
    assert code == 1
    assert err.startswith("error[INVALID]: chirp amplitude must be at least ")
    assert err.endswith("got 1e-310\n")


def test_bode_digital_methods_need_coeffs(capsys):
    code, _, err = run(
        capsys, "bode", "--method", "stepped", "--fmin-hz", "1", "--fmax-hz", "10"
    )
    assert code == 2
    assert err.startswith("error[ARGS]: ")


@pytest.mark.parametrize("flag", [
    "--cutoff-hz", "--notch-hz", "--q", "--kp", "--ki", "--kd", "--tau",
    "--gain", "--zero-hz", "--pole-hz",
])
def test_bode_rejects_catalog_family_flags(capsys, flag):
    # bode takes no family, so a family parameter would be dropped unread
    code, _, err = run(
        capsys, "bode", "--method", "analytic-continuous", "--tf", "1/(s+1)",
        flag, "3",
    )
    assert code == 2
    assert err.startswith("error[ARGS]: ")


@pytest.mark.parametrize("argv", [
    # --ki is a prefix of bode's --kind, not a bode flag
    ["bode", "--method", "chirp", "--coeffs", "{coeffs}", "--duration", "5",
     "--fmin-hz", "1", "--fmax-hz", "100", "--ki", "linear"],
    ["filter", "--coe", "{coeffs}", "--inp", "{signal}"],
    ["design", "butter2", "--cutoff", "10", "--rate", "1000"],
], ids=["bode-ki", "filter-coe-inp", "design-cutoff"])
def test_option_prefixes_are_rejected(capsys, tmp_path, butter_file, argv):
    signal = tmp_path / "signal.csv"
    signal.write_text("time_s,value\n0,1\n0.001,1\n")
    argv = [a.format(coeffs=butter_file, signal=signal) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error[ARGS]: ")


def test_bode_bad_grid(capsys, butter_file):
    code, _, err = run(
        capsys, "bode", "--method", "analytic-digital", "--coeffs",
        str(butter_file), "--fmin-hz", "10", "--fmax-hz", "1",
    )
    assert code == 2


# ---------------------------------------------------------------- compare


def test_compare_curve_with_itself(capsys, tmp_path, butter_file):
    curve = tmp_path / "curve.csv"
    assert main([
        "bode", "--method", "analytic-digital", "--coeffs", str(butter_file),
        "--out", str(curve),
    ]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "compare", str(curve), str(curve))
    assert code == 0
    assert "max_abs_magnitude_db = 0" in out
    assert "max_abs_phase_deg = 0" in out


def test_compare_threshold_failure(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("freq_hz,magnitude_db,phase_deg\n1,0,0\n10,0,0\n")
    b.write_text("freq_hz,magnitude_db,phase_deg\n1,3,0\n10,3,0\n")
    code, out, _ = run(capsys, "compare", str(a), str(b), "--max-db", "1")
    assert code == 1
    assert "exceeds" in out
    code, _, _ = run(capsys, "compare", str(a), str(b), "--max-db", "5")
    assert code == 0


def test_compare_disjoint_curves(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("freq_hz,magnitude_db,phase_deg\n1,0,0\n2,0,0\n")
    b.write_text("freq_hz,magnitude_db,phase_deg\n50,0,0\n90,0,0\n")
    code, _, err = run(capsys, "compare", str(a), str(b))
    assert code == 1
    assert err.startswith("error[INVALID]: ")


def _curves(tmp_path, rows_b):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("freq_hz,magnitude_db,phase_deg\n1,0,0\n10,0,0\n")
    b.write_text("freq_hz,magnitude_db,phase_deg\n" + rows_b)
    return str(a), str(b)


@pytest.mark.parametrize("rows_b", ["1,nan,0\n10,3,0\n", "1,3,0\n10,3,nan\n"],
                         ids=["magnitude", "phase"])
def test_compare_rejects_a_nan_field(capsys, tmp_path, rows_b):
    # a nan deviation would pass both gates
    a, b = _curves(tmp_path, rows_b)
    code, out, err = run(capsys, "compare", a, b, "--max-db", "0.5", "--max-deg", "5")
    assert code == 1
    assert out == ""
    assert err == (
        "error[INVALID]: second curve: magnitudes must be below +inf, phases finite\n"
    )


def test_compare_rejects_a_nan_frequency(capsys, tmp_path):
    a, b = _curves(tmp_path, "nan,0,0\n10,3,0\n")
    code, _, err = run(capsys, "compare", b, a)
    assert code == 1
    assert err == (
        "error[INVALID]: first curve: frequencies must be finite and positive\n"
    )


@pytest.mark.parametrize("flag, limit", [
    ("--max-db", "nan"), ("--max-deg", "nan"), ("--max-db", "-1"),
])
def test_compare_rejects_a_limit_no_deviation_can_exceed(capsys, tmp_path, flag, limit):
    a, b = _curves(tmp_path, "1,3,0\n10,3,0\n")
    code, out, err = run(capsys, "compare", a, b, flag, limit)
    assert code == 2
    assert out == ""
    assert err == f"error[ARGS]: {flag} must be a number >= 0, got {float(limit)}\n"


# ------------------------------------------------------------ full pipeline


def test_pipeline_chirp_filter_bode_compare(capsys, tmp_path, butter_file):
    # sweep -> filter reproduces the input/output data; the measured curve
    # agrees with the analytic digital curve well inside 0.5 dB / 5 deg
    sweep = tmp_path / "sweep.csv"
    filtered = tmp_path / "filtered.csv"
    measured = tmp_path / "measured.csv"
    truth = tmp_path / "truth.csv"
    assert main([
        "chirp", "--fmin-hz", "0.5", "--fmax-hz", "80", "--duration", "10",
        "--rate", "1000", "--out", str(sweep),
    ]) == 0
    assert main([
        "filter", "--coeffs", str(butter_file), "--input", str(sweep),
        "--out", str(filtered),
    ]) == 0
    assert len(filtered.read_text().splitlines()) == 10001
    assert main([
        "bode", "--method", "chirp", "--coeffs", str(butter_file),
        "--fmin-hz", "0.5", "--fmax-hz", "80", "--duration", "60",
        "--out", str(measured),
    ]) == 0
    assert main([
        "bode", "--method", "analytic-digital", "--coeffs", str(butter_file),
        "--fmin-hz", "0.8", "--fmax-hz", "75", "--points", "400",
        "--out", str(truth),
    ]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "compare", str(measured), str(truth),
        "--max-db", "0.5", "--max-deg", "5",
    )
    assert code == 0, out


# ------------------------------------------------------ catalog families


@pytest.mark.parametrize("argv, provenance, tf", [
    (["lowpass1", "--cutoff-hz", "10"], "lowpass1(cutoff_hz=10.0)",
     catalog.lowpass1(2.0 * math.pi * 10.0)),
    (["butter2", "--cutoff-hz", "10"], "butter2(cutoff_hz=10.0)",
     catalog.butterworth2(2.0 * math.pi * 10.0)),
    (["notch", "--notch-hz", "60", "--q", "5"], "notch(notch_hz=60.0, q=5.0)",
     catalog.notch(2.0 * math.pi * 60.0, 5.0)),
    (["pid", "--kp", "2", "--ki", "0.5", "--kd", "0.1", "--tau", "100"],
     "pid(kp=2.0, ki=0.5, kd=0.1, tau=100.0)", catalog.pid(2.0, 0.5, 0.1, 100.0)),
    (["leadlag", "--gain", "10", "--zero-hz", "1", "--pole-hz", "10"],
     "leadlag(gain=10.0, zero_hz=1.0, pole_hz=10.0)",
     catalog.leadlag(10.0, 2.0 * math.pi * 1.0, 2.0 * math.pi * 10.0)),
    (["multiorder"], "multiorder()", catalog.multiorder_example()),
])
def test_design_family_table(capsys, tmp_path, argv, provenance, tf):
    path = tmp_path / "c.json"
    assert main(["design", *argv, "--rate", "1000", "--out", str(path)]) == 0
    capsys.readouterr()
    coeffs, got = read_coeff_file(str(path))
    assert got == provenance
    assert coeffs == tustin_horner(tf, 1000.0)


def test_design_family_names_the_first_missing_flag(capsys):
    code, _, err = run(capsys, "design", "pid", "--kp", "1", "--rate", "1000")
    assert code == 2
    assert err == "error[ARGS]: family 'pid' requires --ki\n"


# ----------------------------------------------------------- time column


def write_times_csv(path, times):
    rows = ["time_s,value"] + [f"{t:.9g},1" for t in times]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("kind, bad_time", [("duplicated", 0.049), ("backwards", 0.048)])
def test_filter_rejects_an_irregular_time_step(capsys, tmp_path, kind, bad_time):
    # endpoints unchanged, so the rate inferred from them is still 1 kHz
    times = [i / 1000.0 for i in range(100)]
    times[50] = bad_time
    signal = tmp_path / "sig.csv"
    coeffs = tmp_path / "id.json"
    write_times_csv(signal, times)
    write_identity(coeffs)
    code, _, err = run(
        capsys, "filter", "--coeffs", str(coeffs), "--input", str(signal)
    )
    assert code == 1
    assert err.startswith("error[INVALID]: ")
    assert f"sample 50 at t = {bad_time:.9g} s" in err


def test_first_irregular_sample_finds_the_first_bad_step():
    times = np.arange(100) / 1000.0
    assert first_irregular_sample(times, 1000.0) is None
    times[50] = times[49]
    times[70] = times[68]
    assert first_irregular_sample(times, 1000.0) == 50


def test_first_irregular_sample_allows_9_digit_rounding_late_in_a_sweep():
    # at t ~ 977 s, %.9g keeps 6 decimals: steps of 1/1024 s vary by ~1e-3
    times = np.array([float(f"{i / 1024.0:.9g}") for i in range(1_000_000, 1_002_001)])
    assert first_irregular_sample(times, 1024.0) is None
