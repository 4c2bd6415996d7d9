"""tustin benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload control_loop --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the workload's own named metrics, sample counts and
the environment stamp.  Spans of a traced run go to ``.bench_out/``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, direction of a gain) as listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ref", "ref", "lower"),
    ("items_per_ref", "1/ref", "higher"),
)

CLI_COMMANDS = ("design", "chirp", "filter", "bode", "compare")
PER_LAYER = (
    ("runtime.ticks", "count", "higher"),
    ("runtime.tick_busy_s", "s", "lower"),
    ("runtime.process_calls", "count", "higher"),
    ("runtime.process_samples", "count", "higher"),
    ("runtime.process_busy_s", "s", "lower"),
    ("runtime.process_ns_per_sample", "ns", "lower"),
    ("runtime.ref_dev", "ratio", "lower"),
    ("signals.chirp_samples", "count", "higher"),
    ("signals.chirp_busy_s", "s", "lower"),
    ("signals.sine_calls", "count", "higher"),
    ("signals.sine_busy_s", "s", "lower"),
    ("analysis.stepped_busy_s", "s", "lower"),
    ("analysis.stepped_self_s", "s", "lower"),
    ("analysis.chirp_bode_busy_s", "s", "lower"),
    ("analysis.chirp_bode_self_s", "s", "lower"),
    ("analysis.compare_busy_s", "s", "lower"),
    ("analysis.bode_csv_busy_s", "s", "lower"),
    ("analysis.response_points", "count", "higher"),
    ("analysis.response_busy_s", "s", "lower"),
    ("analysis.max_dev_db.stepped", "dB", "lower"),
    ("analysis.max_dev_deg.stepped", "deg", "lower"),
    ("analysis.max_dev_db.chirp", "dB", "lower"),
    ("analysis.max_dev_deg.chirp", "deg", "lower"),
    ("tfparse.calls", "count", "higher"),
    ("tfparse.busy_s", "s", "lower"),
    ("polynomial.calls", "count", "higher"),
    ("polynomial.busy_s", "s", "lower"),
    ("discretize.horner_self_s", "s", "lower"),
    ("discretize.pole_radii_busy_s", "s", "lower"),
    ("discretize.direct_busy_s", "s", "lower"),
    ("discretize.horner_direct_gap", "ratio", "lower"),
    ("discretize.max_pole_radius", "ratio", "lower"),
    ("discretize.warp_err_db.o6", "dB", "lower"),
    ("discretize.warp_err_db.o8", "dB", "lower"),
    ("discretize.warp_err_db.o10", "dB", "lower"),
    ("discretize.warp_err_db.o12", "dB", "lower"),
    *((f"cli.{c}.{k}", "s", "lower") for c in CLI_COMMANDS for k in ("busy_s", "self_s")),
    ("cli.bytes_read", "bytes", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("tustin.import_s", "s", "lower"),
    ("ref.lfilter_ns_per_sample", "ns", "lower"),
    ("ref.tracing_overhead_pct", "%", "lower"),
    ("trace.accounted_pct", "%", "higher"),
    ("trace.spans", "count", "higher"),
)

SETUP_PROBES = 7
SPAN_CAPACITY = 2_500_000
YARDSTICK_SAMPLES = 1_000_000


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import tustin and prepare, in a fresh interpreter."""
    t0 = time.perf_counter()
    import tustin  # noqa: F401
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, ROOT)
    wl.prepare()
    t2 = time.perf_counter()
    wl.close()
    print(json.dumps({"import_s": t1 - t0, "prepare_s": t2 - t1}))


def measure_setup(workload: str, seed: int, probes: int) -> tuple[float, float]:
    """Median wall of ``probes`` fresh interpreters, and median import time."""
    import statistics
    walls, imports = [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def peak_rss_mb() -> float:
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def lfilter_yardstick(seed: int) -> float:
    """scipy.signal.lfilter ns/sample over 1e6 samples, the batch design; 0 without scipy."""
    import math
    import numpy as np
    import oracle
    import tustin
    from tustin import catalog
    sig = oracle.scipy_signal()
    if sig is None:
        return 0.0
    c = tustin.tustin_horner(catalog.butterworth2(2 * math.pi * 10.0), 1000.0)
    b = np.array(c.a_hat)
    a = np.concatenate(([1.0], -np.array(c.b_hat)))
    x = np.random.default_rng(seed).standard_normal(YARDSTICK_SAMPLES)
    best = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        sig.lfilter(b, a, x)
        best.append(time.perf_counter_ns() - t0)
    return sorted(best)[1] / YARDSTICK_SAMPLES


def environment(seed: int) -> dict:
    import hashlib
    import platform
    import numpy as np
    import oracle
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                        text=True, timeout=30).stdout.strip())
        except OSError:
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tustin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return {
        "git_sha": sha, "git_dirty": dirty, "source_sha256": h.hexdigest(),
        "nproc": NPROC, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "machine": platform.machine(), "reference": oracle.reference_name(),
        # a yardstick for scale, not a gate
        "ref.lfilter_ns_per_sample": lfilter_yardstick(seed),
    }


def layer_metrics(wl, derived: dict, extra: dict) -> dict:
    """The PER_LAYER figures from span totals, workload quality and extras."""
    def g(name, key="busy_s"):
        return derived.get(name, {}).get(key, 0)

    def layer(prefix, key):
        return sum(v[key] for k, v in derived.items() if k.startswith(prefix + "."))

    samples = g("runtime.process", "amount")
    chirp_fns = [k for k in derived if k.startswith("signals.") and k != "signals.generate_sine"]
    m = {
        "runtime.ticks": g("runtime.tick", "calls"),
        "runtime.tick_busy_s": g("runtime.tick"),
        "runtime.process_calls": g("runtime.process", "calls"),
        "runtime.process_samples": samples,
        "runtime.process_busy_s": g("runtime.process"),
        "runtime.process_ns_per_sample": g("runtime.process") * 1e9 / samples if samples else 0.0,
        "signals.chirp_samples": g("signals.generate_chirp", "amount"),
        "signals.chirp_busy_s": sum(derived[k]["outer_busy_s"] for k in chirp_fns),
        "signals.sine_calls": g("signals.generate_sine", "calls"),
        "signals.sine_busy_s": g("signals.generate_sine"),
        "analysis.stepped_busy_s": g("analysis.stepped_sine_bode"),
        "analysis.stepped_self_s": g("analysis.stepped_sine_bode", "self_s"),
        "analysis.chirp_bode_busy_s": g("analysis.chirp_bode"),
        "analysis.chirp_bode_self_s": g("analysis.chirp_bode", "self_s"),
        "analysis.compare_busy_s": g("analysis.compare_responses"),
        "analysis.bode_csv_busy_s": g("analysis.write_bode_csv") + g("analysis.read_bode_csv"),
        "analysis.response_points": g("analysis.bode_continuous", "amount") + g("analysis.bode_digital", "amount"),
        "analysis.response_busy_s": g("analysis.bode_continuous") + g("analysis.bode_digital"),
        "tfparse.calls": layer("tfparse", "calls"),
        "tfparse.busy_s": layer("tfparse", "outer_busy_s"),
        "polynomial.calls": layer("polynomial", "calls"),
        "polynomial.busy_s": layer("polynomial", "outer_busy_s"),
        "discretize.horner_self_s": g("discretize.tustin_horner", "self_s"),
        "discretize.pole_radii_busy_s": g("discretize.pole_radii"),
        "discretize.direct_busy_s": g("discretize.tustin_direct"),
    }
    for c in CLI_COMMANDS:
        m[f"cli.{c}.busy_s"] = g(f"cli.{c}")
        m[f"cli.{c}.self_s"] = g(f"cli.{c}", "self_s")
    m.update(extra)
    for name, _, _ in PER_LAYER:
        m.setdefault(name, wl.quality.get(name, 0.0))
    return m


def configure() -> None:
    """Cap numpy/BLAS at one thread per available CPU and put src/ first on
    the path, for this interpreter (before numpy is imported) and its children."""
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = SRC
    sys.path[:0] = [HERE, SRC]


def measure(wl, seconds: float, rec=None) -> None:
    """Run chunks until ``seconds`` have passed; with a recorder, every
    other chunk is traced (at least one of each)."""
    import spans
    deadline = time.perf_counter() + seconds
    turn = 0
    while turn < (2 if rec else 1) or time.perf_counter() < deadline:
        if rec is not None and turn % 2:
            patched = spans.install(rec)
            try:
                wl.run(wl.chunk_s, rec)
            finally:
                spans.uninstall(patched)
        else:
            wl.run(wl.chunk_s)
        turn += 1


def best(wl, mode: str) -> dict:
    """The run's best figures in plain units, from its chunks: the lowest
    median, the highest throughput, the lowest tail, and the counts."""
    chunks = wl.chunks[mode]
    q = max(c["tail_q"] for c in chunks)
    return {"p50_us": wl.best_op_us(mode), "items_per_s": wl.best_items_per_s(mode),
            "tail_q": q, "tail_us": min(c["tail_us"] for c in chunks if c["tail_q"] == q),
            "chunks": len(chunks), "ops_per_chunk": min(c["count"] for c in chunks)}


def check_traced(wl, rec) -> tuple[int, int]:
    """The checks, with their calls recorded under one bench.check span."""
    import spans
    patched = spans.install(rec)
    rec.op_id += 1
    i = rec.begin(rec.name_id("bench.check"))
    try:
        return wl.check()
    finally:
        rec.finish(i)
        spans.uninstall(patched)


def trace_extras(wl, rec) -> tuple[dict, dict]:
    """Per-layer figures that come from the run rather than from span totals."""
    import spans
    from workloads import TRACED, UNTRACED
    arrays = rec.arrays()
    (n_un, ns_un), (n_tr, _) = wl.totals[UNTRACED], wl.totals[TRACED]
    root_s, layer_s = spans.self_under(arrays, rec.names, f"bench.{wl.op_unit}")
    expected_s = n_tr * ns_un / n_un * 1e-9
    extra = {
        "ref.tracing_overhead_pct": (wl.op_ref(TRACED) / wl.op_ref(UNTRACED) - 1.0) * 100.0,
        "trace.accounted_pct": 100.0 * layer_s / expected_s,
        "trace.spans": rec.n,
    }
    if wl.bytes_per_pipeline():
        extra["cli.bytes_read"], extra["cli.bytes_written"] = wl.bytes_per_pipeline()
    return extra, {"traced_root_s": root_s, "layer_self_s": layer_s, "dropped_spans": rec.dropped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("control_loop", "batch_pipeline", "design_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    configure()

    if not os.path.isfile(os.path.join(SRC, "tustin", "__init__.py")):
        print(f"error: no tustin sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import spans
    from workloads import UNTRACED, WORKLOADS
    setup_s, import_s = measure_setup(args.workload, args.seed, SETUP_PROBES)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    rec = spans.Recorder(SPAN_CAPACITY) if args.trace else None
    try:
        wl.prepare()
        measure(wl, args.seconds, rec)
        rss = peak_rss_mb()
        attempted, failed = check_traced(wl, rec) if rec else wl.check()
    finally:
        wl.close()

    top = best(wl, UNTRACED)
    env = environment(args.seed)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op": wl.op_unit, "item": wl.item_unit,
        "chunks": top["chunks"], "ops_per_chunk": top["ops_per_chunk"],
        "op_tail_percentile": top["tail_q"],
        "per_chunk": {k: [float(f"{c[k]:.4g}") for c in wl.chunks[UNTRACED]]
                      for k in ("p50_us", "tail_us", "items_per_s", "ref_ns")},
        "error_rate": failed / attempted if attempted else 1.0,
        "named": wl.named(top), "quality": wl.quality, "env": env,
    }
    if rec is not None:
        rec.save(os.path.join(out_dir, f"spans-{wl.name}-{wl.seed}.npz"))
        extra, detail["trace_info"] = trace_extras(wl, rec)
        extra["tustin.import_s"] = import_s
        extra["ref.lfilter_ns_per_sample"] = env["ref.lfilter_ns_per_sample"]
        values = layer_metrics(wl, spans.derive(rec.arrays(), rec.names), extra)
        table = PER_LAYER
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": rss, "op_p50_ref": wl.op_ref(UNTRACED),
                  "items_per_ref": wl.items_per_ref(UNTRACED)}
        table = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in table}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
