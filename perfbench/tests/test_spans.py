import numpy as np
import pytest

import spans


def tree(rows):
    """rows: (name, start, end, parent, op)."""
    names = sorted({r[0] for r in rows})
    arrays = {
        "start": np.array([r[1] for r in rows], dtype=np.int64),
        "end": np.array([r[2] for r in rows], dtype=np.int64),
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "parent": np.array([r[3] for r in rows], dtype=np.int32),
        "op": np.array([r[4] for r in rows], dtype=np.int32),
        "amount": np.zeros(len(rows), dtype=np.int64),
    }
    return arrays, names


def test_self_time_subtracts_direct_children_only():
    arrays, names = tree([
        ("bench.op", 0, 100, -1, 1),
        ("cli.filter", 10, 40, 0, 1),
        ("runtime.process", 15, 25, 1, 1),
        ("analysis.compare_responses", 50, 90, 0, 1),
    ])
    d = spans.derive(arrays, names)
    assert d["bench.op"]["self_s"] == pytest.approx(30e-9)
    assert d["cli.filter"]["self_s"] == pytest.approx(20e-9)
    assert d["runtime.process"]["self_s"] == pytest.approx(10e-9)
    assert d["analysis.compare_responses"]["self_s"] == pytest.approx(40e-9)
    assert sum(v["self_s"] for v in d.values()) == pytest.approx(100e-9)


def test_outer_busy_counts_nested_calls_of_a_layer_once():
    arrays, names = tree([
        ("signals.generate_chirp", 0, 50, -1, 1),
        ("signals.chirp_quadrature", 5, 45, 0, 1),
    ])
    d = spans.derive(arrays, names)
    assert d["signals.chirp_quadrature"]["outer_busy_s"] == 0.0
    assert d["signals.generate_chirp"]["outer_busy_s"] == pytest.approx(50e-9)


def test_self_under_accounts_for_the_operation_roots():
    arrays, names = tree([
        ("bench.step", 0, 10, -1, 1),
        ("runtime.tick", 1, 9, 0, 1),
        ("bench.check", 20, 40, -1, 2),
        ("discretize.tustin_direct", 21, 39, 2, 2),
    ])
    root_s, layer_s = spans.self_under(arrays, names, "bench.step")
    assert root_s == pytest.approx(10e-9)
    assert layer_s == pytest.approx(8e-9)


def test_install_patches_every_namespace_and_uninstall_restores():
    import tustin
    import tustin.analysis
    import tustin.catalog
    import tustin.cli
    import tustin.runtime

    original = tustin.runtime.process
    rec = spans.Recorder(1000)
    patched = spans.install(rec)
    try:
        assert tustin.cli.process is not original
        assert tustin.analysis.process is tustin.cli.process
        assert tustin.process is tustin.cli.process
        c = tustin.tustin_horner(tustin.catalog.lowpass1(10.0), 100.0)
        tustin.process(c, tustin.TimeSeries(100.0, np.ones(5)))
    finally:
        spans.uninstall(patched)
    assert tustin.cli.process is original and tustin.process is original
    d = spans.derive(rec.arrays(), rec.names)
    assert d["runtime.process"]["calls"] == 1
    assert d["runtime.process"]["amount"] == 5
    assert d["discretize.tustin_horner"]["calls"] == 1


def test_full_recorder_drops_spans_without_breaking_calls():
    rec = spans.Recorder(2)
    f = rec.wrap("x.f", lambda v: v + 1)
    assert [f(i) for i in range(4)] == [1, 2, 3, 4]
    assert rec.n == 2 and rec.dropped == 2 and rec.full
