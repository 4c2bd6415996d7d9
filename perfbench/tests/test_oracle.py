import json
import math
import os

import numpy as np
import pytest

import oracle
import run
import tustin
from tustin import catalog
import workloads


def test_recurrence_matches_lfilter_and_tick():
    c = tustin.tustin_horner(catalog.butterworth2(2 * math.pi * 10.0), 1000.0)
    x = 3.0 + np.random.default_rng(0).standard_normal(500)
    mine = oracle.recurrence(c.a_hat, c.b_hat, x, float(x[0]))
    f = tustin.DigitalFilter(c)
    ticks = np.array([f.tick(v) for v in x])
    np.testing.assert_allclose(mine, ticks, rtol=0, atol=1e-12 * np.abs(ticks).max())
    if oracle.scipy_signal() is not None:
        np.testing.assert_allclose(oracle.filter_reference(c.a_hat, c.b_hat, x), mine,
                                   rtol=0, atol=1e-12 * np.abs(mine).max())


def test_digital_response_matches_tustin():
    c = tustin.tustin_horner(catalog.notch(2 * math.pi * 50.0, 10.0), 1000.0)
    f = np.array([1.0, 10.0, 49.0, 200.0])
    want = [tustin.analytic_response_digital(c, 2 * math.pi * v) for v in f]
    np.testing.assert_allclose(oracle.digital_response(c.a_hat, c.b_hat, 1000.0, f), want, rtol=1e-12)


@pytest.mark.parametrize("key,table", [("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)])
def test_benchmark_json_names_what_run_reports(key, table):
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        doc = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
    assert listed == list(table)


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    from array import array
    assert workloads.stats(array("q", range(1000)))["tail_q"] == 99.0
    assert workloads.stats(array("q", range(999)))["tail_q"] == 90.0
    assert workloads.stats(array("q", range(5)))["tail_q"] == 50.0


def test_best_takes_lowest_times_and_highest_throughput():
    class Fake(workloads.Workload):
        def __init__(self):
            self.chunks = {"untraced": [
                {"p50_us": 12.0, "tail_q": 99.0, "tail_us": 20.0, "items_per_s": 5.0, "count": 100},
                {"p50_us": 10.0, "tail_q": 99.0, "tail_us": 25.0, "items_per_s": 4.0, "count": 90},
                {"p50_us": 9.0, "tail_q": 90.0, "tail_us": 11.0, "items_per_s": 6.0, "count": 20}]}

    b = run.best(Fake(), "untraced")
    assert (b["p50_us"], b["tail_q"], b["tail_us"], b["items_per_s"]) == (9.0, 99.0, 20.0, 6.0)
    assert (b["chunks"], b["ops_per_chunk"]) == (3, 20)


def test_pipeline_time_adds_each_commands_best():
    wl = workloads.BatchPipeline.__new__(workloads.BatchPipeline)
    steps = workloads.BatchPipeline.STEPS
    wl.chunks = {"untraced": [{f"{s}_s": 2.0 for s in steps},
                              {**{f"{s}_s": 1.0 for s in steps}, "bode-stepped_s": 3.0}]}
    assert wl.best_op_us("untraced") == pytest.approx(1e6 * (len(steps) - 1 + 2.0))
