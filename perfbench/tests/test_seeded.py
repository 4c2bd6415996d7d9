import numpy as np
import pytest

import seeded
from tustin import parse_coeff_lists, parse_expression

WORKLOADS = ("control_loop", "batch_pipeline", "design_sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    a = seeded.input_digest(seeded.generate(workload, 7))
    assert a == seeded.input_digest(seeded.generate(workload, 7))
    assert a != seeded.input_digest(seeded.generate(workload, 8))


def test_digest_sees_every_field():
    base = seeded.pipeline_inputs(1)
    other = seeded.PipelineInputs(base.cutoff_hz, np.nextafter(base.amplitude, 10.0))
    assert seeded.input_digest(base) != seeded.input_digest(other)


@pytest.mark.parametrize("seed", [1, 2])
def test_control_work_is_the_same_for_every_seed(seed):
    bank = seeded.control_inputs(seed).bank
    orders = [int(s.params[0]) for s in bank if s.family == "butterworth"]
    assert sum(orders) == seeded.BUTTER_ORDER_SUM
    assert all(o <= 8 for o in orders)
    assert len(seeded.control_inputs(seed).samples) == seeded.SEGMENTS * seeded.SEGMENT_STEPS


def test_design_corpus_is_stratified_and_parses_exactly():
    cases = seeded.design_cases(3)
    orders = [c.order for c in cases]
    for n in seeded.DESIGN_ORDERS:
        assert orders.count(n) == seeded.DESIGNS_PER_ORDER
    texts = [c for c in cases if c.text is not None]
    assert len(cases) - len(texts) == len(cases) // seeded.LIST_FORM_EVERY
    for c in cases:
        tf = parse_expression(c.text) if c.text else parse_coeff_lists(c.num_list, c.den_list)
        assert tf.numerator.descending() == c.num
        assert tf.denominator.descending() == c.den
        assert np.all(np.roots(c.den).real < 0.0)
