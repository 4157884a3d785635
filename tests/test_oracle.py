"""The branch and bound against an independent exact oracle.

``bench/oracle.py`` states the compiled model as a 0/1 integer program for
SciPy's MILP solver.  On models of 85 to 119 decoders, well past the 12 that
the brute-force tests can enumerate, a complete ``solve_exact`` must reach
the MILP optimum.
"""

import random
from fractions import Fraction

import pytest

from alp import parse_kb_document
from alp.model import build_model, objective_value
from helpers import load_bench, load_workloads, pipeline_pool, random_kb, solve_exact

pytest.importorskip("scipy")


def family_dec1_kb(index):
    """A KB of the benchmark's family-dec1 workload, seed 7."""
    workloads = load_workloads()
    kbs, _ = workloads.generate(workloads.WORKLOADS["family-dec1"], 7)
    return parse_kb_document(kbs[index].text).kb


@pytest.mark.parametrize(
    "kb_index, gamma, decoders, optimum",
    [
        (2, Fraction(1, 2), 90, 0),
        (4, Fraction(1, 2), 85, 0),
        (5, Fraction(1, 2), 108, 0),
        (2, Fraction(1, 4), 90, 23),  # no lossless program fits the bottleneck
        (None, Fraction(1, 2), 119, 1),  # a random KB
    ],
)
def test_exact_search_reaches_the_milp_optimum(kb_index, gamma, decoders, optimum):
    if kb_index is None:
        kb = random_kb(random.Random(5), max_constants=6, max_facts=30)
    else:
        kb = family_dec1_kb(kb_index)
    encoders, dcs, _, _ = pipeline_pool(kb)
    model = build_model(encoders, dcs, kb, gamma)
    assert len(model.dc_candidates) == decoders
    milp_optimum, _ = load_bench("oracle").solve_model(model)
    result = solve_exact(model, fail_limit=10**6)
    assert result.complete
    assert result.objective == milp_optimum == optimum
    assert objective_value(model, result.best) == optimum
