"""Tests of the benchmark itself: generators, oracle, spans, traced learn.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer, self_times, traced_learn

ROOT = Path(__file__).resolve().parents[2]


def tiny_family_kbs(count: int, seed: int = 0):
    from alp import parse_kb_document

    rng = random.Random(seed)
    return [parse_kb_document(workloads.small_family_kb(rng, k % 8).text) for k in range(count)]


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    first = workloads.generate(w, 7)
    assert workloads.generate(w, 7) == first
    assert workloads.generate(w, 8) != first


def test_family_generator_records_what_it_dropped():
    g = workloads.family_kb(random.Random(3), 5, 3)
    lines = g.text.splitlines()
    assert len(lines) == g.facts
    fathers = sum(l.startswith("father(") for l in lines)
    parents = sum(l.startswith("parent(") for l in lines)
    assert g.dropped_parent == round(2 * fathers * 0.15)
    assert parents == 2 * fathers - g.dropped_parent


def test_fig1_is_the_papers_nine_facts():
    assert workloads.FIG1_TEXT.count(").\n") == 9
    kbs, _ = workloads.generate(workloads.WORKLOADS["default-bias"], 1)
    assert kbs[0].text == workloads.FIG1_TEXT


def test_fixed_program_loss_is_the_dropped_count():
    from alp import parse_kb_document, parse_program
    from alp.logic import loss_parts

    g = workloads.family_kb(random.Random(5), 4, 4)
    missing, false = loss_parts(
        parse_program(workloads.FAMILY_PROGRAM), parse_kb_document(g.text).kb
    )
    assert (missing, false) == (0, g.dropped_parent)


# -- oracle ---------------------------------------------------------------------


def brute_force_minimum(model):
    from alp.model import ConstraintViolationError, assignment_from_dc, objective_value

    best = None
    n = len(model.dc_candidates)
    for size in range(n + 1):
        for chosen in itertools.combinations(range(n), size):
            try:
                value = objective_value(model, assignment_from_dc(model, set(chosen)))
            except ConstraintViolationError:
                continue
            best = value if best is None else min(best, value)
    return best


def small_models():
    from alp import GenerationConfig
    from alp.model import build_model
    from alp.pipeline import prepare_pool

    config = GenerationConfig(max_encoder_body_len=1, max_decoder_body_len=1)
    for doc in tiny_family_kbs(24, seed=11):
        for gamma in ("0.5", "1"):
            encoders, decoders, _, _ = prepare_pool(doc.kb, doc.modes, config)
            if not encoders or len(decoders) > 12:
                continue
            yield build_model(encoders, decoders, doc.kb, Fraction(gamma)), doc.kb


def test_oracle_matches_brute_force_on_small_models():
    pytest.importorskip("scipy")
    from oracle import oracle

    checked = 0
    for model, kb in small_models():
        expected = brute_force_minimum(model)
        if expected is None:
            continue
        result = oracle(model, kb)
        assert result.optimum == expected
        assert result.feasible and result.rescored == expected
        checked += 1
    assert checked >= 10


# -- spans ------------------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 1.5, 4.0, 5.0, 5.0, 7.0, 10.0]))
    with tracer.span("root"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 5
            with tracer.span("a.inner"):  # 1.5 .. 4
                pass
        with tracer.span("b"):  # 5 .. 7
            pass
    durations = [s.duration for s in tracer.spans]
    assert durations == [10.0, 4.0, 2.5, 2.0]
    assert self_times(tracer.spans) == [4.0, 1.5, 2.5, 2.0]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration


def test_switch_ends_a_span_and_opens_a_sibling():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 3.0, 6.0, 8.0]))
    with tracer.span("root"):
        with tracer.span("solver.seed"):
            tracer.switch("solver.lns")
    names = [(s.name, s.parent, s.duration) for s in tracer.spans]
    assert names == [("root", None, 8.0), ("solver.seed", 0, 2.0), ("solver.lns", 0, 3.0)]
    assert self_times(tracer.spans)[0] == 3.0


def test_spans_close_when_an_exception_propagates():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 2.5, 3.0, 4.0]))
    with pytest.raises(KeyError):
        with tracer.span("root"):
            with tracer.span("solver.seed"):
                tracer.switch("solver.lns")
                raise KeyError
    assert all(s.end is not None for s in tracer.spans)
    assert not tracer._open


# -- traced learn ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_sequence_reproduces_learn(name):
    from alp import GenerationConfig, KnowledgeBase, SearchConfig, parse_kb_document
    from alp.kb import serialize_kb
    from alp.logic import serialize_program
    from alp.pipeline import learn

    w = workloads.WORKLOADS[name]
    kbs, _ = workloads.generate(w, 2)
    doc = parse_kb_document(kbs[-1].text)  # default-bias starts with Fig. 1, which never ends
    gen = GenerationConfig(**w.learn.gen())
    search = SearchConfig(**{**w.learn.search(), "iterations": 5})
    gamma = Fraction(w.learn.gamma)
    expected = learn(doc.kb, doc.modes, gen, search, gamma)
    tracer = Tracer()
    alp, latent, solution, improvements = traced_learn(
        tracer, doc.kb, doc.modes, gen, search, gamma
    )
    assert serialize_program(alp) == serialize_program(expected.alp)
    assert serialize_kb(KnowledgeBase.from_facts(latent)) == serialize_kb(
        KnowledgeBase.from_facts(expected.latent)
    )
    assert solution.objective == expected.solution.objective
    assert [i[:2] for i in improvements] == [i[:2] for i in expected.improvements]
    names = [s.name for s in tracer.spans]
    assert names == [
        "pipeline.learn", "candidates.encoders", "pruning.naming", "candidates.decoders",
        "pruning.signature", "pruning.corrupt", "model.build", "solver.seed",
        "solver.lns", "logic.audit",
    ]
    assert tracer.counters["candidates.decoders"] == expected.counts["decoders_generated"]
    assert tracer.counters["model.constraints"] == len(expected.model.constraints)


# -- the learn loop -----------------------------------------------------------------


def test_a_missed_kb_fails_once_however_many_passes(monkeypatch):
    """KB 0 misses its deadline on its one call and is not called again.
    Each KB counts once in ``attempted`` and ``failed`` and weighs the same
    in ``learn_s``, however many passes fit into the run."""
    clock = [0.0]
    monkeypatch.setattr(run, "reference_s", lambda: run.NOMINAL_REF_S)
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    r = run.Run(workloads.WORKLOADS["default-bias"], 1, seconds=30)
    called = []

    def learn_call(i):
        called.append(i)
        clock[0] += 1.0
        r.record(f"kb {i}", i != 0)
        if i == 0:
            return {"status": "deadline"}
        return {
            "status": "ok", "learn_s": 0.5, "at": 0, "objective": 0,
            "proven_optimal": i % 2 == 0, "program_sha": f"p{i}", "latent_sha": f"l{i}",
        }

    monkeypatch.setattr(r, "learn_call", learn_call)
    monkeypatch.setattr(r, "check_rescore", lambda i, reply: None)
    monkeypatch.setattr(r, "oracle_gaps", lambda ok: [0] * len(ok))
    stats = r.learn_loop(30, lambda: None)
    # 13 KBs at one clock second per call: 13 calls, then 12, then 5.
    assert stats["passes"] == 3 and called.count(0) == 1 and stats["calls"] == 30
    assert r.failed == 1 and r.attempted == 13 and not r.mismatches
    assert stats["kb_raw"] == stats["kb_times"] == [r.w.deadline_s] + [0.5] * 12
    assert stats["optimal_share"] == 6 / 13


def test_a_failed_check_fails_its_operation_once():
    r = run.Run.__new__(run.Run)
    r.outcomes, r.mismatches = {}, []
    r.record("kb 0", True)
    r.record("kb 0", False, "bytes differ")
    r.record("kb 0", True)
    r.record("kb 1", True)
    assert (r.attempted, r.failed) == (2, 1)
    assert r.mismatches == ["kb 0: bytes differ"]


# -- BENCHMARK.json and the runner ------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family-dec1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
