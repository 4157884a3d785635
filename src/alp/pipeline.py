"""End-to-end learning pipeline: parse, enumerate, prune, compile, search.

This is the library entry point behind ``alp learn``; each stage is timed
and the result carries everything the run report needs.  The final
objective is audited against an independent recomputation of the
reconstruction loss through the evaluator; a mismatch is a bug, not a
model property, and raises.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .candidates import (
    CandidateClause,
    GenerationConfig,
    generate_encoder_candidates,
    generate_pruned_decoders,
)
from .errors import AlpError
from .kb import KnowledgeBase, ModeDeclaration, Predicate, Record
from .logic import Alp, encode, loss_parts
from .model import CopModel, build_model, induced_alp
from .pruning import build_report, prune_naming_variants
from .solver import SearchConfig, Solution, lns_minimize, ProgressFn


class LearnResult(Record):
    """What ``learn`` found, and what the run report reads: compared by
    its fields, and unhashable, since it may change."""

    _fields = __slots__ = (
        "alp", "latent", "solution", "model", "pruning", "counts", "timings", "loss",
        "improvements",
    )
    __hash__ = None

    def __init__(
        self, alp: Alp, latent: frozenset, solution: Solution, model: CopModel,
        pruning: dict, counts: dict, timings: dict, loss: dict, improvements: list,
    ):
        self.alp, self.latent, self.solution, self.model = alp, latent, solution, model
        self.pruning, self.counts, self.timings = pruning, counts, timings
        self.loss, self.improvements = loss, improvements


def prepare_pool(
    kb: KnowledgeBase,
    modes: dict[Predicate, ModeDeclaration],
    config: GenerationConfig,
) -> tuple[list[CandidateClause], list[CandidateClause], dict, dict]:
    """Generate and prune the candidate pool.

    Naming-variant pruning runs before decoder generation, so decoders are
    built only over surviving latents.  Signature-variant and corruption
    pruning run as the decoders are generated; the generator returns the
    counts the report needs.
    """
    encoders = generate_encoder_candidates(kb, modes, config)
    enc_survivors = prune_naming_variants(encoders)
    dec_survivors, decoders, classes = generate_pruned_decoders(
        enc_survivors, kb, config
    )
    pruning = build_report(
        len(encoders), decoders, enc_survivors, classes, dec_survivors
    )
    counts = {
        "encoders_generated": len(encoders),
        "encoders_pruned": len(enc_survivors),
        "decoders_generated": decoders,
        "decoders_pruned": len(dec_survivors),
    }
    return enc_survivors, dec_survivors, pruning, counts


def learn(
    kb: KnowledgeBase,
    modes: dict[Predicate, ModeDeclaration],
    gen_config: GenerationConfig,
    search_config: SearchConfig,
    gamma: Fraction,
    progress: ProgressFn | None = None,
) -> LearnResult:
    timings = {}
    t0 = time.monotonic()

    t = time.monotonic()
    encoders, decoders, pruning, counts = prepare_pool(kb, modes, gen_config)
    timings["enumerate_and_prune"] = time.monotonic() - t

    t = time.monotonic()
    model = build_model(encoders, decoders, kb, gamma)
    timings["build_model"] = time.monotonic() - t

    improvements: list[tuple[int, int, float, int, int]] = []

    def record(iteration, objective, elapsed_ms, n_ec, n_dc):
        improvements.append((iteration, objective, elapsed_ms, n_ec, n_dc))
        if progress is not None:
            progress(iteration, objective, elapsed_ms, n_ec, n_dc)

    t = time.monotonic()
    solution = lns_minimize(model, search_config, progress=record)
    timings["solve"] = time.monotonic() - t

    alp = induced_alp(model, solution.assignment)
    latent = encode(alp, kb)
    missing, false = loss_parts(alp, kb)
    if missing + false != solution.objective:
        raise AlpError(
            f"objective {solution.objective} disagrees with recomputed "
            f"reconstruction loss {missing + false}"
        )
    timings["total"] = time.monotonic() - t0
    return LearnResult(
        alp=alp,
        latent=latent,
        solution=solution,
        model=model,
        pruning=pruning,
        counts=counts,
        timings=timings,
        loss={"objective": solution.objective, "missing": missing, "false": false},
        improvements=improvements,
    )


def run_report(
    result: LearnResult,
    gen_config: GenerationConfig,
    search_config: SearchConfig,
    gamma: Fraction,
) -> dict:
    """The JSON-ready run report; timing fields are not deterministic."""
    generation = gen_config._asdict()
    del generation["max_candidates"]
    return {
        "schema": 1,
        "config": {"gamma": str(gamma), **generation, **search_config._asdict()},
        "candidates": result.counts,
        "pruning": result.pruning,
        "model": result.model.size_summary(),
        "warnings": list(result.model.warnings),
        "solver": {
            "objective": result.solution.objective,
            "iteration_found": result.solution.iteration_found,
            "proven_optimal": result.solution.proven_optimal,
            "improving_iterations": len(result.improvements),
            "selected_encoders": len(result.alp.encoder.clauses),
            "selected_decoders": len(result.alp.decoder.clauses),
        },
        "loss": result.loss,
        "timings": result.timings,
    }
