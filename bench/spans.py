"""Spans and counters recorded around calls into ``alp``'s public functions.

``traced_learn`` makes the calls ``alp.pipeline.learn`` makes, in the same
order, and wraps each in a span named ``<module>.<stage>``.  It returns the
same result ``learn`` would, so the traced run can be checked against an
untraced one.  Nothing inside ``alp`` is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None  # index into Tracer.spans

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Spans kept in memory, nested by the order they open and close."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()].end = self.clock()

    def switch(self, name: str) -> None:
        """End the innermost span and open a sibling in its place."""
        self.end()
        self.begin(name)

    @contextmanager
    def span(self, name: str):
        depth = len(self._open)
        self.begin(name)
        try:
            yield
        finally:
            while len(self._open) > depth:
                self.end()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = value


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span run one after another on one thread, so they never
    overlap and their durations add up.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def traced_learn(tracer: Tracer, kb, modes, gen_config, search_config, gamma):
    """``alp.pipeline.learn`` as a sequence of spans around its stage calls.

    Returns ``(alp, latent, solution, improvements)``.  Raises ``AlpError``
    on an audit mismatch, as ``learn`` does.
    """
    from alp.candidates import generate_decoder_candidates, generate_encoder_candidates
    from alp.errors import AlpError
    from alp.logic import encode, loss_parts
    from alp.model import AT_LEAST_ONE, AT_MOST_ONE_OF_PAIR, IFF_OR, build_model, induced_alp
    from alp.pruning import (
        build_report,
        prune_corrupt,
        prune_naming_variants,
        prune_signature_variants,
    )
    from alp.solver import lns_minimize

    count = tracer.count
    with tracer.span("pipeline.learn"):
        with tracer.span("candidates.encoders"):
            encoders = generate_encoder_candidates(kb, modes, gen_config)
        count("candidates.encoders", len(encoders))
        with tracer.span("pruning.naming"):
            enc_kept = prune_naming_variants(encoders)
        count("pruning.encoders_kept", len(enc_kept))
        with tracer.span("candidates.decoders"):
            decoders = generate_decoder_candidates(enc_kept, kb, gen_config)
        count("candidates.decoders", len(decoders))
        with tracer.span("pruning.signature"):
            dec_sig = prune_signature_variants(decoders)
        with tracer.span("pruning.corrupt"):
            dec_kept = prune_corrupt(dec_sig, kb)
        count("pruning.decoders_kept", len(dec_kept))
        count("pruning.decoder_yield", len(dec_kept) / len(decoders) if decoders else 0.0)
        build_report(len(encoders), len(decoders), enc_kept, len(dec_sig), dec_kept)

        with tracer.span("model.build"):
            model = build_model(enc_kept, dec_kept, kb, gamma)
        for key, value in model.size_summary().items():
            count(f"model.{key}", value)
        forms = [c.form for c in model.constraints]
        count("model.pairs", forms.count(AT_MOST_ONE_OF_PAIR))
        count("model.iff_or", forms.count(IFF_OR))
        count("model.at_least_one", forms.count(AT_LEAST_ONE))

        improvements: list[tuple] = []

        def record(iteration, objective, elapsed_ms, n_ec, n_dc):
            if iteration == 0:
                tracer.switch("solver.lns")
                count("solver.seed_objective", objective)
            improvements.append((iteration, objective, elapsed_ms, n_ec, n_dc))

        with tracer.span("solver.seed"):
            solution = lns_minimize(model, search_config, progress=record)
        count("solver.improving_iterations", len(improvements))
        count("solver.iteration_found", solution.iteration_found)

        with tracer.span("logic.audit"):
            alp = induced_alp(model, solution.assignment)
            latent = encode(alp, kb)
            missing, false = loss_parts(alp, kb)
        if missing + false != solution.objective:
            raise AlpError(
                f"objective {solution.objective} disagrees with recomputed "
                f"reconstruction loss {missing + false}"
            )
    return alp, latent, solution, improvements


def traced_apply(tracer: Tracer, alp, kb) -> tuple[int, int]:
    """Encode, decode and score ``kb`` under one program, one span each."""
    from alp.logic import apply_program, encode, loss_parts

    with tracer.span("logic.encode"):
        latent = encode(alp, kb)
    with tracer.span("logic.decode"):
        apply_program(alp.decoder, latent)
    with tracer.span("logic.loss"):
        return loss_parts(alp, kb)
