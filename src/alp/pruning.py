"""Candidate pool reduction: naming variants, signature variants, corruption.

All three strategies key on the precomputed consequence bitsets, so they
cost integer operations only.  Representatives are canonical (lowest latent
ordinal, or lexicographically least serialization) to keep runs
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .candidates import CandidateClause, latent_ordinal, pool_index
from .kb import KnowledgeBase


@dataclass(frozen=True)
class PruneReport:
    """Counts reconcile exactly: input = removed + survivors."""

    input_count: int
    removed_naming: int
    removed_signature: int
    removed_corruption: int
    survivors: tuple[CandidateClause, ...]

    def __post_init__(self):
        total = (
            self.removed_naming
            + self.removed_signature
            + self.removed_corruption
            + len(self.survivors)
        )
        if total != self.input_count:
            raise ValueError(
                f"prune counts do not reconcile: {total} != {self.input_count}"
            )

    def counters(self) -> dict:
        return {
            "input_count": self.input_count,
            "removed_naming": self.removed_naming,
            "removed_signature": self.removed_signature,
            "removed_corruption": self.removed_corruption,
            "survivors": len(self.survivors),
        }


def prune_naming_variants(
    encoders: list[CandidateClause],
) -> list[CandidateClause]:
    """Keep one encoder per class of identical consequences modulo the
    latent predicate name; the survivor is the lowest latent ordinal.

    The encoder pool indexes bare argument rows, so the class is the mask.
    """
    pool_index(encoders)
    groups: dict[int, CandidateClause] = {}
    for cand in sorted(
        encoders, key=lambda c: latent_ordinal(c.head.predicate)
    ):
        groups.setdefault(cand.mask, cand)
    return sorted(
        groups.values(), key=lambda c: latent_ordinal(c.head.predicate)
    )


def prune_signature_variants(
    decoders: list[CandidateClause],
) -> list[CandidateClause]:
    """Keep one decoder per (head predicate, consequence set, body predicate
    set) group; the survivor is the lexicographically least serialization.

    The decoders of one body share its literal tuple, so each body's
    predicate set is built once.
    """
    pool_index(decoders)
    body_predicates: dict[int, frozenset] = {}
    groups: dict[tuple, CandidateClause] = {}
    for cand in sorted(decoders, key=attrgetter("text")):
        preds = body_predicates.get(id(cand.body))
        if preds is None:
            preds = frozenset(l.predicate for l in cand.body)
            body_predicates[id(cand.body)] = preds
        groups.setdefault((cand.head.predicate, cand.mask, preds), cand)
    return sorted(groups.values(), key=attrgetter("text"))


def corruption_level(decoder: CandidateClause, kb: KnowledgeBase) -> Fraction:
    """Fraction of the decoder's reconstructions that are not KB facts."""
    false = (decoder.mask & ~decoder.index.kb_mask_of(kb)).bit_count()
    return Fraction(false, decoder.weight)


def prune_corrupt(
    decoders: list[CandidateClause], kb: KnowledgeBase
) -> list[CandidateClause]:
    """Drop decoders introducing at least as many false as true facts,
    i.e. keep those with fewer false facts than half their weight."""
    if not decoders:
        return []
    kb_mask = pool_index(decoders).kb_mask_of(kb)
    return [c for c in decoders if 2 * (c.mask & ~kb_mask).bit_count() < c.weight]


def build_report(
    encoders_in: int,
    decoders_in: int,
    encoders_out: list[CandidateClause],
    decoders_after_signature: int,
    decoders_out: list[CandidateClause],
) -> PruneReport:
    removed_naming = encoders_in - len(encoders_out)
    removed_signature = decoders_in - decoders_after_signature
    removed_corruption = decoders_after_signature - len(decoders_out)
    return PruneReport(
        input_count=encoders_in + decoders_in,
        removed_naming=removed_naming,
        removed_signature=removed_signature,
        removed_corruption=removed_corruption,
        survivors=tuple(encoders_out) + tuple(decoders_out),
    )
