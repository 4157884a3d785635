"""Candidate pool reduction: naming variants, signature variants, corruption.

All three strategies key on the precomputed consequence bitsets, so they
cost integer operations only.  Representatives are canonical (lowest latent
ordinal, or lexicographically least serialization) to keep runs
reproducible.
"""

from __future__ import annotations

from operator import attrgetter

from .candidates import CandidateClause, latent_ordinal, pool_index
from .kb import KnowledgeBase


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
) -> dict:
    """The run report's pruning counts: input = removed + survivors."""
    return {
        "input_count": encoders_in + decoders_in,
        "removed_naming": encoders_in - len(encoders_out),
        "removed_signature": decoders_in - decoders_after_signature,
        "removed_corruption": decoders_after_signature - len(decoders_out),
        "survivors": len(encoders_out) + len(decoders_out),
    }
