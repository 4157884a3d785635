"""Candidate pool reduction: naming variants, signature variants, corruption.

All three strategies key on the precomputed consequence bitsets, so they
cost integer operations only.  Representatives are canonical (lowest latent
ordinal, or lexicographically least serialization) to keep runs
reproducible.  ``candidates.generate_pruned_decoders`` applies the last two
as it generates; the functions here apply them to any list of decoders.
"""

from __future__ import annotations

from operator import attrgetter

from .candidates import (
    CandidateClause,
    body_predicates,
    is_corrupt,
    latent_ordinal,
    pool_index,
)
from .kb import KnowledgeBase


def prune_naming_variants(
    encoders: list[CandidateClause],
) -> list[CandidateClause]:
    """Keep one encoder per class of identical consequences modulo the
    latent predicate name; the survivor is the lowest latent ordinal.

    Every encoder mints its own latent predicate, so the class is the mask.
    Dicts keep insertion order, so the survivors stay in ordinal order.
    """
    pool_index(encoders)
    groups: dict[int, CandidateClause] = {}
    for cand in sorted(
        encoders, key=lambda c: latent_ordinal(c.head.predicate)
    ):
        groups.setdefault(cand.mask, cand)
    return list(groups.values())


def prune_signature_variants(
    decoders: list[CandidateClause],
) -> list[CandidateClause]:
    """Keep one decoder per signature class (head predicate, consequence
    set, body predicate set); the survivor is the lexicographically least
    serialization.

    ``generate_pruned_decoders`` already keeps one decoder per class, so on
    its output this returns the list unchanged.
    """
    pool_index(decoders)
    groups: dict[tuple, CandidateClause] = {}
    for cand in sorted(decoders, key=attrgetter("text")):
        key = (cand.head.predicate, cand.mask, body_predicates(cand.body))
        groups.setdefault(key, cand)
    return sorted(groups.values(), key=attrgetter("text"))


def prune_corrupt(
    decoders: list[CandidateClause], kb: KnowledgeBase
) -> list[CandidateClause]:
    """Drop decoders introducing at least as many false as true facts
    (``is_corrupt``).  ``generate_pruned_decoders`` already drops them, so
    on its output this returns the list unchanged."""
    if not decoders:
        return []
    kb_masks = pool_index(decoders).kb_masks(kb, {c.head.predicate for c in decoders})
    return [c for c in decoders if not is_corrupt(c.mask, kb_masks[c.head.predicate])]


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
