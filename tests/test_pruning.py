"""Naming variants, signature variants, corruption level pruning."""

from fractions import Fraction

import pytest

from alp.candidates import AtomIndex
from alp.logic import Clause
from alp.pruning import (
    prune_corrupt,
    prune_naming_variants,
    prune_signature_variants,
)
from helpers import candidate, corruption_level, fact, kb_of, lit, pred

P2 = pred("p", 2)
Q1 = pred("q", 1)


def encoder_candidate(ordinal, body, consequences, index):
    arity = len(next(iter(consequences)))
    head_pred = pred(f"latent_{ordinal}", arity)
    # consequence facts carry this candidate's own head predicate
    facts = [fact(head_pred, *args) for args in consequences]
    head_vars = ["XYZW"[i] for i in range(arity)]
    clause = Clause(lit(head_pred, *head_vars), body)
    return candidate(clause, facts, index)


def dec_candidate(head, body, consequence_facts, index):
    return candidate(Clause(head, body), consequence_facts, index)


L1 = pred("latent_1", 2)
L2 = pred("latent_2", 2)
L3 = pred("latent_3", 1)


class TestNamingVariants:
    def test_identical_bodies_collapse(self):
        index = AtomIndex()
        a = encoder_candidate(1, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        b = encoder_candidate(2, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        survivors = prune_naming_variants([a, b])
        assert survivors == [a]

    def test_same_projection_different_free_variable(self):
        # latentA(X) :- p(X,Y) vs latentB(X) :- p(X,Z) over {p(a,b)}: both
        # entail a single atom on 'a', so they are naming variants.
        index = AtomIndex()
        a = encoder_candidate(1, (lit(P2, "X", "Y"),), {("a",)}, index)
        b = encoder_candidate(2, (lit(P2, "X", "Z"),), {("a",)}, index)
        assert prune_naming_variants([a, b]) == [a]

    def test_different_projection_kept(self):
        index = AtomIndex()
        a = encoder_candidate(1, (lit(P2, "X", "Y"),), {("a",)}, index)
        b = encoder_candidate(2, (lit(P2, "X", "Y"),), {("b",)}, index)
        assert len(prune_naming_variants([a, b])) == 2

    def test_lowest_ordinal_is_the_representative(self):
        index = AtomIndex()
        a = encoder_candidate(7, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        b = encoder_candidate(3, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        assert prune_naming_variants([a, b]) == [b]

    def test_idempotent(self):
        index = AtomIndex()
        a = encoder_candidate(1, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        b = encoder_candidate(2, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        c = encoder_candidate(3, (lit(P2, "X", "Y"),), {("b", "b")}, index)
        once = prune_naming_variants([a, b, c])
        assert prune_naming_variants(once) == once

    def test_variant_relation_is_equivalence(self):
        # grouping by consequence masks is reflexive, symmetric, and
        # transitive by construction; spot-check transitivity via grouping
        index = AtomIndex()
        a = encoder_candidate(1, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        b = encoder_candidate(2, (lit(P2, "X", "Y"),), {("a", "b")}, index)
        c = encoder_candidate(3, (lit(P2, "Y", "X"),), {("a", "b")}, index)
        assert prune_naming_variants([a, b, c]) == [a]

    def test_candidates_of_two_pools_rejected(self):
        a = encoder_candidate(1, (lit(P2, "X", "Y"),), {("a", "b")}, AtomIndex())
        b = encoder_candidate(2, (lit(P2, "X", "Y"),), {("a", "b")}, AtomIndex())
        with pytest.raises(ValueError, match="more than one pool"):
            prune_naming_variants([a, b])


class TestSignatureVariants:
    def test_body_permutation_collapses(self):
        index = AtomIndex()
        facts = [fact(P2, "a", "b")]
        a = dec_candidate(
            lit(P2, "X", "Y"), (lit(L1, "X", "Y"), lit(L3, "Y")), facts, index
        )
        b = dec_candidate(
            lit(P2, "X", "Y"), (lit(L3, "Y"), lit(L1, "X", "Y")), facts, index
        )
        survivors = prune_signature_variants([a, b])
        assert len(survivors) == 1

    def test_different_body_predicates_kept(self):
        index = AtomIndex()
        facts = [fact(P2, "a", "b")]
        a = dec_candidate(lit(P2, "X", "Y"), (lit(L1, "X", "Y"),), facts, index)
        b = dec_candidate(lit(P2, "X", "Y"), (lit(L2, "X", "Y"),), facts, index)
        assert len(prune_signature_variants([a, b])) == 2

    def test_different_consequences_kept(self):
        index = AtomIndex()
        a = dec_candidate(
            lit(P2, "X", "Y"), (lit(L1, "X", "Y"),), [fact(P2, "a", "b")], index
        )
        b = dec_candidate(
            lit(P2, "X", "Y"), (lit(L1, "Y", "X"),), [fact(P2, "b", "a")], index
        )
        assert len(prune_signature_variants([a, b])) == 2

    def test_different_heads_kept(self):
        index = AtomIndex()
        r2 = pred("r", 2)
        a = dec_candidate(
            lit(P2, "X", "Y"), (lit(L1, "X", "Y"),), [fact(P2, "a", "b")], index
        )
        b = dec_candidate(
            lit(r2, "X", "Y"), (lit(L1, "X", "Y"),), [fact(r2, "a", "b")], index
        )
        assert len(prune_signature_variants([a, b])) == 2

    def test_representative_is_lexicographically_least(self):
        index = AtomIndex()
        facts = [fact(P2, "a", "b")]
        a = dec_candidate(
            lit(P2, "X", "Y"), (lit(L1, "X", "Y"), lit(L3, "X")), facts, index
        )
        b = dec_candidate(
            lit(P2, "X", "Y"), (lit(L3, "X"), lit(L1, "X", "Y")), facts, index
        )
        survivors = prune_signature_variants([a, b])
        assert survivors[0].text == min(a.text, b.text)
        assert a.text == str(a.clause) and b.text == str(b.clause)

    def test_idempotent(self):
        index = AtomIndex()
        facts = [fact(P2, "a", "b")]
        pool = [
            dec_candidate(lit(P2, "X", "Y"), (lit(L1, "X", "Y"),), facts, index),
            dec_candidate(lit(P2, "X", "Y"), (lit(L2, "X", "Y"),), facts, index),
        ]
        once = prune_signature_variants(pool)
        assert prune_signature_variants(once) == once


class TestCorruption:
    def kb(self):
        return kb_of(
            fact(P2, "a", "b"), fact(P2, "c", "d"), fact(P2, "e", "f"),
            fact(P2, "g", "h"),
        )

    def decoder(self, true, false, index, body_pred=L1):
        """A decoder reconstructing ``true`` KB facts and ``false`` others."""
        kb_facts = sorted(self.kb().facts, key=str)[:true]
        others = [fact(P2, "x", f"y{i}") for i in range(false)]
        return dec_candidate(
            lit(P2, "X", "Y"), (lit(body_pred, "X", "Y"),), kb_facts + others, index
        )

    def test_perfect_decoder(self):
        d = self.decoder(1, 0, AtomIndex(self.kb().facts))
        assert corruption_level(d, self.kb()) == 0

    def test_half_corrupt(self):
        d = self.decoder(1, 1, AtomIndex(self.kb().facts))
        assert corruption_level(d, self.kb()) == Fraction(1, 2)

    def test_fully_corrupt(self):
        d = self.decoder(0, 1, AtomIndex(self.kb().facts))
        assert corruption_level(d, self.kb()) == 1

    def test_empty_consequences_is_undefined(self):
        d = self.decoder(0, 0, AtomIndex(self.kb().facts))
        with pytest.raises(ZeroDivisionError):
            corruption_level(d, self.kb())

    @pytest.mark.parametrize(
        "true, false, kept",
        [(1, 1, False), (2, 1, True), (1, 2, False), (2, 2, False), (3, 1, True)],
    )
    def test_kept_below_one_half(self, true, false, kept):
        """1 false of 2 and 2 of 4 sit at 1/2 and are dropped; 1 of 3 is
        kept and 2 of 3 dropped."""
        index = AtomIndex(self.kb().facts)
        d = self.decoder(true, false, index)
        assert corruption_level(d, self.kb()) == Fraction(false, true + false)
        assert prune_corrupt([d], self.kb()) == ([d] if kept else [])

    def test_removal_at_exactly_one_half(self):
        index = AtomIndex(self.kb().facts)
        half = self.decoder(1, 1, index)
        clean = self.decoder(1, 0, index, body_pred=L2)
        assert prune_corrupt([half, clean], self.kb()) == [clean]

    def test_all_corrupt_pool_empties(self):
        bad = self.decoder(0, 1, AtomIndex(self.kb().facts))
        assert prune_corrupt([bad], self.kb()) == []

    def test_idempotent(self):
        clean = self.decoder(1, 0, AtomIndex(self.kb().facts))
        once = prune_corrupt([clean], self.kb())
        assert prune_corrupt(once, self.kb()) == once

    def test_another_kb_rejected(self):
        clean = self.decoder(1, 0, AtomIndex(self.kb().facts))
        with pytest.raises(ValueError, match="another KB"):
            prune_corrupt([clean], kb_of(fact(P2, "a", "b")))
