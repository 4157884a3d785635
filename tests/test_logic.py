"""Clause evaluation, programs, reconstruction loss, clause covering."""

import random
from itertools import permutations

import pytest

from alp.logic import (
    Alp,
    CONJUNCTION,
    Clause,
    DECODER,
    DISJUNCTION,
    ENCODER,
    Literal,
    LogicProgram,
    Variable,
    apply_program,
    body_key,
    body_variables,
    ground_consequences,
    loss_parts,
    parse_program,
    reconstruction_loss,
    serialize_program,
)
from helpers import (
    brute_force_consequences,
    canonical_body,
    fact,
    kb_of,
    lit,
    pred,
    random_clause,
    random_kb,
    reference_body_key,
)

PARENT = pred("parent", 2)
FEMALE = pred("female", 1)
MOTHER = pred("mother", 2)
FATHER = pred("father", 2)
LATENT = pred("latent_1", 2, "latent")


class TestGroundConsequences:
    def test_conjunction_join(self):
        clause = Clause(
            lit(MOTHER, "X", "Y"),
            (lit(PARENT, "X", "Y"), lit(FEMALE, "X")),
        )
        facts = {
            fact(PARENT, "a", "b"),
            fact(PARENT, "b", "c"),
            fact(FEMALE, "a"),
            fact(FEMALE, "b"),
        }
        assert ground_consequences(clause, facts) == {
            fact(MOTHER, "a", "b"),
            fact(MOTHER, "b", "c"),
        }

    def test_disjunction_union(self):
        clause = Clause(
            lit(LATENT, "X", "Y"),
            (lit(MOTHER, "X", "Y"), lit(FATHER, "X", "Y")),
            DISJUNCTION,
        )
        facts = {fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke")}
        assert ground_consequences(clause, facts) == {
            fact(LATENT, "padme", "leia"),
            fact(LATENT, "vader", "luke"),
        }

    def test_empty_facts(self):
        clause = Clause(lit(LATENT, "X", "Y"), (lit(PARENT, "X", "Y"),))
        assert ground_consequences(clause, set()) == frozenset()

    def test_repeated_variable_in_literal(self):
        loop = pred("loop", 1, "latent")
        clause = Clause(lit(loop, "X"), (lit(PARENT, "X", "X"),))
        facts = {fact(PARENT, "a", "a"), fact(PARENT, "a", "b")}
        assert ground_consequences(clause, facts) == {fact(loop, "a")}

    def test_negation_closed_world(self):
        only = pred("only", 1, "latent")
        clause = Clause(
            lit(only, "X"),
            (lit(PARENT, "X", "Y"), lit(FEMALE, "X", negated=True)),
        )
        facts = {
            fact(PARENT, "a", "b"),
            fact(PARENT, "c", "d"),
            fact(FEMALE, "a"),
        }
        assert ground_consequences(clause, facts) == {fact(only, "c")}

    def test_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            kb = random_kb(rng, max_constants=4, max_facts=8)
            clause = random_clause(rng, kb)
            assert ground_consequences(clause, kb.facts) == (
                brute_force_consequences(clause, kb.facts)
            ), str(clause)

    def test_disjunction_equals_union_of_disjuncts(self):
        rng = random.Random(23)
        for _ in range(30):
            kb = random_kb(rng, max_constants=4, max_facts=8)
            preds2 = sorted(
                (p for p in kb.vocabulary if p.arity == 2),
                key=lambda p: p.name,
            )
            if len(preds2) < 2:
                continue
            head = lit(pred("latent_1", 2, "latent"), "X", "Y")
            both = Clause(
                head,
                (lit(preds2[0], "X", "Y"), lit(preds2[1], "X", "Y")),
                DISJUNCTION,
            )
            first = Clause(head, (lit(preds2[0], "X", "Y"),))
            second = Clause(head, (lit(preds2[1], "X", "Y"),))
            assert ground_consequences(both, kb.facts) == (
                ground_consequences(first, kb.facts)
                | ground_consequences(second, kb.facts)
            )

    def test_monotone_in_facts(self):
        rng = random.Random(29)
        for _ in range(30):
            kb = random_kb(rng, max_constants=4, max_facts=10)
            clause = random_clause(rng, kb)
            smaller = set(
                f for f in sorted(kb.facts, key=str)[: len(kb.facts) // 2]
            )
            assert ground_consequences(clause, smaller) <= (
                ground_consequences(clause, kb.facts)
            )


class TestClauseInvariants:
    def test_head_must_be_positive(self):
        with pytest.raises(ValueError):
            Clause(lit(MOTHER, "X", "Y", negated=True), (lit(PARENT, "X", "Y"),))

    def test_range_restriction(self):
        with pytest.raises(ValueError, match="unbound"):
            Clause(lit(MOTHER, "X", "Z"), (lit(PARENT, "X", "Y"),))

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            Clause(lit(MOTHER, "X", "Y"), ())

    def test_disjunction_requires_identical_tuples(self):
        with pytest.raises(ValueError, match="argument tuple"):
            Clause(
                lit(LATENT, "X", "Y"),
                (lit(MOTHER, "X", "Y"), lit(FATHER, "Y", "X")),
                DISJUNCTION,
            )

    def test_negated_variable_needs_positive_occurrence(self):
        with pytest.raises(ValueError, match="unsafe"):
            Clause(
                lit(pred("h", 1, "latent"), "X"),
                (lit(FEMALE, "X"), lit(PARENT, "X", "Y", negated=True)),
            )


class TestPrograms:
    def test_empty_program_yields_nothing(self):
        program = LogicProgram((), ENCODER)
        assert apply_program(program, {fact(PARENT, "a", "b")}) == frozenset()

    def test_disjunctive_encoder_entails_four(self):
        clause = Clause(
            lit(LATENT, "X", "Y"),
            (lit(MOTHER, "X", "Y"), lit(FATHER, "X", "Y")),
            DISJUNCTION,
        )
        program = LogicProgram((clause,), ENCODER)
        facts = {
            fact(MOTHER, "padme", "luke"),
            fact(MOTHER, "padme", "leia"),
            fact(FATHER, "vader", "luke"),
            fact(FATHER, "vader", "leia"),
        }
        assert len(apply_program(program, facts)) == 4

    def test_overlapping_heads_union(self):
        l1 = pred("latent_1", 1, "latent")
        c1 = Clause(lit(l1, "X"), (lit(PARENT, "X", "Y"),))
        c2 = Clause(lit(l1, "X"), (lit(FEMALE, "X"),))
        facts = {fact(PARENT, "a", "b"), fact(FEMALE, "a"), fact(FEMALE, "c")}
        out = apply_program(LogicProgram((c1, c2), ENCODER), facts)
        assert out == {fact(l1, "a"), fact(l1, "c")}

    def test_output_within_head_herbrand_base(self):
        from alp.kb import herbrand_base

        rng = random.Random(19)
        for _ in range(15):
            kb = random_kb(rng, max_constants=4, max_facts=8)
            clause = random_clause(rng, kb)
            program = LogicProgram((clause,), ENCODER)
            out = apply_program(program, kb.facts)
            hb = herbrand_base(program.head_predicates(), kb.constants)
            assert out <= hb

    def test_encoder_direction_enforced(self):
        decoder_shaped = Clause(lit(MOTHER, "X", "Y"), (lit(LATENT, "X", "Y"),))
        with pytest.raises(ValueError, match="latent"):
            LogicProgram((decoder_shaped,), ENCODER)

    def test_non_recursive_enforced(self):
        l1 = pred("latent_1", 2, "latent")
        l2 = pred("latent_2", 2, "latent")
        a = Clause(lit(l1, "X", "Y"), (lit(PARENT, "X", "Y"),))
        with pytest.raises(ValueError, match="recursive"):
            LogicProgram(
                (
                    a,
                    Clause(lit(l2, "X", "Y"), (lit(l1, "X", "Y"),)),
                ),
                ENCODER,
            )


def family_alp() -> Alp:
    return parse_program(
        "#encoder\n"
        "latent_1(X,Y) :- mother(X,Y);father(X,Y).\n"
        "#decoder\n"
        "mother(X,Y) :- latent_1(X,Y).\n"
        "father(X,Y) :- latent_1(X,Y).\n"
    )


class TestReconstructionLoss:
    def test_lossless_is_zero(self):
        alp = parse_program(
            "#encoder\nlatent_1(X,Y) :- mother(X,Y).\n"
            "#decoder\nmother(X,Y) :- latent_1(X,Y).\n"
        )
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        assert reconstruction_loss(alp, kb) == 0

    def test_missing_and_false_each_count(self):
        # latent merges mother and father, so both decode back to both
        # predicates: each original fact gets one false sibling.
        alp = family_alp()
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke"))
        missing, false = loss_parts(alp, kb)
        assert (missing, false) == (0, 2)
        assert reconstruction_loss(alp, kb) == 2

    def test_everything_missing_with_empty_programs(self):
        alp = Alp(
            LogicProgram((), ENCODER), LogicProgram((), DECODER), frozenset()
        )
        kb = kb_of(fact(pred("p", 1), "a"))
        assert reconstruction_loss(alp, kb) == 1

    def test_loss_decomposition(self):
        alp = family_alp()
        kb = kb_of(
            fact(MOTHER, "padme", "leia"),
            fact(FATHER, "vader", "luke"),
            fact(pred("saber", 2), "vader", "red"),
        )
        missing, false = loss_parts(alp, kb)
        assert missing >= 0 and false >= 0
        assert reconstruction_loss(alp, kb) == missing + false

    def test_background_excluded_from_loss(self):
        male = pred("male", 1, "background")
        alp = parse_program(
            "#background male/1\n"
            "#encoder\nlatent_1(X,Y) :- father(X,Y),male(X).\n"
            "#decoder\nfather(X,Y) :- latent_1(X,Y).\n"
        )
        kb = kb_of(
            fact(FATHER, "vader", "luke"),
            background=[fact(male, "vader")],
        )
        assert reconstruction_loss(alp, kb) == 0


class TestProgramText:
    def test_round_trip(self):
        alp = family_alp()
        assert parse_program(serialize_program(alp)) == alp

    def test_background_declaration_round_trips(self):
        text = (
            "#background male/1\n"
            "#encoder\n"
            "latent_1(X) :- father(X,Y),male(X).\n"
            "#decoder\n"
        )
        alp = parse_program(text)
        body_preds = {l.predicate for c in alp.encoder.clauses for l in c.body}
        assert pred("male", 1, "background") in body_preds
        assert parse_program(serialize_program(alp)) == alp

    def test_clause_outside_section_rejected(self):
        with pytest.raises(Exception, match="section"):
            parse_program("latent_1(X) :- p(X).\n")

    def test_negated_literal_round_trips(self):
        text = (
            "#encoder\n"
            "latent_1(X) :- female(X),not parent(X,X).\n"
            "#decoder\n"
        )
        alp = parse_program(text)
        assert any(
            l.negated for c in alp.encoder.clauses for l in c.body
        )
        assert parse_program(serialize_program(alp)) == alp


class TestCanonicalForms:
    def test_body_key_invariant_to_order_and_names(self):
        p, q = pred("p", 2), pred("q", 1)
        b1 = (lit(p, "X", "Y"), lit(q, "Y"))
        b2 = (lit(q, "A"), lit(p, "B", "A"))
        assert body_key(b1) == body_key(b2)

    def test_distinct_bodies_distinct_keys(self):
        p = pred("p", 2)
        b1 = (lit(p, "X", "Y"), lit(p, "Y", "Z"))
        b2 = (lit(p, "X", "Y"), lit(p, "X", "Z"))
        assert body_key(b1) != body_key(b2)

    def test_canonical_body_preserves_semantics(self):
        rng = random.Random(37)
        for _ in range(30):
            kb = random_kb(rng, max_constants=4, max_facts=8)
            body = random_clause(rng, kb).body
            # A head over every variable lists the satisfying substitutions;
            # renaming the variables only permutes its columns.
            tables = []
            for b in (body, canonical_body(body)):
                variables = body_variables(b)
                head = lit(pred("h", len(variables), "latent"), *map(str, variables))
                tables.append(
                    {f.args for f in ground_consequences(Clause(head, b), kb.facts)}
                )
            original, canon = tables
            assert any(
                {tuple(t[i] for i in order) for t in original} == canon
                for order in permutations(range(len(variables)))
            )
            names = ["A", "B", "C", "D"]
            rng.shuffle(names)
            renaming = {v: Variable(n) for v, n in zip(body_variables(body), names)}
            renamed = [
                Literal(l.predicate, tuple(renaming[a] for a in l.args)) for l in body
            ]
            rng.shuffle(renamed)
            assert body_key(tuple(renamed)) == body_key(body)

    def test_body_key_matches_naive_reference(self):
        """Seeded random bodies of 1-4 literals, with repeated variables,
        constants, at most one negated literal and up to 16 variables, so
        that the display names V8, V9, ... occur and sort before X."""
        rng = random.Random(71)
        preds = [pred(f"p{a}{k}", a) for a in range(1, 5) for k in range(3)]
        binary = [p for p in preds if p.arity == 2]
        names = [chr(ord("A") + i) for i in range(16)]
        past_eight = 0
        for _ in range(400):
            body, used = [], []
            for i in range(rng.randint(1, 4)):
                p = rng.choice(preds)
                args = []
                for _ in range(p.arity):
                    r = rng.random()
                    if r < 0.15:
                        args.append(rng.choice(["a", "b"]))
                    elif r < 0.4 and used:
                        args.append(rng.choice(used))  # a repeated variable
                    else:
                        used.append(names[len(used)])
                        args.append(used[-1])
                negated = i > 0 and not any(l.negated for l in body)
                body.append(lit(p, *args, negated=negated and rng.random() < 0.3))
            body = tuple(body)
            key = body_key(body)
            assert key == reference_body_key(body)
            past_eight += "V8" in key
            shared = [rng.choice(names[:3]) for _ in range(2)]
            disjuncts = tuple(
                lit(q, *shared) for q in rng.sample(binary, rng.randint(2, 3))
            )
            assert body_key(disjuncts, DISJUNCTION) == reference_body_key(
                disjuncts, DISJUNCTION
            )
        assert past_eight >= 10
