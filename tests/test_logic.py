"""Clause evaluation, programs, reconstruction loss, clause covering."""

import hashlib
import json
import random
import subprocess
import sys
from functools import reduce
from itertools import permutations

import pytest

from alp.cli import main
from alp.errors import KbSyntaxError
from alp.logic import (
    Alp,
    Clause,
    DECODER,
    DISJUNCTION,
    ENCODER,
    FactStore,
    Literal,
    LogicProgram,
    _join_plan,
    apply_program,
    encode,
    ground_consequences,
    loss_by_predicate,
    loss_parts,
    parse_program,
    reconstruct,
    reconstruction_loss,
    serialize_program,
)
from alp.kb import (
    KnowledgeBase,
    parse_kb,
    rows_by_predicate,
    serialize_kb,
)
from helpers import (
    body_key,
    body_variables,
    brute_force_consequences,
    canonical_body,
    cli_subprocess_env,
    count_facts_built,
    fact,
    herbrand_base,
    kb_of,
    lit,
    load_workloads,
    pred,
    random_alp,
    random_clause,
    random_kb,
    random_kb_and_pool,
    random_kb_with_background,
    random_rich_clause,
    reference_body_key,
    reference_loss_by_predicate,
)

PARENT = pred("parent", 2)
FEMALE = pred("female", 1)
MOTHER = pred("mother", 2)
FATHER = pred("father", 2)
LATENT = pred("latent_1", 2)


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
        loop = pred("loop", 1)
        clause = Clause(lit(loop, "X"), (lit(PARENT, "X", "X"),))
        facts = {fact(PARENT, "a", "a"), fact(PARENT, "a", "b")}
        assert ground_consequences(clause, facts) == {fact(loop, "a")}

    def test_negation_closed_world(self):
        only = pred("only", 1)
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
        seen = {"constant": 0, "arity 0": 0, "negated": 0, "repeat": 0, "or": 0}
        rng = random.Random(41)
        for _ in range(300):
            kb, pool = random_kb_and_pool(rng, max_constants=3, max_facts=8, min_arity=0)
            clause = random_rich_clause(rng, kb, pool)
            assert ground_consequences(clause, kb.facts) == (
                brute_force_consequences(clause, kb.facts)
            ), str(clause)
            literals = (clause.head, *clause.body)
            seen["constant"] += any(
                len(l.variables()) < len(l.args) for l in literals
            )
            seen["arity 0"] += any(not l.args for l in clause.body)
            seen["negated"] += any(l.negated for l in clause.body)
            seen["repeat"] += any(
                len(set(l.variables())) < len(l.variables()) for l in clause.body
            )
            seen["or"] += clause.body_connective == DISJUNCTION
        assert min(seen.values()) >= 20, seen

    def test_head_constant_outside_the_body(self):
        alp = parse_program("#encoder\nlatent_1(X,c) :- p(X,Y).\n#decoder\n")
        p = pred("p", 2)
        kb = kb_of(fact(p, "a", "b"), fact(p, "a", "d"), fact(p, "e", "a"))
        latent = pred("latent_1", 2)
        assert encode(alp, kb) == {fact(latent, "a", "c"), fact(latent, "e", "c")}

    def test_arity_zero_clause(self):
        alp = parse_program("#encoder\nlatent_1 :- q.\n#decoder\n")
        q, r = pred("q", 0), pred("r", 1)
        assert encode(alp, kb_of(fact(q), fact(r, "a"))) == {
            fact(pred("latent_1", 0))
        }
        kb = KnowledgeBase(frozenset([fact(r, "a")]), frozenset([q, r]))
        assert encode(alp, kb) == frozenset()

    def test_negated_arity_zero_literal(self):
        """``not q`` keeps every row when q has no facts and drops every row
        when it has one, through ``encode`` and ``ground_consequences``."""
        alp = parse_program("#encoder\nlatent_1(X) :- r(X),not q.\n#decoder\n")
        (clause,) = alp.encoder.clauses
        q, r = pred("q", 0), pred("r", 1)
        latent = pred("latent_1", 1)
        rows = {fact(r, "a"), fact(r, "b")}
        kept = {fact(latent, "a"), fact(latent, "b")}
        for facts, expected in [(rows, kept), (rows | {fact(q)}, frozenset())]:
            assert ground_consequences(clause, facts) == expected
            assert encode(alp, KnowledgeBase(frozenset(facts), frozenset([q, r]))) == expected

    def test_apply_path_pinned(self):
        """SHA-256 of the encoding and the reconstruction of the benchmark's
        large family KB (family-dec1, seed 1) under FAMILY_PROGRAM, recorded
        with the substitution-dict join."""
        workloads = load_workloads()
        _, large = workloads.generate(workloads.WORKLOADS["family-dec1"], 1)
        kb = parse_kb(large.text)
        alp = parse_program(workloads.FAMILY_PROGRAM)
        digests = [
            hashlib.sha256(
                serialize_kb(KnowledgeBase.from_facts(facts)).encode()
            ).hexdigest()
            for facts in (encode(alp, kb), reconstruct(alp, kb))
        ]
        assert digests == [
            "81786b47311a54e7d91ca367bc34bbbb5659c956b32f2152e960351bfae956db",
            "dd9611a096a558b307f1a284726f509677d59b4959598731d7c63cfc6ff6dc6a",
        ]

    @pytest.mark.parametrize(
        "hashseed, digest",
        [
            ("1", "6c88129616a90a0c34811aacccc2ae58afc9a5bb33d4d01a21a806be94b77423"),
            ("31337", "4eb1918d37cff7d0aaf421af5c11d8351b9b822f3488cb456f98ec02a7930991"),
        ],
        ids=["hashseed-1", "hashseed-31337"],
    )
    def test_encode_set_order_pinned(self, hashseed, digest, tmp_path):
        """SHA-256 of ``str`` of each fact of the encoding of the large
        family KB (family-dec1, seed 1) under FAMILY_PROGRAM, in the
        returned set's iteration order, in a child process with a fixed
        ``PYTHONHASHSEED``.  Recorded with ``Fact`` a dataclass: the order
        holds only while a fact hashes as ``hash((predicate, args))``."""
        workloads = load_workloads()
        _, large = workloads.generate(workloads.WORKLOADS["family-dec1"], 1)
        (tmp_path / "large.facts").write_text(large.text)
        (tmp_path / "family.alp").write_text(workloads.FAMILY_PROGRAM)
        script = (
            "import hashlib, sys\n"
            "from alp.kb import parse_kb\n"
            "from alp.logic import encode, parse_program\n"
            "kb, alp = parse_kb(open(sys.argv[1]).read()), parse_program(open(sys.argv[2]).read())\n"
            "text = '\\n'.join(map(str, encode(alp, kb)))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, tmp_path / "large.facts", tmp_path / "family.alp"],
            capture_output=True,
            text=True,
            env=cli_subprocess_env(hashseed),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == digest

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
            head = lit(pred("latent_1", 2), "X", "Y")
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


class TestJoin:
    """``FactStore.join`` step by step from a start row, each case against
    the brute-force substitutions of the clause it joins."""

    P, Q, R = pred("p", 2), pred("q", 2), pred("r", 1)
    FACTS = {
        fact(P, "a", "a"), fact(P, "a", "b"), fact(P, "b", "c"), fact(P, "c", "c"),
        fact(Q, "a", "b"), fact(Q, "b", "a"), fact(Q, "c", "a"),
        fact(R, "a"), fact(R, "c"),
    }

    def assert_joins(self, start, shapes, head_slots, head, body):
        """The rows joined from ``start`` through ``shapes``, read at the
        head's slots, are the consequences of ``h(head) :- body``."""
        rows = reduce(FactStore(rows_by_predicate(self.FACTS)).join, shapes, [start])
        assert len(rows) == len(set(rows))
        clause = Clause(lit(pred("h", len(head)), *head), body)
        expected = {f.args for f in brute_force_consequences(clause, self.FACTS)}
        assert {tuple(row[s] for s in head_slots) for row in rows} == expected
        assert expected
        return rows

    def test_same_ids_bind_or_not_by_width(self):
        """p's ids (1, 2) bind slot 1 after q(X,Y) and are both new after r(X)."""
        P, Q, R = self.P, self.Q, self.R
        _join_plan.cache_clear()
        self.assert_joins(
            (), [(Q, False, (0, 1)), (P, False, (1, 2))], (0, 1, 2), "XYZ",
            (lit(Q, "X", "Y"), lit(P, "Y", "Z")),
        )
        self.assert_joins(
            (), [(R, False, (0,)), (P, False, (1, 2))], (0, 1, 2), "XYZ",
            (lit(R, "X"), lit(P, "Y", "Z")),
        )
        # one plan per (ids, width): a cached plan serves only its own width
        assert _join_plan((1, 2), 2) == ((0,), (1,), (1,), (), False)
        assert _join_plan((1, 2), 1) == ((), (), (0, 1), (), True)
        assert _join_plan.cache_info().currsize == 4  # q, r, and p at each width

    def test_repeated_new_variable(self):
        P, Q = self.P, self.Q
        rows = self.assert_joins(
            (), [(Q, False, (0, 1)), (P, False, (2, 2))], (0, 1, 2), "XYZ",
            (lit(Q, "X", "Y"), lit(P, "Z", "Z")),
        )
        assert all(len(row) == 3 for row in rows)

    def test_negated_literal(self):
        P, Q = self.P, self.Q
        self.assert_joins(
            (), [(Q, False, (0, 1)), (P, True, (1, 0))], (0, 1), "XY",
            (lit(Q, "X", "Y"), lit(P, "Y", "X", negated=True)),
        )

    def test_start_row_of_constants(self):
        """The start row holds the constant a in slot 0: p(a,Y)."""
        rows = self.assert_joins(
            ("a",), [(self.P, False, (0, 1))], (1,), "Y", (lit(self.P, "a", "Y"),)
        )
        assert all(row[0] == "a" for row in rows)


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
                lit(pred("h", 1), "X"),
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
        l1 = pred("latent_1", 1)
        c1 = Clause(lit(l1, "X"), (lit(PARENT, "X", "Y"),))
        c2 = Clause(lit(l1, "X"), (lit(FEMALE, "X"),))
        facts = {fact(PARENT, "a", "b"), fact(FEMALE, "a"), fact(FEMALE, "c")}
        out = apply_program(LogicProgram((c1, c2), ENCODER), facts)
        assert out == {fact(l1, "a"), fact(l1, "c")}

    def test_output_within_head_herbrand_base(self):

        rng = random.Random(19)
        for _ in range(15):
            kb = random_kb(rng, max_constants=4, max_facts=8)
            clause = random_clause(rng, kb)
            program = LogicProgram((clause,), ENCODER)
            out = apply_program(program, kb.facts)
            constants = {a for f in kb.facts for a in f.args}
            hb = herbrand_base(program.head_predicates(), constants)
            assert out <= hb

    def test_encoder_direction_enforced(self):
        """An encoder's heads are the latents, so a decoder-shaped clause in
        the encoder makes ``mother/2`` a latent, which no decoder may write;
        and each program must sit in its own slot."""
        decoder_shaped = Clause(lit(MOTHER, "X", "Y"), (lit(LATENT, "X", "Y"),))
        encoder = LogicProgram((decoder_shaped,), ENCODER)
        assert Alp(encoder, LogicProgram((), DECODER)).latent_vocabulary == {MOTHER}
        with pytest.raises(ValueError, match="^decoder head mother/2 is not an input$"):
            Alp(encoder, LogicProgram((decoder_shaped,), DECODER))
        with pytest.raises(ValueError, match="wrong slots"):
            Alp(LogicProgram((), DECODER), LogicProgram((), ENCODER))

    def test_non_recursive_enforced(self):
        """A program on its own rejects a predicate that is both a head and
        a body predicate; an encoder names it as the latent it is."""
        l1 = pred("latent_1", 2)
        l2 = pred("latent_2", 2)
        a = Clause(lit(l1, "X", "Y"), (lit(PARENT, "X", "Y"),))
        b = Clause(lit(l2, "X", "Y"), (lit(l1, "X", "Y"),))
        with pytest.raises(ValueError) as error:
            LogicProgram((a, b), ENCODER)
        assert str(error.value) == f"encoder body uses latent latent_1/2, a recursive use in {b}"
        loop = Clause(lit(PARENT, "X", "Y"), (lit(PARENT, "Y", "X"),))
        with pytest.raises(ValueError) as error:
            LogicProgram((loop,), DECODER)
        assert str(error.value) == f"recursive use of parent/2 in {loop}"
        assert LogicProgram((a,), ENCODER).head_predicates() == {l1}


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
        alp = Alp(LogicProgram((), ENCODER), LogicProgram((), DECODER))
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
        male = pred("male", 1)
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


    def test_loss_matches_fact_set_reference(self, tmp_path, capsys):
        """On seeded random KBs and programs, the row-level loss per
        predicate, ``loss_parts`` and ``alp eval --json``'s tally equal a
        reference built from brute-force consequences and fact-set
        differences.  Eval runs when the model mentions every KB predicate
        of arity 1 or more, and otherwise exits 5."""
        seen = dict.fromkeys(
            ["background", "empty head", "unreached", "or", "head constant",
             "recovered", "eval", "eval exit 5"],
            0,
        )
        rng = random.Random(61)
        for _ in range(200):
            kb, pool = random_kb_with_background(rng)
            alp = random_alp(rng, kb, pool)
            expected = reference_loss_by_predicate(alp, kb)
            assert loss_by_predicate(alp, kb) == expected, serialize_program(alp)
            totals = tuple(sum(c[i] for c in expected.values()) for i in (0, 1))
            assert loss_parts(alp, kb) == totals
            assert reconstruction_loss(alp, kb) == sum(totals)

            model, facts = tmp_path / "model.alp", tmp_path / "kb.facts"
            model.write_text(serialize_program(alp), encoding="utf-8")
            facts.write_text(serialize_kb(kb), encoding="utf-8")
            clauses = alp.encoder.clauses + alp.decoder.clauses
            mentioned = {l.predicate for c in clauses for l in (c.head, *c.body)}
            known = all(f.predicate in mentioned for f in kb.facts if f.args)
            code = main(["eval", str(model), str(facts), "--json"])
            out = capsys.readouterr().out
            if not known:
                assert code == 5
                seen["eval exit 5"] += 1
                continue
            assert code == 0
            assert json.loads(out) == {
                "loss": sum(totals),
                "missing": totals[0],
                "false": totals[1],
                "per_predicate": {
                    f"{p.name}/{p.arity}": {"missing": m, "false": f}
                    for p, (m, f) in sorted(expected.items())
                },
            }
            heads = {c.head.predicate for c in alp.decoder.clauses}
            fact_preds = {f.predicate for f in kb.facts}
            seen["eval"] += 1
            seen["background"] += bool(kb.background) and any(
                l.predicate in kb.background_predicates
                for c in alp.encoder.clauses
                for l in c.body
            )
            seen["empty head"] += bool(heads - fact_preds)
            seen["unreached"] += bool(fact_preds - heads)
            seen["or"] += any(
                c.body_connective == DISJUNCTION for c in alp.decoder.clauses
            )
            seen["head constant"] += any(
                len(c.head.variables()) < len(c.head.args) for c in alp.decoder.clauses
            )
            seen["recovered"] += totals[0] < len(kb.facts)
        assert min(seen.values()) >= 20, seen

    def test_loss_and_encode_build_facts_only_for_the_result(self, monkeypatch):
        """On the benchmark's large family KB (family-dec1, seed 1) under
        FAMILY_PROGRAM, ``loss_parts`` builds no ``Fact`` and ``encode`` and
        ``reconstruct`` build one per fact they return."""
        workloads = load_workloads()
        _, large = workloads.generate(workloads.WORKLOADS["family-dec1"], 1)
        kb = parse_kb(large.text)
        alp = parse_program(workloads.FAMILY_PROGRAM)
        built = count_facts_built(monkeypatch)
        assert loss_parts(alp, kb) == (0, large.dropped_parent)
        assert built[0] == 0
        for evaluate in (encode, reconstruct):
            result = evaluate(alp, kb)
            assert built[0] == len(result) > 0
            built[0] = 0


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
        assert pred("male", 1) in body_preds and alp.background == {pred("male", 1)}
        assert parse_program(serialize_program(alp)) == alp

    def test_clause_faults_come_in_line_order(self):
        """A clause is checked as its line is read: its fault comes before
        a syntax fault on a later line, and before the program checks that
        wait for every section (here, a latent in an encoder body)."""
        text = (
            "#decoder\np(X) :- latent_1(Y).\n#encoder\nlatent_1(X) :- latent_1(X).\n"
            "latent_1(X) :- p(X\n"
        )
        with pytest.raises(ValueError, match="^head variable X unbound in body$"):
            parse_program(text)
        with pytest.raises(KbSyntaxError, match="^line 5, column 18: clause must end"):
            parse_program(text.replace("latent_1(Y)", "latent_1(X)"))
        with pytest.raises(ValueError, match="^encoder body uses latent latent_1/1"):
            parse_program(text.replace("latent_1(Y)", "latent_1(X)").replace("p(X\n", "p(X).\n"))

    def test_background_declaration_names_one_arity(self):
        text = (
            "#background p/2\n"
            "#encoder\n"
            "latent_1(X) :- p(X),p(X,Y).\n"
            "#decoder\n"
        )
        alp = parse_program(text)
        body_preds = {l.predicate for c in alp.encoder.clauses for l in c.body}
        assert body_preds == {pred("p", 1), pred("p", 2)} and alp.background == {pred("p", 2)}
        assert parse_program(serialize_program(alp)) == alp

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "#background male/1\n#encoder\nlatent_1(X,Y) :- father(X,Y),male(X).\n"
                "#decoder\nfather(X,Y) :- latent_1(X,Y).\n",
                [
                    {("latent_1/2", "latent"), ("father/2", "input"), ("male/1", "background")},
                    {("father/2", "input"), ("latent_1/2", "latent")},
                ],
            ),
            (
                "#background p/2\n#encoder\nlatent_1(X) :- p(X),p(X,Y).\n#decoder\n",
                [{("latent_1/1", "latent"), ("p/1", "input"), ("p/2", "background")}, set()],
            ),
        ],
        ids=["male", "same-name-other-arity"],
    )
    def test_origins_round_trip(self, text, expected):
        """The role the program gives each predicate it mentions, latent
        (an encoder head), background (declared) or input, survives a write
        and a read."""

        def origins(alp):
            def role(p):
                if p in alp.latent_vocabulary:
                    return "latent"
                return "background" if p in alp.background else "input"

            return [
                {(str(l.predicate), role(l.predicate)) for c in p.clauses for l in (c.head, *c.body)}
                for p in (alp.encoder, alp.decoder)
            ]

        alp = parse_program(text)
        assert origins(alp) == expected
        assert origins(parse_program(serialize_program(alp))) == expected

    def test_latent_name_at_another_arity_is_an_input(self):
        """Latents are keyed by name and arity, so ``latent_1/2`` is an
        input predicate beside the latent ``latent_1/1``."""
        alp = parse_program(
            "#encoder\nlatent_1(X) :- latent_1(X,Y).\n"
            "#decoder\nlatent_1(X,Y) :- latent_1(X),latent_1(Y).\n"
        )
        (encoder,), (decoder,) = alp.encoder.clauses, alp.decoder.clauses
        latents = alp.latent_vocabulary
        assert latents == {pred("latent_1", 1)}
        assert encoder.head.predicate in latents and encoder.body[0].predicate not in latents
        assert decoder.head.predicate not in latents
        assert {l.predicate for l in decoder.body} == latents

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "#encoder\nlatent_1(X) :- p(X).\nlatent_2(X) :- latent_1(X).\n",
                "encoder body uses latent latent_1/1",
            ),
            (
                "#decoder\np(X) :- latent_1(X).\nlatent_1(X) :- latent_1(X).\n"
                "#encoder\nlatent_1(X) :- p(X).\n",
                "decoder head latent_1/1 is not an input",
            ),
            (
                "#encoder\nlatent_1(X) :- p(X).\n#decoder\nq(X,Y) :- latent_1(X,Y).\n",
                "decoder body uses non-latent latent_1/2",
            ),
        ],
        ids=["encoder-body", "decoder-head", "decoder-body-other-arity"],
    )
    def test_latent_named_where_a_program_may_not_use_it(self, text, message):
        """A latent predicate is latent in every position, and heads are
        checked before bodies, so the fault is the latent, not only
        recursion.  A decoder body may read only latents an encoder head
        defines, at their arity."""
        with pytest.raises(ValueError, match=message):
            parse_program(text)

    def test_roles_checked_in_the_library_as_in_text(self):
        """Programs built in the library get the parser's role errors, in
        its order: the encoder first, then decoder heads before bodies."""
        p, q = pred("p", 1), pred("q", 2)
        l1, l2, l1_2 = pred("latent_1", 1), pred("latent_2", 1), pred("latent_1", 2)
        encoder = [Clause(lit(l1, "X"), (lit(p, "X"),)), Clause(lit(l2, "X"), (lit(p, "X"),))]
        reads_latent = Clause(lit(l2, "X"), (lit(l1, "X"),))
        other_arity = Clause(lit(q, "X", "Y"), (lit(l1_2, "X", "Y"),))
        writes_latent = Clause(lit(l1, "X"), (lit(l2, "X"),))
        encoder_fault = f"encoder body uses latent latent_1/1, a recursive use in {reads_latent}"
        cases = [
            ([encoder[0], reads_latent], [], encoder_fault),
            ([encoder[0], reads_latent], [other_arity, writes_latent], encoder_fault),
            (encoder, [other_arity, writes_latent], "decoder head latent_1/1 is not an input"),
            (encoder, [other_arity], "decoder body uses non-latent latent_1/2"),
        ]
        for enc, dec, message in cases:
            text = "".join(
                f"#{direction}\n" + "".join(f"{c}\n" for c in clauses)
                for direction, clauses in ((ENCODER, enc), (DECODER, dec))
            )
            with pytest.raises(ValueError) as parsed:
                parse_program(text)
            with pytest.raises(ValueError) as built:
                Alp(LogicProgram(tuple(enc), ENCODER), LogicProgram(tuple(dec), DECODER))
            assert str(parsed.value) == str(built.value) == message

    def test_decoder_roles_checked_once_per_parse(self, monkeypatch):
        """``parse_program`` checks a decoder's roles once, before its
        recursion check, and names each fault in the same words; the
        program it returns equals the one ``Alp`` checks and builds."""
        import alp.logic

        calls = []
        check = alp.logic._check_decoder

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(alp.logic, "_check_decoder", counted)
        encoder = "#encoder\nlatent_1(X) :- p(X).\n"
        parsed = parse_program(encoder + "#decoder\np(X) :- latent_1(X).\n")
        assert len(calls) == 1
        assert type(parsed) is Alp
        assert parsed == Alp(parsed.encoder, parsed.decoder, parsed.background)
        for decoder, message in [
            ("latent_1(X) :- latent_1(X).", "decoder head latent_1/1 is not an input"),
            ("q(X) :- latent_1(X).\np(X) :- q(X).",
             "decoder body uses non-latent q/1, a recursive use in p(X) :- q(X)."),
            ("p(X) :- r(X).", "decoder body uses non-latent r/1"),
        ]:
            calls.clear()
            with pytest.raises(ValueError) as fault:
                parse_program(f"{encoder}#decoder\n{decoder}\n")
            assert (str(fault.value), len(calls)) == (message, 1)

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

    def test_body_columns_count_from_line_start(self):
        for text, column in [
            ("#encoder\nlatent_1(X):-p(X);q(X),r(X).\n", 23),
            ("#encoder\nlatent_1(X) :- p(X),not\tq(X).\n", 25),
        ]:
            with pytest.raises(KbSyntaxError, match="trailing") as err:
                parse_program(text)
            assert (err.value.line, err.value.column) == (2, column)

    def test_negated_head_rejected(self):
        with pytest.raises(KbSyntaxError, match="positive") as err:
            parse_program("#encoder\nlatent_1(X) :- p(X).\nnot latent_2(X) :- p(X).\n")
        assert (err.value.line, err.value.column) == (3, 1)

    def test_text_after_directive_rejected(self):
        for text, line, column in [
            ("#encoder junk\nlatent_1(X) :- p(X).\n", 1, 10),
            ("#background p/1 junk\n#encoder\nlatent_1(X) :- p(X).\n", 1, 17),
            ("#encoder\nlatent_1(X) :- p(X).\n#decoder\t% c\n#decoder x\n", 4, 10),
        ]:
            with pytest.raises(KbSyntaxError, match="trailing") as err:
                parse_program(text)
            assert (err.value.line, err.value.column) == (line, column)

    def test_family_program_pinned(self):
        """SHA-256 of the benchmark's FAMILY_PROGRAM parsed and written back,
        recorded with the two-pass parser."""
        alp = parse_program(load_workloads().FAMILY_PROGRAM)
        digest = hashlib.sha256(serialize_program(alp).encode()).hexdigest()
        assert digest == "118426fa2f98b4d781f0b9700f0f7818a4347253fc0434cf4c47481aa5e6a82d"


def _outcome(text):
    """The program written back by ``serialize_program``, or the (line,
    column) of the syntax error."""
    try:
        alp = parse_program(text)
    except KbSyntaxError as err:
        return err.line, err.column
    return serialize_program(alp)


# Outcomes recorded with the two-pass parser that came before the line
# reader, except the two body columns of test_body_columns_count_from_line_start,
# which it counted from the start of the split-off literal, and the
# ``#background p/2`` entry, which it read as p at every arity.
@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "#encoder\nlatent_1(X) :- not(X).\n",
            "#encoder\nlatent_1(X) :- not(X).\n#decoder\n",
        ),
        ("#encoder\nlatent_1(X) :- p(X),not\tq(X).\n", (2, 25)),
        ("#encoder\nlatent_1(X):-p(X);q(X),r(X).\n", (2, 23)),
        (
            "#encoder\nlatent_1(X) :- p(X),not  q(X).\n",
            "#encoder\nlatent_1(X) :- p(X),not q(X).\n#decoder\n",
        ),
        (
            "#decoder\np(X) :- latent_1(X).\n#encoder\nlatent_1(X) :- p(X).\n",
            "#encoder\nlatent_1(X) :- p(X).\n#decoder\np(X) :- latent_1(X).\n",
        ),
        (
            "#encoder\nlatent_1(X) :- p(X,a).\n",
            "#encoder\nlatent_1(X) :- p(X,a).\n#decoder\n",
        ),
        (  # #background p/2 leaves p/1 an input predicate
            "#background p/2\n#encoder\nlatent_1(X) :- p(X).\n",
            "#encoder\nlatent_1(X) :- p(X).\n#decoder\n",
        ),
        (
            "#encoder\nlatent_1(X) :- p(X). % c\n\xa0\n#decoder\np(X) :- latent_1(X).\xa0\n",
            "#encoder\nlatent_1(X) :- p(X).\n#decoder\np(X) :- latent_1(X).\n",
        ),
        (
            "#encoder\nlatent_1(X) :-\xa0p(X).\n",
            "#encoder\nlatent_1(X) :- p(X).\n#decoder\n",
        ),
        ("#encoder\nlatent_1(X) q :- p(X).\n", (2, 13)),
        ("latent_1(X) :- p(X).\n", (1, 1)),
        ("#encoder\nlatent_1(X) p(X).\n", (2, 1)),
        ("#encoder\nlatent_1(X) :- p(X)\n", (2, 19)),
        ("#encoder\nL(X) :- p(X).\n", (2, 2)),
        ("#pred p/1\n", (1, 6)),
    ],
)
def test_parse_outcome_pinned(text, expected):
    assert _outcome(text) == expected


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
                head = lit(pred("h", len(variables)), *map(str, variables))
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
            renaming = {v: n for v, n in zip(body_variables(body), names)}
            renamed = [
                Literal(l.predicate, tuple(renaming[a] for a in l.args)) for l in body
            ]
            rng.shuffle(renamed)
            assert body_key(tuple(renamed)) == body_key(body)

    def test_body_key_matches_naive_reference_on_ties(self):
        """Bodies of one repeated binary predicate, whose literals render
        alike on their own, so that several literal orders stay least for
        one or more steps of the key's search: each, in shuffled literal
        orders with shuffled variable names, keys as the naive reference
        does and as the body itself does."""
        p = pred("p", 2)
        v = [f"V{i}" for i in range(7)]
        bodies = []
        for n in range(2, 7):
            bodies.append(tuple(lit(p, v[i], v[(i + 1) % n]) for i in range(n)))  # cycle
            bodies.append(tuple(lit(p, v[i], v[i + 1]) for i in range(n)))  # chain
            bodies.append(tuple(lit(p, v[0], v[i + 1]) for i in range(n)))  # out-star
            bodies.append(tuple(lit(p, v[i + 1], v[0]) for i in range(n)))  # in-star
        bodies += [
            (lit(p, "X", "Y"), lit(p, "Y", "X")),
            (lit(p, "X", "Y"), lit(p, "Z", "Y")),  # standalone texts equal
            (lit(p, "X", "Y"), lit(p, "Z", "W")),
            (lit(p, "X", "a"), lit(p, "Y", "a")),
            (lit(p, "X", "Y"), lit(p, "Y", "a"), lit(p, "a", "X")),  # constant in a cycle
            (lit(p, "X", "a"), lit(p, "X", "b"), lit(p, "Y", "X"), lit(p, "Z", "X")),
            (lit(p, "X", "Y"), lit(p, "Y", "Z"), lit(p, "Z", "X"), lit(p, "X", "X")),
            (lit(p, "X", "Y"), lit(p, "Y", "Z"), lit(p, "X", "Z", negated=True)),
            (lit(p, "X", "Y"), lit(p, "Y", "Z"), lit(p, "Z", "W"), lit(p, "W", "Y")),
        ]
        rng = random.Random(29)
        for body in bodies:
            variables = body_variables(body)
            for _ in range(4):
                names = [f"A{i}" for i in range(len(variables))]
                rng.shuffle(names)
                renaming = dict(zip(variables, names))
                shuffled = [
                    lit(l.predicate, *(renaming.get(a, a) for a in l.args), negated=l.negated)
                    for l in body
                ]
                rng.shuffle(shuffled)
                shuffled = tuple(shuffled)
                assert body_key(shuffled) == reference_body_key(shuffled), shuffled
                assert body_key(shuffled) == body_key(body), shuffled

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
