"""Body enumeration under mode bias, head generation, candidate pools."""

import hashlib
import importlib.util
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from alp.candidates import (
    AtomIndex,
    GenerationConfig,
    enumerate_bodies,
    extend_body,
    generate_decoder_candidates,
    generate_encoder_candidates,
    latent_facts,
    latent_ordinal,
)
from alp.errors import CapacityError
from alp.kb import KnowledgeBase, ModeDeclaration, parse_kb
from alp.logic import (
    CONJUNCTION,
    DISJUNCTION,
    ENCODER,
    Clause,
    LogicProgram,
    apply_program,
    body_key,
    ground_consequences,
)
from alp.pipeline import prepare_pool
from alp.pruning import prune_naming_variants
from helpers import (
    brute_force_consequences,
    candidate,
    default_config,
    fact,
    fig1_kb,
    kb_of,
    lit,
    pred,
    random_kb,
)

P2 = pred("p", 2)
Q1 = pred("q", 1)
APPENDIX_MODES = {
    P2: ModeDeclaration(P2, ("+", "-")),
    Q1: ModeDeclaration(Q1, ("-",)),
}


def body_strings(bodies):
    return {
        ";".join(map(str, lits)) if conn == DISJUNCTION else ",".join(map(str, lits))
        for lits, conn in bodies
    }


class TestGenerationConfig:
    def test_body_lengths_stop_at_the_canonicalisation_cap(self):
        GenerationConfig(max_encoder_body_len=6, max_decoder_body_len=6)
        for field in ("max_encoder_body_len", "max_decoder_body_len"):
            for length in (0, 7):
                with pytest.raises(ValueError, match="body lengths"):
                    GenerationConfig(**{field: length})


class TestBodyEnumeration:
    def test_appendix_extension_of_p(self):
        exts = extend_body((lit(P2, "X", "Y"),), [P2, Q1], APPENDIX_MODES)
        assert {",".join(map(str, e)) for e in exts} == {
            "p(X,Y),p(Y,Z)",
            "p(X,Y),p(X,Z)",
            "p(X,Y),q(X)",
            "p(X,Y),q(Y)",
        }

    def test_initial_bodies_are_single_predicates(self):
        bodies = enumerate_bodies([P2, Q1], APPENDIX_MODES, 1, allow_disjunction=False)
        assert body_strings(bodies) == {"p(X,Y)", "q(X)"}

    def test_two_step_enumeration_is_deduplicated(self):
        bodies = enumerate_bodies([P2, Q1], APPENDIX_MODES, 2, allow_disjunction=False)
        assert body_strings(bodies) == {
            "p(X,Y)",
            "q(X)",
            "p(X,Y),p(Y,Z)",
            "p(X,Y),p(X,Z)",
            "p(X,Y),q(X)",
            "p(X,Y),q(Y)",
        }

    def test_disjunction_of_equal_arity_predicates(self):
        mother, father = pred("mother", 2), pred("father", 2)
        bodies = enumerate_bodies([father, mother], {}, 2, allow_disjunction=True)
        assert "father(X,Y);mother(X,Y)" in body_strings(bodies)

    def test_disjunction_never_mixes_arities(self):
        bodies = enumerate_bodies([P2, Q1], {}, 3, allow_disjunction=True)
        for lits, conn in bodies:
            if conn == DISJUNCTION:
                assert len({l.predicate.arity for l in lits}) == 1

    def test_every_body_is_connected(self):
        rng = random.Random(41)
        for _ in range(10):
            kb = random_kb(rng, max_facts=4)
            predicates = sorted(kb.vocabulary, key=lambda p: (p.name, p.arity))
            bodies = enumerate_bodies(predicates, {}, 3, allow_disjunction=False)
            for lits, _ in bodies:
                seen = set(lits[0].variables())
                rest = list(lits[1:])
                while rest:
                    attached = [
                        l for l in rest if set(l.variables()) & seen
                    ]
                    assert attached, f"disconnected body {lits}"
                    for l in attached:
                        seen.update(l.variables())
                        rest.remove(l)

    def test_either_mode_allows_both_bindings(self):
        bodies = enumerate_bodies([P2], {}, 2, allow_disjunction=False)
        # '?' on both slots: reversed, repeated, and fresh bindings all legal
        assert "p(X,Y),p(Y,X)" in body_strings(bodies)
        assert "p(X,Y),p(X,X)" in body_strings(bodies)
        assert "p(X,Y),p(Y,Z)" in body_strings(bodies)

    def test_negation_generates_one_safe_literal(self):
        bodies = enumerate_bodies(
            [P2, Q1], {}, 2, allow_disjunction=False, allow_negation=True
        )
        negated = [
            (lits, conn)
            for lits, conn in bodies
            if any(l.negated for l in lits)
        ]
        assert negated
        for lits, _ in negated:
            assert sum(l.negated for l in lits) == 1
            positive_vars = {
                v for l in lits if not l.negated for v in l.variables()
            }
            for l in lits:
                if l.negated:
                    assert set(l.variables()) <= positive_vars


def encoder_heads(body, facts, **config):
    """Head arguments of the encoder candidates over one body, in ordinal
    order, checking that the ordinals run on without a gap."""
    cands = [
        c
        for c in generate_encoder_candidates(
            kb_of(*facts), APPENDIX_MODES, default_config(**config)
        )
        if ",".join(map(str, c.clause.body)) == body
    ]
    ordinals = [latent_ordinal(c.clause.head.predicate) for c in cands]
    assert ordinals == list(range(ordinals[0], ordinals[0] + len(cands)))
    return [tuple(map(str, c.clause.head.args)) for c in cands]


CHAIN_FACTS = (fact(P2, "a", "b"), fact(P2, "b", "c"), fact(Q1, "a"))


class TestHeadGeneration:
    def test_appendix_head_forms(self):
        # the two-variable heads listed in the appendix, after all singletons
        assert encoder_heads("p(X,Y),p(Y,Z)", CHAIN_FACTS) == [
            ("X",), ("Y",), ("Z",), ("X", "Y"), ("X", "Z"), ("Y", "Z"),
        ]

    def test_single_variable_body(self):
        assert encoder_heads("q(X)", CHAIN_FACTS) == [("X",)]

    def test_head_cap_limits_subset_size(self):
        heads = encoder_heads("p(X,Y),p(Y,Z)", CHAIN_FACTS, max_head_vars=1)
        assert heads == [("X",), ("Y",), ("Z",)]

    def test_head_args_follow_first_appearance(self):
        r3 = pred("r", 3)
        heads = encoder_heads("r(X,Y,Z)", [fact(r3, "a", "b", "c")], max_head_vars=3)
        assert heads[-1] == ("X", "Y", "Z")
        for args in heads:
            assert list(args) == sorted(args, key="XYZ".index)


class TestEncoderCandidates:
    def test_single_fact_kb(self):
        kb = kb_of(fact(P2, "a", "b"))
        config = default_config(max_encoder_body_len=1)
        cands = generate_encoder_candidates(kb, {}, config)
        heads = {
            tuple(str(a) for a in c.clause.head.args) for c in cands
        }
        assert heads == {("X",), ("Y",), ("X", "Y")}
        assert all(c.weight == 1 for c in cands)

    def test_empty_vocabulary(self):
        kb = KnowledgeBase(frozenset(), frozenset(), frozenset())
        assert generate_encoder_candidates(kb, {}, default_config()) == []

    def test_fig1_disjunctive_weight_four(self):
        cands = generate_encoder_candidates(fig1_kb(), {}, default_config())
        disjunctive = [
            c
            for c in cands
            if c.clause.body_connective == DISJUNCTION
            and {l.predicate.name for l in c.clause.body}
            == {"mother", "father"}
            and c.clause.head.predicate.arity == 2
        ]
        assert any(c.weight == 4 for c in disjunctive)

    def test_zero_consequence_candidates_dropped(self):
        kb = parse_kb("#pred p/2\n#pred q/1\np(a,b).")
        cands = generate_encoder_candidates(
            kb, {}, default_config(max_encoder_body_len=1)
        )
        assert all(c.mask for c in cands)
        assert not any(
            l.predicate == Q1 for c in cands for l in c.clause.body
        )

    def test_weight_matches_program_application(self):
        """The decoded bitset of every encoder and decoder is its brute-force
        consequence set, and the weight is the bitset's popcount."""
        rng = random.Random(43)
        for _ in range(10):
            kb = random_kb(rng, max_facts=8)
            encoders = generate_encoder_candidates(kb, {}, default_config())
            for cand in encoders:
                program = LogicProgram((cand.clause,), ENCODER)
                entailed = apply_program(program, kb.facts | kb.background)
                assert cand.facts() == entailed == brute_force_consequences(
                    cand.clause, kb.facts | kb.background
                )
                assert cand.weight == bin(cand.mask).count("1") == len(entailed)
            context = latent_facts(encoders)
            for cand in generate_decoder_candidates(encoders, kb, default_config()):
                assert cand.facts() == brute_force_consequences(cand.clause, context)
                assert cand.weight == bin(cand.mask).count("1")

    def test_deterministic_naming(self):
        rng = random.Random(47)
        kb = random_kb(rng)
        a = generate_encoder_candidates(kb, {}, default_config())
        b = generate_encoder_candidates(kb, {}, default_config())
        assert [str(c.clause) for c in a] == [str(c.clause) for c in b]

    def test_range_restriction_everywhere(self):
        rng = random.Random(53)
        kb = random_kb(rng)
        for cand in generate_encoder_candidates(kb, {}, default_config()):
            body_vars = {
                v
                for l in cand.clause.body
                if not l.negated
                for v in l.variables()
            }
            assert set(cand.clause.head.variables()) <= body_vars

    def test_max_len_one_candidate_count(self):
        kb = parse_kb("p(a,b).\nq(c).\nr(d,e).")
        cands = generate_encoder_candidates(
            kb, {}, default_config(max_encoder_body_len=1)
        )
        # arity-2 predicates contribute 3 head subsets each, arity-1 one
        assert len(cands) == 3 + 1 + 3

    def test_capacity_ceiling(self):
        kb = fig1_kb()
        with pytest.raises(CapacityError):
            generate_encoder_candidates(
                kb, {}, default_config(max_candidates=5)
            )

    def test_latent_namespace_collision_rejected(self):
        kb = parse_kb("latent_3(a,b).")
        with pytest.raises(ValueError, match="latent namespace"):
            generate_encoder_candidates(kb, {}, default_config())


class TestDecoderCandidates:
    def test_arity_matched_single_literal(self):
        latent = pred("latent_1", 2, "latent")
        enc = candidate(
            Clause(lit(latent, "X", "Y"), (lit(P2, "X", "Y"),)),
            ENCODER,
            [fact(latent, "a", "b")],
            AtomIndex(),
        )
        kb = kb_of(fact(P2, "a", "b"))
        cands = generate_decoder_candidates([enc], kb, default_config())
        arity2 = [c for c in cands if c.clause.head.predicate == P2]
        assert len(arity2) >= 1
        assert any(c.facts() == {fact(P2, "a", "b")} for c in arity2)

    def test_no_latent_facts_no_candidates(self):
        kb = kb_of(fact(P2, "a", "b"))
        assert generate_decoder_candidates([], kb, default_config()) == []

    def test_two_literal_decoder_body_shape(self):
        # mirror of the paper's mother(X,Y) :- latent1(X,Y),latent2(X)
        kb = fig1_kb()
        config = default_config(max_decoder_body_len=2, max_candidates=500_000)
        encoders = generate_encoder_candidates(kb, {}, config)
        from alp.pruning import prune_naming_variants

        decoders = generate_decoder_candidates(
            prune_naming_variants(encoders), kb, config
        )
        shapes = {
            (
                len(c.clause.body),
                tuple(l.predicate.arity for l in c.clause.body),
            )
            for c in decoders
            if c.clause.body_connective == CONJUNCTION
        }
        assert (2, (2, 1)) in shapes or (2, (1, 2)) in shapes

    def test_consequences_computed_on_latent_union(self):
        """On seeded random KBs, each decoder's decoded bitset is its
        consequence set on the union of the encoders' latent facts, by the
        join and by brute force, and the KB is the low bits of its index."""
        rng = random.Random(59)
        for _ in range(5):
            kb = random_kb(rng, max_facts=6)
            config = default_config(allow_negation=True)
            encoders = generate_encoder_candidates(kb, {}, config)
            context = latent_facts(encoders)
            for cand in generate_decoder_candidates(encoders, kb, config):
                facts = cand.facts()
                assert facts == ground_consequences(cand.clause, context)
                assert facts == brute_force_consequences(cand.clause, context)
                assert cand.weight == len(facts)
                kb_mask = cand.index.kb_mask
                assert kb_mask == (1 << len(kb.facts)) - 1
                assert (cand.mask & kb_mask).bit_count() == len(facts & kb.facts)

    def test_decoder_heads_are_input_predicates(self):
        rng = random.Random(61)
        kb = random_kb(rng, max_facts=6)
        encoders = generate_encoder_candidates(kb, {}, default_config())
        for cand in generate_decoder_candidates(encoders, kb, default_config()):
            assert cand.clause.head.predicate in kb.input_predicates


def _load_workloads():
    """The benchmark's seeded KB generators (``bench/workloads.py``, which
    does not import alp)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _pool(kb, config):
    """The pool stages in ``prepare_pool`` order: encoders, naming-variant
    survivors, decoders over the survivors."""
    encoders = generate_encoder_candidates(kb, {}, config)
    kept = prune_naming_variants(encoders)
    return encoders, kept, generate_decoder_candidates(kept, kb, config)


@pytest.mark.parametrize(
    "case, sizes, digest",
    [
        ("fig1-dec1", (130, 175),
         "8cce35c82f496425fb4ae33fe2ea3f63c2ae754ec1fef488da989e1aa1396e5e"),
        ("fig1-dec2", (130, 14_370),
         "10026488b49a471a1589544f0900c9d3b47d4fef20c790ff4e88b710c4f71780"),
        ("fig1-negation", (332, 34_571),
         "57324e7cae855be01ea733cbb488d1e24fb8eef6bed207006480d738a536f59e"),
        ("family-dec1", (181, 417),
         "7e967c0c17e7fefe46dbfc91431f8f6ed977cb893a73ad41d5a77648c76ceefd"),
    ],
)
def test_pool_pinned(case, sizes, digest):
    """SHA-256 of every candidate's (clause, kind, weight, sorted
    consequences), stage by stage and in generation order, recorded before
    each body was joined once for all of its heads."""
    stages = _pool(*_pinned_case(case))
    assert (len(stages[0]), len(stages[2])) == sizes
    h = hashlib.sha256()
    for stage in stages:
        for c in stage:
            h.update(_pinned_row(c))
        h.update(b"|\n")
    assert h.hexdigest() == digest


def _pinned_case(case):
    """The KB and configuration of one pinned pool."""
    if case == "family-dec1":
        kb = parse_kb(_load_workloads().family_kb(random.Random(1), 4, 3).text)
        assert len(kb.facts) == 76
        return kb, GenerationConfig(max_decoder_body_len=1)
    return fig1_kb(), GenerationConfig(
        max_decoder_body_len=1 if case == "fig1-dec1" else 2,
        allow_negation=case == "fig1-negation",
    )


def _pinned_row(c) -> bytes:
    row = (str(c.clause), c.kind, c.weight, sorted(map(str, c.facts())))
    return repr(row).encode() + b"\n"


@pytest.mark.parametrize(
    "case, sizes, digest",
    [
        ("fig1-dec1", (40, 26),
         "4a62c3a5edd52e21cd11d9c7e48e27f2fcf17a954aa04f57fcc6a66dc6d0b25a"),
        ("fig1-dec2", (40, 1230),
         "1e3ec1b6372ed6152b620764516e64ba7e622e936539786a0dede61d1af9ef0c"),
        ("fig1-negation", (40, 1902),
         "69936fd11f2b7b701f293813d65694d9daac66f9e93db2e1d9986afcdc5b8462"),
        ("family-dec1", (81, 90),
         "600e7daaa4a4a6415129ee16455ce06c28f03147bcd7037b9fbdb84dfe4a6b94"),
    ],
)
def test_pruned_pool_pinned(case, sizes, digest):
    """SHA-256 of ``prepare_pool``'s output: the kept encoders, then the
    decoders kept by signature and corruption pruning, in order, each with
    its weight and decoded consequences, then the pruning counters.
    Recorded before consequences became bitsets."""
    kb, config = _pinned_case(case)
    encoders, decoders, report, _ = prepare_pool(kb, {}, config)
    assert (len(encoders), len(decoders)) == sizes
    h = hashlib.sha256()
    for c in (*encoders, *decoders):
        h.update(_pinned_row(c))
    h.update(repr(report.counters()).encode())
    assert h.hexdigest() == digest


def planned_encoders(kb, config):
    """(body, head-variable subset) pairs the encoder generator plans,
    counted by walking the subsets one by one."""
    predicates = sorted(kb.vocabulary, key=lambda p: (p.name, p.arity))
    cap = min(config.max_head_vars, max(p.arity for p in kb.input_predicates))
    total = 0
    for lits, conn in enumerate_bodies(
        predicates, {}, config.max_encoder_body_len, config.allow_disjunction
    ):
        n = len({v for l in lits for v in l.variables()})
        total += sum(1 for k in range(1, cap + 1) for _ in combinations(range(n), k))
    return total


def planned_decoders(encoders, kb, config):
    """(body, input predicate, head-variable subset) triples the decoder
    generator plans; an arity-0 input predicate takes no head."""
    latents = sorted(
        {c.clause.head.predicate for c in encoders}, key=lambda p: (p.name, p.arity)
    )
    total = 0
    for lits, conn in enumerate_bodies(
        latents, {}, config.max_decoder_body_len, config.allow_disjunction
    ):
        n = len({v for l in lits for v in l.variables()})
        total += sum(
            1
            for p in kb.input_predicates
            if p.arity >= 1
            for _ in combinations(range(n), p.arity)
        )
    return total


class TestCandidateCeiling:
    KB_TEXT = "#pred flag/0\nflag.\nparent(a,b).\nparent(b,c).\nmale(a).\n"

    def _kb(self):
        kb = parse_kb(self.KB_TEXT)
        assert any(p.arity == 0 for p in kb.input_predicates)
        return kb

    def test_encoder_ceiling_is_the_planned_count(self):
        kb = self._kb()
        config = default_config()
        planned = planned_encoders(kb, config)
        assert planned > 0
        generate_encoder_candidates(kb, {}, default_config(max_candidates=planned))
        with pytest.raises(CapacityError, match=f"{planned} "):
            generate_encoder_candidates(
                kb, {}, default_config(max_candidates=planned - 1)
            )

    def test_decoder_ceiling_is_the_planned_count(self):
        kb = self._kb()
        config = default_config(max_decoder_body_len=2)
        encoders = prune_naming_variants(generate_encoder_candidates(kb, {}, config))
        planned = planned_decoders(encoders, kb, config)
        assert planned > 0
        generate_decoder_candidates(
            encoders, kb, default_config(max_decoder_body_len=2, max_candidates=planned)
        )
        with pytest.raises(CapacityError, match=f"{planned} "):
            generate_decoder_candidates(
                encoders,
                kb,
                default_config(max_decoder_body_len=2, max_candidates=planned - 1),
            )

    def test_message_names_the_flags(self):
        with pytest.raises(CapacityError) as raised:
            generate_decoder_candidates(
                generate_encoder_candidates(fig1_kb(), {}, default_config()),
                fig1_kb(),
                default_config(max_candidates=5),
            )
        for flag in (
            "--max-dec-len", "--max-head-vars", "--no-disjunction", "--max-candidates"
        ):
            assert flag in str(raised.value)

    def test_no_join_before_the_ceiling(self, monkeypatch):
        kb = fig1_kb()
        encoders = generate_encoder_candidates(kb, {}, default_config())

        def no_join(*args):
            raise AssertionError("joined before the ceiling check")

        monkeypatch.setattr("alp.logic._join", no_join)
        with pytest.raises(CapacityError):
            generate_encoder_candidates(kb, {}, default_config(max_candidates=129))
        with pytest.raises(CapacityError):
            generate_decoder_candidates(
                encoders, kb, default_config(max_candidates=174)
            )
