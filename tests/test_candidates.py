"""Body enumeration under mode bias, head generation, candidate pools."""

import hashlib
import random
from functools import reduce
from itertools import combinations

import pytest

from alp.candidates import (
    AtomIndex,
    GenerationConfig,
    _joined_bodies,
    bit_positions,
    body_predicates,
    generate_decoder_candidates,
    generate_encoder_candidates,
    generate_pruned_decoders,
    latent_ordinal,
)
from alp.errors import CapacityError
from alp.kb import (
    KnowledgeBase,
    ModeDeclaration,
    parse_kb,
    rows_by_predicate,
)
from alp.logic import (
    CONJUNCTION,
    DECODER,
    DISJUNCTION,
    ENCODER,
    Clause,
    FactStore,
    LogicProgram,
    _compile,
    apply_program,
    ground_consequences,
    project,
)
from alp.pipeline import prepare_pool
from alp.pruning import (
    prune_corrupt,
    prune_naming_variants,
    prune_signature_variants,
)
from helpers import (
    brute_force_consequences,
    candidate,
    consequences,
    default_config,
    enumerate_bodies,
    fact,
    fig1_kb,
    kb_of,
    latent_facts,
    lit,
    load_workloads,
    pipeline_pool,
    pred,
    random_kb,
    reference_body_key,
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


class TestAtomIndex:
    def test_bits_in_first_seen_order(self):
        index = AtomIndex()
        rows = [("b",), ("a",), ("b",), ("c",)]
        assert index.mask(rows) == 0b111
        assert index.rows == [("b",), ("a",), ("c",)]
        assert index.mask([("c",), ("d",)]) == 0b1100
        assert index.rows[3] == ("d",)
        assert index._position == {row: k for k, row in enumerate(index.rows)}

    def test_repeats_and_generators_mask_as_their_set(self):
        rng = random.Random(5)
        index = AtomIndex()
        for _ in range(50):
            rows = [tuple(rng.choices("abc", k=2)) for _ in range(rng.randrange(8))]
            expected = index.mask(set(rows))
            assert index.mask(rows) == index.mask(iter(rows)) == expected
            assert index.mask(r for r in rows + rows) == expected
        assert len(index.rows) == len(set(index.rows)) == 9

    def test_columns_mask_is_the_projection_mask(self):
        rng = random.Random(11)
        index = AtomIndex()
        for _ in range(200):
            width = rng.randrange(1, 5)
            rows = [
                tuple(rng.choices("abcd", k=width)) for _ in range(rng.randrange(1, 7))
            ]
            slots = tuple(rng.sample(range(width), rng.randrange(1, width + 1)))
            columns = list(zip(*rows))
            assert index.columns_mask(columns, slots) == index.mask(project(rows, slots))


class TestGenerationConfig:
    def test_body_lengths_stop_at_the_canonicalisation_cap(self):
        GenerationConfig(max_encoder_body_len=6, max_decoder_body_len=6)
        for field in ("max_encoder_body_len", "max_decoder_body_len"):
            for length in (0, 7):
                with pytest.raises(ValueError, match="body lengths"):
                    GenerationConfig(**{field: length})


class TestBodyEnumeration:
    def test_appendix_extension_of_p(self):
        """The length-2 bodies are the one-step extensions of p(X,Y): q(X)
        alone cannot grow, since q(-) binds no existing variable."""
        bodies = enumerate_bodies([P2, Q1], APPENDIX_MODES, 2, allow_disjunction=False)
        assert {",".join(map(str, b)) for b, _ in bodies if len(b) == 2} == {
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

    def test_disjunctions_are_keyed_by_their_canonical_text(self):
        """``_enumerate`` keys a disjunction by its text, unchanged: the
        disjunctions come last, in strictly increasing text order, and each
        text is the naive canonical form.  Over Fig. 1's vocabulary at body
        lengths 2 and 3, its decoder vocabulary (the surviving latents) at
        2, and seeded random vocabularies: arities 0-3 at length 2, 0-2 at 3."""
        kb = fig1_kb()
        latents = sorted({c.head.predicate for c in pipeline_pool(kb)[0]})
        cases = [(sorted(kb.vocabulary), 2), (sorted(kb.vocabulary), 3), (latents, 2)]
        rng = random.Random(36)
        for _ in range(40):
            max_len = rng.randint(2, 3)
            names = rng.sample(range(20), rng.randint(2, 8))
            vocabulary = sorted(pred(f"q{n}", rng.randint(0, 5 - max_len)) for n in names)
            cases.append((vocabulary, max_len))
        disjunctions = 0
        for predicates, max_len in cases:
            bodies = enumerate_bodies(predicates, {}, max_len, allow_disjunction=True)
            tail = [b for b in bodies if b[1] == DISJUNCTION]
            assert bodies[len(bodies) - len(tail):] == tail
            texts = [";".join(map(str, lits)) for lits, _ in tail]
            assert texts == sorted(set(texts))
            for (lits, conn), text in zip(tail, texts):
                assert text == reference_body_key(lits, conn)
            disjunctions += len(texts)
        assert disjunctions >= 500

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


R2 = pred("r", 2)
ENUMERATION_CASES = {
    "fig1": (
        sorted(fig1_kb().vocabulary, key=lambda p: (p.name, p.arity)), {}
    ),
    "appendix": ([P2, Q1], APPENDIX_MODES),
    "either": ([P2, Q1], {}),
    "mixed": (
        [P2, Q1, R2],
        {
            P2: ModeDeclaration(P2, ("?", "+")),
            Q1: ModeDeclaration(Q1, ("-",)),
            R2: ModeDeclaration(R2, ("-", "-")),
        },
    ),
}


@pytest.mark.parametrize(
    "case, max_len, negation, size, digest",
    [
        ("fig1", 1, False, 5,
         "89f81ecd609ce56c657f06acce114ca35f71ca8463a3dc66fa70391f79939971"),
        ("fig1", 1, True, 5,
         "89f81ecd609ce56c657f06acce114ca35f71ca8463a3dc66fa70391f79939971"),
        ("fig1", 2, False, 107,
         "d02b79540f1c320189dbfec8514d58ff1848eba21f24ed1e3bdf90c20ae9e415"),
        ("fig1", 2, True, 179,
         "39e72248292e2b3fcae5f72ac86288492f7ed21b359e0e5ebc329eb8ab03257c"),
        ("fig1", 3, False, 1653,
         "de1e2f6d12a6f8f0d109c0147a93be1d85aae47cbf86f57d285336e8329420e2"),
        ("fig1", 3, True, 3877,
         "a7d03b9f75327508d0c3dcfe6640eb76c843a95f6d5095bb833e19096850b20c"),
        ("appendix", 3, False, 16,
         "25c516c2cb19916cc7ed5950aad65a6ef3858b5d358af315ef9a9462ccf88730"),
        ("appendix", 3, True, 48,
         "5fb11e418ce3ef33d2d39a0a7eba2b05bba9ad08045e6b38d630f4852453e054"),
        ("either", 3, False, 45,
         "4f8d9cec13651e4530561fc18bcf2644e820c6b9f7452b10c6fe9276f416e84d"),
        ("either", 3, True, 97,
         "f94578e010b0d47fca05957987cbb7638777ccf867add2e63b0d82da4020965e"),
        ("mixed", 3, False, 233,
         "c0174ce2ee2e8566ba0a233f2663b32ae9550db50f460bb136f2227db40e21d2"),
        ("mixed", 3, True, 542,
         "0afefee10c5b6f462fcd72ea4fc3f55fd6646af6f233bac3509c679372c63973"),
    ],
    ids=[
        f"{case}-{variant}"
        for case in ("fig1-len1", "fig1-len2", "fig1-len3", "appendix", "either", "mixed")
        for variant in ("plain", "negation")
    ],
)
def test_enumeration_pinned(case, max_len, negation, size, digest):
    """SHA-256 of ``enumerate_bodies`` output, in order, each body as its
    literals' (predicate text ``name/arity``, argument texts, sign) and its
    connective."""
    predicates, modes = ENUMERATION_CASES[case]
    bodies = enumerate_bodies(predicates, modes, max_len, True, negation)
    assert len(bodies) == size
    h = hashlib.sha256()
    for lits, conn in bodies:
        rows = [(str(l.predicate), tuple(map(str, l.args)), l.negated) for l in lits]
        h.update(repr((rows, conn)).encode() + b"\n")
    assert h.hexdigest() == digest


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
        kb = KnowledgeBase(frozenset(), frozenset())
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
                assert consequences(cand) == entailed == brute_force_consequences(
                    cand.clause, kb.facts | kb.background
                )
                assert cand.weight == bin(cand.mask).count("1") == len(entailed)
            context = latent_facts(encoders)
            for cand in generate_decoder_candidates(encoders, kb, default_config()):
                assert consequences(cand) == brute_force_consequences(cand.clause, context)
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
        latent = pred("latent_1", 2)
        enc = candidate(
            Clause(lit(latent, "X", "Y"), (lit(P2, "X", "Y"),)),
            [fact(latent, "a", "b")],
            AtomIndex(),
        )
        kb = kb_of(fact(P2, "a", "b"))
        cands = generate_decoder_candidates([enc], kb, default_config())
        arity2 = [c for c in cands if c.clause.head.predicate == P2]
        assert len(arity2) >= 1
        assert any(consequences(c) == {fact(P2, "a", "b")} for c in arity2)

    def test_no_latent_facts_no_candidates(self):
        kb = kb_of(fact(P2, "a", "b"))
        assert generate_decoder_candidates([], kb, default_config()) == []

    def test_two_literal_decoder_body_shape(self):
        # mirror of the paper's mother(X,Y) :- latent1(X,Y),latent2(X)
        kb = fig1_kb()
        config = default_config(max_decoder_body_len=2, max_candidates=500_000)
        encoders = generate_encoder_candidates(kb, {}, config)
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
        join and by brute force, and within it the rows of its head's KB
        mask are that head's KB rows."""
        rng = random.Random(59)
        for _ in range(5):
            kb = random_kb(rng, max_facts=6)
            config = default_config(allow_negation=True)
            encoders = generate_encoder_candidates(kb, {}, config)
            context = latent_facts(encoders)
            for cand in generate_decoder_candidates(encoders, kb, config):
                facts = consequences(cand)
                assert facts == ground_consequences(cand.clause, context)
                assert facts == brute_force_consequences(cand.clause, context)
                assert cand.weight == len(facts)
                assert_kb_rows(cand, kb, facts)

    def test_decoder_heads_are_input_predicates(self):
        rng = random.Random(61)
        kb = random_kb(rng, max_facts=6)
        encoders = generate_encoder_candidates(kb, {}, default_config())
        for cand in generate_decoder_candidates(encoders, kb, default_config()):
            assert cand.clause.head.predicate in kb.input_predicates


def assert_kb_rows(cand, kb, facts):
    """Within the candidate's consequences ``facts``, the rows of its head's
    KB mask are that head's KB rows: the facts it holds of the KB."""
    head = cand.head.predicate
    in_kb = cand.mask & cand.index.kb_masks(kb, [head])[head]
    rows = {cand.index.rows[b] for b in bit_positions(in_kb)}
    assert rows == set(cand.rows()) & set(kb.rows.get(head, ()))
    assert {fact(head, *row) for row in rows} == facts & kb.facts


def described(c):
    """A candidate as its text, weight and decoded consequences."""
    return c.text, c.weight, consequences(c)


class TestPrunedDecoders:
    """``generate_pruned_decoders`` prunes on masks as it generates; what it
    returns is the two prune functions applied to the unpruned pool."""

    def assert_prunes_the_unpruned_pool(self, kb, config):
        encoders = prune_naming_variants(generate_encoder_candidates(kb, {}, config))
        survivors, met, classes = generate_pruned_decoders(encoders, kb, config)
        unpruned = generate_decoder_candidates(encoders, kb, config)
        signature_kept = prune_signature_variants(unpruned)
        expected = prune_corrupt(signature_kept, kb)
        # The two pools index their rows differently, so masks do not compare.
        assert list(map(described, survivors)) == list(map(described, expected))
        assert [c.text for c in survivors] == [str(c.clause) for c in survivors]
        # one index of rows per pool, each row once
        for pool in (survivors, unpruned):
            assert len({id(c.index) for c in pool}) <= 1
            for c in pool:
                assert len(set(c.index.rows)) == len(c.index.rows)
                assert_kb_rows(c, kb, consequences(c))
        assert (met, classes) == (len(unpruned), len(signature_kept))
        # the prune functions leave an already pruned pool as it is
        assert prune_signature_variants(survivors) == survivors
        assert prune_corrupt(survivors, kb) == survivors
        return unpruned, survivors

    def test_random_kbs(self):
        """Decoder lengths 1 to 3.  Length 3, drawn with negation, is the
        first length where a positive literal can follow a negated one; its
        encoders keep to one literal, so that the test stays short."""
        rng = random.Random(67)
        dropped = 0
        for _ in range(25):
            kb = random_kb(rng, max_facts=8)
            length = rng.choice([1, 2, 3])
            config = default_config(
                max_encoder_body_len=1 if length == 3 else 2,
                max_decoder_body_len=length,
                allow_negation=length == 3 or rng.random() < 0.5,
                allow_disjunction=rng.random() < 0.8,
            )
            unpruned, survivors = self.assert_prunes_the_unpruned_pool(kb, config)
            dropped += len(unpruned) - len(survivors)
        assert dropped > 0

    def test_fig1_default_bias(self):
        unpruned, survivors = self.assert_prunes_the_unpruned_pool(
            fig1_kb(), default_config(max_decoder_body_len=2)
        )
        assert (len(unpruned), len(survivors)) == (14_370, 1_230)

    def test_classes_corrupt_for_every_head_are_only_counted(self, monkeypatch):
        """Every head row holds ``a`` and no latent row does, so every class
        is corrupt for each head predicate of its arity: all are counted,
        none is rendered and none survives."""
        s2 = pred("s", 2)
        background = [fact(s2, x, y) for x, y in ("bc", "cd", "db", "bb")]
        kb = kb_of(
            fact(P2, "a", "b"), fact(pred("t", 2), "c", "a"),
            fact(Q1, "a"), fact(pred("r", 1), "a"), background=background,
        )
        config = default_config(max_decoder_body_len=2)
        encoders = [
            c for c in generate_encoder_candidates(kb, {}, config)
            if body_predicates(c.body) == {s2}
        ]
        unpruned = generate_decoder_candidates(encoders, kb, config)
        assert prune_corrupt(unpruned, kb) == []
        classes = len(prune_signature_variants(unpruned))
        assert len(unpruned) > classes > 0

        def rendered(*args):
            raise AssertionError("clause text rendered for a corrupt class")

        monkeypatch.setattr("alp.candidates._clause_suffix", rendered)
        assert generate_pruned_decoders(encoders, kb, config) == ([], len(unpruned), classes)

    def test_no_latents(self):
        kb = kb_of(fact(P2, "a", "b"))
        assert generate_pruned_decoders([], kb, default_config()) == ([], 0, 0)


@pytest.mark.parametrize(
    "counts, pruning, digest",
    [
        (
            {"encoders_generated": 181, "encoders_pruned": 81,
             "decoders_generated": 82_655, "decoders_pruned": 12_202},
            {"input_count": 82_836, "removed_naming": 100,
             "removed_signature": 23_874, "removed_corruption": 46_579,
             "survivors": 12_283},
            "745f0e7ef9ec9c627e7c2b9aaa39748eafa1530ee7e8764926206d83caaf5f54",
        ),
    ],
    ids=["f76-default-bias"],
)
def test_default_bias_family_pool_pinned(counts, pruning, digest):
    """``prepare_pool`` on the 76-fact family KB ``family_kb(Random(1), 4,
    3)`` at the default bias: its counts, its pruning report and the
    SHA-256 of the surviving decoders' (text, sorted consequences), recorded
    before the decoders were pruned once per row class."""
    kb = parse_kb(load_workloads().family_kb(random.Random(1), 4, 3).text)
    assert len(kb.facts) == 76
    _, decoders, report, sizes = prepare_pool(kb, {}, GenerationConfig())
    assert (sizes, report) == (counts, pruning)
    h = hashlib.sha256()
    for c in decoders:
        h.update(repr((c.text, sorted(map(str, consequences(c))))).encode() + b"\n")
    assert h.hexdigest() == digest


def _rows_from_scratch(literals, connective, store):
    """A body's rows over its variables, joined from the empty row on."""
    rows = []
    for part in [(l,) for l in literals] if connective == DISJUNCTION else [literals]:
        start, shapes, _ = _compile(part, ())
        rows += reduce(store.join, shapes, [start])
    return rows


def test_one_step_rows_equal_a_join_from_scratch():
    """On seeded random KBs, the rows each enumerated decoder body joins
    from its parent's rows and its last literal are, in order, the rows of
    the whole body joined from scratch, and for up to two variables the
    substitutions brute force finds.  The bodies met include ones whose
    parent has no rows and ones where a positive literal follows a negated
    one."""
    rng = random.Random(71)
    without_parent_rows = after_negated = 0
    for _ in range(12):
        kb = random_kb(rng, max_facts=6)
        config = default_config(
            max_encoder_body_len=1, max_decoder_body_len=3, allow_negation=True
        )
        encoders = prune_naming_variants(generate_encoder_candidates(kb, {}, config))
        latents = sorted({c.head.predicate for c in encoders})
        context = latent_facts(encoders)
        store = FactStore(rows_by_predicate(context))
        joined = list(_joined_bodies(DECODER, latents, {}, [1], config, store))
        rows_of = dict(joined)
        for body, rows in joined:
            literals, connective = body.body
            assert rows == _rows_from_scratch(literals, connective, store)
            if body.n_vars <= 2:
                head = lit(pred("h", body.n_vars), *"XY"[: body.n_vars])
                clause = Clause(head, literals, connective)
                facts = brute_force_consequences(clause, context)
                assert set(rows) == {f.args for f in facts}
            parent = body.parent
            without_parent_rows += parent is not None and not rows_of[parent]
            after_negated += any(l.negated for l in literals[:-1])
    assert without_parent_rows and after_negated


PINNED_POOLS = ["fig1-dec1", "fig1-dec2", "fig1-negation", "family-dec1"]


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
    ids=PINNED_POOLS,
)
def test_pool_pinned(case, sizes, digest):
    """SHA-256 of every candidate's (clause, kind, weight, sorted
    consequences), stage by stage and in generation order, recorded before
    each body was joined once for all of its heads."""
    stages = _pool(*_pinned_case(case))
    assert (len(stages[0]), len(stages[2])) == sizes
    h = hashlib.sha256()
    for stage, kind in zip(stages, (ENCODER, ENCODER, DECODER)):
        for c in stage:
            h.update(_pinned_row(c, kind))
        h.update(b"|\n")
    assert h.hexdigest() == digest


def _pinned_case(case):
    """The KB and configuration of one pinned pool."""
    if case == "family-dec1":
        kb = parse_kb(load_workloads().family_kb(random.Random(1), 4, 3).text)
        assert len(kb.facts) == 76
        return kb, GenerationConfig(max_decoder_body_len=1)
    return fig1_kb(), GenerationConfig(
        max_decoder_body_len=1 if case == "fig1-dec1" else 2,
        allow_negation=case == "fig1-negation",
    )


def _pinned_row(c, kind: str) -> bytes:
    assert c.text == str(c.clause)
    row = (c.text, kind, c.weight, sorted(map(str, consequences(c))))
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
    ids=PINNED_POOLS,
)
def test_pruned_pool_pinned(case, sizes, digest):
    """SHA-256 of ``prepare_pool``'s output: the kept encoders, then the
    decoders kept by signature and corruption pruning, in order, each with
    its weight and decoded consequences, then the pruning counters.
    Recorded before consequences became bitsets."""
    kb, config = _pinned_case(case)
    encoders, decoders, pruning, _ = prepare_pool(kb, {}, config)
    assert (len(encoders), len(decoders)) == sizes
    h = hashlib.sha256()
    for c in encoders:
        h.update(_pinned_row(c, ENCODER))
    for c in decoders:
        h.update(_pinned_row(c, DECODER))
    h.update(repr(pruning).encode())
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

    def test_decoder_ceiling_counts_each_head_predicate(self):
        """Several head predicates of one arity each plan their own pairs on
        every body, so the count at the ceiling is the full planned one."""
        kb = parse_kb(
            "mother(a,b).\nfather(c,b).\nparent(a,b).\nparent(c,b).\n"
            "female(a).\nmale(c).\n"
        )
        arities = sorted(p.arity for p in kb.input_predicates)
        assert arities == [1, 1, 2, 2, 2]
        lengths = dict(max_encoder_body_len=1, max_decoder_body_len=2)
        config = default_config(**lengths)
        encoders = prune_naming_variants(generate_encoder_candidates(kb, {}, config))
        planned = planned_decoders(encoders, kb, config)
        assert 0 < planned < 1_000
        generate_pruned_decoders(
            encoders, kb, default_config(**lengths, max_candidates=planned)
        )
        with pytest.raises(CapacityError, match=f"at least {planned} decoder"):
            generate_pruned_decoders(
                encoders, kb, default_config(**lengths, max_candidates=planned - 1)
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
        joins = []
        join = FactStore.join

        def counted(*args):
            joins.append(args)
            return join(*args)

        # Positive control: the patched step is the one every join takes.
        monkeypatch.setattr("alp.logic.FactStore.join", counted)
        generate_encoder_candidates(kb, {}, default_config())
        assert joins
        joins.clear()
        generate_decoder_candidates(encoders, kb, default_config())
        assert joins

        def no_join(*args):
            raise AssertionError("joined before the ceiling check")

        monkeypatch.setattr("alp.logic.FactStore.join", no_join)
        with pytest.raises(CapacityError):
            generate_encoder_candidates(kb, {}, default_config(max_candidates=129))
        with pytest.raises(CapacityError):
            generate_decoder_candidates(
                encoders, kb, default_config(max_candidates=174)
            )
