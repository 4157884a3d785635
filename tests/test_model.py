"""Model compilation: variables, the four constraint families, objective."""

import random
from fractions import Fraction

import pytest

from alp.candidates import AtomIndex
from alp.logic import (
    CONJUNCTION,
    Clause,
    DECODER,
    DISJUNCTION,
    ENCODER,
    reconstruction_loss,
)
from alp.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE_OF_PAIR,
    Assignment,
    CL,
    ConstraintViolationError,
    DC,
    EC,
    IFF_OR,
    LINEAR_LE,
    RF,
    VarId,
    assignment_from_dc,
    build_model,
    check_assignment,
    dump_model,
    induced_alp,
    objective_value,
)
from helpers import (
    brute_force_objective,
    candidate,
    drop_constraints,
    fact,
    fig1_kb,
    is_generality,
    kb_of,
    lit,
    loss_consistency,
    pipeline_pool,
    pred,
    random_kb,
)

MOTHER = pred("mother", 2)
FATHER = pred("father", 2)
L1 = pred("latent_1", 2, "latent")
L2 = pred("latent_2", 1, "latent")
L3 = pred("latent_3", 2, "latent")


def pool(kb):
    """Constructors of hand-made encoders and decoders for one pool over
    ``kb``: the encoders share one index, the decoders another."""
    enc_index, dec_index = AtomIndex(), AtomIndex(kb.facts)

    def enc(head_pred, body, consequences, connective=CONJUNCTION):
        head = lit(head_pred, *"XYZW"[: head_pred.arity])
        clause = Clause(head, body, connective)
        return candidate(clause, ENCODER, consequences, enc_index)

    def dec(head, body, consequences):
        return candidate(Clause(head, body), DECODER, consequences, dec_index)

    return enc, dec


def paper_pool(kb):
    """Two decoders able to reconstruct mother(padme,leia), as in the
    worked rf example: one via latent_1+latent_2, one via latent_3."""
    enc, dec = pool(kb)
    e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
    e2 = enc(L2, (lit(MOTHER, "X", "Y"),), [fact(L2, "padme")])
    e3 = enc(
        L3,
        (lit(MOTHER, "X", "Y"), lit(FATHER, "Z", "Y")),
        [fact(L3, "padme", "leia")],
    )
    d1 = dec(
        lit(MOTHER, "X", "Y"),
        (lit(L1, "X", "Y"), lit(L2, "X")),
        [fact(MOTHER, "padme", "leia")],
    )
    d2 = dec(
        lit(MOTHER, "X", "Y"),
        (lit(L3, "X", "Y"),),
        [fact(MOTHER, "padme", "leia")],
    )
    return [e1, e2, e3], [d1, d2]


class TestBuildModel:
    def test_rf_defined_by_its_two_decoders(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke"))
        encoders, decoders = paper_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(2))
        rf_defs = [
            c
            for c in model.constraints
            if c.form == IFF_OR and c.vars[0].kind == RF
        ]
        assert len(rf_defs) == 1
        assert set(c.kind for c in rf_defs[0].vars[1:]) == {DC}
        assert len(rf_defs[0].vars) == 3  # rf and both dc vars

    def test_bottleneck_coefficients_scaled_to_integers(self):
        kb = fig1_kb()  # G = 9/5
        enc, dec = pool(kb)
        e1 = enc(
            L1,
            (lit(MOTHER, "X", "Y"), lit(FATHER, "X", "Y")),
            [
                fact(L1, "padme", "luke"),
                fact(L1, "padme", "leia"),
                fact(L1, "vader", "luke"),
                fact(L1, "vader", "leia"),
            ],
            DISJUNCTION,
        )
        d1 = dec(lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "luke")])
        model = build_model([e1], [d1], kb, Fraction(1, 2))
        bottleneck = model.constraints[0]
        assert bottleneck.form == LINEAR_LE
        # w*q - p with gamma*G = 9/10: 4*10 - 9 = 31 > 0
        assert bottleneck.coeffs == (31,)
        assignment = assignment_from_dc(model, {0})
        assert any(
            c.form == LINEAR_LE for c in check_assignment(model, assignment)
        )

    def test_single_perfect_decoder_optimum_zero(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        model = build_model([e1], [d1], kb, Fraction(1))
        assert brute_force_objective(model) == 0

    def test_coupling_constraints_cover_every_encoder(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke"))
        encoders, decoders = paper_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(2))
        heads = [
            c.vars[0]
            for c in model.constraints
            if c.form == IFF_OR and c.vars[0].kind == EC
        ]
        assert heads == model.ec_ids

    def test_unused_encoder_is_pinned_off(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        used = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        unused = enc(L2, (lit(MOTHER, "X", "Y"),), [fact(L2, "padme")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        model = build_model([used, unused], [d1], kb, Fraction(2))
        ec_unused = VarId(1, EC)
        assignment = assignment_from_dc(model, {0})
        assignment[ec_unused] = 1
        assert check_assignment(model, assignment)

    def test_coverage_constraint_per_input_predicate(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke"))
        encoders, decoders = paper_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(2))
        coverage = [c for c in model.constraints if c.form == AT_LEAST_ONE]
        assert len(coverage) == 1  # father has no decoder: skipped + warned
        assert any("father" in w for w in model.warnings)

    def test_covers_pairs_match_naive_reference(self):
        """Two candidates at 1 violate a generality constraint exactly when
        the naive reference pairs them."""

        def violates_generality(kind, i, j):
            assignment = {v: 0 for v in model.all_ids()}
            assignment[VarId(i, kind)] = assignment[VarId(j, kind)] = 1
            for k, members in enumerate(model.class_members):
                assignment[VarId(k, CL)] = max(assignment[v] for v in members)
            return any(map(is_generality, check_assignment(model, assignment)))

        rng = random.Random(109)
        tested = 0
        while tested < 10:
            kb = random_kb(rng, max_facts=8)
            encoders, decoders, _, _ = pipeline_pool(kb)
            if not encoders or not decoders:
                continue
            tested += 1
            model = build_model(encoders, decoders, kb, Fraction(2))
            encoders, decoders = model.ec_candidates, model.dc_candidates
            for i in range(len(encoders)):
                for j in range(i + 1, len(encoders)):
                    a = {f.args for f in encoders[i].facts()}
                    b = {f.args for f in encoders[j].facts()}
                    naive = encoders[i].clause.head.predicate.arity == (
                        encoders[j].clause.head.predicate.arity
                    ) and (a <= b or b <= a)
                    assert violates_generality(EC, i, j) == naive
            for i in range(len(decoders)):
                for j in range(i + 1, len(decoders)):
                    a, b = decoders[i].facts(), decoders[j].facts()
                    naive = decoders[i].clause.head.predicate == (
                        decoders[j].clause.head.predicate
                    ) and (a <= b or b <= a)
                    assert violates_generality(DC, i, j) == naive

    def test_one_consequence_class_is_one_variable(self):
        """1,100 decoders with one consequence set (604,450 pairs) compile
        to one class variable and two constraints."""
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        model = build_model([e1], [d1] * 1100, kb, Fraction(2))
        members = tuple(VarId(j, DC) for j in range(1100))
        assert model.class_members == (members,)
        generality = [c for c in model.constraints if is_generality(c)]
        assert [(c.form, c.vars) for c in generality] == [
            (IFF_OR, (VarId(0, CL),) + members),
            (LINEAR_LE, members + (VarId(0, CL),)),
        ]
        rng = random.Random(3)
        pairs = [(0, 1), (0, 1099)] + [rng.sample(range(1100), 2) for _ in range(20)]
        for pair in pairs:
            selection = assignment_from_dc(model, set(pair))
            assert generality[1] in check_assignment(model, selection)
        single = assignment_from_dc(model, {rng.randrange(1100)})
        assert not check_assignment(model, single)

    def test_generality_pairs_within_decoder_pool(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke"))
        enc, dec = pool(kb)
        e1 = enc(
            L1,
            (lit(MOTHER, "X", "Y"),),
            [fact(L1, "padme", "leia"), fact(L1, "padme", "luke")],
        )
        big = dec(
            lit(MOTHER, "X", "Y"),
            (lit(L1, "X", "Y"),),
            [fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke")],
        )
        small = dec(
            lit(MOTHER, "X", "X"),
            (lit(L1, "X", "X"),),
            [fact(MOTHER, "padme", "leia")],
        )
        model = build_model([e1], [big, small], kb, Fraction(2))
        pairs = [
            c for c in model.constraints if c.form == AT_MOST_ONE_OF_PAIR
        ]
        assert any({v.kind for v in c.vars} == {DC} for c in pairs)
        both = assignment_from_dc(model, {0, 1})
        assert any(
            c.form == AT_MOST_ONE_OF_PAIR
            for c in check_assignment(model, both)
        )

    def test_unknown_latent_rejected(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e2 = enc(L2, (lit(MOTHER, "X", "Y"),), [fact(L2, "padme")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        with pytest.raises(ValueError, match="no defining encoder"):
            build_model([e2], [d1], kb, Fraction(1))

    def test_empty_encoder_pool_is_infeasible(self):
        from alp.errors import InfeasibleError

        kb = kb_of(fact(MOTHER, "padme", "leia"))
        with pytest.raises(InfeasibleError):
            build_model([], [], kb, Fraction(1))

    def test_no_decoders_left_still_solvable(self):
        # every decoder pruned: the model degenerates to "reconstruct
        # nothing" and the objective is the whole KB
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        model = build_model([e1], [], kb, Fraction(1))
        assert model.constant_offset == 1
        assert model.warnings
        from alp.solver import SearchConfig, lns_minimize

        solution = lns_minimize(model, SearchConfig(iterations=3, seed=0))
        assert solution.objective == 1
        assert solution.proven_optimal

    def test_offset_counts_unreconstructable_kb_facts(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke"))
        encoders, decoders = paper_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(2))
        assert model.constant_offset == 1  # father(vader,luke)


class TestObjectiveValue:
    def build_simple(self, include_coverage=True):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke"))
        enc, dec = pool(kb)
        e1 = enc(
            L1,
            (lit(MOTHER, "X", "Y"),),
            [fact(L1, "padme", "leia"), fact(L1, "padme", "luke")],
        )
        d1 = dec(
            lit(MOTHER, "X", "Y"),
            (lit(L1, "X", "Y"),),
            [fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke")],
        )
        model = build_model([e1], [d1], kb, Fraction(2))
        return kb, drop_constraints(model, coverage=not include_coverage)

    def test_all_zero_assignment_counts_whole_kb(self):
        kb, model = self.build_simple(include_coverage=False)
        empty = assignment_from_dc(model, set())
        assert objective_value(model, empty) == len(kb.facts)

    def test_lossless_assignment_is_zero(self):
        kb, model = self.build_simple()
        full = assignment_from_dc(model, {0})
        assert objective_value(model, full) == 0

    def test_one_missing_one_false(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke"))
        enc, dec = pool(kb)
        e1 = enc(
            L1,
            (lit(MOTHER, "X", "Y"),),
            [fact(L1, "padme", "leia"), fact(L1, "x", "y")],
        )
        d1 = dec(
            lit(MOTHER, "X", "Y"),
            (lit(L1, "X", "Y"),),
            [fact(MOTHER, "padme", "leia"), fact(MOTHER, "x", "y")],
        )
        model = build_model([e1], [d1], kb, Fraction(3))
        chosen = assignment_from_dc(model, {0})
        # padme,luke missing; x,y false
        assert objective_value(model, chosen) == 2

    def test_violating_assignment_raises(self):
        kb, model = self.build_simple()
        bad = assignment_from_dc(model, {0})
        bad[VarId(0, EC)] = 0  # break the coupling
        with pytest.raises(ConstraintViolationError):
            objective_value(model, bad)


class TestCheckAssignment:
    def test_feasible_assignment_is_clean(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        model = build_model([e1], [d1], kb, Fraction(1))
        assert check_assignment(model, assignment_from_dc(model, {0})) == []

    def test_decoder_without_its_encoder_reported(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        model = build_model([e1], [d1], kb, Fraction(1))
        assignment = assignment_from_dc(model, {0})
        assignment[VarId(0, EC)] = 0
        violated = check_assignment(model, assignment)
        assert any(
            c.form == IFF_OR and c.vars[0].kind == EC for c in violated
        )


class TestLossConsistency:
    def test_empty_selection_equals_kb_size(self):
        kb = fig1_kb()
        encoders, decoders, _, _ = pipeline_pool(kb)
        model = drop_constraints(
            build_model(encoders, decoders, kb, Fraction(2)), coverage=True
        )
        empty = assignment_from_dc(model, set())
        assert objective_value(model, empty) == 9
        assert reconstruction_loss(induced_alp(model, empty), kb) == 9
        assert loss_consistency(model, empty, kb)

    def test_lossless_selection(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"))
        enc, dec = pool(kb)
        e1 = enc(L1, (lit(MOTHER, "X", "Y"),), [fact(L1, "padme", "leia")])
        d1 = dec(
            lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),), [fact(MOTHER, "padme", "leia")]
        )
        model = build_model([e1], [d1], kb, Fraction(1))
        assert loss_consistency(model, assignment_from_dc(model, {0}), kb)

    def test_random_feasible_selections_agree(self):
        rng = random.Random(67)
        checked = 0
        while checked < 40:
            kb = random_kb(rng, max_facts=8)
            encoders, decoders, _, _ = pipeline_pool(kb)
            if not encoders or not decoders:
                continue
            model = drop_constraints(
                build_model(encoders, decoders, kb, Fraction(rng.choice([1, 2, 4]))),
                coverage=True,
            )
            n = len(model.dc_candidates)
            selected = {j for j in range(n) if rng.random() < 0.3}
            assignment = assignment_from_dc(model, selected)
            if check_assignment(model, assignment):
                continue
            assert loss_consistency(model, assignment, kb)
            checked += 1


class TestDumpModel:
    def test_dump_structure(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(FATHER, "vader", "luke"))
        encoders, decoders = paper_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(2))
        text = dump_model(model)
        lines = text.splitlines()
        assert sum(l.startswith("var ec_") for l in lines) == 3
        assert sum(l.startswith("var dc_") for l in lines) == 2
        assert sum(l.startswith("var rf_") for l in lines) == 1
        assert any(l.startswith("constraint linear_le") for l in lines)
        assert any(l.startswith("constraint iff_or") for l in lines)
        assert lines[-1] == f"offset {model.constant_offset}"
        assert any(l.startswith("objective missing rf_0") for l in lines)
