"""Model compilation: variables, the four constraint families, objective."""

import hashlib
import random
from fractions import Fraction

import pytest

from alp import GenerationConfig, parse_kb_document
from alp.candidates import (
    AtomIndex,
    generate_encoder_candidates,
    generate_pruned_decoders,
)
from alp.errors import InfeasibleError
from alp.logic import (
    CONJUNCTION,
    Clause,
    DISJUNCTION,
    reconstruction_loss,
)
from alp.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE_OF_PAIR,
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
from alp.pipeline import prepare_pool
from alp.solver import SearchConfig, _Searcher, _greedy_selection, lns_minimize
from helpers import (
    assignment_of,
    brute_force_objective,
    candidate,
    class_members,
    consequences,
    default_config,
    drop_constraints,
    fact,
    fig1_kb,
    is_generality,
    kb_of,
    lit,
    load_workloads,
    loss_consistency,
    pipeline_pool,
    position,
    pred,
    random_kb,
    reference_objective,
    reference_violations,
)

MOTHER = pred("mother", 2)
FATHER = pred("father", 2)
L1 = pred("latent_1", 2)
L2 = pred("latent_2", 1)
L3 = pred("latent_3", 2)


def pool(kb):
    """Constructors of hand-made encoders and decoders for one pool over
    ``kb``: the encoders share one index, the decoders another."""
    enc_index, dec_index = AtomIndex(), AtomIndex(kb.facts)

    def enc(head_pred, body, consequences, connective=CONJUNCTION):
        head = lit(head_pred, *"XYZW"[: head_pred.arity])
        clause = Clause(head, body, connective)
        return candidate(clause, consequences, enc_index)

    def dec(head, body, consequences):
        return candidate(Clause(head, body), consequences, dec_index)

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
            model.constraints[k].form == LINEAR_LE
            for k in check_assignment(model, assignment)
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
        assert heads == [VarId(i, EC) for i in range(len(model.ec_candidates))]

    def test_coupling_row_lists_each_decoder_once(self):
        """Also where a decoder reads one latent twice, as some do in Fig. 1
        at the default bias: each encoder's coupling body is the strictly
        increasing positions of the decoders whose body reads its latent."""
        kb = fig1_kb()
        encoders, decoders, _, _ = prepare_pool(kb, {}, GenerationConfig())
        fig1 = build_model(encoders, decoders, kb, Fraction(2))
        assert any(
            len(d.body) > len({l.predicate for l in d.body}) for d in fig1.dc_candidates
        )
        for model in [fig1] + audit_models():
            coupling = [
                ps for form, ps, _ in model.rows
                if form == IFF_OR and ps[0] < model.first[DC]
            ]
            assert [ps[0] for ps in coupling] == list(range(model.first[DC]))
            for ps, enc in zip(coupling, model.ec_candidates):
                body = list(ps[1:])
                assert body == sorted(set(body))
                assert body == [
                    pos
                    for pos, d in enumerate(model.dc_candidates, model.first[DC])
                    if enc.head.predicate in {l.predicate for l in d.body}
                ]

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
        assignment[position(model, ec_unused)] = 1
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
            for k, members in enumerate(class_members(model)):
                assignment[VarId(k, CL)] = max(assignment[v] for v in members)
            dense = assignment_of(model, assignment)
            violated = check_assignment(model, dense)
            return any(is_generality(model.constraints[k]) for k in violated)

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
                    a = set(encoders[i].rows())
                    b = set(encoders[j].rows())
                    naive = encoders[i].clause.head.predicate.arity == (
                        encoders[j].clause.head.predicate.arity
                    ) and (a <= b or b <= a)
                    assert violates_generality(EC, i, j) == naive
            for i in range(len(decoders)):
                for j in range(i + 1, len(decoders)):
                    a, b = consequences(decoders[i]), consequences(decoders[j])
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
        assert class_members(model) == (members,)
        generality = [c for c in model.constraints if is_generality(c)]
        assert [(c.form, c.vars) for c in generality] == [
            (IFF_OR, (VarId(0, CL),) + members),
            (LINEAR_LE, members + (VarId(0, CL),)),
        ]
        rng = random.Random(3)
        pairs = [(0, 1), (0, 1099)] + [rng.sample(range(1100), 2) for _ in range(20)]
        for pair in pairs:
            selection = assignment_from_dc(model, set(pair))
            violated = check_assignment(model, selection)
            assert generality[1] in [model.constraints[k] for k in violated]
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
            model.constraints[k].form == AT_MOST_ONE_OF_PAIR
            for k in check_assignment(model, both)
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
        bad[position(model, VarId(0, EC))] = 0  # break the coupling
        with pytest.raises(ConstraintViolationError):
            objective_value(model, bad)

    def test_violation_names_its_dump_line(self):
        """The error shows the first violated constraint as ``dump_model``
        prints it, not as a dataclass repr."""
        kb, model = self.build_simple()
        bad = assignment_from_dc(model, {0})
        bad[position(model, VarId(0, EC))] = 0
        with pytest.raises(ConstraintViolationError) as err:
            objective_value(model, bad)
        line = "constraint iff_or ec_0 dc_0"
        assert str(err.value) == f"1 violated constraint(s), first: {line}"
        assert line in dump_model(model).splitlines()


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
        assignment[position(model, VarId(0, EC))] = 0
        violated = [model.constraints[k] for k in check_assignment(model, assignment)]
        assert any(
            c.form == IFF_OR and c.vars[0].kind == EC for c in violated
        )


def audit_models():
    """Models for the compiled audit: seeded random pools at three gammas,
    and two KBs of each benchmark workload at its own settings (the
    default-bias ones without Fig. 1)."""
    rng = random.Random(113)
    models = []
    while len(models) < 12:
        kb = random_kb(rng, max_facts=10)
        encoders, decoders, _, _ = pipeline_pool(kb)
        if encoders and decoders:
            gamma = Fraction(rng.choice(["1/2", "1", "2"]))
            models.append(build_model(encoders, decoders, kb, gamma))
    workloads = load_workloads()
    for name, picked in (("family-dec1", slice(0, 2)), ("default-bias", slice(1, 3))):
        workload = workloads.WORKLOADS[name]
        config = GenerationConfig(max_decoder_body_len=workload.learn.max_dec_len)
        for generated in workloads.generate(workload, 1)[0][picked]:
            doc = parse_kb_document(generated.text)
            encoders, decoders, _, _ = prepare_pool(doc.kb, doc.modes, config)
            gamma = Fraction(workload.learn.gamma)
            models.append(build_model(encoders, decoders, doc.kb, gamma))
    return models


class TestCompiledAudit:
    """``check_assignment`` and ``objective_value`` read the model's
    position rows; the reference reads each constraint's ``VarId``s at
    their documented positions."""

    def assignments(self, model, rng):
        """Decoder selections, a searched solution and one-position flips of
        it, and uniformly random vectors."""
        n_dc = len(model.dc_candidates)
        out = [
            assignment_from_dc(model, {j for j in range(n_dc) if rng.random() < share})
            for share in (0.0, 0.1, 0.3, 1.0)
        ]
        try:
            solution = lns_minimize(model, SearchConfig(iterations=3, fail_limit=50))
        except InfeasibleError:
            solution = None
        if solution is not None:
            out.append(solution.assignment)
            for p in rng.sample(range(len(solution.assignment)), 5):
                flipped = list(solution.assignment)
                flipped[p] = 1 - flipped[p]
                out.append(flipped)
        n = len(model.all_ids())
        out += [[rng.randint(0, 1) for _ in range(n)] for _ in range(5)]
        return out

    def test_layout_is_all_ids_order(self):
        for model in audit_models():
            ids = model.all_ids()
            assert [position(model, v) for v in ids] == list(range(len(ids)))

    def test_matches_the_varid_reference(self):
        """Also on models whose encoder classes have members, and on
        assignments that break pair rows."""
        rng = random.Random(127)
        feasible = infeasible = pairs = 0
        for model in audit_models() + variant_models():
            for assignment in self.assignments(model, rng):
                got = check_assignment(model, assignment)
                expected = reference_violations(model, assignment)
                assert [id(model.constraints[k]) for k in got] == list(map(id, expected))
                pairs += any(c.form == AT_MOST_ONE_OF_PAIR for c in expected)
                value = reference_objective(model, assignment)
                if value is None:
                    infeasible += 1
                    with pytest.raises(ConstraintViolationError):
                        objective_value(model, assignment)
                else:
                    feasible += 1
                    assert objective_value(model, assignment) == value
        assert feasible >= 10 and infeasible >= 150 and pairs >= 50


def test_pruned_pools_have_no_encoder_classes():
    """Naming-variant pruning keeps one encoder per consequence set, so a
    model of a ``prepare_pool`` pool has decoder classes only: on seeded
    random KBs, the benchmark's family KBs and Fig. 1 at the default bias,
    every class member is a dc position.  Unpruned pools
    (``variant_models``) do have encoder classes."""
    kb = fig1_kb()
    encoders, decoders, _, _ = prepare_pool(kb, {}, GenerationConfig())
    models = audit_models() + [build_model(encoders, decoders, kb, Fraction(2))]
    classes = [(ps, model.first[DC]) for model in models for ps in model.class_positions]
    assert len(classes) >= 50
    assert all(min(ps) >= first_dc for ps, first_dc in classes)
    assert all(
        any(min(ps) < model.first[DC] for ps in model.class_positions)
        for model in variant_models()
    )


def variant_models():
    """Models of seeded random pools that keep naming variants, so some
    encoder classes have two or more members: their class rows read ec
    positions, which the coupling rows set."""
    rng = random.Random(137)
    models = []
    while len(models) < 6:
        kb = random_kb(rng, max_facts=10)
        encoders = generate_encoder_candidates(kb, {}, default_config())
        decoders, _, _ = generate_pruned_decoders(encoders, kb, default_config())
        if encoders and decoders:
            models.append(build_model(encoders, decoders, kb, Fraction(1)))
    return models


class TestCompletion:
    """``assignment_from_dc`` reads the model's ``iff_or`` rows; these
    checks read the candidates, ``rf_atoms`` and ``class_positions``."""

    def test_completion_follows_the_candidates(self):
        rng = random.Random(131)
        for model in audit_models() + variant_models():
            n_dc = len(model.dc_candidates)
            shares = (0.0, 0.05, 0.05, 0.2, 0.2, 0.5, 0.5, 1.0)
            for share in shares:
                selected = {j for j in range(n_dc) if rng.random() < share}
                assignment = assignment_from_dc(model, selected)
                assert len(assignment) == len(model.all_ids())

                def value(kind, i):
                    return assignment[position(model, VarId(i, kind))]

                assert {j for j in range(n_dc) if value(DC, j)} == selected
                chosen = [model.dc_candidates[j] for j in selected]
                used = {l.predicate for c in chosen for l in c.body}
                assert [value(EC, i) for i in range(len(model.ec_candidates))] == [
                    int(c.head.predicate in used) for c in model.ec_candidates
                ]
                reconstructed = frozenset().union(*map(consequences, chosen))
                assert [value(RF, k) for k in range(len(model.rf_atoms))] == [
                    int(atom in reconstructed) for atom in model.rf_atoms
                ]
                assert [value(CL, k) for k in range(len(model.class_positions))] == [
                    max(assignment[p] for p in ps) for ps in model.class_positions
                ]
                violated = check_assignment(model, assignment)
                assert all(model.rows[k][0] != IFF_OR for k in violated)

    def test_greedy_selection_is_completed_and_meets_the_bottleneck(self):
        emptied = 0
        for model in audit_models() + variant_models():
            greedy = _greedy_selection(_Searcher(model))
            n_dc = len(model.dc_candidates)
            selected = {
                j for j in range(n_dc) if greedy[position(model, VarId(j, DC))]
            }
            assert greedy == assignment_from_dc(model, selected)
            assert model.rows[0][0] == LINEAR_LE
            assert 0 not in check_assignment(model, greedy)
            emptied += not selected
        assert emptied >= 1  # some models ban every latent in use


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


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("family-dec1", "ceb14465623ec230e206a3208fa6efd45e1ab935d8c0570a06e5cdae63a68c12"),
        ("default-bias", "2ca93ee6e5e3d15206e7eabd61984d550e229cc9ee1e5acaa3ab96410c01bdc8"),
    ],
    ids=["family-dec1", "default-bias"],
)
def test_benchmark_models_pinned(workload, digest):
    """SHA-256 of ``dump_model`` over every KB of seed 1 of a benchmark
    workload, built at the workload's gamma and decoder body length;
    recorded while constraints were still built as ``VarId`` tuples."""
    workloads = load_workloads()
    settings = workloads.WORKLOADS[workload].learn
    config = GenerationConfig(max_decoder_body_len=settings.max_dec_len)
    h = hashlib.sha256()
    for generated in workloads.generate(workloads.WORKLOADS[workload], 1)[0]:
        doc = parse_kb_document(generated.text)
        encoders, decoders, _, _ = prepare_pool(doc.kb, doc.modes, config)
        model = build_model(encoders, decoders, doc.kb, Fraction(settings.gamma))
        h.update(dump_model(model).encode())
    assert h.hexdigest() == digest
