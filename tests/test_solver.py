"""Branch-and-bound subsolver and the LNS wrapper around it."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from alp import GenerationConfig, parse_kb_document
from alp.candidates import AtomIndex
from alp import solver
from alp.errors import AlpError, InfeasibleError
from alp.kb import Fact
from alp.logic import Clause, DECODER, ENCODER
from alp.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE_OF_PAIR,
    CL,
    DC,
    EC,
    IFF_OR,
    LINEAR_LE,
    RF,
    Constraint,
    ConstraintViolationError,
    CopModel,
    VarId,
    assignment_from_dc,
    build_model,
    check_assignment,
    induced_alp,
    objective_value,
)
from alp.pipeline import prepare_pool
from alp.solver import (
    ExactResult,
    SearchConfig,
    _Searcher,
    lns_minimize,
)
from helpers import (
    FIG1_TEXT,
    assignment_of,
    brute_force_loss_optimum,
    brute_force_objective,
    candidate,
    default_config,
    fact,
    fig1_kb,
    initial_solution,
    kb_of,
    lit,
    load_workloads,
    loss_consistency,
    pipeline_pool,
    position,
    pred,
    random_kb,
    solve_exact,
    with_constraints,
)

MOTHER = pred("mother", 2)
L1 = pred("latent_1", 2, "latent")
L2 = pred("latent_2", 2, "latent")


def tiny_model():
    """One decoder, its encoder, one rf over a single KB fact."""
    kb = kb_of(fact(MOTHER, "padme", "leia"))
    enc_index, dec_index = AtomIndex(), AtomIndex(kb.facts)
    e1 = candidate(
        Clause(lit(L1, "X", "Y"), (lit(MOTHER, "X", "Y"),)),
        ENCODER,
        [fact(L1, "padme", "leia")],
        enc_index,
    )
    d1 = candidate(
        Clause(lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),)),
        DECODER,
        [fact(MOTHER, "padme", "leia")],
        dec_index,
    )
    return kb, build_model([e1], [d1], kb, Fraction(1))


def random_model(rng, gamma=None, max_dc=12):
    """A pipeline-built model over a random KB, or None if degenerate."""
    kb = random_kb(rng, max_facts=8)
    encoders, decoders, _, _ = pipeline_pool(kb)
    if not encoders or not decoders or len(decoders) > max_dc:
        return None, None
    gamma = gamma or Fraction(rng.choice([1, 2, 4]))
    return kb, build_model(encoders, decoders, kb, gamma)


class TestSolveExact:
    def test_fully_fixed_feasible_assignment(self):
        _, model = tiny_model()
        fixed = assignment_from_dc(model, {0})
        result = solve_exact(model, dict(enumerate(fixed)))
        assert result.complete
        assert result.objective == 0
        assert result.best == fixed

    def test_three_variable_instance_enumerates_to_zero(self):
        # 8 possible assignments; the feasible optimum selects dc and ec.
        _, model = tiny_model()
        result = solve_exact(model)
        assert result.complete
        assert result.objective == 0
        assert result.best[position(model, VarId(0, DC))] == 1
        assert result.best[position(model, VarId(0, EC))] == 1

    def test_infeasible_root(self):
        _, model = tiny_model()
        fixed = {position(model, VarId(0, DC)): 1, position(model, VarId(0, EC)): 0}
        result = solve_exact(model, fixed)
        assert result.complete
        assert result.best is None

    def test_bound_excludes_equal_objective(self):
        _, model = tiny_model()
        result = solve_exact(model, incumbent_bound=0)
        assert result.complete
        assert result.best is None

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(71)
        tested = 0
        while tested < 12:
            kb, model = random_model(rng)
            if model is None:
                continue
            oracle = brute_force_objective(model)
            result = solve_exact(model, fail_limit=10**7)
            assert result.complete
            if oracle is None:
                assert result.best is None
            else:
                assert result.objective == oracle
            tested += 1

    def test_never_returns_violating_assignment(self):
        rng = random.Random(73)
        tested = 0
        while tested < 10:
            kb, model = random_model(rng)
            if model is None:
                continue
            result = solve_exact(model, fail_limit=10**7)
            if result.best is not None:
                assert check_assignment(model, result.best) == []
                assert objective_value(model, result.best) == result.objective
            tested += 1

    def test_fail_limit_reports_incomplete(self):
        rng = random.Random(79)
        stopped = 0
        for _ in range(40):
            kb, model = random_model(rng)
            if model is None:
                continue
            result = solve_exact(model, fail_limit=1)
            if not result.complete:
                stopped += 1
        assert stopped > 0


class TestInitialSolution:
    def test_forced_single_decoders_selected(self):
        _, model = tiny_model()
        assignment = initial_solution(model)
        assert assignment[position(model, VarId(0, DC))] == 1
        assert check_assignment(model, assignment) == []

    def test_least_corrupt_decoder_preferred(self):
        kb = kb_of(fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke"))
        enc_index, dec_index = AtomIndex(), AtomIndex(kb.facts)
        e1 = candidate(
            Clause(lit(L1, "X", "Y"), (lit(MOTHER, "X", "Y"),)),
            ENCODER,
            [fact(L1, "padme", "leia"), fact(L1, "padme", "luke")],
            enc_index,
        )
        e2 = candidate(
            Clause(lit(L2, "X", "Y"), (lit(MOTHER, "X", "Y"),)),
            ENCODER,
            [
                fact(L2, "padme", "leia"),
                fact(L2, "padme", "luke"),
                fact(L2, "padme", "padme"),
            ],
            enc_index,
        )
        clean = candidate(
            Clause(lit(MOTHER, "X", "Y"), (lit(L1, "X", "Y"),)),
            DECODER,
            [fact(MOTHER, "padme", "leia"), fact(MOTHER, "padme", "luke")],
            dec_index,
        )
        corrupt = candidate(
            Clause(lit(MOTHER, "X", "Y"), (lit(L2, "X", "Y"),)),
            DECODER,
            [
                fact(MOTHER, "padme", "leia"),
                fact(MOTHER, "padme", "luke"),
                fact(MOTHER, "padme", "padme"),
            ],
            dec_index,
        )
        model = build_model([e1, e2], [clean, corrupt], kb, Fraction(3))
        assignment = initial_solution(model)
        clean_index = model.dc_candidates.index(clean)
        assert assignment[position(model, VarId(clean_index, DC))] == 1

    def test_random_seeds_are_feasible(self):
        rng = random.Random(83)
        tested = 0
        while tested < 15:
            kb, model = random_model(rng)
            if model is None:
                continue
            try:
                assignment = initial_solution(model)
            except InfeasibleError:
                assert brute_force_objective(model) is None
                tested += 1
                continue
            assert check_assignment(model, assignment) == []
            tested += 1

    def test_seed_pinned(self):
        """Decoder selections and objectives recorded from the seed before
        its repair loop was merged.  The seed, now one dive of the exact
        subsolver, still gives them; three of these draws have no feasible
        seed."""
        got = []
        for model in pinned_models():
            try:
                seed = initial_solution(model)
            except InfeasibleError:
                got.append(None)
                continue
            selected = [
                j
                for j in range(len(model.dc_candidates))
                if seed[position(model, VarId(j, DC))]
            ]
            got.append((selected, objective_value(model, seed)))
        assert got == [
            ([2, 55, 69, 76], 6), ([1, 9], 9), None, ([2, 10, 19], 4), None,
            ([3, 24, 37, 48], 8), ([3, 11], 4), ([5, 7], 6), None, ([1, 2, 9], 4),
        ]


class TestSeedDive:
    """The seed is the subsolver's first solution when it tries the greedy
    selection's values first."""

    def test_a_feasible_greedy_selection_is_the_seed(self):
        models = pinned_models()
        rng = random.Random(109)
        drawn = 0
        while drawn < 15:
            _, model = random_model(rng)
            if model is not None:
                models.append(model)
                drawn += 1
        feasible = 0
        for model in models:
            greedy = solver._greedy_selection(model)
            if check_assignment(model, greedy):
                continue
            dive = _Searcher(model).solve(
                {}, SearchConfig.fail_limit, math.inf, greedy, first=True
            )
            assert (dive.best, dive.failures, dive.complete) == (greedy, 0, False)
            assert initial_solution(model) == greedy
            feasible += 1
        assert feasible >= 15

    @pytest.mark.parametrize("case", ["fig1-dec2", "family-dec1-seed1-kb21"])
    def test_every_search_gets_the_run_limits(self, searches, case):
        """Fig. 1 at --max-dec-len 2 and this family KB both start from a
        greedy selection that breaks a generality pair."""
        if case == "fig1-dec2":
            kb, gamma = fig1_kb(), Fraction(2)
            generation = default_config(max_decoder_body_len=2)
        else:
            workloads = load_workloads()
            kbs, _ = workloads.generate(workloads.WORKLOADS["family-dec1"], 1)
            kb, gamma = parse_kb_document(kbs[21].text).kb, Fraction(1, 2)
            generation = default_config()
        encoders, decoders, _, _ = pipeline_pool(kb, generation)
        model = build_model(encoders, decoders, kb, gamma)
        assert check_assignment(model, solver._greedy_selection(model)) != []

        config = SearchConfig(iterations=20, fail_limit=1000)
        lns_minimize(model, config)
        assert searches
        assert {args[1] for args in searches} == {config.fail_limit}
        deadlines = {args[4] for args in searches}
        assert len(deadlines) == 1 and math.isfinite(deadlines.pop())

    def test_the_constant_offset_proves_optimality(self, searches):
        """``rainy.`` has no decoder, so its fact is the model's constant
        offset: a seed at the offset is optimal, and no LNS search runs."""
        kb = parse_kb_document(FIG1_TEXT + "rainy.\n").kb
        encoders, decoders, _, _ = pipeline_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(2))
        assert model.constant_offset == 1
        solution = lns_minimize(model, SearchConfig(iterations=20, fail_limit=1000))
        assert (solution.objective, solution.proven_optimal) == (1, True)
        assert len(searches) == 1  # the seed's dive


@pytest.fixture
def searches(monkeypatch):
    """The positional arguments of every ``_Searcher.solve`` call."""
    calls = []
    solve = _Searcher.solve

    def recording(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(_Searcher, "solve", recording)
    return calls


class TestLnsMinimize:
    def test_optimal_seed_returns_immediately(self):
        _, model = tiny_model()
        solution = lns_minimize(model, SearchConfig(iterations=50, seed=5))
        assert solution.objective == 0
        assert solution.iteration_found == 0
        assert solution.proven_optimal

    def test_alpha_beta_zero_is_exact(self):
        rng = random.Random(89)
        tested = 0
        while tested < 10:
            kb, model = random_model(rng)
            if model is None:
                continue
            oracle = brute_force_loss_optimum(model, kb)
            config = SearchConfig(
                alpha=0, beta=0, iterations=5, fail_limit=10**7, seed=3
            )
            try:
                solution = lns_minimize(model, config)
            except InfeasibleError:
                assert oracle is None
                tested += 1
                continue
            assert solution.objective == oracle
            assert solution.proven_optimal
            tested += 1

    def test_determinism_bit_for_bit(self):
        rng = random.Random(97)
        tested = 0
        while tested < 5:
            kb, model = random_model(rng)
            if model is None:
                continue
            config = SearchConfig(iterations=30, fail_limit=200, seed=11)
            try:
                a = lns_minimize(model, config)
                b = lns_minimize(model, config)
            except InfeasibleError:
                continue
            assert a == b
            tested += 1

    def test_incumbent_objective_non_increasing(self):
        rng = random.Random(101)
        tested = 0
        while tested < 8:
            kb, model = random_model(rng)
            if model is None:
                continue
            seen = []
            config = SearchConfig(iterations=40, fail_limit=500, seed=13)
            try:
                lns_minimize(
                    model,
                    config,
                    progress=lambda it, obj, ms, ec, dc: seen.append(obj),
                )
            except InfeasibleError:
                continue
            assert seen == sorted(seen, reverse=True)
            tested += 1

    def test_solutions_pass_audits(self):
        rng = random.Random(103)
        tested = 0
        while tested < 8:
            kb, model = random_model(rng)
            if model is None:
                continue
            try:
                solution = lns_minimize(
                    model, SearchConfig(iterations=25, fail_limit=500, seed=17)
                )
            except InfeasibleError:
                continue
            assert check_assignment(model, solution.assignment) == []
            assert loss_consistency(model, solution.assignment, kb)
            tested += 1

    def test_one_config_gives_equal_solutions(self):
        rng = random.Random(107)
        kb, model = None, None
        while model is None:
            kb, model = random_model(rng)
        config = SearchConfig(iterations=10, fail_limit=300, seed=23)
        assert lns_minimize(model, config) == lns_minimize(model, config)

    def test_time_limit_bounds_the_seed_dive(self):
        # The greedy selection is infeasible on this model, so the seed's
        # dive repairs it; the exhaustive search takes well over the 1,024
        # nodes between deadline polls.
        rng = random.Random(22)
        for _ in range(4):
            kb = random_kb(rng, max_constants=6, max_facts=30)
        encoders, decoders, _, _ = pipeline_pool(kb)
        model = build_model(encoders, decoders, kb, Fraction(1, 2))
        assert check_assignment(model, solver._greedy_selection(model)) != []
        full = solve_exact(model, fail_limit=50_000)
        assert full.complete and full.failures > 1024

        cut = _Searcher(model).solve({}, 50_000, math.inf, deadline=0.0)
        assert not cut.complete
        assert cut.failures < full.failures
        assert check_assignment(model, cut.best) == []

        seed = initial_solution(model)
        assert check_assignment(model, seed) == []
        solution = lns_minimize(model, SearchConfig(time_limit=0.0))
        assert solution.assignment == seed
        assert solution.objective == objective_value(model, seed) > full.objective
        assert (solution.iteration_found, solution.proven_optimal) == (0, False)

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            ("infeasible", ConstraintViolationError, "violated"),
            ("misscored", AlpError, "disagrees"),
        ],
    )
    def test_a_bad_improvement_raises(self, monkeypatch, corrupt, error, message):
        class Stub(_Searcher):
            """Offers the incumbent back as an improvement."""

            def solve(self, fixed, fail_limit, incumbent_bound, incumbent=None,
                      deadline=math.inf, first=False):
                if first:  # the seed's dive
                    return super().solve(
                        fixed, fail_limit, incumbent_bound, incumbent, deadline, first
                    )
                best = list(incumbent)
                if corrupt == "infeasible":
                    ec0 = position(self.model, EC0)
                    best[ec0] = 1 - best[ec0]  # breaks ec_0 <-> OR(its decoders)
                return ExactResult(best, incumbent_bound - 1, False, 0)

        model = pinned_models()[0]  # a greedy seed of objective 6
        monkeypatch.setattr(solver, "_Searcher", Stub)
        with pytest.raises(error, match=message):
            lns_minimize(model, SearchConfig(iterations=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(alpha=150)
        with pytest.raises(ValueError):
            SearchConfig(iterations=0)


def test_solver_path_hashes_no_varid(monkeypatch):
    """With both models built, the search, the audit and the induced
    program neither hash nor compare a VarId."""
    workloads = load_workloads()
    family = workloads.generate(workloads.WORKLOADS["family-dec1"], 7)[0][0]
    doc = parse_kb_document(family.text)
    encoders, decoders, _, _ = prepare_pool(
        doc.kb, doc.modes, GenerationConfig(max_decoder_body_len=1)
    )
    models = [build_model(encoders, decoders, doc.kb, Fraction(1, 2))]
    encoders, decoders, _, _ = pipeline_pool(fig1_kb())
    models.append(build_model(encoders, decoders, fig1_kb(), Fraction(2)))

    def refuse(*args):
        raise AssertionError("a VarId was hashed or compared")

    monkeypatch.setattr(VarId, "__hash__", refuse)
    monkeypatch.setattr(VarId, "__eq__", refuse)
    iterations = []
    for model in models:
        config = SearchConfig(iterations=20, fail_limit=1000)
        solution = lns_minimize(
            model, config, progress=lambda it, *_: iterations.append(it)
        )
        assert objective_value(model, solution.assignment) == solution.objective
        induced_alp(model, solution.assignment)
    assert max(iterations) > 0  # LNS improved at least once


def test_building_and_searching_make_no_constraint(monkeypatch):
    """From a feasible greedy seed, ``build_model`` and ``lns_minimize``
    work on the position rows alone: they never build the ``Constraint``
    view, and ``build_model`` builds no ``Fact``."""

    def refuse(self):
        raise AssertionError("the Constraint view was built")

    monkeypatch.setattr(CopModel, "constraints", property(refuse))
    kb = fig1_kb()
    encoders, decoders, _, _ = pipeline_pool(kb)
    facts = []
    check_arity = Fact.__post_init__
    monkeypatch.setattr(
        Fact, "__post_init__", lambda f: facts.append(f) or check_arity(f)
    )
    model = build_model(encoders, decoders, kb, Fraction(2))
    assert facts == []
    assert check_assignment(model, initial_solution(model)) == []
    solution = lns_minimize(model, SearchConfig(iterations=20, fail_limit=1000))
    assert objective_value(model, solution.assignment) == solution.objective


def two_decoder_model(*constraints, class_members=()):
    """Two encoders, their two decoders and one rf, under only the given
    constraints and classes: each propagation family can be exercised on
    its own."""
    kb = kb_of(fact(MOTHER, "padme", "leia"))
    enc_index, dec_index = AtomIndex(), AtomIndex(kb.facts)
    encoders = [
        candidate(
            Clause(lit(latent, "X", "Y"), (lit(MOTHER, "X", "Y"),)),
            ENCODER,
            [fact(latent, "padme", "leia")],
            enc_index,
        )
        for latent in (L1, L2)
    ]
    decoders = [
        candidate(
            Clause(lit(MOTHER, "X", "Y"), (lit(latent, "X", "Y"),)),
            DECODER,
            [fact(MOTHER, "padme", "leia")],
            dec_index,
        )
        for latent in (L1, L2)
    ]
    model = build_model(encoders, decoders, kb, Fraction(1))
    return with_constraints(model, constraints, class_members)


EC0, EC1, DC0, DC1, RF0, CL0 = (
    VarId(0, EC), VarId(1, EC), VarId(0, DC), VarId(1, DC), VarId(0, RF), VarId(0, CL)
)


def class_model(*constraints):
    """The two decoders as one consequence class, plus the given constraints."""
    return two_decoder_model(
        Constraint(IFF_OR, (CL0, DC0, DC1)),
        Constraint(LINEAR_LE, (DC0, DC1, CL0), (1, 1, -1)),
        *constraints,
        class_members=((DC0, DC1),),
    )


class TestPropagation:
    """Each family forces a value before any branching: the incumbent asks
    for the opposite value first, so a value left to the search would cost
    at least one failure."""

    def solve(self, model, fixed, incumbent=None):
        """``solve_exact`` with ``fixed`` and the incumbent given by VarId,
        and the best assignment read back by VarId."""
        fixed = {position(model, v): value for v, value in fixed.items()}
        if incumbent is not None:
            incumbent = assignment_of(model, incumbent)
        result = solve_exact(model, fixed, incumbent=incumbent)
        if result.best is None:
            return result
        best = {v: result.best[position(model, v)] for v in model.all_ids()}
        return replace(result, best=best)

    def forced(self, model, fixed, incumbent):
        result = self.solve(model, fixed, incumbent)
        assert (result.complete, result.failures) == (True, 0)
        return result.best

    def test_pair_member_at_one_clears_its_partner(self):
        model = two_decoder_model(Constraint(AT_MOST_ONE_OF_PAIR, (DC0, DC1)))
        best = self.forced(
            model, {EC0: 0, EC1: 0, DC0: 1, RF0: 1}, incumbent={DC1: 1}
        )
        assert best[DC1] == 0

    def test_pair_with_both_members_at_one_fails_at_the_root(self):
        model = two_decoder_model(Constraint(AT_MOST_ONE_OF_PAIR, (DC0, DC1)))
        result = self.solve(model, {DC0: 1, DC1: 1})
        assert (result.best, result.complete, result.failures) == (None, True, 1)

    def test_iff_or_head_at_zero_clears_its_body(self):
        model = two_decoder_model(Constraint(IFF_OR, (EC0, DC0, DC1)))
        best = self.forced(
            model, {EC0: 0, EC1: 0, RF0: 0}, incumbent={DC0: 1, DC1: 1}
        )
        assert (best[DC0], best[DC1]) == (0, 0)

    def test_iff_or_body_at_one_sets_its_head(self):
        model = two_decoder_model(Constraint(IFF_OR, (RF0, DC0, DC1)))
        best = self.forced(
            model, {EC0: 0, EC1: 0, DC0: 1, DC1: 0}, incumbent={RF0: 0}
        )
        assert best[RF0] == 1

    def test_last_unknown_of_at_least_one_is_set(self):
        model = two_decoder_model(Constraint(AT_LEAST_ONE, (DC0, DC1)))
        best = self.forced(model, {EC0: 0, EC1: 0, DC0: 0, RF0: 0}, incumbent={})
        assert best[DC1] == 1

    def test_class_member_at_one_clears_its_class(self):
        best = self.forced(
            class_model(), {EC0: 0, EC1: 0, DC0: 1, RF0: 1}, incumbent={DC1: 1}
        )
        assert (best[CL0], best[DC1]) == (1, 0)

    def test_class_with_two_members_at_one_fails_at_the_root(self):
        result = self.solve(class_model(), {DC0: 1, DC1: 1})
        assert (result.best, result.complete, result.failures) == (None, True, 1)

    def test_class_cleared_by_a_strict_pair_clears_its_members(self):
        # EC0 stands in for a class nested with the decoders' class.
        model = class_model(Constraint(AT_MOST_ONE_OF_PAIR, (EC0, CL0)))
        best = self.forced(
            model, {EC0: 1, EC1: 0, RF0: 0}, incumbent={DC0: 1, DC1: 1}
        )
        assert (best[CL0], best[DC0], best[DC1]) == (0, 0, 0)

    def test_bottleneck_clears_an_over_weight_encoder(self):
        model = two_decoder_model(Constraint(LINEAR_LE, (EC0, EC1), (3, -1)))
        best = self.forced(
            model, {EC1: 1, DC0: 0, DC1: 0, RF0: 0}, incumbent={EC0: 1}
        )
        assert best[EC0] == 0


def test_the_root_checks_only_what_can_act_unassigned():
    """The root checks only the constraints that can act with nothing
    assigned; propagation reaches the same fixpoint in any order, so every
    search returns what it returns when the root checks every constraint."""
    rng = random.Random(131)
    compared = acting = 0
    while compared < 30:
        _, model = random_model(rng)
        if model is None:
            continue
        compared += 1
        searcher, reference = _Searcher(model), _Searcher(model)
        reference.root_checks = range(len(reference.heads))
        acting += len(searcher.root_checks)
        for share in (0.0, 0.1, 0.3, 0.6):
            picked = rng.sample(range(searcher.n), int(searcher.n * share))
            fixed = {p: rng.randint(0, 1) for p in picked}
            for fail_limit in (10, 10**6):
                got = searcher.solve(fixed, fail_limit, math.inf)
                assert got == reference.solve(fixed, fail_limit, math.inf)
    assert acting > 0


def pinned_models():
    """Ten seeded draws; the non-degenerate ones have search trees of up to
    180 failures and LNS runs that improve as late as iteration 14."""
    rng = random.Random(1)
    models = []
    for _ in range(10):
        kb = random_kb(rng, max_constants=6, max_facts=20)
        encoders, decoders, _, _ = pipeline_pool(kb)
        if encoders and decoders:
            models.append(build_model(encoders, decoders, kb, Fraction(1, 2)))
    return models


class TestSearchTreePinned:
    """Literals recorded from the solver before its propagation became
    counter based; the rewrite kept the search tree node for node."""

    def test_exact_search(self):
        got = []
        for model in pinned_models():
            for fail_limit in (50, 10**6):
                result = solve_exact(model, fail_limit=fail_limit)
                got.append((result.objective, result.complete, result.failures))
        assert got == [
            (1, False, 50), (0, True, 111), (0, False, 50), (0, True, 60),
            (None, True, 1), (None, True, 1), (4, True, 2), (4, True, 2),
            (None, True, 1), (None, True, 1), (2, False, 50), (0, True, 180),
            (0, True, 24), (0, True, 24), (6, True, 6), (6, True, 6),
            (None, True, 1), (None, True, 1), (2, True, 20), (2, True, 20),
        ]

    def test_lns_under_small_fail_limits(self):
        got = []
        for model in pinned_models():
            for fail_limit in (5, 20):
                config = SearchConfig(iterations=15, fail_limit=fail_limit, seed=7)
                try:
                    solution = lns_minimize(model, config)
                except InfeasibleError:
                    got.append(None)
                    continue
                got.append((solution.objective, solution.iteration_found))
        assert got == [
            (3, 2), (1, 4), (3, 9), (3, 9), None, None, (4, 0), (4, 0),
            None, None, (1, 12), (2, 14), (1, 5), (1, 5), (6, 0), (6, 0),
            None, None, (3, 1), (3, 1),
        ]
