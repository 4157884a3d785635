"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Oracles here are deliberately independent of the code paths they
check: exhaustive subset enumeration re-scored through the logic evaluator,
exhaustive substitution, and exact rational arithmetic.
"""

import random
import subprocess
import sys
from fractions import Fraction

from alp.candidates import (
    GenerationConfig,
    generate_decoder_candidates,
    generate_encoder_candidates,
    generate_pruned_decoders,
)
from alp.errors import CapacityError, InfeasibleError
from alp.kb import Fact, KnowledgeBase, ModeDeclaration, Predicate, avg_facts_per_predicate
from alp.logic import DISJUNCTION, reconstruction_loss
from alp.model import (
    EC,
    VarId,
    assignment_from_dc,
    build_model,
    check_assignment,
    induced_alp,
    objective_value,
)
from alp.pipeline import prepare_pool
from alp.pruning import prune_naming_variants
from alp.solver import SearchConfig, lns_minimize
from helpers import (
    brute_force_loss_optimum,
    cli_subprocess_env,
    default_config,
    drop_constraints,
    enumerate_bodies,
    fig1_kb,
    initial_solution,
    position,
    pred,
    random_kb,
    synthesize_lossless_instance,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed {suffix}"


def test_family_example_arithmetic():
    """Nine facts over five predicates: exact ratio 9/5, and the disjunctive
    mother-or-father encoder entails exactly four latent facts."""
    kb = fig1_kb()
    ratio_ok = avg_facts_per_predicate(kb) == Fraction(9, 5)
    candidates = generate_encoder_candidates(kb, {}, default_config())
    disjunctive = [
        c
        for c in candidates
        if c.clause.body_connective == DISJUNCTION
        and {l.predicate.name for l in c.clause.body} == {"mother", "father"}
        and c.clause.head.predicate.arity == 2
    ]
    weight_ok = any(c.weight == 4 for c in disjunctive)
    report(
        "family-example-arithmetic",
        ratio_ok and weight_ok,
        f"ratio={avg_facts_per_predicate(kb)}, weights={[c.weight for c in disjunctive]}",
    )


def test_mode_bias_fidelity():
    """With p(+,-) and q(-), one extension step of p(X,Y) yields exactly the
    four expected bodies of length 2; pair heads for p(X,Y),p(Y,Z) are
    exactly three."""
    p2, q1 = pred("p", 2), pred("q", 1)
    modes = {
        p2: ModeDeclaration(p2, ("+", "-")),
        q1: ModeDeclaration(q1, ("-",)),
    }
    extensions = {
        ",".join(map(str, body))
        for body, _ in enumerate_bodies([p2, q1], modes, 2, allow_disjunction=False)
        if len(body) == 2
    }
    bodies_ok = extensions == {
        "p(X,Y),p(Y,Z)",
        "p(X,Y),p(X,Z)",
        "p(X,Y),q(X)",
        "p(X,Y),q(Y)",
    }
    chain_kb = KnowledgeBase.from_facts(
        [
            Fact(p2, ("a", "b")),
            Fact(p2, ("b", "c")),
            Fact(q1, ("a",)),
        ]
    )
    pair_heads = {
        tuple(map(str, c.clause.head.args))
        for c in generate_encoder_candidates(chain_kb, modes, GenerationConfig())
        if ",".join(map(str, c.clause.body)) == "p(X,Y),p(Y,Z)"
        and c.clause.head.predicate.arity == 2
    }
    heads_ok = pair_heads == {("X", "Y"), ("X", "Z"), ("Y", "Z")}
    report(
        "mode-bias-fidelity",
        bodies_ok and heads_ok,
        f"bodies={sorted(extensions)}, pair_heads={sorted(pair_heads)}",
    )


def test_objective_equals_reconstruction_loss():
    """On 200+ random KBs and random feasible selections, the model
    objective equals the reconstruction loss of the induced program."""
    rng = random.Random(2024)
    kbs = 0
    checked = 0
    while kbs < 200:
        kb = random_kb(rng, max_constants=6, max_predicates=4, max_arity=2)
        dec_len = 2 if rng.random() < 0.2 else 1
        config = default_config(max_decoder_body_len=dec_len)
        try:
            encoders, decoders, _, _ = prepare_pool(kb, {}, config)
        except CapacityError:
            continue
        if not encoders or not decoders:
            continue
        kbs += 1
        # search-shaping constraints are irrelevant to the objective
        # arithmetic, and dropping them lets more selections through
        model = drop_constraints(
            build_model(encoders, decoders, kb, Fraction(rng.choice([1, 2, 4]))),
            generality=True,
            coverage=True,
        )
        n = len(model.dc_candidates)
        for _ in range(5):
            selected = {j for j in range(n) if rng.random() < 0.3}
            assignment = assignment_from_dc(model, selected)
            if check_assignment(model, assignment):
                continue
            objective = objective_value(model, assignment)
            loss = reconstruction_loss(induced_alp(model, assignment), kb)
            assert objective == loss, (
                f"objective {objective} != loss {loss} for selection {selected}"
            )
            checked += 1
    report(
        "objective-equals-loss",
        kbs >= 200 and checked >= 200,
        f"{kbs} KBs, {checked} feasible selections",
    )


def _exactness_stream(seed):
    """Random pipeline instances with at most 12 surviving decoders."""
    rng = random.Random(seed)
    while True:
        kb = random_kb(rng, max_facts=8)
        config = default_config()
        encoders, decoders, _, _ = prepare_pool(kb, {}, config)
        if not encoders or not decoders or len(decoders) > 12:
            continue
        gamma = Fraction(rng.choice([1, 2, 4]))
        yield kb, encoders, decoders, gamma


def test_exact_at_small_scale():
    """With nothing frozen and generous limits, the search matches an
    exhaustive decoder-subset oracle re-scored through the evaluator."""
    stream = _exactness_stream(7)
    matched = tested = 0
    while tested < 20:
        kb, encoders, decoders, gamma = next(stream)
        model = build_model(encoders, decoders, kb, gamma)
        oracle = brute_force_loss_optimum(model, kb)
        config = SearchConfig(
            alpha=0, beta=0, iterations=5, fail_limit=10**7, seed=1
        )
        try:
            solution = lns_minimize(model, config)
        except InfeasibleError:
            if oracle is None:
                tested += 1
                matched += 1
            else:
                tested += 1
            continue
        tested += 1
        if solution.objective == oracle and solution.proven_optimal:
            matched += 1
    report("exact-at-small-scale", matched == tested, f"{matched}/{tested}")


def test_pruning_preserves_optimum():
    """The exhaustive optimum over the pruned pool equals the optimum over
    the unpruned pool (bottleneck and coupling constraints only: generality
    and coverage shape the search, not the objective)."""

    def subset_optimum(encoders, decoders, kb, gamma):
        if not decoders:
            return len(kb.facts)
        model = drop_constraints(
            build_model(encoders, decoders, kb, gamma),
            generality=True,
            coverage=True,
        )
        best = None
        for mask in range(2 ** len(decoders)):
            selected = {j for j in range(len(decoders)) if mask >> j & 1}
            assignment = assignment_from_dc(model, selected)
            if check_assignment(model, assignment):
                continue
            value = objective_value(model, assignment)
            if best is None or value < best:
                best = value
        return best

    rng = random.Random(31)
    tested = 0
    while tested < 20:
        kb = random_kb(rng, max_facts=8)
        config = default_config()
        try:
            encoders_all = generate_encoder_candidates(kb, {}, config)
            if not encoders_all:
                continue
            decoders_all = generate_decoder_candidates(encoders_all, kb, config)
        except CapacityError:
            continue
        if not decoders_all or len(decoders_all) > 12:
            continue
        encoders_pruned = prune_naming_variants(encoders_all)
        decoders_pruned, _, _ = generate_pruned_decoders(encoders_pruned, kb, config)
        gamma = Fraction(rng.choice([1, 2, 4]))
        full = subset_optimum(encoders_all, decoders_all, kb, gamma)
        pruned = subset_optimum(encoders_pruned, decoders_pruned, kb, gamma)
        assert full == pruned, f"unpruned {full} != pruned {pruned}"
        tested += 1
    report("pruning-preserves-optimum", tested == 20, f"{tested} instances")


def _bottleneck_holds(model, assignment, gamma, kb) -> bool:
    total_weight = sum(
        c.weight * assignment[position(model, VarId(i, EC))]
        for i, c in enumerate(model.ec_candidates)
    )
    selected = sum(
        assignment[position(model, VarId(i, EC))]
        for i in range(len(model.ec_candidates))
    )
    if selected == 0:
        return True
    return Fraction(total_weight, selected) <= gamma * avg_facts_per_predicate(kb)


def test_bottleneck_enforced_on_solutions():
    """Every returned solution keeps the average latent facts per selected
    latent predicate within gamma * G, checked in exact arithmetic."""
    stream = _exactness_stream(13)
    checked = 0
    while checked < 25:
        kb, encoders, decoders, gamma = next(stream)
        model = build_model(encoders, decoders, kb, gamma)
        try:
            seed = initial_solution(model)
            solution = lns_minimize(
                model, SearchConfig(iterations=15, fail_limit=2000, seed=checked)
            )
        except InfeasibleError:
            continue
        assert _bottleneck_holds(model, seed, gamma, kb)
        assert _bottleneck_holds(model, solution.assignment, gamma, kb)
        checked += 1
    report("bottleneck-enforced", True, f"{checked} solutions")


def test_lossless_recovery():
    """On KBs generated by a hidden encoder/decoder pair that fits the
    enumeration language and the bottleneck at gamma 0.7, the pipeline
    reaches loss 0 in at least 18 of 20 seeded runs."""
    from alp.pipeline import learn

    wins = 0
    runs = 20
    for seed in range(runs):
        kb = synthesize_lossless_instance(random.Random(1000 + seed))
        config = default_config()
        result = learn(
            kb,
            {},
            config,
            SearchConfig(iterations=500, fail_limit=2000, seed=seed),
            Fraction(7, 10),
        )
        if result.solution.objective == 0:
            wins += 1
    report("lossless-recovery", wins >= 18, f"{wins}/{runs} runs reached 0")


def test_pruning_magnitude_logged():
    """Soft criterion: on a benchmark-shaped KB the three strategies should
    remove at least half the candidates; logged, not asserted."""
    rng = random.Random(5)
    constants = [f"e{i}" for i in range(50)]
    preds = [Predicate(f"q{i}", 2) for i in range(4)] + [
        Predicate(f"u{i}", 1) for i in range(2)
    ]
    facts = set()
    pairs = [(rng.choice(constants), rng.choice(constants)) for _ in range(30)]
    for t in pairs:
        facts.add(Fact(preds[0], t))
        if rng.random() < 0.7:
            facts.add(Fact(preds[1], t))
        if rng.random() < 0.4:
            facts.add(Fact(preds[2], (t[1], t[0])))
    for _ in range(25):
        facts.add(Fact(preds[3], (rng.choice(constants), rng.choice(constants))))
    for _ in range(12):
        facts.add(Fact(rng.choice(preds[4:]), (rng.choice(constants),)))
    kb = KnowledgeBase(frozenset(facts), frozenset(preds))
    config = GenerationConfig(
        max_encoder_body_len=2, max_decoder_body_len=1, max_candidates=400_000
    )
    _, _, counters, _ = prepare_pool(kb, {}, config)
    removed = (
        counters["removed_naming"]
        + counters["removed_signature"]
        + counters["removed_corruption"]
    )
    ratio = removed / counters["input_count"]
    print(
        f"ACCEPTANCE pruning-magnitude: INFO removed {removed}/"
        f"{counters['input_count']} = {ratio:.1%} (target >= 50%, soft)"
    )


def test_repeated_runs_byte_identical(tmp_path):
    """Same seed, two fresh processes with different hash seeds: model and
    latent files must match byte for byte."""
    kb_path = tmp_path / "family.facts"
    from helpers import FIG1_TEXT

    kb_path.write_text(FIG1_TEXT, encoding="utf-8")
    outputs = []
    for run, hashseed in (("a", "101"), ("b", "20224")):
        out = tmp_path / run
        out.mkdir()
        cmd = [
            sys.executable,
            "-m",
            "alp.cli",
            "learn",
            str(kb_path),
            "--gamma",
            "1",
            "--max-dec-len",
            "1",
            "--seed",
            "21",
            "--iterations",
            "60",
            "--out-model",
            str(out / "model.alp"),
            "--out-latent",
            str(out / "latent.facts"),
            "--report",
            str(out / "report.json"),
        ]
        proc = subprocess.run(
            cmd,
            capture_output=True,
            env=cli_subprocess_env(hashseed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                (out / "model.alp").read_bytes(),
                (out / "latent.facts").read_bytes(),
            )
        )
    report("deterministic-outputs", outputs[0] == outputs[1])
