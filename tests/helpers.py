"""Shared test fixtures: tiny constructors, random instances, brute-force
oracles kept deliberately independent of the library's evaluation path."""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from typing import Iterable, Iterator

import alp
from alp.candidates import AtomIndex, CandidateClause, GenerationConfig, _enumerate
from alp.errors import CapacityError
from alp.kb import (
    ORIGIN_BACKGROUND,
    ORIGIN_LATENT,
    Fact,
    KnowledgeBase,
    ModeDeclaration,
    Predicate,
    is_variable,
    predicate_order,
)
from alp.logic import (
    CONJUNCTION,
    DECODER,
    DISJUNCTION,
    ENCODER,
    Alp,
    Clause,
    Literal,
    LogicProgram,
    Shape,
    shape_key,
    var_name,
)
from alp.logic import reconstruction_loss
from alp.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE_OF_PAIR,
    Assignment,
    CL,
    CopModel,
    DC,
    EC,
    IFF_OR,
    RF,
    VarId,
    assignment_from_dc,
    check_assignment,
    induced_alp,
    objective_value,
)
from alp.pipeline import prepare_pool
from alp.solver import ExactResult, SearchConfig, _Searcher, _first_solution


def cli_subprocess_env(hashseed: str) -> dict[str, str]:
    """Environment for a fresh ``python -m alp.cli`` child process.

    Only ``PATH``, ``PYTHONHASHSEED`` and ``PYTHONPATH`` are set.  The
    directory holding the ``alp`` package this process imported comes first
    on ``PYTHONPATH``, ahead of any inherited entries, so the child runs the
    same code as the in-process tests and not an installed copy.
    """
    pythonpath = [str(Path(alp.__file__).resolve().parent.parent)]
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        pythonpath.append(inherited)
    return {
        "PATH": "/usr/bin:/bin",
        "PYTHONHASHSEED": hashseed,
        "PYTHONPATH": os.pathsep.join(pythonpath),
    }


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded from its file: ``bench`` is
    not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """The benchmark's seeded KB generators (``bench/workloads.py``, which
    does not import alp)."""
    return load_bench("workloads")


def pred(name, arity, origin="input"):
    return Predicate(name, arity, origin)


def fact(p, *args):
    return Fact(p, args)


def lit(p, *args, negated=False):
    return Literal(p, args, negated)


def enumerate_bodies(
    predicates: list[Predicate],
    modes: dict[Predicate, ModeDeclaration],
    max_len: int,
    allow_disjunction: bool,
    allow_negation: bool = False,
) -> list[tuple[tuple[Literal, ...], str]]:
    """The bodies the candidate generators enumerate, as (literals,
    connective), canonically ordered and deduped."""
    bodies = _enumerate(predicates, modes, max_len, allow_disjunction, allow_negation)
    return [b.body for b in bodies]


DEFAULT_HERBRAND_CEILING = 1_000_000


def herbrand_base(
    vocabulary: Iterable[Predicate],
    constants: Iterable[str],
    ceiling: int = DEFAULT_HERBRAND_CEILING,
) -> frozenset[Fact]:
    """All ground atoms over the vocabulary and constants.

    The result has exactly sum(|C|^arity) atoms, which grows fast; a
    CapacityError guards against accidental blowups.  A test oracle for
    desk-scale instances.
    """
    preds = sorted(set(vocabulary), key=predicate_order)
    consts = sorted(set(constants))
    size = sum(len(consts) ** p.arity for p in preds)
    if size > ceiling:
        raise CapacityError(f"Herbrand base has {size} atoms, ceiling {ceiling}")
    atoms = set()
    for p in preds:
        atoms.update(Fact(p, args) for args in _tuples(consts, p.arity))
    return frozenset(atoms)


def background_predicates(kb: KnowledgeBase) -> frozenset[Predicate]:
    """The KB's vocabulary of background origin."""
    return frozenset(p for p in kb.vocabulary if p.origin == ORIGIN_BACKGROUND)


def _tuples(consts: list[str], n: int) -> Iterator[tuple[str, ...]]:
    if n == 0:
        yield ()
        return
    for prefix in _tuples(consts, n - 1):
        for c in consts:
            yield prefix + (c,)


def corruption_level(decoder: CandidateClause, kb: KnowledgeBase) -> Fraction:
    """Fraction of the decoder's reconstructions that are not KB facts."""
    false = (decoder.mask & ~decoder.index.kb_mask_of(kb)).bit_count()
    return Fraction(false, decoder.weight)


def candidate(clause: Clause, kind: str, facts, index: AtomIndex) -> CandidateClause:
    """A hand-made candidate whose consequences are ``facts``, set in the
    pool's ``index`` (bare rows for an encoder pool)."""
    key = None if kind == ENCODER else clause.head.predicate
    mask = index.mask(key, [f.args for f in facts])
    return CandidateClause(
        clause.head, clause.body, clause.body_connective, mask, index, str(clause)
    )


def kb_of(*facts, background=(), extra_predicates=(), extra_constants=()):
    return KnowledgeBase.from_facts(
        facts,
        background=background,
        extra_predicates=extra_predicates,
        extra_constants=extra_constants,
    )


def brute_force_consequences(clause: Clause, facts) -> frozenset[Fact]:
    """Try every substitution of body variables to constants in the facts.

    Independent of the join evaluator: used as the ground-truth oracle.
    """
    facts = set(facts)
    constants = sorted({a for f in facts for a in f.args})
    variables = []
    for l in clause.body:
        for v in l.variables():
            if v not in variables:
                variables.append(v)
    out = set()
    for values in product(constants, repeat=len(variables)):
        subst = dict(zip(variables, values))

        def ground(literal):
            args = tuple(subst[a] if is_variable(a) else a for a in literal.args)
            return Fact(literal.predicate, args)

        if clause.body_connective == DISJUNCTION:
            ok = any(ground(l) in facts for l in clause.body)
        else:
            ok = all(
                (ground(l) not in facts) if l.negated else (ground(l) in facts)
                for l in clause.body
            )
        if ok:
            out.add(ground(clause.head))
    return frozenset(out)


def consequences(c: CandidateClause) -> frozenset[Fact]:
    """A candidate's consequences as facts, decoded from its bitset."""
    return frozenset(Fact(c.head.predicate, row) for row in c.rows())


def latent_facts(encoders) -> frozenset[Fact]:
    """Union of the latent facts the candidate encoders entail: the context
    the decoder candidates are evaluated on."""
    return frozenset().union(*map(consequences, encoders))


def body_variables(literals) -> list[str]:
    """The literals' variables in order of first appearance."""
    return list(dict.fromkeys(v for l in literals for v in l.variables()))


def _rename_by_appearance(literals) -> tuple[Literal, ...]:
    mapping: dict[str, str] = {}
    out = []
    for l in literals:
        args = []
        for a in l.args:
            if is_variable(a):
                if a not in mapping:
                    mapping[a] = var_name(len(mapping))
                args.append(mapping[a])
            else:
                args.append(a)
        out.append(Literal(l.predicate, tuple(args), l.negated))
    return tuple(out)


def canonical_body(body, connective=CONJUNCTION) -> tuple[Literal, ...]:
    """The naive canonical form: the renaming by appearance whose rendered
    literals are least over every literal order (a disjunction sorts its
    disjuncts by predicate instead).  Reference for ``body_key``."""
    if connective == DISJUNCTION:
        return _rename_by_appearance(
            sorted(body, key=lambda l: (l.predicate.name, l.predicate.arity))
        )
    return min(
        (_rename_by_appearance(perm) for perm in permutations(body)),
        key=lambda renamed: tuple(str(l) for l in renamed),
    )


def reference_body_key(body, connective=CONJUNCTION) -> str:
    sep = "," if connective == CONJUNCTION else ";"
    return sep.join(str(l) for l in canonical_body(body, connective))


def literal_shapes(literals: Iterable[Literal]) -> list[Shape]:
    """The literals' shapes, their variables numbered by first appearance
    and their constants standing as themselves."""
    numbers: dict[str, int] = {}  # by variable

    def number(a: str):
        return numbers.setdefault(a, len(numbers)) if is_variable(a) else a

    return [(l.predicate, l.negated, tuple(map(number, l.args))) for l in literals]


def body_key(body: tuple[Literal, ...], connective: str = CONJUNCTION) -> str:
    """``shape_key`` of a body of literals."""
    return shape_key(literal_shapes(body), connective)


def random_kb(
    rng: random.Random,
    max_constants=6,
    max_predicates=4,
    max_arity=2,
    max_facts=10,
    min_arity=1,
) -> KnowledgeBase:
    constants = [f"c{i}" for i in range(rng.randint(2, max_constants))]
    predicates = [
        Predicate(f"p{i}", rng.randint(min_arity, max_arity))
        for i in range(rng.randint(2, max_predicates))
    ]
    facts = set()
    for _ in range(rng.randint(2, max_facts)):
        p = rng.choice(predicates)
        facts.add(Fact(p, tuple(rng.choice(constants) for _ in range(p.arity))))
    return KnowledgeBase.from_facts(
        facts, extra_predicates=predicates, extra_constants=constants
    )


def random_clause(rng: random.Random, kb: KnowledgeBase) -> Clause:
    """A random range-restricted conjunctive clause over the KB vocabulary."""
    preds = sorted(kb.vocabulary, key=lambda p: (p.name, p.arity))
    preds = [p for p in preds if p.arity >= 1]
    body = []
    names = ["X", "Y", "Z", "W"]
    n_vars = rng.randint(1, 3)
    variables = names[:n_vars]
    for _ in range(rng.randint(1, 3)):
        p = rng.choice(preds)
        body.append(
            Literal(p, tuple(rng.choice(variables) for _ in range(p.arity)))
        )
    body_vars = []
    for l in body:
        for v in l.variables():
            if v not in body_vars:
                body_vars.append(v)
    k = rng.randint(1, len(body_vars))
    head_args = tuple(body_vars[:k])
    head = Literal(Predicate("latent_1", k, "latent"), head_args)
    return Clause(head, tuple(body), CONJUNCTION)


def random_rich_clause(rng: random.Random, kb: KnowledgeBase) -> Clause:
    """A random clause over the KB vocabulary that reaches every join path.

    A term is a constant one time in five, and the constant ``k`` is in no
    fact, so a head can hold a constant its body lacks.  Arity-0 predicates
    come from the KB, a variable may repeat within a literal, a conjunction
    may carry one negated literal over its bound variables (placed anywhere
    in the body), and one clause in three is a disjunction.
    """
    preds = sorted(kb.vocabulary, key=lambda p: (p.name, p.arity))
    constants = sorted(kb.constants) + ["k"]
    variables = ["X", "Y", "Z"]

    def term(choices):
        return rng.choice(constants) if rng.random() < 0.2 else rng.choice(choices)

    if rng.random() < 1 / 3:
        arity = rng.choice(sorted({p.arity for p in preds}))
        same = [p for p in preds if p.arity == arity]
        args = tuple(term(variables) for _ in range(arity))
        size = min(len(same), rng.randint(2, 3))
        body = tuple(Literal(p, args) for p in rng.sample(same, size))
        connective = DISJUNCTION
    else:
        body = [
            Literal(p, tuple(term(variables) for _ in range(p.arity)))
            for p in rng.choices(preds, k=rng.randint(1, 3))
        ]
        bound = [v for l in body for v in l.variables()]
        if bound and rng.random() < 0.4:
            p = rng.choice(preds)
            negated = Literal(p, tuple(term(bound) for _ in range(p.arity)), True)
            body.insert(rng.randint(0, len(body)), negated)
        body = tuple(body)
        connective = CONJUNCTION
    bound = [v for l in body if not l.negated for v in l.variables()]
    head_args = tuple(term(bound or constants) for _ in range(rng.randint(0, 3)))
    head = Literal(Predicate("latent_1", len(head_args), "latent"), head_args)
    return Clause(head, body, connective)


def random_kb_with_background(rng: random.Random) -> KnowledgeBase:
    """``random_kb`` (arity 0 included) plus facts of one background
    predicate, ``b0``, which may have none."""
    kb = random_kb(rng, max_constants=4, max_facts=8, min_arity=0)
    b0 = Predicate("b0", rng.randint(0, 2), ORIGIN_BACKGROUND)
    constants = sorted(kb.constants)
    background = {
        Fact(b0, tuple(rng.choice(constants) for _ in range(b0.arity)))
        for _ in range(rng.randint(0, 3))
    }
    return KnowledgeBase.from_facts(
        kb.facts, background, kb.vocabulary | {b0}, kb.constants
    )


def random_alp(rng: random.Random, kb: KnowledgeBase) -> Alp:
    """A random program over kb.  Each encoder clause is a
    ``random_rich_clause`` over kb, with its own latent head; each decoder
    clause is one over those latents, with the head of an input predicate
    (which may have no facts) whose arguments are the body's variables or,
    one time in five, a constant."""
    encoder = []
    for i in range(1, rng.randint(1, 3) + 1):
        c = random_rich_clause(rng, kb)
        latent = Predicate(f"latent_{i}", len(c.head.args), ORIGIN_LATENT)
        encoder.append(Clause(Literal(latent, c.head.args), c.body, c.body_connective))
    latents = {c.head.predicate for c in encoder}
    latent_kb = KnowledgeBase.from_facts((), (), latents, kb.constants)
    heads = sorted(kb.input_predicates, key=predicate_order)
    decoder = []
    for _ in range(rng.randint(1, 3)):
        c = random_rich_clause(rng, latent_kb)
        bound = sorted({v for l in c.body if not l.negated for v in l.variables()})
        p = rng.choice(heads)
        args = tuple(
            rng.choice(sorted(kb.constants))
            if not bound or rng.random() < 0.2
            else rng.choice(bound)
            for _ in range(p.arity)
        )
        decoder.append(Clause(Literal(p, args), c.body, c.body_connective))
    return Alp(
        LogicProgram(tuple(encoder), ENCODER),
        LogicProgram(tuple(decoder), DECODER),
    )


def reference_loss_by_predicate(alp: Alp, kb: KnowledgeBase) -> dict:
    """(missing, false) per predicate of kb's facts or of their
    reconstruction, from fact sets: brute-force consequences of every
    encoder clause, of every decoder clause over their union, then set
    differences."""
    latent = frozenset().union(
        *(brute_force_consequences(c, kb.facts | kb.background) for c in alp.encoder.clauses)
    )
    recon = frozenset().union(
        *(brute_force_consequences(c, latent) for c in alp.decoder.clauses)
    )
    missing, false = kb.facts - recon, recon - kb.facts
    return {
        p: (
            sum(f.predicate == p for f in missing),
            sum(f.predicate == p for f in false),
        )
        for p in {f.predicate for f in kb.facts | recon}
    }


def default_config(**overrides) -> GenerationConfig:
    base = dict(
        max_encoder_body_len=2,
        max_decoder_body_len=1,
        max_head_vars=2,
    )
    base.update(overrides)
    return GenerationConfig(**base)


def pipeline_pool(kb, config=None):
    return prepare_pool(kb, {}, config or default_config())


def is_generality(con) -> bool:
    """A pair constraint, or a consequence class's iff_or or linear row."""
    return con.form == AT_MOST_ONE_OF_PAIR or any(v.kind == CL for v in con.vars)


def drop_constraints(model, generality=False, coverage=False):
    """The model without its generality constraints (the pairs, the class
    constraints and ``class_members``) or without its coverage ones."""
    kept = tuple(
        con
        for con in model.constraints
        if not (generality and is_generality(con))
        and not (coverage and con.form == AT_LEAST_ONE)
    )
    members = () if generality else class_members(model)
    return with_constraints(model, kept, members)


def class_members(model) -> tuple[tuple[VarId, ...], ...]:
    """The members of each cl, named by ``all_ids``."""
    ids = model.all_ids()
    return tuple(tuple(ids[p] for p in ps) for ps in model.class_positions)


def with_constraints(model, constraints, members):
    """The model with only the given constraints and classes, which name
    their variables by ``VarId``; each is placed at its ``position``."""

    def at(variables):
        return tuple(position(model, v) for v in variables)

    rows = tuple((con.form, at(con.vars), con.coeffs) for con in constraints)
    return replace(model, rows=rows, class_positions=tuple(map(at, members)))


def position(model, var) -> int:
    """The assignment position of ``var`` in the documented layout: every
    ec, then every dc, then every rf, then every cl, each kind by index."""
    n_ec, n_dc = len(model.ec_candidates), len(model.dc_candidates)
    start = {EC: 0, DC: n_ec, RF: n_ec + n_dc, CL: n_ec + n_dc + len(model.rf_atoms)}
    return start[var.kind] + var.index


def assignment_of(model, values) -> list[int]:
    """The dense assignment holding ``values`` ({VarId: value}), 0 elsewhere."""
    n = len(model.ec_candidates) + len(model.dc_candidates)
    assignment = [0] * (n + len(model.rf_atoms) + len(model.class_positions))
    for var, value in values.items():
        assignment[position(model, var)] = value
    return assignment


def reference_violations(model, assignment) -> list:
    """The constraints of the rows ``check_assignment`` reports, evaluated
    through ``Constraint.vars``, reading each variable's value at its
    ``position``."""
    violations = []
    for con in model.constraints:
        values = [assignment[position(model, v)] for v in con.vars]
        if con.form == IFF_OR:
            ok = values[0] == (1 if any(values[1:]) else 0)
        elif con.form == AT_MOST_ONE_OF_PAIR:
            ok = values[0] + values[1] <= 1
        elif con.form == AT_LEAST_ONE:
            ok = any(values)
        else:
            ok = sum(a * v for a, v in zip(con.coeffs, values)) <= 0
        if not ok:
            violations.append(con)
    return violations


def reference_objective(model, assignment) -> int | None:
    """``objective_value`` through ``Constraint.vars``; None when infeasible."""
    if reference_violations(model, assignment):
        return None
    total = model.constant_offset
    for i, in_kb in enumerate(model.rf_in_kb):
        value = assignment[position(model, VarId(i, RF))]
        total += 1 - value if in_kb else value
    return total


def loss_consistency(model, assignment, kb) -> bool:
    """True when the COP objective matches the reconstruction loss of the
    induced ALP, recomputed independently through the evaluator."""
    alp = induced_alp(model, assignment)
    return objective_value(model, assignment) == reconstruction_loss(alp, kb)


def brute_force_objective(model) -> int | None:
    """Minimum COP objective over every feasible decoder subset."""
    n = len(model.dc_candidates)
    best = None
    for mask in range(2**n):
        selected = {j for j in range(n) if mask >> j & 1}
        assignment = assignment_from_dc(model, selected)
        if check_assignment(model, assignment):
            continue
        obj = objective_value(model, assignment)
        if best is None or obj < best:
            best = obj
    return best


def brute_force_loss_optimum(model, kb) -> int | None:
    """Minimum reconstruction loss over every feasible decoder subset,
    re-scored through the logic evaluator (Eq.-independent of the model)."""
    n = len(model.dc_candidates)
    best = None
    for mask in range(2**n):
        selected = {j for j in range(n) if mask >> j & 1}
        assignment = assignment_from_dc(model, selected)
        if check_assignment(model, assignment):
            continue
        loss = reconstruction_loss(induced_alp(model, assignment), kb)
        if best is None or loss < best:
            best = loss
    return best


FIG1_TEXT = """\
father(vader,luke).
father(vader,leia).
mother(padme,luke).
mother(padme,leia).
married(vader,padme).
saber(vader,red).
saber(luke,green).
jedi(luke).
jedi(leia).
"""


def fig1_kb() -> KnowledgeBase:
    """Nine facts over five predicates, so avg facts per predicate is 9/5."""
    from alp.kb import parse_kb

    return parse_kb(FIG1_TEXT)


def synthesize_lossless_instance(rng: random.Random):
    """A KB generated by a hidden ALP, bottleneck-feasible at gamma = 0.7.

    Shape: a few copy groups (predicates sharing one tuple set, compressible
    into a single latent via the disjunctive or single-body encoder) plus a
    light unary predicate; the truth selection's average latent weight is
    verified against 0.7 * G before the instance is accepted.
    """
    while True:
        constants = [f"e{i}" for i in range(rng.randint(4, 7))]
        group_size = rng.randint(4, 5)
        n_tuples = rng.randint(4, 8)
        tuples = set()
        while len(tuples) < n_tuples:
            tuples.add((rng.choice(constants), rng.choice(constants)))
        group = [Predicate(f"r{i}", 2) for i in range(group_size)]
        light = Predicate("u", 1)
        light_facts = {Fact(light, (rng.choice(constants),))}
        facts = {Fact(p, t) for p in group for t in tuples} | light_facts
        kb = KnowledgeBase.from_facts(facts)
        g = Fraction(len(facts), group_size + 1)
        truth_weights = [n_tuples, len(light_facts)]
        avg = Fraction(sum(truth_weights), len(truth_weights))
        if avg <= Fraction(7, 10) * g:
            return kb


def initial_solution(
    model: CopModel, fail_limit: int = SearchConfig.fail_limit
) -> Assignment:
    """The seed ``lns_minimize`` starts from, searched with no deadline: a
    feasible assignment, or InfeasibleError."""
    return _first_solution(_Searcher(model), fail_limit, float("inf"))


def solve_exact(
    model: CopModel,
    fixed: dict[int, int] | None = None,
    fail_limit: int = 10_000,
    incumbent_bound: float = float("inf"),
    incumbent: Assignment | None = None,
) -> ExactResult:
    """Complete depth-first branch and bound over the unfixed positions.

    Returns the best completion strictly below incumbent_bound, or None if
    there is none (complete=True) or the fail limit struck first
    (complete=False).
    """
    return _Searcher(model).solve(fixed or {}, fail_limit, incumbent_bound, incumbent)
