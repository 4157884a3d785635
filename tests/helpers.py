"""Shared test fixtures: tiny constructors, random instances, brute-force
oracles kept deliberately independent of the library's evaluation path."""

from __future__ import annotations

import os
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import alp
from alp.candidates import AtomIndex, CandidateClause, GenerationConfig
from alp.kb import Constant, Fact, KnowledgeBase, Predicate
from alp.logic import (
    CONJUNCTION,
    DISJUNCTION,
    ENCODER,
    Clause,
    Literal,
    Variable,
    var_name,
)
from alp.logic import reconstruction_loss
from alp.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE_OF_PAIR,
    CL,
    assignment_from_dc,
    check_assignment,
    induced_alp,
    objective_value,
)
from alp.pipeline import prepare_pool


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


def pred(name, arity, origin="input"):
    return Predicate(name, arity, origin)


def const(s):
    return Constant(s)


def var(s):
    return Variable(s)


def fact(p, *args):
    return Fact(p, tuple(Constant(a) for a in args))


def lit(p, *args, negated=False):
    terms = tuple(Variable(a) if a[0].isupper() else Constant(a) for a in args)
    return Literal(p, terms, negated)


def candidate(clause: Clause, kind: str, facts, index: AtomIndex) -> CandidateClause:
    """A hand-made candidate whose consequences are ``facts``, set in the
    pool's ``index`` (bare rows for an encoder pool)."""
    key = None if kind == ENCODER else clause.head.predicate
    mask = index.mask(key, [f.args for f in facts])
    return CandidateClause(
        clause.head, clause.body, clause.body_connective, kind, mask, index, str(clause)
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
    constants = sorted(
        {a for f in facts for a in f.args}, key=lambda c: c.symbol
    )
    variables = []
    for l in clause.body:
        for v in l.variables():
            if v not in variables:
                variables.append(v)
    out = set()
    for values in product(constants, repeat=len(variables)):
        subst = dict(zip(variables, values))

        def ground(literal):
            args = tuple(
                subst[a] if isinstance(a, Variable) else a for a in literal.args
            )
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


def _rename_by_appearance(literals) -> tuple[Literal, ...]:
    mapping: dict[Variable, Variable] = {}
    out = []
    for l in literals:
        args = []
        for a in l.args:
            if isinstance(a, Variable):
                if a not in mapping:
                    mapping[a] = Variable(var_name(len(mapping)))
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


def random_kb(
    rng: random.Random,
    max_constants=6,
    max_predicates=4,
    max_arity=2,
    max_facts=10,
) -> KnowledgeBase:
    constants = [Constant(f"c{i}") for i in range(rng.randint(2, max_constants))]
    predicates = [
        Predicate(f"p{i}", rng.randint(1, max_arity))
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
    variables = [Variable(names[i]) for i in range(n_vars)]
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
    members = () if generality else model.class_members
    return replace(model, constraints=kept, class_members=members)


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
        constants = [Constant(f"e{i}") for i in range(rng.randint(4, 7))]
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
