"""Candidate clause enumeration under mode bias.

Bodies grow by iterative extension: a new atom must share at least one
variable with the body so far.  Mode slots steer how its arguments bind:
'+' picks an existing variable, '-' introduces a fresh one, '?' does either.
An atom whose slots are all '-' could never connect, so for those atoms the
'-' slots may instead bind to existing variables, in every combination that
keeps at least one.

Encoder candidates mint one latent predicate per clause, named
``latent_<k>`` where k follows the canonical body ordering, so names are
stable across runs.  Decoder candidates run the same enumeration over the
latent vocabulary, with heads drawn from the input predicates.

Both generators plan every (body, head) pair, check the count against
``max_candidates`` before any join, then join each body once and project
all of its heads from that join.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from operator import itemgetter

from .errors import CapacityError
from .kb import (
    Fact,
    KnowledgeBase,
    MODE_BOUND,
    MODE_UNBOUND,
    ModeDeclaration,
    ORIGIN_BACKGROUND,
    ORIGIN_INPUT,
    ORIGIN_LATENT,
    Predicate,
)
from .logic import (
    CONJUNCTION,
    DECODER,
    DISJUNCTION,
    ENCODER,
    Clause,
    FactStore,
    Literal,
    Variable,
    _CANONICAL_PERMUTATION_CAP,
    body_key,
    body_substitutions,
    body_variables,
    var_name,
)


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the enumeration; lengths count body literals."""

    max_encoder_body_len: int = 2
    max_decoder_body_len: int = 2
    max_head_vars: int = 2
    allow_disjunction: bool = True
    allow_negation: bool = False
    max_candidates: int = 200_000

    def __post_init__(self):
        for length in (self.max_encoder_body_len, self.max_decoder_body_len):
            if not 1 <= length <= _CANONICAL_PERMUTATION_CAP:
                raise ValueError(
                    f"body lengths must lie in [1, {_CANONICAL_PERMUTATION_CAP}]"
                )
        if self.max_head_vars < 1:
            raise ValueError("max_head_vars must be >= 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")


@dataclass(frozen=True)
class CandidateClause:
    """A candidate with its ground consequences precomputed on the training
    context (the KB for encoders, the latent facts for decoders)."""

    clause: Clause
    kind: str
    consequences: frozenset[Fact]
    weight: int

    def key(self) -> str:
        return str(self.clause)


Body = tuple[tuple[Literal, ...], str]  # literals plus connective

_FRESH = object()  # slot marker during extension


def _sorted_preds(preds) -> list[Predicate]:
    return sorted(preds, key=lambda p: (p.name, p.arity))


def _extend_atom_choices(
    pred: Predicate, mode: ModeDeclaration, existing: list[Variable]
) -> list[tuple]:
    """Argument combinations for one new atom, honoring the mode slots."""
    if pred.arity == 0:
        return []  # cannot share a variable
    all_unbound = all(s == MODE_UNBOUND for s in mode.slots)
    per_slot = []
    for s in mode.slots:
        if s == MODE_BOUND:
            per_slot.append(list(existing))
        elif s == MODE_UNBOUND:
            per_slot.append(list(existing) + [_FRESH] if all_unbound else [_FRESH])
        else:
            per_slot.append(list(existing) + [_FRESH])
    # A combination of fresh variables only would not connect to the body.
    return [c for c in product(*per_slot) if any(a is not _FRESH for a in c)]


def _materialize(combo: tuple, n_vars: int) -> tuple[Variable, ...]:
    args = []
    fresh = n_vars
    for c in combo:
        if c is _FRESH:
            args.append(Variable(var_name(fresh)))
            fresh += 1
        else:
            args.append(c)
    return tuple(args)


def extend_body(
    literals: tuple[Literal, ...],
    predicates: list[Predicate],
    modes: dict[Predicate, ModeDeclaration],
    allow_negation: bool = False,
) -> list[tuple[Literal, ...]]:
    """All one-atom extensions of a conjunctive body."""
    existing = body_variables(literals)
    out = []
    for pred in predicates:
        mode = modes.get(pred) or ModeDeclaration.all_either(pred)
        for combo in _extend_atom_choices(pred, mode, existing):
            lit = Literal(pred, _materialize(combo, len(existing)))
            if lit in literals:
                continue
            out.append(literals + (lit,))
    if allow_negation and not any(l.negated for l in literals) and existing:
        # One negated atom per body, every argument bound for safety.
        for pred in predicates:
            if pred.arity == 0:
                continue
            for combo in product(existing, repeat=pred.arity):
                lit = Literal(pred, tuple(combo), negated=True)
                if lit in literals or Literal(pred, tuple(combo)) in literals:
                    continue
                out.append(literals + (lit,))
    return out


def _enumerate_conjunctive(
    predicates: list[Predicate],
    modes: dict[Predicate, ModeDeclaration],
    max_len: int,
    allow_negation: bool,
) -> dict[str, tuple[Literal, ...]]:
    bodies: dict[str, tuple[Literal, ...]] = {}
    frontier: list[tuple[Literal, ...]] = []
    for pred in predicates:
        lit = Literal(pred, tuple(Variable(var_name(i)) for i in range(pred.arity)))
        body = (lit,)
        key = body_key(body)
        if key not in bodies:
            bodies[key] = body
            frontier.append(body)
    for _ in range(max_len - 1):
        next_frontier = []
        for body in frontier:
            for extended in extend_body(body, predicates, modes, allow_negation):
                key = body_key(extended)
                if key not in bodies:
                    bodies[key] = extended
                    next_frontier.append(extended)
        frontier = next_frontier
    return bodies


def _enumerate_disjunctive(
    predicates: list[Predicate], max_len: int
) -> dict[str, tuple[Literal, ...]]:
    bodies: dict[str, tuple[Literal, ...]] = {}
    by_arity: dict[int, list[Predicate]] = {}
    for p in predicates:
        if p.arity >= 1:
            by_arity.setdefault(p.arity, []).append(p)
    for arity in sorted(by_arity):
        preds = by_arity[arity]
        args = tuple(Variable(var_name(i)) for i in range(arity))
        for size in range(2, min(max_len, len(preds)) + 1):
            for subset in combinations(preds, size):
                body = tuple(Literal(p, args) for p in subset)
                bodies[body_key(body, DISJUNCTION)] = body
    return bodies


def enumerate_bodies(
    predicates: list[Predicate],
    modes: dict[Predicate, ModeDeclaration],
    max_len: int,
    allow_disjunction: bool,
    allow_negation: bool = False,
) -> list[Body]:
    """All bodies over the predicates, canonically ordered and deduped.

    Bodies identical up to variable renaming and literal order collapse to
    one canonical form.
    """
    conj = _enumerate_conjunctive(predicates, modes, max_len, allow_negation)
    out: list[Body] = [(conj[k], CONJUNCTION) for k in sorted(conj)]
    if allow_disjunction and max_len >= 2:
        disj = _enumerate_disjunctive(predicates, max_len)
        out.extend((disj[k], DISJUNCTION) for k in sorted(disj))
    return out


def _planned_variables(
    kind: str,
    bodies: list[Body],
    head_sizes: range | list[int],
    config: GenerationConfig,
) -> list[list[Variable]]:
    """Each body's positive variables, once the (body, head) pairs planned
    over them, one per head size per variable subset of that size, fit
    under the ceiling.  No body is joined before this check."""
    variables = [
        body_variables(l for l in lits if not l.negated) for lits, _ in bodies
    ]
    planned = sum(comb(len(vs), k) for vs in variables for k in head_sizes)
    if planned > config.max_candidates:
        length = "--max-enc-len" if kind == ENCODER else "--max-dec-len"
        raise CapacityError(
            f"{planned} {kind} candidates planned, over the ceiling of "
            f"{config.max_candidates}; narrow the language with {length}, "
            "--max-head-vars or --no-disjunction, or raise --max-candidates"
        )
    return variables


def _evaluate(
    literals: tuple[Literal, ...],
    connective: str,
    heads: list[tuple[Predicate, tuple[Variable, ...]]],
    store: FactStore,
    kind: str,
) -> list[CandidateClause]:
    """The candidates ``head :- body`` whose consequences are nonempty.

    The body is joined once; every head projects its variables from that
    join, and heads with one argument tuple share the projection.
    """
    substitutions = list(body_substitutions(literals, connective, store))
    if not substitutions:
        return []
    rows_by_args: dict[tuple[Variable, ...], set] = {}
    out = []
    for pred, args in heads:
        rows = rows_by_args.get(args)
        if rows is None:
            rows = set(map(itemgetter(*args), substitutions))
            if len(args) == 1:  # itemgetter returns the bare value
                rows = {(v,) for v in rows}
            rows_by_args[args] = rows
        consequences = frozenset(Fact(pred, row) for row in rows)
        clause = Clause(Literal(pred, args), literals, connective)
        out.append(CandidateClause(clause, kind, consequences, len(consequences)))
    return out


def generate_encoder_candidates(
    kb: KnowledgeBase,
    modes: dict[Predicate, ModeDeclaration],
    config: GenerationConfig,
) -> list[CandidateClause]:
    """Enumerate encoder clauses over input plus background predicates.

    Every candidate is evaluated on the KB (with background facts) to fill
    its consequences; candidates entailing nothing are dropped.  Latent
    ordinals are assigned before the drop, so names depend only on the
    vocabulary and config, not on the fact content.
    """
    predicates = _sorted_preds(kb.vocabulary)
    input_preds = [p for p in predicates if p.origin != ORIGIN_BACKGROUND]
    if not input_preds:
        return []
    reserved = [p for p in predicates if re.fullmatch(r"latent_\d+", p.name)]
    if reserved:
        raise ValueError(
            f"predicate names {sorted(str(p) for p in reserved)} collide "
            "with the latent namespace; rename them"
        )
    sizes = range(1, min(config.max_head_vars, max(p.arity for p in input_preds)) + 1)
    bodies = enumerate_bodies(
        predicates,
        modes,
        config.max_encoder_body_len,
        config.allow_disjunction,
        config.allow_negation,
    )
    variables = _planned_variables(ENCODER, bodies, sizes, config)
    store = FactStore(kb.facts | kb.background)
    out = []
    ordinal = 1
    for (literals, connective), vs in zip(bodies, variables):
        subsets = [args for size in sizes for args in combinations(vs, size)]
        heads = [
            (Predicate(f"latent_{ordinal + i}", len(args), ORIGIN_LATENT), args)
            for i, args in enumerate(subsets)
        ]
        ordinal += len(subsets)
        out.extend(_evaluate(literals, connective, heads, store, ENCODER))
    return out


def latent_facts(encoders: list[CandidateClause]) -> frozenset[Fact]:
    """Union of the latent facts entailed by the candidate encoder clauses."""
    facts: set[Fact] = set()
    for c in encoders:
        facts.update(c.consequences)
    return frozenset(facts)


def latent_ordinal(pred: Predicate) -> int:
    return int(pred.name.rsplit("_", 1)[1])


def generate_decoder_candidates(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> list[CandidateClause]:
    """Enumerate decoder clauses from the latent vocabulary.

    The latent fact context is the union of the encoder candidates'
    consequences; decoder heads range over the input predicates of arity at
    least 1, one candidate per predicate per variable tuple of its arity.
    """
    latents = _sorted_preds({c.clause.head.predicate for c in latent_candidates})
    if not latents:
        return []
    modes = {p: ModeDeclaration.all_either(p) for p in latents}
    bodies = enumerate_bodies(
        latents,
        modes,
        config.max_decoder_body_len,
        config.allow_disjunction,
        config.allow_negation,
    )
    input_preds = _sorted_preds(
        p for p in kb.vocabulary if p.origin == ORIGIN_INPUT and p.arity >= 1
    )
    variables = _planned_variables(
        DECODER, bodies, [p.arity for p in input_preds], config
    )
    store = FactStore(latent_facts(latent_candidates))
    out = []
    for (literals, connective), vs in zip(bodies, variables):
        # One tuple object per variable subset, shared by every head predicate.
        args_by_arity = {
            a: list(combinations(vs, a)) for a in {p.arity for p in input_preds}
        }
        heads = [(p, args) for p in input_preds for args in args_by_arity[p.arity]]
        out.extend(_evaluate(literals, connective, heads, store, DECODER))
    return out
