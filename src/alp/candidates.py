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
all of its heads from that join.  A candidate's consequences are an ``int``
bitset over its pool's AtomIndex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from math import comb
from operator import itemgetter
from typing import Iterator

from .errors import CapacityError
from .kb import (
    Constant,
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


def fact_order(f: Fact) -> tuple:
    """Facts sort by predicate name, arity, then argument symbols."""
    return (f.predicate.name, f.predicate.arity, tuple(a.symbol for a in f.args))


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the bits set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AtomIndex:
    """Bit positions for the atoms of one candidate pool, so that a set of
    atoms is an ``int`` bitset and set algebra is integer algebra.

    An atom is a predicate applied to an argument row.  Every encoder mints
    its own latent predicate, so the encoder pool indexes bare rows (under
    the predicate None) and its naming key is the bitset itself.  The
    decoder pool indexes the KB's facts first, so the KB is the low bits,
    ``kb_mask``; atoms outside the KB are indexed as the decoders meet them.
    """

    def __init__(self, kb_facts: frozenset[Fact] = frozenset()):
        self.atoms: list[tuple[Predicate | None, tuple[Constant, ...]]] = []
        self._bits: dict[Predicate | None, dict[tuple[Constant, ...], int]] = {}
        for f in sorted(kb_facts, key=fact_order):
            self.mask(f.predicate, (f.args,))
        self.kb_facts = kb_facts
        self.kb_mask = (1 << len(self.atoms)) - 1

    def mask(self, predicate: Predicate | None, rows) -> int:
        """The bitset of ``predicate`` over the rows, indexing new atoms."""
        bits = self._bits.setdefault(predicate, {})
        mask = 0
        for row in rows:
            bit = bits.get(row)
            if bit is None:
                bit = bits[row] = len(self.atoms)
                self.atoms.append((predicate, row))
            mask |= 1 << bit
        return mask

    def kb_mask_of(self, kb: KnowledgeBase) -> int:
        """``kb_mask``, once ``kb`` is checked to be the KB indexed first."""
        if kb.facts != self.kb_facts:
            raise ValueError("the candidates were indexed against another KB")
        return self.kb_mask


@dataclass(frozen=True)
class CandidateClause:
    """A candidate with its ground consequences precomputed on the training
    context (the KB for encoders, the latent facts for decoders), held as a
    bitset over its pool's AtomIndex.

    ``text`` is ``str(clause)``, rendered once: it is the candidate's sort
    key.  The ``Clause`` itself is built and checked on first use, since
    pruning drops most candidates having read only their text, head, body
    and mask.
    """

    head: Literal
    body: tuple[Literal, ...]
    connective: str
    kind: str
    mask: int
    index: AtomIndex = field(repr=False, compare=False)
    text: str = field(repr=False, compare=False)

    @cached_property
    def clause(self) -> Clause:
        return Clause(self.head, self.body, self.connective)

    @property
    def weight(self) -> int:
        """The number of consequences."""
        return self.mask.bit_count()

    def key(self) -> str:
        return self.text

    def facts(self) -> frozenset[Fact]:
        """The consequences, decoded from the bitset."""
        pred = self.head.predicate
        atoms = self.index.atoms
        return frozenset(Fact(pred, atoms[b][1]) for b in bit_positions(self.mask))


def pool_index(candidates: list[CandidateClause]) -> AtomIndex | None:
    """The AtomIndex all the candidates share (None for no candidates):
    masks over different indexes do not compare."""
    if not candidates:
        return None
    index = candidates[0].index
    if any(c.index is not index for c in candidates):
        raise ValueError("the candidates come from more than one pool")
    return index


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
    head_args: list[tuple[Variable, ...]],
    heads: list[tuple[Predicate, int]],
    store: FactStore,
    kind: str,
    index: AtomIndex,
) -> list[CandidateClause]:
    """The candidates ``head :- body`` whose consequences are nonempty.

    Each head is a predicate and a position in ``head_args``.  The body is
    joined once and every argument tuple projected from that join once;
    the body's text is rendered once and each head's text is added to it.
    """
    substitutions = list(body_substitutions(literals, connective, store))
    if not substitutions:
        return []
    rows = []
    for args in head_args:
        projected = set(map(itemgetter(*args), substitutions))
        if len(args) == 1:  # itemgetter returns the bare value
            projected = {(v,) for v in projected}
        rows.append(projected)
    arg_texts = [",".join(v.name for v in args) for args in head_args]
    body_text = ("," if connective == CONJUNCTION else ";").join(map(str, literals))
    out = []
    for pred, a in heads:
        mask = index.mask(None if kind == ENCODER else pred, rows[a])
        text = f"{pred.name}({arg_texts[a]}) :- {body_text}."
        head = Literal(pred, head_args[a])
        out.append(CandidateClause(head, literals, connective, kind, mask, index, text))
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
    index = AtomIndex()
    out = []
    ordinal = 1
    for (literals, connective), vs in zip(bodies, variables):
        subsets = [args for size in sizes for args in combinations(vs, size)]
        heads = [
            (Predicate(f"latent_{ordinal + i}", len(args), ORIGIN_LATENT), i)
            for i, args in enumerate(subsets)
        ]
        ordinal += len(subsets)
        out.extend(
            _evaluate(literals, connective, subsets, heads, store, ENCODER, index)
        )
    return out


def latent_facts(encoders: list[CandidateClause]) -> frozenset[Fact]:
    """Union of the latent facts entailed by the candidate encoder clauses."""
    facts: set[Fact] = set()
    for c in encoders:
        facts.update(c.facts())
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
    latents = _sorted_preds({c.head.predicate for c in latent_candidates})
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
    index = AtomIndex(kb.facts)
    arities = sorted({p.arity for p in input_preds})
    out = []
    for (literals, connective), vs in zip(bodies, variables):
        # The head predicates of one arity share its variable subsets.
        head_args: list[tuple[Variable, ...]] = []
        offset: dict[int, int] = {}
        for a in arities:
            offset[a] = len(head_args)
            head_args += combinations(vs, a)
        heads = [
            (p, offset[p.arity] + i)
            for p in input_preds
            for i in range(comb(len(vs), p.arity))
        ]
        out.extend(
            _evaluate(literals, connective, head_args, heads, store, DECODER, index)
        )
    return out
