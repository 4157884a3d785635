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
bitset over its pool's AtomIndex.  ``generate_pruned_decoders`` prunes
signature variants and corrupt decoders on those bitsets as it meets them,
and builds a candidate only for the decoders that survive.
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
    fact_order,
    predicate_order,
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
    body_rows,
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
    naming-variant pruning drops most encoders having read only their head
    and mask.
    """

    head: Literal
    body: tuple[Literal, ...]
    connective: str
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


def _body_text(literals: tuple[Literal, ...], connective: str) -> str:
    return ("," if connective == CONJUNCTION else ";").join(map(str, literals))


def _clause_text(pred: Predicate, args: tuple[Variable, ...], body_text: str) -> str:
    """``str`` of the clause ``pred(args) :- body``."""
    return f"{pred.name}({','.join(v.name for v in args)}) :- {body_text}."


def generate_encoder_candidates(
    kb: KnowledgeBase,
    modes: dict[Predicate, ModeDeclaration],
    config: GenerationConfig,
) -> list[CandidateClause]:
    """Enumerate encoder clauses over input plus background predicates.

    Every candidate is evaluated on the KB (with background facts) to fill
    its consequences; candidates entailing nothing are dropped.  Latent
    ordinals are assigned before the drop, so names depend only on the
    vocabulary and config, not on the fact content.  Each body is joined
    once and every head projected from that join.
    """
    predicates = sorted(kb.vocabulary, key=predicate_order)
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
        rows = body_rows(literals, connective, store, subsets)
        if any(rows):  # the body has a substitution
            body_text = _body_text(literals, connective)
            for i, args in enumerate(subsets):
                pred = Predicate(f"latent_{ordinal + i}", len(args), ORIGIN_LATENT)
                mask = index.mask(None, rows[i])
                text = _clause_text(pred, args, body_text)
                out.append(
                    CandidateClause(
                        Literal(pred, args), literals, connective, mask, index, text
                    )
                )
        ordinal += len(subsets)
    return out


def latent_facts(encoders: list[CandidateClause]) -> frozenset[Fact]:
    """Union of the latent facts entailed by the candidate encoder clauses."""
    facts: set[Fact] = set()
    for c in encoders:
        facts.update(c.facts())
    return frozenset(facts)


def latent_ordinal(pred: Predicate) -> int:
    return int(pred.name.rsplit("_", 1)[1])


def body_predicates(literals: tuple[Literal, ...]) -> frozenset[Predicate]:
    return frozenset(l.predicate for l in literals)


def signature(head: Predicate, mask: int, body_preds: frozenset[Predicate]) -> tuple:
    """A decoder's signature-variant class: its head predicate, its
    consequences and its body predicates (``body_predicates``)."""
    return head, mask, body_preds


def is_corrupt(mask: int, kb_mask: int) -> bool:
    """At least as many consequences lie outside the KB as inside it: a
    corruption level of 0.5 or more."""
    return 2 * (mask & ~kb_mask).bit_count() >= mask.bit_count()


def _decoder_masks(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
    index: AtomIndex,
) -> Iterator[tuple[Body, Predicate, tuple[Variable, ...], int]]:
    """Every decoder as (body, head predicate, head arguments, mask), in
    generation order, its consequences indexed in ``index`` as it is met.

    The latent fact context is the union of the encoder candidates'
    consequences; decoder heads range over the input predicates of arity at
    least 1, one decoder per predicate per variable tuple of its arity.  A
    body without a substitution yields no decoder.  The decoders of one
    body share its ``Body`` tuple.
    """
    latents = sorted({c.head.predicate for c in latent_candidates}, key=predicate_order)
    if not latents:
        return
    modes = {p: ModeDeclaration.all_either(p) for p in latents}
    bodies = enumerate_bodies(
        latents,
        modes,
        config.max_decoder_body_len,
        config.allow_disjunction,
        config.allow_negation,
    )
    input_preds = sorted(
        (p for p in kb.vocabulary if p.origin == ORIGIN_INPUT and p.arity >= 1),
        key=predicate_order,
    )
    variables = _planned_variables(
        DECODER, bodies, [p.arity for p in input_preds], config
    )
    store = FactStore(latent_facts(latent_candidates))
    arities = sorted({p.arity for p in input_preds})
    for body, vs in zip(bodies, variables):
        # The head predicates of one arity share its variable subsets.
        head_args: list[tuple[Variable, ...]] = []
        offset: dict[int, int] = {}
        for a in arities:
            offset[a] = len(head_args)
            head_args += combinations(vs, a)
        rows = body_rows(*body, store, head_args)
        if not any(rows):  # the body has no substitution
            continue
        for pred in input_preds:
            start = offset[pred.arity]
            for a in range(start, start + comb(len(vs), pred.arity)):
                yield body, pred, head_args[a], index.mask(pred, rows[a])


def generate_decoder_candidates(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> list[CandidateClause]:
    """Every decoder clause over the latent vocabulary, unpruned, in
    generation order (see ``_decoder_masks``)."""
    index = AtomIndex(kb.facts)
    out = []
    last = body_text = None
    for body, pred, args, mask in _decoder_masks(latent_candidates, kb, config, index):
        if body is not last:
            last, body_text = body, _body_text(*body)
        text = _clause_text(pred, args, body_text)
        head = Literal(pred, args)
        out.append(CandidateClause(head, *body, mask, index, text))
    return out


def generate_pruned_decoders(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> tuple[list[CandidateClause], int, int]:
    """The decoders that survive signature-variant and corruption pruning,
    in text order, with the number of decoders met and of signature classes
    they formed.

    Both prunings read only a decoder's mask, so they run as the decoders
    are met, before any text is rendered: a corrupt decoder is only
    counted, and of each clean signature class the least text is kept.
    Corruption is a function of the mask, so a class is corrupt or clean as
    a whole, and the survivors are ``prune_corrupt(prune_signature_variants(
    generate_decoder_candidates(...)))``, with masks over an index that
    holds the same atoms; a candidate object is built for them only.
    """
    index = AtomIndex(kb.facts)
    corrupt: set[tuple] = set()
    kept: dict[tuple, tuple] = {}  # signature -> (text, body, pred, args, mask)
    met = 0
    last = preds = body_text = None
    for body, pred, args, mask in _decoder_masks(latent_candidates, kb, config, index):
        met += 1
        if body is not last:
            last, preds, body_text = body, body_predicates(body[0]), None
        key = signature(pred, mask, preds)
        if is_corrupt(mask, index.kb_mask):
            corrupt.add(key)
            continue
        body_text = body_text or _body_text(*body)
        text = _clause_text(pred, args, body_text)
        best = kept.get(key)
        if best is None or text < best[0]:
            kept[key] = (text, body, pred, args, mask)
    survivors = [
        CandidateClause(Literal(pred, args), *body, mask, index, text)
        for text, body, pred, args, mask in sorted(kept.values(), key=itemgetter(0))
    ]
    return survivors, met, len(kept) + len(corrupt)
