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

Bodies are enumerated and keyed as integer shapes, variables numbered by
first appearance; ``Literal`` objects are built for the bodies kept only.
Both generators check the planned (body, head) pairs against
``max_candidates`` before any join, then join each body once, a
conjunction from its parent's rows and its last literal, and project all
of its heads from those rows.  A candidate's consequences are an ``int``
bitset over its pool's AtomIndex.  Both decoder generators read one
enumeration, ``_decoder_heads``: each body's rows projected once per head
variable tuple, shared by every head predicate of that arity.
``generate_pruned_decoders`` keys each projection as a bitset of bare rows,
prunes signature variants and corrupt decoders once per such row class for
all head predicates of its arity, and builds a candidate only for the
decoders that survive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, count, groupby, product
from math import comb
from operator import itemgetter
from typing import Iterator

from .errors import CapacityError
from .kb import (
    Fact,
    KnowledgeBase,
    MODE_BOUND,
    MODE_EITHER,
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
    Row,
    Shape,
    _CANONICAL_PERMUTATION_CAP,
    kb_store,
    project,
    shape_key,
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
    ``kb_mask``; the atoms outside the KB follow as candidates are built
    (for the pruned pool, the survivors' atoms only).
    """

    def __init__(self, kb_facts: frozenset[Fact] = frozenset()):
        self.atoms: list[tuple[Predicate | None, Row]] = []
        self._bits: dict[Predicate | None, dict[Row, int]] = {}
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
    key and its line in ``--dump-model`` and ``alp enumerate``.  Pruning,
    model building and search read only the fields, so the ``Clause`` is
    built and checked on first use, which ``induced_alp`` makes for the
    selected candidates only.
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

    def rows(self) -> list[Row]:
        """The consequences' argument rows, decoded from the bitset."""
        atoms = self.index.atoms
        return [atoms[b][1] for b in bit_positions(self.mask)]


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


@dataclass(eq=False, slots=True)
class _Enumerated:
    """A body with its variable count and literal shapes.  A conjunction
    joins its last literal onto its parent's rows (one empty row for a
    single literal); a disjunction's rows are its disjuncts' in turn."""

    body: Body
    n_vars: int
    shapes: tuple[Shape, ...]
    parent: _Enumerated | None


_FRESH = object()  # slot marker during extension


@lru_cache(maxsize=1 << 12)
def _variables(ids: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(map(var_name, ids))


@lru_cache(maxsize=1 << 16)
def _literal(shape: Shape) -> Literal:
    """The literal of a shape over numbered variables, one per shape."""
    return Literal(shape[0], _variables(shape[2]), shape[1])


def _literal_choices(
    predicates: list[Predicate], modes: dict[Predicate, ModeDeclaration], n: int
) -> tuple[list[tuple[Shape, int]], list[tuple[Shape, Shape]]]:
    """The literals that may extend a body of ``n`` variables: positive
    shapes, each with the variable count after it (fresh variables number on
    from ``n``), then negated ones, binding every argument, with their twins."""
    existing = list(range(n))
    positive = []
    for pred in predicates:
        slots = modes[pred].slots if pred in modes else (MODE_EITHER,) * pred.arity
        all_unbound = all(s == MODE_UNBOUND for s in slots)
        per_slot = [
            existing if s == MODE_BOUND
            else [_FRESH] if s == MODE_UNBOUND and not all_unbound
            else existing + [_FRESH]
            for s in slots
        ]
        for combo in product(*per_slot):
            if any(c is not _FRESH for c in combo):  # else it would not connect
                fresh = count(n)
                ids = tuple(next(fresh) if c is _FRESH else c for c in combo)
                positive.append(((pred, False, ids), next(fresh)))
    negated = [
        ((p, True, ids), (p, False, ids)) for p in predicates if p.arity
        for ids in product(existing, repeat=p.arity)
    ]
    return positive, negated


def _extensions(
    shapes: tuple[Shape, ...], n: int, choices, allow_negation: bool
) -> list[tuple[Shape, int]]:
    """The one-literal extensions of a conjunctive body of ``n`` variables
    (see ``_literal_choices``): no literal twice, one negated at most."""
    positive, negated = choices
    out = [c for c in positive if c[0] not in shapes]
    if allow_negation and not any(s[1] for s in shapes):
        out += [(s, n) for s, twin in negated if twin not in shapes]
    return out


def _enumerate(
    predicates: list[Predicate],
    modes: dict[Predicate, ModeDeclaration],
    max_len: int,
    allow_disjunction: bool,
    allow_negation: bool,
) -> list[_Enumerated]:
    """All bodies over the predicates, canonically ordered and deduped:
    bodies identical up to variable renaming and literal order collapse to
    one canonical form.  Conjunctions grow a literal at a time, keyed on
    their shapes; the first body met under a key is kept, and only it is
    built, as its parent's literals plus one."""
    conj: dict[str, _Enumerated] = {}
    frontier = []
    for pred in predicates:
        shapes = ((pred, False, tuple(range(pred.arity))),)
        key = shape_key(shapes)
        if key not in conj:
            body = ((_literal(shapes[0]),), CONJUNCTION)
            conj[key] = entry = _Enumerated(body, pred.arity, shapes, None)
            frontier.append(entry)
    choices: dict[int, tuple] = {}  # _literal_choices by variable count
    for _ in range(max_len - 1):
        next_frontier = []
        for parent in frontier:
            n = parent.n_vars
            if n not in choices:
                choices[n] = _literal_choices(predicates, modes, n)
            extensions = _extensions(parent.shapes, n, choices[n], allow_negation)
            for shape, after in extensions:
                shapes = parent.shapes + (shape,)
                key = shape_key(shapes)
                if key not in conj:
                    body = (parent.body[0] + (_literal(shape),), CONJUNCTION)
                    conj[key] = entry = _Enumerated(body, after, shapes, parent)
                    next_frontier.append(entry)
        frontier = next_frontier
    disj: dict[str, _Enumerated] = {}
    for arity in sorted({p.arity for p in predicates} - {0}):
        preds = [p for p in predicates if p.arity == arity]
        for size in range(2, max_len + 1) if allow_disjunction else ():
            for subset in combinations(preds, size):
                shapes = tuple((p, False, tuple(range(arity))) for p in subset)
                body = (tuple(map(_literal, shapes)), DISJUNCTION)
                key = shape_key(shapes, DISJUNCTION)
                disj[key] = _Enumerated(body, arity, shapes, None)
    return [conj[k] for k in sorted(conj)] + [disj[k] for k in sorted(disj)]


def _joined_bodies(
    kind: str,
    preds: list[Predicate],
    modes: dict[Predicate, ModeDeclaration],
    head_sizes: range | list[int],
    c: GenerationConfig,
    store: FactStore,
) -> Iterator[tuple[_Enumerated, list[Row]]]:
    """The bodies of one kind of candidate, each with its rows over its
    variables' slots, once the (body, head) pairs planned over them, one
    per head size per variable subset of that size, fit under the ceiling:
    no body is joined before.  A parent's rows are kept, so that each body
    is joined once in any order; a body whose parent has no rows takes no
    join."""
    enc = kind == ENCODER
    max_len = c.max_encoder_body_len if enc else c.max_decoder_body_len
    bodies = _enumerate(preds, modes, max_len, c.allow_disjunction, c.allow_negation)
    planned = sum(comb(b.n_vars, k) for b in bodies for k in head_sizes)
    if planned > c.max_candidates:
        raise CapacityError(
            f"{planned} {kind} candidates planned, over the ceiling of "
            f"{c.max_candidates}; narrow the language with "
            f"{'--max-enc-len' if enc else '--max-dec-len'}, "
            "--max-head-vars or --no-disjunction, or raise --max-candidates"
        )
    parents = {b.parent for b in bodies}
    kept: dict[_Enumerated, list[Row]] = {}

    def rows_of(b: _Enumerated) -> list[Row]:
        if b in kept:
            return kept[b]
        if b.body[1] == DISJUNCTION:
            rows = [row for s in b.shapes for row in store.join([()], s)]
        else:
            start = [()] if b.parent is None else rows_of(b.parent)
            rows = store.join(start, b.shapes[-1]) if start else []
        if b in parents:
            kept[b] = rows
        return rows

    return ((b, rows_of(b)) for b in bodies)


def _body_text(literals: tuple[Literal, ...], connective: str) -> str:
    return ("," if connective == CONJUNCTION else ";").join(map(str, literals))


def _clause_suffix(args: tuple[str, ...], body_text: str) -> str:
    """The text of a clause ``name(args) :- body.`` after its ``name(``."""
    return f"{','.join(args)}) :- {body_text}."


def _clause_text(pred: Predicate, args: tuple[str, ...], body_text: str) -> str:
    """``str`` of the clause ``pred(args) :- body``."""
    return f"{pred.name}({_clause_suffix(args, body_text)}"


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
    store = kb_store(kb)
    index = AtomIndex()
    out = []
    ordinal = 1
    for b, rows in _joined_bodies(ENCODER, predicates, modes, sizes, config, store):
        subsets = [s for size in sizes for s in combinations(range(b.n_vars), size)]
        if rows:  # the body has a substitution
            body_text = _body_text(*b.body)
            for i, slots in enumerate(subsets):
                args = _variables(slots)
                pred = Predicate(f"latent_{ordinal + i}", len(args), ORIGIN_LATENT)
                mask = index.mask(None, project(rows, slots))
                text = _clause_text(pred, args, body_text)
                head = Literal(pred, args)
                out.append(CandidateClause(head, *b.body, mask, index, text))
        ordinal += len(subsets)
    return out


def latent_ordinal(pred: Predicate) -> int:
    return int(pred.name.rsplit("_", 1)[1])


def body_predicates(literals: tuple[Literal, ...]) -> frozenset[Predicate]:
    return frozenset(l.predicate for l in literals)


def is_corrupt(mask: int, kb_mask: int) -> bool:
    """At least as many consequences lie outside the KB as inside it: a
    corruption level of 0.5 or more."""
    return 2 * (mask & ~kb_mask).bit_count() >= mask.bit_count()


def _head_predicates(kb: KnowledgeBase) -> list[Predicate]:
    """The decoder heads: the input predicates of arity at least 1."""
    return sorted(
        (p for p in kb.vocabulary if p.origin == ORIGIN_INPUT and p.arity >= 1),
        key=predicate_order,
    )


def _decoder_heads(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> Iterator[tuple[Body, int, tuple[str, ...], set[Row]]]:
    """Every decoder body with a substitution, once per head arity and
    variable tuple of that arity, as (body, arity, head arguments, the
    body's rows projected on them), in generation order.  The rows serve
    every head predicate of the arity, and the items of one body share its
    ``Body`` tuple.

    The latent fact context is the union of the encoder candidates'
    consequences; decoder heads range over the input predicates of arity at
    least 1 (``_head_predicates``), one decoder per predicate per variable
    tuple of its arity.
    """
    latents = sorted({c.head.predicate for c in latent_candidates}, key=predicate_order)
    if not latents:
        return
    arities = [p.arity for p in _head_predicates(kb)]  # one per head predicate
    head_arities = sorted(set(arities))
    context: dict[Predicate, list[Row]] = {}  # as rows: no latent Fact is built
    for c in latent_candidates:
        context.setdefault(c.head.predicate, []).extend(c.rows())
    store = FactStore(context)
    for b, rows in _joined_bodies(DECODER, latents, {}, arities, config, store):
        if rows:  # the body has a substitution
            for arity in head_arities:
                for slots in combinations(range(b.n_vars), arity):
                    yield b.body, arity, _variables(slots), project(rows, slots)


def generate_decoder_candidates(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> list[CandidateClause]:
    """Every decoder clause over the latent vocabulary, unpruned, in
    generation order: body by body, then by head predicate, then by
    variable tuple (see ``_decoder_heads``)."""
    index = AtomIndex(kb.facts)
    heads = _head_predicates(kb)
    out = []
    decoders = _decoder_heads(latent_candidates, kb, config)
    for body, items in groupby(decoders, itemgetter(0)):
        items = list(items)
        body_text = _body_text(*body)
        for pred in heads:
            for _, arity, args, rows in items:
                if arity == pred.arity:
                    text = _clause_text(pred, args, body_text)
                    head = Literal(pred, args)
                    mask = index.mask(pred, rows)
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

    Both prunings read only which rows a decoder's head holds, so they run
    once per row class, shared by every head predicate of its arity.  Each
    projection of ``_decoder_heads`` is a bitset over one index of bare
    rows; the class is that row mask plus the body predicates, and of each
    class the least text suffix ``args) :- body.`` is kept.  The decoders of
    one head predicate share the prefix ``name(``, so that suffix is the
    least text of the class for every one of them.  A class is then corrupt
    or clean for each head predicate of its arity, against the rows of that
    predicate's KB facts (``is_corrupt``), and the survivors are
    ``prune_corrupt(prune_signature_variants(generate_decoder_candidates(
    ...)))``.  Only for them is a candidate built, with a mask over an index
    that holds the KB's facts as its low bits and then the survivors' atoms.
    """
    heads = _head_predicates(kb)
    by_arity: dict[int, list[Predicate]] = {}
    for pred in heads:
        by_arity.setdefault(pred.arity, []).append(pred)
    row_index = AtomIndex()
    kb_masks = {p: row_index.mask(None, kb.rows.get(p, ())) for p in heads}
    # (row mask, body predicates) -> (suffix, body, arity, args)
    kept: dict[tuple, tuple] = {}
    met = 0
    last = preds = body_text = None
    for body, arity, args, rows in _decoder_heads(latent_candidates, kb, config):
        met += len(by_arity[arity])
        if body is not last:
            last, preds, body_text = body, body_predicates(body[0]), _body_text(*body)
        suffix = _clause_suffix(args, body_text)
        key = (row_index.mask(None, rows), preds)
        best = kept.get(key)
        if best is None or suffix < best[0]:
            kept[key] = (suffix, body, arity, args)
    clean = []
    for (row_mask, _), (suffix, body, arity, args) in kept.items():
        for pred in by_arity[arity]:
            if not is_corrupt(row_mask, kb_masks[pred]):
                clean.append((f"{pred.name}({suffix}", pred, body, args, row_mask))
    clean.sort(key=itemgetter(0))
    index = AtomIndex(kb.facts)
    atoms = row_index.atoms
    survivors = []
    for text, pred, body, args, row_mask in clean:
        rows = [atoms[bit][1] for bit in bit_positions(row_mask)]
        mask = index.mask(pred, rows)
        survivors.append(CandidateClause(Literal(pred, args), *body, mask, index, text))
    classes = sum(len(by_arity[arity]) for _, _, arity, _ in kept.values())
    return survivors, met, classes
