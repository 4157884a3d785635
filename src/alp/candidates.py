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
Both generators count the planned (body, head) pairs as bodies are kept
and stop once they pass ``max_candidates``, before any join; then each body
is joined once, a conjunction from its parent's rows and its last literal
(a disjunction's rows are its disjuncts' stored rows), and every head is
masked from the columns of those rows.  A candidate's consequences are its
head predicate over an ``int`` bitset of rows in its pool's AtomIndex.
Both decoder generators read one item per body, ``_decoder_bodies``.
``generate_pruned_decoders`` reads each in one pass: it prunes signature
variants and corrupt decoders once per row class for all head predicates
of its arity, renders text only for the classes that can survive, and
builds a candidate only for the decoders that do.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from functools import cache, cached_property, lru_cache, reduce
from itertools import chain, combinations, count, product, repeat
from math import comb
from operator import itemgetter, lshift, or_

from .errors import CapacityError
from .kb import (
    Fact,
    KnowledgeBase,
    MODE_BOUND,
    MODE_EITHER,
    MODE_UNBOUND,
    ModeDeclaration,
    Predicate,
    Record,
    checked_namedtuple,
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
    shape_key,
    var_name,
)


class GenerationConfig(checked_namedtuple(
    "GenerationConfig",
    "max_encoder_body_len max_decoder_body_len max_head_vars allow_disjunction"
    " allow_negation max_candidates",
    (2, 2, 2, True, False, 200_000),
)):
    """Knobs for the enumeration; lengths count body literals."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for length in (self.max_encoder_body_len, self.max_decoder_body_len):
            if not 1 <= length <= _CANONICAL_PERMUTATION_CAP:
                raise ValueError(f"body lengths must lie in [1, {_CANONICAL_PERMUTATION_CAP}]")
        if self.max_head_vars < 1:
            raise ValueError("max_head_vars must be >= 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        return self


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the bits set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Positions(dict):
    """Row -> bit position: looking up an unseen row appends it to ``rows``."""

    def __missing__(self, row: Row) -> int:
        position = self[row] = len(self.rows)
        self.rows.append(row)
        return position


class AtomIndex:
    """Bit positions for the argument rows of one candidate pool, so that a
    set of rows is an ``int`` bitset and set algebra is integer algebra.  A
    candidate's consequences are its head predicate over the rows of its
    bitset.  The decoder index records the KB facts it was built against;
    ``kb_masks`` indexes the KB rows of every head predicate into it,
    beside the candidates' rows."""

    def __init__(self, kb_facts: frozenset[Fact] = frozenset()):
        self._position = _Positions()
        self.rows = self._position.rows = []  # the rows by position
        self.kb_facts = kb_facts

    def mask(self, rows: Iterable[Row]) -> int:
        """The bitset of the rows, indexing new ones in first-seen order."""
        return reduce(or_, map(lshift, repeat(1), map(self._position.__getitem__, rows)), 0)

    def columns_mask(self, columns: list[tuple], slots: tuple[int, ...]) -> int:
        """``mask(project(rows, slots))`` from ``columns = list(zip(*rows))``."""
        return self.mask(zip(*map(columns.__getitem__, slots)))

    def kb_masks(self, kb: KnowledgeBase, predicates) -> dict[Predicate, int]:
        """Each predicate's KB rows as a bitset; ``kb`` must be the index's."""
        if kb.facts != self.kb_facts:
            raise ValueError("the candidates were indexed against another KB")
        return {p: self.mask(kb.rows.get(p, ())) for p in sorted(predicates)}


class CandidateClause(Record):
    """A candidate with its ground consequences precomputed on the training
    context (the KB for encoders, the latent facts for decoders): its head
    predicate over the rows of a bitset in its pool's AtomIndex.

    ``text`` is ``str(clause)``, rendered once: it is the candidate's sort
    key and its line in ``--dump-model`` and ``alp enumerate``.  Pruning,
    model building and search read only the fields, so the ``Clause`` is
    built and checked on first use, which ``induced_alp`` makes for the
    selected candidates only.  ``index`` and ``text`` take no part in
    equality.
    """

    _fields = ("head", "body", "connective", "mask")

    def __init__(
        self, head: Literal, body: tuple[Literal, ...], connective: str, mask: int,
        index: AtomIndex, text: str,
    ):
        self.head, self.body, self.connective, self.mask = head, body, connective, mask
        self.index, self.text = index, text

    @cached_property
    def clause(self) -> Clause:
        return Clause(self.head, self.body, self.connective)

    @property
    def weight(self) -> int:
        """The number of consequences."""
        return self.mask.bit_count()

    def rows(self) -> list[Row]:
        """The consequences' argument rows, decoded from the bitset."""
        rows = self.index.rows
        return [rows[b] for b in bit_positions(self.mask)]


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


class _Enumerated:
    """A body with its variable count and literal shapes.  A conjunction
    joins its last literal onto its parent's rows (one empty row for a
    single literal); a disjunction's rows are its disjuncts' in turn."""

    __slots__ = ("body", "n_vars", "shapes", "parent")

    def __init__(
        self, body: Body, n_vars: int, shapes: tuple[Shape, ...], parent: _Enumerated | None
    ):
        self.body, self.n_vars, self.shapes, self.parent = body, n_vars, shapes, parent


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
    keep: Callable[[_Enumerated], None] = lambda b: None,
) -> list[_Enumerated]:
    """All bodies over the sorted predicates, canonically ordered and
    deduped: bodies identical up to variable renaming and literal order
    collapse to one canonical form.  Conjunctions grow a literal at a time,
    keyed on their shapes; the first body met under a key is kept, and only
    it is built, as its parent's literals plus one, and seen by ``keep``.
    A disjunction is built canonical and keyed by its text."""
    conj: dict[str, _Enumerated] = {}
    frontier = []
    for pred in predicates:
        shapes = ((pred, False, tuple(range(pred.arity))),)
        key = shape_key(shapes)
        if key not in conj:
            body = ((_literal(shapes[0]),), CONJUNCTION)
            conj[key] = entry = _Enumerated(body, pred.arity, shapes, None)
            keep(entry)
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
                    keep(entry)
                    next_frontier.append(entry)
        frontier = next_frontier
    disj: dict[str, _Enumerated] = {}
    for arity in sorted({p.arity for p in predicates} - {0}):
        preds = [p for p in predicates if p.arity == arity]
        for size in range(2, max_len + 1) if allow_disjunction else ():
            for subset in combinations(preds, size):
                shapes = tuple((p, False, tuple(range(arity))) for p in subset)
                body = (tuple(map(_literal, shapes)), DISJUNCTION)
                # sorted disjuncts over one argument tuple: already canonical
                disj[_body_text(*body)] = entry = _Enumerated(body, arity, shapes, None)
                keep(entry)
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
    counted as the bodies are kept, they stop the enumeration once they
    pass it, and no body is joined before.  A parent's rows are kept, so
    that each body is joined once in any order; a body whose parent has no
    rows takes no join."""
    enc = kind == ENCODER
    max_len = c.max_encoder_body_len if enc else c.max_decoder_body_len
    planned = 0
    pairs = cache(lambda n: sum(comb(n, k) for k in head_sizes))  # by variable count

    def plan(b: _Enumerated) -> None:
        nonlocal planned
        planned += pairs(b.n_vars)
        if planned > c.max_candidates:
            raise CapacityError(
                f"at least {planned} {kind} candidates planned, over the ceiling "
                f"of {c.max_candidates}; narrow the language with "
                f"{'--max-enc-len' if enc else '--max-dec-len'}, "
                "--max-head-vars or --no-disjunction, or raise --max-candidates"
            )

    bodies = _enumerate(
        preds, modes, max_len, c.allow_disjunction, c.allow_negation, plan
    )
    parents = {b.parent for b in bodies}
    kept: dict[_Enumerated, list[Row]] = {}

    def rows_of(b: _Enumerated) -> list[Row]:
        if b in kept:
            return kept[b]
        if b.body[1] == DISJUNCTION:  # each disjunct binds its slots in order
            rows = [*chain.from_iterable(store.by_pred.get(s[0], ()) for s in b.shapes)]
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
    predicates = sorted(kb.vocabulary)
    input_preds = [p for p in predicates if p not in kb.background_predicates]
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
            columns = list(zip(*rows))
            for i, slots in enumerate(subsets):
                args = _variables(slots)
                pred = Predicate(f"latent_{ordinal + i}", len(args))
                mask = index.columns_mask(columns, slots)
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
    return sorted(p for p in kb.input_predicates if p.arity >= 1)


def _decoder_bodies(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> Iterator[tuple[Body, int, list[tuple]]]:
    """Every decoder body with a substitution, in generation order, as
    (body, variable count, the columns of its rows, ``list(zip(*rows))``),
    from which each head variable tuple is masked.

    The latent fact context is the union of the encoder candidates'
    consequences; decoder heads range over the input predicates of arity at
    least 1 (``_head_predicates``), one decoder per predicate per variable
    tuple of its arity.
    """
    latents = sorted({c.head.predicate for c in latent_candidates})
    if not latents:
        return
    arities = [p.arity for p in _head_predicates(kb)]  # one per head predicate
    context: dict[Predicate, list[Row]] = {}  # as rows: no latent Fact is built
    for c in latent_candidates:
        context.setdefault(c.head.predicate, []).extend(c.rows())
    store = FactStore(context)
    for b, rows in _joined_bodies(DECODER, latents, {}, arities, config, store):
        if rows:  # the body has a substitution
            yield b.body, b.n_vars, list(zip(*rows))


def generate_decoder_candidates(
    latent_candidates: list[CandidateClause],
    kb: KnowledgeBase,
    config: GenerationConfig,
) -> list[CandidateClause]:
    """Every decoder clause over the latent vocabulary, unpruned, in
    generation order: body by body, then by head predicate, then by
    variable tuple (see ``_decoder_bodies``)."""
    index = AtomIndex(kb.facts)
    heads = _head_predicates(kb)
    out = []
    for body, n_vars, columns in _decoder_bodies(latent_candidates, kb, config):
        body_text = _body_text(*body)
        for pred in heads:
            for slots in combinations(range(n_vars), pred.arity):
                args = _variables(slots)
                text = _clause_text(pred, args, body_text)
                mask = index.columns_mask(columns, slots)
                out.append(CandidateClause(Literal(pred, args), *body, mask, index, text))
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
    body is read in one pass over its head variable tuples, planned once
    per variable count.  A tuple's rows are a bitset over the pool's one
    index, its class that mask plus the body predicates; the mask is corrupt
    or clean for each head predicate of its arity (``is_corrupt``).  A class
    corrupt for all of them is only counted; of each other class the least
    text suffix ``args) :- body.`` is kept, the least text of the class for
    every head predicate, which adds only the prefix ``name(``.  The
    survivors are ``prune_corrupt(prune_signature_variants(
    generate_decoder_candidates(...)))``, built with their class's mask.
    """
    heads = _head_predicates(kb)
    by_arity: dict[int, list[Predicate]] = {}
    for pred in heads:
        by_arity.setdefault(pred.arity, []).append(pred)
    index = AtomIndex(kb.facts)
    kb_masks = index.kb_masks(kb, heads)
    plans: dict[int, list[tuple]] = {}  # by variable count: (slots, heads, KB masks)
    # (row mask, body predicates) -> (suffix, body, args, clean heads) or None
    kept: dict[tuple, tuple | None] = {}  # None: corrupt for every head, counted
    # a head tuple's columns -> (row mask, the heads it is clean for)
    seen: dict[tuple, tuple[int, list[Predicate]]] = {}
    met = classes = 0
    for body, n_vars, columns in _decoder_bodies(latent_candidates, kb, config):
        if n_vars not in plans:
            plans[n_vars] = [
                (slots, arity_heads, [kb_masks[p] for p in arity_heads])
                for arity, arity_heads in by_arity.items()
                for slots in combinations(range(n_vars), arity)
            ]
        preds, body_text = body_predicates(body[0]), None
        for slots, arity_heads, masks in plans[n_vars]:
            met += len(arity_heads)
            head_columns = tuple(map(columns.__getitem__, slots))
            known = seen.get(head_columns)
            if known is None:
                row_mask = index.mask(zip(*head_columns))
                clean = [p for p, m in zip(arity_heads, masks) if not is_corrupt(row_mask, m)]
                known = seen[head_columns] = row_mask, clean
            row_mask, clean = known
            key = (row_mask, preds)
            if key not in kept:
                classes += len(arity_heads)
                kept[key] = None
            if not clean:
                continue
            if body_text is None:
                body_text = _body_text(*body)
            args = _variables(slots)
            suffix = _clause_suffix(args, body_text)
            best = kept[key]
            if best is None or suffix < best[0]:
                kept[key] = (suffix, body, args, clean)
    ranked = [
        (f"{pred.name}({best[0]}", pred, best, row_mask)
        for (row_mask, _), best in kept.items() if best
        for pred in best[3]
    ]
    ranked.sort(key=itemgetter(0))
    survivors = [
        CandidateClause(Literal(pred, args), *body, row_mask, index, text)
        for text, pred, (_, body, args, _), row_mask in ranked
    ]
    return survivors, met, classes
