"""Clauses, logic programs, and their bottom-up evaluation.

A term is a plain ``str``: a variable when its initial is uppercase
(``alp.kb.is_variable``).  A body is joined one literal at a time over rows
of constants, each literal a shape: its predicate, its sign and an integer
slot per argument.  ``FactStore.join`` looks a literal's bound slots up in a
hash index of its predicate's argument rows, checks a repeated variable, and
appends its new variables; a negated literal, joined last, keeps a row only
when its atom is absent (closed-world assumption).  Programs here are
non-recursive, so one bottom-up pass reaches the fixpoint.  Evaluation runs
on argument rows by predicate from the KB to the loss: a KB's store reads
the rows the KB grouped once when it was built (``KnowledgeBase.rows`` and
``background_rows``), the decoder reads the encoder's rows and
``loss_parts`` compares rows.  ``Fact``s, immutable ``(predicate, args)``
tuples, are built only where a function returns them: ``encode``,
``reconstruct``, ``apply_program`` and ``ground_consequences``, unchecked
and in C, since every row is a projection onto a checked head, and with
the cyclic garbage collector paused (``alp.kb.GcPaused``): a pass returns
thousands of them, tuples the collector tracks, and none holds a reference
cycle, so a collection during the build finds nothing to free.

Program text format, round-trippable through the parser:

    #encoder
    latent_1(X,Y) :- mother(X,Y);father(X,Y).
    #decoder
    mother(X,Y) :- latent_1(X,Y).

Conjunctive bodies join literals with ',', disjunctive bodies with ';'.
A ``#background p/n`` line marks p/n as background knowledge.  Lines are read
with the line reader of ``alp.kb``; sections may come in either order.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from functools import lru_cache, reduce
from itertools import chain, repeat

from .errors import KbSyntaxError
from .kb import (
    Fact,
    GcPaused,
    KnowledgeBase,
    Predicate,
    Row,
    checked_namedtuple,
    code_lines,
    expect_end,
    is_variable,
    next_char,
    read_atom,
    read_directive,
    rows_by_predicate,
)

CONJUNCTION = "conjunction"
DISJUNCTION = "disjunction"

ENCODER = "encoder"
DECODER = "decoder"
_PROGRAM_DIRECTIVES = (ENCODER, DECODER, "background")

_VAR_DISPLAY = "XYZWUVTS"


def var_name(i: int) -> str:
    """Display name for the i-th variable of a clause: X, Y, Z, ... then V8."""
    return _VAR_DISPLAY[i] if i < len(_VAR_DISPLAY) else f"V{i}"


class Literal(checked_namedtuple("Literal", "predicate args negated", (False,))):
    """An atom or its negation, with variables or constants as arguments:
    (predicate, args, negated=False)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.args) != self.predicate.arity:
            raise ValueError(f"{self.predicate} applied to {len(self.args)} arguments")
        return self

    def variables(self) -> tuple[str, ...]:
        return tuple(a for a in self.args if is_variable(a))

    def __str__(self):
        core = self.predicate.name
        if self.args:
            core += f"({','.join(self.args)})"
        return f"not {core}" if self.negated else core


class Clause(checked_namedtuple("Clause", "head body body_connective", (CONJUNCTION,))):
    """head :- body, with a conjunctive or disjunctive body:
    (head, body, body_connective=CONJUNCTION).

    Invariants enforced here: the head is positive and range-restricted
    (every head variable occurs in a positive body literal), the body is
    nonempty, disjunctive bodies are positive literals over identical
    argument tuples, and every variable of a negated literal also occurs in
    a positive literal.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        head, body, connective = self
        if head.negated:
            raise ValueError("clause head must be positive")
        if not body:
            raise ValueError("clause body must be nonempty")
        if connective not in (CONJUNCTION, DISJUNCTION):
            raise ValueError(f"bad connective {connective!r}")
        positive_vars = {v for lit in body if not lit.negated for v in lit.variables()}
        for v in head.variables():
            if v not in positive_vars:
                raise ValueError(f"head variable {v} unbound in body")
        for lit in body:
            if lit.negated:
                for v in lit.variables():
                    if v not in positive_vars:
                        raise ValueError(f"negated literal variable {v} unsafe")
        if connective == DISJUNCTION:
            for lit in body:
                if lit.negated:
                    raise ValueError("disjunctive bodies must be positive")
                if lit.args != body[0].args:
                    raise ValueError("disjunctive body literals must share one argument tuple")
        return self

    def __str__(self):
        sep = "," if self.body_connective == CONJUNCTION else ";"
        return f"{self.head} :- {sep.join(str(lit) for lit in self.body)}."


class LogicProgram(checked_namedtuple("LogicProgram", "clauses direction")):
    """A non-recursive set of clauses, all mapping in one direction: no
    predicate is both a head and a body predicate.  An encoder's heads are
    its latents, so an encoder body that reads one is named as such."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.direction not in (ENCODER, DECODER):
            raise ValueError(f"bad direction {self.direction!r}")
        heads = self.head_predicates()
        for c in self.clauses:
            for lit in c.body:
                p = lit.predicate
                if p in heads and self.direction == ENCODER:
                    raise ValueError(f"encoder body uses latent {p}, a recursive use in {c}")
                if p in heads:
                    raise ValueError(f"recursive use of {p} in {c}")
        return self

    def head_predicates(self) -> frozenset[Predicate]:
        return frozenset(c.head.predicate for c in self.clauses)

    def body_predicates(self) -> frozenset[Predicate]:
        return frozenset(l.predicate for c in self.clauses for l in c.body)


def _check_decoder(latents: frozenset[Predicate], clauses: tuple[Clause, ...]) -> None:
    """A decoder writes only inputs and reads only latents: heads are
    checked first, so a latent it writes is named as the fault, not only
    as recursion."""
    for c in clauses:
        if c.head.predicate in latents:
            raise ValueError(f"decoder head {c.head.predicate} is not an input")
    heads = {c.head.predicate for c in clauses}
    for c in clauses:
        for lit in c.body:
            p = lit.predicate
            if p not in latents:
                recursive = f", a recursive use in {c}" if p in heads else ""
                raise ValueError(f"decoder body uses non-latent {p}{recursive}")


class Alp(checked_namedtuple("Alp", "encoder decoder background", (frozenset(),))):
    """An auto-encoding logic program: decoder composed with encoder, as
    (encoder, decoder, background=frozenset()).  The latents are the
    encoder's heads; ``background`` holds the predicates declared
    background knowledge, which the encoder may read."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.encoder.direction != ENCODER or self.decoder.direction != DECODER:
            raise ValueError("programs passed in the wrong slots")
        _check_decoder(self.latent_vocabulary, self.decoder.clauses)
        return self

    @property
    def latent_vocabulary(self) -> frozenset[Predicate]:
        """The latents: the encoder's heads, which the decoder reads."""
        return self.encoder.head_predicates()


# A literal as (predicate, negated, ids): in a join an id is a slot of the
# rows, in a canonical key a variable's number or a constant's symbol.
Shape = tuple[Predicate, bool, tuple]


class FactStore:
    """Argument rows by predicate, taken as given (neither copied nor
    changed), with hash indexes built lazily per pattern of bound
    positions."""

    def __init__(self, rows: Mapping[Predicate, Collection[Row]]):
        self.by_pred = rows
        self._indexes: dict = {}

    def index(self, predicate: Predicate, bound: tuple) -> dict[Row, Collection[Row]]:
        """The predicate's rows keyed by their values at the bound positions;
        with none bound, its rows themselves, or no key when it has none."""
        rows = self.by_pred.get(predicate, ())
        if not bound:
            return {(): rows} if rows else {}
        cached = self._indexes.get((predicate, bound))
        if cached is None:
            cached = self._indexes[predicate, bound] = {}
            for args in rows:
                cached.setdefault(tuple(args[i] for i in bound), []).append(args)
        return cached

    def join(self, rows: list[Row], shape: Shape) -> list[Row]:
        """Every extension of the rows that satisfies one literal: the join
        step of every body.  An id below the rows' width is a bound slot;
        the others are new slots, numbered on in order of first appearance.
        A negated literal binds every slot and keeps a row when its atom is
        absent (closed-world assumption).  A first literal of distinct
        variables, joined onto the empty start row, is a new list of the
        store's rows themselves, copied in C.  How the ids bind is planned
        once per (ids, width) by ``_join_plan``."""
        if not rows:
            return rows
        predicate, negated, ids = shape
        bound, slots, new, repeats, whole_row = _join_plan(ids, len(rows[0]))
        index = self.index(predicate, bound)
        if negated:
            return [r for r in rows if tuple([r[s] for s in slots]) not in index]
        if whole_row:
            if rows == [()]:  # a first literal of distinct variables: its rows
                return list(index.get((), ()))
            return [row + args for row in rows for args in index.get((), ())]
        return [
            row + tuple([args[i] for i in new])
            for row in rows
            for args in index.get(tuple([row[s] for s in slots]), ())
            if not repeats or all(args[i] == args[j] for i, j in repeats)
        ]


@lru_cache(maxsize=1 << 12)
def _join_plan(ids: tuple[int, ...], width: int) -> tuple:
    """How a literal's ids join onto rows of ``width`` slots: its bound
    positions and their slots, the positions of its new slots (an id's
    first occurrence), the (position, first position) pairs of a repeated
    new id, and whether every argument is a new slot, in order."""
    first = [ids.index(k) for k in ids]  # each argument's first position
    bound = tuple(i for i, k in enumerate(ids) if k < width)
    slots = tuple(ids[i] for i in bound)
    new = tuple(i for i, k in enumerate(ids) if k >= width and first[i] == i)
    repeats = tuple((i, j) for i, j in enumerate(first) if ids[i] >= width and j < i)
    return bound, slots, new, repeats, new == tuple(range(len(ids)))


def _compile(literals: tuple[Literal, ...], head: tuple[str, ...]):
    """A conjunction as a start row, its literals' shapes over slot rows in
    join order (negated literals last, all their slots bound) and the
    head's slots.  The start row holds the constants of literals and head.
    """
    literals = sorted(literals, key=lambda l: l.negated)  # stable
    slot: dict[str, int] = {}  # a term's slot
    for args in [l.args for l in literals] + [head]:
        for a in args:
            if not is_variable(a):
                slot.setdefault(a, len(slot))
    start = tuple(slot)

    def ids(args):
        return tuple(slot.setdefault(a, len(slot)) for a in args)

    return start, [(l.predicate, l.negated, ids(l.args)) for l in literals], ids(head)


def project(rows: list[Row], slots: tuple[int, ...]) -> set[Row]:
    """The set of the rows' values at the slots."""
    if rows and slots == tuple(range(len(rows[0]))):  # the rows themselves
        return set(rows)
    return {tuple([row[s] for s in slots]) for row in rows}


def _apply(clauses: Iterable[Clause], store: FactStore) -> dict[Predicate, set[Row]]:
    """One bottom-up pass, the path of every evaluation: each head
    predicate's rows.  A conjunction is joined literal by literal and the
    head projected from its rows; a disjunction is one join per disjunct,
    all sharing the head's slots."""
    out: dict[Predicate, set[Row]] = {}
    for clause in clauses:
        body, rows = clause.body, []
        disjunction = clause.body_connective == DISJUNCTION
        for literals in [(l,) for l in body] if disjunction else [body]:
            start, shapes, head = _compile(literals, clause.head.args)
            rows += reduce(store.join, shapes, [start])
        out.setdefault(clause.head.predicate, set()).update(project(rows, head))
    return out


def _facts(rows: dict[Predicate, set[Row]]) -> frozenset[Fact]:
    """The rows as facts, built unchecked (each row is a projection onto a
    clause head, whose arity ``Literal`` checked) and with the collector
    paused."""
    groups = (map(Fact._make, zip(repeat(p), group)) for p, group in rows.items())
    with GcPaused():
        return frozenset(chain.from_iterable(groups))


def ground_consequences(clause: Clause, facts: Iterable[Fact]) -> frozenset[Fact]:
    """Every ground head instance whose body is satisfied by the facts."""
    return _facts(_apply([clause], FactStore(rows_by_predicate(facts))))


def apply_program(program: LogicProgram, facts: Iterable[Fact]) -> frozenset[Fact]:
    """One bottom-up pass: the union of all clause consequences.  A body
    predicate absent from the facts contributes no consequences."""
    return _facts(_apply(program.clauses, FactStore(rows_by_predicate(facts))))


def kb_store(kb: KnowledgeBase) -> FactStore:
    """A store of the KB's rows, of facts and background alike (grouped
    apart, with no predicate in common, so merged without a union)."""
    return FactStore(kb.rows | kb.background_rows)


def encode(alp: Alp, kb: KnowledgeBase) -> frozenset[Fact]:
    """Latent representation of kb: encoder applied to facts plus background."""
    return _facts(_apply(alp.encoder.clauses, kb_store(kb)))


def reconstruct(alp: Alp, kb: KnowledgeBase) -> frozenset[Fact]:
    """Decoder output for the latent representation of kb."""
    latent = _apply(alp.encoder.clauses, kb_store(kb))
    return _facts(_apply(alp.decoder.clauses, FactStore(latent)))


def loss_by_predicate(alp: Alp, kb: KnowledgeBase) -> dict[Predicate, tuple[int, int]]:
    """(missing, false) reconstruction counts of each predicate of kb's
    non-background facts or of their reconstruction, compared as rows: no
    Fact is built."""
    targets = kb.rows  # the non-background rows
    latent = _apply(alp.encoder.clauses, kb_store(kb))
    made = _apply(alp.decoder.clauses, FactStore(latent))
    counts = {}
    for p in targets.keys() | {p for p, rows in made.items() if rows}:
        kept, found = targets.get(p, ()), made.get(p, set())
        hit = len(found.intersection(kept))
        counts[p] = (len(kept) - hit, len(found) - hit)
    return counts


def loss_parts(alp: Alp, kb: KnowledgeBase) -> tuple[int, int]:
    """(missing, false) reconstruction counts over non-background facts."""
    counts = loss_by_predicate(alp, kb).values()
    return sum(m for m, _ in counts), sum(f for _, f in counts)


def reconstruction_loss(alp: Alp, kb: KnowledgeBase) -> int:
    """Size of the symmetric difference between kb and its reconstruction."""
    return sum(map(sum, loss_by_predicate(alp, kb).values()))


# ----------------------------------------------------------------------
# Canonical forms.  Two bodies that are equal up to variable renaming and
# literal order map to the same canonical serialization, which is what
# candidate deduplication and latent naming key on.
# ----------------------------------------------------------------------

# The longest body GenerationConfig allows: a body whose literals tie at
# every step of ``shape_key``'s search, such as a cycle of one binary
# predicate, still has up to len(body)! least orders to follow.
_CANONICAL_PERMUTATION_CAP = 6


@lru_cache(maxsize=1 << 16)
def _render(shape: Shape, order: tuple) -> tuple[str, tuple]:
    """A literal's text after literals whose variables first appeared in
    ``order``, and ``order`` extended by its new variables: variable id
    ``a`` shows as ``var_name(order.index(a))``, and a constant stands in
    the shape's ids as its symbol."""
    predicate, negated, ids = shape
    names = []
    for a in ids:
        if type(a) is int:
            if a not in order:
                order += (a,)
            a = var_name(order.index(a))
        names.append(a)
    text = f"{predicate.name}({','.join(names)})" if ids else predicate.name
    return f"not {text}" if negated else text, order


def shape_key(shapes) -> str:
    """The canonical text of conjunctive literal shapes, equal for two bodies
    exactly when they are equal up to variable renaming and literal order.

    It is the least tuple of literal texts over every literal order, its
    variables renamed X, Y, Z, ... by first appearance.  A literal's text
    depends only on the literals before it, so the least tuple is grown a
    literal at a time: each step renders every remaining literal after every
    order kept so far and keeps the orders whose text is least (gSpan's
    minimum DFS code, Yan & Han 2002).  Without ties that is about
    len(body)**2 / 2 renderings instead of len(body)! * len(body); a body
    that ties at every step still costs up to len(body)!, so
    GenerationConfig caps body lengths at ``_CANONICAL_PERMUTATION_CAP``.
    Texts compare as rendered, since display names do not sort in number
    order (W < X).
    """
    if len(shapes) == 2:  # the common case, without the search's lists
        a, b = shapes
        (text_a, after_a), (text_b, after_b) = _render(a, ()), _render(b, ())
        if text_a < text_b:
            return f"{text_a},{_render(b, after_a)[0]}"
        if text_b < text_a:
            return f"{text_b},{_render(a, after_b)[0]}"
        return f"{text_a},{min(_render(b, after_a)[0], _render(a, after_b)[0])}"
    texts = []
    kept = [((), tuple(shapes))]  # (variable order, literals left) per order
    for _ in shapes:
        least, grown = None, []
        for order, rest in kept:
            for i, shape in enumerate(rest):
                text, after = _render(shape, order)
                if least is None or text < least:
                    least, grown = text, [(after, rest[:i] + rest[i + 1 :])]
                elif text == least:
                    grown.append((after, rest[:i] + rest[i + 1 :]))
        texts.append(least)
        kept = grown
    return ",".join(texts)


# ----------------------------------------------------------------------
# Program text format.
# ----------------------------------------------------------------------


def _literal(negated: bool, name: str, tokens) -> Literal:
    return Literal(Predicate(name, len(tokens)), tokens, negated)


def _read_clause(line_no: int, code: str) -> Clause:
    """Read ``head :- body.`` into a clause."""
    cut = code.find(":-")
    if cut < 0:
        raise KbSyntaxError("expected ':-' in clause", line_no, 1)
    negated, name, args, pos = read_atom(code[:cut], 0, line_no, negatable=True)
    if negated:
        raise KbSyntaxError("clause head must be positive", line_no, 1)
    expect_end(code[:cut], pos, line_no, "clause head")
    pos = len(code) - len(code[cut + 2 :].lstrip())  # the body's first character
    if not code.rstrip().endswith("."):
        raise KbSyntaxError("clause must end with '.'", line_no, len(code))
    code = code.rstrip()[:-1]  # the body ends before its closing '.'
    separator = ";" if ";" in code[pos:] else ","
    body, found = [], separator
    while found == separator:  # pos is at the body's start or at a separator
        *literal, pos = read_atom(code, pos + bool(body), line_no, negatable=True)
        body.append(_literal(*literal))
        pos, found = next_char(code, pos)
    expect_end(code, pos, line_no, "literal")
    connective = DISJUNCTION if separator == ";" else CONJUNCTION
    return Clause(_literal(False, name, args), tuple(body), connective)


def parse_program(text: str) -> Alp:
    """Parse ``#encoder`` / ``#decoder`` sections into an Alp.

    Head predicates of encoder clauses become the latent vocabulary; the
    decoder may only reference those latents in clause bodies.  A latent
    predicate (name and arity) is latent wherever it stands, so an encoder
    body or a decoder head that uses one is rejected.  Each clause is
    checked as its line is read; once all are, the encoder is checked
    first, and the decoder before its own recursion check.
    """
    sections: dict[str, list[Clause]] = {ENCODER: [], DECODER: []}
    section = None
    background: set[Predicate] = set()
    for line_no, code in code_lines(text):
        if code.lstrip().startswith("#"):
            directive, key, _, pos = read_directive(line_no, code, _PROGRAM_DIRECTIVES)
            expect_end(code, pos, line_no, "directive")
            if directive == "background":
                background.add(Predicate(*key))
            else:
                section = directive
        elif section is None:
            raise KbSyntaxError("clause outside #encoder/#decoder section", line_no, 1)
        else:
            sections[section].append(_read_clause(line_no, code))

    # Sections come in either order, so roles are known once all are read.
    encoder = LogicProgram(tuple(sections[ENCODER]), ENCODER)
    decoder = tuple(sections[DECODER])
    _check_decoder(encoder.head_predicates(), decoder)
    # past Alp.__new__: its decoder check ran just above, and its slots hold
    return tuple.__new__(Alp, (encoder, LogicProgram(decoder, DECODER), frozenset(background)))


def serialize_program(alp: Alp) -> str:
    """Write an Alp in the #encoder/#decoder text format, with a
    ``#background`` line for each background predicate the encoder reads."""
    background = alp.background & alp.encoder.body_predicates()
    out = [f"#background {p}" for p in sorted(background)]
    out.append("#encoder")
    out.extend(str(c) for c in alp.encoder.clauses)
    out.append("#decoder")
    out.extend(str(c) for c in alp.decoder.clauses)
    return "\n".join(out) + "\n"
