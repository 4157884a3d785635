"""Clauses, logic programs, and their bottom-up evaluation.

A body is compiled once into integer slots and joined over rows of
constants: a row starts with the clause's constants, and each literal's
first-seen variables take the next slots.  A literal looks its bound slots up
in a hash index of its predicate keyed by those argument positions, checks a
variable repeated within it, and appends its new variables.  Negated literals
come last and keep a row only when its ground atom is absent (closed-world
assumption); a disjunction is one join per disjunct.  Every head over the
body is projected from its rows by slot, so one join serves them all.
Programs here are non-recursive, so one bottom-up pass reaches the fixpoint.

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

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Union

from .errors import KbSyntaxError
from .kb import (
    Constant,
    Fact,
    KnowledgeBase,
    ORIGIN_BACKGROUND,
    ORIGIN_INPUT,
    ORIGIN_LATENT,
    Predicate,
    code_lines,
    expect_end,
    next_char,
    predicate_order,
    read_atom,
    read_directive,
)

VAR_RE = re.compile(r"[A-Z][a-zA-Z0-9_]*\Z")

CONJUNCTION = "conjunction"
DISJUNCTION = "disjunction"

ENCODER = "encoder"
DECODER = "decoder"
_PROGRAM_DIRECTIVES = (ENCODER, DECODER, "background")

_VAR_DISPLAY = "XYZWUVTS"


def var_name(i: int) -> str:
    """Display name for the i-th variable of a clause: X, Y, Z, ... then V8."""
    return _VAR_DISPLAY[i] if i < len(_VAR_DISPLAY) else f"V{i}"


@dataclass(frozen=True, slots=True)
class Variable:
    """A universally quantified variable (uppercase-initial token)."""

    name: str

    def __post_init__(self):
        if not VAR_RE.match(self.name):
            raise ValueError(f"bad variable name {self.name!r}")

    def __str__(self):
        return self.name


Term = Union[Variable, Constant]


@dataclass(frozen=True, slots=True)
class Literal:
    """An atom or its negation, with variables or constants as arguments."""

    predicate: Predicate
    args: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate} applied to {len(self.args)} arguments"
            )

    def variables(self) -> tuple[Variable, ...]:
        return tuple(a for a in self.args if isinstance(a, Variable))

    def __str__(self):
        core = self.predicate.name
        if self.args:
            core += f"({','.join(str(a) for a in self.args)})"
        return f"not {core}" if self.negated else core


@dataclass(frozen=True, slots=True)
class Clause:
    """head :- body, with a conjunctive or disjunctive body.

    Invariants enforced here: the head is positive and range-restricted
    (every head variable occurs in a positive body literal), the body is
    nonempty, disjunctive bodies are positive literals over identical
    argument tuples, and every variable of a negated literal also occurs in
    a positive literal.
    """

    head: Literal
    body: tuple[Literal, ...]
    body_connective: str = CONJUNCTION

    def __post_init__(self):
        if self.head.negated:
            raise ValueError("clause head must be positive")
        if not self.body:
            raise ValueError("clause body must be nonempty")
        if self.body_connective not in (CONJUNCTION, DISJUNCTION):
            raise ValueError(f"bad connective {self.body_connective!r}")
        positive_vars = {
            v for lit in self.body if not lit.negated for v in lit.variables()
        }
        for v in self.head.variables():
            if v not in positive_vars:
                raise ValueError(f"head variable {v} unbound in body")
        for lit in self.body:
            if lit.negated:
                for v in lit.variables():
                    if v not in positive_vars:
                        raise ValueError(f"negated literal variable {v} unsafe")
        if self.body_connective == DISJUNCTION:
            first = self.body[0]
            for lit in self.body:
                if lit.negated:
                    raise ValueError("disjunctive bodies must be positive")
                if lit.args != first.args:
                    raise ValueError(
                        "disjunctive body literals must share one argument tuple"
                    )

    def __str__(self):
        sep = "," if self.body_connective == CONJUNCTION else ";"
        return f"{self.head} :- {sep.join(str(lit) for lit in self.body)}."


def body_variables(literals: Iterable[Literal]) -> list[Variable]:
    """The literals' variables in order of first appearance."""
    seen: list[Variable] = []
    for lit in literals:
        for v in lit.variables():
            if v not in seen:
                seen.append(v)
    return seen


@dataclass(frozen=True, slots=True)
class LogicProgram:
    """A non-recursive set of clauses, all mapping in one direction.

    Encoder clauses have input or background predicates in the body and a
    latent predicate in the head; decoder clauses have latent bodies and
    input heads.
    """

    clauses: tuple[Clause, ...]
    direction: str

    def __post_init__(self):
        if self.direction not in (ENCODER, DECODER):
            raise ValueError(f"bad direction {self.direction!r}")
        heads = {c.head.predicate for c in self.clauses}
        for c in self.clauses:
            for lit in c.body:
                if lit.predicate in heads:
                    raise ValueError(
                        f"recursive use of {lit.predicate} in {c}"
                    )
                if self.direction == ENCODER and lit.predicate.origin == ORIGIN_LATENT:
                    raise ValueError(f"encoder body uses latent {lit.predicate}")
                if self.direction == DECODER and lit.predicate.origin != ORIGIN_LATENT:
                    raise ValueError(f"decoder body uses non-latent {lit.predicate}")
            if self.direction == ENCODER and c.head.predicate.origin != ORIGIN_LATENT:
                raise ValueError(f"encoder head {c.head.predicate} is not latent")
            if self.direction == DECODER and c.head.predicate.origin != ORIGIN_INPUT:
                raise ValueError(f"decoder head {c.head.predicate} is not an input")

    def head_predicates(self) -> frozenset[Predicate]:
        return frozenset(c.head.predicate for c in self.clauses)

    def body_predicates(self) -> frozenset[Predicate]:
        return frozenset(l.predicate for c in self.clauses for l in c.body)


@dataclass(frozen=True, slots=True)
class Alp:
    """An auto-encoding logic program: decoder composed with encoder."""

    encoder: LogicProgram
    decoder: LogicProgram
    latent_vocabulary: frozenset[Predicate]

    def __post_init__(self):
        if self.encoder.direction != ENCODER or self.decoder.direction != DECODER:
            raise ValueError("programs passed in the wrong slots")
        for p in self.latent_vocabulary:
            if p.origin != ORIGIN_LATENT:
                raise ValueError(f"{p} in latent vocabulary is not latent")
        if not self.decoder.body_predicates() <= self.latent_vocabulary:
            raise ValueError("decoder body predicates outside latent vocabulary")


class FactStore:
    """Argument rows by predicate, with hash indexes built lazily per
    pattern of bound positions."""

    def __init__(self, facts: Iterable[Fact]):
        self.by_pred: dict[Predicate, list[tuple[Constant, ...]]] = {}
        for f in facts:
            self.by_pred.setdefault(f.predicate, []).append(f.args)
        self._indexes: dict = {}

    def index(
        self, predicate: Predicate, bound: tuple[int, ...]
    ) -> dict[tuple[Constant, ...], list[tuple[Constant, ...]]]:
        """The predicate's rows keyed by their values at the bound positions."""
        key = (predicate, bound)
        cached = self._indexes.get(key)
        if cached is None:
            cached = self._indexes[key] = {}
            for args in self.by_pred.get(predicate, ()):
                cached.setdefault(tuple(args[i] for i in bound), []).append(args)
        return cached


Row = tuple[Constant, ...]


def _compile(literals: tuple[Literal, ...], head_args: list[tuple[Term, ...]]):
    """The join plan of a conjunction over slot rows, and each head's slots.

    A row starts with the constants of the literals and heads, and each
    literal's first-seen variables take the next slots.  A step is the
    literal's predicate, whether it is negated, its bound positions with
    their slots, the positions it appends, and (position, earlier position)
    pairs for a variable repeated within it.  Negated literals come last,
    so all their positions are bound.
    """
    literals = sorted(literals, key=lambda l: l.negated)  # stable
    slot: dict = {}  # a constant's slot by the constant, a variable's by its name
    for args in [l.args for l in literals] + head_args:
        for a in args:
            if type(a) is not Variable:
                slot.setdefault(a, len(slot))
    start = tuple(slot)
    steps = []
    for lit in literals:
        keys = [a.name if type(a) is Variable else a for a in lit.args]
        bound, slots, new, repeats = [], [], [], []
        for i, k in enumerate(keys):
            if k in slot:
                bound.append(i)
                slots.append(slot[k])
            elif k in keys[:i]:
                repeats.append((i, keys.index(k)))
            else:
                new.append(i)
        for i in new:
            slot[keys[i]] = len(slot)
        steps.append((lit.predicate, lit.negated, tuple(bound), slots, new, repeats))
    return start, steps, [
        [slot[a.name if type(a) is Variable else a] for a in args] for args in head_args
    ]


def _join(start: Row, steps, store: FactStore) -> list[Row]:
    """Every row that extends ``start`` and satisfies the steps in order."""
    rows = [start]
    for predicate, negated, positions, slots, new, repeats in steps:
        index = store.index(predicate, positions)
        if negated:  # closed world: the atom must be absent
            rows = [r for r in rows if tuple([r[s] for s in slots]) not in index]
            continue
        rows = [
            row + tuple([args[i] for i in new])
            for row in rows
            for args in index.get(tuple([row[s] for s in slots]), ())
            if not repeats or all(args[i] == args[j] for i, j in repeats)
        ]
    return rows


def body_rows(
    body: tuple[Literal, ...],
    connective: str,
    store: FactStore,
    head_args: list[tuple[Term, ...]],
) -> list[set[Row]]:
    """For each tuple of terms in ``head_args``, its ground instances under
    every substitution that satisfies the body.

    A conjunction is joined once and every tuple projected from that join;
    a disjunction is one join per disjunct.
    """
    joins = [(lit,) for lit in body] if connective == DISJUNCTION else [body]
    out: list[set[Row]] = [set() for _ in head_args]
    for literals in joins:
        start, steps, heads = _compile(literals, head_args)
        rows = _join(start, steps, store)
        for projected, slots in zip(out, heads):
            projected.update(tuple([row[s] for s in slots]) for row in rows)
    return out


def ground_consequences(
    clause: Clause, facts: Iterable[Fact] | FactStore
) -> frozenset[Fact]:
    """Every ground head instance whose body is satisfied by the facts."""
    store = facts if isinstance(facts, FactStore) else FactStore(facts)
    (rows,) = body_rows(clause.body, clause.body_connective, store, [clause.head.args])
    return frozenset(Fact(clause.head.predicate, args) for args in rows)


def apply_program(program: LogicProgram, facts: Iterable[Fact]) -> frozenset[Fact]:
    """One bottom-up pass: the union of all clause consequences.  A body
    predicate absent from the facts contributes no consequences."""
    store = FactStore(facts)
    return frozenset().union(*(ground_consequences(c, store) for c in program.clauses))


def encode(alp: Alp, kb: KnowledgeBase) -> frozenset[Fact]:
    """Latent representation of kb: encoder applied to facts plus background."""
    return apply_program(alp.encoder, kb.facts | kb.background)


def reconstruct(alp: Alp, kb: KnowledgeBase) -> frozenset[Fact]:
    """Decoder output for the latent representation of kb."""
    return apply_program(alp.decoder, encode(alp, kb))


def loss_parts(alp: Alp, kb: KnowledgeBase) -> tuple[int, int]:
    """(missing, false) reconstruction counts over non-background facts."""
    recon = reconstruct(alp, kb)
    return len(kb.facts - recon), len(recon - kb.facts)


def reconstruction_loss(alp: Alp, kb: KnowledgeBase) -> int:
    """Size of the symmetric difference between kb and its reconstruction."""
    missing, false = loss_parts(alp, kb)
    return missing + false


# ----------------------------------------------------------------------
# Canonical forms.  Two bodies that are equal up to variable renaming and
# literal order map to the same canonical serialization, which is what
# candidate deduplication and latent naming key on.
# ----------------------------------------------------------------------

_CANONICAL_PERMUTATION_CAP = 6  # the longest body GenerationConfig allows


@lru_cache(maxsize=1 << 16)
def _literal_text(name: str, negated: bool, ids: tuple) -> str:
    """A literal's text with variable number i shown as ``var_name(i)``;
    a constant stands in ``ids`` as its symbol."""
    if ids:
        args = ",".join(var_name(a) if type(a) is int else a for a in ids)
        name = f"{name}({args})"
    return f"not {name}" if negated else name


def _renamed_texts(shapes) -> tuple[str, ...]:
    """The literals' texts once their variables are renumbered by first
    appearance in this order."""
    mapping: dict[int, int] = {}
    texts = []
    for name, negated, ids in shapes:
        renamed = []
        for a in ids:
            if type(a) is int:
                a = mapping.setdefault(a, len(mapping))
            renamed.append(a)
        texts.append(_literal_text(name, negated, tuple(renamed)))
    return tuple(texts)


def body_key(body: tuple[Literal, ...], connective: str = CONJUNCTION) -> str:
    """The canonical text of a body, equal for two bodies exactly when they
    are equal up to variable renaming and literal order.

    A conjunction takes the least tuple of literal texts over every literal
    order, its variables renamed X, Y, Z, ... by first appearance.  That is
    exact but costs len(body)! renamings, so GenerationConfig caps body
    lengths at ``_CANONICAL_PERMUTATION_CAP``.  Disjuncts share one argument
    tuple, so a disjunction only sorts them by predicate.  The variables are
    numbered once per body and each renaming maps those numbers; the
    comparison is on the rendered texts, since display names do not sort in
    number order (W comes before X).
    """
    numbers: dict[str, int] = {}  # by variable name
    shapes = [
        (
            l.predicate.name,
            l.negated,
            tuple(
                numbers.setdefault(a.name, len(numbers))
                if type(a) is Variable
                else a.symbol
                for a in l.args
            ),
        )
        for l in body
    ]
    if connective == DISJUNCTION:
        shapes.sort(key=lambda s: (s[0], len(s[2])))  # (name, arity)
        return ";".join(_renamed_texts(shapes))
    return ",".join(min(map(_renamed_texts, permutations(shapes))))


# ----------------------------------------------------------------------
# Program text format.
# ----------------------------------------------------------------------


def _literal(negated: bool, name: str, tokens, origins: dict) -> Literal:
    """``origins`` holds an origin by name or by (name, arity)."""
    n = len(tokens)
    origin = origins.get(name) or origins.get((name, n), ORIGIN_INPUT)
    predicate = Predicate(name, n, origin)
    args = tuple(Variable(t) if t[0].isupper() else Constant(t) for t in tokens)
    return Literal(predicate, args, negated)


def _read_clause(line_no: int, code: str):
    """Read ``head :- body.``: the head, the body's literals and its connective."""
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
        body.append(literal)
        pos, found = next_char(code, pos)
    expect_end(code, pos, line_no, "literal")
    return (False, name, args), body, DISJUNCTION if separator == ";" else CONJUNCTION


def parse_program(text: str) -> Alp:
    """Parse ``#encoder`` / ``#decoder`` sections into an Alp.

    Head predicates of encoder clauses become the latent vocabulary; the
    decoder may only reference those latents in clause bodies.
    """
    sections: dict[str, list] = {ENCODER: [], DECODER: []}
    section = None
    background: dict[tuple[str, int], str] = {}  # origin by (name, arity)
    for line_no, code in code_lines(text):
        if code.lstrip().startswith("#"):
            directive, key, _, pos = read_directive(line_no, code, _PROGRAM_DIRECTIVES)
            expect_end(code, pos, line_no, "directive")
            if directive == "background":
                background[key] = ORIGIN_BACKGROUND
            else:
                section = directive
        elif section is None:
            raise KbSyntaxError("clause outside #encoder/#decoder section", line_no, 1)
        else:
            sections[section].append(_read_clause(line_no, code))
    # Sections come in either order, so origins are known once all are read.
    latent = {head[1]: ORIGIN_LATENT for head, _, _ in sections[ENCODER]}

    def program(direction: str, head_origins: dict, body_origins: dict) -> LogicProgram:
        clauses = []
        for head, body, connective in sections[direction]:
            literals = tuple(_literal(*l, body_origins) for l in body)
            clauses.append(Clause(_literal(*head, head_origins), literals, connective))
        return LogicProgram(tuple(clauses), direction)

    encoder = program(ENCODER, latent, background)
    decoder = program(DECODER, {}, latent)
    return Alp(encoder, decoder, encoder.head_predicates() | decoder.body_predicates())


def serialize_program(alp: Alp) -> str:
    """Write an Alp in the #encoder/#decoder text format."""
    out = []
    backgrounds = sorted(
        {
            p
            for c in alp.encoder.clauses
            for l in c.body
            if (p := l.predicate).origin == ORIGIN_BACKGROUND
        },
        key=predicate_order,
    )
    for p in backgrounds:
        out.append(f"#background {p.name}/{p.arity}")
    out.append("#encoder")
    out.extend(str(c) for c in alp.encoder.clauses)
    out.append("#decoder")
    out.extend(str(c) for c in alp.decoder.clauses)
    return "\n".join(out) + "\n"
