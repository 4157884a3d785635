"""Clauses, logic programs, and their bottom-up evaluation.

Evaluation is a per-clause nested-loop join over per-predicate hash indexes
keyed by the bound argument positions.  Programs here are non-recursive, so
one bottom-up pass reaches the fixpoint.  Negated body literals are handled
under the closed-world assumption: the literal holds when the ground atom is
absent from the fact set.

Program text format, round-trippable through the parser:

    #encoder
    latent_1(X,Y) :- mother(X,Y);father(X,Y).
    #decoder
    mother(X,Y) :- latent_1(X,Y).

Conjunctive bodies join literals with ',', disjunctive bodies with ';'.
A ``#background p/n`` line marks p as background knowledge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Union

from .errors import KbSyntaxError
from .kb import (
    Constant,
    Fact,
    KnowledgeBase,
    ORIGIN_BACKGROUND,
    ORIGIN_INPUT,
    ORIGIN_LATENT,
    Predicate,
    _LineParser,
    _parse_pred_ref,
)

VAR_RE = re.compile(r"[A-Z][a-zA-Z0-9_]*\Z")

CONJUNCTION = "conjunction"
DISJUNCTION = "disjunction"

ENCODER = "encoder"
DECODER = "decoder"

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
    """Hash indexes over a fact set, built lazily per bound-position pattern."""

    def __init__(self, facts: Iterable[Fact]):
        self.by_pred: dict[Predicate, list[tuple[Constant, ...]]] = {}
        for f in facts:
            self.by_pred.setdefault(f.predicate, []).append(f.args)
        self._indexes: dict = {}

    def match(
        self, predicate: Predicate, pattern: tuple[Constant | None, ...]
    ) -> list[tuple[Constant, ...]]:
        """All stored tuples agreeing with the pattern (None = free slot)."""
        bound = tuple(i for i, v in enumerate(pattern) if v is not None)
        index = self._index(predicate, bound)
        key = tuple(pattern[i] for i in bound)
        return index.get(key, [])

    def _index(self, predicate: Predicate, bound: tuple[int, ...]):
        key = (predicate, bound)
        cached = self._indexes.get(key)
        if cached is None:
            cached = {}
            for args in self.by_pred.get(predicate, ()):
                cached.setdefault(tuple(args[i] for i in bound), []).append(args)
            self._indexes[key] = cached
        return cached


def _instantiate(literal: Literal, subst: dict[Variable, Constant]) -> Fact:
    args = tuple(
        subst[a] if isinstance(a, Variable) else a for a in literal.args
    )
    return Fact(literal.predicate, args)


def _join(
    literals: tuple[Literal, ...],
    store: FactStore,
    subst: dict[Variable, Constant],
    out: list[dict[Variable, Constant]],
):
    if not literals:
        out.append(dict(subst))
        return
    lit, rest = literals[0], literals[1:]
    if lit.negated:
        # Safety guarantees all variables are bound by now.
        if not store.match(lit.predicate, _instantiate(lit, subst).args):
            _join(rest, store, subst, out)
        return
    pattern = tuple(
        subst.get(a) if isinstance(a, Variable) else a for a in lit.args
    )
    for args in store.match(lit.predicate, pattern):
        bound: list[Variable] = []
        ok = True
        for a, value in zip(lit.args, args):
            if isinstance(a, Variable):
                seen = subst.get(a)
                if seen is None:
                    subst[a] = value
                    bound.append(a)
                elif seen != value:
                    # Repeated variable in this literal bound inconsistently.
                    ok = False
                    break
        if ok:
            _join(rest, store, subst, out)
        for v in bound:
            del subst[v]


def body_substitutions(
    body: tuple[Literal, ...], connective: str, store: FactStore
) -> Iterator[dict[Variable, Constant]]:
    """Every substitution of the body's variables that satisfies the body.

    A conjunction needs one substitution satisfying all literals, with the
    negated ones evaluated last so their variables are bound; a disjunction
    yields the substitutions of each disjunct in turn, so only one
    disjunct's are held at a time.
    """
    if connective == DISJUNCTION:
        joins = [(lit,) for lit in body]
    else:  # a stable sort keeps the literals' order within each group
        joins = [tuple(sorted(body, key=lambda l: l.negated))]
    for literals in joins:
        out: list[dict[Variable, Constant]] = []
        _join(literals, store, {}, out)
        yield from out


def ground_consequences(
    clause: Clause, facts: Iterable[Fact] | FactStore
) -> frozenset[Fact]:
    """Every ground head instance whose body is satisfied by the facts."""
    store = facts if isinstance(facts, FactStore) else FactStore(facts)
    return frozenset(
        _instantiate(clause.head, s)
        for s in body_substitutions(clause.body, clause.body_connective, store)
    )


def apply_program(
    program: LogicProgram, facts: Iterable[Fact] | FactStore
) -> frozenset[Fact]:
    """One bottom-up pass: the union of all clause consequences.  A body
    predicate absent from the facts contributes no consequences."""
    store = facts if isinstance(facts, FactStore) else FactStore(facts)
    out: set[Fact] = set()
    for clause in program.clauses:
        out.update(ground_consequences(clause, store))
    return frozenset(out)


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


def _parse_literal_text(p: _LineParser, origin_for: dict[str, str]) -> Literal:
    negated = False
    p.skip_ws()
    if p.text[p.pos : p.pos + 4] == "not ":
        negated = True
        p.pos += 4
    name, arg_tokens = p.atom()
    args: list[Term] = []
    for tok in arg_tokens:
        if tok[0].isupper():
            args.append(Variable(tok))
        else:
            args.append(Constant(tok))
    origin = origin_for.get(name, ORIGIN_INPUT)
    pred = Predicate(name, len(arg_tokens), origin)
    return Literal(pred, tuple(args), negated)


def parse_program(text: str) -> Alp:
    """Parse ``#encoder`` / ``#decoder`` sections into an Alp.

    Head predicates of encoder clauses become the latent vocabulary; the
    decoder may only reference those latents in clause bodies.
    """
    section = None
    background: set[tuple[str, int]] = set()
    encoder_lines: list[tuple[int, str]] = []
    decoder_lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            p = _LineParser(raw.split("%", 1)[0], i)
            p.expect("#")
            directive = p.token()
            if directive == "encoder":
                section = ENCODER
            elif directive == "decoder":
                section = DECODER
            elif directive == "background":
                background.add(_parse_pred_ref(p))
            else:
                p.error(f"unknown directive #{directive}")
            continue
        if section == ENCODER:
            encoder_lines.append((i, raw.split("%", 1)[0]))
        elif section == DECODER:
            decoder_lines.append((i, raw.split("%", 1)[0]))
        else:
            raise KbSyntaxError("clause outside #encoder/#decoder section", i, 1)

    latent_names: set[str] = set()
    for i, line in encoder_lines:
        head_text = line.split(":-", 1)[0]
        p = _LineParser(head_text, i)
        name, _ = p.atom()
        latent_names.add(name)

    def parse_clause(i: int, line: str, head_origin: str, body_origins: dict) -> Clause:
        if ":-" not in line:
            raise KbSyntaxError("expected ':-' in clause", i, 1)
        head_text, body_text = line.split(":-", 1)
        p = _LineParser(head_text, i)
        parsed = _parse_literal_text(p, {})
        head = Literal(
            Predicate(parsed.predicate.name, parsed.predicate.arity, head_origin),
            parsed.args,
        )
        if not p.at_end():
            p.error("trailing characters after clause head")
        body_text = body_text.strip()
        if not body_text.endswith("."):
            raise KbSyntaxError("clause must end with '.'", i, len(line))
        body_text = body_text[:-1]
        parts = _split_top_level(body_text, ";")
        if len(parts) > 1:
            connective = DISJUNCTION
        else:
            connective, parts = CONJUNCTION, _split_top_level(body_text, ",")
        literals = []
        for part in parts:
            lp = _LineParser(part, i)
            literals.append(_parse_literal_text(lp, body_origins))
            if not lp.at_end():
                lp.error("trailing characters after literal")
        return Clause(head, tuple(literals), connective)

    enc_body_origins = {name: ORIGIN_BACKGROUND for name, _ in background}
    dec_body_origins = {name: ORIGIN_LATENT for name in latent_names}

    encoder_clauses = [
        parse_clause(i, line, ORIGIN_LATENT, enc_body_origins)
        for i, line in encoder_lines
    ]
    decoder_clauses = [
        parse_clause(i, line, ORIGIN_INPUT, dec_body_origins)
        for i, line in decoder_lines
    ]
    encoder = LogicProgram(tuple(encoder_clauses), ENCODER)
    decoder = LogicProgram(tuple(decoder_clauses), DECODER)
    latents = encoder.head_predicates() | decoder.body_predicates()
    return Alp(encoder, decoder, frozenset(latents))


def _split_top_level(text: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


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
        key=lambda p: (p.name, p.arity),
    )
    for p in backgrounds:
        out.append(f"#background {p.name}/{p.arity}")
    out.append("#encoder")
    out.extend(str(c) for c in alp.encoder.clauses)
    out.append("#decoder")
    out.extend(str(c) for c in alp.decoder.clauses)
    return "\n".join(out) + "\n"
