"""Knowledge bases: ground facts over a vocabulary, plus the fact-file format.

The fact file format is line oriented (UTF-8):

    % a comment runs to the end of the line
    #pred father/2              declare a predicate (optional)
    #mode father(+,-)           argument binding bias, slots from {+,-,?}
    #background male/1          predicate is background knowledge
    father(vader,luke).         a ground fact, terminating period

Predicates not declared with ``#pred`` are inferred from the facts.
Directives apply file-wide regardless of position.  A term is a plain
``str``; one with an uppercase initial is a variable (``is_variable``), as
in Prolog, and variables are illegal in data, so fact arguments are
lowercase constants.  Tokens are separated by spaces and tabs only.  One
regular expression reads a well-formed fact line (``read_fact_line``); every
other line goes to the line reader, which also reads programs
(``alp.logic``) and reports a syntax error's line and column.

A ``KnowledgeBase`` groups its facts' argument rows by predicate once, when
it is built (``rows``, ``background_rows``); evaluation reads those rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .errors import KbSyntaxError

NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

ORIGIN_INPUT = "input"
ORIGIN_LATENT = "latent"
ORIGIN_BACKGROUND = "background"

MODE_BOUND = "+"
MODE_UNBOUND = "-"
MODE_EITHER = "?"
MODE_SLOTS = (MODE_BOUND, MODE_UNBOUND, MODE_EITHER)

_KB_DIRECTIVES = ("pred", "background", "mode")


@dataclass(frozen=True, slots=True)
class Predicate:
    """A predicate symbol ``name/arity``.  Equality and hash are
    ``(name, arity)``: ``origin`` (input, latent or background) records how
    a file declared the symbol, for the checks and writers that read it,
    but ``male/1`` read from a fact file and from a program is one key.
    The hash is computed once, since every row grouping hashes predicates."""

    name: str
    arity: int
    origin: str = field(default=ORIGIN_INPUT, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise ValueError(f"bad predicate name {self.name!r}")
        if self.arity < 0:
            raise ValueError(f"negative arity for {self.name}")
        if self.origin not in (ORIGIN_INPUT, ORIGIN_LATENT, ORIGIN_BACKGROUND):
            raise ValueError(f"unknown origin {self.origin!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"{self.name}/{self.arity}"


def is_variable(term: str) -> bool:
    """A term with an uppercase initial is a variable; any other, a constant."""
    return term[0].isupper()


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground atom asserted true: a predicate applied to constants."""

    predicate: Predicate
    args: tuple[str, ...]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate} applied to {len(self.args)} arguments"
            )

    def __str__(self):
        if not self.args:
            return self.predicate.name
        return f"{self.predicate.name}({','.join(self.args)})"


Row = tuple[str, ...]  # a fact's arguments


def rows_by_predicate(facts: Iterable[Fact]) -> dict[Predicate, list[Row]]:
    """The facts' argument rows grouped by predicate, in the facts' order."""
    rows: dict[Predicate, list[Row]] = {}
    for f in facts:
        rows.setdefault(f.predicate, []).append(f.args)
    return rows


def predicate_order(p: Predicate) -> tuple[str, int]:
    """Sort key of the canonical predicate order: name, then arity."""
    return (p.name, p.arity)


def fact_order(f: Fact) -> tuple:
    """Sort key of the canonical fact order: predicate, then argument symbols."""
    return (f.predicate.name, f.predicate.arity, f.args)


@dataclass(frozen=True, slots=True)
class ModeDeclaration:
    """Per-argument binding bias for body enumeration.

    '+' binds an existing variable, '-' introduces a fresh one, '?' allows
    either.  Undeclared predicates default to all-'?'.
    """

    predicate: Predicate
    slots: tuple[str, ...]

    def __post_init__(self):
        if len(self.slots) != self.predicate.arity:
            raise ValueError(f"mode for {self.predicate} has {len(self.slots)} slots")
        for s in self.slots:
            if s not in MODE_SLOTS:
                raise ValueError(f"bad mode slot {s!r}")


@dataclass(frozen=True)
class KnowledgeBase:
    """An immutable set of ground facts with its vocabulary and constants.

    ``facts`` holds the reconstruction targets; ``background`` holds facts of
    background-origin predicates, which encoders may use but which are never
    reconstructed.  No predicate, by name and arity, has facts in both.

    ``rows`` and ``background_rows`` group the argument rows of ``facts``
    and of ``background`` by predicate, once, for every evaluation to read
    and none to change; being derived, they take no part in equality.
    """

    facts: frozenset[Fact]
    vocabulary: frozenset[Predicate]
    constants: frozenset[str]
    background: frozenset[Fact] = frozenset()
    rows: dict[Predicate, list[Row]] = field(init=False, repr=False, compare=False)
    background_rows: dict[Predicate, list[Row]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = rows_by_predicate(self.facts)
        background_rows = rows_by_predicate(self.background)
        if rows.keys() & background_rows.keys():
            bad = sorted(str(p) for p in rows.keys() & background_rows.keys())
            raise ValueError(f"background predicates appear as facts: {bad}")
        for p, group in chain(rows.items(), background_rows.items()):
            if p not in self.vocabulary:
                raise ValueError(f"fact {Fact(p, group[0])} uses undeclared predicate {p}")
            for args in group:
                for a in args:
                    if a not in self.constants:
                        raise ValueError(f"fact {Fact(p, args)} uses undeclared constant {a}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "background_rows", background_rows)

    @classmethod
    def from_facts(
        cls,
        facts: Iterable[Fact],
        background: Iterable[Fact] = (),
        extra_predicates: Iterable[Predicate] = (),
        extra_constants: Iterable[str] = (),
    ) -> "KnowledgeBase":
        """Build a KB inferring vocabulary and constants from the facts."""
        facts = frozenset(facts)
        background = frozenset(background)
        both = facts | background
        vocab = {f.predicate for f in both}
        vocab.update(extra_predicates)
        constants = {a for f in both for a in f.args}
        constants.update(extra_constants)
        return cls(facts, frozenset(vocab), frozenset(constants), background)

    @property
    def input_predicates(self) -> frozenset[Predicate]:
        return frozenset(
            p for p in self.vocabulary if p.origin != ORIGIN_BACKGROUND
        )


@dataclass(frozen=True)
class KbDocument:
    """A parsed fact file: the knowledge base plus its mode declarations."""

    kb: KnowledgeBase
    modes: dict[Predicate, ModeDeclaration]


# The line reader.  A syntax error gives its line and column, both from 1.
_GAP = re.compile(r"[ \t]*")
_IDENT = re.compile(r"[ \t]*([A-Za-z][A-Za-z0-9_]*)")
_ARITY = re.compile(r"[ \t]*([0-9]+)")
_SLOT = re.compile(r"[ \t]*([-+?])")
# A ground fact line: a lowercase name, optional (constant, ...), then '.'.
_FACT_LINE = re.compile(
    r"[ \t]*([a-z][A-Za-z0-9_]*)[ \t]*"
    r"(?:\(((?:[ \t]*[a-z][A-Za-z0-9_]*[ \t]*,)*[ \t]*[a-z][A-Za-z0-9_]*)[ \t]*\))?"
    r"[ \t]*\.[ \t]*"
)


def code_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text before any '%') of each line that is not blank."""
    codes = (line.split("%", 1)[0] for line in text.splitlines())
    return ((i, code) for i, code in enumerate(codes, start=1) if code.strip())


def next_char(code: str, pos: int) -> tuple[int, str]:
    """Skip spaces and tabs: the next character ('' at the end) and its position."""
    pos = _GAP.match(code, pos).end()
    return pos, code[pos : pos + 1]


def expect(code: str, pos: int, char: str, line_no: int) -> int:
    """The position after ``char``, which must come next."""
    pos, found = next_char(code, pos)
    if found != char:
        raise KbSyntaxError(f"expected {char!r}", line_no, pos + 1)
    return pos + 1


def expect_end(code: str, pos: int, line_no: int, after: str) -> None:
    pos, found = next_char(code, pos)
    if found:
        raise KbSyntaxError(f"trailing characters after {after}", line_no, pos + 1)


def _take(code: str, pos: int, line_no: int, token, message: str) -> tuple[str, int]:
    """The ``token`` that must come next, and the position after it."""
    m = token.match(code, pos)
    if m is None:
        raise KbSyntaxError(message, line_no, next_char(code, pos)[0] + 1)
    return m.group(1), m.end()


def _name(code: str, pos: int, line_no: int) -> tuple[str, int]:
    name, pos = _take(code, pos, line_no, _IDENT, "expected an identifier")
    if is_variable(name):
        message = f"predicate names must be lowercase, got {name!r}"
        raise KbSyntaxError(message, line_no, pos + 1)
    return name, pos


def _items(code: str, pos: int, line_no: int, token, message: str):
    """Read ``(tok,...)`` or ``()``: the tokens and the position after ')'."""
    items = []
    pos, found = next_char(code, expect(code, pos, "(", line_no))
    while found != ")":  # pos is at the first token or at the ',' before one
        item, pos = _take(code, pos + bool(items), line_no, token, message)
        items.append(item)
        pos, found = next_char(code, pos)
        if found not in (",", ")"):
            raise KbSyntaxError("expected ')'", line_no, pos + 1)
    return tuple(items), pos + 1


def read_atom(code: str, pos: int, line_no: int, negatable: bool = False):
    """Read ``[not ]name[(tok,...)]``: (negated, name, tokens, position after)."""
    pos = next_char(code, pos)[0]
    negated = negatable and code.startswith("not ", pos)
    name, pos = _name(code, pos + 4 * negated, line_no)
    if next_char(code, pos)[1] != "(":
        return negated, name, (), pos
    args, pos = _items(code, pos, line_no, _IDENT, "expected an identifier")
    if not args:
        raise KbSyntaxError("expected an identifier", line_no, pos)  # at the ')'
    return negated, name, args, pos


def read_fact_line(code: str) -> tuple[str, tuple[str, ...]] | None:
    """(name, constants) of a well-formed ground fact line, or None for any
    other line, which the line reader then reads or rejects."""
    m = _FACT_LINE.fullmatch(code)
    if m is None:
        return None
    name, args = m.groups()
    return name, tuple(_IDENT.findall(args)) if args else ()


def read_directive(line_no: int, code: str, allowed: tuple[str, ...]):
    """Read a ``#`` line: (directive, (name, arity), mode slots, position after)."""
    pos = expect(code, 0, "#", line_no)
    directive, pos = _take(code, pos, line_no, _IDENT, "expected an identifier")
    if directive not in allowed:
        raise KbSyntaxError(f"unknown directive #{directive}", line_no, pos + 1)
    if directive in ("encoder", "decoder"):
        return directive, None, None, pos
    name, pos = _name(code, pos, line_no)
    if directive == "mode":
        message = f"mode slots must be one of {MODE_SLOTS}"
        slots, pos = _items(code, pos, line_no, _SLOT, message)
        return directive, (name, len(slots)), slots, pos
    pos = expect(code, pos, "/", line_no)
    arity, pos = _take(code, pos, line_no, _ARITY, "expected an arity")
    return directive, (name, int(arity)), None, pos


def parse_kb_document(text: str) -> KbDocument:
    """Parse a fact file into a knowledge base and its mode declarations."""
    declared: dict[tuple[str, int], str] = {}  # (name, arity) -> origin
    first_arity: dict[str, int] = {}  # by name, from the first directive
    mode_slots: dict[tuple[str, int], tuple[str, ...]] = {}
    rows: list[tuple[int, str, tuple[str, ...]]] = []  # (line, name, args)
    for line_no, code in code_lines(text):
        fact = read_fact_line(code)
        if fact is not None:
            rows.append((line_no, *fact))
            continue
        if code.lstrip().startswith("#"):
            directive, key, slots, pos = read_directive(line_no, code, _KB_DIRECTIVES)
            expect_end(code, pos, line_no, "directive")
            kept = declared.get(key, ORIGIN_INPUT)
            declared[key] = ORIGIN_BACKGROUND if directive == "background" else kept
            if slots is not None:
                mode_slots[key] = slots
            first_arity.setdefault(*key)
            continue
        _, name, args, pos = read_atom(code, 0, line_no)
        expect_end(code, expect(code, pos, ".", line_no), line_no, "fact")
        for token in args:
            if is_variable(token):
                message = f"variable {token!r} in a fact (data must be ground)"
                raise KbSyntaxError(message, line_no, 1)
        rows.append((line_no, name, args))

    # Directives apply file-wide, so facts are resolved once all are read.
    predicates = {key: Predicate(*key, origin) for key, origin in declared.items()}
    constants = {t: t for _, _, args in rows for t in args}  # one str per symbol
    facts: dict[str, set[Fact]] = {ORIGIN_INPUT: set(), ORIGIN_BACKGROUND: set()}
    for line_no, name, args in rows:
        key = (name, len(args))
        if key not in predicates:
            if name in first_arity:
                message = f"{name}/{len(args)} conflicts with declared"
                raise KbSyntaxError(f"{message} {name}/{first_arity[name]}", line_no, 1)
            predicates[key] = Predicate(*key)
        fact = Fact(predicates[key], tuple(map(constants.__getitem__, args)))
        facts[fact.predicate.origin].add(fact)
    kb = KnowledgeBase.from_facts(
        facts[ORIGIN_INPUT], facts[ORIGIN_BACKGROUND], predicates.values()
    )
    modes = (ModeDeclaration(predicates[k], s) for k, s in mode_slots.items())
    return KbDocument(kb, {mode.predicate: mode for mode in modes})


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a fact file; see the module docstring for the format."""
    return parse_kb_document(text).kb


def serialize_kb(kb: KnowledgeBase, modes: dict[Predicate, ModeDeclaration] | None = None) -> str:
    """Write a KB back to fact-file text.

    Facts are sorted by predicate name then argument tuple, one per line, so
    output is canonical; parse(serialize(kb)) reproduces kb exactly.
    """
    out = []
    for p in sorted(kb.vocabulary, key=predicate_order):
        if p.origin == ORIGIN_BACKGROUND:
            out.append(f"#background {p.name}/{p.arity}")
        else:
            out.append(f"#pred {p.name}/{p.arity}")
    if modes:
        for p in sorted(modes, key=predicate_order):
            out.append(f"#mode {p.name}({','.join(modes[p].slots)})")
    for f in sorted(kb.facts | kb.background, key=fact_order):
        out.append(f"{f}.")
    return "\n".join(out) + ("\n" if out else "")


def avg_facts_per_predicate(kb: KnowledgeBase) -> Fraction:
    """Average number of facts per non-background predicate, exact.

    Raises ZeroDivisionError when the vocabulary has no such predicate.
    """
    return Fraction(len(kb.facts), len(kb.input_predicates))
