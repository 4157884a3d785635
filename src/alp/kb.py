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
lowercase constants.  Tokens are separated by spaces and tabs only.

A document is read in one regular-expression pass (``_LINE``), one match
per ``"\n"``-terminated stretch: a well-formed fact line, a blank line or a
comment line is read there; every other stretch, a directive, a malformed
line or one holding another of ``str.splitlines``' line breaks, goes with
its line number to the line reader, which also reads programs
(``alp.logic``) and reports a syntax error's line and column.

A ``Predicate`` is the tuple ``(name, arity)`` and a ``Fact`` the tuple
``(predicate, args)``, so their own order is the canonical order.  A
``KnowledgeBase`` holds which predicates are background ones, and groups
its facts' argument rows by predicate once, when it is built (``rows``,
``background_rows``); evaluation reads those rows.
"""

from __future__ import annotations

import gc
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain

from .errors import KbSyntaxError

NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

MODE_BOUND = "+"
MODE_UNBOUND = "-"
MODE_EITHER = "?"
MODE_SLOTS = (MODE_BOUND, MODE_UNBOUND, MODE_EITHER)

_KB_DIRECTIVES = ("pred", "background", "mode")


def checked_namedtuple(typename: str, field_names: str, defaults: tuple = ()):
    """A ``namedtuple`` type whose ``_make``, and so ``_replace``, builds
    through the subclass's ``__new__``, which checks the fields."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class Record:
    """A plain class compared, hashed and shown by the fields in
    ``_fields``, in order: equal only to an instance of its own class with
    equal fields, hashed as the tuple of those fields and shown as
    ``Name(field=value, ...)``; its other attributes take no part.  Only
    ``KnowledgeBase`` and ``CandidateClause`` are ``Record``s: they attach
    such attributes, a KB tuple's ``len`` and iteration would read its
    fields, not its facts, and a tuple subclass with a per-instance dict
    raised Fig. 1's peak RSS by about 0.35 MB across its candidates."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


class Predicate(namedtuple("Predicate", "name arity")):
    """A predicate symbol ``name/arity``: the immutable tuple ``(name,
    arity)``, built, compared and hashed in C.  ``Predicate(name, arity)``
    checks both."""

    __slots__ = ()

    def __new__(cls, name: str, arity: int):
        if not NAME_RE.match(name):
            raise ValueError(f"bad predicate name {name!r}")
        if arity < 0:
            raise ValueError(f"negative arity for {name}")
        return tuple.__new__(cls, (name, arity))

    def __str__(self):
        return f"{self[0]}/{self[1]}"


def is_variable(term: str) -> bool:
    """A term with an uppercase initial is a variable; any other, a constant."""
    return term[0].isupper()


class Fact(namedtuple("Fact", "predicate args")):
    """A ground atom asserted true: the immutable tuple ``(predicate, args)``
    of a ``Predicate`` and its constants, built and hashed in C as a plain
    tuple.  ``Fact(p, args)`` checks the arity; ``Fact._make((p, args))``
    skips it, in C, for callers that guarantee the arity and say how."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)

    def __new__(cls, predicate: Predicate, args: tuple[str, ...]):
        if len(args) != predicate.arity:
            raise ValueError(f"{predicate} applied to {len(args)} arguments")
        return tuple.__new__(cls, (predicate, args))

    def __str__(self):
        predicate, args = self
        return f"{predicate.name}({','.join(args)})" if args else predicate.name


Row = tuple[str, ...]  # a fact's arguments


class GcPaused:
    """``with GcPaused():`` disables the cyclic garbage collector for its
    block and enables it after only if it was enabled before, so pauses
    nest.  Bulk builds of ``Fact``s run under it: they hold no reference
    cycle, so a collection during one finds no garbage."""

    __slots__ = ("enabled",)

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.enabled:
            gc.enable()


def rows_by_predicate(facts: Iterable[Fact]) -> dict[Predicate, list[Row]]:
    """The facts' argument rows grouped by predicate, in the facts' order."""
    rows: dict[Predicate, list[Row]] = {}
    for predicate, args in facts:
        rows.setdefault(predicate, []).append(args)
    return rows


class ModeDeclaration(checked_namedtuple("ModeDeclaration", "predicate slots")):
    """Per-argument binding bias for body enumeration.

    '+' binds an existing variable, '-' introduces a fresh one, '?' allows
    either.  Undeclared predicates default to all-'?'.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.slots) != self.predicate.arity:
            raise ValueError(f"mode for {self.predicate} has {len(self.slots)} slots")
        for s in self.slots:
            if s not in MODE_SLOTS:
                raise ValueError(f"bad mode slot {s!r}")
        return self


class KnowledgeBase(Record):
    """An immutable set of ground facts with its vocabulary.

    ``facts`` holds the reconstruction targets and ``background`` the facts
    of ``background_predicates``, which encoders may use but which are never
    reconstructed; a background predicate may have no facts.  None has facts
    in ``facts``, and the other predicates of the vocabulary are the inputs.

    ``rows`` and ``background_rows`` group the argument rows of ``facts``
    and of ``background`` by predicate, once, for every evaluation to read
    and none to change; being derived, they take no part in equality.  A
    changed KB is a new one: ``KnowledgeBase(facts, kb.vocabulary, ...)``.
    """

    _fields = ("facts", "vocabulary", "background", "background_predicates")
    __slots__ = (*_fields, "rows", "background_rows")

    def __init__(
        self,
        facts: frozenset[Fact],
        vocabulary: frozenset[Predicate],
        background: frozenset[Fact] = frozenset(),
        background_predicates: frozenset[Predicate] = frozenset(),
    ):
        rows = rows_by_predicate(facts)
        background_rows = rows_by_predicate(background)
        background_predicates = background_predicates.union(background_rows)
        if rows.keys() & background_predicates:
            bad = sorted(str(p) for p in rows.keys() & background_predicates)
            raise ValueError(f"background predicates appear as facts: {bad}")
        for p, group in chain(rows.items(), background_rows.items()):
            if p not in vocabulary:
                raise ValueError(f"fact {Fact(p, group[0])} uses undeclared predicate {p}")
        self.facts, self.vocabulary = facts, vocabulary
        self.background, self.background_predicates = background, background_predicates
        self.rows, self.background_rows = rows, background_rows

    @classmethod
    def from_facts(cls, facts: Iterable[Fact], background: Iterable[Fact] = ()) -> "KnowledgeBase":
        """Build a KB whose vocabulary is the predicates of its facts and
        background facts."""
        facts = frozenset(facts)
        background = frozenset(background)
        return cls(facts, frozenset(p for p, _ in chain(facts, background)), background)

    @property
    def input_predicates(self) -> frozenset[Predicate]:
        return self.vocabulary - self.background_predicates


class KbDocument(namedtuple("KbDocument", "kb modes")):
    """A parsed fact file: the knowledge base plus its mode declarations
    (a ``dict[Predicate, ModeDeclaration]``)."""

    __slots__ = ()


# The line reader.  A syntax error gives its line and column, both from 1.
_GAP = re.compile(r"[ \t]*")
_IDENT = re.compile(r"[ \t]*([A-Za-z][A-Za-z0-9_]*)")
_ARITY = re.compile(r"[ \t]*([0-9]+)")
_SLOT = re.compile(r"[ \t]*([-+?])")
# The document reader's one pattern, matched once per "\n"-terminated stretch
# (re.M).  A ground fact line (a lowercase name, optional (constant, ...),
# then '.'), a blank line or a comment line matches the first alternative,
# with at most a '\r' of a "\r\n" line end left over; any other stretch is
# caught whole by the second, for the line reader.
_NAME = "[a-z][A-Za-z0-9_]*"
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # line breaks besides "\n"
_LINE = re.compile(
    rf"^[ \t]*(?:({_NAME})[ \t]*(?:\(([ \t]*{_NAME}[ \t]*(?:,[ \t]*{_NAME}[ \t]*)*)\))?"
    rf"[ \t]*\.[ \t]*)?(?:%[^\n{_BREAKS}]*)?\r?$|^(.*)$",
    re.M,
)


def code_lines(text: str, first: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, text before any '%') of each line that is not blank,
    the lines of ``text`` numbered from ``first``."""
    codes = (line.split("%", 1)[0] for line in text.splitlines())
    return ((i, code) for i, code in enumerate(codes, start=first) if code.strip())


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
    """Parse a fact file into a knowledge base and its mode declarations.
    Facts are built unchecked: a predicate is keyed by (name, len(args))."""
    predicates: dict[tuple[str, int], Predicate] = {}  # declared, then used
    background: set[Predicate] = set()
    first_arity: dict[str, int] = {}  # by name, from the first directive
    mode_slots: dict[tuple[str, int], tuple[str, ...]] = {}
    lines: list[int] = []  # each fact's line, name and arguments, in order
    names: list[str] = []
    rows: list[Row] = []
    constants: dict[str, str] = {}  # one str per symbol
    constant = constants.setdefault
    line_no = 0
    for name, args, other in _LINE.findall(text):
        line_no += 1
        if name:  # a fact line, maybe with spaces and tabs around its arguments
            args = args.replace(" ", "").replace("\t", "").split(",") if args else ()
            lines.append(line_no)
            names.append(name)
            rows.append(tuple(map(constant, args, args)))
            continue
        if not other:  # a blank or comment line
            continue
        for at, code in code_lines(other, line_no):
            if code.lstrip().startswith("#"):
                directive, key, slots, pos = read_directive(at, code, _KB_DIRECTIVES)
                expect_end(code, pos, at, "directive")
                predicate = predicates.setdefault(key, Predicate(*key))
                if directive == "background":
                    background.add(predicate)
                if slots is not None:
                    mode_slots[key] = slots
                first_arity.setdefault(*key)
                continue
            _, name, args, pos = read_atom(code, 0, at)
            expect_end(code, expect(code, pos, ".", at), at, "fact")
            for token in args:
                if is_variable(token):
                    message = f"variable {token!r} in a fact (data must be ground)"
                    raise KbSyntaxError(message, at, 1)
            lines.append(at)
            names.append(name)
            rows.append(tuple(map(constant, args, args)))
        line_no += len((other + "\n").splitlines()) - 1  # the lines the stretch holds

    # Directives apply file-wide, so facts are resolved once all are read.
    with GcPaused():
        keys = list(zip(names, map(len, rows)))
        for key in dict.fromkeys(keys):  # in order of first use
            if key not in predicates:
                name = key[0]
                if name in first_arity:
                    message = f"{name}/{key[1]} conflicts with declared"
                    line_no = lines[keys.index(key)]
                    raise KbSyntaxError(f"{message} {name}/{first_arity[name]}", line_no, 1)
                predicates[key] = Predicate(*key)
        made = map(Fact._make, zip(map(predicates.__getitem__, keys), rows))
        facts: set[Fact] = set()
        background_facts: set[Fact] = set()
        if background:
            for fact in made:
                (background_facts if fact.predicate in background else facts).add(fact)
        else:
            facts.update(made)
        kb = KnowledgeBase(
            frozenset(facts), frozenset(predicates.values()),
            frozenset(background_facts), frozenset(background),
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
    for p in sorted(kb.vocabulary):
        directive = "background" if p in kb.background_predicates else "pred"
        out.append(f"#{directive} {p}")
    if modes:
        for p in sorted(modes):
            out.append(f"#mode {p.name}({','.join(modes[p].slots)})")
    for f in sorted(kb.facts | kb.background):
        out.append(f"{f}.")
    return "\n".join(out) + ("\n" if out else "")


def avg_facts_per_predicate(kb: KnowledgeBase) -> Fraction:
    """Average number of facts per non-background predicate, exact.

    Raises ZeroDivisionError when the vocabulary has no such predicate.
    """
    return Fraction(len(kb.facts), len(kb.input_predicates))
