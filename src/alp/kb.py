"""Knowledge bases: ground facts over a vocabulary, plus the fact-file format.

The fact file format is line oriented (UTF-8):

    % a comment runs to the end of the line
    #pred father/2              declare a predicate (optional)
    #mode father(+,-)           argument binding bias, slots from {+,-,?}
    #background male/1          predicate is background knowledge
    father(vader,luke).         a ground fact, terminating period

Predicates not declared with ``#pred`` are inferred from the facts.
Directives apply file-wide regardless of position.  Arguments must be
lowercase constant tokens: an uppercase initial means a variable, and
variables are illegal in data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CapacityError, KbSyntaxError

NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

ORIGIN_INPUT = "input"
ORIGIN_LATENT = "latent"
ORIGIN_BACKGROUND = "background"

MODE_BOUND = "+"
MODE_UNBOUND = "-"
MODE_EITHER = "?"
MODE_SLOTS = (MODE_BOUND, MODE_UNBOUND, MODE_EITHER)

DEFAULT_HERBRAND_CEILING = 1_000_000


@dataclass(frozen=True, slots=True)
class Predicate:
    """A predicate symbol, identified by (name, arity) within one vocabulary."""

    name: str
    arity: int
    origin: str = ORIGIN_INPUT

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise ValueError(f"bad predicate name {self.name!r}")
        if self.arity < 0:
            raise ValueError(f"negative arity for {self.name}")
        if self.origin not in (ORIGIN_INPUT, ORIGIN_LATENT, ORIGIN_BACKGROUND):
            raise ValueError(f"unknown origin {self.origin!r}")

    def __str__(self):
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Constant:
    """An entity symbol; equality is exact string equality."""

    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("empty constant symbol")

    def __str__(self):
        return self.symbol


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground atom asserted true: a predicate applied to constants."""

    predicate: Predicate
    args: tuple[Constant, ...]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate} applied to {len(self.args)} arguments"
            )

    def __str__(self):
        if not self.args:
            return self.predicate.name
        return f"{self.predicate.name}({','.join(a.symbol for a in self.args)})"


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

    @classmethod
    def all_either(cls, predicate: Predicate) -> "ModeDeclaration":
        return cls(predicate, (MODE_EITHER,) * predicate.arity)


@dataclass(frozen=True)
class KnowledgeBase:
    """An immutable set of ground facts with its vocabulary and constants.

    ``facts`` holds the reconstruction targets; ``background`` holds facts of
    background-origin predicates, which encoders may use but which are never
    reconstructed.
    """

    facts: frozenset[Fact]
    vocabulary: frozenset[Predicate]
    constants: frozenset[Constant]
    background: frozenset[Fact] = frozenset()

    def __post_init__(self):
        background_preds = {f.predicate for f in self.background}
        fact_preds = {f.predicate for f in self.facts}
        if background_preds & fact_preds:
            bad = sorted(str(p) for p in background_preds & fact_preds)
            raise ValueError(f"background predicates appear as facts: {bad}")
        for f in self.facts | self.background:
            if f.predicate not in self.vocabulary:
                raise ValueError(f"fact {f} uses undeclared predicate {f.predicate}")
            for a in f.args:
                if a not in self.constants:
                    raise ValueError(f"fact {f} uses undeclared constant {a}")

    @classmethod
    def from_facts(
        cls,
        facts: Iterable[Fact],
        background: Iterable[Fact] = (),
        extra_predicates: Iterable[Predicate] = (),
        extra_constants: Iterable[Constant] = (),
    ) -> "KnowledgeBase":
        """Build a KB inferring vocabulary and constants from the facts."""
        facts = frozenset(facts)
        background = frozenset(background)
        vocab = {f.predicate for f in facts | background}
        vocab.update(extra_predicates)
        constants = {a for f in facts | background for a in f.args}
        constants.update(extra_constants)
        return cls(facts, frozenset(vocab), frozenset(constants), background)

    @property
    def input_predicates(self) -> frozenset[Predicate]:
        return frozenset(
            p for p in self.vocabulary if p.origin != ORIGIN_BACKGROUND
        )

    @property
    def background_predicates(self) -> frozenset[Predicate]:
        return frozenset(
            p for p in self.vocabulary if p.origin == ORIGIN_BACKGROUND
        )


@dataclass(frozen=True)
class KbDocument:
    """A parsed fact file: the knowledge base plus its mode declarations."""

    kb: KnowledgeBase
    modes: dict[Predicate, ModeDeclaration]


class _LineParser:
    """Splits one source line into a term; tracks columns for errors."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def error(self, message: str):
        raise KbSyntaxError(message, self.line_no, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def token(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z][A-Za-z0-9_]*", self.text[self.pos :])
        if not m:
            self.error("expected an identifier")
        self.pos += m.end()
        return m.group(0)

    def atom(self) -> tuple[str, tuple[str, ...]]:
        """Parse ``name`` or ``name(tok,...)``; returns (name, arg tokens)."""
        name = self.token()
        if not NAME_RE.match(name):
            self.error(f"predicate names must be lowercase, got {name!r}")
        if self.peek() != "(":
            return name, ()
        self.expect("(")
        args = [self.token()]
        while self.peek() == ",":
            self.expect(",")
            args.append(self.token())
        self.expect(")")
        return name, tuple(args)


def _parse_pred_ref(p: _LineParser) -> tuple[str, int]:
    name = p.token()
    if not NAME_RE.match(name):
        p.error(f"predicate names must be lowercase, got {name!r}")
    p.expect("/")
    p.skip_ws()
    m = re.match(r"[0-9]+", p.text[p.pos :])
    if not m:
        p.error("expected an arity")
    p.pos += m.end()
    return name, int(m.group(0))


def parse_kb_document(text: str) -> KbDocument:
    """Parse a fact file into a knowledge base and its mode declarations."""
    lines = text.splitlines()

    declared: dict[tuple[str, int], str] = {}  # (name, arity) -> origin
    mode_slots: dict[tuple[str, int], tuple[str, ...]] = {}

    # First pass: directives (they apply file-wide regardless of position).
    for i, raw in enumerate(lines, start=1):
        line = raw.split("%", 1)[0].strip()
        if not line.startswith("#"):
            continue
        p = _LineParser(raw.split("%", 1)[0], i)
        p.expect("#")
        directive = p.token()
        if directive == "pred":
            name, arity = _parse_pred_ref(p)
            declared.setdefault((name, arity), ORIGIN_INPUT)
        elif directive == "background":
            name, arity = _parse_pred_ref(p)
            declared[(name, arity)] = ORIGIN_BACKGROUND
        elif directive == "mode":
            name = p.token()
            p.expect("(")
            slots = []
            if p.peek() != ")":
                while True:
                    ch = p.peek()
                    if ch not in MODE_SLOTS:
                        p.error(f"mode slots must be one of {MODE_SLOTS}")
                    p.pos += 1
                    slots.append(ch)
                    if p.peek() != ",":
                        break
                    p.expect(",")
            p.expect(")")
            key = (name, len(slots))
            mode_slots[key] = tuple(slots)
            declared.setdefault(key, ORIGIN_INPUT)
        else:
            p.error(f"unknown directive #{directive}")
        if not p.at_end():
            p.error("trailing characters after directive")

    def resolve(name: str, arity: int) -> Predicate:
        origin = declared.get((name, arity), ORIGIN_INPUT)
        return Predicate(name, arity, origin)

    facts: set[Fact] = set()
    background: set[Fact] = set()

    # Second pass: facts.
    for i, raw in enumerate(lines, start=1):
        stripped = raw.split("%", 1)[0]
        if not stripped.strip() or stripped.strip().startswith("#"):
            continue
        p = _LineParser(stripped, i)
        name, arg_tokens = p.atom()
        p.expect(".")
        if not p.at_end():
            p.error("trailing characters after fact")
        for tok in arg_tokens:
            if tok[0].isupper():
                raise KbSyntaxError(
                    f"variable {tok!r} in a fact (data must be ground)", i, 1
                )
        arity = len(arg_tokens)
        for (dname, darity) in declared:
            if dname == name and darity != arity and (name, arity) not in declared:
                raise KbSyntaxError(
                    f"{name}/{arity} conflicts with declared {dname}/{darity}",
                    i,
                    1,
                )
        pred = resolve(name, arity)
        fact = Fact(pred, tuple(Constant(t) for t in arg_tokens))
        if pred.origin == ORIGIN_BACKGROUND:
            background.add(fact)
        else:
            facts.add(fact)

    vocab = {resolve(name, arity) for (name, arity) in declared}
    vocab.update(f.predicate for f in facts | background)
    constants = {a for f in facts | background for a in f.args}

    kb = KnowledgeBase(
        frozenset(facts), frozenset(vocab), frozenset(constants), frozenset(background)
    )
    modes = {
        resolve(name, arity): ModeDeclaration(resolve(name, arity), slots)
        for (name, arity), slots in mode_slots.items()
    }
    return KbDocument(kb, modes)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a fact file; see the module docstring for the format."""
    return parse_kb_document(text).kb


def serialize_kb(kb: KnowledgeBase, modes: dict[Predicate, ModeDeclaration] | None = None) -> str:
    """Write a KB back to fact-file text.

    Facts are sorted by predicate name then argument tuple, one per line, so
    output is canonical; parse(serialize(kb)) reproduces kb exactly.
    """
    out = []
    for p in sorted(kb.vocabulary, key=lambda p: (p.name, p.arity)):
        if p.origin == ORIGIN_BACKGROUND:
            out.append(f"#background {p.name}/{p.arity}")
        else:
            out.append(f"#pred {p.name}/{p.arity}")
    if modes:
        for p in sorted(modes, key=lambda p: (p.name, p.arity)):
            out.append(f"#mode {p.name}({','.join(modes[p].slots)})")
    for f in sorted(
        kb.facts | kb.background,
        key=lambda f: (f.predicate.name, f.predicate.arity, tuple(a.symbol for a in f.args)),
    ):
        out.append(f"{f}.")
    return "\n".join(out) + ("\n" if out else "")


def herbrand_base(
    vocabulary: Iterable[Predicate],
    constants: Iterable[Constant],
    ceiling: int = DEFAULT_HERBRAND_CEILING,
) -> frozenset[Fact]:
    """All ground atoms over the vocabulary and constants.

    The result has exactly sum(|C|^arity) atoms, which grows fast; a
    CapacityError guards against accidental blowups.  Intended for
    desk-scale instances and test oracles.
    """
    preds = sorted(set(vocabulary), key=lambda p: (p.name, p.arity))
    consts = sorted(set(constants), key=lambda c: c.symbol)
    size = sum(len(consts) ** p.arity for p in preds)
    if size > ceiling:
        raise CapacityError(f"Herbrand base has {size} atoms, ceiling {ceiling}")
    atoms = set()
    for p in preds:
        atoms.update(Fact(p, args) for args in _tuples(consts, p.arity))
    return frozenset(atoms)


def _tuples(consts: list[Constant], n: int) -> Iterator[tuple[Constant, ...]]:
    if n == 0:
        yield ()
        return
    for prefix in _tuples(consts, n - 1):
        for c in consts:
            yield prefix + (c,)


def avg_facts_per_predicate(kb: KnowledgeBase) -> Fraction:
    """Average number of facts per non-background predicate, exact.

    Raises ZeroDivisionError when the vocabulary has no such predicate.
    """
    return Fraction(len(kb.facts), len(kb.input_predicates))
