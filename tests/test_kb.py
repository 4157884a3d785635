"""Knowledge base parsing, serialization, Herbrand base, fact statistics."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from alp.candidates import GenerationConfig
from alp.errors import CapacityError, KbSyntaxError
from alp.kb import (
    Fact,
    KnowledgeBase,
    ModeDeclaration,
    Predicate,
    avg_facts_per_predicate,
    expect,
    expect_end,
    is_variable,
    parse_kb,
    parse_kb_document,
    read_atom,
    serialize_kb,
)
from alp.logic import (
    apply_program,
    encode,
    ground_consequences,
    loss_by_predicate,
    parse_program,
    reconstruct,
)
from alp.pipeline import prepare_pool
from helpers import (
    FIG1_TEXT,
    fact,
    fig1_kb,
    herbrand_base,
    load_workloads,
    pred,
    random_kb,
    random_kb_and_pool,
    read_document_by_lines,
)


class TestParse:
    def test_single_fact(self):
        kb = parse_kb("father(vader,luke).")
        assert kb.facts == {fact(pred("father", 2), "vader", "luke")}
        assert {p.name for p in kb.vocabulary} == {"father"}

    def test_empty_stream(self):
        kb = parse_kb("")
        assert kb.facts == frozenset()
        assert kb.vocabulary == frozenset()

    def test_malformed_argument_list(self):
        with pytest.raises(KbSyntaxError) as err:
            parse_kb("father(vader,.")
        assert err.value.line == 1
        assert err.value.column > 1

    def test_missing_period(self):
        with pytest.raises(KbSyntaxError):
            parse_kb("father(vader,luke)")

    def test_variable_in_fact_rejected(self):
        with pytest.raises(KbSyntaxError, match="ground"):
            parse_kb("father(vader,Luke).")

    def test_arity_mismatch_with_declaration(self):
        with pytest.raises(KbSyntaxError, match="conflicts"):
            parse_kb("#pred father/2\nfather(vader).")

    def test_arity_conflict_names_first_declaration(self):
        with pytest.raises(KbSyntaxError, match="p/1 conflicts with declared p/2"):
            parse_kb("#pred p/2\n#pred p/3\np(a).")

    def test_duplicate_fact_lines_collapse(self):
        kb = parse_kb("p(a).\np(a).\np(a).")
        assert len(kb.facts) == 1

    def test_comments_and_blank_lines(self):
        kb = parse_kb("% header\n\np(a). % trailing\n")
        assert len(kb.facts) == 1

    def test_declared_predicate_without_facts_is_kept(self):
        kb = parse_kb("#pred lonely/3\np(a).")
        assert pred("lonely", 3) in kb.vocabulary

    def test_background_facts_are_separated(self):
        kb = parse_kb("#background male/1\nmale(vader).\nfather(vader,luke).")
        assert {f.predicate.name for f in kb.background} == {"male"}
        assert {f.predicate.name for f in kb.facts} == {"father"}
        assert kb.background_predicates == {pred("male", 1)}
        assert kb.input_predicates == {pred("father", 2)}

    def test_declared_background_predicate_without_facts(self):
        """A ``#background`` predicate with no facts stays background: it is
        no input, takes no part in the average, and is written back."""
        text = "#background male/1\n#background tall/1\nmale(a).\np(a).\np(b).\n"
        kb = parse_kb(text)
        assert kb.background_predicates == {pred("male", 1), pred("tall", 1)}
        assert kb.input_predicates == {pred("p", 1)}
        assert avg_facts_per_predicate(kb) == 2
        assert serialize_kb(kb) == (
            "#background male/1\n#pred p/1\n#background tall/1\n"
            "male(a).\np(a).\np(b).\n"
        )
        assert parse_kb(serialize_kb(kb)) == kb

    def test_modes_parsed(self):
        doc = parse_kb_document("#mode father(+,-)\nfather(a,b).")
        father = pred("father", 2)
        assert doc.modes[father] == ModeDeclaration(father, ("+", "-"))

    def test_zero_arity_fact(self):
        kb = parse_kb("#pred rainy/0\nrainy.")
        assert fact(pred("rainy", 0)) in kb.facts

    def test_unknown_directive(self):
        with pytest.raises(KbSyntaxError, match="unknown directive"):
            parse_kb("#frobnicate p/2")

    def test_mode_name_must_be_lowercase(self):
        with pytest.raises(KbSyntaxError, match="lowercase") as err:
            parse_kb("p(a).\n#mode P(+)")
        assert (err.value.line, err.value.column) == (2, 8)


def _outcome(text):
    """The document written back by ``serialize_kb``, or the (line, column)
    of the syntax error."""
    try:
        doc = parse_kb_document(text)
    except KbSyntaxError as err:
        return err.line, err.column
    return serialize_kb(doc.kb, doc.modes)


# Outcomes recorded with the two-pass parser that came before the line
# reader.  Tokens are separated by spaces and tabs only, so a no-break space
# is a stray character inside a line but a line of it alone is blank.
@pytest.mark.parametrize(
    "text, expected",
    [
        ("p ( a , b ) .", "#pred p/2\np(a,b).\n"),
        ("# pred p / 2\np(a,b).", "#pred p/2\np(a,b).\n"),
        ("p\t(\ta\t)\t.", "#pred p/1\np(a).\n"),
        ("p(a). % c\n%x\n\n q(b,c) .\t", "#pred p/1\n#pred q/2\np(a).\nq(b,c).\n"),
        ("p(a).\xa0", (1, 6)),
        ("p(a).\n\xa0\nq(b).", "#pred p/1\n#pred q/1\np(a).\nq(b).\n"),
        ("\xa0#pred p/1", (1, 1)),
        ("p(\xa0a).", (1, 3)),
        ("p(a,\xa0b).", (1, 5)),
        ("p(a)", (1, 5)),
        ("P(a).", (1, 2)),
        ("p(a,).", (1, 5)),
        ("p().", (1, 3)),
        ("p(_a).", (1, 3)),
        ("p(X).", (1, 1)),
        ("p(a)..", (1, 6)),
        ("p(a). q(b).", (1, 7)),
        ("not p(a).", (1, 5)),
        ("#mode p()\np.", "#pred p/0\n#mode p()\np.\n"),
        ("#pred p/2\np(a).", (2, 1)),
        ("p(a).\n#pred p/2", (1, 1)),
        ("#pred p/2\n#pred p/1\np(a).", "#pred p/1\n#pred p/2\np(a).\n"),
        (
            "#mode p(+,-)\n#background p/2\np(a,b).",
            "#background p/2\n#mode p(+,-)\np(a,b).\n",
        ),
        (
            "#background m/1\n#pred m/1\nm(a).\np(a).",
            "#background m/1\n#pred p/1\nm(a).\np(a).\n",
        ),
        ("#pred p/2 extra", (1, 11)),
        ("#pred p/x", (1, 9)),
        ("#pred p 2", (1, 9)),
        ("#frob p/1", (1, 6)),
        ("#mode p(+,x)", (1, 11)),
        ("#mode p(++)", (1, 10)),
    ],
)
def test_parse_outcome_pinned(text, expected):
    assert _outcome(text) == expected


@pytest.mark.parametrize(
    "workload, seed, digest",
    [
        ("default-bias", 1, "94e5dc60e97b8efb337863347033744e2fd0cb59a4351ad86e46ee3b0edef5c7"),
        ("default-bias", 2, "aee6322053d26f92b823dd1eb01d2b6bfa86883b0497d553cf1a6c10436b13d2"),
        ("family-dec1", 1, "e4edd8648045b9b7c98d4c2a86c6eba74f6d9f25ed1b997882d92fc8b9d70e6a"),
        ("family-dec1", 2, "d7127a7b02099a082480ce1d93aa4781ead38c5780a7ff7a3a6a73d3480fe388"),
    ],
    ids=["default-bias-1", "default-bias-2", "family-dec1-1", "family-dec1-2"],
)
def test_benchmark_kbs_pinned(workload, seed, digest):
    """SHA-256 of every benchmark KB text of one seed, its large KB last,
    parsed and written back; recorded with the two-pass parser."""
    workloads = load_workloads()
    kbs, large = workloads.generate(workloads.WORKLOADS[workload], seed)
    h = hashlib.sha256()
    for generated in kbs + [large]:
        h.update(_outcome(generated.text).encode())
    assert h.hexdigest() == digest


def _reader_fact(code):
    """(name, args) of a fact line as the line reader reads it, or None
    where it rejects the line or reads a variable, which a fact may not
    hold."""
    try:
        _, name, args, pos = read_atom(code, 0, 1)
        expect_end(code, expect(code, pos, ".", 1), 1, "fact")
    except KbSyntaxError:
        return None
    return None if any(map(is_variable, args)) else (name, args)


def _refuse(*args):
    raise LookupError("the line reader was called")


def _scanned_fact(code):
    """(name, args) of the one fact that the document pattern reads from
    ``code`` alone, or None where it hands the line to the line reader,
    whose ``read_atom`` the caller has replaced with ``_refuse``."""
    try:
        kb = parse_kb(code)
    except LookupError:
        return None
    (f,) = kb.facts
    return f.predicate.name, f.args


# Fact lines and whether the document pattern reads them; every line it
# declines goes to the line reader, which reads or rejects it.
FACT_LINES = [
    ("p.", True),
    ("rainy .", True),
    (" \tp\t . \t", True),
    ("p(a).", True),
    ("father(vader,luke).", True),
    ("p ( a , b ) .", True),
    ("\tp\t(\ta\t,\tbC_2\t)\t.\t", True),
    (" p( a1 ,b ,c_ ) . ", True),
    ("p().", False),
    ("p( ).", False),
    ("p(a,).", False),
    ("p(,a).", False),
    ("p(a,,b).", False),
    ("p(a b).", False),
    ("P(a).", False),
    ("p(_a).", False),
    ("p(1).", False),
    ("p(X).", False),
    ("p(a,Y).", False),
    ("p(X,a).", False),
    ("p(a,_b,c).", False),
    ("p(a)..", False),
    ("p(a). q(b).", False),
    ("p(a)", False),
    ("p(a))).", False),
    ("p((a)).", False),
    ("not p(a).", False),
    ("not p.", False),
    ("p(a).\xa0", False),
    ("\xa0p(a).", False),
    ("p\xa0(a).", False),
    ("p(\xa0a).", False),
    ("p(a,\xa0b).", False),
    ("p(a)\xa0.", False),
]


@pytest.mark.parametrize("code, read", FACT_LINES)
def test_fact_line_regex_reads_what_the_reader_reads(code, read, monkeypatch):
    expected = _reader_fact(code)
    monkeypatch.setattr("alp.kb.read_atom", _refuse)
    found = _scanned_fact(code)
    assert (found is not None) == read
    assert found in (None, expected)


def test_fact_line_regex_agrees_with_the_reader_on_random_lines(monkeypatch):
    """Random lines of fact tokens: the document pattern declines a line or
    reads the line reader's (name, args)."""
    tokens = ["p", "q1", "bC_2", "P", "X", "_a", "1", "not ", "(", ")", ",", "."]
    tokens += [" ", "\t", "\xa0"]
    rng = random.Random(22)
    codes = []
    for _ in range(20_000):
        code = "".join(rng.choices(tokens, k=rng.randint(1, 12)))
        if rng.random() < 0.5:  # a fact with random blanks, ground or not
            args = rng.choices(["a", "bC_2", "q1", "X", "_a", "1"], [8, 8, 8, 1, 1, 1], k=rng.randint(0, 3))
            blank = lambda: "".join(rng.choices(" \t", k=rng.randint(0, 2)))
            inner = ",".join(blank() + a + blank() for a in args)
            code = blank() + "p" + blank() + (f"({inner})" if args else "") + blank() + "."
        codes.append((code, _reader_fact(code)))
    monkeypatch.setattr("alp.kb.read_atom", _refuse)
    read = 0
    for code, expected in codes:
        if code.strip():  # a blank line holds no fact
            found = _scanned_fact(code)
            if found is not None:
                assert found == expected, code
                read += 1
    assert read > 5_000


def _document_outcome(read, text):
    """The document written back by ``serialize_kb``, or the syntax error's
    message, line and column."""
    try:
        doc = read(text)
    except KbSyntaxError as err:
        return str(err), err.line, err.column
    return serialize_kb(doc.kb, doc.modes)


def test_documents_read_as_the_line_reader_reads_them():
    """Random documents of fact, comment, blank, directive and malformed
    lines, ended by every line break ``str.splitlines`` knows of and
    sprinkled with no-break spaces: the one-pass reader writes back the
    same document as the line reader, or raises the same error at the same
    line and column."""
    rng = random.Random(31)
    lines = [
        "p(a).", "p(b,c).", " q ( a , b ) . ", "\tr.", "p(a). % fact", "q(c,d).%",
        "% comment", "%", "", " \t", "\xa0", "\xa0% odd blank",
        "#pred p/1", "#pred q/2", "#background r/0", "#mode q(+,-)", "#pred p/2",
        "p(a", "P(a).", "p(X).", "p(a). q(b).", "#frob p/1", "p(a).\xa0", "p(\xa0a).",
        "p(a,%b).", "q(a).",
    ]
    weights = [12, 8, 4, 4, 4, 2] + [3] * 6 + [1] * 14
    ends = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]
    end_weights = [20, 6, 2, 1, 1, 1]
    outcomes = {"ok": 0, "error": 0}
    for _ in range(4_000):
        chosen = rng.choices(lines, weights, k=rng.randint(0, 9))
        text = "".join(line + rng.choices(ends, end_weights)[0] for line in chosen)
        if text and rng.random() < 0.3:
            text = text[: -1 - text.endswith("\r\n")]  # no line break at the end
        expected = _document_outcome(read_document_by_lines, text)
        assert _document_outcome(parse_kb_document, text) == expected, repr(text)
        outcomes["ok" if isinstance(expected, str) else "error"] += 1
    assert min(outcomes.values()) > 1_000


class TestKbRows:
    """A KB groups its argument rows by predicate once, when it is built."""

    TEXT = "#background male/1\n" + "\n".join(
        ["father(a,b).", "father(b,c).", "mother(d,b).", "male(a).", "male(b).", "jedi."]
    )

    @staticmethod
    def snapshot(kb):
        groups = kb.rows | kb.background_rows
        return {p: (id(rows), list(rows)) for p, rows in groups.items()}

    def test_rows_group_facts_and_background_apart(self):
        kb = parse_kb(self.TEXT)
        assert {str(p): sorted(r) for p, r in kb.rows.items()} == {
            "father/2": [("a", "b"), ("b", "c")],
            "mother/2": [("d", "b")],
            "jedi/0": [()],
        }
        assert {str(p): sorted(r) for p, r in kb.background_rows.items()} == {
            "male/1": [("a",), ("b",)]
        }

    def test_parsed_and_built_kbs_have_equal_rows(self):
        workloads = load_workloads()
        _, large = workloads.generate(workloads.WORKLOADS["family-dec1"], 1)
        for text in (self.TEXT, large.text, FIG1_TEXT):
            parsed = parse_kb(text)
            built = KnowledgeBase.from_facts(parsed.facts, parsed.background)
            for a, b in ((parsed.rows, built.rows), (parsed.background_rows, built.background_rows)):
                assert a.keys() == b.keys()
                for p in a:
                    assert sorted(a[p]) == sorted(b[p])
                    assert len(set(a[p])) == len(a[p])

    def test_equal_kbs_compare_and_hash_equal(self):
        parsed = parse_kb(self.TEXT)
        built = KnowledgeBase.from_facts(parsed.facts, parsed.background)
        assert parsed == built and hash(parsed) == hash(built)
        assert "rows" not in repr(parsed)

    def test_equal_constants_are_one_object(self):
        """The reader keeps one str per constant, whether the one-pass
        reader or the line reader read it (a "\x0c" line break sends its
        stretch to the line reader): in the facts, the rows and the
        background."""
        text = (
            "#background male/1\nfather(vader, luke).\nmale(vader).\x0cfather(luke,rey).\n"
            "male(luke).\x0cmale(rey).\nmother(padme,luke).\nfather(rey,vader). % a\n"
        )
        kb = parse_kb(text)
        groups = (*kb.rows.values(), *kb.background_rows.values())
        constants = [a for f in kb.facts | kb.background for a in f.args]
        constants += [a for rows in groups for row in rows for a in row]
        assert len(set(constants)) == 4
        assert len({id(a) for a in constants}) == len(set(constants))

    def test_replace_recomputes_rows(self):
        """A KB built from another's fields, with fewer facts, groups its
        own rows."""
        kb = parse_kb(self.TEXT)
        jedi = next(f for f in kb.facts if f.predicate.name == "jedi")
        fewer = KnowledgeBase(
            kb.facts - {jedi}, kb.vocabulary, kb.background, kb.background_predicates
        )
        assert jedi.predicate not in fewer.rows and jedi.predicate in kb.rows
        assert fewer.rows.keys() == kb.rows.keys() - {jedi.predicate}
        assert fewer.background_rows == kb.background_rows

    def test_evaluation_leaves_rows_unchanged(self):
        workloads = load_workloads()
        _, large = workloads.generate(workloads.WORKLOADS["family-dec1"], 1)
        program = "#background male/1\n" + workloads.FAMILY_PROGRAM
        alp = parse_program(program.replace("male(X) :- latent_3(X).\n", ""))
        for kb in (parse_kb(self.TEXT), parse_kb("#background male/1\n" + large.text)):
            before = self.snapshot(kb)
            encode(alp, kb)
            reconstruct(alp, kb)
            loss_by_predicate(alp, kb)
            assert self.snapshot(kb) == before
        kb = parse_kb(self.TEXT)
        before = self.snapshot(kb)
        prepare_pool(kb, {}, GenerationConfig())
        assert self.snapshot(kb) == before


class TestSerializeRoundTrip:
    def test_round_trip_is_identity_on_facts(self):
        rng = random.Random(3)
        for _ in range(25):
            kb = random_kb(rng)
            again = parse_kb(serialize_kb(kb))
            assert again.facts == kb.facts
            assert again.vocabulary == kb.vocabulary

    def test_serialization_is_sorted_and_stable(self):
        kb1 = parse_kb("b(x).\na(y).\na(x).")
        kb2 = parse_kb("a(x).\na(y).\nb(x).")
        assert serialize_kb(kb1) == serialize_kb(kb2)
        lines = [l for l in serialize_kb(kb1).splitlines() if not l.startswith("#")]
        assert lines == sorted(lines)

    def test_background_round_trips(self):
        text = "#background male/1\nmale(vader).\nfather(vader,luke).\n"
        kb = parse_kb(text)
        again = parse_kb(serialize_kb(kb))
        assert again.background == kb.background
        assert again.facts == kb.facts


class TestHerbrandBase:
    def test_unary_two_constants(self):
        p = pred("p", 1)
        hb = herbrand_base([p], ["a", "b"])
        assert hb == {fact(p, "a"), fact(p, "b")}

    def test_binary_single_constant(self):
        p = pred("p", 2)
        assert herbrand_base([p], ["a"]) == {fact(p, "a", "a")}

    def test_mixed_arities_count(self):
        atoms = herbrand_base(
            [pred("p", 1), pred("q", 2)], ["a", "b"]
        )
        assert len(atoms) == 2 + 4

    def test_size_formula(self):
        rng = random.Random(5)
        for _ in range(20):
            kb, pool = random_kb_and_pool(rng, max_constants=4, max_facts=5)
            hb = herbrand_base(kb.vocabulary, pool)
            expected = sum(len(pool) ** p.arity for p in kb.vocabulary)
            assert len(hb) == expected

    def test_facts_within_herbrand_base(self):
        rng = random.Random(6)
        for _ in range(20):
            kb, pool = random_kb_and_pool(rng, max_constants=4, max_facts=6)
            hb = herbrand_base(kb.vocabulary, pool)
            assert kb.facts <= hb

    def test_capacity_ceiling(self):
        p = pred("p", 3)
        consts = [f"c{i}" for i in range(30)]
        with pytest.raises(CapacityError):
            herbrand_base([p], consts, ceiling=1000)


class TestAvgFactsPerPredicate:
    def test_fig1_ratio(self):
        assert avg_facts_per_predicate(fig1_kb()) == Fraction(9, 5)

    def test_single_predicate(self):
        p = pred("p", 1)
        kb = KnowledgeBase.from_facts(
            [fact(p, "a"), fact(p, "b"), fact(p, "c"), fact(p, "d")]
        )
        assert avg_facts_per_predicate(kb) == 4

    def test_hand_counted(self):
        p, q = pred("p", 1), pred("q", 2)
        kb = KnowledgeBase.from_facts(
            [fact(p, "a"), fact(q, "a", "b"), fact(q, "b", "c")]
        )
        assert avg_facts_per_predicate(kb) == Fraction(3, 2)

    def test_empty_vocabulary_division(self):
        kb = parse_kb("")
        with pytest.raises(ZeroDivisionError):
            avg_facts_per_predicate(kb)

    def test_invariant_under_duplicates_and_reordering(self):
        a = parse_kb("p(a).\nq(a,b).\nq(b,c).")
        b = parse_kb("q(b,c).\np(a).\nq(a,b).\nq(a,b).")
        assert avg_facts_per_predicate(a) == avg_facts_per_predicate(b)

    def test_background_excluded_from_denominator(self):
        kb = parse_kb("#background m/1\nm(x).\np(a).\np(b).")
        assert avg_facts_per_predicate(kb) == 2


class TestPredicateIdentity:
    """A predicate is the tuple (name, arity) and carries no role: the
    knowledge base and the program hold the roles."""

    def test_origin_is_not_identity(self):
        p = Predicate("p", 1)
        assert p == Predicate("p", 1) == ("p", 1)
        assert (p.name, p.arity) == tuple(p) == ("p", 1)
        assert p != Predicate("p", 2) and p != Predicate("q", 1)
        assert Predicate._fields == ("name", "arity")

    def test_hash_is_that_of_name_and_arity(self):
        """The hash is the plain tuple's, the one the dataclass derived from
        (name, arity), so set orders do not change with it; no Python
        ``__hash__`` runs."""
        assert hash(Predicate("p", 1)) == hash(("p", 1))
        assert hash(Predicate("p", 1)._replace(name="q")) == hash(("q", 1))
        assert "__hash__" not in Predicate.__dict__

    def test_checks_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^bad predicate name 'Upper'$"):
            Predicate("Upper", 1)
        with pytest.raises(ValueError, match=r"^negative arity for p$"):
            Predicate("p", -1)

    def test_tuple_order_is_the_canonical_order(self):
        """Predicates sort by name then arity, and facts by predicate then
        arguments, as the sort keys they replace did."""
        q0, p2, p1 = Predicate("q", 0), Predicate("p", 2), Predicate("p", 1)
        assert sorted([q0, p2, p1]) == [p1, p2, q0]
        facts = [fact(p2, "a", "b"), fact(q0), fact(p1, "b"), fact(p1, "a")]
        assert sorted(facts) == [fact(p1, "a"), fact(p1, "b"), fact(p2, "a", "b"), fact(q0)]

    def test_copies_round_trip(self):
        p = Predicate("father", 2)
        for copied in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(copied) is Predicate and copied == p
            assert repr(copied) == repr(p) == "Predicate(name='father', arity=2)"

    def test_overlap_checked_by_name_and_arity(self):
        """A predicate with facts may not be background, whether it has
        background facts or is only declared background."""
        p = pred("p", 1)
        data, background = fact(p, "a"), fact(p, "b")
        with pytest.raises(ValueError, match="background predicates appear as facts"):
            KnowledgeBase.from_facts([data], background=[background])
        with pytest.raises(ValueError, match="background predicates appear as facts"):
            KnowledgeBase(
                frozenset([data]), frozenset([p]), frozenset(), frozenset([p])
            )


class TestFact:
    """A fact is the immutable tuple (predicate, args): it keeps the
    dataclass's checks, hash, text forms and identity."""

    FATHER = Predicate("father", 2)

    def test_arity_checked_with_the_same_message(self):
        with pytest.raises(ValueError) as error:
            Fact(pred("p", 2), ("a",))
        assert str(error.value) == "p/2 applied to 1 arguments"

    def test_hash_is_that_of_the_pair(self):
        args = ("vader", "luke")
        assert hash(Fact(self.FATHER, args)) == hash((self.FATHER, args))
        assert hash(fact(pred("rainy", 0))) == hash((pred("rainy", 0), ()))

    def test_repr_and_str_are_the_dataclasss(self):
        f = Fact(self.FATHER, ("vader", "luke"))
        assert repr(f) == (
            "Fact(predicate=Predicate(name='father', arity=2), args=('vader', 'luke'))"
        )
        assert str(f) == "father(vader,luke)"
        assert repr(fact(pred("rainy", 0))) == (
            "Fact(predicate=Predicate(name='rainy', arity=0), args=())"
        )
        assert str(fact(pred("rainy", 0))) == "rainy"

    def test_equality_ignores_origin(self):
        """A fact equals any fact or tuple with the same items: its predicate
        is a plain (name, arity) pair."""
        f = Fact(self.FATHER, ("vader", "luke"))
        assert f == Fact(pred("father", 2), ("vader", "luke"))
        assert f == (pred("father", 2), ("vader", "luke"))
        assert f == (("father", 2), ("vader", "luke"))
        assert f != Fact(self.FATHER, ("luke", "vader"))

    def test_immutable(self):
        f = Fact(self.FATHER, ("vader", "luke"))
        for name in ("predicate", "args", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, ())

    def test_copies_round_trip(self):
        f = Fact(self.FATHER, ("vader", "luke"))
        for copied in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(copied) is Fact and copied == f
            assert repr(copied) == repr(f)

    def test_every_returned_fact_is_a_fact(self):
        kb = fig1_kb()
        alp = parse_program(
            "#encoder\nlatent_1(X,Y) :- mother(X,Y);father(X,Y).\n"
            "#decoder\nmother(X,Y) :- latent_1(X,Y).\n"
        )
        clause = alp.encoder.clauses[0]
        results = [
            kb.facts,
            encode(alp, kb),
            reconstruct(alp, kb),
            apply_program(alp.encoder, kb.facts),
            ground_consequences(clause, kb.facts),
        ]
        assert all(results)
        assert {type(f) for facts in results for f in facts} == {Fact}


class TestInvariants:
    def test_background_never_in_facts(self):
        p = pred("p", 1)
        with pytest.raises(ValueError, match="background"):
            KnowledgeBase(
                facts=frozenset([fact(p, "a")]),
                vocabulary=frozenset([p]),
                background=frozenset([fact(p, "b")]),
            )

    def test_fact_arity_checked(self):
        with pytest.raises(ValueError):
            Fact(pred("p", 2), ("a",))

    def test_predicate_name_validated(self):
        with pytest.raises(ValueError):
            Predicate("Upper", 1)

    def test_mode_slots_length(self):
        with pytest.raises(ValueError):
            ModeDeclaration(pred("p", 2), ("+",))
