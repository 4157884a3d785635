"""The package's records and plain classes: what ``import alp`` loads, and
the equality, hash, text form, copies and checks of each class.

Records are named tuples, most of which check their fields in
``__new__``; ``CopModel`` caches views derived from its fields, and
``LearnResult`` holds dicts.  The classes with uncompared attributes
(``KnowledgeBase``, ``CandidateClause``) are plain classes.  Each keeps the
equality and hash of the frozen dataclass it replaced: the hash is that of
the tuple of its compared fields, in field order, so every set of them
iterates in the same order.
"""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import alp
from alp.candidates import AtomIndex, CandidateClause, GenerationConfig
from alp.kb import KbDocument, KnowledgeBase, ModeDeclaration, parse_kb
from alp.logic import (
    DECODER,
    DISJUNCTION,
    ENCODER,
    Alp,
    Clause,
    Literal,
    LogicProgram,
    parse_program,
)
from alp.model import Constraint, VarId, build_model
from alp.pipeline import learn
from alp.solver import ExactResult, SearchConfig
from helpers import FIG1_TEXT, fact, fig1_kb, lit, pipeline_pool, pred

P2 = pred("p", 2)
PROGRAM = (
    "#encoder\nlatent_1(X,Y) :- mother(X,Y);father(X,Y).\n"
    "#decoder\nmother(X,Y) :- latent_1(X,Y).\n"
)


def test_import_loads_no_dataclasses_and_every_module():
    """A fresh interpreter without ``site``: ``import alp`` loads neither
    ``dataclasses`` nor ``inspect``, and loads every module it loaded
    when its classes were dataclasses, so no cost is merely put off."""
    src = str(Path(alp.__file__).resolve().parent.parent)
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import alp; print(json.dumps([sorted(before), sorted(sys.modules)]))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    before, after = map(set, json.loads(out))
    assert not {"dataclasses", "inspect"} & before
    assert not {"dataclasses", "inspect"} & after
    parts = ("kb", "logic", "candidates", "model", "solver", "pruning", "pipeline", "errors")
    assert {f"alp.{part}" for part in parts} <= after


@pytest.fixture(scope="module")
def instances():
    """One instance of each class, with the names of its compared fields."""
    kb = fig1_kb()
    program = parse_program(PROGRAM)
    encoders, decoders, _, _ = pipeline_pool(kb)
    model = build_model(encoders, decoders, kb, Fraction(2))
    result = learn(kb, {}, GenerationConfig(), SearchConfig(iterations=5), Fraction(2))
    return {
        "Literal": (lit(P2, "X", "Y", negated=True), "predicate args negated"),
        "Clause": (program.encoder.clauses[0], "head body body_connective"),
        "LogicProgram": (program.decoder, "clauses direction"),
        "Alp": (program, "encoder decoder background"),
        "ModeDeclaration": (ModeDeclaration(P2, ("+", "-")), "predicate slots"),
        "KbDocument": (KbDocument(kb, {}), "kb modes"),
        "VarId": (VarId(3, "dc"), "index kind"),
        "Constraint": (Constraint("linear_le", (VarId(0, "ec"),), (1,)), "form vars coeffs"),
        "GenerationConfig": (
            GenerationConfig(max_candidates=7),
            "max_encoder_body_len max_decoder_body_len max_head_vars allow_disjunction"
            " allow_negation max_candidates",
        ),
        "SearchConfig": (
            SearchConfig(seed=3), "alpha beta iterations fail_limit time_limit seed"
        ),
        "Solution": (result.solution, "assignment objective iteration_found proven_optimal"),
        "ExactResult": (ExactResult(None, None, True, 4), "best objective complete failures"),
        "KnowledgeBase": (
            kb, "facts vocabulary background background_predicates"
        ),
        "CandidateClause": (decoders[0], "head body connective mask"),
        "CopModel": (
            model,
            "ec_candidates dc_candidates rf_bits rf_in_kb rows class_positions"
            " constant_offset background warnings",
        ),
        "LearnResult": (
            result,
            "alp latent solution model pruning counts timings loss improvements",
        ),
    }


NAMES = [
    "Literal", "Clause", "LogicProgram", "Alp", "ModeDeclaration", "KbDocument", "VarId",
    "Constraint", "GenerationConfig", "SearchConfig", "Solution", "ExactResult",
    "KnowledgeBase", "CandidateClause", "CopModel", "LearnResult",
]
# Unhashable: a field holds a dict or a list, or the class may change.
UNHASHABLE = {"KbDocument", "Solution", "LearnResult"}


@pytest.mark.parametrize("name", NAMES)
def test_hash_and_equality_read_the_compared_fields(instances, name):
    obj, fields = instances[name]
    key = tuple(getattr(obj, f) for f in fields.split())
    assert type(obj).__name__ == name
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(key)
    twin = copy.copy(obj)
    assert twin == obj and not twin != obj
    assert obj != object()


@pytest.mark.parametrize("name", NAMES)
def test_copies_round_trip(instances, name):
    obj, _ = instances[name]
    for copied in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is type(obj) and copied == obj


def test_derived_and_uncompared_attributes_take_no_part(instances):
    kb, _ = instances["KnowledgeBase"]
    parsed = parse_kb(FIG1_TEXT)
    assert parsed == kb and hash(parsed) == hash(kb) and parsed.rows is not kb.rows
    copied = pickle.loads(pickle.dumps(kb))
    assert copied.rows == kb.rows and copied.background_rows == kb.background_rows
    c, _ = instances["CandidateClause"]
    other = CandidateClause(c.head, c.body, c.connective, c.mask, AtomIndex(), "other")
    assert other == c and hash(other) == hash(c)
    copied = copy.deepcopy(c)
    assert copied.text == c.text and copied.index.rows == c.index.rows
    assert CandidateClause(c.head, c.body, c.connective, c.mask ^ 1, c.index, c.text) != c


def test_reprs_show_the_compared_fields_only(instances):
    assert repr(instances["Literal"][0]) == (
        "Literal(predicate=Predicate(name='p', arity=2), args=('X', 'Y'), negated=True)"
    )
    assert repr(instances["VarId"][0]) == "VarId(index=3, kind='dc')"
    assert str(instances["VarId"][0]) == "dc_3"
    assert repr(instances["GenerationConfig"][0]) == (
        "GenerationConfig(max_encoder_body_len=2, max_decoder_body_len=2, max_head_vars=2, "
        "allow_disjunction=True, allow_negation=False, max_candidates=7)"
    )
    assert repr(instances["SearchConfig"][0]) == (
        "SearchConfig(alpha=70.0, beta=90.0, iterations=500, fail_limit=10000, "
        "time_limit=600.0, seed=3)"
    )
    kb = instances["KnowledgeBase"][0]
    assert repr(kb).startswith("KnowledgeBase(facts=frozenset({Fact(")
    assert "rows" not in repr(kb)
    assert repr(kb).endswith(", background=frozenset(), background_predicates=frozenset())")
    c = instances["CandidateClause"][0]
    assert repr(c) == (
        f"CandidateClause(head={c.head!r}, body={c.body!r}, connective='conjunction', "
        f"mask={c.mask})"
    )
    model = instances["CopModel"][0]
    assert repr(model).startswith("CopModel(ec_candidates=(CandidateClause(head=")


LATENT = pred("latent_1", 2)
MOTHER, FATHER = pred("mother", 2), pred("father", 2)
ENC = Clause(lit(LATENT, "X", "Y"), (lit(MOTHER, "X", "Y"),))
DEC = Clause(lit(MOTHER, "X", "Y"), (lit(LATENT, "X", "Y"),))

# (construction, message): every check a constructor or ``_replace`` runs.
CHECKS = [
    (lambda: Literal(P2, ("a",)), "p/2 applied to 1 arguments"),
    (lambda: lit(P2, "a", "b")._replace(args=("a",)), "p/2 applied to 1 arguments"),
    (lambda: Clause(lit(P2, "X", "Y", negated=True), (lit(P2, "X", "Y"),)),
     "clause head must be positive"),
    (lambda: Clause(lit(P2, "X", "Y"), ()), "clause body must be nonempty"),
    (lambda: ENC._replace(body=()), "clause body must be nonempty"),
    (lambda: Clause(lit(P2, "X", "Y"), (lit(MOTHER, "X", "Y"),), "either"),
     "bad connective 'either'"),
    (lambda: Clause(lit(P2, "X", "Z"), (lit(MOTHER, "X", "Y"),)),
     "head variable Z unbound in body"),
    (lambda: Clause(
        lit(P2, "X", "Y"), (lit(MOTHER, "X", "Y"), lit(FATHER, "X", "Z", negated=True))),
     "negated literal variable Z unsafe"),
    (lambda: Clause(lit(P2, "X", "Y"), (lit(MOTHER, "X", "Y"), lit(FATHER, "X", "Y", negated=True)),
                    DISJUNCTION),
     "disjunctive bodies must be positive"),
    (lambda: Clause(lit(P2, "X", "Y"), (lit(MOTHER, "X", "Y"), lit(FATHER, "Y", "X")), DISJUNCTION),
     "disjunctive body literals must share one argument tuple"),
    (lambda: LogicProgram((ENC,), "sideways"), "bad direction 'sideways'"),
    (lambda: LogicProgram((ENC,), DECODER)._replace(direction="up"), "bad direction 'up'"),
    (lambda: LogicProgram((ENC, Clause(lit(P2, "X", "Y"), (lit(LATENT, "X", "Y"),))), ENCODER),
     "encoder body uses latent latent_1/2, a recursive use in p(X,Y) :- latent_1(X,Y)."),
    (lambda: LogicProgram((DEC, Clause(lit(FATHER, "X", "Y"), (lit(MOTHER, "X", "Y"),))), DECODER),
     "recursive use of mother/2 in father(X,Y) :- mother(X,Y)."),
    (lambda: Alp(LogicProgram((DEC,), DECODER), LogicProgram((ENC,), ENCODER)),
     "programs passed in the wrong slots"),
    (lambda: Alp(LogicProgram((ENC,), ENCODER), LogicProgram(
        (Clause(lit(LATENT, "X", "Y"), (lit(MOTHER, "X", "Y"),)),), DECODER)),
     "decoder head latent_1/2 is not an input"),
    (lambda: Alp(LogicProgram((ENC,), ENCODER), LogicProgram(
        (Clause(lit(FATHER, "X", "Y"), (lit(MOTHER, "X", "Y"),)),), DECODER)),
     "decoder body uses non-latent mother/2"),
    (lambda: Alp(LogicProgram((ENC,), ENCODER), LogicProgram((DEC,), DECODER))._replace(
        decoder=LogicProgram((ENC,), ENCODER)), "programs passed in the wrong slots"),
    (lambda: ModeDeclaration(P2, ("+",)), "mode for p/2 has 1 slots"),
    (lambda: ModeDeclaration(P2, ("+", "*")), "bad mode slot '*'"),
    (lambda: ModeDeclaration(P2, ("+", "-"))._replace(slots=("+",)), "mode for p/2 has 1 slots"),
    (lambda: GenerationConfig(max_encoder_body_len=0), "body lengths must lie in [1, 6]"),
    (lambda: GenerationConfig()._replace(max_decoder_body_len=7),
     "body lengths must lie in [1, 6]"),
    (lambda: GenerationConfig(max_head_vars=0), "max_head_vars must be >= 1"),
    (lambda: GenerationConfig()._replace(max_candidates=0), "max_candidates must be >= 1"),
    (lambda: SearchConfig(alpha=150), "alpha and beta must lie in [0, 100]"),
    (lambda: SearchConfig()._replace(beta=-1), "alpha and beta must lie in [0, 100]"),
    (lambda: SearchConfig(iterations=0), "iterations and fail_limit must be >= 1"),
    (lambda: SearchConfig()._replace(fail_limit=0), "iterations and fail_limit must be >= 1"),
    (lambda: SearchConfig(time_limit=float("inf")), "time_limit must be finite and >= 0"),
    (lambda: KnowledgeBase(frozenset([fact(P2, "a", "b")]), frozenset()),
     "fact p(a,b) uses undeclared predicate p/2"),
    (lambda: KnowledgeBase(
        frozenset([fact(P2, "a", "b")]), frozenset([P2]), frozenset(), frozenset([P2])),
     "background predicates appear as facts: ['p/2']"),
]


@pytest.mark.parametrize("make, message", CHECKS)
def test_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as error:
        make()
    assert str(error.value) == message
