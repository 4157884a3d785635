"""Compile a pruned candidate pool into a boolean constraint model.

Decision variables: one ``ec`` per candidate encoder clause, one ``dc`` per
candidate decoder clause, one ``rf`` per ground atom some decoder can
reconstruct.  Constraints:

  (a) bottleneck  -- sum((w_i - gamma*G) * ec_i) <= 0, the integer-scaled
      linearization of "average latent facts per selected latent predicate
      is at most gamma*G";
  (b) coupling    -- ec <-> OR(dc using its latent), for every encoder, so
      encoder selection is fully determined by the decoders (an encoder no
      surviving decoder uses is pinned to 0);
  (c) generality  -- within the encoder pool (argument tuples, per arity)
      and, per head predicate, within the decoder pool, candidates sharing
      one consequence set form a class: at most one member per class, and
      not(c1 and c2) for two classes whose sets are strictly nested;
  (d) coverage    -- OR(dc with head p) per input predicate that still has
      candidate decoders (skipped, with a warning, for predicates that lost
      all of them);
  (e) definition  -- rf <-> OR(dc reconstructing the atom).

A class of k >= 2 members has one ``cl`` variable, cl <-> OR(members), and
the row sum(members) - cl <= 0; a lone candidate stands for its own class.
So a class is stated once, not once per pair of its members.  The
objective counts missing KB atoms (1 - rf) and false reconstructions (rf);
KB facts no candidate can reconstruct are a constant offset.

An assignment is a dense list of 0/1 values with one position per
variable, in ``CopModel.all_ids`` order: every ec, then every dc, then
every rf, then every cl, each kind by index, so ``VarId(i, kind)`` sits at
``first[kind] + i``.  The model is built in that form: each constraint is a
row of positions (``CopModel.rows``), which the audit, the objective, the
completion of a decoder selection, the solver, the text dump and error
messages read one row at a time; the last two name each position by its
``VarId`` from ``all_ids``.  Each ``iff_or`` row follows the rows that set
its body, so one pass completes a selection.  ``Constraint``, the rows with
their positions named, is a view that only the benchmark's oracle and the
tests use.  Candidates are read through their fields (head, body, text and
mask); a ``Clause`` is built only by ``induced_alp``, for the selected ones.
The model keeps the KB's background predicates, which ``induced_alp``
gives the program it builds, so that its text declares those it reads.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .candidates import (
    CandidateClause,
    bit_positions,
    latent_ordinal,
    pool_index,
)
from .errors import AlpError, InfeasibleError
from .kb import (
    Fact,
    KnowledgeBase,
    Predicate,
    Record,
    avg_facts_per_predicate,
)
from .logic import (
    Alp,
    DECODER,
    ENCODER,
    LogicProgram,
)

EC = "ec"
DC = "dc"
RF = "rf"
CL = "cl"

IFF_OR = "iff_or"
AT_MOST_ONE_OF_PAIR = "at_most_one_of_pair"
AT_LEAST_ONE = "at_least_one"
LINEAR_LE = "linear_le"


class ConstraintViolationError(AlpError):
    """An assignment offered as feasible violates the model's constraints."""


class VarId(namedtuple("VarId", "index kind")):
    __slots__ = ()

    def __str__(self):
        return f"{self.kind}_{self.index}"


class Constraint(namedtuple("Constraint", "form vars coeffs", defaults=((),))):
    """A ``Row`` with its positions named by ``VarId``s: (form, vars, coeffs)."""

    __slots__ = ()


# One 0/1 value per position of ``CopModel.all_ids``: ec, dc, rf, then cl.
Assignment = list[int]

# A constraint over assignment positions: (form, positions, coeffs), one of
# the four families.  ``iff_or`` reads ps[0] <-> OR(ps[1:]) (an empty
# disjunction pins ps[0] to 0); ``linear_le`` reads sum(coeffs[i] * ps[i]) <= 0.
Row = tuple[str, tuple[int, ...], tuple[int, ...]]


class CopModel(Record):
    """The variables, constraints and objective of one candidate pool."""

    _fields = (
        "ec_candidates", "dc_candidates", "rf_bits", "rf_in_kb", "rows", "class_positions",
        "constant_offset", "background", "warnings",
    )

    def __init__(
        self,
        ec_candidates: tuple[CandidateClause, ...],
        dc_candidates: tuple[CandidateClause, ...],
        rf_bits: tuple[tuple[Predicate, int], ...],  # (head, bit of its row), per rf
        rf_in_kb: tuple[bool, ...],
        rows: tuple[Row, ...],  # each constraint over assignment positions
        class_positions: tuple[tuple[int, ...], ...],  # the members of cl_k
        constant_offset: int,
        background: frozenset[Predicate],  # the KB's, for induced_alp
        warnings: tuple[str, ...] = (),
    ):
        self.ec_candidates, self.dc_candidates = ec_candidates, dc_candidates
        self.rf_bits, self.rf_in_kb, self.rows = rf_bits, rf_in_kb, rows
        self.class_positions, self.constant_offset = class_positions, constant_offset
        self.background, self.warnings = background, warnings

    def _sizes(self) -> dict[str, int]:
        return {
            EC: len(self.ec_candidates),
            DC: len(self.dc_candidates),
            RF: len(self.rf_bits),
            CL: len(self.class_positions),
        }

    def all_ids(self) -> list[VarId]:
        """The variable at each position of an assignment."""
        return [VarId(i, kind) for kind, n in self._sizes().items() for i in range(n)]

    @cached_property
    def first(self) -> dict[str, int]:
        """The position of index 0 of each kind."""
        sizes = self._sizes()
        return dict(zip(sizes, accumulate(sizes.values(), initial=0)))

    @cached_property
    def rf_atoms(self) -> tuple[Fact, ...]:
        """The atom of each rf position, its head over its row decoded from
        the decoders' index unchecked: a head's rows are of its arity."""
        rows = self.dc_candidates[0].index.rows if self.dc_candidates else []
        return tuple([Fact._make((p, rows[b])) for p, b in self.rf_bits])

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """Each row with its positions named by ``all_ids``."""
        ids = self.all_ids()
        return tuple(
            [
                Constraint(form, tuple([ids[p] for p in ps]), coeffs)
                for form, ps, coeffs in self.rows
            ]
        )

    def size_summary(self) -> dict:
        return {
            "ec": len(self.ec_candidates),
            "dc": len(self.dc_candidates),
            "rf": len(self.rf_bits),
            "constraints": len(self.rows),
        }


def _generality(groups: dict, class_positions: list, cl_first: int) -> list[Row]:
    """Generality rows within each group of (position, consequence mask).

    A class of k >= 2 members gets the next ``cl`` position, its members
    appended to ``class_positions``; a lone candidate stands for its own
    class.  Two classes whose sets are strictly nested get one pair row over
    the positions that stand for them.
    """
    rows: list[Row] = []
    for members in groups.values():
        classes: dict = {}
        for p, mask in members:
            classes.setdefault(mask, []).append(p)
        distinct = sorted(
            classes.items(), key=lambda kv: (kv[0].bit_count(), kv[1][0])
        )
        stands = []
        for _, ps in distinct:
            if len(ps) == 1:
                stands.append(ps[0])
                continue
            cl = cl_first + len(class_positions)
            class_positions.append(tuple(ps))
            stands.append(cl)
            rows.append((IFF_OR, (cl, *ps), ()))
            rows.append((LINEAR_LE, (*ps, cl), (1,) * len(ps) + (-1,)))
        for x, (a, _) in enumerate(distinct):
            for y in range(x + 1, len(distinct)):
                if a & ~distinct[y][0] == 0:
                    rows.append((AT_MOST_ONE_OF_PAIR, (stands[x], stands[y]), ()))
    return rows


def build_model(
    encoders: list[CandidateClause],
    decoders: list[CandidateClause],
    kb: KnowledgeBase,
    gamma: Fraction,
) -> CopModel:
    """Compile the candidate pool against the training KB.

    ``gamma`` is the compression parameter; the bottleneck bounds the
    average number of latent facts per selected latent predicate by
    gamma * (average facts per input predicate).  Invariant: the coupling
    rows, which set ec, precede the class rows, whose members may be ec, and
    the rf rows come last, so ``assignment_from_dc`` completes a selection
    in one pass over the rows.
    """
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    encoders = sorted(encoders, key=lambda c: latent_ordinal(c.head.predicate))
    decoders = sorted(decoders, key=lambda c: c.text)
    if not encoders:
        raise InfeasibleError("no candidate encoder clauses survive generation")
    pool_index(encoders)
    index = pool_index(decoders)

    # The layout: ec, dc, rf, then cl positions, so encoder i sits at i and
    # decoder j at dc_first + j.  The rf positions are the (head, row bit)
    # pairs some decoder reconstructs, in the fact order of their atoms.
    dc_first = len(encoders)
    reconstructable: dict[tuple[Predicate, int], list[int]] = {}
    for pos, d in enumerate(decoders, dc_first):
        p = d.head.predicate
        for bit in bit_positions(d.mask):
            reconstructable.setdefault((p, bit), []).append(pos)
    index_rows = index.rows if index else []
    rf_bits = tuple(sorted(reconstructable, key=lambda a: (a[0], index_rows[a[1]])))
    rf_first = dc_first + len(decoders)
    cl_first = rf_first + len(rf_bits)

    rows: list[Row] = []
    warnings: list[str] = []

    # (a) bottleneck, scaled to integers over the common denominator.
    bound = gamma * avg_facts_per_predicate(kb)
    coeffs = tuple(
        c.weight * bound.denominator - bound.numerator for c in encoders
    )
    rows.append((LINEAR_LE, tuple(range(len(encoders))), coeffs))

    # (b) coupling: every encoder is defined by the decoders using its latent.
    latent_of = {c.head.predicate: i for i, c in enumerate(encoders)}
    dc_using: dict[int, list[int]] = {i: [] for i in range(len(encoders))}
    for pos, d in enumerate(decoders, dc_first):
        for lit in d.body:
            ei = latent_of.get(lit.predicate)
            if ei is None:
                raise ValueError(
                    f"decoder {d.text} uses latent {lit.predicate} "
                    "with no defining encoder in the pool"
                )
            if dc_using[ei][-1:] != [pos]:  # decoders come in position order
                dc_using[ei].append(pos)
    for i in range(len(encoders)):
        rows.append((IFF_OR, (i, *dc_using[i]), ()))

    # (c) generality over consequence classes.  Encoders compare argument
    # tuples; decoders with different heads are never substitutes.
    class_positions: list[tuple[int, ...]] = []
    enc_groups: dict = {}
    for i, c in enumerate(encoders):
        enc_groups.setdefault(c.head.predicate.arity, []).append((i, c.mask))
    dec_groups: dict = {}
    for pos, d in enumerate(decoders, dc_first):
        dec_groups.setdefault(d.head.predicate, []).append((pos, d.mask))
    rows += _generality(enc_groups, class_positions, cl_first)
    rows += _generality(dec_groups, class_positions, cl_first)

    # (d) coverage: at least one decoder per input predicate that has any.
    for p in sorted(kb.input_predicates):
        if p in dec_groups:
            rows.append((AT_LEAST_ONE, tuple([pos for pos, _ in dec_groups[p]]), ()))
        elif p in kb.rows:  # the predicate has facts
            warnings.append(
                f"no candidate decoder reconstructs {p}; "
                "coverage constraint skipped"
            )

    # (e) rf definitions and the objective.
    for i, (p, bit) in enumerate(rf_bits):
        rows.append((IFF_OR, (rf_first + i, *reconstructable[p, bit]), ()))
    rf_in_kb = tuple([(p, index_rows[bit]) in kb.facts for p, bit in rf_bits])
    offset = len(kb.facts) - sum(rf_in_kb)

    return CopModel(
        ec_candidates=tuple(encoders),
        dc_candidates=tuple(decoders),
        rf_bits=rf_bits,
        rf_in_kb=rf_in_kb,
        rows=tuple(rows),
        class_positions=tuple(class_positions),
        constant_offset=offset,
        background=kb.background_predicates,
        warnings=tuple(warnings),
    )


def check_assignment(model: CopModel, assignment: Assignment) -> list[int]:
    """The indices in ``model.rows`` of the violated rows, ascending; empty
    means feasible.  The rows are read one at a time, by their form."""
    value = assignment.__getitem__
    violated = []
    for k, (form, ps, coeffs) in enumerate(model.rows):
        if form == AT_MOST_ONE_OF_PAIR:  # the most numerous form
            bad = value(ps[0]) and value(ps[1])
        elif form == IFF_OR:
            bad = value(ps[0]) != any(map(value, ps[1:]))
        elif form == AT_LEAST_ONE:
            bad = not any(map(value, ps))
        else:
            bad = sum(a * value(p) for a, p in zip(coeffs, ps)) > 0
        if bad:
            violated.append(k)
    return violated


def objective_value(model: CopModel, assignment: Assignment) -> int:
    """Missing plus false reconstructions under the assignment.

    Raises ConstraintViolationError for infeasible assignments: this is the
    solver-audit entry point, not a relaxation score.
    """
    violations = check_assignment(model, assignment)
    if violations:
        raise ConstraintViolationError(
            f"{len(violations)} violated constraint(s), first: "
            + _row_line(model.all_ids(), model.rows[violations[0]])
        )
    total = model.constant_offset
    for p, in_kb in enumerate(model.rf_in_kb, model.first[RF]):
        total += 1 - assignment[p] if in_kb else assignment[p]
    return total


def assignment_from_dc(model: CopModel, selected: set[int]) -> Assignment:
    """Extend a decoder selection to the full variable set.

    Each ``iff_or`` row, in ``model.rows`` order, sets its head to the OR of
    its body: the unique completion satisfying them.  One pass suffices by
    the row order that ``build_model`` keeps.
    """
    assignment = [0] * (model.first[CL] + len(model.class_positions))
    for j in selected:
        assignment[model.first[DC] + j] = 1
    value = assignment.__getitem__
    for form, ps, _ in model.rows:
        if form == IFF_OR:
            assignment[ps[0]] = int(any(map(value, ps[1:])))
    return assignment


def induced_alp(model: CopModel, assignment: Assignment) -> Alp:
    """The ALP selected by the assignment's ec/dc variables."""
    n_ec = len(model.ec_candidates)
    enc_clauses = tuple(
        c.clause for c, v in zip(model.ec_candidates, assignment) if v == 1
    )
    dec_clauses = tuple(
        c.clause
        for c, v in zip(model.dc_candidates, assignment[n_ec:])
        if v == 1
    )
    encoder, decoder = LogicProgram(enc_clauses, ENCODER), LogicProgram(dec_clauses, DECODER)
    return Alp(encoder, decoder, model.background)


def _row_line(ids: list[VarId], row: Row) -> str:
    """The row's line in ``dump_model``, each position named by ``ids``."""
    form, ps, coeffs = row
    if form == LINEAR_LE:
        terms = " ".join(f"{a:+d}*{ids[p]}" for a, p in zip(coeffs, ps))
        return f"constraint linear_le {terms} <= 0"
    return f"constraint {form} {' '.join(str(ids[p]) for p in ps)}"


def dump_model(model: CopModel) -> str:
    """Line-oriented text form for external cross-checks."""
    lines = []
    for i, c in enumerate(model.ec_candidates):
        lines.append(f"var ec_{i} {c.text}")
    for j, c in enumerate(model.dc_candidates):
        lines.append(f"var dc_{j} {c.text}")
    for i, atom in enumerate(model.rf_atoms):
        lines.append(f"var rf_{i} {atom}")
    ids = model.all_ids()
    for k, ps in enumerate(model.class_positions):
        lines.append(f"var cl_{k} {' '.join(str(ids[p]) for p in ps)}")
    lines += [_row_line(ids, row) for row in model.rows]
    for i, in_kb in enumerate(model.rf_in_kb):
        lines.append(f"objective {'missing' if in_kb else 'false'} rf_{i}")
    lines.append(f"offset {model.constant_offset}")
    return "\n".join(lines) + "\n"
