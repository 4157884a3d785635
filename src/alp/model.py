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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .candidates import (
    CandidateClause,
    bit_positions,
    fact_order,
    latent_ordinal,
    pool_index,
)
from .errors import AlpError, InfeasibleError
from .kb import Fact, KnowledgeBase, Predicate, avg_facts_per_predicate
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


@dataclass(frozen=True, slots=True)
class VarId:
    index: int
    kind: str

    def __str__(self):
        return f"{self.kind}_{self.index}"


@dataclass(frozen=True, slots=True)
class Constraint:
    """One of the four constraint families.

    ``iff_or`` reads vars[0] <-> OR(vars[1:]) (an empty disjunction pins
    vars[0] to 0); ``linear_le`` reads sum(coeffs[i] * vars[i]) <= 0.
    """

    form: str
    vars: tuple[VarId, ...]
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.form == LINEAR_LE and len(self.coeffs) != len(self.vars):
            raise ValueError("linear constraint needs one coefficient per var")
        if self.form == AT_MOST_ONE_OF_PAIR and len(self.vars) != 2:
            raise ValueError("pairwise constraint needs exactly two vars")


Assignment = dict[VarId, int]


@dataclass(frozen=True)
class CopModel:
    """The variables, constraints and objective of one candidate pool."""

    ec_candidates: tuple[CandidateClause, ...]
    dc_candidates: tuple[CandidateClause, ...]
    rf_atoms: tuple[Fact, ...]
    rf_bits: tuple[int, ...]  # each rf atom's bit in the decoders' AtomIndex
    rf_in_kb: tuple[bool, ...]
    constraints: tuple[Constraint, ...]
    class_members: tuple[tuple[VarId, ...], ...]  # the members of cl_k
    constant_offset: int
    gamma: Fraction
    avg_facts: Fraction
    warnings: tuple[str, ...] = ()

    @property
    def ec_ids(self) -> list[VarId]:
        return [VarId(i, EC) for i in range(len(self.ec_candidates))]

    @property
    def dc_ids(self) -> list[VarId]:
        return [VarId(i, DC) for i in range(len(self.dc_candidates))]

    @property
    def rf_ids(self) -> list[VarId]:
        return [VarId(i, RF) for i in range(len(self.rf_atoms))]

    def all_ids(self) -> list[VarId]:
        cl_ids = [VarId(k, CL) for k in range(len(self.class_members))]
        return self.ec_ids + self.dc_ids + self.rf_ids + cl_ids

    def size_summary(self) -> dict:
        return {
            "ec": len(self.ec_candidates),
            "dc": len(self.dc_candidates),
            "rf": len(self.rf_atoms),
            "constraints": len(self.constraints),
        }


def _generality(groups: dict, kind: str, class_members: list) -> list[Constraint]:
    """Generality constraints within each group of (index, consequence mask).

    A class of k >= 2 members gets the next ``cl`` variable, appended to
    ``class_members``; a lone candidate stands for its own class.  Two
    classes whose sets are strictly nested get one pair constraint over the
    variables that stand for them.
    """
    constraints = []
    for members in groups.values():
        classes: dict = {}
        for i, mask in members:
            classes.setdefault(mask, []).append(VarId(i, kind))
        distinct = sorted(
            classes.items(), key=lambda kv: (kv[0].bit_count(), kv[1][0].index)
        )
        stands = []
        for _, vs in distinct:
            if len(vs) == 1:
                stands.append(vs[0])
                continue
            cl = VarId(len(class_members), CL)
            class_members.append(tuple(vs))
            stands.append(cl)
            constraints.append(Constraint(IFF_OR, (cl, *vs)))
            constraints.append(
                Constraint(LINEAR_LE, (*vs, cl), (1,) * len(vs) + (-1,))
            )
        for x, (a, _) in enumerate(distinct):
            for y in range(x + 1, len(distinct)):
                if a & ~distinct[y][0] == 0:
                    constraints.append(
                        Constraint(AT_MOST_ONE_OF_PAIR, (stands[x], stands[y]))
                    )
    return constraints


def build_model(
    encoders: list[CandidateClause],
    decoders: list[CandidateClause],
    kb: KnowledgeBase,
    gamma: Fraction,
) -> CopModel:
    """Compile the candidate pool against the training KB.

    ``gamma`` is the compression parameter; the bottleneck bounds the
    average number of latent facts per selected latent predicate by
    gamma * (average facts per input predicate).
    """
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    encoders = sorted(encoders, key=lambda c: latent_ordinal(c.clause.head.predicate))
    decoders = sorted(decoders, key=lambda c: c.key())
    if not encoders:
        raise InfeasibleError("no candidate encoder clauses survive generation")
    pool_index(encoders)
    index = pool_index(decoders)
    kb_mask = index.kb_mask_of(kb) if index else 0

    latent_of = {
        c.clause.head.predicate: i for i, c in enumerate(encoders)
    }
    for d in decoders:
        for lit in d.clause.body:
            if lit.predicate not in latent_of:
                raise ValueError(
                    f"decoder {d.clause} uses latent {lit.predicate} "
                    "with no defining encoder in the pool"
                )

    constraints: list[Constraint] = []
    warnings: list[str] = []

    # (a) bottleneck, scaled to integers over the common denominator.
    g = avg_facts_per_predicate(kb)
    bound = gamma * g
    ec_ids = [VarId(i, EC) for i in range(len(encoders))]
    coeffs = tuple(
        c.weight * bound.denominator - bound.numerator for c in encoders
    )
    constraints.append(Constraint(LINEAR_LE, tuple(ec_ids), coeffs))

    # (b) coupling: every encoder is defined by the decoders using its latent.
    dc_using: dict[int, list[int]] = {i: [] for i in range(len(encoders))}
    for j, d in enumerate(decoders):
        for lit in d.clause.body:
            ei = latent_of[lit.predicate]
            if j not in dc_using[ei]:
                dc_using[ei].append(j)
    for i in range(len(encoders)):
        constraints.append(
            Constraint(
                IFF_OR,
                (VarId(i, EC),) + tuple(VarId(j, DC) for j in dc_using[i]),
            )
        )

    # (c) generality over consequence classes.  Encoders compare argument
    # tuples; decoders with different heads are never substitutes.
    class_members: list[tuple[VarId, ...]] = []
    enc_groups: dict = {}
    for i, c in enumerate(encoders):
        enc_groups.setdefault(c.clause.head.predicate.arity, []).append(
            (i, c.mask)
        )
    dec_groups: dict = {}
    for j, d in enumerate(decoders):
        dec_groups.setdefault(d.clause.head.predicate, []).append((j, d.mask))
    constraints += _generality(enc_groups, EC, class_members)
    constraints += _generality(dec_groups, DC, class_members)

    # (d) coverage: at least one decoder per input predicate that has any.
    heads: dict[Predicate, list[int]] = {}
    for j, d in enumerate(decoders):
        heads.setdefault(d.clause.head.predicate, []).append(j)
    kb_predicates = {f.predicate for f in kb.facts}
    for p in sorted(kb.input_predicates, key=lambda p: (p.name, p.arity)):
        if p in heads:
            constraints.append(
                Constraint(AT_LEAST_ONE, tuple(VarId(j, DC) for j in heads[p]))
            )
        elif p in kb_predicates:
            warnings.append(
                f"no candidate decoder reconstructs {p}; "
                "coverage constraint skipped"
            )

    # (e) rf definitions and the objective layout.  Atoms are decoded from
    # their bits only here, and sorted by fact order.
    reconstructable: dict[int, list[int]] = {}
    union = 0
    for j, d in enumerate(decoders):
        union |= d.mask
        for bit in bit_positions(d.mask):
            reconstructable.setdefault(bit, []).append(j)
    rf = sorted(
        ((Fact(*index.atoms[bit]), bit) for bit in reconstructable),
        key=lambda fb: fact_order(fb[0]),
    )
    rf_atoms = tuple(atom for atom, _ in rf)
    rf_bits = tuple(bit for _, bit in rf)
    for i, bit in enumerate(rf_bits):
        constraints.append(
            Constraint(
                IFF_OR,
                (VarId(i, RF),) + tuple(VarId(j, DC) for j in reconstructable[bit]),
            )
        )
    rf_in_kb = tuple(bool(kb_mask >> bit & 1) for bit in rf_bits)
    offset = len(kb.facts) - (union & kb_mask).bit_count()

    return CopModel(
        ec_candidates=tuple(encoders),
        dc_candidates=tuple(decoders),
        rf_atoms=rf_atoms,
        rf_bits=rf_bits,
        rf_in_kb=rf_in_kb,
        constraints=tuple(constraints),
        class_members=tuple(class_members),
        constant_offset=offset,
        gamma=gamma,
        avg_facts=g,
        warnings=tuple(warnings),
    )


def check_assignment(model: CopModel, assignment: Assignment) -> list[Constraint]:
    """Every constraint the assignment violates; empty means feasible."""
    violations = []
    for con in model.constraints:
        values = [assignment[v] for v in con.vars]
        if con.form == IFF_OR:
            ok = values[0] == (1 if any(values[1:]) else 0)
        elif con.form == AT_MOST_ONE_OF_PAIR:
            ok = values[0] + values[1] <= 1
        elif con.form == AT_LEAST_ONE:
            ok = any(values)
        else:
            ok = sum(a * v for a, v in zip(con.coeffs, values)) <= 0
        if not ok:
            violations.append(con)
    return violations


def objective_value(model: CopModel, assignment: Assignment) -> int:
    """Missing plus false reconstructions under the assignment.

    Raises ConstraintViolationError for infeasible assignments: this is the
    solver-audit entry point, not a relaxation score.
    """
    violations = check_assignment(model, assignment)
    if violations:
        raise ConstraintViolationError(
            f"{len(violations)} violated constraint(s), first: {violations[0]}"
        )
    total = model.constant_offset
    for i, in_kb in enumerate(model.rf_in_kb):
        value = assignment[VarId(i, RF)]
        if in_kb:
            total += 1 - value
        else:
            total += value
    return total


def assignment_from_dc(model: CopModel, selected: set[int]) -> Assignment:
    """Extend a decoder selection to the full variable set.

    ec, rf and cl values follow their defining disjunctions, which is the
    unique completion satisfying them.
    """
    assignment: Assignment = {}
    for j in range(len(model.dc_candidates)):
        assignment[VarId(j, DC)] = 1 if j in selected else 0
    used_latents = {
        lit.predicate
        for j in selected
        for lit in model.dc_candidates[j].clause.body
    }
    for i, c in enumerate(model.ec_candidates):
        assignment[VarId(i, EC)] = 1 if c.clause.head.predicate in used_latents else 0
    for k, members in enumerate(model.class_members):
        assignment[VarId(k, CL)] = max(assignment[v] for v in members)
    reconstructed = 0
    for j in selected:
        reconstructed |= model.dc_candidates[j].mask
    for i, bit in enumerate(model.rf_bits):
        assignment[VarId(i, RF)] = reconstructed >> bit & 1
    return assignment


def induced_alp(model: CopModel, assignment: Assignment) -> Alp:
    """The ALP selected by the assignment's ec/dc variables."""
    enc_clauses = tuple(
        c.clause
        for i, c in enumerate(model.ec_candidates)
        if assignment[VarId(i, EC)] == 1
    )
    dec_clauses = tuple(
        c.clause
        for j, c in enumerate(model.dc_candidates)
        if assignment[VarId(j, DC)] == 1
    )
    encoder = LogicProgram(enc_clauses, ENCODER)
    decoder = LogicProgram(dec_clauses, DECODER)
    latents = encoder.head_predicates() | decoder.body_predicates()
    return Alp(encoder, decoder, frozenset(latents))


def dump_model(model: CopModel) -> str:
    """Line-oriented text form for external cross-checks."""
    lines = []
    for i, c in enumerate(model.ec_candidates):
        lines.append(f"var ec_{i} {c.clause}")
    for j, c in enumerate(model.dc_candidates):
        lines.append(f"var dc_{j} {c.clause}")
    for i, atom in enumerate(model.rf_atoms):
        lines.append(f"var rf_{i} {atom}")
    for k, members in enumerate(model.class_members):
        lines.append(f"var cl_{k} {' '.join(map(str, members))}")
    for con in model.constraints:
        if con.form == LINEAR_LE:
            terms = " ".join(
                f"{a:+d}*{v}" for a, v in zip(con.coeffs, con.vars)
            )
            lines.append(f"constraint linear_le {terms} <= 0")
        else:
            lines.append(f"constraint {con.form} {' '.join(map(str, con.vars))}")
    for i, in_kb in enumerate(model.rf_in_kb):
        lines.append(f"objective {'missing' if in_kb else 'false'} rf_{i}")
    lines.append(f"offset {model.constant_offset}")
    return "\n".join(lines) + "\n"
