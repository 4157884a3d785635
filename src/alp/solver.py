"""Objective minimization: LNS around a complete branch-and-bound subsolver.

The subsolver builds its propagation tables once from the model's rows,
which already name variables by assignment position, and branches over
ec/dc positions only; rf positions follow from their defining disjunctions
by propagation.  Propagation is counter based, in the manner of
watched-literal SAT solvers: every iff_or and at_least_one constraint keeps
how many of its body positions are 1 and how many are unassigned, and the
bottleneck keeps the least sum it can still reach.  The counters move on
assignment and move back on backtracking, so checking a constraint costs
O(1) and a body is scanned only when a value is forced.  A consequence
class's iff_or also carries its at-most-one row: two members at 1 are a
conflict, and one member at 1 sets the others to 0.  The pairs between
nested classes form a conflict graph: setting a position to 1 sets its
neighbours to 0.  Nodes are pruned against the incumbent using the decided
rf penalties plus the constant offset, which never overestimates any
completion.  Variable order is static by descending constraint degree, in
which a generality constraint counts the candidate pairs it stands for,
overridden by the variable that most recently caused a failure (last
conflict); the incumbent's value is tried first.

The seed is the subsolver's first complete assignment when it tries the
values of a greedy decoder selection first.  Propagation never contradicts a
feasible assignment, so a feasible greedy selection is the seed as it is,
reached without a failure; an infeasible one is repaired by the search.
Each LNS iteration then freezes a share of the incumbent's structure:
alpha % of the active decoder variables stay 1 and beta % of the inactive
encoder variables stay 0; everything else is searched exactly.  Every
search, the seed's included, stops at the run's fail limit and at its
deadline (the time limit); reaching the deadline returns the best solution
so far.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import AlpError, InfeasibleError
from .kb import predicate_order
from .model import (
    AT_MOST_ONE_OF_PAIR,
    Assignment,
    CL,
    CopModel,
    DC,
    IFF_OR,
    LINEAR_LE,
    RF,
    assignment_from_dc,
    objective_value,
)

UNASSIGNED = -1

_STAGNATION_WINDOW = 25


@dataclass(frozen=True)
class SearchConfig:
    """alpha/beta are percentages in [0, 100]; the seed fixes the structure
    sampling stream, so (model, config) fully determines the result."""

    alpha: float = 70.0
    beta: float = 90.0
    iterations: int = 500
    fail_limit: int = 10_000
    time_limit: float = 600.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.alpha <= 100 or not 0 <= self.beta <= 100:
            raise ValueError("alpha and beta must lie in [0, 100]")
        if self.iterations < 1 or self.fail_limit < 1:
            raise ValueError("iterations and fail_limit must be >= 1")
        if not 0 <= self.time_limit < math.inf:
            raise ValueError("time_limit must be finite and >= 0")


@dataclass(frozen=True)
class Solution:
    assignment: Assignment
    objective: int
    iteration_found: int
    proven_optimal: bool


@dataclass(frozen=True)
class ExactResult:
    """complete=True means the subproblem was searched exhaustively; a None
    best then means no completion beats the given bound (or none exists)."""

    best: Assignment | None
    objective: int | None
    complete: bool
    failures: int


class _Searcher:
    """Propagation tables over one model's positions, for repeated search.

    Positions are the model's assignment positions (``CopModel.rows``
    holds each constraint's), plus one more that is always 1; the searcher
    holds no ``VarId``.  Each iff_or row keeps its head position and body
    tuple; an at_least_one row is a body whose head is the always-1
    position.  A class's at-most-one row is left to its iff_or.  The
    generality pairs become a conflict adjacency list per position, the
    bottleneck one coefficient per position.
    """

    def __init__(self, model: CopModel):
        self.model = model
        first = model.first
        self.n = n = first[CL] + len(model.class_positions)
        # The positions each class position stands for.
        members = {
            first[CL] + k: ps for k, ps in enumerate(model.class_positions)
        }
        degree = [0] * n
        partners: list[list[int]] = [[] for _ in range(n)]
        body_of: list[list[int]] = [[] for _ in range(n)]
        watch: list[list[int]] = [[] for _ in range(n)]
        heads: list[int] = []
        bodies: list[tuple[int, ...]] = []
        at_most_one: list[bool] = []
        coeff = [0] * n
        linear = 0
        for form, ps, coeffs in model.rows:
            if form == AT_MOST_ONE_OF_PAIR:
                a, b = ps
                partners[a].append(b)
                partners[b].append(a)
                # The degree counts the candidate pairs the constraint stands for.
                for x, y in ((a, b), (b, a)):
                    for m in members.get(x, (x,)):
                        degree[m] += len(members.get(y, (y,)))
                continue
            if form == LINEAR_LE and ps[-1] in members:
                continue  # a class's at-most-one, carried by its iff_or
            weight = len(members[ps[0]]) - 1 if ps[0] in members else 1
            for p in ps:
                degree[p] += weight
            if form == LINEAR_LE:
                linear += 1
                if linear > 1:
                    raise ValueError("the search expects one linear_le constraint")
                for p, a in zip(ps, coeffs):
                    coeff[p] = a
                continue
            c = len(heads)
            at_most_one.append(ps[0] in members)
            if form == IFF_OR:
                heads.append(ps[0])
                watch[ps[0]].append(c)
                ps = ps[1:]
            else:  # at_least_one: a body whose head is the constant-1 position
                heads.append(n)
            bodies.append(tuple(ps))
            for p in ps:
                body_of[p].append(c)
                watch[p].append(c)
        self.partners = partners
        self.body_of = body_of
        self.watch = watch
        self.heads = heads
        self.bodies = bodies
        self.at_most_one = at_most_one
        # The least sum the bottleneck can reach with nothing assigned, what
        # position p at value v adds to it, and its positive terms, largest
        # first.
        self.linear_floor = sum(a for a in coeff if a < 0)
        self.linear_rise = [(0, a) if a > 0 else (-a, 0) for a in coeff]
        self.linear_desc = sorted(
            ((a, p) for p, a in enumerate(coeff) if a > 0), key=lambda t: -t[0]
        )
        # penalty[p][v]: the objective term of position p at value v.
        self.penalty = [(0, 0)] * n
        for i, in_kb in enumerate(model.rf_in_kb):
            self.penalty[first[RF] + i] = (1, 0) if in_kb else (0, 1)
        self.static_order = sorted(range(first[RF]), key=lambda p: (-degree[p], p))

    def solve(
        self,
        fixed: dict[int, int],
        fail_limit: int,
        incumbent_bound: float,
        incumbent: Assignment | None = None,
        deadline: float = math.inf,
        first: bool = False,
    ) -> ExactResult:
        """Depth-first branch and bound below ``incumbent_bound``.

        ``fixed`` maps positions to values; each branch tries the
        incumbent's value first, or 0 without one.  ``deadline`` is a
        ``time.monotonic`` instant, polled every 1,024 nodes; reaching it
        returns the best completion so far as incomplete.  With ``first``
        the search returns at its first complete assignment, as incomplete.
        """
        partners, body_of, watch = self.partners, self.body_of, self.watch
        heads, bodies, at_most_one = self.heads, self.bodies, self.at_most_one
        linear_desc, linear_rise = self.linear_desc, self.linear_rise
        penalty = self.penalty
        static_order = self.static_order
        values = [UNASSIGNED] * self.n + [1]  # + the always-1 position
        ones = [0] * len(heads)
        free = [len(body) for body in bodies]
        trail: list[int] = []
        queue: list[int] = []  # assigned positions whose constraints wait
        lb = self.model.constant_offset  # decided objective terms so far
        linear_sum = self.linear_floor  # least bottleneck sum still reachable

        def assign(p: int, v: int) -> None:
            nonlocal lb, linear_sum
            values[p] = v
            trail.append(p)
            queue.append(p)
            lb += penalty[p][v]
            linear_sum += linear_rise[p][v]
            for c in body_of[p]:
                free[c] -= 1
                ones[c] += v

        def undo(mark: int) -> None:
            nonlocal lb, linear_sum
            while len(trail) > mark:
                p = trail.pop()
                v = values[p]
                values[p] = UNASSIGNED
                lb -= penalty[p][v]
                linear_sum -= linear_rise[p][v]
                for c in body_of[p]:
                    free[c] += 1
                    ones[c] -= v

        def check(c: int) -> bool:
            """Propagates head <-> OR(body) of constraint c; True on conflict."""
            h = heads[c]
            vh = values[h]
            if ones[c]:
                if vh == 0:
                    return True
                if vh == UNASSIGNED:
                    assign(h, 1)
                if at_most_one[c]:
                    if ones[c] > 1:
                        return True
                    if free[c]:
                        for q in bodies[c]:
                            if values[q] == UNASSIGNED:
                                assign(q, 0)
            elif not free[c]:
                if vh == 1:
                    return True
                if vh == UNASSIGNED:
                    assign(h, 0)
            elif vh == 0:
                for q in bodies[c]:
                    if values[q] == UNASSIGNED:
                        assign(q, 0)
            elif vh == 1 and free[c] == 1:
                for q in bodies[c]:
                    if values[q] == UNASSIGNED:
                        assign(q, 1)
                        break
            return False

        def check_linear() -> bool:
            """Zeroes every free term that would exceed the bottleneck."""
            if linear_sum > 0:
                return True
            for a, q in linear_desc:
                if a + linear_sum <= 0:
                    break
                if values[q] == UNASSIGNED:
                    assign(q, 0)
            return False

        def propagate() -> bool:
            """Runs the queue to the fixpoint; True on conflict."""
            while queue:
                p = queue.pop()
                v = values[p]
                if v:
                    for q in partners[p]:
                        vq = values[q]
                        if vq == 1:
                            return True
                        if vq == UNASSIGNED:
                            assign(q, 0)
                if linear_rise[p][v] and check_linear():
                    return True
                for c in watch[p]:
                    if check(c):
                        return True
            return False

        for p, v in fixed.items():
            assign(p, v)
        if (
            check_linear()
            or any(check(c) for c in range(len(heads)))
            or propagate()
        ):
            return ExactResult(None, None, True, 1)

        best: Assignment | None = None
        best_obj = incumbent_bound
        failures = 0
        nodes = 0
        last_conflict: int | None = None
        first_values = incumbent if incumbent is not None else [0] * self.n
        # static_order[:scan] is assigned; each frame keeps the scan of the
        # state it backtracks to.
        scan = 0
        # frames: [position, value left to try or None, trail length, scan]
        frames: list[list] = []

        def next_var() -> int | None:
            nonlocal scan
            if (
                last_conflict is not None
                and values[last_conflict] == UNASSIGNED
            ):
                return last_conflict
            while scan < len(static_order):
                p = static_order[scan]
                if values[p] == UNASSIGNED:
                    return p
                scan += 1
            return None

        def branch(p: int, v: int) -> bool:
            """Sets p = v and propagates; True on conflict."""
            queue.clear()
            assign(p, v)
            return propagate()

        def expired() -> bool:
            nonlocal nodes
            nodes += 1
            return not nodes & 1023 and time.monotonic() > deadline

        def result(complete: bool) -> ExactResult:
            return ExactResult(
                best, best_obj if best is not None else None, complete, failures
            )

        while True:
            conflict = lb >= best_obj
            if not conflict:
                p = next_var()
                if p is None:
                    # All ec/dc decided; propagation has settled every rf.
                    assert UNASSIGNED not in values
                    best = values[:-1]
                    best_obj = lb
                    if first:
                        return result(False)
                    conflict = True  # keep searching for strictly better
                else:
                    if expired():
                        return result(False)
                    v = first_values[p]
                    frames.append([p, 1 - v, len(trail), scan])
                    conflict = branch(p, v)
                    if conflict:
                        failures += 1
                        last_conflict = p
            else:
                failures += 1

            while conflict:
                if failures >= fail_limit:
                    return result(False)
                if not frames:
                    return result(True)
                frame = frames[-1]
                p, v, mark, scan = frame
                undo(mark)
                if v is None:
                    frames.pop()
                    continue
                if expired():
                    return result(False)
                frame[1] = None
                conflict = branch(p, v)
                if conflict:
                    failures += 1
                    last_conflict = p


def _bottleneck_excess(model: CopModel, assignment: Assignment) -> int:
    form, ps, coeffs = model.rows[0]
    assert form == LINEAR_LE
    return sum(a * assignment[p] for a, p in zip(coeffs, ps))


def _greedy_selection(model: CopModel) -> Assignment:
    """The decoder selection the seed's search tries first.

    Picks the least-corrupt decoder per input predicate, then sheds the
    heaviest encoders (and their decoders) while the bottleneck is violated,
    re-covering predicates with lighter alternatives where possible.  The
    selection may still break a generality pair or a coverage row.
    """
    dc_heads = [c.head.predicate for c in model.dc_candidates]
    in_kb = sum(1 << b for b, known in zip(model.rf_bits, model.rf_in_kb) if known)
    true_counts = [(c.mask & in_kb).bit_count() for c in model.dc_candidates]
    by_head: dict = {}
    for j, p in enumerate(dc_heads):
        by_head.setdefault(p, []).append(j)
    heads = sorted(by_head, key=predicate_order)
    banned_latents: set = set()

    def usable(j: int) -> bool:
        return not any(
            l.predicate in banned_latents for l in model.dc_candidates[j].body
        )

    def corruption(j: int):
        """Share of false atoms, then more true atoms, then the clause text."""
        size = model.dc_candidates[j].weight
        true = true_counts[j]
        return (Fraction(size - true, size), -true, model.dc_candidates[j].text)

    selected: set[int] = set()
    # A pass over the bottleneck bans a latent that the selection still
    # uses, so by the last pass the bottleneck holds or nothing is selected.
    for _ in range(len(model.ec_candidates) + 1):
        selected = {j for j in selected if usable(j)}
        covered = {dc_heads[j] for j in selected}
        for p in heads:
            if p not in covered:
                js = [j for j in by_head[p] if usable(j)]
                if js:
                    selected.add(min(js, key=corruption))
        assignment = assignment_from_dc(model, selected)
        if _bottleneck_excess(model, assignment) <= 0:
            break
        heaviest = max(
            (i for i in range(len(model.ec_candidates)) if assignment[i] == 1),
            key=lambda i: (model.ec_candidates[i].weight, i),
        )
        banned_latents.add(model.ec_candidates[heaviest].head.predicate)
    return assignment


def _first_solution(
    searcher: _Searcher, fail_limit: int, deadline: float
) -> Assignment:
    """The LNS seed: the subsolver's first solution under the greedy
    selection's values, or InfeasibleError when the search proves there is
    none or stops at a limit first."""
    greedy = _greedy_selection(searcher.model)
    result = searcher.solve({}, fail_limit, math.inf, greedy, deadline, first=True)
    if result.best is None:
        detail = "infeasible" if result.complete else "no seed found within limits"
        raise InfeasibleError(f"cannot construct a feasible seed: {detail}")
    return result.best


ProgressFn = Callable[[int, int, float, int, int], None]


def lns_minimize(
    model: CopModel,
    config: SearchConfig,
    progress: ProgressFn | None = None,
) -> Solution:
    """Large-neighbourhood search; see the module docstring for the scheme.

    Every incumbent is audited once by ``objective_value``, which checks
    each constraint and recomputes the objective; a violation raises
    ConstraintViolationError and a search objective that disagrees with the
    audit raises AlpError.  The result is proven optimal when the objective
    reaches the constant offset, below which no assignment scores, or a
    nothing-fixed exact pass ran to completion within its limits.
    """
    start = time.monotonic()
    deadline = start + config.time_limit
    searcher = _Searcher(model)
    seed_assignment = _first_solution(searcher, config.fail_limit, deadline)
    objective = objective_value(model, seed_assignment)
    floor = model.constant_offset
    incumbent = Solution(seed_assignment, objective, 0, objective == floor)
    _emit(progress, 0, incumbent, start, model)
    if incumbent.proven_optimal:
        return incumbent

    rng = random.Random(config.seed)
    ec_positions = range(model.first[DC])
    dc_positions = range(model.first[DC], model.first[RF])
    stagnation = 0
    proven = False
    for iteration in range(1, config.iterations + 1):
        if time.monotonic() > deadline:
            break
        alpha = config.alpha
        if stagnation >= _STAGNATION_WINDOW:
            alpha = config.alpha / 2
            stagnation = 0
        values = incumbent.assignment
        active_dc = [p for p in dc_positions if values[p] == 1]
        inactive_ec = [p for p in ec_positions if values[p] == 0]
        fixed: dict[int, int] = {}
        for p in rng.sample(active_dc, int(len(active_dc) * alpha / 100)):
            fixed[p] = 1
        for p in rng.sample(inactive_ec, int(len(inactive_ec) * config.beta / 100)):
            fixed[p] = 0
        result = searcher.solve(
            fixed,
            config.fail_limit,
            incumbent.objective,
            incumbent.assignment,
            deadline,
        )
        improved = (
            result.best is not None and result.objective < incumbent.objective
        )
        if improved:
            audited = objective_value(model, result.best)
            if audited != result.objective:
                raise AlpError(
                    f"search objective {result.objective} disagrees with "
                    f"the audited objective {audited}"
                )
            incumbent = Solution(result.best, result.objective, iteration, False)
            _emit(progress, iteration, incumbent, start, model)
            stagnation = 0
        else:
            stagnation += 1
        if not fixed and result.complete:
            proven = True
        if incumbent.objective == floor:
            proven = True
        if proven:
            break
    return Solution(
        incumbent.assignment,
        incumbent.objective,
        incumbent.iteration_found,
        proven,
    )


def _emit(
    progress: ProgressFn | None,
    iteration: int,
    incumbent: Solution,
    start: float,
    model: CopModel,
):
    if progress is None:
        return
    elapsed_ms = (time.monotonic() - start) * 1000.0
    values, first = incumbent.assignment, model.first
    n_ec = sum(values[: first[DC]])
    n_dc = sum(values[first[DC] : first[RF]])
    progress(iteration, incumbent.objective, elapsed_ms, n_ec, n_dc)

