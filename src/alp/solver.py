"""Objective minimization: LNS around a complete branch-and-bound subsolver.

The subsolver builds its propagation tables once from the model's rows,
which already name variables by assignment position, and branches over
ec/dc positions only; rf positions follow from their defining disjunctions
by propagation.  The rf rows over one set of decoders, whose heads no other
row reads, are one row, as weighted MaxSAT solvers merge duplicate soft
clauses: its first rf position stands for the set and carries the set's
summed penalty, and the others, its aliases, sit in no row and take its
value in every complete assignment; fixing an alias fixes its
representative.  Propagation is event driven, in the manner of
watched-literal SAT solvers.  Setting a position only writes its value and
queues it.  The counts move when propagation pops the position onto the
trail, and move back on backtracking: every iff_or and at_least_one
constraint counts its body positions at 1 and those not yet counted, the
bound the decided rf penalties, the bottleneck the least sum it can still
reach.  Such an rf head is in no body, pair or bottleneck term, so its row
counts it where it sets it instead of queuing it.  The pop fires only the
rules of its event.  A body member at 1 sets the head to 1; in a
consequence class, whose iff_or carries the class's at-most-one row, a
second member at 1 is a conflict and the other members go to 0.  A body
member at 0 sets the head to 0 once no member is at 1 or uncounted, and
under a head at 1 sets the one member left open to 1.  A head at 0 sets its
open members to 0; a head at 1 with one member uncounted and none at 1 sets
that member to 1.  A head's pop needs no conflict test of its own: a member
counted against it already failed at its own pop.  A position at 1 sets its
neighbours in the conflict graph of the pairs between nested classes to 0,
and a rise of the bottleneck's sum zeroes every open term that would exceed
it.  The root forces the head of an empty iff_or to 0 and the member of a
one-member at_least_one to 1, and makes one bottleneck pass.  Unit
propagation reaches one fixpoint in any order, so the search tree does not
depend on the order of the queue.  Nodes are pruned against the incumbent
using the decided rf penalties plus the constant offset, which never
overestimates any completion.  Variable order is static by descending
constraint degree, in which a generality constraint counts the candidate
pairs it stands for, overridden by the variable that most recently caused a
failure (last conflict); the incumbent's value is tried first.

The seed is the subsolver's first complete assignment when it tries the
values of a greedy decoder selection, read from its tables, first.
Propagation never contradicts a feasible assignment, so a feasible greedy
selection is the seed as it is, reached without a failure; an infeasible
one is repaired by the search.
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
from collections import namedtuple
from collections.abc import Callable
from functools import cache
from itertools import chain

from .errors import AlpError, InfeasibleError
from .kb import checked_namedtuple
from .model import (
    AT_LEAST_ONE,
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


class SearchConfig(checked_namedtuple(
    "SearchConfig", "alpha beta iterations fail_limit time_limit seed",
    (70.0, 90.0, 500, 10_000, 600.0, 0),
)):
    """alpha/beta are percentages in [0, 100]; the seed fixes the structure
    sampling stream, so (model, config) fully determines the result."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.alpha <= 100 or not 0 <= self.beta <= 100:
            raise ValueError("alpha and beta must lie in [0, 100]")
        if self.iterations < 1 or self.fail_limit < 1:
            raise ValueError("iterations and fail_limit must be >= 1")
        if not 0 <= self.time_limit < math.inf:
            raise ValueError("time_limit must be finite and >= 0")
        return self


class Solution(namedtuple("Solution", "assignment objective iteration_found proven_optimal")):
    """An assignment, its objective, the LNS iteration that found it and
    whether it is proven optimal."""

    __slots__ = ()


class ExactResult(namedtuple("ExactResult", "best objective complete failures")):
    """(best assignment or None, its objective or None, complete, failures).
    complete=True means the subproblem was searched exhaustively; a None
    best then means no completion beats the given bound (or none exists)."""

    __slots__ = ()


class _Searcher:
    """Propagation tables over one model's positions, for repeated search.

    Positions are the model's assignment positions (``CopModel.rows``
    holds each constraint's), plus one more that is always 1; the searcher
    holds no ``VarId``.  Each iff_or row keeps its head position and body
    tuple; an at_least_one row is a body whose head is the always-1
    position.  A class's at-most-one row is left to its iff_or.  Each
    position lists the rows it heads (``head_of``) and the rows whose body
    holds it (``body_of``): the rules its pop fires at 0 or 1, as the
    module docstring lists them.  The rows from ``rf_rows`` on are the
    weighted rf rows, one per decoder set; ``source`` maps each alias to
    its representative and every other position to itself.  The generality
    pairs become a conflict adjacency list per position, the bottleneck one
    ``coeff`` per position.  ``solve`` moves a row's counts when it pops a
    body member.
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
        coeff = [0] * n
        rows: list[tuple[int, tuple[int, ...], bool]] = []  # (head, body, of_class)
        rf_rows: list[tuple[int, ...]] = []
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
            h = ps[0]
            # A class's own iff_or; an at_least_one may start with a class.
            of_class = form == IFF_OR and h in members
            weight = len(members[h]) - 1 if of_class else 1
            for p in ps:
                degree[p] += weight
            if form == LINEAR_LE:
                linear += 1
                if linear > 1:
                    raise ValueError("the search expects one linear_le constraint")
                for p, a in zip(ps, coeffs):
                    coeff[p] = a
            elif form == AT_LEAST_ONE:  # a body under the constant-1 position
                rows.append((n, ps, False))
            elif first[RF] <= h < first[CL]:
                rf_rows.append(ps)
            else:
                rows.append((h, ps[1:], of_class))
        # penalty[p][v]: the objective term of position p at value v.
        self.penalty = penalty = [(0, 0)] * n
        for p, in_kb in enumerate(model.rf_in_kb, first[RF]):
            penalty[p] = (1, 0) if in_kb else (0, 1)
        # Every row adds to the degree of its positions, so an rf position
        # of degree 1 sits in its own row only: a pure objective term.  The
        # pure terms of one body are one weighted row, after every other
        # row: its first position stands for them with their summed
        # penalty, and the others, its aliases, sit in no row and take its
        # value (``source``).
        groups: dict[tuple[int, ...], list[int]] = {}
        for ps in rf_rows:
            if degree[ps[0]] == 1:
                groups.setdefault(ps[1:], []).append(ps[0])
            else:
                rows.append((ps[0], ps[1:], False))
        self.rf_rows = len(rows)
        self.source = source = list(range(n))
        for body, group in groups.items():
            h = group[0]
            rows.append((h, body, False))
            in_kb = sum(penalty[p][0] for p in group)
            penalty[h] = (in_kb, len(group) - in_kb)
            for p in group[1:]:
                source[p] = h
        body_of: list[list[int]] = [[] for _ in range(n)]
        head_of: list[list[int]] = [[] for _ in range(n)]
        for c, (h, body, _) in enumerate(rows):
            if h < n:
                head_of[h].append(c)
            for p in body:
                body_of[p].append(c)
        heads = [h for h, _, _ in rows]
        bodies = [body for _, body, _ in rows]
        at_most_one = [of_class for _, _, of_class in rows]
        self.partners = partners
        self.coeff = coeff
        self.body_of = body_of
        self.head_of = head_of
        self.heads = heads
        self.bodies = bodies
        self.body_sizes = [len(body) for body in bodies]
        self.at_most_one = at_most_one
        # Unassigned, only an empty iff_or (head to 0) or a one-member
        # at_least_one (member to 1) acts; the rest wait for an event.  Each
        # is kept as the (position, value) it forces.
        self.root_checks = [(heads[c], 0) for c, body in enumerate(bodies) if not body]
        self.root_checks += [
            (body[0], 1)
            for c, body in enumerate(bodies)
            if heads[c] == n and len(body) == 1
        ]
        # The least sum the bottleneck can reach with nothing assigned, what
        # position p at value v adds to it, and its positive terms, largest
        # first.
        self.linear_floor = sum(a for a in coeff if a < 0)
        self.linear_rise = [(0, a) if a > 0 else (-a, 0) for a in coeff]
        self.linear_desc = sorted(
            ((a, p) for p, a in enumerate(coeff) if a > 0), key=lambda t: -t[0]
        )
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
        partners, body_of, head_of = self.partners, self.body_of, self.head_of
        heads, bodies, at_most_one = self.heads, self.bodies, self.at_most_one
        linear_desc, linear_rise = self.linear_desc, self.linear_rise
        penalty, rf_rows = self.penalty, self.rf_rows
        static_order = self.static_order
        values = [UNASSIGNED] * self.n + [1]  # + the always-1 position
        ones = [0] * len(heads)  # counted body positions at 1
        free = self.body_sizes[:]  # body positions not counted
        trail: list[int] = []  # the counted positions
        queue: list[int] = []  # set positions that wait to be counted
        push = queue.append
        lb = self.model.constant_offset  # counted objective terms
        linear_sum = self.linear_floor  # least bottleneck sum still reachable

        def undo(mark: int) -> None:
            """Unsets the queue, then every position counted after ``mark``."""
            nonlocal lb, linear_sum
            for p in queue:
                values[p] = UNASSIGNED
            queue.clear()
            for p in trail[mark:]:
                v = values[p]
                values[p] = UNASSIGNED
                lb -= penalty[p][v]
                linear_sum -= linear_rise[p][v]
                for c in body_of[p]:
                    free[c] += 1
                    ones[c] -= v
            del trail[mark:]

        def fill(c: int, v: int) -> None:
            """Sets every open body position of constraint c to v."""
            for q in bodies[c]:
                if values[q] == UNASSIGNED:
                    values[q] = v
                    push(q)

        def check_linear() -> bool:
            """Zeroes every free term that would exceed the bottleneck."""
            if linear_sum > 0:
                return True
            for a, q in linear_desc:
                if a + linear_sum <= 0:
                    break
                if values[q] == UNASSIGNED:
                    values[q] = 0
                    push(q)
            return False

        def propagate() -> bool:
            """Counts queued positions until none is left, each firing the
            rules of its event; True on conflict.  A conflict returns only
            once the body loop has counted every row of its position, so
            ``undo`` reverts exactly what was counted."""
            nonlocal lb, linear_sum
            pop, count = queue.pop, trail.append
            failed = False
            while queue:
                p = pop()
                v = values[p]
                count(p)
                lb += penalty[p][v]
                if linear_rise[p][v]:
                    linear_sum += linear_rise[p][v]
                    failed = check_linear()
                if v:
                    for q in partners[p]:
                        if values[q] == 1:
                            failed = True
                        elif values[q] == UNASSIGNED:
                            values[q] = 0
                            push(q)
                    for c in body_of[p]:
                        free[c] -= 1
                        ones[c] += 1
                        h = heads[c]
                        if values[h] == UNASSIGNED:
                            values[h] = 1
                            if c < rf_rows:
                                push(h)
                            else:  # an rf head is counted where it is set
                                count(h)
                                lb += penalty[h][1]
                        elif not values[h]:
                            failed = True
                        if at_most_one[c]:
                            if ones[c] > 1:
                                failed = True
                            elif free[c]:
                                fill(c, 0)
                    if failed:
                        return True
                    for c in head_of[p]:
                        if free[c] == 1 and not ones[c]:
                            fill(c, 1)
                else:
                    for c in body_of[p]:
                        free[c] -= 1
                        if not ones[c] and free[c] < 2:
                            h = heads[c]
                            if free[c]:
                                if values[h] == 1:
                                    fill(c, 1)
                            elif values[h] == 1:
                                failed = True
                            elif values[h] == UNASSIGNED:
                                values[h] = 0
                                if c < rf_rows:
                                    push(h)
                                else:
                                    count(h)
                                    lb += penalty[h][0]
                    if failed:
                        return True
                    for c in head_of[p]:
                        if free[c]:
                            fill(c, 0)
            return False

        source = self.source
        # An alias is fixed through its representative.
        seeds = ((source[p], v) for p, v in fixed.items())
        for p, v in chain(seeds, self.root_checks):
            if values[p] == 1 - v:
                return ExactResult(None, None, True, 1)
            if values[p] == UNASSIGNED:
                values[p] = v
                push(p)
        if check_linear() or propagate():
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
            """Sets p = v and propagates; True on conflict, counted as a
            failure at p."""
            nonlocal failures, last_conflict
            values[p] = v
            push(p)
            if not propagate():
                return False
            failures += 1
            last_conflict = p
            return True

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
                    # All ec/dc decided; propagation has settled every rf
                    # row, and each alias reads its representative.
                    best = list(map(values.__getitem__, source))
                    assert UNASSIGNED not in best
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


def _greedy_selection(searcher: _Searcher) -> Assignment:
    """The decoder selection the seed's search tries first, read from the
    searcher's tables: the least-corrupt decoder of each coverage row, by
    its rf rows.  While the bottleneck, summed over the encoders the
    selection uses, is violated, bans the heaviest of them and re-covers the
    rows without it.  ``assignment_from_dc`` completes the selection once;
    it may still break a generality pair or a coverage row.
    """
    model, n = searcher.model, searcher.n
    heads, bodies, body_of = searcher.heads, searcher.bodies, searcher.body_of
    coeff, penalty = searcher.coeff, searcher.penalty
    dc_first, rf_first, cl_first = model.first[DC], model.first[RF], model.first[CL]
    coverage = [body for c, body in enumerate(bodies) if heads[c] == n]
    uses = {p: {h for h in map(heads.__getitem__, body_of[p]) if h < dc_first}
            for p in range(dc_first, rf_first)}

    @cache
    def corruption(p: int) -> tuple:
        """Share of false atoms, then more true atoms, then text order,
        summed over the weights of the decoder's rf rows.  The share is a
        float, yet orders as the exact fraction would: a quotient of ints is
        correctly rounded, so equal fractions give equal floats, and two
        distinct ones with denominators below 2**26 differ by more than
        2**-52, while each rounds by at most 2**-54 in [0, 1]."""
        true = false = 0
        for h in map(heads.__getitem__, body_of[p]):
            if rf_first <= h < cl_first:
                t, f = penalty[h]
                true += t
                false += f
        return (false / (true + false), -true, p)

    banned: set[int] = set()
    selected: set[int] = set()
    # A pass over the bottleneck bans an encoder that the selection still
    # uses, so by the last pass the bottleneck holds or nothing is selected.
    for _ in range(dc_first + 1):
        selected = {p for p in selected if banned.isdisjoint(uses[p])}
        for body in coverage:
            if selected.isdisjoint(body):
                ps = [p for p in body if banned.isdisjoint(uses[p])]
                if ps:
                    selected.add(min(ps, key=corruption))
        used = set().union(*[uses[p] for p in selected])
        if sum(coeff[i] for i in used) <= 0:
            break
        banned.add(max(used, key=lambda i: (coeff[i], i)))
    return assignment_from_dc(model, {p - dc_first for p in selected})


def _first_solution(
    searcher: _Searcher, fail_limit: int, deadline: float
) -> Assignment:
    """The LNS seed: the subsolver's first solution under the greedy
    selection's values, or InfeasibleError when the search proves there is
    none or stops at a limit first."""
    greedy = _greedy_selection(searcher)
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
    listed = None  # the incumbent whose position lists are built
    stagnation = 0
    for iteration in range(1, config.iterations + 1):
        if time.monotonic() > deadline:
            break
        alpha = config.alpha
        if stagnation >= _STAGNATION_WINDOW:
            alpha = config.alpha / 2
            stagnation = 0
        if listed is not incumbent:
            listed, values = incumbent, incumbent.assignment
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
        if not fixed and result.complete or incumbent.objective == floor:
            return incumbent._replace(proven_optimal=True)
    return incumbent


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

