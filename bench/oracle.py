"""Exact oracle: the compiled constraint model as a 0/1 integer program.

Each constraint family linearises directly:

  iff_or h <-> OR(b)   h >= b for every b, and h <= sum(b); h = 0 if no b
  at_most_one_of_pair  a + b <= 1
  at_least_one         sum(v) >= 1
  linear_le            sum(a_i * v_i) <= 0

The objective counts missing KB atoms (1 - rf) and false ones (rf) plus the
model's constant offset.  ``scipy.optimize.milp`` (HiGHS) solves it.  The
decoder selection of the optimum is then re-scored through ``alp``'s own
audit path, so a wrong linearisation cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    selection: frozenset[int]  # decoder indices set to 1
    rescored: int  # reconstruction loss of the induced program
    feasible: bool  # check_assignment found no violation


def solve_model(model) -> tuple[int, frozenset[int]]:
    """Optimum and its decoder selection; raises RuntimeError if HiGHS does
    not prove an optimum."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    from alp.model import AT_LEAST_ONE, AT_MOST_ONE_OF_PAIR, DC, IFF_OR, RF, VarId

    ids = model.all_ids()
    pos = {v: i for i, v in enumerate(ids)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lower: list[float] = []
    upper: list[float] = []

    def add(terms, lo, hi):
        r = len(lower)
        for col, coeff in terms:
            rows.append(r)
            cols.append(col)
            vals.append(coeff)
        lower.append(lo)
        upper.append(hi)

    for con in model.constraints:
        ps = [pos[v] for v in con.vars]
        if con.form == IFF_OR:
            head, body = ps[0], ps[1:]
            if not body:
                add([(head, 1)], 0, 0)
                continue
            for b in body:
                add([(head, 1), (b, -1)], 0, np.inf)
            add([(head, 1)] + [(b, -1) for b in body], -np.inf, 0)
        elif con.form == AT_MOST_ONE_OF_PAIR:
            add([(ps[0], 1), (ps[1], 1)], -np.inf, 1)
        elif con.form == AT_LEAST_ONE:
            add([(p, 1) for p in ps], 1, np.inf)
        else:
            add(list(zip(ps, con.coeffs)), -np.inf, 0)

    n = len(ids)
    cost = np.zeros(n)
    constant = model.constant_offset
    for i, in_kb in enumerate(model.rf_in_kb):
        p = pos[VarId(i, RF)]
        if in_kb:
            cost[p] = -1.0
            constant += 1
        else:
            cost[p] = 1.0
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(lower), n)).tocsr()
    res = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP not solved to optimality: {res.message}")
    x = np.round(res.x).astype(int)
    selection = frozenset(
        j for j in range(len(model.dc_candidates)) if x[pos[VarId(j, DC)]] == 1
    )
    return int(round(res.fun)) + constant, selection


def oracle(model, kb) -> OracleResult:
    """Solve the model exactly and re-score the optimum's decoder selection
    through ``assignment_from_dc``, ``check_assignment`` and
    ``reconstruction_loss``."""
    from alp.logic import reconstruction_loss
    from alp.model import assignment_from_dc, check_assignment, induced_alp

    optimum, selection = solve_model(model)
    assignment = assignment_from_dc(model, set(selection))
    feasible = not check_assignment(model, assignment)
    rescored = reconstruction_loss(induced_alp(model, assignment), kb)
    return OracleResult(optimum, selection, rescored, feasible)
