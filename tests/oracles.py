"""Independent brute-force oracle for the transportation problem.

Every vertex of the transportation polytope is the basic solution of a
spanning tree of the complete bipartite graph over supply and demand nodes.
For small instances all spanning trees are enumerated once per shape; each
tree's basic flows are a fixed linear map of the marginals, so evaluating an
instance is a batched matrix product over all trees followed by a
feasibility mask and a cost minimum. This is deliberately independent of the
LP solver used by the package.

A dense `linprog` solve, which shares neither the package's HiGHS models
nor its warm starts, is the reference for the exact optimum of any size:
its integral optimal flows are summed arc by arc as exact fractions, and
any plan's cost is summed the same way.

A plain per-pair loop builds 2D and 4D minutiae histograms as the reference
for the vectorised histogram builders, and a plain grid loop, which solves
every EMD at every cost grid point, is the reference for the EMDs that
training shares between grid points.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from minhist.transport import MASS_SCALE, CostParams, _integer_marginals, emd


@lru_cache(maxsize=8)
def _tree_tables(m: int, n: int):
    """All spanning trees of K_{m,n} as (edge index array, inverse basis map)."""
    edges = [(i, j) for i in range(m) for j in range(n)]
    k = m + n - 1
    combo_list = []
    inverse_list = []
    for combo in itertools.combinations(range(len(edges)), k):
        parent = list(range(m + n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for ei in combo:
            i, j = edges[ei]
            ra, rb = find(i), find(m + j)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        # Square system: m supply equations plus the first n-1 demand equations.
        basis = np.zeros((k, k))
        for col, ei in enumerate(combo):
            i, j = edges[ei]
            basis[i, col] = 1.0
            if j < n - 1:
                basis[m + j, col] = 1.0
        combo_list.append(combo)
        inverse_list.append(np.linalg.inv(basis))
    combos = np.array(combo_list)  # (T, k) flat edge indices
    inverses = np.stack(inverse_list)  # (T, k, k)
    return combos, inverses


def brute_force_transport_cost(supply, demand, cost) -> float:
    """Minimal transportation cost by exhaustive vertex enumeration."""
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = len(supply), len(demand)
    assert cost.shape == (m, n)
    assert abs(supply.sum() - demand.sum()) <= 1e-9 * max(1.0, supply.sum())
    combos, inverses = _tree_tables(m, n)
    b = np.concatenate([supply, demand[: n - 1]])
    flows = inverses @ b  # (T, k)
    feasible = (flows >= -1e-9).all(axis=1)
    edge_costs = cost.ravel()[combos]  # (T, k)
    totals = (flows * edge_costs).sum(axis=1)
    return float(totals[feasible].min())


def linprog_transport_cost(supply, demand, cost) -> float:
    """The correctly rounded optimum of the dense transportation problem.

    The masses are scaled to integers as the package scales them
    (_integer_marginals), and the LP is solved by `linprog` on every
    (source, sink) pair. Its optimal vertex is integral, so the flows are
    snapped to integers and sum(cost * flow) / MASS_SCALE is taken in exact
    fractions, one arc at a time, and rounded once.
    """
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    marginals = _integer_marginals(supply, demand)
    if marginals is None:
        return 0.0
    rows, s_int, cols, d_int = marginals
    m, n = len(rows), len(cols)
    # row i sums the flows out of source i, row m + j those into sink j
    a_eq = sparse.vstack([sparse.kron(sparse.eye(m), np.ones((1, n))),
                          sparse.kron(np.ones((1, m)), sparse.eye(n))])
    sub_cost = cost[np.ix_(rows, cols)].ravel()
    res = linprog(sub_cost, A_eq=a_eq, b_eq=np.concatenate([s_int, d_int]), method="highs")
    assert res.status == 0, res.message
    flows = np.rint(res.x).astype(np.int64)
    total = sum(Fraction(c) * f for c, f in zip(sub_cost.tolist(), flows.tolist()))
    return float(total / MASS_SCALE)


def exact_plan_cost(plan, cost) -> float:
    """The cost of a transport plan whose masses are whole multiples of
    1 / MASS_SCALE: sum(cost[i, j] * mass) in exact fractions over the
    plan's flows, each mass taken as its integer number of units, rounded
    once. Two optimal plans of one problem give the same bits."""
    total = sum(Fraction(float(cost[i, j])) * round(mass * MASS_SCALE)
                for (i, j), mass in plan.flow.items())
    return float(Fraction(total, MASS_SCALE))


def loop_histograms(t, spec):
    """Raw 2D and 4D histograms of a typed template by a loop over pairs.

    Every unordered pair i < j with distance <= d_max is binned once in 2D
    and through both orderings (i, j) and (j, i) in 4D. Returns
    (mass2, mass4, pairs) with pairs a list of (i, j, dist_bin, dir_bin).
    Distance and angle use the same NumPy functions as the package, so the
    bins must agree exactly, including values on bin edges.
    """

    def bin_of(value, width, count):
        return min(math.floor(value / width), count - 1)

    mass2 = np.zeros((spec.b_dist, spec.b_dir))
    mass4 = np.zeros((spec.b_dist, spec.b_dir, spec.b_relangle, 4))
    pairs = []
    ms = t.minutiae
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            d = float(np.hypot(ms[i].x - ms[j].x, ms[i].y - ms[j].y))
            if d > spec.d_max:
                continue
            diff = abs(ms[i].direction - ms[j].direction)
            di = bin_of(d, spec.dist_width, spec.b_dist)
            ai = bin_of(min(diff, 360.0 - diff), spec.dir_width, spec.b_dir)
            pairs.append((i, j, di, ai))
            mass2[di, ai] += 1.0
            for p, q in ((ms[i], ms[j]), (ms[j], ms[i])):
                angle = float(np.degrees(np.arctan2(q.y - p.y, q.x - p.x)))
                ri = bin_of((angle - p.direction) % 360.0, spec.relangle_width,
                            spec.b_relangle)
                ti = 2 * (p.mtype == "bifurcation") + (q.mtype == "bifurcation")
                mass4[di, ai, ri, ti] += 1.0
    return mass2, mass4, pairs


def train_grid_oracle(hists, avg_real, avg_synth, config):
    """(params, a) for each (r, s, e) of config's cost grid in
    itertools.product order, with a[i] = EMD(hists[i], avg_synth) -
    EMD(hists[i], avg_real) solved at that very point."""
    for r, s, e in itertools.product(config.r_grid, config.s_grid, config.e_grid):
        params = CostParams(r=r, s=s, e=e)
        yield params, np.array(
            [emd(h, avg_synth, params) - emd(h, avg_real, params) for h in hists]
        )
