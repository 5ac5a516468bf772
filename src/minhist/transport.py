"""Exact earth mover's distance via min-cost-flow linear programs.

The ground cost between 2D histogram bins (x, u) and (y, v) is
(s*|x-y|)^e + (r*|u-v|)^e over the distance-bin and direction-bin indices.
The direction axis is linear, not circular: the folded range [0, 180] has
genuine extremes at both ends.

Masses are scaled to integers (x 1e9, rounded) before solving, so every LP
has integral supplies. Every LP here is a network flow problem whose
node-arc incidence matrix is totally unimodular, so it has an integral
optimal vertex; the HiGHS simplex solver ends on one, and the flows are
snapped to those integers before the cost is summed in a fixed order, which
keeps seeded runs bit-for-bit deterministic. The test suite checks the
optima against a brute-force vertex-enumeration oracle.

`solve_transport` solves the dense transportation problem and returns an
explicit plan. `emd` needs only the optimal value, and the separable ground
cost lets it solve a far smaller network with the same optimum: at e = 1
the ground cost is the shortest-path length on the bin grid, so arcs
between neighbouring bins suffice (Ling & Okada, IEEE TPAMI 2007);
otherwise every unit moves along the distance axis and then along the
direction axis through a middle layer of nodes (Auricchio et al., NeurIPS
2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .histogram import BinSpec, MinutiaeHistogram

MASS_SCALE = 10 ** 9
BALANCE_RTOL = 1e-9
# Every nonzero arc cost must lie in this range (check_cost_range): beyond
# it HiGHS can fail to solve, or stop short of the exact optimum.
COST_RANGE = (1e-6, 1e6)


@dataclass(frozen=True)
class CostParams:
    """Unit costs for moving mass along neighboring bins.

    r: cost per neighboring direction-difference bin.
    s: cost per neighboring distance bin.
    e: exponent applied to each axis term.
    """

    r: float = 1.0
    s: float = 1.0
    e: float = 1.0

    def __post_init__(self) -> None:
        for name in ("r", "s", "e"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"cost parameter {name} must be strictly positive and finite")


@dataclass
class TransportPlan:
    """Optimal flow between two mass vectors.

    flow maps (source bin, sink bin) to transported mass; only nonzero
    entries are stored. total_cost is the flow-weighted sum of ground costs.
    """

    flow: Dict[Tuple[int, int], float]
    total_cost: float


def check_cost_range(spec: BinSpec, params: CostParams) -> None:
    """Raise ValueError unless every nonzero arc cost of the flow network of
    (spec, params) lies in COST_RANGE.

    At e = 1 the arcs cost s (distance axis) and r (direction axis);
    otherwise an axis with b bins has arcs costing (s * k)^e or (r * k)^e
    for k = 1 .. b - 1. An axis with one bin has no arcs.
    """
    lo, hi = COST_RANGE
    for name, unit, bins in (("s", params.s, spec.b_dist), ("r", params.r, spec.b_dir)):
        if bins < 2:
            continue
        far = 1 if params.e == 1 else bins - 1
        unit, e = float(unit), float(params.e)
        try:
            least, most = unit ** e, (unit * far) ** e
        except OverflowError:
            least = most = math.inf
        if not lo <= least <= most <= hi:
            bad = least if least < lo else most
            raise ValueError(
                f"cost parameter {name} = {unit!r} at e = {params.e!r} gives an arc cost"
                f" of {bad:.3g} on {bins} bins, outside [{lo:g}, {hi:g}]"
            )


@lru_cache(maxsize=64)
def build_cost_matrix(spec: BinSpec, params: CostParams) -> np.ndarray:
    """Ground cost between all pairs of 2D histogram bins, row-major
    (distance-major) flattening: bin (x, u) has flat index x * b_dir + u.
    The cached array is shared by every caller, so it is read-only.
    Raises ValueError for parameters outside check_cost_range."""
    check_cost_range(spec, params)
    dx = np.abs(np.subtract.outer(np.arange(spec.b_dist), np.arange(spec.b_dist)))
    du = np.abs(np.subtract.outer(np.arange(spec.b_dir), np.arange(spec.b_dir)))
    cost = (params.s * dx[:, None, :, None]) ** params.e + (
        params.r * du[None, :, None, :]
    ) ** params.e
    n = spec.b_dist * spec.b_dir
    cost = cost.reshape(n, n)
    cost.flags.writeable = False
    return cost


def _integer_marginals(supply: np.ndarray, demand: np.ndarray):
    """Check two mass vectors and scale their nonzero entries to integers.

    Masses must be non-negative and balanced within tolerance. Returns
    (rows, s_int, cols, d_int): the indices of the nonzero entries of each
    vector and their masses x MASS_SCALE, rounded, with equal sums. Returns
    None when the total mass is zero.
    """
    if (supply < 0).any() or (demand < 0).any():
        raise ValueError("masses must be non-negative")
    total_s, total_d = supply.sum(), demand.sum()
    if abs(total_s - total_d) > BALANCE_RTOL * max(1.0, total_s, total_d):
        raise ValueError(
            f"unbalanced marginals: supply {total_s!r} vs demand {total_d!r}"
        )
    if total_s == 0.0:
        return None
    rows = np.nonzero(supply > 0)[0]
    cols = np.nonzero(demand > 0)[0]
    s_int = np.rint(supply[rows] * MASS_SCALE).astype(np.int64)
    d_int = np.rint(demand[cols] * MASS_SCALE).astype(np.int64)
    # Rounding can desync the totals by a few units of 1e-9; absorb the
    # difference into the largest entry.
    diff = int(s_int.sum() - d_int.sum())
    if diff > 0:
        d_int[int(np.argmax(d_int))] += diff
    elif diff < 0:
        s_int[int(np.argmax(s_int))] -= diff
    return rows, s_int, cols, d_int


def _solve_flow(arc_cost: np.ndarray, a_eq: sparse.spmatrix, b_eq: np.ndarray):
    """Minimise arc_cost @ x subject to a_eq @ x = b_eq and x >= 0.

    a_eq must be totally unimodular and b_eq integral, so an integral
    optimal vertex exists. Returns (arcs, mass, total_cost): the arcs with
    nonzero flow, their flows / MASS_SCALE, and the cost of the flow.
    """
    res = linprog(arc_cost, A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    # Integral supplies imply an integral optimal vertex; snap off float fuzz.
    flow_int = np.rint(res.x).astype(np.int64)
    arcs = np.flatnonzero(flow_int)
    mass = flow_int[arcs] / MASS_SCALE
    # A running sum in arc order: np.sum's pairwise order would change bits.
    total_cost = np.cumsum(np.append(0.0, mass * arc_cost[arcs]))[-1]
    return arcs, mass, float(total_cost)


def solve_transport(supply, demand, cost) -> TransportPlan:
    """Solve the balanced transportation problem to exact optimality.

    `cost` is a 2D array-like of shape (len(supply), len(demand)). Marginals
    must be non-negative and balanced within tolerance. The returned plan is
    a basic optimal solution (at most len(supply) + len(demand) - 1 nonzero
    flows); its total cost is deterministic for fixed input.
    """
    supply = np.asarray(supply, dtype=float).ravel()
    demand = np.asarray(demand, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (supply.shape[0], demand.shape[0]):
        raise ValueError("marginal lengths do not match the cost matrix")
    marginals = _integer_marginals(supply, demand)
    if marginals is None:
        return TransportPlan(flow={}, total_cost=0.0)
    rows, s_int, cols, d_int = marginals
    sub_cost = cost[np.ix_(rows, cols)]

    m, n = len(rows), len(cols)
    var = m * n
    row_idx = np.concatenate(
        [np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)]
    )
    col_idx = np.concatenate([np.arange(var), np.arange(var)])
    a_eq = sparse.csc_matrix(
        (np.ones(2 * var), (row_idx, col_idx)), shape=(m + n, var)
    )
    b_eq = np.concatenate([s_int, d_int]).astype(float)
    arcs, mass, total_cost = _solve_flow(sub_cost.ravel(), a_eq, b_eq)
    fi, fj = np.divmod(arcs, n)
    flow = dict(zip(zip(rows[fi].tolist(), cols[fj].tolist()), mass.tolist()))
    return TransportPlan(flow=flow, total_cost=total_cost)


@lru_cache(maxsize=64)
def _flow_network(spec: BinSpec, params: CostParams) -> Tuple[sparse.csc_matrix, np.ndarray]:
    """Node-arc incidence matrix (+1 at the tail, -1 at the head) and arc
    costs of a min-cost-flow network with the optimum of the transport
    problem on build_cost_matrix(spec, params).

    The first n nodes are the sources and the last n the sinks, one per bin
    in the flat order of build_cost_matrix. At e = 1 they are the same n
    nodes, and arcs join neighbouring bins both ways at cost s along the
    distance axis and r along the direction axis. Otherwise there are three
    layers of n nodes: source (x, u) -> middle (y, u) costs (s|x-y|)^e and
    middle (y, u) -> sink (y, v) costs (r|u-v|)^e, so one path of the
    ground cost joins each source to each sink. Raises ValueError for
    parameters outside check_cost_range.
    """
    check_cost_range(spec, params)
    b_dist, b_dir = spec.b_dist, spec.b_dir
    n = b_dist * b_dir
    if params.e == 1:
        n_nodes = n
        grid = np.arange(n).reshape(b_dist, b_dir)
        near_x = (grid[:-1, :].ravel(), grid[1:, :].ravel())  # (x, u), (x+1, u)
        near_u = (grid[:, :-1].ravel(), grid[:, 1:].ravel())  # (x, u), (x, u+1)
        tails = np.concatenate([*near_x, *near_u])
        heads = np.concatenate([*near_x[::-1], *near_u[::-1]])
        arc_cost = np.repeat(
            np.array([params.s, params.r], dtype=float),
            [2 * near_x[0].size, 2 * near_u[0].size],
        )
    else:
        n_nodes = 3 * n
        x, y, u = (a.ravel() for a in np.meshgrid(
            np.arange(b_dist), np.arange(b_dist), np.arange(b_dir), indexing="ij"))
        y2, u2, v = (a.ravel() for a in np.meshgrid(
            np.arange(b_dist), np.arange(b_dir), np.arange(b_dir), indexing="ij"))
        tails = np.concatenate([x * b_dir + u, n + y2 * b_dir + u2])
        heads = np.concatenate([n + y * b_dir + u, 2 * n + y2 * b_dir + v])
        arc_cost = np.concatenate([
            (params.s * np.abs(x - y)) ** params.e,
            (params.r * np.abs(u2 - v)) ** params.e,
        ]).astype(float)
    arcs = np.arange(tails.size)
    a_eq = sparse.csc_matrix(
        (np.repeat([1.0, -1.0], tails.size),
         (np.concatenate([tails, heads]), np.concatenate([arcs, arcs]))),
        shape=(n_nodes, tails.size),
    )
    # Shared by every caller through the cache, so read-only.
    for buf in (a_eq.data, a_eq.indices, a_eq.indptr, arc_cost):
        buf.flags.writeable = False
    return a_eq, arc_cost


def _check_emd_inputs(h1: MinutiaeHistogram, h2: MinutiaeHistogram) -> None:
    if h1.spec != h2.spec:
        raise ValueError("histograms have different bin specifications")
    if h1.dims != 2 or h2.dims != 2:
        raise ValueError("the transport cost model is defined for 2D histograms")
    if h1.normalized != h2.normalized:
        raise ValueError("histograms must both be normalized or both raw")
    t1, t2 = h1.total(), h2.total()
    if abs(t1 - t2) > BALANCE_RTOL * max(1.0, t1, t2):
        raise ValueError(f"histograms have unequal total mass: {t1!r} vs {t2!r}")


def transport_plan(
    h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams = CostParams()
) -> TransportPlan:
    """Optimal transport plan from h1 to h2 under the bin-index ground cost."""
    _check_emd_inputs(h1, h2)
    cost = build_cost_matrix(h1.spec, params)
    return solve_transport(h1.mass.ravel(), h2.mass.ravel(), cost)


def emd(
    h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams = CostParams()
) -> float:
    """Earth mover's distance between two equal-mass 2D histograms.

    The optimal value of the problem transport_plan solves, found on the
    smaller network of _flow_network without building a plan. Raises
    ValueError for parameters outside check_cost_range, even where the
    value would be 0.
    """
    _check_emd_inputs(h1, h2)
    a_eq, arc_cost = _flow_network(h1.spec, params)
    supply, demand = h1.mass.ravel(), h2.mass.ravel()
    marginals = _integer_marginals(supply, demand)
    if marginals is None:
        return 0.0
    rows, s_int, cols, d_int = marginals
    # Equal marginals cost nothing; this also covers the 1x1 spec, whose
    # neighbour grid has no arcs.
    if np.array_equal(rows, cols) and np.array_equal(s_int, d_int):
        return 0.0
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[rows] = s_int
    b_eq[b_eq.size - supply.size + cols] -= d_int  # the last n nodes are sinks
    return _solve_flow(arc_cost, a_eq, b_eq)[2]
