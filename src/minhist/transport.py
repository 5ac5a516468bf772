"""Exact earth mover's distance via a transportation-problem solver.

The ground cost between 2D histogram bins (x, u) and (y, v) is
(s*|x-y|)^e + (r*|u-v|)^e over the distance-bin and direction-bin indices.
The direction axis is linear, not circular: the folded range [0, 180] has
genuine extremes at both ends.

Masses are scaled to integers (x 1e9, rounded) before solving so the LP has
integral marginals and hence an integral optimal vertex; the HiGHS simplex
solver then terminates on the exact optimum, which the test suite checks
against a brute-force vertex-enumeration oracle.
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


@lru_cache(maxsize=64)
def build_cost_matrix(spec: BinSpec, params: CostParams) -> np.ndarray:
    """Ground cost between all pairs of 2D histogram bins, row-major
    (distance-major) flattening: bin (x, u) has flat index x * b_dir + u.
    The cached array is shared by every caller, so it is read-only."""
    dx = np.abs(np.subtract.outer(np.arange(spec.b_dist), np.arange(spec.b_dist)))
    du = np.abs(np.subtract.outer(np.arange(spec.b_dir), np.arange(spec.b_dir)))
    cost = (params.s * dx[:, None, :, None]) ** params.e + (
        params.r * du[None, :, None, :]
    ) ** params.e
    n = spec.b_dist * spec.b_dir
    cost = cost.reshape(n, n)
    cost.flags.writeable = False
    return cost


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
    if (supply < 0).any() or (demand < 0).any():
        raise ValueError("masses must be non-negative")
    total_s, total_d = supply.sum(), demand.sum()
    if abs(total_s - total_d) > BALANCE_RTOL * max(1.0, total_s, total_d):
        raise ValueError(
            f"unbalanced marginals: supply {total_s!r} vs demand {total_d!r}"
        )
    if total_s == 0.0:
        return TransportPlan(flow={}, total_cost=0.0)

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
    res = linprog(sub_cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    # Integral marginals imply an integral optimal vertex; snap off float fuzz.
    flow_int = np.rint(res.x.reshape(m, n)).astype(np.int64)
    fi, fj = np.nonzero(flow_int)
    mass = flow_int[fi, fj] / MASS_SCALE
    flow = dict(zip(zip(rows[fi].tolist(), cols[fj].tolist()), mass.tolist()))
    # A running sum in flow order: np.sum's pairwise order would change bits.
    total_cost = np.cumsum(np.append(0.0, mass * sub_cost[fi, fj]))[-1]
    return TransportPlan(flow=flow, total_cost=float(total_cost))


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
    """Earth mover's distance between two equal-mass 2D histograms."""
    return transport_plan(h1, h2, params).total_cost
