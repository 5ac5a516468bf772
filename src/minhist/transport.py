"""Exact earth mover's distance via min-cost-flow linear programs.

The ground cost between 2D histogram bins (x, u) and (y, v) is
(s*|x-y|)^e + (r*|u-v|)^e over the distance-bin and direction-bin indices.
The direction axis is linear, not circular: the folded range [0, 180] has
genuine extremes at both ends.

Masses are scaled to integers (x 1e9, rounded) before solving, so every LP
has integral supplies; float64 holds every integer only up to 2**53, so a
total mass above 2**53 / 1e9 (about 9.0e6) raises ValueError. Every LP here
is a network flow problem whose node-arc incidence matrix is totally
unimodular, so it has an integral optimal vertex; the HiGHS dual simplex
ends on one, and the flows are snapped to those integers and checked to
meet every supply exactly (else RuntimeError). The cost is then
summed exactly (the integer flows per distinct arc cost, the groups added
as fractions) and rounded once, so a value is the correctly rounded
optimum, whichever optimal vertex the solver ended on. The test suite
checks the optima against a brute-force vertex-enumeration oracle and
against `linprog`.

`solve_transport` solves the dense transportation problem for any cost
matrix and returns an explicit plan. The dense n x n matrix of ground costs
between histogram bins is only its input: no other solve, and no caller in
the package, reads it. On histograms, the separable ground cost allows a
far smaller network with the same optimum: at e = 1 the ground cost is the
shortest-path length on the bin grid, so arcs between neighbouring bins
suffice (Ling & Okada, IEEE TPAMI 2007); otherwise every
unit moves along the distance axis and then along the direction axis
through a middle layer of nodes (Auricchio et al., NeurIPS 2018). `emd`
solves it for the value. `transport_plan` solves it and splits the optimal
flow into source-to-sink paths. Every arc costs more than 0 at e = 1, and
the three-layer network has no cycle, so an optimal flow has no cycle
either. Every path of an optimal flow is a shortest
path, so it costs the ground cost of its ends, and the paths form an
optimal plan of the dense problem. The plan need not be a basic solution
of the dense problem, so it has no size bound. The plan comes with its
`lower_bound`: the node potentials y of the same solve (HiGHS's row duals)
and their largest dual infeasibility, slack = max over arcs of y_tail -
y_head - cost. By weak duality they give a lower bound on the EMD of any
other histogram to the same target (`_DualBound`); the bound is -inf when
slack is above SLACK_TOL times the largest arc cost. `emd` never reads the
duals. Upper bounds need no solve: at e = 1 a spanning tree of the bin
grid carries one flow meeting the supplies, whose cost no optimum exceeds
(`_tree_bounds`). Both kinds of bound take a whole stack of histograms
against one target at once, as refine's candidate batches and the
bootstrap's picks come: one routine, `_stack_supplies`, checks and scales
the stacked masses and puts them on the network's nodes in one pass, with
the bits and errors of each row on its own. Its one-row case checks the
inputs of every `emd`, and `_node_supplies`, which adds the marginals a
plan reads, those of every plan, so each solve is still checked where it
runs.

A plan is made in two steps. The solve step, `_solve`, solves the network
for given node supplies; `emd`, `transport_plan` and refine all solve
through it, and it returns the HiGHS solution with the flow. The plan step,
`_plan_of`, builds a plan from one such solution: the marginals, the path
decomposition of the flow (`_paths`) and the `_DualBound` of its row duals.
So a caller that has already solved a histogram, as refine has its winning
candidate, gets that histogram's plan without a second solve.

HiGHS is driven through the binding SciPy bundles for `linprog`
(`scipy.optimize._highspy._core`), because no public SciPy API keeps a
model alive between solves. Every solve runs on a `_FlowModel`, the only
code that calls the binding: it owns the HiGHS model, its options
(HIGHS_OPTIONS), its supplies and the checks of each solve.
`solve_transport` builds a fresh model per call. On histograms `_solve`
builds or reuses every model: a model held for the same (spec, params)
takes the new supplies, and the dual simplex restarts from its previous
optimal basis, which stays dual feasible (Huangfu & Hall, Math. Prog. Comp.
2018); otherwise a fresh model is built with them. Where several flows are
optimal, the vertex a reused model ends on depends on what it solved
before, so a model is held only where that history is wanted. Three kinds
of model exist:
- `emd`'s: up to two, one per recent target histogram, held in slots
  under a lock. A classify solves to the real and to the synthetic class
  average, each from the basis of its own last solve, so only the probe's
  supplies change. A call whose target has no model takes over the least
  recently used one once both slots are held, as population's EMD matrix
  does at every call. Threads calling `emd` solve one at a time. `emd`
  reads only the value.
- refine's: one per run, a local of the run (see `minhist.refine`). Every
  solve of the run, its initial template's and each scored candidate's,
  restarts from the run's previous solve, so a run depends on nothing
  solved outside it.
- fresh ones: `transport_plan` and `solve_transport` build one per call,
  so their plans depend only on their inputs.
`emd`'s and refine's models hold their supplies in fixed injection columns
(column form, `_FlowModel`), so one binding call re-supplies them.
`transport_plan` and `solve_transport` keep the supplies in the row bounds
(row form), and so keep their vertices. Against one held model with row
bounds, column form cuts the dual simplex iterations of a benchmark
realness classify solve from 87 to 49 on average. A plan holds no model,
and a model whose solve failed or was interrupted is dropped, never held.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np
import scipy

try:
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
    )
except ImportError as exc:
    raise ImportError(
        "minhist.transport needs the HiGHS binding scipy.optimize._highspy._core._Highs"
        f" of SciPy 1.17.1, the version it is checked against; found SciPy {scipy.__version__}"
    ) from exc

from .histogram import BinSpec, MinutiaeHistogram
from .template import _real

MASS_SCALE = 10 ** 9
BALANCE_RTOL = 1e-9
# Every nonzero arc cost must lie in this range (check_cost_range): beyond
# it HiGHS can fail to solve, or stop short of the exact optimum.
COST_RANGE = (1e-6, 1e6)
# A plan's potentials bound other EMDs only while their largest dual
# infeasibility is at most this times the largest arc cost (transport_plan).
SLACK_TOL = 1e-9
# Set on every HiGHS model, by _FlowModel: the log off, presolve off and
# Dantzig dual pricing (0), cheaper here than the default dual edge weights.
HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"),
                 ("simplex_dual_edge_weight_strategy", 0))


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
            _real(getattr(self, name), f"cost parameter {name}", positive=True)


@dataclass
class TransportPlan:
    """Optimal flow between two mass vectors.

    flow maps (source bin, sink bin) to transported mass; only nonzero
    entries are stored. total_cost is the exact optimum, correctly rounded.
    lower_bound is set by the plan step (_plan_of; None otherwise): the
    _DualBound of the same solve. It is a result, not an argument, and
    takes no part in == or repr.
    """

    flow: Dict[Tuple[int, int], float]
    total_cost: float
    lower_bound: Optional[_DualBound] = field(default=None, init=False, repr=False,
                                              compare=False)


def _axis_costs(spec: BinSpec, params: CostParams) -> Tuple[np.ndarray, np.ndarray]:
    """The ground cost of a move by k = 0 .. b - 1 bins along each axis:
    (s * k)^e over the b_dist distance bins and (r * k)^e over the b_dir
    direction bins. A power that overflows is inf."""
    e = float(params.e)
    with np.errstate(over="ignore"):
        return tuple((float(unit) * np.arange(bins)) ** e
                     for unit, bins in ((params.s, spec.b_dist), (params.r, spec.b_dir)))


def _ground_cost(spec: BinSpec, params: CostParams, src, dst) -> np.ndarray:
    """Ground cost between the flat bin indices src and dst (broadcast)."""
    dist, dirn = _axis_costs(spec, params)
    src_x, src_u = np.divmod(src, spec.b_dir)
    dst_x, dst_u = np.divmod(dst, spec.b_dir)
    return dist[np.abs(src_x - dst_x)] + dirn[np.abs(src_u - dst_u)]


def check_cost_range(spec: BinSpec, params: CostParams) -> None:
    """Raise ValueError unless every nonzero arc cost of the flow network of
    (spec, params) lies in COST_RANGE.

    At e = 1 the arcs cost s (distance axis) and r (direction axis);
    otherwise an axis with b bins has arcs costing (s * k)^e or (r * k)^e
    for k = 1 .. b - 1. An axis with one bin has no arcs.
    """
    lo, hi = COST_RANGE
    for name, costs in zip(("s", "r"), _axis_costs(spec, params)):
        arcs = costs[1:2] if params.e == 1 else costs[1:]
        if arcs.size and not lo <= arcs[0] <= arcs[-1] <= hi:
            bad = arcs[0] if arcs[0] < lo else arcs[-1]
            raise ValueError(
                f"cost parameter {name} = {float(getattr(params, name))!r} at e = {params.e!r}"
                f" gives an arc cost of {bad:.3g} on {costs.size} bins, outside [{lo:g}, {hi:g}]"
            )


def build_cost_matrix(spec: BinSpec, params: CostParams) -> np.ndarray:
    """Ground cost between all pairs of 2D histogram bins, row-major
    (distance-major) flattening: bin (x, u) has flat index x * b_dir + u.
    The dense cost input of solve_transport; each call returns a fresh
    array, which the caller may change. Raises ValueError for parameters
    outside check_cost_range."""
    check_cost_range(spec, params)
    bins = np.arange(spec.b_dist * spec.b_dir)
    return _ground_cost(spec, params, bins[:, None], bins[None, :])


def _integer_marginals(supply: np.ndarray, demand: np.ndarray):
    """Check two mass vectors and scale their nonzero entries to integers.

    Masses must be finite, non-negative and balanced within tolerance, with
    a scaled total of at most 2**53. Returns (rows, s_int, cols, d_int): the
    indices of the nonzero entries of each vector and their masses x
    MASS_SCALE, rounded, with equal sums. Returns None when the total mass
    is zero. A supply of positive mass against a demand of zero mass (within
    the balance tolerance, such as 1e-9 against 0) raises ValueError: no
    demand entry could take its scaled units.
    """
    if not (np.isfinite(supply).all() and np.isfinite(demand).all()):
        raise ValueError("masses must be finite")
    if (supply < 0).any() or (demand < 0).any():
        raise ValueError("masses must be non-negative")
    total_s, total_d = float(supply.sum()), float(demand.sum())
    if abs(total_s - total_d) > BALANCE_RTOL * max(1.0, total_s, total_d):
        raise ValueError(f"unbalanced marginals: unequal total mass {total_s!r} vs {total_d!r}")
    # Above 2**53 float64 skips integers: HiGHS would not see integral supplies.
    if max(total_s, total_d) * MASS_SCALE > 2 ** 53:
        raise ValueError(f"total mass {max(total_s, total_d)!r} exceeds 2**53 / MASS_SCALE")
    if total_s == 0.0:
        return None
    if total_d == 0.0:
        raise ValueError(f"source mass {total_s!r} against a target of zero mass")
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


def _exact_cost(costs: np.ndarray, flows: np.ndarray) -> float:
    """costs @ flows / MASS_SCALE, rounded once to the nearest float.

    The integer flows are summed per distinct cost and the groups added as
    fractions, so every optimal vertex of one problem gives the same bits.
    """
    unique, group = np.unique(costs, return_inverse=True)
    per_cost = np.zeros(unique.size, dtype=np.int64)
    np.add.at(per_cost, group, flows)
    total = sum(Fraction(c) * f for c, f in zip(unique.tolist(), per_cost.tolist()))
    return float(Fraction(total, MASS_SCALE))


class _FlowModel:
    """A HiGHS model of: minimise arc_cost @ x subject to x >= 0 and, at
    each node k, a net outflow (x on arcs with tail k, less x on arcs with
    head k) of b_eq[k], with the options of HIGHS_OPTIONS. Presolve is
    off: on a flow network it removes only the one redundant balance row,
    and costs more time than that saves. A node-arc incidence matrix is
    totally unimodular and b_eq, of which the model keeps a copy, integral,
    so an integral optimal vertex exists. The binding reports failures by
    status, not by exception: each is checked. network is the (spec, params)
    of the _flow_network modelled, or None for a dense problem.

    The supplies sit in the row bounds (row form), or, when `injected`
    lists the nodes that can carry a supply, in one injection column per
    such node: -1 at its node's row, cost 0, fixed at lower = upper = its
    supply, with every row bound 0 (column form). The injections keep the
    matrix totally unimodular, and supply() changes them all in one
    binding call. The arcs are the first arc_cost.size columns in both."""

    def __init__(self, arc_cost: np.ndarray, tails: np.ndarray, heads: np.ndarray,
                 b_eq: np.ndarray, network: Optional[Tuple[BinSpec, CostParams]] = None,
                 injected: Optional[np.ndarray] = None):
        self.arc_cost, self.tails, self.heads, self.b_eq = arc_cost, tails, heads, b_eq.copy()
        self.network = network
        n_arcs, n_rows = arc_cost.size, b_eq.size
        inj = np.empty(0, dtype=np.int64) if injected is None else injected
        # The column of each node's injection, or None in row form.
        self.column = None
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = n_arcs + inj.size, n_rows
        lp.col_cost_ = np.concatenate([arc_cost, np.zeros(inj.size)])
        # The binding copies an array in and out, so each is set whole.
        lower, upper = np.zeros(lp.num_col_), np.full(lp.num_col_, np.inf)
        if injected is None:
            lp.row_lower_ = lp.row_upper_ = self.b_eq
        else:
            self.column = np.full(n_rows, -1, dtype=np.int32)
            self.column[inj] = np.arange(n_arcs, lp.num_col_, dtype=np.int32)
            lower[n_arcs:] = upper[n_arcs:] = self.b_eq[inj]
            lp.row_lower_ = lp.row_upper_ = np.zeros(n_rows)
        lp.col_lower_, lp.col_upper_ = lower, upper
        # The incidence matrix by columns: arc k has +1 at row tails[k] and
        # -1 at row heads[k], the lower row first; then each injection, -1
        # at its node's row.
        matrix = lp.a_matrix_
        matrix.format_ = MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = lp.num_col_, lp.num_row_
        matrix.start_ = np.concatenate([np.arange(0, 2 * n_arcs + 1, 2),
                                        2 * n_arcs + np.arange(1, inj.size + 1)])
        matrix.index_ = np.concatenate(
            [np.sort(np.column_stack([tails, heads]), axis=1).ravel(), inj])
        matrix.value_ = np.concatenate([
            np.outer(np.where(tails < heads, 1.0, -1.0), [1.0, -1.0]).ravel(),
            np.full(inj.size, -1.0)])
        self.highs = _Highs()
        for name, value in HIGHS_OPTIONS:
            if self.highs.setOptionValue(name, value) == HighsStatus.kError:
                raise RuntimeError(f"HiGHS rejected the option {name}")
        if self.highs.passModel(lp) == HighsStatus.kError:
            raise RuntimeError("transportation model rejected by HiGHS")

    def supply(self, b_eq: np.ndarray) -> None:
        """Set the supplies to b_eq, changing only those that differ: one
        row bound each in row form, one call for all in column form."""
        changed = np.flatnonzero(b_eq != self.b_eq)
        if self.column is None:
            for row in changed.tolist():
                if self.highs.changeRowBounds(row, b_eq[row], b_eq[row]) == HighsStatus.kError:
                    raise RuntimeError(f"HiGHS rejected the supply of node {row}")
        elif changed.size:
            values = b_eq[changed]
            if self.highs.changeColsBounds(changed.size, self.column[changed], values,
                                           values) == HighsStatus.kError:
                raise RuntimeError(f"HiGHS rejected the supplies of nodes {changed.tolist()}")
        self.b_eq[:] = b_eq

    def solve(self):
        """Returns (arcs, flow, total_cost, solution): the arcs with nonzero
        flow, their integral flows, the exact optimum / MASS_SCALE and the
        HiGHS solution, a copy that the model's next solve leaves as it is
        (only _plan_of reads its row duals). Raises RuntimeError unless
        HiGHS reports an optimum and the snapped flow is feasible:
        non-negative, with a net flow out of each node equal to its supply,
        summed in int64."""
        run_status = self.highs.run()
        model_status = self.highs.getModelStatus()
        if run_status == HighsStatus.kError or model_status != HighsModelStatus.kOptimal:
            raise RuntimeError(
                f"transportation solve failed: {self.highs.modelStatusToString(model_status)}"
            )
        solution = self.highs.getSolution()
        # Integral supplies imply an integral optimal vertex; snap off float fuzz.
        flow_int = np.rint(np.asarray(solution.col_value)[:self.arc_cost.size]).astype(np.int64)
        arcs = np.flatnonzero(flow_int)
        flow = flow_int[arcs]
        net = np.zeros(self.b_eq.size, dtype=np.int64)
        np.add.at(net, self.tails[arcs], flow)
        np.subtract.at(net, self.heads[arcs], flow)
        if (flow < 0).any() or (net != self.b_eq.astype(np.int64)).any():
            raise RuntimeError("transportation solve failed: the flow does not meet the supplies")
        return arcs, flow, _exact_cost(self.arc_cost[arcs], flow), solution


def solve_transport(supply, demand, cost) -> TransportPlan:
    """Solve the balanced transportation problem to exact optimality.

    `cost` is a 2D array-like of shape (len(supply), len(demand)). Marginals
    must be finite, non-negative and balanced within tolerance, and costs
    finite; otherwise ValueError. The returned plan is a basic optimal
    solution (at most len(supply) + len(demand) - 1 nonzero flows); its
    total cost is the exact optimum, correctly rounded.
    """
    supply = np.asarray(supply, dtype=float).ravel()
    demand = np.asarray(demand, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (supply.shape[0], demand.shape[0]):
        raise ValueError("marginal lengths do not match the cost matrix")
    if not np.isfinite(cost).all():
        raise ValueError("costs must be finite")
    marginals = _integer_marginals(supply, demand)
    if marginals is None:
        return TransportPlan(flow={}, total_cost=0.0)
    rows, s_int, cols, d_int = marginals
    sub_cost = cost[np.ix_(rows, cols)]

    # One arc from each source i to each sink m + j, in row-major order.
    m, n = len(rows), len(cols)
    tails, heads = np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)
    b_eq = np.concatenate([s_int, -d_int]).astype(float)
    arcs, flow_int, total_cost, _ = _FlowModel(sub_cost.ravel(), tails, heads, b_eq).solve()
    fi, fj = np.divmod(arcs, n)
    mass = flow_int / MASS_SCALE
    flow = dict(zip(zip(rows[fi].tolist(), cols[fj].tolist()), mass.tolist()))
    return TransportPlan(flow=flow, total_cost=total_cost)


@lru_cache(maxsize=64)
def _flow_network(spec: BinSpec, params: CostParams):
    """(n_nodes, arc_cost, tails, heads): the number of nodes, and the cost,
    tail node and head node of each arc, of a min-cost-flow network with the
    optimum of the dense transport problem on the ground cost of (spec,
    params).

    Node k stands for bin k % n in the flat (distance-major) bin order, and
    each arc costs the ground cost between the bins of its ends. The first n
    nodes are the sources and the last n the sinks. At e = 1 they are the
    same n nodes, and arcs join neighbouring bins both ways. Otherwise there
    are three layers of n nodes, source (x, u) -> middle (y, u) -> sink
    (y, v), so one path of the ground cost joins each source to each sink.
    Raises ValueError for parameters outside check_cost_range.
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
    else:
        n_nodes = 3 * n
        x, y, u = (a.ravel() for a in np.meshgrid(
            np.arange(b_dist), np.arange(b_dist), np.arange(b_dir), indexing="ij"))
        y2, u2, v = (a.ravel() for a in np.meshgrid(
            np.arange(b_dist), np.arange(b_dir), np.arange(b_dir), indexing="ij"))
        tails = np.concatenate([x * b_dir + u, n + y2 * b_dir + u2])
        heads = np.concatenate([n + y * b_dir + u, 2 * n + y2 * b_dir + v])
    arc_cost = _ground_cost(spec, params, tails % n, heads % n)
    # Shared by every caller through the cache, so read-only.
    for buf in (arc_cost, tails, heads):
        buf.flags.writeable = False
    return n_nodes, arc_cost, tails, heads


def _solve(network: Tuple[BinSpec, CostParams], b_eq: np.ndarray,
           held: Optional[_FlowModel], columns: bool = False):
    """(model, solved): solve the network of _flow_network(*network) with
    supplies b_eq, the one solve step of emd, transport_plan and refine.

    The model is held, re-supplied, when it models that network, else a
    fresh model built with them, in column form if `columns` (one injection
    column per source and sink node: emd's and refine's models) and else in
    row form. solved is what _FlowModel.solve returns. A failed solve
    raises, so its model is not returned.
    """
    if held is not None and held.network == network:
        held.supply(b_eq)
        model = held
    else:
        n_nodes, arc_cost, tails, heads = _flow_network(*network)
        injected = None
        if columns:
            n = network[0].b_dist * network[0].b_dir
            injected = np.union1d(np.arange(n), np.arange(n_nodes - n, n_nodes))
        model = _FlowModel(arc_cost, tails, heads, b_eq, network, injected)
    return model, model.solve()


# emd's models, keyed by the bytes of their last target's masses, least
# recently used first: at most _EMD_SLOTS, so a classify keeps one model per
# class average. An e = 2 model holds about 2 MB. Read and changed only
# under _WARM_LOCK.
_EMD_SLOTS = 2
_emd_models: Dict[bytes, _FlowModel] = {}

# Two threads driving one HiGHS model at once can crash the process.
_WARM_LOCK = threading.Lock()


def _stack_supplies(masses: np.ndarray, like: MinutiaeHistogram, target: MinutiaeHistogram,
                    params: CostParams):
    """Check k rows of source masses against one target and put each row's
    scaled marginals on the nodes of the network of (target.spec, params),
    in one pass over the (k, n) array masses.

    Every row has the spec, dims and normalization of `like`, whose own
    mass is not read. Each row is checked and scaled as _integer_marginals
    checks and scales it against target's masses. Returns (src, dst,
    supplies, solve): each row's scaled source and target masses per bin
    (int64, (k, n), the rounding difference absorbed as _integer_marginals
    absorbs it), its node supplies ((k, n_nodes)) and whether it needs a
    solve. A row of zero mass needs none, nor does one whose scaled
    marginals are equal (this also covers the 1x1 spec, whose neighbour
    grid has no arcs): its optimum is 0. A bad stack raises the ValueError
    of its first bad row, the one that row raises alone; parameters outside
    check_cost_range raise even where no row needs a solve.
    """
    if like.spec != target.spec:
        raise ValueError("histograms have different bin specifications")
    if like.dims != 2 or target.dims != 2:
        raise ValueError("the transport cost model is defined for 2D histograms")
    if like.normalized != target.normalized:
        raise ValueError("histograms must both be normalized or both raw")
    n_nodes = _flow_network(target.spec, params)[0]
    demand = target.mass.ravel()
    # The target's masses ride along as the last row.
    stacked = np.concatenate([masses, demand[None]])
    *total_s, total_d = stacked.sum(axis=1).tolist()
    # Enough for _integer_marginals to accept every row, whose balance
    # tolerance is at least BALANCE_RTOL * max(1, total_d); a nan fails the
    # sign check, and an inf the balance check or the last. A target of zero
    # mass has no entry to take a rounding difference. Otherwise each row
    # goes through _integer_marginals in turn, which raises the first bad
    # row's error.
    if not (total_s and stacked.min() >= 0 and total_d > 0
            and max(abs(t - total_d) for t in total_s) <= BALANCE_RTOL * max(1.0, total_d)
            and max(*total_s, total_d) * MASS_SCALE <= 2 ** 53):
        for row in masses:
            _integer_marginals(row, demand)
    scaled = np.rint(stacked * MASS_SCALE).astype(np.int64)
    *s_sums, d_sum = scaled.sum(axis=1).tolist()
    src, d_int = scaled[:-1], scaled[-1]
    dst = np.repeat(d_int[None], len(src), axis=0)
    # Rounding can leave a row's scaled sums a few units apart; the
    # difference goes to the first largest entry of the smaller side (an
    # entry of positive mass where every entry rounds to 0).
    d_top = None
    live = []
    for row, (s_sum, total) in enumerate(zip(s_sums, total_s)):
        live.append(total != 0.0)  # a row of zero mass is not scaled
        diff = s_sum - d_sum if total else 0
        if diff > 0:
            if d_top is None:
                d_top = int(np.argmax(d_int)) if d_int.any() else int(np.argmax(demand > 0))
            dst[row, d_top] += diff
        elif diff < 0:
            top = int(np.argmax(src[row]))
            src[row, top if src[row, top] else np.argmax(masses[row] > 0)] -= diff
    solve = ~(src == dst).all(axis=1)
    if not (solve.all() and all(live)):
        # Equal scaled masses on the same entries of positive mass.
        solve = np.array(live) & (solve | ((masses > 0) != (demand > 0)).any(axis=1))
    supplies = np.zeros((len(masses), n_nodes))
    supplies[:, :src.shape[1]] = src
    supplies[:, n_nodes - dst.shape[1]:] -= dst  # the last n nodes are sinks
    return src, dst, supplies, solve


def _node_supplies(h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams):
    """Check the inputs of transport_plan and put the scaled marginals on
    the nodes of the network of (h1.spec, params): the one-row case of
    _stack_supplies, with the marginals.

    Returns (marginals, b_eq): the result of _integer_marginals (None for
    zero mass) and the node supplies, or b_eq None where the optimum is 0
    without a solve. Raises ValueError for parameters outside
    check_cost_range, even where the optimum is 0.
    """
    src, dst, supplies, solve = _stack_supplies(h1.mass.reshape(1, -1), h1, h2, params)
    rows = np.nonzero(h1.mass.ravel() > 0)[0]
    if not rows.size:
        return None, None
    cols = np.nonzero(h2.mass.ravel() > 0)[0]
    return (rows, src[0, rows], cols, dst[0, cols]), supplies[0] if solve[0] else None


def _paths(tails: np.ndarray, heads: np.ndarray, units: np.ndarray, supply: np.ndarray):
    """Decompose an acyclic integral flow into paths.

    tails, heads and units are the arcs that carry flow and their flows;
    supply[k] is the net supply of node k (negative for a demand). Returns
    {(first node, last node): units}, summed over the paths between them.
    Nodes are taken in topological order. Each pools the units its own
    supply and its in-arcs bring, by first node, and hands them out in
    first-node order, to its own demand and then to its out-arcs in the
    given arc order, so the result depends on the flow alone. The flow must
    meet the supplies (_FlowModel.solve checks it). Raises RuntimeError for
    a flow with a cycle.
    """
    n_nodes = supply.size
    out_arcs = [[] for _ in range(n_nodes)]
    waiting = np.bincount(heads, minlength=n_nodes).tolist()
    for tail, head, flow in zip(tails.tolist(), heads.tolist(), units.tolist()):
        out_arcs[tail].append((head, flow))
    pools = [{} for _ in range(n_nodes)]
    supply = supply.tolist()
    for node in range(n_nodes):
        if supply[node] > 0:
            pools[node][node] = supply[node]
    ready = [node for node in range(n_nodes) if waiting[node] == 0]
    done = 0
    paths = {}
    while ready:
        node = ready.pop()
        done += 1
        lots = sorted(pools[node].items())
        k = 0
        for head, need in [(None, max(-supply[node], 0)), *out_arcs[node]]:
            while need:
                first, have = lots[k]
                moved = min(have, need)
                if head is None:
                    paths[first, node] = moved
                else:
                    pools[head][first] = pools[head].get(first, 0) + moved
                need -= moved
                if moved == have:
                    k += 1
                else:
                    lots[k] = (first, have - moved)
            if head is not None:
                waiting[head] -= 1
                if waiting[head] == 0:
                    ready.append(head)
    if done != n_nodes:
        raise RuntimeError("transport flow has a cycle")
    return paths


def _exact_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for each row of a, correctly rounded, for finite arrays whose
    products neither overflow nor underflow: Dekker's split (Numer. Math.
    18, 1971) writes each product exactly as the sum of two floats, which
    math.fsum adds exactly."""
    def split(v):
        c = 134217729.0 * v  # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return np.array([math.fsum(terms) for terms in np.concatenate([p, err], axis=1).tolist()])


@dataclass(frozen=True)
class _DualBound:
    """A lower bound on emd(h, target, params) for any h, from node
    potentials y of one solve on the network of (target.spec, params).

    For every flow x that meets the supplies b of (h, target), cost @ x >=
    b @ y - slack * sum(x) when no arc has y_tail - y_head - cost above
    slack (weak duality). An optimal flow is a set of shortest paths, of at
    most `depth` arcs each, carrying the supplied units between them, so
    sum(x) <= units * depth. The bound is that, less margins that cover
    rounding: of y_tail - y_head - cost (at most eps * cost per arc, so eps
    * emd over an optimal flow), of b @ y (summed exactly, then rounded
    once) and of the arithmetic here. With no potentials (None) it is -inf.
    bounds evaluates a whole stack of rows of _stack_supplies at once, with
    the bits that each row's own call gives.
    """

    target: MinutiaeHistogram
    params: CostParams
    potentials: Optional[np.ndarray]
    slack: float

    def __call__(self, h: MinutiaeHistogram) -> float:
        """The bound for h: the one-row case of bounds."""
        if self.potentials is None:
            return -math.inf
        supplies, solve = _stack_supplies(h.mass.reshape(1, -1), h, self.target, self.params)[2:]
        return self.bounds(supplies, solve).item()

    def bounds(self, supplies: np.ndarray, solve: np.ndarray) -> np.ndarray:
        """The bound for each row of the supplies and solve flags of
        _stack_supplies against target: 0 for a row that needs no solve."""
        if self.potentials is None:
            return np.full(len(supplies), -math.inf)
        bounds = np.zeros(len(supplies))
        b_eq = supplies[solve]
        if len(b_eq):
            spec = self.target.spec
            # A shortest path is monotone on the bin grid at e = 1 (every
            # arc costs more than 0), and source -> middle -> sink otherwise.
            depth = spec.b_dist + spec.b_dir - 2 if self.params.e == 1 else 2
            # Sums of integers below 2**53, so exact in any order.
            units = np.where(b_eq > 0, b_eq, 0.0).sum(axis=1)
            dual = _exact_dot(b_eq, self.potentials)
            eps = float(np.finfo(float).eps)
            margin = self.slack * units * depth * (1 + 4 * eps) + 8 * eps * np.abs(dual)
            bounds[solve] = (dual - margin) / MASS_SCALE
        return bounds


def _tree_bounds(spec: BinSpec, params: CostParams, supplies: np.ndarray) -> np.ndarray:
    """Upper bounds on emd for a stack of node-supply vectors, one row each
    (rows of the supplies of _stack_supplies on the network of (spec,
    params)).

    At e = 1 a "ladder" spanning tree of the bin grid is a subgraph of the
    network: each line of bins along one axis is a path, and each two
    neighbouring lines are joined by one rung along the other axis, at any
    position (the combs, spanning trees with all rungs in one row, are
    ladders). A tree carries one flow meeting the supplies, which on each
    edge is the net supply of the part of the tree beyond it, so it costs
    the sum of w_e * |net supply beyond e|, which no optimal flow exceeds.
    Those net supplies are exact sums of the integer supplies. The rung
    after line x carries the net supply of lines 0 .. x wherever it sits,
    and a path edge the net supply of its line's bins up to it plus that of
    the lines hung beyond it through the rungs on that side, so the
    cheapest ladder of each orientation is a shortest path over the rung
    positions, line by line. The bound is the cheaper of the two, times 1 +
    8 eps: (s * A + r * B) / MASS_SCALE, for non-negative integers A and B,
    takes six roundings of at most eps / 2 each, so it is never below the
    exact optimum, nor below emd, its correctly rounded value. A row whose
    sums could overflow int64, and every row at e != 1, gets +inf.
    """
    if params.e != 1:
        return np.full(len(supplies), math.inf)
    net = np.rint(supplies).astype(np.int64).reshape(-1, spec.b_dist, spec.b_dir)
    k = len(net)
    bound = np.full(k, math.inf)
    # Lines along axis 2 with rungs along axis 1, on the grid and on its
    # transpose.
    for grid, rung_w, path_w in ((net, params.s, params.r), (net.swapaxes(1, 2), params.r, params.s)):
        lines, length = grid.shape[1:]
        prefix = np.cumsum(grid, axis=2)
        # Net supply of lines 0 .. x: carried by the rung after line x,
        # into line x + 1 (the last is 0, the total).
        rung = np.cumsum(prefix[:, :, -1], axis=1)
        into = np.concatenate([np.zeros((k, 1), dtype=np.int64), rung[:, :-1]], axis=1)
        # Edge u of line x, with the rung from line x - 1 at l and the rung
        # to line x + 1 at m, carries prefix + into * [l <= u] - rung * [m
        # <= u]: cumulative sums of each of the four cases, over u.
        shift = np.stack([np.zeros_like(rung), into, -rung, into - rung], axis=2)
        sums = np.zeros((k, lines, 4, length), dtype=np.int64)
        np.cumsum(np.abs(prefix[:, :, None, :-1] + shift[..., None]), axis=3, out=sums[..., 1:])
        l, m = np.arange(length)[:, None], np.arange(length)[None, :]
        lo, hi, mid = np.minimum(l, m), np.maximum(l, m), np.where(l <= m, 1, 2)
        line_cost = (sums[:, :, 0, lo] + sums[:, :, mid, hi] - sums[:, :, mid, lo]
                     + sums[:, :, 3, -1:, None] - sums[:, :, 3, hi])  # (k, x, l, m)
        # The first line has no rung before it.
        best = line_cost[:, 0, 0, :]
        for x in range(1, lines):
            best = (best[:, :, None] + line_cost[:, x]).min(axis=1)
        rungs = np.abs(rung[:, :-1]).sum(axis=1)
        bound = np.minimum(bound, float(rung_w) * rungs + float(path_w) * best.min(axis=1))
    # A net supply is at most the units supplied, and no sum above adds up
    # more than 2 n of them.
    units = np.where(net > 0, net, 0).sum(axis=(1, 2))
    bound[units.astype(float) * (2 * spec.b_dist * spec.b_dir) >= 2.0 ** 62] = math.inf
    return bound / MASS_SCALE * (1 + 8 * float(np.finfo(float).eps))


def transport_plan(
    h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams = CostParams()
) -> TransportPlan:
    """Optimal transport plan from h1 to h2 under the bin-index ground cost.

    The flow is solved on the network of _flow_network and decomposed into
    paths (_paths); each path from node i to node j moves its units from
    bin i % n to bin j % n. At e = 1 the network sees only the net supply,
    so min(supply, demand) of each bin stays in place. Every path of an
    optimal flow is a shortest path, whose length is the ground cost of its
    ends, so the plan is optimal for the dense problem on the ground cost.
    Masses are exact multiples of 1 / MASS_SCALE with the scaled marginals
    of _integer_marginals as their sums; the plan need not be a basic
    solution of the dense problem. total_cost is the
    network's exact optimum, the same value as emd. Raises ValueError as
    emd does. The solve runs on a fresh model, so the plan depends only on
    its inputs.

    The plan's lower_bound is the _DualBound of the row duals and slack of
    the same solve: a lower bound on emd(h, h2, params) for every h, tight
    at h1.
    """
    return _plan(h1, h2, params, None)[0]


def _plan(h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams,
          model: Optional[_FlowModel]) -> Tuple[TransportPlan, Optional[_FlowModel]]:
    """(plan, model): transport_plan's plan, solved by _solve((h1.spec,
    params), b_eq, model) and built by _plan_of, and the model it solved
    on, or model itself when no solve is needed. Passing each plan's model
    on to the next restarts its dual simplex from the basis of the one
    before; where several flows are optimal, which one a plan returns then
    depends on the earlier plans of the chain as well, and on nothing else.
    A failed solve raises, so its model is not returned.
    """
    b_eq = _node_supplies(h1, h2, params)[1]
    solved = None
    if b_eq is not None:
        model, solved = _solve((h1.spec, params), b_eq, model)
    return _plan_of(h1, h2, params, solved), model


def _plan_of(h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams,
             solved) -> TransportPlan:
    """transport_plan's plan of h1 to h2, built from solved, the result of
    the solve step (_solve) on the node supplies of _node_supplies(h1, h2,
    params), or None where those are None (no solve needed). The flow is
    decomposed into paths (_paths), and the row duals of the same solve
    give the plan's lower_bound.
    """
    marginals, b_eq = _node_supplies(h1, h2, params)
    units, total_cost, potentials, slack = {}, 0.0, None, 0.0
    # Zero mass (no marginals) needs no solve; b_eq is None then too.
    if marginals is not None and (b_eq is None or params.e == 1):
        # The e = 1 network sees only the net supply: min(supply, demand) of
        # each bin stays in place, as all of it does for equal marginals.
        rows, s_int, cols, d_int = marginals
        both, i, j = np.intersect1d(rows, cols, assume_unique=True, return_indices=True)
        units = dict(zip(zip(both.tolist(), both.tolist()),
                         np.minimum(s_int[i], d_int[j]).tolist()))
    if b_eq is not None:
        arcs, arc_flow, total_cost, solution = solved
        _, arc_cost, tails, heads = _flow_network(h1.spec, params)
        if solution.dual_valid:
            y = np.asarray(solution.row_dual, dtype=float)
            slack = float(np.max(y[tails] - y[heads] - arc_cost, initial=0.0))
            # Potentials far from dual feasible would give a useless bound.
            if np.isfinite(y).all() and slack <= SLACK_TOL * arc_cost.max():
                potentials = y
        n = h1.mass.size
        paths = _paths(tails[arcs], heads[arcs], arc_flow, b_eq.astype(np.int64))
        for (first, last), moved in paths.items():
            key = (first % n, last % n)
            units[key] = units.get(key, 0) + moved
    flow = {key: moved / MASS_SCALE for key, moved in sorted(units.items()) if moved}
    plan = TransportPlan(flow=flow, total_cost=total_cost)
    plan.lower_bound = _DualBound(h2, params, potentials, slack)
    return plan


def emd(
    h1: MinutiaeHistogram, h2: MinutiaeHistogram, params: CostParams = CostParams()
) -> float:
    """Earth mover's distance between two equal-mass 2D histograms.

    The optimal value of the problem transport_plan solves, found on the
    smaller network of _flow_network without building a plan. emd holds up
    to two models, one per recent target: the solve runs on the model of
    h2 when one is held, else on the least recently used one once both
    are, which then serves h2. A held model of the same (spec, params)
    takes the new supplies and restarts from its basis (_solve); the value
    is the correctly rounded optimum whatever was solved before. Raises
    ValueError for masses that _integer_marginals rejects (among them h1 of
    positive mass against h2 of zero mass), and for parameters outside
    check_cost_range, even where the value would be 0.
    """
    supplies, solve = _stack_supplies(h1.mass.reshape(1, -1), h1, h2, params)[2:]
    if not solve[0]:
        return 0.0
    b_eq = supplies[0]
    key = h2.mass.tobytes()
    with _WARM_LOCK:
        # Out of its slot until its solve succeeds: a failed or interrupted
        # solve leaves no trusted basis, and so no model. A model of another
        # network is freed before the new one solves.
        model = _emd_models.pop(key, None)
        if model is None and len(_emd_models) == _EMD_SLOTS:
            model = _emd_models.pop(next(iter(_emd_models)))
        model, (_, _, value, _) = _solve((h1.spec, params), b_eq, model, columns=True)
        _emd_models[key] = model
    return value
