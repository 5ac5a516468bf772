"""Synthetic template generation and EMD-guided iterative refinement.

A template is seeded by placing a drawn number of minutiae uniformly on the
foreground, with each direction set to the local orientation or its opposite
by a coin flip. It is then refined by greedy hill climbing: per iteration a
batch of candidate moves (add a minutia, delete one, flip a direction by
180 degrees) is scored by the EMD of the candidate's 2D histogram to a
target histogram, and the best strictly improving move is accepted: the
lowest EMD, then the earliest in the batch. A candidate differs from the
current template by one minutia, so its histogram comes from the current
template's binned pairs (`_Pairs`) by re-binning that minutia's pairs
alone; only the accepted candidate is built as a template. An
optimal transport plan of the current histogram, the only plan built per
iteration, identifies the bins that contribute the most cost, and
deletions are biased toward minutiae whose pairs populate those bins.

Each run owns one HiGHS model, a local of the run, with its supplies in
column form, so a re-supply is one binding call. Every solve of the run
goes through `transport._solve` on that model and restarts the dual
simplex from the run's previous solve: one solve for the initial template,
then one per scored candidate. The solution of the best candidate so far is
kept, and once that candidate is accepted, the next iteration's plan is
built from it (`transport._plan_of`: its flow for the deletion blame, its
row duals for the bound below), so no histogram is solved twice. Where
several plans are optimal, the one a solve ends on sets the deletion blame,
so it depends on the current histogram, the target and the run's own
earlier solves, and on nothing solved outside the run. Each EMD is still
the correctly rounded optimum, whichever vertex the solve ends on.

The plan's `lower_bound` holds the node potentials y of the same solve, and
by weak duality b · y is a lower bound on the EMD of any candidate whose
node supplies are b (lower-bound filtering of EMD queries: Rubner, Tomasi &
Guibas, IJCV 2000; Assent, Wenning & Seidl, ICDE 2006). A candidate differs
from the current template by one minutia, so its bound is close to its EMD.
The batch is counted in one binning pass (`_Pairs.moved_counts`), and
checked, put on the network's nodes and bounded in one supplies pass
(`transport._stack_supplies`, `_DualBound.bounds`). Candidates are scored
in (bound, batch index) order, and scoring stops at the first whose bound
is not below the current EMD, or whose (bound, index) is above the best
(EMD, index) so far: no later one could win. A scored candidate is solved
on the supplies of that pass, and only the accepted one gets a histogram.
The accepted move, and so the run, is the one scoring the whole batch would
give.
Everything is seeded and fully deterministic: a run does not depend on what
was solved before it, or on other runs interleaved with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .histogram import (
    MinutiaeHistogram,
    _Pairs,
    build_2dmh,
)
from .template import BIFURCATION, ENDING, UNKNOWN, Minutia, MinutiaTemplate
from .template import _int, _mod, _real, _write_csv
from .transport import (CostParams, TransportPlan, _ground_cost, _node_supplies, _plan_of,
                        _solve, _stack_supplies)


@dataclass(frozen=True)
class OrientationField:
    """Toy orientation field: constant angle or radial around a center."""

    kind: str = "constant"  # "constant" or "radial"
    angle: float = 0.0  # constant field orientation, degrees
    center: Tuple[float, float] = (0.0, 0.0)  # radial field center

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "radial"):
            raise ValueError("field kind must be 'constant' or 'radial'")
        _real(self.angle, "field angle")
        for value in self.center:
            _real(value, "each field center coordinate")

    def orientation(self, x: float, y: float) -> float:
        """Local ridge orientation in [0, 180) degrees."""
        if self.kind == "constant":
            return _mod(self.angle, 180.0)
        dx, dy = x - self.center[0], y - self.center[1]
        return _mod(float(np.degrees(np.arctan2(dy, dx))), 180.0)


@dataclass
class RefineConfig:
    """Target histogram, acceptance threshold and search knobs."""

    target: MinutiaeHistogram  # normalized 2D reference, e.g. a class average
    threshold: float
    max_iters: int = 200
    rng_seed: int = 0
    foreground: Tuple[float, float, float, float] = (0.0, 0.0, 200.0, 200.0)
    count_distribution: Tuple[int, ...] = (30,)
    orientation_field: OrientationField = field(default_factory=OrientationField)
    batch_size: int = 10
    params: CostParams = field(default_factory=CostParams)

    def __post_init__(self) -> None:
        _real(self.threshold, "threshold", positive=True)
        _int(self.max_iters, "max_iters", 0)
        _int(self.batch_size, "batch_size", 1)
        _int(self.rng_seed, "rng_seed", 0)
        for value in self.foreground:
            _real(value, "each foreground value", minimum=0)
        x0, y0, x1, y1 = self.foreground
        if x1 <= x0 or y1 <= y0:
            raise ValueError("foreground rectangle is empty")
        if not self.count_distribution:
            raise ValueError("count distribution is empty")
        for n in self.count_distribution:
            _int(n, "each count_distribution value (a template needs at least 2 minutiae)", 2)
        if not self.target.normalized or self.target.dims != 2:
            raise ValueError("target must be a normalized 2D histogram")


def _draw_minutia(rng: np.random.Generator, cfg: RefineConfig) -> Minutia:
    x0, y0, x1, y1 = cfg.foreground
    x = float(rng.uniform(x0, x1))
    y = float(rng.uniform(y0, y1))
    theta = cfg.orientation_field.orientation(x, y)
    direction = theta + 180.0 * rng.integers(0, 2)
    return Minutia(x=x, y=y, direction=float(direction), mtype=UNKNOWN)


def init_template(cfg: RefineConfig) -> MinutiaTemplate:
    """Random initial template: count drawn from the empirical distribution,
    positions uniform on the foreground, directions from the orientation
    field flipped by 180 degrees with probability one half."""
    rng = np.random.default_rng([cfg.rng_seed, 0])
    n = int(rng.choice(np.asarray(cfg.count_distribution)))
    minutiae = tuple(_draw_minutia(rng, cfg) for _ in range(n))
    return MinutiaTemplate(minutiae=minutiae, dpi=500)


@dataclass
class TraceRow:
    iteration: int
    emd: float
    move: str


@dataclass
class RefineResult:
    template: MinutiaTemplate
    trace: List[TraceRow]
    status: str  # "success", "stall" or "timeout"
    final_emd: float


def write_trace_csv(trace: Sequence[TraceRow], path: Path | str) -> None:
    rows = [[row.iteration, row.emd, row.move] for row in trace]
    _write_csv(path, [["iteration", "emd", "move"], *rows])


def _deletion_weights(pairs: _Pairs, plan: TransportPlan, cfg: RefineConfig) -> np.ndarray:
    """Per-minutia cost blame from the optimal flow out of each source bin,
    for the template of pairs = _Pairs.of(t, cfg.target.spec).

    Each pair's bin inherits the outgoing transport cost of that bin, split
    evenly over the pairs inside it and credited to both pair members. A
    flow entry (i, j) is priced by the ground cost of bins i and j, and the
    entries are summed per source bin in plan.flow order.
    """
    spec = cfg.target.spec
    n_flow = len(plan.flow)
    src, dst = np.fromiter(chain.from_iterable(plan.flow), np.intp, 2 * n_flow).reshape(-1, 2).T
    mass = np.fromiter(plan.flow.values(), float, n_flow)
    bin_cost = np.zeros(spec.b_dist * spec.b_dir)
    np.add.at(bin_cost, src, mass * _ground_cost(spec, cfg.params, src, dst))

    weights = np.zeros(len(pairs.dirs))
    blame = bin_cost[pairs.bins] / pairs.counts[pairs.bins]
    np.add.at(weights, pairs.i, blame)
    np.add.at(weights, pairs.j, blame)
    return weights


def _propose(
    rng: np.random.Generator,
    t: MinutiaTemplate,
    cfg: RefineConfig,
    delete_p: np.ndarray,
) -> Tuple[str, int, Optional[Minutia]]:
    """A move (desc, k, m): minutia k of t becomes m, where k == len(t)
    adds m and m None deletes minutia k."""
    # Never shrink below 2 minutiae.
    moves = ("add", "flip") if len(t) <= 2 else ("add", "delete", "flip")
    move = moves[rng.integers(0, len(moves))]
    if move == "add":
        return "add", len(t), _draw_minutia(rng, cfg)
    if move == "delete":
        idx = int(rng.choice(len(t), p=delete_p))
        return f"delete:{idx}", idx, None
    idx = int(rng.integers(0, len(t)))
    m = t.minutiae[idx]
    return f"flip:{idx}", idx, replace(m, direction=m.direction + 180.0)


def _moved(t: MinutiaTemplate, k: int, m: Optional[Minutia]) -> MinutiaTemplate:
    """t after the move (k, m) of _propose."""
    minutiae = list(t.minutiae)
    minutiae[k:k + 1] = () if m is None else (m,)
    return replace(t, minutiae=tuple(minutiae))


def refine(t: MinutiaTemplate, cfg: RefineConfig) -> RefineResult:
    """Greedy best-of-batch hill climb toward the target histogram.

    Stops on EMD <= threshold (success), a full batch without a strictly
    improving move (stall), or the iteration budget (timeout). Per
    iteration the whole batch is drawn first, then scored by the exact EMD
    in ascending order of the candidates' dual lower bounds (ties by batch
    index); a candidate whose bound shows it cannot win is not scored, nor
    is one without a minutiae pair within d_max. The lowest EMD wins, then
    the earliest batch index. The trace holds the initial EMD and one row
    per accepted move; it is strictly decreasing after the first row. A t
    without a minutiae pair within d_max raises TooFewMinutiaeError.
    """
    rng = np.random.default_rng([cfg.rng_seed, 1])
    spec, target, params = cfg.target.spec, cfg.target, cfg.params
    network = (spec, params)

    # The run's own model: every solve of the run restarts from the basis
    # of the one before, and solved is the solution of the current template.
    current, current_hist = t, build_2dmh(t, spec)
    b_eq = _node_supplies(current_hist, target, params)[1]
    model, solved = (None, None) if b_eq is None else _solve(network, b_eq, None, columns=True)
    current_emd = 0.0 if solved is None else solved[2]
    trace = [TraceRow(iteration=0, emd=current_emd, move="init")]
    # "timeout" stands until a move reaches the threshold or a batch stalls.
    status = "success" if current_emd <= cfg.threshold else "timeout"
    iteration = 0
    while status == "timeout" and iteration < cfg.max_iters:
        iteration += 1
        # The plan of the current template, from the solve that scored it.
        plan = _plan_of(current_hist, target, params, solved)
        # One binning of the current template's pairs gives the deletion
        # blame and the counts every candidate is moved from.
        pairs = _Pairs.of(current, spec)
        # Half the deletion draw follows the blame, half is uniform. The
        # blame sums to twice the plan cost, which is positive while the
        # EMD is above the threshold.
        delete_weights = _deletion_weights(pairs, plan, cfg)
        delete_p = 0.5 * delete_weights / delete_weights.sum() + 0.5 / len(current)
        delete_p /= delete_p.sum()
        # The whole batch is drawn before any is scored; _propose never sees
        # a score, so the generator is used as it would be either way.
        moves = [_propose(rng, current, cfg, delete_p) for _ in range(cfg.batch_size)]
        # One binning pass counts the batch, and one supplies pass checks and
        # bounds it. A candidate with all pairs beyond d_max has no histogram
        # as a distribution, and is not scored.
        counts, pair_counts = pairs.moved_counts([move[1:] for move in moves])
        live = np.flatnonzero(pair_counts)
        masses = counts[live] / pair_counts[live, None]
        supplies, solve = _stack_supplies(masses, current_hist, target, params)[2:]
        bounds = plan.lower_bound.bounds(supplies, solve)
        # The lowest EMD wins, then the earliest batch index; the sentinel
        # (current EMD, -1) admits only strict improvements. In (bound,
        # index) order, once a candidate's bound and index cannot beat the
        # best so far, neither can any later one's. The best keeps its
        # solution, the next plan's.
        best = (current_emd, -1, None, None)
        for bound, index, row in sorted(zip(bounds.tolist(), live.tolist(), range(len(live)))):
            if (bound, index) > best[:2]:
                break
            cand_solved = None
            if solve[row]:
                model, cand_solved = _solve(network, supplies[row], model, columns=True)
            cand_emd = 0.0 if cand_solved is None else cand_solved[2]
            if (cand_emd, index) < best[:2]:
                best = (cand_emd, index, row, cand_solved)
        if best[2] is None:
            status = "stall"
        else:
            current_emd, index, row, solved = best
            desc, k, m = moves[index]
            current_hist = MinutiaeHistogram(spec=spec, dims=2, mass=masses[row].reshape(
                spec.b_dist, spec.b_dir), normalized=True, pair_count=int(pair_counts[index]))
            current = _moved(current, k, m)
            trace.append(TraceRow(iteration=iteration, emd=current_emd, move=desc))
            if current_emd <= cfg.threshold:
                status = "success"
    return RefineResult(template=current, trace=trace, status=status, final_emd=current_emd)


def assign_types(
    t: MinutiaTemplate, p_bif_target: float, seed: int = 0
) -> MinutiaTemplate:
    """Independently assign each minutia the bifurcation type with the given
    probability, else ending; seeded."""
    if not (0.0 <= p_bif_target <= 1.0):
        raise ValueError("p_bif_target must lie in [0, 1]")
    _int(seed, "seed", 0)
    rng = np.random.default_rng([seed, 2])
    draws = rng.random(len(t.minutiae))
    minutiae = tuple(
        replace(m, mtype=BIFURCATION if u < p_bif_target else ENDING)
        for m, u in zip(t.minutiae, draws)
    )
    return replace(t, minutiae=minutiae)
