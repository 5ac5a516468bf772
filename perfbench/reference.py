"""Frozen reference implementations used to check the program's outputs.

These re-implement, in plain NumPy/SciPy, the algorithms of the program as
they were when the benchmark was defined: 2D and 4D pair histograms, the
exact EMD (dense transportation LP with integer-scaled masses), the
realness grid search and bin-intersection ranking. They work on the
generated arrays, never on the program's objects, so a change inside the
program cannot change the reference. Only optimal *values* are compared,
never transport plans: an exact solver may return any of several optimal
plans.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from inputs import D_MAX, Template

MASS_SCALE = 10 ** 9
SPEC_2D = (10, 10)  # distance bins, direction bins (the default 2D spec)
SPEC_4D = (20, 20, 20)  # distance, direction, relative-angle bins; x4 types
N_BINS_4D = 20 * 20 * 20 * 4


def _bins(values: np.ndarray, width: float, n: int) -> np.ndarray:
    return np.clip(np.floor(values / width).astype(int), 0, n - 1)


def _pair_matrices(t: Template):
    delta = t.xy[:, None, :] - t.xy[None, :, :]
    dist = np.hypot(delta[..., 0], delta[..., 1])
    diff = np.abs(t.dirs[:, None] - t.dirs[None, :])
    return dist, np.minimum(diff, 360.0 - diff)


def hist2d(t: Template) -> np.ndarray:
    """Normalized (b_dist, b_dir) histogram of unordered pairs."""
    b_dist, b_dir = SPEC_2D
    dist, alpha = _pair_matrices(t)
    iu, ju = np.triu_indices(len(t), k=1)
    d, a = dist[iu, ju], alpha[iu, ju]
    keep = d <= D_MAX
    mass = np.zeros((b_dist, b_dir))
    np.add.at(mass, (_bins(d[keep], D_MAX / b_dist, b_dist),
                     _bins(a[keep], 180.0 / b_dir, b_dir)), 1.0)
    return mass / keep.sum()


def hist4d(t: Template) -> np.ndarray:
    """Raw flat 4D counts over ordered pairs (distance, direction difference,
    relative-position angle, type combination)."""
    b_dist, b_dir, b_rel = SPEC_4D
    dist, alpha = _pair_matrices(t)
    n = len(t)
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    d = dist[ii, jj]
    keep = d <= D_MAX
    ii, jj, d = ii[keep], jj[keep], d[keep]
    delta = t.xy[jj] - t.xy[ii]
    rel = (np.degrees(np.arctan2(delta[:, 1], delta[:, 0])) - t.dirs[ii]) % 360.0
    types = t.bif.astype(int)
    flat = (
        ((_bins(d, D_MAX / b_dist, b_dist) * b_dir
          + _bins(alpha[ii, jj], 180.0 / b_dir, b_dir)) * b_rel
         + _bins(rel, 360.0 / b_rel, b_rel)) * 4
        + 2 * types[ii] + types[jj]
    )
    return np.bincount(flat, minlength=N_BINS_4D).astype(float)


def cost_matrix(r: float, s: float, e: float) -> np.ndarray:
    b_dist, b_dir = SPEC_2D
    dx = np.abs(np.subtract.outer(np.arange(b_dist), np.arange(b_dist)))
    du = np.abs(np.subtract.outer(np.arange(b_dir), np.arange(b_dir)))
    cost = (s * dx[:, None, :, None]) ** e + (r * du[None, :, None, :]) ** e
    return cost.reshape(b_dist * b_dir, b_dist * b_dir)


def emd(h1: np.ndarray, h2: np.ndarray, params: Tuple[float, float, float]) -> float:
    """Exact EMD between two normalized 2D histograms (dense LP)."""
    a, b = h1.ravel(), h2.ravel()
    rows, cols = np.nonzero(a > 0)[0], np.nonzero(b > 0)[0]
    s_int = np.rint(a[rows] * MASS_SCALE).astype(np.int64)
    d_int = np.rint(b[cols] * MASS_SCALE).astype(np.int64)
    diff = int(s_int.sum() - d_int.sum())
    if diff > 0:
        d_int[int(np.argmax(d_int))] += diff
    elif diff < 0:
        s_int[int(np.argmax(s_int))] -= diff
    cost = cost_matrix(*params)[np.ix_(rows, cols)]
    m, n = len(rows), len(cols)
    a_eq = sparse.csc_matrix(
        (np.ones(2 * m * n),
         (np.concatenate([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)]),
          np.concatenate([np.arange(m * n), np.arange(m * n)]))),
        shape=(m + n, m * n),
    )
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([s_int, d_int]).astype(float),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    flow = np.rint(res.x).astype(np.int64) / MASS_SCALE
    return float(flow @ cost.ravel())


def side_features(t: Template) -> Tuple[float, float, float]:
    return t.mean_ird, t.var_ird, 100.0 * float(t.bif.sum()) / len(t)


# The default TrainConfig grid at the time the benchmark was defined.
R_GRID = S_GRID = (0.5, 1.0, 2.0)
E_GRID = (1.0, 2.0)
W0_GRID = (-0.5, 0.0, 0.5)
W1_GRID = (0.0, 1.0)
SIDE_GRID = (-1.0, 0.0, 1.0)
AMBIGUOUS = 1e-7  # |fused score| below this may flip with solver round-off


def train(set2: Sequence[Tuple[Template, bool]], avg_real: np.ndarray, avg_synth: np.ndarray):
    """Grid search of the seed algorithm on Set II (templates, is_real).

    Returns (lo, hi, best, ambiguous): the best accuracy in percent when every
    near-zero EMD-dependent score is counted wrong (lo) or right (hi), the
    first (params, weights) reaching lo, and whether any score was ambiguous.
    """
    labels = np.array([1.0 if real else -1.0 for _, real in set2])
    hists = [hist2d(t) for t, _ in set2]
    side_raw, offsets, scales = _side_norms(set2)
    side = (side_raw - offsets) / scales
    weights = [np.array(w) for w in itertools.product(
        W0_GRID, W1_GRID, SIDE_GRID, SIDE_GRID, SIDE_GRID)]
    best_lo = best_hi = -1.0
    best = None
    ambiguous = False
    for params in itertools.product(R_GRID, S_GRID, E_GRID):
        a = np.array([emd(h, avg_synth, params) - emd(h, avg_real, params) for h in hists])
        design = np.column_stack([np.ones(len(hists)), a, side])
        for w in weights:
            fused = design @ w
            right = np.where(fused > 0, 1.0, -1.0) == labels
            unsure = (np.abs(fused) <= AMBIGUOUS) if w[1] != 0.0 else np.zeros(len(fused), bool)
            ambiguous |= bool(unsure.any())
            lo = float((right & ~unsure).mean())
            hi = float((right | unsure).mean())
            if lo > best_lo:
                best_lo, best = lo, (params, tuple(float(x) for x in w))
            best_hi = max(best_hi, hi)
    return 100.0 * best_lo, 100.0 * best_hi, best, ambiguous


def _side_norms(set2: Sequence[Tuple[Template, bool]]):
    side_raw = np.array([side_features(t) for t, _ in set2])
    offsets, scales = side_raw.mean(axis=0), side_raw.std(axis=0)
    scales[scales <= 0] = 1.0
    return side_raw, offsets, scales


def feature_norms(set2: Sequence[Tuple[Template, bool]]) -> Dict[str, Tuple[float, float]]:
    """Set II z-scoring constants (offset, scale) per side feature."""
    _, offsets, scales = _side_norms(set2)
    return {name: (float(offsets[k]), float(scales[k]))
            for k, name in enumerate(("mean_ird", "var_ird", "pct_bif"))}


class Gallery:
    """Reference bin-intersection ranking over raw 4D counts."""

    def __init__(self, templates: Sequence[Template]):
        self.ids = [(t.finger, t.impression) for t in templates]
        rows, cols, vals = [], [], []
        for k, t in enumerate(templates):
            h = hist4d(t)
            nz = np.flatnonzero(h)
            rows.append(np.full(len(nz), k))
            cols.append(nz)
            vals.append(h[nz])
        self.matrix = sparse.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(templates), N_BINS_4D),
        )

    def rank(self, query: Template) -> List[Tuple[str, float]]:
        q = hist4d(query)
        cols = np.flatnonzero(q)
        scores = np.minimum(self.matrix[:, cols].toarray(), q[cols]).sum(axis=1)
        best: Dict[str, float] = {}
        for (finger, impression), score in zip(self.ids, scores):
            if (finger, impression) == (query.finger, query.impression):
                continue
            if finger not in best or score > best[finger]:
                best[finger] = float(score)
        return sorted(best.items(), key=lambda item: (-item[1], item[0]))
