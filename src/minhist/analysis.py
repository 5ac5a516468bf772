"""Population-level analysis: classical MDS and bootstrap neighborhoods.

mds_embed performs classical (Torgerson) multidimensional scaling of a
symmetric distance matrix: double-center -0.5 * J D^2 J, keep the leading
eigenpairs whose eigenvalues are positive beyond rounding error, and fix
each eigenvector's sign so its first nonzero coordinate is positive.

bootstrap_neighborhood estimates an EMD radius around a finger's mean
histogram such that a fresh impression of the same finger falls inside with
empirical probability at least 1 - alpha. The radius is one order statistic
of the bootstrap draws, so only the EMDs that can decide it are solved:
picks go in descending order of an upper bound on their EMD
(transport._tree_bounds) until the draw at that rank among the solved ones
is at least every unsolved bound. The distinct picks' supplies, which the
bounds read, come from one pass over their stacked masses
(transport._stack_supplies); emd checks and solves each chosen pick as any
other call.
"""

from __future__ import annotations

import csv
import heapq
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .histogram import MinutiaeHistogram
from .realness import average_histogram
from .template import _int, _real, _write_csv
from .transport import CostParams, _stack_supplies, _tree_bounds, emd

# Classical MDS double-centres the squared distances; no sum it forms
# exceeds 4 of the largest square, which stays finite up to this distance.
MAX_DISTANCE = math.sqrt(np.finfo(float).max / 4)


@dataclass
class DistanceMatrix:
    """Symmetric distances between distinctly labelled points: finite, at
    least 0 and at most MAX_DISTANCE, with a zero diagonal."""

    labels: List[str]
    d: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        n = len(self.labels)
        if self.d.shape != (n, n):
            raise ValueError("distance matrix shape does not match the labels")
        seen = set()
        for label in self.labels:
            if label in seen:
                raise ValueError(f"distance matrix label {label!r} is repeated")
            seen.add(label)
        if not np.isfinite(self.d).all():
            raise ValueError("distance matrix has non-finite entries")
        if (self.d < 0).any():
            raise ValueError("distance matrix has negative entries")
        if (self.d > MAX_DISTANCE).any():
            raise ValueError(f"distance matrix has entries above {MAX_DISTANCE:.4g},"
                             " too large to square for MDS")
        if not np.allclose(self.d, self.d.T, atol=1e-9, rtol=0.0):
            raise ValueError("distance matrix is not symmetric")
        if not np.allclose(np.diag(self.d), 0.0, atol=1e-9):
            raise ValueError("distance matrix diagonal is not zero")

    @classmethod
    def from_csv(cls, path: Path | str) -> "DistanceMatrix":
        """CSV rows of the form ``label,d1,d2,...,dn``, one per label, each
        with n distances. Blank rows are skipped and a leading byte order
        mark is dropped."""
        labels: List[str] = []
        rows: List[List[float]] = []
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for record in csv.reader(fh):
                if not record:
                    continue
                labels.append(record[0])
                rows.append([float(x) for x in record[1:]])
        if not rows:
            raise ValueError("distance matrix has no rows")
        for i, row in enumerate(rows, 1):
            if len(row) != len(rows):
                raise ValueError(f"row {i} has {len(row)} distances, expected {len(rows)}")
        return cls(labels=labels, d=np.array(rows))

    def to_csv(self, path: Path | str) -> None:
        _write_csv(path, ([label, *row.tolist()] for label, row in zip(self.labels, self.d)))


@dataclass
class MDSResult:
    labels: List[str]
    coords: np.ndarray  # (n, dims), centered at the origin
    eigenvalues: np.ndarray  # all n eigenvalues, descending
    flagged_dims: List[int]  # requested dims backed by negative eigenvalues

    def write_csv(self, path: Path | str) -> None:
        header = ["label"] + [f"dim{k}" for k in range(1, self.coords.shape[1] + 1)]
        rows = [[label, *row.tolist()] for label, row in zip(self.labels, self.coords)]
        _write_csv(path, [header, *rows])


def mds_embed(dm: DistanceMatrix, dims: int = 2) -> MDSResult:
    """Classical MDS embedding of a distance matrix into `dims` coordinates.

    An eigenvalue within tol = max |eigenvalue| * n * machine epsilon of 0
    is taken as 0, and its dimension gets all-zero coordinates. Dimensions
    whose eigenvalue is below -tol get all-zero coordinates too and are
    reported in flagged_dims (the distances are then not fully Euclidean).
    n points span at most n dimensions, so dims above n raises ValueError.
    """
    if isinstance(dims, numbers.Integral) and dims < 1:
        raise ValueError("dims must be at least 1")
    _int(dims, "dims", 1)
    n = len(dm.labels)
    if dims > n:
        raise ValueError(f"dims must be at most the number of points, {n}, got {dims}")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (dm.d ** 2) @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]

    # An eigenvalue within tol of 0 is 0 up to rounding: the rank rule of
    # numpy.linalg.matrix_rank.
    tol = float(np.abs(evals).max(initial=0.0)) * n * np.finfo(float).eps
    coords = np.zeros((n, dims))
    flagged: List[int] = []
    for k in range(min(dims, n)):
        if evals[k] <= tol:
            if evals[k] < -tol:
                flagged.append(k)
            continue
        vec = evecs[:, k]
        nz = np.nonzero(np.abs(vec) > 1e-12)[0]
        if nz.size and vec[nz[0]] < 0:
            vec = -vec
        coords[:, k] = vec * np.sqrt(evals[k])
    return MDSResult(labels=list(dm.labels), coords=coords, eigenvalues=evals,
                     flagged_dims=flagged)


@dataclass
class BootstrapNeighborhood:
    """EMD ball around a finger's mean histogram at confidence 1 - alpha."""

    alpha: float
    radius: float
    replicates: int
    finger_id: Optional[str] = None


def bootstrap_neighborhood(
    impressions: Sequence[MinutiaeHistogram],
    alpha: float,
    replicates: int,
    params: CostParams = CostParams(),
    seed: int = 0,
    finger_id: Optional[str] = None,
) -> BootstrapNeighborhood:
    """Bootstrap the EMD radius containing a same-finger draw with empirical
    probability at least 1 - alpha.

    Per replicate the impressions are resampled with replacement and one
    held-out-style draw (an impression outside the resample where possible)
    is scored by its EMD to the original mean; the radius is the lower
    empirical (1 - alpha) quantile of those EMDs, without interpolation:
    the top-th largest draw, counted with multiplicity.

    All picks are drawn first. The distinct picks' inputs are checked in
    one pass, in first-draw order (the first bad one raises its ValueError),
    and each one's EMD is bounded from above by a spanning tree of the flow
    network (transport._tree_bounds). Picks are solved through emd in descending
    bound order until the top-th largest solved draw is at least every
    unsolved bound: no unsolved draw can then lie above it, so it is the
    radius, the very float emd returned. At e != 1 the bounds are +inf
    and every distinct pick is solved.
    """
    n = len(impressions)
    if n < 2:
        raise ValueError("bootstrap needs at least 2 impressions")
    if not (0.0 < _real(alpha, "alpha") < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    if isinstance(replicates, numbers.Integral) and replicates < 100:
        raise ValueError("at least 100 bootstrap replicates are required")
    _int(replicates, "replicates", 100)
    _int(seed, "seed", 0)

    mean = average_histogram(list(impressions))
    rng = np.random.default_rng([seed, 3])
    draws: dict = {}  # each distinct pick: its number of draws, in first-draw order
    for _ in range(replicates):
        resample = rng.integers(0, n, size=n)
        held_out = np.flatnonzero(np.bincount(resample, minlength=n) == 0)
        if held_out.size:
            pick = int(held_out[rng.integers(0, held_out.size)])
        else:
            pick = int(rng.integers(0, n))
        draws[pick] = draws.get(pick, 0) + 1
    picks = list(draws)
    supplies, solve = _stack_supplies(np.stack([impressions[p].mass.ravel() for p in picks]),
                                      impressions[picks[0]], mean, params)[2:]
    # A pick that needs no solve has EMD 0.
    bounds = np.zeros(len(picks))
    if solve.any():
        bounds[solve] = _tree_bounds(mean.spec, params, supplies[solve])

    # Exact rational rank: in floats (1 - 0.41) * 100 is 59.00000000000001.
    k = math.ceil((1 - Fraction(str(float(alpha)))) * replicates)
    top = replicates - min(k, replicates) + 1  # the radius is the top-th largest draw
    # The largest solved draws as a min-heap of (EMD, draws): the fewest
    # that hold at least `top` draws, once that many are solved.
    kept: list = []
    held = 0
    for i in np.argsort(-bounds, kind="stable").tolist():
        if held >= top and kept[0][0] >= bounds[i]:
            break
        heapq.heappush(kept, (emd(impressions[picks[i]], mean, params), draws[picks[i]]))
        held += draws[picks[i]]
        while held - kept[0][1] >= top:
            held -= heapq.heappop(kept)[1]
    radius = kept[0][0]
    return BootstrapNeighborhood(
        alpha=alpha, radius=radius, replicates=replicates, finger_id=finger_id
    )
