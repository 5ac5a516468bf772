"""Population-level analysis: classical MDS and bootstrap neighborhoods.

mds_embed performs classical (Torgerson) multidimensional scaling of a
symmetric distance matrix: double-center -0.5 * J D^2 J, keep the leading
eigenpairs with non-negative eigenvalues, and fix each eigenvector's sign so
its first nonzero coordinate is positive.

bootstrap_neighborhood estimates an EMD radius around a finger's mean
histogram such that a fresh impression of the same finger falls inside with
empirical probability at least 1 - alpha.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .histogram import MinutiaeHistogram
from .realness import average_histogram
from .template import _int, _real
from .transport import CostParams, emd


@dataclass
class DistanceMatrix:
    labels: List[str]
    d: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        n = len(self.labels)
        if self.d.shape != (n, n):
            raise ValueError("distance matrix shape does not match the labels")
        if not np.isfinite(self.d).all():
            raise ValueError("distance matrix has non-finite entries")
        if (self.d < 0).any():
            raise ValueError("distance matrix has negative entries")
        if not np.allclose(self.d, self.d.T, atol=1e-9, rtol=0.0):
            raise ValueError("distance matrix is not symmetric")
        if not np.allclose(np.diag(self.d), 0.0, atol=1e-9):
            raise ValueError("distance matrix diagonal is not zero")

    @classmethod
    def from_csv(cls, path: Path | str) -> "DistanceMatrix":
        """CSV rows of the form ``label,d1,d2,...,dn``."""
        labels: List[str] = []
        rows: List[List[float]] = []
        with open(path, newline="", encoding="utf-8") as fh:
            for record in csv.reader(fh):
                if not record:
                    continue
                labels.append(record[0])
                rows.append([float(x) for x in record[1:]])
        return cls(labels=labels, d=np.array(rows))

    def to_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for label, row in zip(self.labels, self.d):
                writer.writerow([label, *row.tolist()])


@dataclass
class MDSResult:
    labels: List[str]
    coords: np.ndarray  # (n, dims), centered at the origin
    eigenvalues: np.ndarray  # all n eigenvalues, descending
    flagged_dims: List[int]  # requested dims backed by negative eigenvalues

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            dims = self.coords.shape[1]
            writer.writerow(["label"] + [f"dim{k}" for k in range(1, dims + 1)])
            for label, row in zip(self.labels, self.coords):
                writer.writerow([label, *row.tolist()])


def mds_embed(dm: DistanceMatrix, dims: int = 2) -> MDSResult:
    """Classical MDS embedding of a distance matrix into `dims` coordinates.

    Dimensions whose eigenvalue is negative get all-zero coordinates and are
    reported in flagged_dims (the distances are then not fully Euclidean).
    """
    if isinstance(dims, numbers.Integral) and dims < 1:
        raise ValueError("dims must be at least 1")
    _int(dims, "dims", 1)
    n = len(dm.labels)
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (dm.d ** 2) @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]

    coords = np.zeros((n, dims))
    flagged: List[int] = []
    for k in range(min(dims, n)):
        if evals[k] <= 0:
            if evals[k] < 0:
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
    empirical (1 - alpha) quantile of those EMDs, without interpolation.
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
    emd_cache: dict = {}
    draws = np.empty(replicates)
    for b in range(replicates):
        resample = rng.integers(0, n, size=n)
        held_out = np.flatnonzero(np.bincount(resample, minlength=n) == 0)
        if held_out.size:
            pick = int(held_out[rng.integers(0, held_out.size)])
        else:
            pick = int(rng.integers(0, n))
        if pick not in emd_cache:
            emd_cache[pick] = emd(impressions[pick], mean, params)
        draws[b] = emd_cache[pick]

    draws.sort()
    # Exact rational rank: in floats (1 - 0.41) * 100 is 59.00000000000001.
    k = math.ceil((1 - Fraction(str(float(alpha)))) * replicates)
    radius = float(draws[min(k, replicates) - 1])
    return BootstrapNeighborhood(
        alpha=alpha, radius=radius, replicates=replicates, finger_id=finger_id
    )
