"""Construction of 2D and 4D minutiae histograms.

The 2D histogram bins, over all unordered minutiae pairs of a template, the
Euclidean distance between the two locations and the folded difference of the
two directions. The 4D histogram additionally bins the angle of the relative
position of the second minutia (measured against the first minutia's
direction, which keeps the feature rotation invariant) and the ordered type
combination; each unordered pair contributes through both orderings.

A template at another resolution is binned as its rescale_to_500dpi, so
every histogram is in 500-DPI pixels. One kernel (_bin_pairs) bins every
pair, and one record (_Pairs) holds a template's binned pairs for both
builders. It also counts a template that differs by one minutia by binning
only that minutia's pairs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any, Dict, Optional

import numpy as np

from .template import BIFURCATION, ENDING, Minutia, MinutiaTemplate, rescale_to_500dpi
from .template import _flag, _int, _numbers, _object, _real


@dataclass(frozen=True)
class BinSpec:
    """Bin layout for minutiae histograms.

    d_max: maximal pair distance in pixels; larger pairs are discarded.
    b_dist: number of distance bins (width d_max / b_dist).
    b_dir: number of direction-difference bins covering [0, 180].
    b_relangle: number of relative-position-angle bins covering [0, 360), 4D only.
    b_type: number of type-combination bins, fixed at 4 (EE, EB, BE, BB).
    """

    d_max: float = 200.0
    b_dist: int = 10
    b_dir: int = 10
    b_relangle: int = 20
    b_type: int = 4

    def __post_init__(self) -> None:
        _real(self.d_max, "d_max", positive=True)
        for name in ("b_dist", "b_dir", "b_relangle", "b_type"):
            _int(getattr(self, name), name, 1)
        if self.b_type != 4:
            raise ValueError("b_type is fixed at 4 (EE, EB, BE, BB)")

    @property
    def dist_width(self) -> float:
        return self.d_max / self.b_dist

    @property
    def dir_width(self) -> float:
        return 180.0 / self.b_dir

    @property
    def relangle_width(self) -> float:
        return 360.0 / self.b_relangle


# Default spec for the identification path (unnormalized 4D histograms).
IDENTIFICATION_SPEC = BinSpec(d_max=200.0, b_dist=20, b_dir=20, b_relangle=20)


@dataclass
class MinutiaeHistogram:
    """Binned mass array over 2 or 4 feature axes.

    mass has shape (b_dist, b_dir) for 2D and (b_dist, b_dir, b_relangle, 4)
    for 4D. Raw masses are counts summing to pair_count (2D) or
    2 * pair_count (4D, both orderings of each pair); normalized ones are
    those counts divided by their total, so they hold one unit of mass.
    """

    spec: BinSpec
    dims: int
    mass: np.ndarray
    normalized: bool
    pair_count: int

    def __post_init__(self) -> None:
        shape = _mass_shape(self.spec, self.dims)
        if np.shape(self.mass) != shape:
            raise ValueError(f"mass of a {self.dims}D histogram on this spec must have shape"
                             f" {shape}, got {np.shape(self.mass)}")

    def total(self) -> float:
        return float(self.mass.sum())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": asdict(self.spec),
            "dims": self.dims,
            "normalized": self.normalized,
            "pair_count": self.pair_count,
            "mass": self.mass.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "MinutiaeHistogram":
        """The histogram of a to_dict payload. Keys and values are checked,
        not coerced: a missing or unknown key or a wrong type raises
        ValueError."""
        _object(d, "histogram", cls)
        spec = BinSpec(**_object(d["spec"], "spec", BinSpec))
        dims = _int(d["dims"], "dims", 2)
        return cls(spec=spec, dims=dims,
                   mass=_numbers(d["mass"], "mass").reshape(_mass_shape(spec, dims)),
                   normalized=_flag(d["normalized"], "normalized"),
                   pair_count=_int(d["pair_count"], "pair_count", 0))


def _mass_shape(spec: BinSpec, dims: int):
    if dims == 2:
        return (spec.b_dist, spec.b_dir)
    if dims == 4:
        return (spec.b_dist, spec.b_dir, spec.b_relangle, spec.b_type)
    raise ValueError("dims must be 2 or 4")


def _fold(diff):
    """Mirror absolute direction differences in [0, 360) into [0, 180]."""
    return np.minimum(diff, 360.0 - diff)


def fold_direction_difference(a1: float, a2: float) -> float:
    """Fold the difference of two directions in [0, 360) into [0, 180].

    Differences above 180 degrees are mirrored, so e.g. (10, 350) -> 20,
    (170, 190) -> 20 and (90, 270) -> 180.
    """
    if not (0.0 <= a1 < 360.0 and 0.0 <= a2 < 360.0):
        raise ValueError("directions must lie in [0, 360)")
    return float(_fold(abs(a1 - a2)))


class TooFewMinutiaeError(ValueError):
    """A template has fewer than 2 minutiae, or no minutiae pair within d_max."""


def _arrays(t: MinutiaTemplate):
    """The positions at 500 DPI, shape (n, 2), and the directions of t's
    minutiae."""
    t = rescale_to_500dpi(t)
    xy = np.array([[m.x, m.y] for m in t.minutiae], dtype=float).reshape(-1, 2)
    dirs = np.array([m.direction for m in t.minutiae], dtype=float)
    return xy, dirs


def _bin_pairs(xy: np.ndarray, dirs: np.ndarray, i, j, spec: BinSpec):
    """The pair-binning kernel: of the pairs (i, j) of minutiae with
    positions xy and directions dirs (i may be one index for all), which lie
    within spec.d_max, and the flat 2D bin dist_bin * b_dir + dir_bin of
    each of those, the row-major layout of the 2D mass array. The boundary
    values d = d_max and alpha = 180 land in the last bin of their axis.
    Swapping i and j negates both coordinate differences exactly, so a pair
    gets the same bin either way round."""
    d = np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1])
    keep = d <= spec.d_max
    alpha = _fold(np.abs((dirs[i] - dirs[j])[keep]))
    # Features are non-negative, so truncation is the floor.
    di = np.minimum((d[keep] / spec.dist_width).astype(np.intp), spec.b_dist - 1)
    ai = np.minimum((alpha / spec.dir_width).astype(np.intp), spec.b_dir - 1)
    return keep, di * spec.b_dir + ai


def _minutia_bins(xy: np.ndarray, dirs: np.ndarray, k: int, spec: BinSpec) -> np.ndarray:
    """The bins of the pairs of minutia k with each other minutia within
    spec.d_max (_bin_pairs)."""
    others = np.flatnonzero(np.arange(len(dirs)) != k)
    return _bin_pairs(xy, dirs, k, others, spec)[1]


def _count(spec: BinSpec, dims: int, bins: np.ndarray) -> np.ndarray:
    """One unit of mass per entry of bins, the flat bin index of each binned
    pair ordering, as a flat array."""
    mass = np.zeros(math.prod(_mass_shape(spec, dims)))
    # Adding into fresh zeros touches only the occupied bins of a mostly
    # empty array, unlike a bincount.
    np.add.at(mass, bins, 1.0)
    return mass


def _histogram(spec: BinSpec, dims: int, counts: np.ndarray, pair_count: int,
               normalize: bool) -> MinutiaeHistogram:
    """The histogram of counts, the flat count of binned pair orderings per
    bin, which it takes over: pair_count of them in 2D, both orderings of
    each pair in 4D. Normalized, the counts are divided by that exact
    total; with none, that raises TooFewMinutiaeError."""
    if normalize:
        orderings = pair_count if dims == 2 else 2 * pair_count
        if orderings == 0:
            raise TooFewMinutiaeError("no minutiae pair within d_max")
        counts /= orderings
    return MinutiaeHistogram(spec=spec, dims=dims, mass=counts.reshape(_mass_shape(spec, dims)),
                             normalized=normalize, pair_count=pair_count)


@dataclass(frozen=True)
class _Pairs:
    """The binned pairs of a template that every 2D binning reads: the
    spec, the template's dpi, its minutiae's positions at 500 DPI and
    directions (_arrays), the members i < j of each unordered pair within
    spec.d_max, and the flat 2D bin of each of those pairs (_bin_pairs)."""

    spec: BinSpec
    dpi: int
    xy: np.ndarray
    dirs: np.ndarray
    i: np.ndarray
    j: np.ndarray
    bins: np.ndarray

    @classmethod
    def of(cls, t: MinutiaTemplate, spec: BinSpec) -> "_Pairs":
        """The pairs of t on spec. Raises TooFewMinutiaeError for fewer than
        2 minutiae."""
        if len(t.minutiae) < 2:
            raise TooFewMinutiaeError(
                "pair features undefined: template has fewer than 2 minutiae, needs at least 2")
        xy, dirs = _arrays(t)
        i, j = np.triu_indices(len(xy), k=1)
        keep, bins = _bin_pairs(xy, dirs, i, j, spec)
        return cls(spec, t.dpi, xy, dirs, i[keep], j[keep], bins)

    @cached_property
    def counts(self) -> np.ndarray:
        """The flat 2D count of pairs per bin (_count)."""
        return _count(self.spec, 2, self.bins)

    def histogram(self, normalize: bool) -> MinutiaeHistogram:
        """The 2D histogram of the pairs (build_2dmh)."""
        return _histogram(self.spec, 2, self.counts.copy(), len(self.bins), normalize)

    def moved(self, k: int, m: Optional[Minutia]) -> MinutiaeHistogram:
        """The normalized 2D histogram of the template whose minutia k is m,
        given at the template's dpi: k == len(self.dirs) appends m, and m
        None deletes minutia k. Only minutia k's pairs are binned again: an
        add bins n pairs, a delete takes n - 1 away, and a replacement does
        both. The counts are integers, so the histogram is build_2dmh's of
        that template, with its error for one without a pair within d_max."""
        counts, pair_count = self.counts.copy(), len(self.bins)
        xy, dirs = self.xy, self.dirs
        if k < len(dirs):
            gone = _minutia_bins(xy, dirs, k, self.spec)
            np.subtract.at(counts, gone, 1.0)
            pair_count -= gone.size
        if m is not None:
            mxy, mdirs = _arrays(MinutiaTemplate(minutiae=(m,), dpi=self.dpi))
            xy = np.concatenate([xy[:k], mxy, xy[k + 1:]])
            dirs = np.concatenate([dirs[:k], mdirs, dirs[k + 1:]])
            added = _minutia_bins(xy, dirs, k, self.spec)
            np.add.at(counts, added, 1.0)
            pair_count += added.size
        return _histogram(self.spec, 2, counts, pair_count, normalize=True)


def build_2dmh(
    t: MinutiaTemplate, spec: BinSpec = BinSpec(), normalize: bool = True
) -> MinutiaeHistogram:
    """Bin all unordered minutiae pairs by (distance, direction difference).

    Pairs with distance above spec.d_max are discarded. The boundary values
    d = d_max and alpha = 180 land in the last bin of their axis. With
    normalize, a template without a pair within d_max raises
    TooFewMinutiaeError.
    """
    return _Pairs.of(t, spec).histogram(normalize)


_TYPE_INDEX = {ENDING: 0, BIFURCATION: 1}


def build_4dmh(
    t: MinutiaTemplate, spec: BinSpec = IDENTIFICATION_SPEC, normalize: bool = False
) -> MinutiaeHistogram:
    """Bin all ordered minutiae pairs by (distance, direction difference,
    relative-position angle, type combination).

    The relative-position angle of pair (i, j) is the angle of the vector
    from i to j measured against i's direction, folded into [0, 360). Each
    unordered pair contributes via both orderings, so the histogram does not
    depend on the minutiae list order; the raw total mass is twice the
    unordered pair count. With normalize, a template without a pair within
    d_max raises TooFewMinutiaeError.
    """
    p = _Pairs.of(t, spec)
    types = np.array([_TYPE_INDEX.get(m.mtype, -1) for m in t.minutiae])
    if (types < 0).any():
        raise ValueError("4D histogram requires all minutiae typed (E or B)")
    # (i, j) and (j, i) share distance and direction difference.
    src, dst = np.concatenate([p.i, p.j]), np.concatenate([p.j, p.i])
    delta = p.xy[dst] - p.xy[src]
    pos_angle = np.degrees(np.arctan2(delta[:, 1], delta[:, 0]))
    relangle = (pos_angle - p.dirs[src]) % 360.0
    # The modulo can round up to exactly 360.
    ri = np.minimum((relangle / spec.relangle_width).astype(np.intp), spec.b_relangle - 1)
    ti = 2 * types[src] + types[dst]
    bins = (np.tile(p.bins, 2) * spec.b_relangle + ri) * spec.b_type + ti
    return _histogram(spec, 4, _count(spec, 4, bins), len(p.i), normalize)
