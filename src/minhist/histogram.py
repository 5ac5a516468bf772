"""Construction of 2D and 4D minutiae histograms.

The 2D histogram bins, over all unordered minutiae pairs of a template, the
Euclidean distance between the two locations and the folded difference of the
two directions. The 4D histogram additionally bins the angle of the relative
position of the second minutia (measured against the first minutia's
direction, which keeps the feature rotation invariant) and the ordered type
combination; each unordered pair contributes through both orderings.

Templates must be at 500 DPI before histogramming; callers rescale first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Any, Dict

import numpy as np

from .template import BIFURCATION, ENDING, UNKNOWN, MinutiaTemplate

TYPE_COMBINATIONS = ("EE", "EB", "BE", "BB")


# The checks every payload and config value goes through. Each returns the
# value it accepts and raises ValueError naming `name` otherwise. JSON true
# and false are not numbers, and strings are never parsed.


def _real(value, name: str, positive: bool = False):
    """A finite real number, > 0 if `positive`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (positive and value <= 0)):
        raise ValueError(f"{name} must be a finite number{' > 0' if positive else ''},"
                         f" got {value!r}")
    return value


def _int(value, name: str, minimum: int):
    """An integer >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _numbers(values, name: str, integer: bool = False) -> np.ndarray:
    """A list of JSON numbers (integers only, if `integer`) as an int64 or
    float array. One pass over the element types, so no element is upcast."""
    kinds = {int} if integer else {int, float}
    if isinstance(values, list) and set(map(type, values)) <= kinds:
        try:
            return np.array(values, dtype=np.int64 if integer else float)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a list of {'integers' if integer else 'numbers'}")


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
    for 4D. If normalized, masses sum to 1 (or all zero when no pair was
    binned); otherwise they are raw counts summing to pair_count (2D) or
    2 * pair_count (4D, both orderings of each pair).
    """

    spec: BinSpec
    dims: int
    mass: np.ndarray
    normalized: bool
    pair_count: int

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
        """The histogram of a to_dict payload. Values are checked, not
        coerced: a wrong type raises ValueError."""
        spec = BinSpec(**d["spec"])
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


def _check_histogram_input(t: MinutiaTemplate) -> None:
    if len(t.minutiae) < 2:
        raise TooFewMinutiaeError("pair features undefined: template has fewer than 2 minutiae")
    if t.dpi != 500:
        raise ValueError("template must be rescaled to 500 DPI before histogramming")


def _pair_bins(t: MinutiaTemplate, spec: BinSpec):
    """The unordered minutiae pairs i < j within spec.d_max and their 2D bins.

    Returns (i, j, bins): pair member indices and the flat 2D bin index
    dist_bin * b_dir + dir_bin of each pair, the row-major layout of the 2D
    mass array. The boundary values d = d_max and alpha = 180 land in the
    last bin of their axis.
    """
    xy = np.array([[m.x, m.y] for m in t.minutiae], dtype=float)
    dirs = np.array([m.direction for m in t.minutiae], dtype=float)
    i, j = np.triu_indices(len(xy), k=1)
    d = np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1])
    keep = d <= spec.d_max
    i, j, d = i[keep], j[keep], d[keep]
    alpha = _fold(np.abs(dirs[i] - dirs[j]))
    # Features are non-negative, so truncation is the floor.
    di = np.minimum((d / spec.dist_width).astype(np.intp), spec.b_dist - 1)
    ai = np.minimum((alpha / spec.dir_width).astype(np.intp), spec.b_dir - 1)
    return i, j, di * spec.b_dir + ai


def build_2dmh(
    t: MinutiaTemplate, spec: BinSpec = BinSpec(), normalize: bool = True
) -> MinutiaeHistogram:
    """Bin all unordered minutiae pairs by (distance, direction difference).

    Pairs with distance above spec.d_max are discarded. The boundary values
    d = d_max and alpha = 180 land in the last bin of their axis.
    """
    _check_histogram_input(t)
    _, _, bins = _pair_bins(t, spec)
    shape = _mass_shape(spec, 2)
    mass = np.bincount(bins, minlength=shape[0] * shape[1]).astype(float).reshape(shape)
    pair_count = len(bins)
    if normalize and pair_count > 0:
        mass /= pair_count
    return MinutiaeHistogram(
        spec=spec, dims=2, mass=mass, normalized=normalize, pair_count=pair_count
    )


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
    unordered pair count.
    """
    _check_histogram_input(t)
    if any(m.mtype == UNKNOWN for m in t.minutiae):
        raise ValueError("4D histogram requires all minutiae typed (E or B)")
    i, j, bins = _pair_bins(t, spec)
    # (i, j) and (j, i) share distance and direction difference.
    src, dst, bins = np.concatenate([i, j]), np.concatenate([j, i]), np.tile(bins, 2)

    xy = np.array([[m.x, m.y] for m in t.minutiae], dtype=float)
    dirs = np.array([m.direction for m in t.minutiae], dtype=float)
    delta = xy[dst] - xy[src]
    pos_angle = np.degrees(np.arctan2(delta[:, 1], delta[:, 0]))
    relangle = (pos_angle - dirs[src]) % 360.0
    # The modulo can round up to exactly 360.
    ri = np.minimum((relangle / spec.relangle_width).astype(np.intp), spec.b_relangle - 1)

    types = np.array([_TYPE_INDEX[m.mtype] for m in t.minutiae])
    ti = 2 * types[src] + types[dst]
    # Unlike a bincount, adding into fresh zeros touches only the occupied
    # bins of the mostly empty array.
    mass = np.zeros(_mass_shape(spec, 4))
    np.add.at(mass.reshape(-1), (bins * spec.b_relangle + ri) * spec.b_type + ti, 1.0)
    pair_count = len(i)
    if normalize and mass.sum() > 0:
        mass /= mass.sum()
    return MinutiaeHistogram(
        spec=spec, dims=4, mass=mass, normalized=normalize, pair_count=pair_count
    )
