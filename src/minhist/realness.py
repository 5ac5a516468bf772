"""The test of realness: real-vs-synthetic classification of templates.

A class model holds one average 2D histogram per class (real / synthetic).
A template is scored by the difference of its EMDs to the two averages,
optionally fused with three normalized scalar features (mean interridge
distance, interridge variance, bifurcation percentage) through a trained
linear score s = w0 + w1*a + w2*b + w3*c + w4*d; positive means real, ties
count as synthetic.

Training follows the three-way finger split: Set I provides the class
averages, Set II drives an exhaustive grid search over cost parameters and
fusion weights plus the feature z-scoring constants, and Set III is reserved
for evaluation and never seen during training.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .histogram import BinSpec, MinutiaeHistogram, TooFewMinutiaeError, build_2dmh
from .template import (
    REAL,
    SYNTHETIC,
    UNKNOWN,
    MinutiaTemplate,
    bifurcation_percentage,
    rescale_to_500dpi,
)
from .template import _flag, _int, _numbers, _object, _real, _write_csv
from .transport import BALANCE_RTOL, CostParams, check_cost_range, emd

SIDE_FEATURES = ("mean_ird", "var_ird", "pct_bif")

# Plausible range for the global mean interridge distance of adult prints at
# 500 DPI, in pixels. Values outside only raise a warning, never an error.
MEAN_IRD_RANGE_500DPI = (3.0, 25.0)

_COST_GRIDS = ("r_grid", "s_grid", "e_grid")
_WEIGHT_GRIDS = ("w0_grid", "w1_grid", "side_grid")


class EmptyClassError(ValueError):
    """A class has no templates in a set that training needs, or a test set
    has no template that evaluation can score."""


class NonFiniteScoreError(ValueError):
    """A model whose feature norms or fusion weights, each finite, give a
    template a non-finite normalized feature or fused score."""


@dataclass
class ClassModel:
    """Trained realness classifier: class averages plus fusion parameters."""

    avg_real: MinutiaeHistogram
    avg_synth: MinutiaeHistogram
    weights: Tuple[float, float, float, float, float]
    feature_norms: Dict[str, Tuple[float, float]]  # feature -> (offset, scale)
    params: CostParams
    spec: BinSpec

    def __post_init__(self) -> None:
        if not self.avg_real.spec == self.avg_synth.spec == self.spec:
            raise ValueError("class averages must share the model's bin specification")
        for avg in (self.avg_real, self.avg_synth):
            if not avg.normalized or avg.dims != 2:
                raise ValueError("class averages must be normalized 2D histograms")
            if not np.isfinite(avg.mass).all() or (avg.mass < 0).any():
                raise ValueError("class averages must have finite non-negative masses")
            if abs(avg.total() - 1.0) > BALANCE_RTOL:
                raise ValueError(f"class averages must sum to 1, got {avg.total()!r}")
        if len(self.weights) != 5:
            raise ValueError("expected 5 fusion weights w0..w4")
        self.weights = tuple(float(_real(w, "each of the fusion weights")) for w in self.weights)
        norms = {}
        for name, pair in _object(self.feature_norms, "feature_norms", SIDE_FEATURES).items():
            if len(pair) != 2:
                raise ValueError(f"feature norm of {name!r} must be two numbers, offset and"
                                 f" scale, got {len(pair)}")
            offset, scale = pair
            norms[name] = (float(_real(offset, f"feature norm offset of {name!r}")),
                           float(_real(scale, f"feature norm scale of {name!r}", positive=True)))
        self.feature_norms = norms
        check_cost_range(self.spec, self.params)

    def to_dict(self) -> dict:
        return {
            "avg_real": self.avg_real.to_dict(),
            "avg_synth": self.avg_synth.to_dict(),
            "weights": list(self.weights),
            "feature_norms": {k: list(v) for k, v in self.feature_norms.items()},
            "params": asdict(self.params),
            "spec": asdict(self.spec),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassModel":
        """The model of a to_dict payload, which holds exactly the keys
        to_dict writes, at every level; its norms name every side feature."""
        _object(d, "model", cls)
        return cls(
            avg_real=MinutiaeHistogram.from_dict(d["avg_real"]),
            avg_synth=MinutiaeHistogram.from_dict(d["avg_synth"]),
            weights=_numbers(d["weights"], "fusion weights"),
            feature_norms={
                name: _numbers(pair, f"feature norm of {name!r}")
                for name, pair in _object(d["feature_norms"], "feature_norms",
                                          SIDE_FEATURES).items()
            },
            params=CostParams(**_object(d["params"], "params", CostParams)),
            spec=BinSpec(**_object(d["spec"], "spec", BinSpec)),
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "ClassModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class RealnessScore:
    """Per-template score log; decision is "real" or "synthetic". The field
    order is the key order of `classify`'s JSON and the column order of
    `evaluate`'s CSV."""

    emd_real: float
    emd_synth: float
    a: float
    b: Optional[float]
    c: Optional[float]
    d: Optional[float]
    fused: Optional[float]
    decision: str


def average_histogram(hs: Sequence[MinutiaeHistogram]) -> MinutiaeHistogram:
    """Bin-wise arithmetic mean of normalized histograms (itself normalized)."""
    if not hs:
        raise ValueError("cannot average an empty list of histograms")
    spec, dims = hs[0].spec, hs[0].dims
    for h in hs:
        if h.spec != spec or h.dims != dims:
            raise ValueError("histograms have mixed bin specifications")
        if not h.normalized:
            raise ValueError("histograms must be normalized before averaging")
    mass = np.mean([h.mass for h in hs], axis=0)
    return MinutiaeHistogram(
        spec=spec,
        dims=dims,
        mass=mass,
        normalized=True,
        pair_count=sum(h.pair_count for h in hs),
    )


def emd_difference_score(h: MinutiaeHistogram, model: ClassModel) -> RealnessScore:
    """Score by EMDs to the two class averages; smaller EMD wins, ties are
    conservatively called synthetic."""
    if h.spec != model.spec:
        raise ValueError("histogram spec does not match the model")
    emd_real = emd(h, model.avg_real, model.params)
    emd_synth = emd(h, model.avg_synth, model.params)
    a = emd_synth - emd_real
    decision = REAL if emd_real < emd_synth else SYNTHETIC
    return RealnessScore(emd_real=emd_real, emd_synth=emd_synth, a=a,
                         b=None, c=None, d=None, fused=None, decision=decision)


def _fuse(weights, a, side):
    """s = w0 + w1*a + w2*b + w3*c + w4*d, added left to right, leaving out
    each side feature of `side` = (b, c, d) that is None. Works on scalars
    and elementwise on arrays, so training and scoring round alike."""
    fused = weights[0] + weights[1] * a
    for w, value in zip(weights[2:], side):
        if value is not None:
            fused = fused + w * value
    return fused


def fuse_features(
    a: float,
    mean_ird: Optional[float],
    var_ird: Optional[float],
    pct_bif: Optional[float],
    model: ClassModel,
) -> Tuple[Optional[float], Optional[float], Optional[float], float, str]:
    """Linear fusion s = w0 + w1*a + w2*b + w3*c + w4*d of the EMD difference
    with z-scored side features. Returns (b, c, d, fused, decision). Raises
    NonFiniteScoreError where a z-scored feature or the score overflows."""
    normed: List[Optional[float]] = []
    for name, value, w in zip(SIDE_FEATURES, (mean_ird, var_ird, pct_bif), model.weights[2:]):
        if value is None:
            if w != 0.0:
                raise ValueError(f"feature {name!r} is required by a nonzero weight")
            normed.append(None)
        else:
            offset, scale = model.feature_norms[name]
            normed.append(_finite_score((value - offset) / scale, f"normalized {name}"))
    fused = _finite_score(_fuse(model.weights, a, normed), "fused score")
    decision = REAL if fused > 0 else SYNTHETIC
    return (*normed, fused, decision)


def _finite_score(value: float, name: str) -> float:
    if math.isfinite(value):
        return value
    raise NonFiniteScoreError(f"the model gives a {name} of {value!r}")


def template_side_features(
    t: MinutiaTemplate,
) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """(mean_ird, var_ird, pct_bif) of a template, the interridge scalars
    rescaled to 500 DPI; None when absent. Warns when the mean interridge
    distance lies outside MEAN_IRD_RANGE_500DPI."""
    t = rescale_to_500dpi(t)
    lo, hi = MEAN_IRD_RANGE_500DPI
    if t.mean_ird is not None and t.var_ird is not None and not lo <= t.mean_ird <= hi:
        warnings.warn(
            f"mean interridge distance {t.mean_ird:.2f} px at 500 DPI is outside "
            f"the plausible range [{lo}, {hi}]",
            stacklevel=2,
        )
    has_types = any(m.mtype != UNKNOWN for m in t.minutiae)
    pct = bifurcation_percentage(t) if has_types else None
    return t.mean_ird, t.var_ird, pct


def classify_template(t: MinutiaTemplate, model: ClassModel) -> RealnessScore:
    """Full scoring path for one template: histogram, EMD difference,
    feature fusion with the model's trained weights. A template without a
    minutiae pair within d_max raises TooFewMinutiaeError."""
    score = emd_difference_score(build_2dmh(t, model.spec), model)
    b, c, d, fused, decision = fuse_features(score.a, *template_side_features(t), model)
    return replace(score, b=b, c=c, d=d, fused=fused, decision=decision)


@dataclass
class TrainConfig:
    """Training protocol knobs.

    split gives the number of fingers in Sets I, II, III; fingers are ordered
    by id (numerically when possible) and partitioned without overlap. train
    reads only the first two counts: Set III is every finger after Sets I
    and II, and train never touches it.
    """

    spec: BinSpec = field(default_factory=BinSpec)
    split: Tuple[int, int, int] = (40, 30, 40)
    r_grid: Tuple[float, ...] = (0.5, 1.0, 2.0)
    s_grid: Tuple[float, ...] = (0.5, 1.0, 2.0)
    e_grid: Tuple[float, ...] = (1.0, 2.0)
    # Coarse weight lattice; always includes the pure EMD-difference rule
    # (0, 1, 0, 0, 0). Side-feature weights allow both signs.
    w0_grid: Tuple[float, ...] = (-0.5, 0.0, 0.5)
    w1_grid: Tuple[float, ...] = (0.0, 1.0)
    side_grid: Tuple[float, ...] = (-1.0, 0.0, 1.0)
    use_side_features: bool = True

    def __post_init__(self) -> None:
        for name in _COST_GRIDS + _WEIGHT_GRIDS:
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} is empty")
            for v in values:
                _real(v, f"each {name} value", positive=name in _COST_GRIDS)
            setattr(self, name, values)
        self.split = tuple(_int(n, "each split value", 0) for n in self.split)
        if len(self.split) != 3:
            raise ValueError(f"split must be three integers, got {self.split!r}")
        _flag(self.use_side_features, "use_side_features")
        for r, s, e in itertools.product(self.r_grid, self.s_grid, self.e_grid):
            check_cost_range(self.spec, CostParams(r=r, s=s, e=e))


@dataclass
class TrainResult:
    model: ClassModel
    set2_accuracy: float
    skipped: int = 0  # Set I/II templates without a minutiae pair within d_max


def _finger_sort_key(finger_id: str):
    try:
        return (0, int(finger_id), finger_id)
    except ValueError:
        return (1, 0, finger_id)


def split_by_finger(
    templates: Sequence[MinutiaTemplate], split: Tuple[int, int, int]
) -> Tuple[List[MinutiaTemplate], List[MinutiaTemplate], List[MinutiaTemplate]]:
    """Partition templates into Sets I/II/III by ordered finger id."""
    if any(t.finger_id is None for t in templates):
        raise ValueError("a template has no finger id: name its file <finger>_<impression>.mnt")
    fingers = sorted({t.finger_id for t in templates}, key=_finger_sort_key)
    rank = {finger: k for k, finger in enumerate(fingers)}
    n1, n2, _ = split
    out: Tuple[List[MinutiaTemplate], ...] = ([], [], [])
    for t in templates:
        k = rank[t.finger_id]
        out[0 if k < n1 else 1 if k < n1 + n2 else 2].append(t)
    return out


def _prepare(templates: Sequence[MinutiaTemplate], spec: BinSpec):
    """Histogram every usable template once; returns the (template,
    histogram) pairs and the number of templates skipped, those without a
    minutiae pair within d_max."""
    prepared = []
    skipped = 0
    for t in templates:
        try:
            prepared.append((t, build_2dmh(t, spec)))
        except TooFewMinutiaeError:
            skipped += 1
    return prepared, skipped


def _set2_differences(
    hists: Sequence[MinutiaeHistogram],
    avg_real: MinutiaeHistogram,
    avg_synth: MinutiaeHistogram,
    config: TrainConfig,
) -> Iterator[Tuple[CostParams, np.ndarray]]:
    """(params, a) for each (r, s, e) of the cost grid in itertools.product
    order, where a[i] = EMD(hists[i], avg_synth) - EMD(hists[i], avg_real).

    The ground cost (s|dx|)^e + (r|du|)^e is homogeneous of degree e in
    (r, s), so EMD(r, s, e) = (s/s0)^e * EMD(r0, s0, e) whenever r/s = r0/s0.
    The EMDs are solved once per distinct (r/s, e), at the first grid point
    (r0, s0, e) with that ratio, and scaled at the others. Ratios are
    compared exactly, as fractions, so float rounding never joins or splits
    a group; the first point of a group gets exactly the EMDs it would get
    alone.
    """
    solved = {}  # (r/s, e) -> (s0, EMDs to avg_synth, EMDs to avg_real)
    for r, s, e in itertools.product(config.r_grid, config.s_grid, config.e_grid):
        params = CostParams(r=r, s=s, e=e)
        key = (Fraction(r) / Fraction(s), e)
        if key not in solved:
            to_synth = np.array([emd(h, avg_synth, params) for h in hists])
            to_real = np.array([emd(h, avg_real, params) for h in hists])
            solved[key] = (s, to_synth, to_real)
        s0, to_synth, to_real = solved[key]
        scale = float(Fraction(s) / Fraction(s0)) ** e
        yield params, scale * to_synth - scale * to_real


def train(
    real_templates: Sequence[MinutiaTemplate],
    synth_templates: Sequence[MinutiaTemplate],
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Train a realness model on Sets I (averages) and II (grid search).

    The grid over (r, s, e) and the fusion weights is searched exhaustively
    for maximal Set II accuracy; ties keep the first grid point in the nested
    iteration order. The Set II EMDs are solved once per distinct (r/s, e)
    (see _set2_differences). Set III templates are untouched.
    """
    real1, real2, _ = split_by_finger(real_templates, config.split)
    synth1, synth2, _ = split_by_finger(synth_templates, config.split)
    subsets = {"real Set I": real1, "synthetic Set I": synth1,
               "real Set II": real2, "synthetic Set II": synth2}
    for name, subset in subsets.items():
        if not subset:
            raise EmptyClassError(f"class empty: no templates in {name}")

    prepared = [_prepare(subset, config.spec) for subset in subsets.values()]
    for name, (pairs, skipped) in zip(subsets, prepared):
        if not pairs:
            raise EmptyClassError(
                f"class empty: no template in {name} has a minutiae pair within d_max"
                f" ({skipped} skipped)"
            )
    prep_r1, prep_s1, prep_r2, prep_s2 = (pairs for pairs, _ in prepared)
    avg_real = average_histogram([h for _, h in prep_r1])
    avg_synth = average_histogram([h for _, h in prep_s1])

    prep2 = prep_r2 + prep_s2
    is_real = np.arange(len(prep2)) < len(prep_r2)

    # None (an absent feature) becomes NaN
    side_raw = np.array([template_side_features(t) for t, _ in prep2], dtype=float)
    have_side = config.use_side_features and not np.isnan(side_raw).any()
    if have_side:
        offsets = side_raw.mean(axis=0)
        # The std of each column over its largest magnitude, scaled back: the
        # squares of a finite feature as large as 1e200 would overflow. The
        # divisor is a power of two, so the scale has the bits of a plain std.
        peaks = np.ldexp(1.0, np.frexp(np.abs(side_raw).max(axis=0))[1])
        scales = (side_raw / peaks).std(axis=0) * peaks
        scales[scales <= 0] = 1.0
        side = tuple(((side_raw - offsets) / scales).T)  # columns b, c, d
        feature_norms = {
            name: (float(offsets[k]), float(scales[k]))
            for k, name in enumerate(SIDE_FEATURES)
        }
    else:
        side = (None, None, None)
        feature_norms = {name: (0.0, 1.0) for name in SIDE_FEATURES}

    side_grid = config.side_grid if have_side else (0.0,)
    weight_vectors = list(
        itertools.product(config.w0_grid, config.w1_grid, side_grid, side_grid, side_grid)
    )

    best = None  # (accuracy, params, weights)
    hists2 = [h for _, h in prep2]
    for params, a in _set2_differences(hists2, avg_real, avg_synth, config):
        for w in weight_vectors:
            # ties (fused == 0) count as synthetic
            accuracy = float(((_fuse(w, a, side) > 0) == is_real).mean())
            if best is None or accuracy > best[0]:
                best = (accuracy, params, w)

    accuracy, params, weights = best
    model = ClassModel(
        avg_real=avg_real,
        avg_synth=avg_synth,
        weights=weights,
        feature_norms=feature_norms,
        params=params,
        spec=config.spec,
    )
    skipped = sum(n for _, n in prepared)
    return TrainResult(model=model, set2_accuracy=100.0 * accuracy, skipped=skipped)


@dataclass
class EvaluationReport:
    accuracy: float  # percent correct overall
    per_class: Dict[str, float]  # label -> percent correct
    rows: List[Tuple[str, str, RealnessScore]]  # (template id, label, score)
    skipped: int = 0  # templates without a minutiae pair within d_max

    def write_csv(self, path: Path | str) -> None:
        rows = [[template_id, *astuple(score), label] for template_id, label, score in self.rows]
        _write_csv(path, [["template", *(f.name for f in fields(RealnessScore)), "label"], *rows])


def evaluate(model: ClassModel, templates: Sequence[MinutiaTemplate]) -> EvaluationReport:
    """Percent-correct report over a labeled test set; templates without a
    minutiae pair within d_max are skipped and counted. Raises
    EmptyClassError when no template is left to score."""
    rows: List[Tuple[str, str, RealnessScore]] = []
    correct: Dict[str, int] = {REAL: 0, SYNTHETIC: 0}
    totals: Dict[str, int] = {REAL: 0, SYNTHETIC: 0}
    skipped = 0
    for t in templates:
        if t.label is None:
            raise ValueError(f"template {t.template_id} has no label")
        try:
            score = classify_template(t, model)
        except TooFewMinutiaeError:
            skipped += 1
            continue
        rows.append((t.template_id, t.label, score))
        totals[t.label] += 1
        if score.decision == t.label:
            correct[t.label] += 1
    n = sum(totals.values())
    if n == 0:
        raise EmptyClassError(
            f"empty test set: {skipped} skipped without a minutiae pair within d_max")
    per_class = {
        label: (100.0 * correct[label] / totals[label]) if totals[label] else float("nan")
        for label in (REAL, SYNTHETIC)
    }
    accuracy = 100.0 * sum(correct.values()) / n
    return EvaluationReport(accuracy=accuracy, per_class=per_class, rows=rows, skipped=skipped)
