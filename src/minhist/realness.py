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

import csv
import itertools
import json
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .histogram import BinSpec, MinutiaeHistogram, TooFewMinutiaeError, build_2dmh
from .template import UNKNOWN, MinutiaTemplate, bifurcation_percentage, rescale_to_500dpi
from .transport import BALANCE_RTOL, CostParams, emd

REAL = "real"
SYNTHETIC = "synthetic"

SIDE_FEATURES = ("mean_ird", "var_ird", "pct_bif")


class EmptyClassError(ValueError):
    """A class has no templates in a set that training needs."""


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
        self.weights = tuple(float(w) for w in self.weights)
        if len(self.weights) != 5:
            raise ValueError("expected 5 fusion weights w0..w4")
        for name, (_, scale) in self.feature_norms.items():
            if scale <= 0:
                raise ValueError(f"feature scale for {name!r} must be strictly positive")

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
        return cls(
            avg_real=MinutiaeHistogram.from_dict(d["avg_real"]),
            avg_synth=MinutiaeHistogram.from_dict(d["avg_synth"]),
            weights=tuple(d["weights"]),
            feature_norms={k: (float(v[0]), float(v[1])) for k, v in d["feature_norms"].items()},
            params=CostParams(**d["params"]),
            spec=BinSpec(**d["spec"]),
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "ClassModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class RealnessScore:
    """Per-template score log; decision is "real" or "synthetic"."""

    emd_real: float
    emd_synth: float
    a: float
    decision: str
    b: Optional[float] = None
    c: Optional[float] = None
    d: Optional[float] = None
    fused: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "emd_real": self.emd_real,
            "emd_synth": self.emd_synth,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "fused": self.fused,
            "decision": self.decision,
        }


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
    return RealnessScore(emd_real=emd_real, emd_synth=emd_synth, a=a, decision=decision)


def fuse_features(
    a: float,
    mean_ird: Optional[float],
    var_ird: Optional[float],
    pct_bif: Optional[float],
    model: ClassModel,
) -> Tuple[Optional[float], Optional[float], Optional[float], float, str]:
    """Linear fusion s = w0 + w1*a + w2*b + w3*c + w4*d of the EMD difference
    with z-scored side features. Returns (b, c, d, fused, decision)."""
    w0, w1, w2, w3, w4 = model.weights
    raw = {"mean_ird": mean_ird, "var_ird": var_ird, "pct_bif": pct_bif}
    side_weights = {"mean_ird": w2, "var_ird": w3, "pct_bif": w4}
    normed: Dict[str, Optional[float]] = {}
    for name in SIDE_FEATURES:
        value = raw[name]
        if value is None:
            if side_weights[name] != 0.0:
                raise ValueError(f"feature {name!r} is required by a nonzero weight")
            normed[name] = None
        else:
            offset, scale = model.feature_norms.get(name, (0.0, 1.0))
            normed[name] = (value - offset) / scale
    fused = w0 + w1 * a
    for name in SIDE_FEATURES:
        if normed[name] is not None:
            fused += side_weights[name] * normed[name]
    decision = REAL if fused > 0 else SYNTHETIC
    return normed["mean_ird"], normed["var_ird"], normed["pct_bif"], fused, decision


def template_side_features(
    t: MinutiaTemplate,
) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """(mean_ird, var_ird, pct_bif) of a 500-DPI template; None when absent."""
    has_types = any(m.mtype != UNKNOWN for m in t.minutiae)
    pct = bifurcation_percentage(t) if has_types else None
    return t.mean_ird, t.var_ird, pct


def classify_template(t: MinutiaTemplate, model: ClassModel) -> RealnessScore:
    """Full scoring path for one template: rescale, histogram, EMD difference,
    feature fusion with the model's trained weights."""
    t500 = rescale_to_500dpi(t)
    h = build_2dmh(t500, model.spec, normalize=True)
    if h.pair_count == 0:
        raise TooFewMinutiaeError("no minutiae pair within d_max")
    score = emd_difference_score(h, model)
    mean_ird, var_ird, pct_bif = template_side_features(t500)
    b, c, d, fused, decision = fuse_features(score.a, mean_ird, var_ird, pct_bif, model)
    return RealnessScore(
        emd_real=score.emd_real,
        emd_synth=score.emd_synth,
        a=score.a,
        b=b,
        c=c,
        d=d,
        fused=fused,
        decision=decision,
    )


@dataclass
class TrainConfig:
    """Training protocol knobs.

    split gives the number of fingers in Sets I, II, III; fingers are ordered
    by id (numerically when possible) and partitioned without overlap.
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
        for name in ("r_grid", "s_grid", "e_grid", "w0_grid", "w1_grid", "side_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} is empty")
        if len(self.split) != 3 or not all(
            isinstance(n, numbers.Integral) and n >= 0 for n in self.split
        ):
            raise ValueError(f"split must be three non-negative integers, got {self.split!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        kwargs = dict(d)
        if "spec" in kwargs:
            kwargs["spec"] = BinSpec(**kwargs["spec"])
        if "split" in kwargs:
            kwargs["split"] = tuple(kwargs["split"])
        for key in ("r_grid", "s_grid", "e_grid", "w0_grid", "w1_grid", "side_grid"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class TrainResult:
    model: ClassModel
    set2_accuracy: float


def _finger_sort_key(finger_id: str):
    try:
        return (0, int(finger_id), finger_id)
    except ValueError:
        return (1, 0, finger_id)


def split_by_finger(
    templates: Sequence[MinutiaTemplate], split: Tuple[int, int, int]
) -> Tuple[List[MinutiaTemplate], List[MinutiaTemplate], List[MinutiaTemplate]]:
    """Partition templates into Sets I/II/III by ordered finger id."""
    fingers = sorted({t.finger_id for t in templates}, key=_finger_sort_key)
    n1, n2, _ = split
    set1 = set(fingers[:n1])
    set2 = set(fingers[n1 : n1 + n2])
    set3 = set(fingers[n1 + n2 :])
    out: Tuple[List[MinutiaTemplate], ...] = ([], [], [])
    for t in templates:
        if t.finger_id in set1:
            out[0].append(t)
        elif t.finger_id in set2:
            out[1].append(t)
        elif t.finger_id in set3:
            out[2].append(t)
    return out


def _prepare(templates: Sequence[MinutiaTemplate], spec: BinSpec):
    """Rescale and histogram every usable template once."""
    prepared = []
    for t in templates:
        t500 = rescale_to_500dpi(t)
        if len(t500) < 2:
            continue
        h = build_2dmh(t500, spec, normalize=True)
        if h.pair_count == 0:
            continue  # all pairs beyond d_max: no mass to average or transport
        prepared.append((t500, h))
    return prepared


def train(
    real_templates: Sequence[MinutiaTemplate],
    synth_templates: Sequence[MinutiaTemplate],
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Train a realness model on Sets I (averages) and II (grid search).

    The grid over (r, s, e) and the fusion weights is searched exhaustively
    for maximal Set II accuracy; ties keep the first grid point in the nested
    iteration order. Set III templates are untouched.
    """
    real1, real2, _ = split_by_finger(real_templates, config.split)
    synth1, synth2, _ = split_by_finger(synth_templates, config.split)
    for name, subset in (("real Set I", real1), ("synthetic Set I", synth1),
                         ("real Set II", real2), ("synthetic Set II", synth2)):
        if not subset:
            raise EmptyClassError(f"class empty: no templates in {name}")

    prep_r1 = _prepare(real1, config.spec)
    prep_s1 = _prepare(synth1, config.spec)
    avg_real = average_histogram([h for _, h in prep_r1])
    avg_synth = average_histogram([h for _, h in prep_s1])

    prep2 = [(t, h, REAL) for t, h in _prepare(real2, config.spec)] + [
        (t, h, SYNTHETIC) for t, h in _prepare(synth2, config.spec)
    ]
    labels = np.array([1.0 if lab == REAL else -1.0 for _, _, lab in prep2])

    side_raw = np.array(
        [
            [v if v is not None else np.nan for v in template_side_features(t)]
            for t, _, _ in prep2
        ]
    )
    have_side = config.use_side_features and not np.isnan(side_raw).any()
    if have_side:
        offsets = side_raw.mean(axis=0)
        scales = side_raw.std(axis=0)
        scales[scales <= 0] = 1.0
        side = (side_raw - offsets) / scales
        feature_norms = {
            name: (float(offsets[k]), float(scales[k]))
            for k, name in enumerate(SIDE_FEATURES)
        }
    else:
        side = np.zeros_like(side_raw)
        feature_norms = {name: (0.0, 1.0) for name in SIDE_FEATURES}

    side_grid = config.side_grid if have_side else (0.0,)
    weight_vectors = [
        np.array(w)
        for w in itertools.product(
            config.w0_grid, config.w1_grid, side_grid, side_grid, side_grid
        )
    ]
    design_tail = np.nan_to_num(side)  # columns b, c, d

    best = None  # (accuracy, params, weights)
    for r, s, e in itertools.product(config.r_grid, config.s_grid, config.e_grid):
        params = CostParams(r=r, s=s, e=e)
        a = np.array(
            [
                emd(h, avg_synth, params) - emd(h, avg_real, params)
                for _, h, _ in prep2
            ]
        )
        design = np.column_stack([np.ones(len(prep2)), a, design_tail])
        for w in weight_vectors:
            fused = design @ w
            predicted = np.where(fused > 0, 1.0, -1.0)  # ties -> synthetic
            accuracy = float((predicted == labels).mean())
            if best is None or accuracy > best[0]:
                best = (accuracy, params, tuple(float(x) for x in w))

    accuracy, params, weights = best
    model = ClassModel(
        avg_real=avg_real,
        avg_synth=avg_synth,
        weights=weights,
        feature_norms=feature_norms,
        params=params,
        spec=config.spec,
    )
    return TrainResult(model=model, set2_accuracy=100.0 * accuracy)


@dataclass
class EvaluationReport:
    accuracy: float  # percent correct overall
    per_class: Dict[str, float]  # label -> percent correct
    rows: List[Tuple[str, str, RealnessScore]]  # (template id, label, score)
    skipped: int = 0  # templates without a minutiae pair within d_max

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["template", "emd_real", "emd_synth", "a", "b", "c", "d",
                 "fused", "decision", "label"]
            )
            for template_id, label, score in self.rows:
                writer.writerow(
                    [template_id, score.emd_real, score.emd_synth, score.a,
                     score.b, score.c, score.d, score.fused, score.decision, label]
                )


def evaluate(model: ClassModel, templates: Sequence[MinutiaTemplate]) -> EvaluationReport:
    """Percent-correct report over a labeled test set; templates without a
    minutiae pair within d_max are skipped and counted."""
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
        raise ValueError("empty test set")
    per_class = {
        label: (100.0 * correct[label] / totals[label]) if totals[label] else float("nan")
        for label in (REAL, SYNTHETIC)
    }
    accuracy = 100.0 * sum(correct.values()) / n
    return EvaluationReport(accuracy=accuracy, per_class=per_class, rows=rows, skipped=skipped)
