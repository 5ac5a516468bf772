"""Fingerprint identification by bin intersection of raw 4D histograms.

Each gallery impression is stored as an unnormalized 4D histogram. A query
is scored against every enrolled finger by the maximum bin intersection
score (BIS) over that finger's impressions, excluding the query impression
itself; fingers are ranked by descending score with ties broken by ascending
finger id. The accessed fraction models an incremental search: rank of the
true finger divided by the number of gallery fingers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .histogram import IDENTIFICATION_SPEC, BinSpec, MinutiaeHistogram, _mass_shape, build_4dmh
from .template import MinutiaTemplate, _int, _numbers, _object

# The keys of each entry of a saved index.
_ENTRY_KEYS = ("finger", "impression", "pair_count", "mass_idx", "mass_val")


def bis(h1: MinutiaeHistogram, h2: MinutiaeHistogram) -> float:
    """Bin intersection score: sum over bins of the smaller raw mass."""
    if h1.spec != h2.spec or h1.dims != h2.dims:
        raise ValueError("histograms have different bin specifications")
    if h1.normalized or h2.normalized:
        raise ValueError("BIS is defined on raw (unnormalized) histograms")
    return float(np.minimum(h1.mass, h2.mass).sum())


@dataclass
class GalleryEntry:
    finger_id: str
    impression_id: str
    hist: MinutiaeHistogram


@dataclass
class GalleryIndex:
    """Enrolled impressions as raw 4D histograms under a shared spec."""

    spec: BinSpec = IDENTIFICATION_SPEC
    entries: List[GalleryEntry] = field(default_factory=list)

    def finger_ids(self) -> List[str]:
        return sorted({e.finger_id for e in self.entries})

    def enroll(self, t: MinutiaTemplate) -> None:
        if t.finger_id is None or t.impression_id is None:
            raise ValueError("gallery templates need finger and impression ids")
        hist = build_4dmh(t, self.spec, normalize=False)
        self.entries.append(
            GalleryEntry(finger_id=t.finger_id, impression_id=t.impression_id, hist=hist)
        )

    def save(self, path: Path | str) -> None:
        # load rejects an index without entries; search has nothing to rank.
        if not self.entries:
            raise ValueError("cannot save an empty gallery index")
        # Raw 4D histograms are almost entirely zero; store nonzero bins only.
        payload = {
            "spec": asdict(self.spec),
            "entries": [
                {
                    "finger": e.finger_id,
                    "impression": e.impression_id,
                    "pair_count": e.hist.pair_count,
                    "mass_idx": np.flatnonzero(e.hist.mass).tolist(),
                    "mass_val": e.hist.mass.ravel()[np.flatnonzero(e.hist.mass)].tolist(),
                }
                for e in self.entries
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "GalleryIndex":
        payload = _object(json.loads(Path(path).read_text(encoding="utf-8")), "index", cls)
        spec = BinSpec(**_object(payload["spec"], "spec", BinSpec))
        shape = _mass_shape(spec, 4)
        n_bins = int(np.prod(shape))
        index = cls(spec=spec)
        if not (isinstance(payload["entries"], list) and payload["entries"]):
            raise ValueError("entries must be a non-empty list")
        for k, entry in enumerate(payload["entries"]):
            _object(entry, f"entry {k}", _ENTRY_KEYS)
            idx = _numbers(entry["mass_idx"], f"entry {k}: mass_idx", integer=True)
            val = _numbers(entry["mass_val"], f"entry {k}: mass_val")
            if idx.shape != val.shape:
                raise ValueError(f"entry {k}: mass_idx and mass_val differ in length")
            if idx.size and (idx.min() < 0 or idx.max() >= n_bins):
                raise ValueError(f"entry {k}: mass_idx outside [0, {n_bins})")
            # save writes each bin once, in order; a repeat would keep one value.
            if (np.diff(idx) <= 0).any():
                raise ValueError(f"entry {k}: mass_idx must be strictly increasing")
            if not (np.isfinite(val).all() and (val >= 0).all()):
                raise ValueError(f"entry {k}: mass_val must be finite and non-negative")
            finger, impression = entry["finger"], entry["impression"]
            if not (isinstance(finger, str) and isinstance(impression, str)):
                raise ValueError(f"entry {k}: finger and impression must be strings")
            pairs = _int(entry["pair_count"], f"entry {k}: pair_count", 0)
            mass = np.zeros(n_bins)
            mass[idx] = val
            index.entries.append(
                GalleryEntry(
                    finger_id=finger,
                    impression_id=impression,
                    hist=MinutiaeHistogram(
                        spec=spec,
                        dims=4,
                        mass=mass.reshape(shape),
                        normalized=False,
                        pair_count=pairs,
                    ),
                )
            )
        return index


def build_index(
    templates: Sequence[MinutiaTemplate], spec: BinSpec = IDENTIFICATION_SPEC
) -> GalleryIndex:
    index = GalleryIndex(spec=spec)
    for t in templates:
        index.enroll(t)
    return index


@dataclass
class RankingResult:
    query_id: Tuple[Optional[str], Optional[str]]
    ranked: List[Tuple[str, float]]  # (finger_id, score), best first
    true_rank: Optional[int]  # 1-based; None when the query finger is absent
    accessed_fraction: Optional[float]


def search(index: GalleryIndex, query: MinutiaTemplate) -> RankingResult:
    """Rank gallery fingers against a query template.

    The query's own impression is never compared against itself
    (leave-one-impression-out); a finger left without comparable impressions
    drops out of the ranking.
    """
    if not index.entries:
        raise ValueError("empty gallery index")
    q_hist = build_4dmh(query, index.spec, normalize=False)

    best: Dict[str, float] = {}
    for entry in index.entries:
        if (
            entry.finger_id == query.finger_id
            and entry.impression_id == query.impression_id
        ):
            continue
        score = bis(q_hist, entry.hist)
        if entry.finger_id not in best or score > best[entry.finger_id]:
            best[entry.finger_id] = score

    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    true_rank = None
    accessed_fraction = None
    if query.finger_id is not None:
        for position, (finger_id, _) in enumerate(ranked, start=1):
            if finger_id == query.finger_id:
                true_rank = position
                accessed_fraction = position / len(ranked)
                break
    return RankingResult(
        query_id=(query.finger_id, query.impression_id),
        ranked=ranked,
        true_rank=true_rank,
        accessed_fraction=accessed_fraction,
    )


@dataclass
class AccessRateReport:
    n_queries: int
    mean_accessed_fraction: float
    rank1_percent: float
    rank1_percent_min30: Optional[float]  # queries with >= 30 minutiae
    n_queries_min30: int


def access_rate_report(
    index: GalleryIndex, queries: Sequence[MinutiaTemplate]
) -> AccessRateReport:
    """Mean accessed fraction and rank-1 rates over a query set whose fingers
    are all enrolled."""
    if not queries:
        raise ValueError("empty query set")
    fractions = []
    rank1 = []
    rank1_min30 = []
    for query in queries:
        result = search(index, query)
        if result.true_rank is None:
            raise ValueError(
                f"query finger {query.finger_id!r} is not enrolled in the gallery"
            )
        fractions.append(result.accessed_fraction)
        hit = result.true_rank == 1
        rank1.append(hit)
        if len(query) >= 30:
            rank1_min30.append(hit)
    return AccessRateReport(
        n_queries=len(queries),
        mean_accessed_fraction=float(np.mean(fractions)),
        rank1_percent=100.0 * float(np.mean(rank1)),
        rank1_percent_min30=(
            100.0 * float(np.mean(rank1_min30)) if rank1_min30 else None
        ),
        n_queries_min30=len(rank1_min30),
    )
