"""Fingerprint identification by bin intersection of raw 4D histograms.

Each gallery impression is stored as an unnormalized 4D histogram. A query
is scored against every enrolled finger by the maximum bin intersection
score (BIS) over that finger's impressions, excluding the query impression
itself; fingers are ranked by descending score with ties broken by ascending
finger id. The accessed fraction models an incremental search: rank of the
true finger divided by the number of gallery fingers.

The gallery is held as sparse rows: one CSR matrix (entries x bins) over the
entries' nonzero bins, so a built or loaded index takes memory in proportion
to its nonzero bins, not one dense 4D array per entry. A search builds the
query's dense 4D histogram once and scores every entry in one vectorised
pass; raw masses are integer pair counts, so the scores are the bits `bis`
gives. `GalleryIndex.entries` is a per-entry view that builds one dense
GalleryEntry on each access.
"""

from __future__ import annotations

import json
import math
import operator
from collections import abc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .histogram import IDENTIFICATION_SPEC, BinSpec, MinutiaeHistogram, _mass_shape, build_4dmh
from .template import MinutiaTemplate, _int, _numbers, _object, _token

# The keys of a saved index and of each of its entries.
_INDEX_KEYS = ("spec", "entries")
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


class GalleryIndex:
    """Enrolled impressions as raw 4D histograms under a shared spec, held as
    the CSR rows of their nonzero bins with a finger id, impression id and
    pair count per row."""

    def __init__(self, spec: BinSpec = IDENTIFICATION_SPEC) -> None:
        self.spec = spec
        n_bins = math.prod(_mass_shape(spec, 4))
        self._fingers: List[str] = []
        self._impressions: List[str] = []
        self._pair_counts: List[int] = []
        # Row k's bins are _indices[_indptr[k]:_indptr[k + 1]], strictly
        # increasing, with their masses in _data; int32 unless the spec has
        # more bins than it can index.
        self._indptr = np.zeros(1, dtype=np.intp)
        self._indices = np.zeros(0, dtype=np.int32 if n_bins <= 2**31 else np.int64)
        self._data = np.zeros(0)
        # Rows enrolled since the arrays were last built, as (bins, masses).
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        # Derived from the rows by _sync: the rows with a stored bin, the
        # sorted distinct finger ids and each row's position among them.
        self._filled = np.zeros(0, dtype=np.intp)
        self._finger_ids: List[str] = []
        self._codes = np.zeros(0, dtype=np.intp)

    @property
    def entries(self) -> Sequence[GalleryEntry]:
        """The enrolled impressions in enrolment order, each built as a
        dense GalleryEntry when it is accessed."""
        return _Entries(self)

    def finger_ids(self) -> List[str]:
        self._sync()
        return list(self._finger_ids)

    def enroll(self, t: MinutiaTemplate) -> None:
        if t.finger_id is None or t.impression_id is None:
            raise ValueError("gallery templates need finger and impression ids")
        hist = build_4dmh(t, self.spec, normalize=False)
        mass = hist.mass.ravel()
        idx = np.flatnonzero(mass)
        self._append(t.finger_id, t.impression_id, hist.pair_count, idx, mass[idx])

    def _append(self, finger: str, impression: str, pair_count: int,
                idx: np.ndarray, val: np.ndarray) -> None:
        self._fingers.append(finger)
        self._impressions.append(impression)
        self._pair_counts.append(pair_count)
        self._pending.append((idx, val))

    def _sync(self) -> None:
        """Fold the pending rows into the CSR arrays and re-derive what the
        search reads from them."""
        if not self._pending:
            return
        counts = np.array([len(idx) for idx, _ in self._pending], dtype=np.intp)
        self._indptr = np.concatenate([self._indptr, self._indptr[-1] + np.cumsum(counts)])
        self._indices = np.concatenate(
            [self._indices, *(idx for idx, _ in self._pending)], dtype=self._indices.dtype)
        self._data = np.concatenate([self._data, *(val for _, val in self._pending)])
        self._pending = []
        self._filled = np.flatnonzero(np.diff(self._indptr))
        self._finger_ids = sorted(set(self._fingers))
        position = {f: k for k, f in enumerate(self._finger_ids)}
        self._codes = np.array([position[f] for f in self._fingers], dtype=np.intp)

    def _entry(self, k: int) -> GalleryEntry:
        self._sync()
        stored = slice(self._indptr[k], self._indptr[k + 1])
        shape = _mass_shape(self.spec, 4)
        mass = np.zeros(math.prod(shape))
        mass[self._indices[stored]] = self._data[stored]
        return GalleryEntry(
            finger_id=self._fingers[k],
            impression_id=self._impressions[k],
            hist=MinutiaeHistogram(spec=self.spec, dims=4, mass=mass.reshape(shape),
                                   normalized=False, pair_count=self._pair_counts[k]),
        )

    def save(self, path: Path | str) -> None:
        # load rejects an index without entries; search has nothing to rank.
        if not self._fingers:
            raise ValueError("cannot save an empty gallery index")
        self._sync()
        # Raw 4D histograms are almost entirely zero; store nonzero bins only.
        bounds = self._indptr.tolist()
        idx, val = self._indices.tolist(), self._data.tolist()
        payload = {
            "spec": asdict(self.spec),
            "entries": [
                {
                    "finger": finger,
                    "impression": impression,
                    "pair_count": pairs,
                    "mass_idx": idx[a:b],
                    "mass_val": val[a:b],
                }
                for finger, impression, pairs, a, b in zip(
                    self._fingers, self._impressions, self._pair_counts, bounds, bounds[1:])
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "GalleryIndex":
        payload = _object(json.loads(Path(path).read_text(encoding="utf-8")), "index", _INDEX_KEYS)
        spec = BinSpec(**_object(payload["spec"], "spec", BinSpec))
        n_bins = math.prod(_mass_shape(spec, 4))
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
            finger = _token(entry["finger"], f"entry {k}: finger")
            impression = _token(entry["impression"], f"entry {k}: impression")
            pairs = _int(entry["pair_count"], f"entry {k}: pair_count", 0)
            # A stored zero is no mass; the rows hold nonzero bins only, as save writes.
            nonzero = val != 0
            index._append(finger, impression, pairs, idx[nonzero], val[nonzero])
        index._sync()
        return index


class _Entries(abc.Sequence):
    """A GalleryIndex's entries as a read-only sequence. Each access builds
    that entry's dense histogram afresh, so iterating holds one at a time."""

    def __init__(self, index: GalleryIndex) -> None:
        self._index = index

    def __len__(self) -> int:
        return len(self._index._fingers)

    def __getitem__(self, k) -> GalleryEntry:
        return self._index._entry(range(len(self))[operator.index(k)])

    def __iter__(self):
        # Sequence's own __iter__ keeps the last entry while it builds the next.
        for k in range(len(self)):
            yield self._index._entry(k)


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
    index._sync()
    q = build_4dmh(query, index.spec, normalize=False).mass.ravel()

    # bis of the query and every row: the smaller mass of each stored bin,
    # summed per row. A row without stored bins scores 0.
    scores = np.zeros(len(index._fingers))
    smaller = np.minimum(index._data, q[index._indices])
    scores[index._filled] = np.add.reduceat(smaller, index._indptr[index._filled])
    keep = np.ones(len(scores), dtype=bool)
    keep[[k for k, (f, i) in enumerate(zip(index._fingers, index._impressions))
          if f == query.finger_id and i == query.impression_id]] = False
    # Scores are >= 0, so a finger still at -inf has no comparable impression.
    best_of = np.full(len(index._finger_ids), -np.inf)
    np.maximum.at(best_of, index._codes[keep], scores[keep])
    best: Dict[str, float] = {
        f: s for f, s in zip(index._finger_ids, best_of.tolist()) if s != -np.inf
    }

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
    are all enrolled, each with an impression other than the query's own."""
    if not queries:
        raise ValueError("empty query set")
    fractions = []
    rank1 = []
    rank1_min30 = []
    for query in queries:
        result = search(index, query)
        if result.true_rank is None:
            if query.finger_id in index.finger_ids():
                raise ValueError(
                    f"query finger {query.finger_id!r} has no gallery impression but the"
                    f" query's own ({query.impression_id!r}), which search leaves out"
                )
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
