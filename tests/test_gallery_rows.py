"""The sparse-row gallery against dense bin intersection, its memory, and its
entries view."""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from minhist.histogram import IDENTIFICATION_SPEC, _mass_shape, build_4dmh
from minhist.identify import GalleryIndex, bis, build_index, search
from minhist.template import ENDING, Minutia, MinutiaTemplate

from genpop import make_population

DENSE_BYTES = 8 * math.prod(_mass_shape(IDENTIFICATION_SPEC, 4))


def dense_ranking(index, query):
    """The reference search: a loop of dense `bis` over index.entries."""
    q = build_4dmh(query, index.spec, normalize=False)
    best = {}
    for e in index.entries:
        if (e.finger_id, e.impression_id) == (query.finger_id, query.impression_id):
            continue
        score = bis(q, e.hist)
        if e.finger_id not in best or score > best[e.finger_id]:
            best[e.finger_id] = score
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))


def _bits(ranked):
    return [(f, s.hex()) for f, s in ranked]


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def gallery(tmp_path_factory):
    templates = make_population(50, 12, 3, "broad", None, jitter=2.0)
    # No pair within d_max: its row stores no bin, between rows that do.
    far = MinutiaTemplate(
        minutiae=(Minutia(0.0, 0.0, 0.0, ENDING), Minutia(300.0, 0.0, 90.0, ENDING)),
        dpi=500, finger_id="far", impression_id="1",
    )
    templates = templates[:7] + [far] + templates[7:]
    built = build_index(templates)
    path = tmp_path_factory.mktemp("gallery") / "gallery.json"
    built.save(path)
    return templates, {"built": built, "loaded": GalleryIndex.load(path)}


@pytest.mark.parametrize("which", ["built", "loaded"])
def test_search_scores_are_the_dense_bis_maxima(gallery, which):
    templates, indexes = gallery
    index = indexes[which]
    # Gallery impressions (left out of their own ranking), one impression
    # that is not enrolled, and a finger that is not enrolled.
    queries = templates[::4] + [
        replace(templates[1], impression_id="new"),
        replace(templates[2], finger_id="stranger"),
    ]
    for query in queries:
        assert _bits(search(index, query).ranked) == _bits(dense_ranking(index, query))


def test_equal_scores_rank_by_ascending_finger_id():
    base = make_population(51, 1, 1, "broad", None, jitter=0.0)[0]
    other = make_population(52, 1, 1, "broad", None, jitter=0.0)[0]
    ids = ["9", "10", "b", "a", "B"]
    clones = [replace(base, finger_id=f, impression_id="1") for f in ids]
    index = build_index([replace(other, finger_id="0", impression_id="1")] + clones)
    ranked = search(index, replace(base, finger_id="z", impression_id="1")).ranked
    # String order: "10" < "9" < "B" < "a" < "b"; the weaker finger comes last.
    assert [f for f, _ in ranked] == sorted(ids) + ["0"]
    assert len({s for f, s in ranked if f != "0"}) == 1
    assert ranked[-1][1] < ranked[0][1]


def test_load_holds_memory_by_nonzero_bins(tmp_path):
    """Beyond parsing its JSON text, loading a 50-entry index takes less
    than a tenth of the memory of its entries as dense 4D arrays."""
    path = tmp_path / "gallery.json"
    build_index(make_population(53, 25, 2, "broad", None, jitter=2.0)).save(path)
    GalleryIndex.load(path)
    parse = _peak(lambda: json.loads(path.read_text(encoding="utf-8")))
    load = _peak(lambda: GalleryIndex.load(path))
    assert load - parse < 50 * DENSE_BYTES / 10


def test_entries_view_holds_one_dense_array_at_a_time():
    index = build_index(make_population(54, 10, 2, "broad", None, jitter=2.0))
    index.finger_ids()
    held = []
    # map drops each entry before it asks for the next one.
    peak = _peak(lambda: held.append(sum(map(lambda e: e.hist.mass.nbytes, index.entries))))
    assert held == [20 * DENSE_BYTES]
    assert peak < 1.5 * DENSE_BYTES


def test_enroll_after_search_is_seen_by_the_next_search():
    templates = make_population(55, 4, 2, "broad", None, jitter=2.0)
    index = build_index(templates)
    query = templates[0]
    before = search(index, query)
    index.enroll(replace(query, finger_id="late", impression_id="9"))
    after = search(index, query)
    assert "late" not in dict(before.ranked)
    assert after.ranked[0] == ("late", bis(*[build_4dmh(query)] * 2))
    assert after.ranked[1:] == before.ranked
    assert len(index.entries) == 9 and "late" in index.finger_ids()
    assert index.entries[-1].finger_id == "late"
