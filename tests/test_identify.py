import warnings
from dataclasses import replace

import numpy as np
import pytest

from minhist.histogram import BinSpec, MinutiaeHistogram, build_2dmh, build_4dmh
from minhist.identify import (
    GalleryIndex,
    access_rate_report,
    bis,
    build_index,
    search,
)
from minhist.template import ENDING, Minutia, MinutiaTemplate

from genpop import make_population

SMALL_SPEC = BinSpec(b_dist=10, b_dir=10, b_relangle=12)


def raw_hist(mass, spec=None):
    mass = np.asarray(mass, dtype=float)
    return MinutiaeHistogram(
        spec=spec or BinSpec(b_dist=mass.shape[0], b_dir=mass.shape[1]),
        dims=2, mass=mass, normalized=False, pair_count=int(mass.sum()),
    )


class TestBis:
    def test_worked_example(self):
        h1 = raw_hist([[3.0, 1.0]])
        h2 = raw_hist([[1.0, 4.0]])
        assert bis(h1, h2) == 2.0

    def test_self_score_is_total_mass(self):
        h = raw_hist([[2.0, 0.0], [1.0, 5.0]])
        assert bis(h, h) == 8.0

    def test_symmetry_and_upper_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            h1 = raw_hist(rng.integers(0, 6, (5, 5)).astype(float))
            h2 = raw_hist(rng.integers(0, 6, (5, 5)).astype(float))
            score = bis(h1, h2)
            assert score == bis(h2, h1)
            assert score <= min(h1.mass.sum(), h2.mass.sum())
            assert score >= 0.0

    def test_disjoint_support(self):
        assert bis(raw_hist([[3.0, 0.0]]), raw_hist([[0.0, 3.0]])) == 0.0

    def test_normalized_rejected(self):
        h = raw_hist([[1.0, 0.0]])
        normed = MinutiaeHistogram(spec=h.spec, dims=2, mass=h.mass,
                                   normalized=True, pair_count=1)
        with pytest.raises(ValueError, match="unnormalized"):
            bis(h, normed)

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ValueError):
            bis(raw_hist(np.zeros((5, 5))), raw_hist(np.zeros((4, 4))))


def duplicate_gallery(seed, n_fingers, n_impressions=2):
    """Impressions are exact copies of the finger base (jitter 0)."""
    return make_population(seed, n_fingers, n_impressions, "broad", None, jitter=0.0)


class TestSearch:
    def test_duplicate_impression_ranks_first(self):
        templates = duplicate_gallery(30, 10)
        index = build_index(templates, SMALL_SPEC)
        query = templates[0]  # finger 1, impression 1; impression 2 is identical
        result = search(index, query)
        assert result.true_rank == 1
        assert result.ranked[0][0] == query.finger_id
        assert result.accessed_fraction == pytest.approx(1 / 10)

    def test_own_impression_excluded(self):
        templates = duplicate_gallery(31, 3, n_impressions=1)
        index = build_index(templates, SMALL_SPEC)
        result = search(index, templates[0])
        # only one impression per finger: the query's finger drops out entirely
        assert [f for f, _ in result.ranked] == ["2", "3"]
        assert result.true_rank is None
        assert result.accessed_fraction is None

    def test_single_finger_gallery(self):
        templates = duplicate_gallery(32, 1)
        index = build_index(templates, SMALL_SPEC)
        result = search(index, templates[0])
        assert result.true_rank == 1
        assert result.accessed_fraction == 1.0

    def test_ties_broken_by_ascending_finger_id(self):
        # two distinct fingers enrolled with identical minutiae
        base = duplicate_gallery(33, 1)[0]
        clones = [
            MinutiaTemplate(minutiae=base.minutiae, dpi=500,
                            finger_id=fid, impression_id="1")
            for fid in ("b", "a")
        ]
        index = build_index(clones, SMALL_SPEC)
        probe = MinutiaTemplate(minutiae=base.minutiae, dpi=500,
                                finger_id="z", impression_id="1")
        result = search(index, probe)
        assert [f for f, _ in result.ranked] == ["a", "b"]
        assert result.ranked[0][1] == result.ranked[1][1]

    def test_deleting_minutiae_never_raises_self_score(self):
        rng = np.random.default_rng(34)
        for t in duplicate_gallery(35, 5, n_impressions=1):
            full = build_4dmh(t, SMALL_SPEC, normalize=False)
            keep = rng.choice(len(t), size=int(0.8 * len(t)), replace=False)
            reduced_t = MinutiaTemplate(
                minutiae=tuple(t.minutiae[i] for i in sorted(keep)), dpi=500
            )
            reduced = build_4dmh(reduced_t, SMALL_SPEC, normalize=False)
            assert bis(full, reduced) <= bis(full, full)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError, match="empty gallery"):
            search(GalleryIndex(spec=SMALL_SPEC), duplicate_gallery(36, 1)[0])

    def test_enroll_requires_ids(self):
        t = duplicate_gallery(37, 1)[0]
        anonymous = MinutiaTemplate(minutiae=t.minutiae, dpi=500)
        index = GalleryIndex(spec=SMALL_SPEC)
        with pytest.raises(ValueError, match="finger and impression"):
            index.enroll(anonymous)


class TestAccessRateReport:
    def test_duplicate_gallery_is_perfect(self):
        templates = duplicate_gallery(38, 10)
        index = build_index(templates, SMALL_SPEC)
        queries = [t for t in templates if t.impression_id == "1"]
        report = access_rate_report(index, queries)
        assert report.rank1_percent == 100.0
        assert report.mean_accessed_fraction == pytest.approx(1 / 10)
        assert report.n_queries == 10

    def test_min30_subset(self):
        templates = duplicate_gallery(39, 6)
        index = build_index(templates, SMALL_SPEC)
        queries = [t for t in templates if t.impression_id == "1"]
        report = access_rate_report(index, queries)
        assert report.n_queries_min30 == sum(1 for q in queries if len(q) >= 30)
        if report.n_queries_min30:
            assert report.rank1_percent_min30 == 100.0

    def test_unenrolled_query_rejected(self):
        templates = duplicate_gallery(40, 3)
        index = build_index(templates, SMALL_SPEC)
        stranger = MinutiaTemplate(
            minutiae=templates[0].minutiae, dpi=500,
            finger_id="99", impression_id="1",
        )
        with pytest.raises(ValueError, match="not enrolled"):
            access_rate_report(index, [stranger])

    def test_query_of_its_finger_only_impression_rejected(self):
        # finger 1 is enrolled, but only through the query's own impression,
        # which leave-one-out removes from the ranking
        templates = duplicate_gallery(31, 3, n_impressions=1)
        index = build_index(templates, SMALL_SPEC)
        with pytest.raises(ValueError) as info:
            access_rate_report(index, [templates[0]])
        message = str(info.value)
        assert "not enrolled" not in message
        assert message == ("query finger '1' has no gallery impression but the"
                           " query's own ('1'), which search leaves out")

    def test_empty_query_set_rejected(self):
        index = build_index(duplicate_gallery(41, 2), SMALL_SPEC)
        with pytest.raises(ValueError, match="empty query"):
            access_rate_report(index, [])


def test_index_save_load_round_trip(tmp_path):
    templates = duplicate_gallery(42, 4)
    index = build_index(templates, SMALL_SPEC)
    path = tmp_path / "gallery.json"
    index.save(path)
    restored = GalleryIndex.load(path)
    assert restored.spec == index.spec
    assert restored.finger_ids() == index.finger_ids()
    for before, after in zip(index.entries, restored.entries):
        assert (before.finger_id, before.impression_id) == (after.finger_id, after.impression_id)
        assert before.hist.pair_count == after.hist.pair_count
        np.testing.assert_array_equal(before.hist.mass, after.hist.mass)
    original = search(index, templates[0])
    reloaded = search(restored, templates[0])
    assert original.ranked == reloaded.ranked


def test_entry_without_pair_within_d_max_round_trips(tmp_path):
    far = MinutiaTemplate(
        minutiae=(Minutia(0.0, 0.0, 0.0, ENDING), Minutia(300.0, 0.0, 90.0, ENDING)),
        dpi=500, finger_id="9", impression_id="1",
    )
    index = build_index(duplicate_gallery(43, 2) + [far], SMALL_SPEC)
    path = tmp_path / "gallery.json"
    index.save(path)
    restored = GalleryIndex.load(path)
    assert restored.entries[-1].hist.mass.sum() == 0.0
    np.testing.assert_array_equal(restored.entries[0].hist.mass, index.entries[0].hist.mass)


def test_identification_ignores_the_interridge_scalars():
    # Only the realness side features read them, and only they warn.
    templates = [replace(t, mean_ird=40.0) for t in duplicate_gallery(44, 2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        index = build_index(templates[:4], SMALL_SPEC)
        search(index, templates[0])
        build_2dmh(templates[0])
    assert caught == []
