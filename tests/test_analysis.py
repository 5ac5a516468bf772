import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from minhist import analysis
from minhist.analysis import (
    DistanceMatrix,
    bootstrap_neighborhood,
    mds_embed,
)
from minhist.histogram import BinSpec, MinutiaeHistogram, build_2dmh
from minhist.realness import average_histogram
from minhist.transport import CostParams, _stack_supplies, _tree_bounds, emd

from genpop import make_population

SPEC = BinSpec(b_dist=10, b_dir=10)

# Benchmark distances between the per-database average histograms of the
# twelve FVC2000/2002/2004 databases (DB1-DB4 per year, labelled A..L;
# D, H and L are the synthetically generated ones).
FVC_LABELS = list("ABCDEFGHIJKL")
FVC_UPPER = {
    ("A", "B"): 0.02, ("A", "C"): 0.06, ("A", "D"): 1.11, ("A", "E"): 0.03,
    ("A", "F"): 0.03, ("A", "G"): 0.10, ("A", "H"): 0.68, ("A", "I"): 0.03,
    ("A", "J"): 0.05, ("A", "K"): 0.04, ("A", "L"): 0.44,
    ("B", "C"): 0.05, ("B", "D"): 1.11, ("B", "E"): 0.03, ("B", "F"): 0.04,
    ("B", "G"): 0.11, ("B", "H"): 0.68, ("B", "I"): 0.02, ("B", "J"): 0.05,
    ("B", "K"): 0.03, ("B", "L"): 0.43,
    ("C", "D"): 1.10, ("C", "E"): 0.06, ("C", "F"): 0.08, ("C", "G"): 0.10,
    ("C", "H"): 0.68, ("C", "I"): 0.05, ("C", "J"): 0.03, ("C", "K"): 0.03,
    ("C", "L"): 0.44,
    ("D", "E"): 1.11, ("D", "F"): 1.11, ("D", "G"): 1.12, ("D", "H"): 0.58,
    ("D", "I"): 1.11, ("D", "J"): 1.11, ("D", "K"): 1.11, ("D", "L"): 0.81,
    ("E", "F"): 0.03, ("E", "G"): 0.11, ("E", "H"): 0.68, ("E", "I"): 0.02,
    ("E", "J"): 0.06, ("E", "K"): 0.04, ("E", "L"): 0.44,
    ("F", "G"): 0.11, ("F", "H"): 0.68, ("F", "I"): 0.04, ("F", "J"): 0.07,
    ("F", "K"): 0.06, ("F", "L"): 0.44,
    ("G", "H"): 0.71, ("G", "I"): 0.11, ("G", "J"): 0.08, ("G", "K"): 0.10,
    ("G", "L"): 0.48,
    ("H", "I"): 0.68, ("H", "J"): 0.69, ("H", "K"): 0.69, ("H", "L"): 0.29,
    ("I", "J"): 0.05, ("I", "K"): 0.04, ("I", "L"): 0.43,
    ("J", "K"): 0.03, ("J", "L"): 0.45,
    ("K", "L"): 0.45,
}


def fvc_matrix():
    n = len(FVC_LABELS)
    d = np.zeros((n, n))
    for (a, b), v in FVC_UPPER.items():
        i, j = FVC_LABELS.index(a), FVC_LABELS.index(b)
        d[i, j] = d[j, i] = v
    return DistanceMatrix(labels=FVC_LABELS, d=d)


class TestDistanceMatrix:
    def test_valid(self):
        dm = DistanceMatrix(labels=["a", "b"], d=[[0.0, 1.0], [1.0, 0.0]])
        assert dm.d.shape == (2, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DistanceMatrix(labels=["a"], d=np.zeros((2, 2)))

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(labels=["a", "b"], d=[[0.0, 1.0], [2.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DistanceMatrix(labels=["a", "b"], d=[[0.0, -1.0], [-1.0, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(labels=["a", "b"], d=[[0.5, 1.0], [1.0, 0.0]])

    def test_csv_round_trip(self, tmp_path):
        dm = fvc_matrix()
        path = tmp_path / "d.csv"
        dm.to_csv(path)
        restored = DistanceMatrix.from_csv(path)
        assert restored.labels == dm.labels
        np.testing.assert_allclose(restored.d, dm.d)


def embedded_distances(coords):
    n = len(coords)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.linalg.norm(coords[i] - coords[j])
    return out


FOUR_CYCLE = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
COLLINEAR = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)


class TestMdsEmbed:
    def test_equilateral_triangle(self):
        d = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        res = mds_embed(DistanceMatrix(labels=["p", "q", "r"], d=d), dims=2)
        np.testing.assert_allclose(embedded_distances(res.coords), d, atol=1e-9)
        np.testing.assert_allclose(res.coords.mean(axis=0), 0.0, atol=1e-9)
        assert res.flagged_dims == []

    def test_collinear_points_exact(self):
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        res = mds_embed(DistanceMatrix(labels=["u", "v", "w"], d=d), dims=2)
        np.testing.assert_allclose(res.coords[:, 0], [1.0, 0.0, -1.0], atol=1e-9)
        # the second eigenvalue is zero up to round-off, so the second
        # coordinate is zero up to its square root
        np.testing.assert_allclose(res.coords[:, 1], 0.0, atol=1e-7)
        assert abs(res.eigenvalues[1]) < 1e-12

    def test_sign_convention_is_deterministic(self):
        dm = fvc_matrix()
        c1 = mds_embed(dm, dims=2).coords
        c2 = mds_embed(dm, dims=2).coords
        np.testing.assert_array_equal(c1, c2)
        assert c1[np.nonzero(np.abs(c1[:, 0]) > 1e-12)[0][0], 0] > 0

    def test_permutation_equivariance(self):
        dm = fvc_matrix()
        rng = np.random.default_rng(60)
        perm = rng.permutation(len(dm.labels))
        shuffled = DistanceMatrix(
            labels=[dm.labels[i] for i in perm], d=dm.d[np.ix_(perm, perm)]
        )
        base = embedded_distances(mds_embed(dm, dims=2).coords)
        permuted = embedded_distances(mds_embed(shuffled, dims=2).coords)
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-9)

    def test_fvc_databases_separate_in_two_dims(self):
        res = mds_embed(fvc_matrix(), dims=2)
        coords = {label: c for label, c in zip(res.labels, res.coords)}
        synthetic = ["D", "H", "L"]
        captured = [l for l in FVC_LABELS if l not in synthetic]
        # the nine sensor-captured databases form a tight cluster ...
        within = max(
            np.linalg.norm(coords[a] - coords[b])
            for a, b in itertools.combinations(captured, 2)
        )
        assert within < 0.1
        # ... that every synthetic database sits clearly outside of
        for s in synthetic:
            gap = min(np.linalg.norm(coords[a] - coords[s]) for a in captured)
            assert gap > 2 * within

    def test_non_euclidean_dims_flagged_and_zeroed(self):
        d = np.array(
            [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float
        )
        res = mds_embed(DistanceMatrix(labels=list("wxyz"), d=d), dims=4)
        assert 3 in res.flagged_dims
        assert res.eigenvalues[3] < 0
        np.testing.assert_array_equal(res.coords[:, 3], 0.0)

    # Eigenvalues that are 0 in exact arithmetic come out as rounding
    # errors of either sign: the 4-cycle's third (-5.6e-16) and the
    # collinear points' second and third (1.5e-16, -4.1e-17). They get no
    # coordinates and no flag; only the 4-cycle's -1 is non-Euclidean.
    def test_rounding_errors_neither_flagged_nor_embedded(self):
        res = mds_embed(DistanceMatrix(labels=list("wxyz"), d=FOUR_CYCLE), dims=4)
        assert res.flagged_dims == [3]
        np.testing.assert_array_equal(res.coords[:, 2:], 0.0)
        res = mds_embed(DistanceMatrix(labels=list("uvw"), d=COLLINEAR), dims=3)
        assert res.flagged_dims == []
        np.testing.assert_array_equal(res.coords[:, 1:], 0.0)
        np.testing.assert_allclose(res.coords[:, 0], [1.0, 0.0, -1.0], atol=1e-9)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            mds_embed(fvc_matrix(), dims=0)


class TestBootstrapNeighborhood:
    def _hists(self, seed, kind="cluster", n_fingers=1, n_impressions=6, jitter=2.0):
        pop = make_population(seed, n_fingers, n_impressions, kind, None, jitter=jitter)
        return [build_2dmh(t, SPEC) for t in pop]

    def test_identical_impressions_radius_zero(self):
        hists = self._hists(61, n_impressions=4, jitter=0.0)
        nb = bootstrap_neighborhood(hists, alpha=0.1, replicates=100)
        assert nb.radius == pytest.approx(0.0, abs=1e-9)

    def test_radius_monotone_in_confidence(self):
        hists = self._hists(62)
        radii = [
            bootstrap_neighborhood(hists, alpha=a, replicates=400, seed=5).radius
            for a in (0.5, 0.25, 0.1, 0.02)
        ]
        assert all(r2 >= r1 for r1, r2 in zip(radii, radii[1:]))
        assert radii[-1] > 0

    def test_radius_bounded_by_largest_observed_emd(self):
        hists = self._hists(63)
        from minhist.realness import average_histogram
        from minhist.transport import emd

        mean = average_histogram(hists)
        worst = max(emd(h, mean) for h in hists)
        nb = bootstrap_neighborhood(hists, alpha=0.01, replicates=300)
        assert nb.radius <= worst + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_set_difference_draw(self, seed):
        # Reference draw: the same generator calls, the held-out set as
        # np.setdiff1d; the radius is the 90th of 100 sorted draws.
        from minhist.realness import average_histogram
        from minhist.transport import emd

        hists = self._hists(66, n_impressions=5)
        n, mean = len(hists), average_histogram(hists)
        rng = np.random.default_rng([seed, 3])
        draws = []
        for _ in range(100):
            resample = rng.integers(0, n, size=n)
            held_out = np.setdiff1d(np.arange(n), resample)
            pick = held_out[rng.integers(0, held_out.size)] if held_out.size else rng.integers(0, n)
            draws.append(emd(hists[int(pick)], mean))
        nb = bootstrap_neighborhood(hists, alpha=0.1, replicates=100, seed=seed)
        assert nb.radius == sorted(draws)[89]

    def test_deterministic(self):
        hists = self._hists(64)
        a = bootstrap_neighborhood(hists, alpha=0.1, replicates=200, seed=9)
        b = bootstrap_neighborhood(hists, alpha=0.1, replicates=200, seed=9)
        assert a.radius == b.radius

    def test_custom_params_change_scale(self):
        hists = self._hists(65)
        base = bootstrap_neighborhood(hists, alpha=0.1, replicates=200).radius
        doubled = bootstrap_neighborhood(
            hists, alpha=0.1, replicates=200, params=CostParams(r=2.0, s=2.0)
        ).radius
        assert doubled == pytest.approx(2 * base, rel=1e-6)

    def test_quantile_rank_is_exact(self):
        # (1 - 0.41) * 100 rounds to 59.00000000000001 in floats; the rank is
        # 59, shared with alpha 0.415, not 60 as for alpha 0.405.
        spec = BinSpec(b_dist=5, b_dir=4)
        pop = make_population(70, 1, 30, "broad", None, jitter=4.0)
        hists = [build_2dmh(t, spec) for t in pop]
        radius = {
            a: bootstrap_neighborhood(hists, alpha=a, replicates=100, seed=1).radius
            for a in (0.405, 0.41, 0.415)
        }
        assert radius[0.415] != radius[0.405]
        assert radius[0.41] == radius[0.415]

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"replicates": 99}, "replicates"),
        ],
    )
    def test_parameter_validation(self, kwargs, fragment):
        hists = self._hists(66, n_impressions=3)
        full = dict(alpha=0.1, replicates=100)
        full.update(kwargs)
        with pytest.raises(ValueError, match=fragment):
            bootstrap_neighborhood(hists, **full)

    def test_single_impression_rejected(self):
        hists = self._hists(67, n_impressions=1)
        with pytest.raises(ValueError, match="at least 2"):
            bootstrap_neighborhood(hists, alpha=0.1, replicates=100)


def reference_picks(n, seed, replicates):
    """The picks of test_matches_the_set_difference_draw's reference draw."""
    rng = np.random.default_rng([seed, 3])
    picks = []
    for _ in range(replicates):
        resample = rng.integers(0, n, size=n)
        held_out = np.setdiff1d(np.arange(n), resample)
        pick = held_out[rng.integers(0, held_out.size)] if held_out.size else rng.integers(0, n)
        picks.append(int(pick))
    return picks


def reference_radius(hists, alpha, replicates, seed, params=CostParams()):
    """Every distinct pick solved, the radius read off all sorted draws."""
    mean = average_histogram(hists)
    picks = reference_picks(len(hists), seed, replicates)
    value = {p: emd(hists[p], mean, params) for p in dict.fromkeys(picks)}
    k = math.ceil((1 - Fraction(str(alpha))) * replicates)
    return sorted(value[p] for p in picks)[k - 1]


class CountingEmd:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return emd(*args)


def finger(kind, seed, n_impressions=32, jitter=8.0):
    pop = make_population(seed, 1, n_impressions, kind, None, jitter=jitter)
    return [build_2dmh(t, SPEC) for t in pop]


class TestTreeBounds:
    @staticmethod
    def _hist(spec, mass, normalized=True):
        return MinutiaeHistogram(spec=spec, dims=2, mass=mass, normalized=normalized,
                                 pair_count=1)

    @pytest.mark.parametrize("b_dist, b_dir", [(1, 9), (9, 1), (10, 10), (4, 7)])
    @pytest.mark.parametrize("params", [CostParams(), CostParams(r=0.3, s=2.5)],
                             ids=["r=s", "r!=s"])
    def test_never_below_emd(self, b_dist, b_dir, params):
        spec = BinSpec(b_dist=b_dist, b_dir=b_dir)
        rng = np.random.default_rng([b_dist, b_dir, int(10 * params.r)])
        n = b_dist * b_dir
        h1s, h2s = [], []
        for _ in range(25):
            masses = rng.random((2, b_dist, b_dir)) * (rng.random((2, b_dist, b_dir)) < 0.6)
            masses[:, 0, 0] += 1e-3
            h1s.append(self._hist(spec, masses[0] / masses[0].sum()))
            h2s.append(self._hist(spec, masses[1] / masses[1].sum()))
        # Equal marginals and zero mass have no supplies and cost 0.
        h1s += [h2s[0], self._hist(spec, np.zeros((b_dist, b_dir)), normalized=False)]
        h2s += [h2s[0], self._hist(spec, np.zeros((b_dist, b_dir)), normalized=False)]
        rows = [_stack_supplies(a.mass.reshape(1, -1), a, b, params)[2:] for a, b in zip(h1s, h2s)]
        supplies = [b_eq[0] if solve[0] else None for b_eq, solve in rows]
        assert supplies[-2] is None and supplies[-1] is None
        stack = np.stack([np.zeros(n) if b_eq is None else b_eq for b_eq in supplies])
        bounds = _tree_bounds(spec, params, stack)
        values = np.array([emd(a, b, params) for a, b in zip(h1s, h2s)])
        assert (bounds >= values).all()
        assert (bounds[-2:] == 0).all()
        # Finite at e = 1, so a bootstrap can leave picks unsolved.
        assert np.isfinite(bounds).all()

    def test_infinite_off_the_grid_network(self):
        spec = BinSpec(b_dist=3, b_dir=3)
        assert (_tree_bounds(spec, CostParams(e=2.0), np.ones((2, 27))) == np.inf).all()


class TestBootstrapSolves:
    @pytest.mark.parametrize("replicates", [100, 1000])
    @pytest.mark.parametrize("kind, seed", [("broad", 80), ("cluster", 81)])
    def test_radius_keeps_its_bits(self, kind, seed, replicates):
        hists = finger(kind, seed)
        for alpha in (0.5, 0.05, 0.01):
            nb = bootstrap_neighborhood(hists, alpha=alpha, replicates=replicates, seed=seed)
            assert nb.radius == reference_radius(hists, alpha, replicates, seed)

    def test_cluster_finger_solves_fewer_than_its_picks(self, monkeypatch):
        hists = finger("cluster", 82)
        counting = CountingEmd()
        monkeypatch.setattr(analysis, "emd", counting)
        bootstrap_neighborhood(hists, alpha=0.05, replicates=200, seed=3)
        assert 0 < counting.calls < len(set(reference_picks(len(hists), 3, 200)))

    def test_every_pick_solved_at_e_2(self, monkeypatch):
        hists = finger("cluster", 83, n_impressions=8)
        params = CostParams(e=2.0)
        counting = CountingEmd()
        monkeypatch.setattr(analysis, "emd", counting)
        nb = bootstrap_neighborhood(hists, alpha=0.05, replicates=200, params=params, seed=4)
        assert counting.calls == len(set(reference_picks(len(hists), 4, 200)))
        assert nb.radius == reference_radius(hists, 0.05, 200, 4, params)

    def test_first_bad_pick_raises(self):
        # Two impressions of twice and of no mass: their mean stays
        # balanced against the others, but each fails emd's balance check
        # with its own message. The one drawn first raises, as when each
        # pick was solved as it was drawn.
        hists = finger("broad", 84, n_impressions=6)
        for k, factor in ((1, 2.0), (4, 0.0)):
            hists[k] = MinutiaeHistogram(spec=SPEC, dims=2, mass=hists[k].mass * factor,
                                         normalized=True, pair_count=1)
        messages = {1: r"unequal total mass (1\.99|2\.0)", 4: r"unequal total mass 0\.0 vs"}
        firsts = set()
        for seed in range(6):
            first = next(p for p in reference_picks(6, seed, 100) if p in messages)
            firsts.add(first)
            with pytest.raises(ValueError, match=messages[first]):
                bootstrap_neighborhood(hists, alpha=0.1, replicates=100, seed=seed)
        assert firsts == {1, 4}


@pytest.mark.parametrize("call, kwargs, message", [
    ("mds", {"dims": 2.0}, "dims must be an integer >= 1, got 2.0"),
    ("mds", {"dims": "2"}, "dims must be an integer >= 1, got '2'"),
    ("mds", {"dims": True}, "dims must be an integer >= 1, got True"),
    ("mds", {"dims": 0}, "dims must be at least 1"),
    ("bootstrap", {"replicates": 150.0}, "replicates must be an integer >= 100, got 150.0"),
    ("bootstrap", {"replicates": 99}, "at least 100 bootstrap replicates are required"),
    ("bootstrap", {"alpha": "0.05"}, "alpha must be a finite number, got '0.05'"),
    ("bootstrap", {"alpha": np.nan}, "alpha must be a finite number, got nan"),
    ("bootstrap", {"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ("bootstrap", {"seed": -1}, "seed must be an integer >= 0, got -1"),
], ids=["dims-float", "dims-str", "dims-bool", "dims-zero", "replicates-float",
        "replicates-99", "alpha-str", "alpha-nan", "seed-float", "seed-negative"])
def test_wrong_typed_arguments_raise_value_error(call, kwargs, message):
    # Before the value checks the wrong types raised NumPy or comparison
    # TypeErrors, not the documented ValueError.
    hists = [build_2dmh(t, SPEC) for t in make_population(68, 1, 3, "cluster", None)]
    with pytest.raises(ValueError, match=re.escape(message)):
        if call == "mds":
            mds_embed(fvc_matrix(), **kwargs)
        else:
            bootstrap_neighborhood(hists, **{"alpha": 0.1, "replicates": 100, **kwargs})
