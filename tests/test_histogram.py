import numpy as np
import pytest

from minhist.histogram import (
    BinSpec,
    MinutiaeHistogram,
    TooFewMinutiaeError,
    build_2dmh,
    build_4dmh,
    fold_direction_difference,
)
from minhist.template import (
    BIFURCATION,
    ENDING,
    UNKNOWN,
    Minutia,
    MinutiaTemplate,
    rescale_to_500dpi,
)


def template_from_arrays(points, dirs, mtype=ENDING, dpi=500):
    minutiae = tuple(
        Minutia(float(x), float(y), float(d) % 360.0, mtype)
        for (x, y), d in zip(points, dirs)
    )
    return MinutiaTemplate(minutiae=minutiae, dpi=dpi)


def random_template(rng, n=20, typed=True, extent=200.0):
    points = rng.uniform(0.0, extent, size=(n, 2))
    dirs = rng.uniform(0.0, 360.0, n)
    minutiae = tuple(
        Minutia(
            float(x), float(y), float(d),
            (BIFURCATION if rng.random() < 0.4 else ENDING) if typed else UNKNOWN,
        )
        for (x, y), d in zip(points, dirs)
    )
    return MinutiaTemplate(minutiae=minutiae, dpi=500)


class TestFoldDirectionDifference:
    @pytest.mark.parametrize(
        "a1,a2,expected",
        [(10.0, 350.0, 20.0), (170.0, 190.0, 20.0), (90.0, 270.0, 180.0),
         (0.0, 20.0, 20.0), (0.0, 0.0, 0.0), (359.0, 1.0, 2.0)],
    )
    def test_worked_examples(self, a1, a2, expected):
        assert fold_direction_difference(a1, a2) == pytest.approx(expected)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a1, a2 = rng.uniform(0, 360, 2)
            assert fold_direction_difference(a1, a2) == fold_direction_difference(a2, a1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            fold_direction_difference(360.0, 0.0)


class TestBinSpec:
    def test_defaults(self):
        spec = BinSpec()
        assert spec.d_max == 200.0
        assert spec.dist_width == 20.0
        assert spec.dir_width == 18.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            BinSpec(d_max=0)
        with pytest.raises(ValueError):
            BinSpec(b_dist=0)
        with pytest.raises(ValueError):
            BinSpec(b_type=2)

    @pytest.mark.parametrize("kwargs, name", [
        ({"d_max": float("nan")}, "d_max"), ({"d_max": float("inf")}, "d_max"),
        ({"d_max": "200"}, "d_max"), ({"d_max": True}, "d_max"),
        ({"b_dist": 10.5}, "b_dist"), ({"b_dist": 10.0}, "b_dist"),
        ({"b_dir": True}, "b_dir"), ({"b_relangle": "20"}, "b_relangle"),
        ({"b_type": 4.0}, "b_type"),
    ])
    def test_rejects_non_numbers_and_fractional_bins(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            BinSpec(**kwargs)

    def test_accepts_numpy_scalars(self):
        spec = BinSpec(d_max=np.float64(150.0), b_dist=np.int64(5))
        assert spec.dist_width == 30.0


class TestBuild2D:
    def test_single_pair_example(self):
        t = template_from_arrays([(0, 0), (30, 0)], [0, 10])
        h = build_2dmh(t, normalize=False)
        assert h.pair_count == 1
        assert h.mass[1, 0] == 1.0
        assert h.mass.sum() == 1.0

    def test_three_collinear_minutiae_hand_oracle(self):
        # 3 minutiae at x = 0, 20, 40, same direction: pairs at distances
        # 20, 20, 40 -> bins 1, 1, 2 (boundary values land in the upper bin).
        t = template_from_arrays([(0, 0), (20, 0), (40, 0)], [0, 0, 0])
        h = build_2dmh(t, normalize=False)
        expected = np.zeros((10, 10))
        expected[1, 0] = 2.0
        expected[2, 0] = 1.0
        np.testing.assert_array_equal(h.mass, expected)
        assert h.pair_count == 3

    def test_pairs_beyond_dmax_discarded(self):
        # distances 150, 150, 300: the 300px pair falls outside the support
        t = template_from_arrays([(0, 0), (150, 0), (300, 0)], [0, 0, 0])
        h = build_2dmh(t, normalize=False)
        assert h.pair_count == 2
        # all pairs out of range -> all-zero histogram
        t2 = template_from_arrays([(0, 0), (250, 0)], [0, 0])
        h2 = build_2dmh(t2, normalize=False)
        assert h2.pair_count == 0
        assert h2.mass.sum() == 0.0

    def test_boundary_values_clamp_into_last_bin(self):
        t = template_from_arrays([(0, 0), (200, 0)], [0, 180])
        h = build_2dmh(t, normalize=False)
        assert h.mass[9, 9] == 1.0

    def test_normalization(self):
        rng = np.random.default_rng(1)
        t = random_template(rng, n=15)
        h = build_2dmh(t, normalize=True)
        if h.pair_count > 0:
            assert h.mass.sum() == pytest.approx(1.0, abs=1e-9)

    def test_raw_mass_sums_to_pair_count(self):
        rng = np.random.default_rng(2)
        t = random_template(rng, n=25)
        h = build_2dmh(t, normalize=False)
        assert h.mass.sum() == h.pair_count

    def test_too_few_minutiae(self):
        t = template_from_arrays([(0, 0)], [0])
        with pytest.raises(ValueError, match="pair features undefined"):
            build_2dmh(t)

    def test_rescales_to_500dpi(self):
        # A template at another resolution is binned exactly as its
        # rescale_to_500dpi.
        rng = np.random.default_rng(11)
        t500 = random_template(rng, n=25)
        t569 = MinutiaTemplate(minutiae=tuple(
            Minutia(m.x * 569 / 500, m.y * 569 / 500, m.direction, m.mtype)
            for m in t500.minutiae
        ), dpi=569)
        rescaled = rescale_to_500dpi(t569)
        for build, normalize in ((build_2dmh, False), (build_2dmh, True), (build_4dmh, False)):
            h, expected = build(t569, normalize=normalize), build(rescaled, normalize=normalize)
            assert h.pair_count == expected.pair_count > 0
            assert h.mass.tobytes() == expected.mass.tobytes()

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = random_template(rng, n=15)
            dx, dy = rng.uniform(0, 50, 2)
            shifted = template_from_arrays(
                [(m.x + dx, m.y + dy) for m in t.minutiae],
                [m.direction for m in t.minutiae],
            )
            np.testing.assert_array_equal(
                build_2dmh(t).mass, build_2dmh(shifted).mass
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        t = random_template(rng, n=12)
        perm = rng.permutation(12)
        shuffled = MinutiaTemplate(
            minutiae=tuple(t.minutiae[i] for i in perm), dpi=500
        )
        np.testing.assert_array_equal(build_2dmh(t).mass, build_2dmh(shuffled).mass)


def rotate_template(t, angle_deg, center=(250.0, 250.0)):
    """Rotate positions about a center and directions by the same angle."""
    theta = np.radians(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    cx, cy = center
    minutiae = []
    for m in t.minutiae:
        x, y = m.x - cx, m.y - cy
        minutiae.append(
            Minutia(
                x=cx + c * x - s * y,
                y=cy + s * x + c * y,
                direction=(m.direction + angle_deg) % 360.0,
                mtype=m.mtype,
            )
        )
    return MinutiaTemplate(minutiae=tuple(minutiae), dpi=500)


def near_bin_edge(t, spec):
    """True when any pair feature sits within 1e-9 of a bin boundary."""
    eps = 1e-9
    xy = np.array([[m.x, m.y] for m in t.minutiae])
    dirs = np.array([m.direction for m in t.minutiae])
    iu, ju = np.triu_indices(len(xy), k=1)
    d = np.hypot(*(xy[iu] - xy[ju]).T)
    diff = np.abs(dirs[iu] - dirs[ju])
    a = np.minimum(diff, 360.0 - diff)
    for values, width in ((d, spec.dist_width), (a, spec.dir_width)):
        rem = np.mod(values, width)
        if (np.minimum(rem, width - rem) < eps).any():
            return True
    return False


class TestRotationInvariance:
    def test_2d_and_4d_random_rotations(self):
        rng = np.random.default_rng(5)
        spec2 = BinSpec()
        spec4 = BinSpec(b_dist=10, b_dir=10, b_relangle=12)
        checked = 0
        for _ in range(30):
            t = random_template(rng, n=12, extent=100.0)
            shifted = MinutiaTemplate(
                minutiae=tuple(
                    Minutia(m.x + 200, m.y + 200, m.direction, m.mtype)
                    for m in t.minutiae
                ),
                dpi=500,
            )
            angle = float(rng.uniform(0, 360))
            rotated = rotate_template(shifted, angle)
            if near_bin_edge(shifted, spec2) or near_bin_edge(rotated, spec2):
                continue
            np.testing.assert_array_equal(
                build_2dmh(shifted, spec2).mass, build_2dmh(rotated, spec2).mass
            )
            np.testing.assert_array_equal(
                build_4dmh(shifted, spec4).mass, build_4dmh(rotated, spec4).mass
            )
            checked += 1
        assert checked > 10

    def test_exact_90_degree_rotation_bitwise(self):
        rng = np.random.default_rng(6)
        t = random_template(rng, n=15, extent=100.0)
        rotated = rotate_template(t, 90.0, center=(100.0, 100.0))
        spec4 = BinSpec(b_dist=10, b_dir=10, b_relangle=12)
        np.testing.assert_array_equal(build_4dmh(t, spec4).mass, build_4dmh(rotated, spec4).mass)


@pytest.mark.parametrize("build", [build_2dmh, build_4dmh])
def test_template_without_a_pair_has_no_normalized_histogram(build):
    # Its one pair lies beyond d_max: raw counts of zero, but no distribution.
    t = template_from_arrays([(0, 0), (250, 0)], [0, 90])
    raw = build(t, BinSpec(), normalize=False)
    assert raw.pair_count == 0 and raw.mass.sum() == 0.0 and not raw.normalized
    with pytest.raises(TooFewMinutiaeError, match="no minutiae pair within d_max"):
        build(t, BinSpec(), normalize=True)


class TestBuild4D:
    def test_ordered_pair_geometry(self):
        t = template_from_arrays([(0, 0), (10, 0)], [0, 0])
        spec = BinSpec(b_dist=10, b_dir=10, b_relangle=20)
        h = build_4dmh(t, spec, normalize=False)
        # (i, j): relative angle 0 -> bin 0; (j, i): 180 -> bin 10; both EE.
        assert h.mass[0, 0, 0, 0] == 1.0
        assert h.mass[0, 0, 10, 0] == 1.0
        assert h.mass.sum() == 2.0

    def test_type_combination_bins(self):
        t = MinutiaTemplate(
            minutiae=(
                Minutia(0.0, 0.0, 0.0, ENDING),
                Minutia(10.0, 0.0, 0.0, BIFURCATION),
            ),
            dpi=500,
        )
        spec = BinSpec(b_dist=10, b_dir=10, b_relangle=20)
        h = build_4dmh(t, spec, normalize=False)
        assert h.mass[:, :, :, 1].sum() == 1.0  # EB, ordering (E, B)
        assert h.mass[:, :, :, 2].sum() == 1.0  # BE, ordering (B, E)

    def test_identification_spec_length(self):
        rng = np.random.default_rng(7)
        t = random_template(rng, n=10)
        spec = BinSpec(b_dist=20, b_dir=20, b_relangle=20)
        h = build_4dmh(t, spec, normalize=False)
        assert h.mass.size == 32000

    def test_untyped_minutia_rejected(self):
        t = template_from_arrays([(0, 0), (10, 0)], [0, 0], mtype=UNKNOWN)
        with pytest.raises(ValueError, match="typed"):
            build_4dmh(t)

    def test_raw_total_is_twice_pair_count(self):
        rng = np.random.default_rng(8)
        t = random_template(rng, n=18)
        h = build_4dmh(t, BinSpec(b_dist=10, b_dir=10, b_relangle=12), normalize=False)
        assert h.mass.sum() == 2 * h.pair_count

    def test_normalized_is_raw_over_twice_pair_count(self):
        rng = np.random.default_rng(12)
        spec = BinSpec(b_dist=10, b_dir=10, b_relangle=12)
        for n in (2, 9, 30):
            t = random_template(rng, n=n, extent=140.0)  # every pair within d_max
            raw, norm = build_4dmh(t, spec, normalize=False), build_4dmh(t, spec, normalize=True)
            assert norm.normalized and norm.pair_count == raw.pair_count == n * (n - 1) // 2
            assert norm.mass.tobytes() == (raw.mass / (2 * raw.pair_count)).tobytes()
            assert norm.mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        t = random_template(rng, n=10)
        perm = rng.permutation(10)
        shuffled = MinutiaTemplate(minutiae=tuple(t.minutiae[i] for i in perm), dpi=500)
        spec = BinSpec(b_dist=10, b_dir=10, b_relangle=12)
        np.testing.assert_array_equal(build_4dmh(t, spec).mass, build_4dmh(shuffled, spec).mass)


def test_histogram_json_round_trip():
    rng = np.random.default_rng(10)
    t = random_template(rng, n=12)
    for h in (build_2dmh(t, normalize=True),
              build_4dmh(t, BinSpec(b_dist=10, b_dir=10, b_relangle=12), normalize=False)):
        restored = MinutiaeHistogram.from_dict(h.to_dict())
        assert restored.spec == h.spec
        assert restored.dims == h.dims
        assert restored.normalized == h.normalized
        assert restored.pair_count == h.pair_count
        np.testing.assert_array_equal(restored.mass, h.mass)


@pytest.mark.parametrize("dims, shape, match", [
    (2, (5, 20), r"must have shape \(10, 10\), got \(5, 20\)"),
    (2, (100,), r"must have shape \(10, 10\), got \(100,\)"),
    (4, (10, 10), r"must have shape \(10, 10, 20, 4\), got \(10, 10\)"),
    (3, (10, 10, 20), "dims must be 2 or 4"),
])
def test_mass_must_fit_the_spec(dims, shape, match):
    # A (5, 20) mass on 10x10 bins would be scored as if it were 10x10.
    mass = np.full(shape, 1.0 / np.prod(shape))
    with pytest.raises(ValueError, match=match):
        MinutiaeHistogram(spec=BinSpec(), dims=dims, mass=mass, normalized=True, pair_count=1)
