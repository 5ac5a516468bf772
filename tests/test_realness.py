import warnings
from dataclasses import replace

import numpy as np
import pytest

from minhist import realness
from minhist.histogram import BinSpec, MinutiaeHistogram
from minhist.realness import (
    REAL,
    SIDE_FEATURES,
    SYNTHETIC,
    ClassModel,
    EmptyClassError,
    TrainConfig,
    average_histogram,
    classify_template,
    emd_difference_score,
    evaluate,
    fuse_features,
    split_by_finger,
    template_side_features,
    train,
)
from minhist.template import BIFURCATION, ENDING, Minutia, MinutiaTemplate, rescale_to_500dpi
from minhist.transport import CostParams

from genpop import make_population
from oracles import train_grid_oracle

EMD_ONLY = dict(r_grid=(1.0,), s_grid=(1.0,), e_grid=(1.0,),
                w0_grid=(0.0,), w1_grid=(1.0,), use_side_features=False)


def one_hot(spec, dist_bin, dir_bin=0, weight=1.0, extra=None):
    mass = np.zeros((spec.b_dist, spec.b_dir))
    mass[dist_bin, dir_bin] = weight
    for (i, j), w in (extra or {}).items():
        mass[i, j] = w
    return MinutiaeHistogram(spec=spec, dims=2, mass=mass, normalized=True, pair_count=1)


def simple_model(avg_real, avg_synth, weights=(0.0, 1.0, 0.0, 0.0, 0.0), norms=None):
    return ClassModel(
        avg_real=avg_real,
        avg_synth=avg_synth,
        weights=weights,
        feature_norms={name: (0.0, 1.0) for name in SIDE_FEATURES} | (norms or {}),
        params=CostParams(),
        spec=avg_real.spec,
    )


class TestAverageHistogram:
    def test_mean_of_two(self):
        spec = BinSpec(b_dist=4, b_dir=4)
        h1 = one_hot(spec, 0)
        h2 = one_hot(spec, 2)
        avg = average_histogram([h1, h2])
        assert avg.mass[0, 0] == 0.5
        assert avg.mass[2, 0] == 0.5
        assert avg.mass.sum() == pytest.approx(1.0)

    def test_single_is_identity(self):
        spec = BinSpec(b_dist=4, b_dir=4)
        h = one_hot(spec, 1)
        np.testing.assert_array_equal(average_histogram([h]).mass, h.mass)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_histogram([])

    def test_raw_histograms_rejected(self):
        spec = BinSpec(b_dist=4, b_dir=4)
        raw = MinutiaeHistogram(spec=spec, dims=2, mass=np.ones((4, 4)),
                                normalized=False, pair_count=16)
        with pytest.raises(ValueError, match="normalized"):
            average_histogram([raw])

    def test_mixed_specs_rejected(self):
        h1, h2 = one_hot(BinSpec(b_dist=4, b_dir=4), 0), one_hot(BinSpec(b_dist=4, b_dir=5), 0)
        with pytest.raises(ValueError, match="mixed bin specifications"):
            average_histogram([h1, h2])


class TestEmdDifferenceScore:
    def test_closer_to_real_average(self):
        # query at bin 0; class averages placed so the EMDs are 0.66 and 1.79
        spec = BinSpec(b_dist=4, b_dir=4)
        h = one_hot(spec, 0)
        avg_real = one_hot(spec, 0, weight=0.34, extra={(1, 0): 0.66})
        avg_synth = one_hot(spec, 1, weight=0.21, extra={(2, 0): 0.79})
        score = emd_difference_score(h, simple_model(avg_real, avg_synth))
        assert score.emd_real == pytest.approx(0.66, abs=1e-9)
        assert score.emd_synth == pytest.approx(1.79, abs=1e-9)
        assert score.a == pytest.approx(1.13, abs=1e-9)
        assert score.decision == REAL

    def test_closer_to_synthetic_average(self):
        spec = BinSpec(b_dist=4, b_dir=4)
        h = one_hot(spec, 0)
        avg_real = one_hot(spec, 1, weight=0.31, extra={(2, 0): 0.69})
        avg_synth = one_hot(spec, 0, weight=0.39, extra={(1, 0): 0.61})
        score = emd_difference_score(h, simple_model(avg_real, avg_synth))
        assert score.emd_real == pytest.approx(1.69, abs=1e-9)
        assert score.emd_synth == pytest.approx(0.61, abs=1e-9)
        assert score.a == pytest.approx(-1.08, abs=1e-9)
        assert score.decision == SYNTHETIC

    def test_tie_counts_as_synthetic(self):
        spec = BinSpec(b_dist=4, b_dir=4)
        h = one_hot(spec, 2)
        avg = one_hot(spec, 1)
        score = emd_difference_score(h, simple_model(avg, avg))
        assert score.a == pytest.approx(0.0, abs=1e-12)
        assert score.decision == SYNTHETIC

    def test_spec_mismatch_rejected(self):
        avg = one_hot(BinSpec(b_dist=4, b_dir=4), 1)
        with pytest.raises(ValueError, match="does not match the model"):
            emd_difference_score(one_hot(BinSpec(b_dist=4, b_dir=5), 0), simple_model(avg, avg))


class TestFuseFeatures:
    def _model(self, weights, norms=None):
        spec = BinSpec(b_dist=4, b_dir=4)
        return simple_model(one_hot(spec, 0), one_hot(spec, 1), weights, norms)

    def test_pure_emd_rule(self):
        model = self._model((0.0, 1.0, 0.0, 0.0, 0.0))
        _, _, _, fused, decision = fuse_features(1.13, None, None, None, model)
        assert fused == pytest.approx(1.13)
        assert decision == REAL

    def test_linear_arithmetic(self):
        model = self._model(
            (0.5, 1.0, 1.0, -1.0, 2.0),
            norms={"mean_ird": (9.0, 2.0), "var_ird": (3.0, 1.0), "pct_bif": (35.0, 10.0)},
        )
        b, c, d, fused, decision = fuse_features(-1.0, 10.0, 4.0, 40.0, model)
        assert b == pytest.approx(0.5)
        assert c == pytest.approx(1.0)
        assert d == pytest.approx(0.5)
        assert fused == pytest.approx(0.5 - 1.0 + 0.5 - 1.0 + 1.0)
        assert decision == SYNTHETIC  # fused == 0 is a tie

    def test_bifurcation_rate_separates_databases(self):
        # class means of the bifurcation share: 40.9 for the real prints and
        # 30.0 for the synthetic ones; weight only that feature.
        model = self._model(
            (0.0, 0.0, 0.0, 0.0, 1.0),
            norms={"pct_bif": ((40.9 + 30.0) / 2, 1.0)},
        )
        assert fuse_features(0.0, None, None, 30.0, model)[4] == SYNTHETIC
        assert fuse_features(0.0, None, None, 40.9, model)[4] == REAL

    def test_missing_required_feature(self):
        model = self._model((0.0, 1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="mean_ird"):
            fuse_features(0.0, None, 3.0, 30.0, model)

    # Finite weights and norms whose products or quotients overflow: no
    # decision comes from a non-finite score, whatever the feature's weight.
    @pytest.mark.parametrize("weights, scale, a, name", [
        ((0.0, 0.0, 0.0, 0.0, -1e308), 1e-300, 0.0, "fused score of -inf"),
        ((0.0, 1e308, 0.0, 0.0, 0.0), 1.0, 1e10, "fused score of inf"),
        ((0.0, 1e308, 0.0, 0.0, -1e308), 1.0, 10.0, "fused score of nan"),
        ((0.0, 1.0, 0.0, 0.0, 0.0), 1e-320, 0.0, "normalized pct_bif of inf"),
    ])
    def test_non_finite_score_raises(self, weights, scale, a, name):
        model = self._model(weights, norms={"pct_bif": (0.0, scale)})
        with pytest.raises(realness.NonFiniteScoreError, match=name):
            fuse_features(a, None, None, 40.0, model)

    def test_missing_unweighted_feature_is_fine(self):
        model = self._model((0.0, 1.0, 0.0, 0.0, 0.0))
        _, _, _, fused, _ = fuse_features(2.0, None, None, None, model)
        assert fused == pytest.approx(2.0)

    @pytest.mark.parametrize("rows", [2, 3, 8])
    def test_training_rule_matches_scoring_rule(self, rows):
        # a sum that is 2.2e-16 left to right; a BLAS dot product of the same
        # terms rounds it to 0.0, a tie, and so to the other decision
        weights = (0.5, 1.0, 1.0, -1.0, 1.0)
        a, b, c, d = -2.0, -1.8, -2.0, 1.3
        _, _, _, fused, decision = fuse_features(a, b, c, d, self._model(weights))
        assert fused > 0 and decision == REAL
        side = tuple(np.full(rows, v) for v in (b, c, d))
        on_arrays = realness._fuse(weights, np.full(rows, a), side)
        assert [x.hex() for x in on_arrays.tolist()] == [fused.hex()] * rows
        assert (on_arrays > 0).all()


def test_template_side_features():
    t = MinutiaTemplate(
        minutiae=(Minutia(0.0, 0.0, 0.0, BIFURCATION), Minutia(1.0, 0.0, 0.0, ENDING)),
        dpi=500, mean_ird=9.5, var_ird=2.5,
    )
    assert template_side_features(t) == (9.5, 2.5, 50.0)


def test_template_side_features_untyped():
    t = MinutiaTemplate(minutiae=(Minutia(0.0, 0.0, 0.0),), dpi=500)
    assert template_side_features(t) == (None, None, None)


def test_template_side_features_at_500dpi():
    t = MinutiaTemplate(minutiae=(Minutia(0.0, 0.0, 0.0, ENDING),), dpi=512,
                        mean_ird=10.24, var_ird=4.0)
    r = rescale_to_500dpi(t)
    assert template_side_features(t) == (r.mean_ird, r.var_ird, 0.0)


def test_template_side_features_warn_on_implausible_mean_ird():
    t = MinutiaTemplate(minutiae=(), dpi=500, mean_ird=40.0, var_ird=1.0)
    with pytest.warns(UserWarning, match="interridge"):
        template_side_features(t)


class TestSplitByFinger:
    def test_numeric_ordering(self):
        templates = [
            MinutiaTemplate(minutiae=(), dpi=500, finger_id=str(f), impression_id="1")
            for f in (10, 2, 1, 7, 3, 9)
        ]
        s1, s2, s3 = split_by_finger(templates, (2, 2, 2))
        assert sorted(t.finger_id for t in s1) == ["1", "2"]
        assert sorted(t.finger_id for t in s2) == ["3", "7"]
        assert sorted(t.finger_id for t in s3) == ["10", "9"]

    def test_numeric_ids_before_the_others(self):
        # Numbers in numeric order, then every other id in string order.
        templates = [
            MinutiaTemplate(minutiae=(), dpi=500, finger_id=f, impression_id="1")
            for f in ("b", "10", "a2", "9", "A", "01")
        ]
        sets = split_by_finger(templates, (2, 2, 2))
        assert [[t.finger_id for t in s] for s in sets] == [["9", "01"], ["10", "A"], ["b", "a2"]]

    def test_all_impressions_stay_together(self):
        templates = [
            MinutiaTemplate(minutiae=(), dpi=500, finger_id="1", impression_id=str(i))
            for i in range(8)
        ]
        s1, s2, s3 = split_by_finger(templates, (1, 0, 0))
        assert len(s1) == 8 and not s2 and not s3


class TestTrain:
    def test_separable_populations_reach_full_accuracy(self):
        real = make_population(100, 6, 2, "broad", REAL)
        synth = make_population(200, 6, 2, "cluster", SYNTHETIC)
        config = TrainConfig(split=(2, 2, 2), **EMD_ONLY)
        result = train(real, synth, config)
        assert result.set2_accuracy == 100.0
        _, _, real3 = split_by_finger(real, config.split)
        _, _, synth3 = split_by_finger(synth, config.split)
        report = evaluate(result.model, real3 + synth3)
        assert report.accuracy == 100.0

    def test_empty_class_rejected(self):
        real = make_population(101, 6, 2, "broad", REAL)
        synth = make_population(201, 2, 2, "cluster", SYNTHETIC)
        with pytest.raises(ValueError, match="class empty"):
            train(real, synth, TrainConfig(split=(2, 2, 2), **EMD_ONLY))

    @pytest.mark.parametrize("finger", [0, 1])  # Sets I and II
    def test_class_of_unusable_templates_rejected(self, finger):
        real = make_population(106, 2, 2, "broad", REAL)
        synth = make_population(206, 2, 2, "cluster", SYNTHETIC)
        # every template of one real finger keeps only its first minutia
        real = [
            replace(t, minutiae=t.minutiae[:1]) if t.finger_id == str(finger + 1) else t
            for t in real
        ]
        with pytest.raises(EmptyClassError, match="class empty: no template in real Set I+ has a minutiae pair"):
            train(real, synth, TrainConfig(split=(1, 1, 0), **EMD_ONLY))

    def test_side_features_skipped_when_absent(self):
        real = [
            MinutiaTemplate(minutiae=t.minutiae, dpi=500, finger_id=t.finger_id,
                            impression_id=t.impression_id, label=REAL)
            for t in make_population(102, 6, 2, "broad", REAL)
        ]
        synth = make_population(202, 6, 2, "cluster", SYNTHETIC)
        config = TrainConfig(split=(2, 2, 2), r_grid=(1.0,), s_grid=(1.0,),
                             e_grid=(1.0,), w0_grid=(0.0,), w1_grid=(1.0,),
                             use_side_features=True)
        # real templates carry no mean_ird: the fused rule must not use b, c, d
        result = train(real, synth, config)
        assert result.model.weights[2:] == (0.0, 0.0, 0.0)
        assert result.model.feature_norms["mean_ird"] == (0.0, 1.0)

    def test_template_without_pairs_in_range_is_skipped(self):
        real = make_population(105, 6, 2, "broad", REAL)
        # one pair, 300 px apart: beyond d_max, so its histogram has no mass
        far = MinutiaTemplate(
            minutiae=(Minutia(0.0, 0.0, 0.0, ENDING), Minutia(300.0, 0.0, 90.0, ENDING)),
            dpi=500, label=REAL, finger_id=real[0].finger_id, impression_id="far",
        )
        synth = make_population(205, 6, 2, "cluster", SYNTHETIC)
        result = train(real + [far], synth, TrainConfig(split=(2, 2, 2), **EMD_ONLY))
        assert result.model.avg_real.total() == pytest.approx(1.0)

    def test_unusable_templates_are_counted(self):
        real = make_population(105, 6, 2, "broad", REAL)
        synth = make_population(205, 6, 2, "cluster", SYNTHETIC)
        config = TrainConfig(split=(2, 2, 2), **EMD_ONLY)
        baseline = train(real, synth, config)
        assert baseline.skipped == 0
        _, set2, _ = split_by_finger(synth, config.split)
        # Set I: one pair, 300 px apart, beyond d_max; Set II: a single minutia
        far = MinutiaTemplate(
            minutiae=(Minutia(0.0, 0.0, 0.0, ENDING), Minutia(300.0, 0.0, 90.0, ENDING)),
            dpi=500, label=REAL, finger_id=real[0].finger_id, impression_id="far",
        )
        single = MinutiaTemplate(
            minutiae=(Minutia(10.0, 20.0, 30.0, ENDING),), dpi=500, label=SYNTHETIC,
            finger_id=set2[0].finger_id, impression_id="single",
        )
        result = train(real + [far], synth + [single], config)
        assert result.skipped == 2
        assert result.model.to_dict() == baseline.model.to_dict()
        assert result.set2_accuracy == baseline.set2_accuracy

    @pytest.mark.parametrize("use_side_features", [True, False])
    def test_set2_accuracy_is_the_accuracy_of_the_model(self, use_side_features):
        # two broad populations: no rule on the grid separates their Set II,
        # so the trained model gets some templates wrong
        real = make_population(116, 5, 2, "broad", REAL)
        synth = make_population(216, 5, 2, "broad", SYNTHETIC)
        config = TrainConfig(split=(2, 3, 0), r_grid=(1.0,), s_grid=(1.0,), e_grid=(1.0,),
                             use_side_features=use_side_features)
        result = train(real, synth, config)
        assert 0.0 < result.set2_accuracy < 100.0
        assert result.model.weights[1] != 0.0  # the EMD difference takes part
        _, real2, _ = split_by_finger(real, config.split)
        _, synth2, _ = split_by_finger(synth, config.split)
        right = [classify_template(t, result.model).decision == t.label
                 for t in real2 + synth2]
        assert result.set2_accuracy == 100.0 * sum(right) / len(right)

    def test_huge_side_feature_gets_a_finite_scale(self):
        # var_ird 1e200 is finite and parses, but its square overflows.
        real = make_population(117, 6, 2, "broad", REAL)
        synth = make_population(217, 6, 2, "cluster", SYNTHETIC)
        config = TrainConfig(split=(2, 2, 2), r_grid=(1.0,), s_grid=(1.0,), e_grid=(1.0,),
                             w0_grid=(0.0,), w1_grid=(1.0,), use_side_features=True)
        _, synth2, _ = split_by_finger(synth, config.split)
        huge = replace(synth2[0], var_ird=1e200)
        synth = [huge if t is synth2[0] else t for t in synth]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = train(real, synth, config).model.feature_norms
        _, real2, _ = split_by_finger(real, config.split)
        _, synth2, _ = split_by_finger(synth, config.split)
        side = np.array([template_side_features(t) for t in real2 + synth2])
        n = len(side)
        assert norms["var_ird"][1] == pytest.approx(1e200 * np.sqrt(n - 1) / n, rel=1e-12)
        # The other columns keep the bits of a plain std.
        for k, name in enumerate(SIDE_FEATURES):
            if name != "var_ird":
                assert norms[name] == (side[:, k].mean(), side[:, k].std())

    def test_deterministic(self):
        real = make_population(103, 6, 2, "broad", REAL)
        synth = make_population(203, 6, 2, "cluster", SYNTHETIC)
        config = TrainConfig(split=(2, 2, 2), **EMD_ONLY)
        m1 = train(real, synth, config).model
        m2 = train(real, synth, config).model
        assert m1.weights == m2.weights
        assert m1.params == m2.params
        np.testing.assert_array_equal(m1.avg_real.mass, m2.avg_real.mass)


def _counted_emd(monkeypatch):
    """Count the LPs train solves; every one goes through realness.emd."""
    calls = []
    solve = realness.emd

    def counted(h1, h2, params):
        calls.append(params)
        return solve(h1, h2, params)

    monkeypatch.setattr(realness, "emd", counted)
    return calls


def _recorded(grid_loop, log):
    """grid_loop, logging each (params, a) it yields."""
    def recording(*args):
        for params, a in grid_loop(*args):
            log.append((params, a))
            yield params, a
    return recording


GRIDS = {
    "default": {},
    # exact ratios: only (0.3, 0.1) and (0.6, 0.2) share one, at scale 2
    "tenths": dict(r_grid=(0.3, 0.6, 0.9), s_grid=(0.1, 0.2, 0.3)),
    # r/s = 1/2 at (0.5, 1), (0.75, 1.5) and (1.5, 3): scales 1.5 and 3
    "thirds": dict(r_grid=(0.5, 0.75, 1.5), s_grid=(1.0, 1.5, 3.0)),
}


class TestSharedGridEmds:
    """train solves the Set II EMDs once per distinct (r/s, e) and scales
    them to the other grid points of that ratio."""

    @pytest.mark.parametrize("grid, distinct", [
        ({}, 10),  # 3 x 3 x 2 points, 5 ratios r/s per exponent
        (dict(r_grid=(1.0,), s_grid=(1.0, 3.0)), 4),  # no ratio shared
        # 0.3 / 0.9 == 1.0 / 3.0 in float division, but not exactly
        (dict(r_grid=(0.3, 1.0), s_grid=(0.9, 3.0)), 8),
    ], ids=["default", "no-shared-ratio", "float-only-coincidence"])
    def test_one_lp_set_per_distinct_ratio_and_exponent(self, monkeypatch, grid, distinct):
        real = make_population(120, 3, 2, "broad", REAL)
        synth = make_population(220, 3, 2, "cluster", SYNTHETIC)
        calls = _counted_emd(monkeypatch)
        train(real, synth, TrainConfig(split=(2, 1, 0), **grid))
        set2 = 4  # one finger of two impressions per class
        assert len(calls) == 2 * set2 * distinct
        assert len(set(calls)) == distinct

    @pytest.mark.parametrize("grid, kind, bins", [
        ("default", "cluster", 10), ("default", "broad", 6),
        ("tenths", "broad", 6), ("thirds", "cluster", 6),
    ])
    def test_matches_grid_oracle(self, monkeypatch, grid, kind, bins):
        # broad against cluster is separable, broad against broad is not;
        # 6 x 6 bins keep the oracle's LPs small
        real = make_population(121, 3, 2, "broad", REAL)
        synth = make_population(221, 3, 2, kind, SYNTHETIC)
        spec = BinSpec(b_dist=bins, b_dir=bins)
        config = TrainConfig(spec=spec, split=(2, 1, 0), **GRIDS[grid])
        shared, oracle = [], []
        monkeypatch.setattr(realness, "_set2_differences",
                            _recorded(realness._set2_differences, shared))
        calls = _counted_emd(monkeypatch)
        result = train(real, synth, config)
        solved = set(calls)
        monkeypatch.setattr(realness, "_set2_differences", _recorded(train_grid_oracle, oracle))
        expected = train(real, synth, config)

        assert result.set2_accuracy == expected.set2_accuracy
        assert result.model.params == expected.model.params
        assert result.model.weights == expected.model.weights
        assert [p for p, _ in shared] == [p for p, _ in oracle]
        for (params, a), (_, want) in zip(shared, oracle):
            np.testing.assert_allclose(a, want, rtol=1e-12, atol=0)
            if params in solved:  # the first point of its (r/s, e) group
                assert a.tobytes() == want.tobytes()
        assert len(solved) < len(oracle)


@pytest.mark.parametrize("kwargs", [
    *({name: ()} for name in ("r_grid", "s_grid", "e_grid", "w0_grid", "w1_grid", "side_grid")),
    {"split": (2, 2)},
    {"split": (2, -1, 2)},
    {"split": (2, 1.5, 2)},
    {"r_grid": ("a",)},
    {"r_grid": (1.0, float("inf"))},
    {"s_grid": (0.0,)},
    {"e_grid": (-1.0,)},
    {"e_grid": (None,)},
    {"w0_grid": ("x",)},
    {"w1_grid": (float("nan"),)},
    {"side_grid": (0.0, float("-inf"))},
])
def test_train_config_rejects_empty_grids_and_bad_splits(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs, name", [
    # arc costs outside [1e-6, 1e6] on the default 10 x 10 bins
    ({"r_grid": (1e9,), "e_grid": (2.0,)}, "r"),
    ({"s_grid": (1e-9,), "e_grid": (2.0,)}, "s"),
    ({"s_grid": (1e-7,)}, "s"),
    ({"r_grid": (1.0, 400.0), "e_grid": (1.0, 2.0)}, "r"),  # (400 * 9)^2 at e = 2
])
def test_train_config_rejects_costs_out_of_range(kwargs, name):
    with pytest.raises(ValueError, match=f"cost parameter {name} "):
        TrainConfig(**kwargs)


def test_train_config_checks_costs_under_its_spec():
    # (400 * 2)^2 = 640000 on 3 x 3 bins, (400 * 9)^2 on the default 10 x 10
    TrainConfig(spec=BinSpec(b_dist=3, b_dir=3), r_grid=(400.0,), e_grid=(2.0,))
    with pytest.raises(ValueError, match="cost parameter r "):
        TrainConfig(r_grid=(400.0,), e_grid=(2.0,))


class TestEvaluate:
    def _model(self):
        real = make_population(104, 6, 2, "broad", REAL)
        synth = make_population(204, 6, 2, "cluster", SYNTHETIC)
        return train(real, synth, TrainConfig(split=(2, 2, 2), **EMD_ONLY)).model

    def test_unlabeled_template_rejected(self):
        model = self._model()
        t = make_population(105, 1, 1, "broad", None)[0]
        with pytest.raises(ValueError, match="label"):
            evaluate(model, [t])

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(self._model(), [])

    def test_csv_report(self, tmp_path):
        model = self._model()
        templates = make_population(106, 2, 2, "broad", REAL)
        report = evaluate(model, templates)
        out = tmp_path / "report.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("template,emd_real,emd_synth,a,")
        assert len(lines) == 1 + len(report.rows)


def test_classify_template_rescales_input():
    real = make_population(107, 6, 2, "broad", REAL)
    synth = make_population(207, 6, 2, "cluster", SYNTHETIC)
    model = train(real, synth, TrainConfig(split=(2, 2, 2), **EMD_ONLY)).model
    t = make_population(108, 1, 1, "cluster", None)[0]
    upscaled = MinutiaTemplate(
        minutiae=tuple(
            Minutia(m.x * 569 / 500, m.y * 569 / 500, m.direction, m.mtype)
            for m in t.minutiae
        ),
        dpi=569, mean_ird=t.mean_ird * 569 / 500,
        var_ird=t.var_ird * (569 / 500) ** 2,
    )
    assert classify_template(t, model).decision == SYNTHETIC
    score = classify_template(upscaled, model)
    assert score.decision == SYNTHETIC
    assert score.a == pytest.approx(classify_template(t, model).a, abs=1e-6)


def test_implausible_mean_ird_warns_once_per_classification():
    real = make_population(107, 6, 2, "broad", REAL)
    synth = make_population(207, 6, 2, "cluster", SYNTHETIC)
    model = train(real, synth, TrainConfig(split=(2, 2, 2), **EMD_ONLY)).model
    t = make_population(108, 1, 1, "cluster", None)[0]
    t569 = MinutiaTemplate(
        minutiae=tuple(
            Minutia(m.x * 569 / 500, m.y * 569 / 500, m.direction, m.mtype)
            for m in t.minutiae
        ),
        dpi=569, mean_ird=40.0, var_ird=t.var_ird,
    )
    for template in (t569, rescale_to_500dpi(t569)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify_template(template, model)
        assert [str(w.message) for w in caught] == [
            "mean interridge distance 35.15 px at 500 DPI is outside the plausible range"
            " [3.0, 25.0]"
        ]


def test_model_json_round_trip(tmp_path):
    real = make_population(109, 6, 2, "broad", REAL)
    synth = make_population(209, 6, 2, "cluster", SYNTHETIC)
    model = train(real, synth, TrainConfig(split=(2, 2, 2), **EMD_ONLY)).model
    path = tmp_path / "model.json"
    model.save(path)
    restored = ClassModel.load(path)
    assert restored.weights == model.weights
    assert restored.params == model.params
    assert restored.spec == model.spec
    assert restored.feature_norms == model.feature_norms
    np.testing.assert_array_equal(restored.avg_real.mass, model.avg_real.mass)
    np.testing.assert_array_equal(restored.avg_synth.mass, model.avg_synth.mass)


@pytest.mark.parametrize("norms", [
    {},
    {"mean_ird": (9.0, 2.0), "var_ird": (3.0, 1.0)},
    {name: (0.0, 1.0) for name in SIDE_FEATURES + ("ridge_count",)},
], ids=["none", "one-missing", "one-extra"])
def test_model_norms_name_every_side_feature(norms):
    # from_dict demands every side feature, so a model built without one
    # would save a file that cannot be loaded.
    spec = BinSpec(b_dist=4, b_dir=4)
    with pytest.raises(ValueError, match="feature_norms must have exactly the keys"
                                         " mean_ird, var_ird, pct_bif, got"):
        ClassModel(avg_real=one_hot(spec, 0), avg_synth=one_hot(spec, 1),
                   weights=(0.0, 1.0, 0.0, 0.0, 0.0), feature_norms=norms,
                   params=CostParams(), spec=spec)


def test_library_model_survives_save_and_load(tmp_path):
    spec = BinSpec(b_dist=4, b_dir=4)
    model = simple_model(one_hot(spec, 0), one_hot(spec, 1), (0.5, 1.0, 1.0, -1.0, 2.0),
                         norms={"pct_bif": (35.0, 10.0)})
    model.save(tmp_path / "model.json")
    assert ClassModel.load(tmp_path / "model.json").to_dict() == model.to_dict()
