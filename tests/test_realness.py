import numpy as np
import pytest

from minhist.histogram import BinSpec, MinutiaeHistogram
from minhist.realness import (
    REAL,
    SYNTHETIC,
    ClassModel,
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
from minhist.template import BIFURCATION, ENDING, Minutia, MinutiaTemplate
from minhist.transport import CostParams

from genpop import make_population

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
        feature_norms=norms or {},
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

    def test_missing_unweighted_feature_is_fine(self):
        model = self._model((0.0, 1.0, 0.0, 0.0, 0.0))
        _, _, _, fused, _ = fuse_features(2.0, None, None, None, model)
        assert fused == pytest.approx(2.0)


def test_template_side_features():
    t = MinutiaTemplate(
        minutiae=(Minutia(0.0, 0.0, 0.0, BIFURCATION), Minutia(1.0, 0.0, 0.0, ENDING)),
        dpi=500, mean_ird=9.5, var_ird=2.5,
    )
    assert template_side_features(t) == (9.5, 2.5, 50.0)


def test_template_side_features_untyped():
    t = MinutiaTemplate(minutiae=(Minutia(0.0, 0.0, 0.0),), dpi=500)
    assert template_side_features(t) == (None, None, None)


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

    def test_deterministic(self):
        real = make_population(103, 6, 2, "broad", REAL)
        synth = make_population(203, 6, 2, "cluster", SYNTHETIC)
        config = TrainConfig(split=(2, 2, 2), **EMD_ONLY)
        m1 = train(real, synth, config).model
        m2 = train(real, synth, config).model
        assert m1.weights == m2.weights
        assert m1.params == m2.params
        np.testing.assert_array_equal(m1.avg_real.mass, m2.avg_real.mass)


@pytest.mark.parametrize("kwargs", [
    *({name: ()} for name in ("r_grid", "s_grid", "e_grid", "w0_grid", "w1_grid", "side_grid")),
    {"split": (2, 2)},
    {"split": (2, -1, 2)},
    {"split": (2, 1.5, 2)},
])
def test_train_config_rejects_empty_grids_and_bad_splits(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


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
