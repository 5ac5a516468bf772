import math
import warnings

import numpy as np
import pytest

from minhist.histogram import fold_direction_difference
from minhist.template import (
    BIFURCATION,
    ENDING,
    UNKNOWN,
    Minutia,
    MinutiaTemplate,
    TemplateParseError,
    bifurcation_percentage,
    load_directory,
    load_template,
    parse_template,
    rescale_to_500dpi,
    serialize_template,
)


def test_parse_single_ending():
    t = parse_template("dpi 500\n10 20 90 E\n")
    assert t.dpi == 500
    assert len(t) == 1
    m = t.minutiae[0]
    assert (m.x, m.y, m.direction, m.mtype) == (10.0, 20.0, 90.0, ENDING)


def test_parse_reduces_direction_modulo_360():
    t = parse_template("dpi 500\n10 20 450 B\n")
    assert t.minutiae[0].direction == 90.0
    assert t.minutiae[0].mtype == BIFURCATION


def test_parse_empty_minutiae_section_is_valid():
    t = parse_template("dpi 500\nlabel real\n")
    assert len(t) == 0
    assert t.label == "real"


def test_parse_full_header_and_comments():
    text = (
        "# sample template\n"
        "dpi 569\n"
        "mean_ird 10.5\n"
        "var_ird 3.25\n"
        "label synthetic\n"
        "finger 17\n"
        "impression 3\n"
        "1 2 3 U   # trailing comment\n"
    )
    t = parse_template(text)
    assert t.dpi == 569
    assert t.mean_ird == 10.5
    assert t.var_ird == 3.25
    assert t.label == "synthetic"
    assert (t.finger_id, t.impression_id) == ("17", "3")
    assert t.minutiae[0].mtype == UNKNOWN


def test_parse_unknown_header_fields_ignored():
    t = parse_template("dpi 500\nquality 0.9 extra\n10 20 30 E\n")
    assert len(t) == 1
    # Even when repeated.
    t = parse_template("quality 1\ndpi 500\nquality 2\n10 20 30 E\n")
    assert (t.dpi, len(t)) == (500, 1)


@pytest.mark.parametrize("text, line, key", [
    ("dpi 500\ndpi 1000\n10 20 30 E\n", 2, "dpi"),
    ("dpi 500\nmean_ird 9\n# a comment\nMEAN_IRD 9\n10 20 30 E\n", 4, "mean_ird"),
    ("finger 1\ndpi 500\nlabel real\nfinger 1\n10 20 30 E\n", 4, "finger"),
])
def test_repeated_header_field_is_an_error(text, line, key):
    # A second line of a known field used to win silently, even one giving
    # the same value.
    with pytest.raises(TemplateParseError, match=f"^line {line}: '{key}' is given more than once$"):
        parse_template(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("10 20 30 E\n", "dpi"),
        ("dpi 500\n10 20 E\n", "line 2"),
        ("dpi 500\n10 20 nan E\n", "line 2"),
        ("dpi 500\n10 20 30 X\n", "line 2"),
        ("dpi 500\n-5 20 30 E\n", "line 2"),
        # A first token that parses as a number makes a minutia line.
        ("dpi 500\nnan 20 30 E\n", "line 2: minutia x must be a finite number >= 0, got nan"),
        ("dpi zero\n", "line 1"),
        ("dpi 500\nlabel\n", "line 2"),
        ("dpi 0\n", "dpi"),
        ("dpi 500\nmean_ird nan\n", "mean_ird"),
        ("dpi 500\nvar_ird -1\n", "var_ird"),
        # A malformed first minutia line is not a header line.
        ("dpi 500\n1,5 2 3 E\n4 5 6 B\n", "line 2: could not convert"),
        ("dpi 500\n4 5 6 B\n1,5 2 3 E\n", "line 3: could not convert"),
        # Rescaling divides by the dpi as a float: this one used to raise
        # OverflowError.
        pytest.param("dpi " + "9" * 400 + "\n1 2 3 E\n", "dpi must be at most 1.79769e[+]308",
                     id="dpi-above-the-largest-float"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TemplateParseError, match=fragment):
        parse_template(text)


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(7)
    minutiae = tuple(
        Minutia(
            x=float(rng.uniform(0, 300)),
            y=float(rng.uniform(0, 300)),
            direction=float(rng.uniform(0, 360)),
            mtype=[ENDING, BIFURCATION, UNKNOWN][int(rng.integers(0, 3))],
        )
        for _ in range(20)
    )
    t = MinutiaTemplate(
        minutiae=minutiae, dpi=512, mean_ird=10.24, var_ird=3.7,
        label="real", finger_id="9", impression_id="4",
    )
    assert parse_template(serialize_template(t)) == t


def test_numpy_scalars_round_trip():
    # Their repr is "np.float64(1.5)": a minutia line written that way was
    # read back as an unknown header line and dropped.
    t = MinutiaTemplate(
        minutiae=(Minutia(np.float64(1.5), np.float64(2.0), np.float64(30.0), ENDING),),
        mean_ird=np.float64(9.5), var_ird=np.float64(3.25),
    )
    assert parse_template(serialize_template(t)) == t


@pytest.mark.parametrize(
    "ids,key",
    [
        ({"finger_id": "left thumb"}, "finger"),
        ({"impression_id": "a#1"}, "impression"),
        ({"finger_id": ""}, "finger"),
        ({"impression_id": "1\n2"}, "impression"),
        ({"finger_id": 17}, "finger"),
    ],
)
def test_serialize_rejects_ids_that_do_not_read_back(ids, key):
    # The constructor rejects them, so no template serializes one.
    with pytest.raises(ValueError, match=f"^{key} must be one token"):
        MinutiaTemplate(minutiae=(Minutia(1.0, 2.0, 3.0, ENDING),), **ids)


@pytest.mark.parametrize("finger,impression", [("17", "3"), ("f-2.a", "0"), ("x_y", "B")])
def test_ordinary_ids_round_trip(finger, impression):
    t = MinutiaTemplate(minutiae=(Minutia(1.0, 2.0, 3.0, ENDING),),
                        finger_id=finger, impression_id=impression)
    assert parse_template(serialize_template(t)) == t


def test_load_template_ids_from_filename(tmp_path):
    path = tmp_path / "17_3.mnt"
    path.write_text("dpi 500\n10 20 30 E\n")
    t = load_template(path)
    assert (t.finger_id, t.impression_id) == ("17", "3")


def test_filename_id_that_breaks_the_id_rule_is_a_parse_error(tmp_path):
    (tmp_path / "left thumb_1.mnt").write_text("dpi 500\n10 20 30 E\n")
    with pytest.raises(TemplateParseError, match="finger must be one token.*file name"):
        load_template(tmp_path / "left thumb_1.mnt")
    with pytest.raises(TemplateParseError, match="^left thumb_1.mnt: finger"):
        load_directory(tmp_path)


def test_leading_byte_order_mark_is_dropped(tmp_path):
    text = "dpi 500\nmean_ird 9.5\nfinger 7\nimpression 2\n10 20 90 E\n55 81.5 310 B\n"
    assert parse_template("\ufeff" + text) == parse_template(text)
    (tmp_path / "bom.mnt").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_template(tmp_path / "bom.mnt") == parse_template(text)
    # Only one: a second mark is not whitespace, so it is a malformed line.
    with pytest.raises(TemplateParseError, match="line 1"):
        parse_template("\ufeff\ufeff" + text)


class TestRescale:
    def test_fvc2002_db2_example(self):
        t = MinutiaTemplate(minutiae=(Minutia(569.0, 0.0, 45.0, ENDING),), dpi=569)
        r = rescale_to_500dpi(t)
        assert r.dpi == 500
        assert r.minutiae[0].x == pytest.approx(500.0)
        assert r.minutiae[0].y == 0.0
        assert r.minutiae[0].direction == 45.0

    def test_identity_at_500dpi(self):
        t = MinutiaTemplate(minutiae=(Minutia(10.0, 20.0, 30.0, ENDING),), dpi=500)
        assert rescale_to_500dpi(t) == t

    def test_fvc2004_db3_mean_ird(self):
        t = MinutiaTemplate(minutiae=(), dpi=512, mean_ird=10.24, var_ird=4.0)
        r = rescale_to_500dpi(t)
        assert r.mean_ird == pytest.approx(10.0)
        assert r.var_ird == pytest.approx(4.0 * (500 / 512) ** 2)

    def test_idempotent(self):
        t = MinutiaTemplate(
            minutiae=(Minutia(100.0, 50.0, 10.0, ENDING),), dpi=569,
            mean_ird=11.0, var_ird=2.0,
        )
        once = rescale_to_500dpi(t)
        assert rescale_to_500dpi(once) == once

    def test_preserves_direction_differences_and_scales_distances(self):
        rng = np.random.default_rng(3)
        minutiae = tuple(
            Minutia(float(rng.uniform(0, 400)), float(rng.uniform(0, 400)),
                    float(rng.uniform(0, 360)), ENDING)
            for _ in range(10)
        )
        t = MinutiaTemplate(minutiae=minutiae, dpi=512)
        r = rescale_to_500dpi(t)
        factor = 500 / 512
        for a, b in zip(t.minutiae, r.minutiae):
            assert b.direction == a.direction
        for i in range(10):
            for j in range(i + 1, 10):
                d_old = math.dist(
                    (t.minutiae[i].x, t.minutiae[i].y), (t.minutiae[j].x, t.minutiae[j].y)
                )
                d_new = math.dist(
                    (r.minutiae[i].x, r.minutiae[i].y), (r.minutiae[j].x, r.minutiae[j].y)
                )
                assert d_new == pytest.approx(d_old * factor, rel=1e-12)

    # Each value rescale_to_500dpi scales is checked at its rescaled size
    # when the template is made, so a parsed template always rescales.
    @pytest.mark.parametrize("text, name", [
        ("dpi 1\n1e306 5 10 E\n", "minutia x at 500 dpi"),
        ("dpi 1\n5 1e306 10 E\n", "minutia y at 500 dpi"),
        ("dpi 1\nmean_ird 1e306\n", "mean_ird at 500 dpi"),
        ("dpi 1\nvar_ird 1e304\n", "var_ird at 500 dpi"),
        ("dpi 1000\nmean_ird 5e-324\n", "mean_ird at 500 dpi"),
    ])
    def test_overflow_at_500dpi_is_a_parse_error(self, text, name):
        with pytest.raises(TemplateParseError, match=f"^{name} must be a finite number"):
            parse_template(text)

    def test_largest_values_that_rescale_are_accepted(self):
        t = parse_template("dpi 250\nmean_ird 8e307\nvar_ird 4e307\n8e307 1 10 E\n")
        r = rescale_to_500dpi(t)
        assert (r.minutiae[0].x, r.mean_ird, r.var_ird) == (1.6e308, 1.6e308, 1.6e308)

    def test_never_warns(self):
        # The interridge plausibility warning belongs to the realness side
        # features, the only reader of the interridge scalars.
        t = MinutiaTemplate(minutiae=(), dpi=569, mean_ird=40.0, var_ird=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rescale_to_500dpi(t).mean_ird == pytest.approx(40.0 * 500 / 569)


class TestBifurcationPercentage:
    def _template(self, n_bif, n_end, n_unknown=0):
        minutiae = (
            tuple(Minutia(float(i), 0.0, 0.0, BIFURCATION) for i in range(n_bif))
            + tuple(Minutia(float(i), 1.0, 0.0, ENDING) for i in range(n_end))
            + tuple(Minutia(float(i), 2.0, 0.0, UNKNOWN) for i in range(n_unknown))
        )
        return MinutiaTemplate(minutiae=minutiae, dpi=500)

    def test_direct_ratio(self):
        assert bifurcation_percentage(self._template(3, 7)) == 30.0

    def test_zero_case(self):
        assert bifurcation_percentage(self._template(0, 5)) == 0.0

    def test_all_bifurcations(self):
        assert bifurcation_percentage(self._template(4, 0)) == 100.0

    def test_unknown_types_excluded(self):
        assert bifurcation_percentage(self._template(1, 1, n_unknown=8)) == 50.0

    def test_all_unknown_raises(self):
        with pytest.raises(ValueError, match="no typed minutiae"):
            bifurcation_percentage(self._template(0, 0, n_unknown=3))


def test_direction_normalized_on_construction():
    assert Minutia(0.0, 0.0, -10.0).direction == 350.0
    assert Minutia(0.0, 0.0, 360.0).direction == 0.0


# The float remainder of -1e-20 by 360 rounds up to 360.0 itself, which used
# to be kept, serialized as 360.0 and parsed back as 0.0.
@pytest.mark.parametrize("direction", [-1e-20, -0.0, 360.0, -360.0])
def test_direction_lies_in_0_360_and_round_trips(direction):
    parsed = parse_template(f"dpi 500\n1 2 {direction!r} E\n").minutiae[0]
    for m in (Minutia(x=1.0, y=2.0, direction=direction), parsed):
        assert 0.0 <= m.direction < 360.0
        assert fold_direction_difference(m.direction, 10.0) == 10.0 - m.direction
        t = MinutiaTemplate(minutiae=(m,))
        assert parse_template(serialize_template(t)) == t


def test_invalid_minutia_rejected():
    with pytest.raises(ValueError):
        Minutia(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Minutia(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        Minutia(0.0, 0.0, float("nan"))


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"x": True}, "minutia x"),
        ({"y": float("-inf")}, "minutia y"),
        ({"direction": "90"}, "minutia direction"),
        ({"mtype": "loop"}, "unknown minutia type: 'loop'"),
    ],
)
def test_minutia_fields_are_checked(kwargs, name):
    with pytest.raises(ValueError, match=name):
        Minutia(**{"x": 0.0, "y": 0.0, "direction": 0.0, **kwargs})


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"dpi": True}, "dpi"),
        ({"dpi": 500.0}, "dpi"),
        ({"dpi": 0}, "dpi"),
        ({"mean_ird": float("nan")}, "mean_ird"),
        ({"mean_ird": 0.0}, "mean_ird"),
        ({"var_ird": float("nan")}, "var_ird"),
        ({"var_ird": -1.0}, "var_ird"),
        ({"label": "fake"}, "label must be 'real' or 'synthetic', got 'fake'"),
    ],
)
def test_template_fields_are_checked(kwargs, name):
    # Each of the nan cases and dpi=True used to construct.
    with pytest.raises(ValueError, match=name):
        MinutiaTemplate(minutiae=(), **kwargs)
