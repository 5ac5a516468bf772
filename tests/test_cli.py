import csv
import json
import os
import shutil
import subprocess
import sys
from copy import deepcopy
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

from minhist import cli
from minhist.cli import main
from minhist.refine import RefineConfig
from minhist.template import load_template, save_template

from genpop import make_population


# A one-point training grid, so that a training run takes a fraction of a second.
TRAIN = {
    "split": [2, 2, 2],
    "r_grid": [1.0], "s_grid": [1.0], "e_grid": [1.0],
    "w0_grid": [0.0], "w1_grid": [1.0],
    "use_side_features": False,
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Populated directories plus a trained model and a grid config file."""
    root = tmp_path_factory.mktemp("cli")
    real_dir = root / "real"
    synth_dir = root / "synth"
    real_dir.mkdir()
    synth_dir.mkdir()
    real = make_population(70, 6, 2, "broad", "real")
    synth = make_population(71, 6, 2, "cluster", "synthetic")
    for t in real:
        save_template(t, real_dir / f"{t.finger_id}_{t.impression_id}.mnt")
    for t in synth:
        save_template(t, synth_dir / f"{t.finger_id}_{t.impression_id}.mnt")

    # exact-copy impressions make gallery search outcomes deterministic
    gallery_dir = root / "gallery"
    gallery_dir.mkdir()
    for t in make_population(72, 6, 2, "broad", None, jitter=0.0):
        save_template(t, gallery_dir / f"{t.finger_id}_{t.impression_id}.mnt")

    config = root / "config.json"
    config.write_text(json.dumps({
        "train": TRAIN,
        "identify_spec": {"b_dist": 10, "b_dir": 10, "b_relangle": 12},
    }))

    model = root / "model.json"
    code = main(["--config", str(config), "train", str(real_dir), str(synth_dir),
                 "--out", str(model)])
    assert code == 0
    return {
        "root": root, "real_dir": real_dir, "synth_dir": synth_dir,
        "gallery_dir": gallery_dir, "config": config, "model": model,
        "real_template": real_dir / "1_1.mnt",
        "synth_template": synth_dir / "1_1.mnt",
        "gallery_template": gallery_dir / "1_1.mnt",
    }


class TestHistogramCommand:
    def test_json_output(self, data, capsys):
        assert main(["histogram", str(data["real_template"]), "--normalize"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["mass"]) == 100
        assert sum(payload["mass"]) == pytest.approx(1.0)
        assert payload["normalized"] is True

    # --dims 4 bins as identify enroll does: the identification spec (20 x
    # 20 x 20 x 4) under the config's "identify_spec" and the spec flags.
    @pytest.mark.parametrize("config, flags, bins", [
        (False, ["--bins-dist", "20", "--bins-dir", "20"], 32000),
        (False, [], 32000),
        (True, [], 10 * 10 * 12 * 4),
        (True, ["--bins-dist", "20"], 20 * 10 * 12 * 4),
    ], ids=["flags", "default", "config", "config-and-flag"])
    def test_4d_identification_binning(self, data, capsys, config, flags, bins):
        prefix = ["--config", str(data["config"])] if config else []
        code = main([*prefix, "histogram", str(data["real_template"]), "--dims", "4", *flags])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["mass"]) == bins
        assert payload["dims"] == 4

    def test_byte_order_mark_is_skipped(self, data, tmp_path, capsys):
        text = data["real_template"].read_bytes()
        bom = tmp_path / "bom_1.mnt"
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["histogram", str(data["real_template"])]) == 0
        plain = capsys.readouterr().out
        assert main(["histogram", str(bom)]) == 0
        assert capsys.readouterr().out == plain

    def test_spec_flags_override(self, data, capsys):
        assert main(["histogram", str(data["real_template"]),
                     "--bins-dist", "5", "--bins-dir", "4"]) == 0
        assert len(json.loads(capsys.readouterr().out)["mass"]) == 20

    def test_raw_histogram_without_a_pair_is_all_zero(self, tmp_path, capsys):
        assert main(["histogram", _file(tmp_path, "far.mnt", FAR_PAIR)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair_count"] == 0 and not any(payload["mass"])
        assert payload["normalized"] is False

    def test_missing_file_exits_2(self, data, capsys):
        assert main(["histogram", str(data["root"] / "nope.mnt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_template_exits_2(self, data, tmp_path):
        bad = tmp_path / "bad.mnt"
        bad.write_text("dpi 500\n10 20 E\n")
        assert main(["histogram", str(bad)]) == 2

    def test_too_few_minutiae_exits_3(self, data, tmp_path):
        tiny = tmp_path / "tiny.mnt"
        tiny.write_text("dpi 500\n10 20 30 E\n")
        assert main(["histogram", str(tiny)]) == 3


class TestTrainCommand:
    def test_reports_accuracy(self, data, capsys, tmp_path):
        out = tmp_path / "m.json"
        code = main(["--config", str(data["config"]), "train",
                     str(data["real_dir"]), str(data["synth_dir"]),
                     "--out", str(out)])
        assert code == 0
        assert "set II accuracy: 100.0" in capsys.readouterr().out
        assert out.exists()

    def test_split_flag_overrides_config(self, data, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["--config", str(data["config"]), "train",
                     str(data["real_dir"]), str(data["synth_dir"]),
                     "--split", "3/3/0", "--out", str(out)])
        assert code == 0

    def test_reports_skipped_templates(self, data, tmp_path, capsys):
        # finger 1 lies in Set I; the template's one pair lies beyond d_max
        real_dir = _dir_plus(data["real_dir"], tmp_path, "finger 1\nimpression 9\n" + FAR_PAIR)
        out = tmp_path / "m.json"
        code = main(["--config", str(data["config"]), "train",
                     real_dir, str(data["synth_dir"]), "--out", str(out)])
        assert code == 0
        assert "skipped: 1" in capsys.readouterr().out
        assert out.read_text() == data["model"].read_text()

    def test_empty_class_exits_4(self, data, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["--config", str(data["config"]), "train",
                     str(data["real_dir"]), str(empty),
                     "--out", str(tmp_path / "m.json")])
        assert code == 4
        assert "class empty" in capsys.readouterr().err

    def test_bad_split_exits_usage(self, data, tmp_path):
        code = main(["--config", str(data["config"]), "train",
                     str(data["real_dir"]), str(data["synth_dir"]),
                     "--split", "40/30", "--out", str(tmp_path / "m.json")])
        assert code == 64


class TestClassifyCommand:
    def test_real_template_exits_0(self, data, capsys):
        code = main(["classify", str(data["model"]), str(data["real_template"])])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "real"
        assert payload["a"] > 0

    def test_synthetic_template_exits_1(self, data, capsys):
        code = main(["classify", str(data["model"]), str(data["synth_template"])])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["decision"] == "synthetic"

    def test_json_keys_in_order(self, data, capsys):
        main(["classify", str(data["model"]), str(data["real_template"])])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["emd_real", "emd_synth", "a", "b", "c", "d",
                                 "fused", "decision"]

    def test_corrupt_model_exits_5(self, data, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["classify", str(broken), str(data["real_template"])]) == 5

    def test_non_finite_score_prints_nothing(self, data, tmp_path, capsys):
        model = _edited(data["model"], tmp_path, _overflowing_fusion(1e-300))
        assert main(["classify", model, str(data["real_template"])]) == 5
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the model gives a fused score of -inf\n"

    def test_single_minutia_template_exits_3(self, data, tmp_path):
        tiny = tmp_path / "tiny.mnt"
        tiny.write_text("dpi 500\n10 20 30 E\n")
        assert main(["classify", str(data["model"]), str(tiny)]) == 3


class TestEvaluateCommand:
    def test_report_and_csv(self, data, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["evaluate", str(data["model"]), str(data["real_dir"]),
                     str(data["synth_dir"]), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy: 100.0" in stdout
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("template,")
        assert len(lines) == 1 + 24

    def test_csv_header(self, data, tmp_path):
        out = tmp_path / "report.csv"
        main(["evaluate", str(data["model"]), str(data["real_dir"]),
              str(data["synth_dir"]), "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "template,emd_real,emd_synth,a,b,c,d,fused,decision,label"


@pytest.fixture(scope="module")
def index(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("idx") / "gallery.json"
    code = main(["--config", str(data["config"]), "identify", "enroll",
                 str(data["gallery_dir"]), "--out", str(path)])
    assert code == 0
    return path


class TestIdentifyCommands:
    def test_enroll_summary(self, data, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["--config", str(data["config"]), "identify", "enroll",
                     str(data["gallery_dir"]), "--out", str(out)])
        assert code == 0
        assert "enrolled 12 impressions of 6 fingers" in capsys.readouterr().out

    def test_search_ranks_own_finger_first(self, data, index, capsys):
        code = main(["identify", "search", str(index), str(data["gallery_template"])])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["true_rank"] == 1
        assert payload["ranked"][0][0] == "1"
        assert payload["accessed_fraction"] == pytest.approx(1 / 6)

    def test_report(self, data, index, capsys):
        code = main(["identify", "report", str(index), str(data["gallery_dir"])])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "queries: 12" in stdout
        assert "rank-1: 100.0%" in stdout

    @pytest.mark.parametrize("identify_spec", [{"b_dist": 0}, {"bins": 20}, 5])
    def test_bad_identify_spec_exits_usage(self, data, tmp_path, capsys, identify_spec):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"identify_spec": identify_spec}))
        code = main(["--config", str(config), "identify", "enroll",
                     str(data["gallery_dir"]), "--out", str(tmp_path / "g.json")])
        assert code == 64
        assert capsys.readouterr().err.startswith("error: bad bin specification: ")

    def test_corrupt_index_exits_5(self, data, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("[]")
        assert main(["identify", "search", str(broken), str(data["real_template"])]) == 5


class TestRefineCommand:
    def test_refine_writes_template_and_trace(self, data, tmp_path, capsys):
        out = tmp_path / "refined.mnt"
        trace = tmp_path / "trace.csv"
        code = main(["refine", "--target", str(data["model"]),
                     "--threshold", "5.0", "--seed", "4",
                     "--counts", "25", "30", "35",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 0
        assert "success" in capsys.readouterr().out
        t = load_template(out)
        assert len(t) >= 2
        assert trace.read_text().startswith("iteration,emd,move")

    def test_deterministic_across_runs(self, data, tmp_path):
        outs = []
        for name in ("a.mnt", "b.mnt"):
            out = tmp_path / name
            code = main(["refine", "--target", str(data["model"]),
                         "--threshold", "1.5", "--seed", "11",
                         "--max-iters", "10", "--out", str(out)])
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_foreground_respected(self, data, tmp_path):
        out = tmp_path / "boxed.mnt"
        code = main(["refine", "--target", str(data["model"]),
                     "--threshold", "100.0", "--seed", "2",
                     "--foreground", "10", "20", "90", "120",
                     "--out", str(out)])
        assert code == 0
        t = load_template(out)
        assert all(10 <= m.x <= 90 and 20 <= m.y <= 120 for m in t.minutiae)

    def test_defaults_are_the_library_defaults(self, data, tmp_path, monkeypatch):
        configs = []
        init = cli.init_template
        monkeypatch.setattr(cli, "init_template", lambda cfg: configs.append(cfg) or init(cfg))
        assert main(["refine", "--target", str(data["model"]), "--threshold", "100.0",
                     "--out", str(tmp_path / "r.mnt")]) == 0
        (cfg,) = configs
        library = RefineConfig(target=cfg.target, threshold=cfg.threshold, params=cfg.params)
        assert cfg == library


class TestMdsCommand:
    def test_embedding_csv(self, tmp_path, capsys):
        matrix = tmp_path / "d.csv"
        matrix.write_text("p,0,1,1\nq,1,0,1\nr,1,1,0\n")
        out = tmp_path / "coords.csv"
        assert main(["mds", str(matrix), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,dim1,dim2"
        coords = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
        assert np.linalg.norm(coords[0] - coords[1]) == pytest.approx(1.0, abs=1e-9)

    def test_negative_eigenvalues_warned_and_blank_rows_skipped(self, tmp_path, capsys):
        matrix = tmp_path / "d.csv"
        matrix.write_text("w,0,1,2,1\n\nx,1,0,1,2\ny,2,1,0,1\n\nz,1,2,1,0\n")
        out = tmp_path / "coords.csv"
        assert main(["mds", str(matrix), "--dims", "4", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5
        err = capsys.readouterr().err
        assert err.startswith("warning: dimensions [") and "have negative eigenvalues" in err

    # Eigenvalues that are 0 up to rounding are neither warned about nor
    # embedded: the 4-cycle spans 2 dimensions and the collinear points 1.
    @pytest.mark.parametrize("rows, dims, warning, embedded", [
        ("w,0,1,2,1\nx,1,0,1,2\ny,2,1,0,1\nz,1,2,1,0\n", "4",
         "warning: dimensions [3] have negative eigenvalues\n", 2),
        ("u,0,1,2\nv,1,0,1\nw,2,1,0\n", "3", "", 1),
    ], ids=["four-cycle", "collinear"])
    def test_only_non_euclidean_dimensions_warned(self, tmp_path, capsys, rows, dims,
                                                  warning, embedded):
        matrix = tmp_path / "d.csv"
        matrix.write_text(rows)
        out = tmp_path / "coords.csv"
        assert main(["mds", str(matrix), "--dims", dims, "--out", str(out)]) == 0
        assert capsys.readouterr().err == warning
        with open(out, newline="") as fh:
            coords = np.array([row[1:] for row in list(csv.reader(fh))[1:]], dtype=float)
        assert (coords[:, :embedded] != 0).any(axis=0).all()
        assert (coords[:, embedded:] == 0).all()

    def test_byte_order_mark_dropped(self, tmp_path):
        # It used to stay on the first label and be written out with it.
        matrix = tmp_path / "d.csv"
        matrix.write_bytes("\ufeffp,0,1\nq,1,0\n".encode("utf-8"))
        out = tmp_path / "coords.csv"
        assert main(["mds", str(matrix), "--out", str(out)]) == 0
        labels = [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()]
        assert labels == ["label", "p", "q"]

    def test_unreadable_matrix_exits_2(self, tmp_path):
        assert main(["mds", str(tmp_path / "missing.csv"), "--out",
                     str(tmp_path / "out.csv")]) == 2


class TestConfigHandling:
    def test_env_variable_config(self, data, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": {"b_dist": 5, "b_dir": 5}}))
        monkeypatch.setenv("MINHIST_CONFIG", str(cfg))
        assert main(["histogram", str(data["real_template"])]) == 0
        assert len(json.loads(capsys.readouterr().out)["mass"]) == 25

    def test_unreadable_config_exits_usage(self, data):
        assert main(["--config", "/does/not/exist.json", "histogram",
                     str(data["real_template"])]) == 64

    def test_cost_grid_checked_under_the_config_spec(self, data, tmp_path, capsys):
        # (400 * 2)^2 = 640000 is a valid arc cost on 3 x 3 bins, but
        # (400 * 9)^2 is not on the default 10 x 10
        train = {"split": [2, 2, 2], "r_grid": [400], "e_grid": [2],
                 "w0_grid": [0.0], "w1_grid": [1.0], "use_side_features": False}
        out = tmp_path / "m.json"
        argv = ["train", str(data["real_dir"]), str(data["synth_dir"]), "--out", str(out)]
        config = {"spec": {"b_dist": 3, "b_dir": 3}, "train": train}
        assert main(_config(tmp_path, config) + argv) == 0
        assert json.loads(out.read_text())["params"]["r"] == 400
        assert main(_config(tmp_path, {"train": train}) + argv) == 64
        assert "cost parameter r " in capsys.readouterr().err

    def test_no_side_features_flag_overrides_the_config(self, data, tmp_path):
        train = {**TRAIN, "use_side_features": True}
        argv = [*_config(tmp_path, {"train": train}), "train", str(data["real_dir"]),
                str(data["synth_dir"])]
        models = []
        for flag in ([], ["--no-side-features"]):
            out = tmp_path / f"m{len(models)}.json"
            assert main([*argv, "--out", str(out), *flag]) == 0
            models.append(json.loads(out.read_text()))
        with_side, without = models
        assert any(norm != [0.0, 1.0] for norm in with_side["feature_norms"].values())
        assert all(norm == [0.0, 1.0] for norm in without["feature_norms"].values())
        assert without["weights"][2:] == [0.0, 0.0, 0.0]

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code >= 2

    @pytest.mark.parametrize("argv", [
        ["classify", "m.json"],
        ["frobnicate"],
        ["histogram", "x.mnt", "--dims", "3"],
    ])
    def test_command_line_errors_exit_64(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: " in err


def test_python_dash_m_runs_the_cli():
    # the package under test, whether installed or not
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "minhist", "--help"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: minhist")


# --- the error contract -----------------------------------------------------

MALFORMED = "dpi 500\n10 20 E\n"
FAR_PAIR = "dpi 500\n0 0 0 E\n300 0 90 E\n"  # its one pair lies beyond d_max
SINGLE = "dpi 500\n10 20 30 E\n"
UNTYPED = "dpi 500\n10 10 0 U\n40 10 90 U\n60 50 30 U\n"
NO_IRD = "dpi 500\n10 10 0 E\n40 10 90 B\n60 50 30 E\n"  # no interridge features


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _config(tmp_path, payload):
    return ["--config", _file(tmp_path, "config.json", json.dumps(payload))]


def _edited(path, tmp_path, edit):
    """A copy of the JSON file at `path` with `edit` applied to its payload."""
    payload = json.loads(path.read_text())
    edit(payload)
    return _file(tmp_path, "edited.json", json.dumps(payload))


def _dir_plus(src, tmp_path, text, name="99_1.mnt"):
    """A copy of the template directory `src` with one more template, given
    as text or bytes."""
    copy = tmp_path / f"{src.name}_plus"
    shutil.copytree(src, copy)
    (copy / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(copy)


def _dir_of(tmp_path, name, *texts):
    """A template directory holding the given texts, as 1_1.mnt, 2_1.mnt, ..."""
    path = tmp_path / name
    path.mkdir()
    for k, text in enumerate(texts, 1):
        (path / f"{k}_1.mnt").write_text(text)
    return str(path)


def _avg_real(edit):
    return lambda payload: edit(payload["avg_real"]["mass"])


def _first_entry(key, edit):
    return lambda payload: edit(payload["entries"][0][key])


def _shift_mass(mass):
    mass[0] -= 1.0
    mass[1] += 1.0


def _as_strings(values):
    values[:] = [str(v) for v in values]


def _set_first_zero(values, value):
    values[values.index(0)] = value


def _repeat_first_bin(payload):
    """List the first bin of the first entry twice, the copy with mass 999."""
    entry = payload["entries"][0]
    entry["mass_idx"].insert(0, entry["mass_idx"][0])
    entry["mass_val"].insert(0, 999.0)


def _setitem(i, value):
    def edit(values):
        values[i] = value
    return edit


def _train(d, tmp, *extra):
    return ["train", str(d["real_dir"]), str(d["synth_dir"]), "--out", str(tmp / "m.json"),
            *extra]


def _refine(d, tmp, *extra):
    return ["refine", "--target", str(d["model"]), "--out", str(tmp / "r.mnt"), *extra]


def _classify(tmp, model, text):
    return ["classify", model, _file(tmp, "probe.mnt", text)]


def _search(d, tmp, index, *extra):
    return ["identify", "search", index, str(d["gallery_template"]), *extra]


def _norm(name, offset, scale):
    return lambda payload: payload["feature_norms"].update({name: [offset, scale]})


def _overflowing_fusion(pct_bif_scale):
    """Weights (0, 0, 0, 0, -1e308) and a pct_bif norm scale of
    pct_bif_scale: finite values, whose score is not."""
    def edit(payload):
        payload["weights"] = [0.0, 0.0, 0.0, 0.0, -1e308]
        _norm("pct_bif", 0.0, pct_bif_scale)(payload)
    return edit


# (exit status, argv builder, a substring of stderr or None)
ERROR_CASES = {
    "config-not-object": (64, lambda d, tmp: [
        *_config(tmp, [1]), "histogram", str(d["real_template"])], "is not a JSON object"),
    "train-unknown-key": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"bogus": 1}}), *_train(d, tmp)], None),
    "train-split-not-list": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": 5}}), *_train(d, tmp)], None),
    "train-split-two": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [1, 2]}}), *_train(d, tmp)],
        "split"),
    "train-split-negative": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [2, -1, 2]}}), *_train(d, tmp)],
        "split"),
    "train-empty-r-grid": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [2, 2, 2], "r_grid": []}}), *_train(d, tmp)],
        "r_grid is empty"),
    "train-empty-side-grid": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [2, 2, 2], "side_grid": []}}), *_train(d, tmp)],
        "side_grid is empty"),
    "train-grid-value-not-a-number": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [2, 2, 2], "w0_grid": ["x"]}}), *_train(d, tmp)],
        "w0_grid"),
    "train-cost-too-large": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [2, 2, 2], "r_grid": [1e9], "e_grid": [2]}}),
        *_train(d, tmp)], "cost parameter r "),
    "train-cost-too-small": (64, lambda d, tmp: [
        *_config(tmp, {"train": {"split": [2, 2, 2], "s_grid": [1e-9], "e_grid": [2]}}),
        *_train(d, tmp)], "cost parameter s "),
    "train-split-flag-not-integers": (64, lambda d, tmp: [
        "--config", str(d["config"]), *_train(d, tmp, "--split", "a/b/c")],
        None),
    "train-out-unwritable": (73, lambda d, tmp: [
        "--config", str(d["config"]), *_train(d, tmp, "--out", str(tmp / "no" / "m.json"))],
        None),
    "enroll-out-unwritable": (73, lambda d, tmp: [
        "identify", "enroll", str(d["gallery_dir"]), "--out", str(tmp / "no" / "i.json")],
        None),
    "refine-threshold-zero": (64, lambda d, tmp: _refine(d, tmp, "--threshold", "0"), None),
    "refine-one-minutia": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "1", "--counts", "1"), None),
    "refine-no-pair-within-d-max": (3, lambda d, tmp: _refine(
        d, tmp, "--threshold", "1", "--foreground", "0", "0", "1000", "1000", "--counts", "2"),
        "no minutiae pair within d_max"),
    "mds-dims-zero": (64, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "p,0,1\nq,1,0\n"), "--dims", "0",
        "--out", str(tmp / "c.csv")], None),
    # Columns past the number of points are all zero; a huge --dims used to
    # fail allocating them.
    "mds-dims-above-points": (64, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "p,0,1\nq,1,0\n"), "--dims", "3",
        "--out", str(tmp / "c.csv")], "dims must be at most the number of points, 2, got 3"),
    "evaluate-malformed-in-dir": (2, lambda d, tmp: [
        "evaluate", str(d["model"]), _dir_plus(d["real_dir"], tmp, MALFORMED),
        str(d["synth_dir"])], "99_1.mnt"),
    # Nothing to score used to exit 64, as if the command line were wrong.
    "evaluate-nothing-scorable": (4, lambda d, tmp: [
        "evaluate", str(d["model"]), _dir_of(tmp, "real", FAR_PAIR),
        _dir_of(tmp, "synth", FAR_PAIR, FAR_PAIR)], "empty test set: 3 skipped"),
    "evaluate-empty-directories": (4, lambda d, tmp: [
        "evaluate", str(d["model"]), _dir_of(tmp, "real"), _dir_of(tmp, "synth")],
        "empty test set: 0 skipped"),
    "enroll-malformed-in-dir": (2, lambda d, tmp: [
        "identify", "enroll", _dir_plus(d["gallery_dir"], tmp, MALFORMED),
        "--out", str(tmp / "i.json")], "99_1.mnt"),
    "report-malformed-in-dir": (2, lambda d, tmp: [
        "identify", "report", str(d["index"]), _dir_plus(d["gallery_dir"], tmp, MALFORMED)],
        "99_1.mnt"),
    # A UnicodeDecodeError used to escape the loader, so the error named no
    # file.
    "enroll-not-utf8-in-dir": (2, lambda d, tmp: [
        "identify", "enroll", _dir_plus(d["gallery_dir"], tmp, b"\xff" + NO_IRD.encode()),
        "--out", str(tmp / "i.json")], "99_1.mnt: not UTF-8 text"),
    "train-template-without-finger-id": (64, lambda d, tmp: [
        "--config", str(d["config"]), "train", _dir_plus(d["real_dir"], tmp, NO_IRD, "loose.mnt"),
        str(d["synth_dir"]), "--out", str(tmp / "m.json")], "no finger id"),
    "train-finger-id-with-space": (2, lambda d, tmp: [
        "--config", str(d["config"]), "train",
        _dir_plus(d["real_dir"], tmp, NO_IRD, "left thumb_1.mnt"), str(d["synth_dir"]),
        "--out", str(tmp / "m.json")], "left thumb_1.mnt"),
    "train-missing-directory": (2, lambda d, tmp: [
        "--config", str(d["config"]), "train", str(tmp / "none"), str(d["synth_dir"]),
        "--out", str(tmp / "m.json")], "not a directory"),
    "enroll-missing-directory": (2, lambda d, tmp: [
        "identify", "enroll", str(tmp / "none"), "--out", str(tmp / "i.json")],
        "not a directory"),
    "classify-no-pair-within-d-max": (3, lambda d, tmp: _classify(
        tmp, str(d["model"]), FAR_PAIR), "no minutiae pair within d_max"),
    "histogram-normalize-no-pair-within-d-max": (3, lambda d, tmp: [
        "histogram", _file(tmp, "far.mnt", FAR_PAIR), "--normalize"],
        "no minutiae pair within d_max"),
    "histogram-4d-normalize-no-pair-within-d-max": (3, lambda d, tmp: [
        "histogram", _file(tmp, "far.mnt", FAR_PAIR), "--normalize", "--dims", "4"],
        "no minutiae pair within d_max"),
    "classify-missing-side-feature": (64, lambda d, tmp: _classify(
        tmp, _edited(d["model"], tmp, lambda p: p.update(weights=[0, 1, 1, 0, 0])),
        NO_IRD), "mean_ird"),
    "histogram-d-max-nan": (64, lambda d, tmp: [
        "histogram", str(d["real_template"]), "--d-max", "nan"], "d_max"),
    "histogram-d-max-inf": (64, lambda d, tmp: [
        "histogram", str(d["real_template"]), "--d-max", "inf"], "d_max"),
    "config-spec-bins-not-integer": (64, lambda d, tmp: [
        *_config(tmp, {"spec": {"b_dist": 10.5}}), "histogram", str(d["real_template"])],
        "b_dist"),
    "config-spec-bins-bool": (64, lambda d, tmp: [
        *_config(tmp, {"spec": {"b_dir": True}}), "histogram", str(d["real_template"])],
        "b_dir"),
    "config-spec-list-of-pairs": (64, lambda d, tmp: [
        *_config(tmp, {"spec": [["b_dist", 5]]}), "histogram", str(d["real_template"])],
        "bin specification"),
    "config-spec-d-max-not-a-number": (64, lambda d, tmp: [
        *_config(tmp, {"spec": {"d_max": "200"}}), "histogram", str(d["real_template"])],
        "d_max"),
    # A first token that parses as a number makes a minutia line, not an
    # ignored header line.
    "histogram-first-minutia-x-inf": (2, lambda d, tmp: [
        "histogram", _file(tmp, "inf.mnt", "dpi 500\ninf 20 30 E\n4 5 6 B\n")],
        "line 2: minutia x must be a finite number >= 0, got inf"),
    "histogram-dpi-too-large": (2, lambda d, tmp: [
        "histogram", _file(tmp, "big.mnt", "dpi " + "9" * 400 + "\n10 20 30 E\n4 5 6 B\n")],
        "dpi must be at most"),
    "histogram-repeated-dpi": (2, lambda d, tmp: [
        "histogram", _file(tmp, "twice.mnt", "dpi 500\ndpi 1000\n10 20 30 E\n4 5 6 B\n")],
        "line 2: 'dpi' is given more than once"),
    "histogram-4d-untyped": (64, lambda d, tmp: [
        "histogram", _file(tmp, "u.mnt", UNTYPED), "--dims", "4"], "typed"),
    "search-untyped": (64, lambda d, tmp: [
        "identify", "search", str(d["index"]), _file(tmp, "u.mnt", UNTYPED)], "typed"),
    "enroll-single-minutia": (3, lambda d, tmp: [
        "identify", "enroll", _dir_plus(d["gallery_dir"], tmp, SINGLE),
        "--out", str(tmp / "i.json")], "fewer than 2 minutiae"),
    "model-nan-average": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, _avg_real(_setitem(0, float("nan")))), NO_IRD), "finite"),
    "model-negative-average": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, _avg_real(_shift_mass)), NO_IRD), "non-negative"),
    "model-average-not-unit": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, _avg_real(_setitem(0, 0.5))), NO_IRD), "sum to 1"),
    "model-spec-mismatch": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["spec"].update(b_dist=5)), NO_IRD), "bin specification"),
    "model-four-weights": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p.update(weights=[0, 1, 0, 0])), NO_IRD),
        "expected 5 fusion weights"),
    "model-average-raw": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["avg_real"].update(normalized=False)), NO_IRD),
        "class averages must be normalized 2D histograms"),
    "model-nan-weight": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p.update(weights=[float("nan"), 1, 0, 0, 0])), NO_IRD),
        "finite"),
    "model-infinite-weight": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p.update(weights=[float("inf"), 1, 0, 0, 0])), NO_IRD),
        "finite"),
    "model-nan-feature-norm": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, _norm("mean_ird", float("nan"), 1.0)),
        str(d["real_template"])], "finite"),
    # Every value of these models passes the load checks, but the template's
    # z-scored bifurcation percentage or its fused score overflows: classify
    # used to print "fused": -Infinity or NaN and exit 1.
    "model-fused-score-overflows": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, _overflowing_fusion(1e-300)), NO_IRD),
        "the model gives a fused score of -inf"),
    "model-feature-norm-overflows": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, _overflowing_fusion(1e-320)), NO_IRD),
        "the model gives a normalized pct_bif of inf"),
    "evaluate-fused-score-overflows": (5, lambda d, tmp: [
        "evaluate", _edited(d["model"], tmp, _overflowing_fusion(1e-300)), str(d["real_dir"]),
        str(d["synth_dir"])], "fused score"),
    # Rescaled to 500 DPI, x = 1e306 at 1 DPI overflows: a malformed
    # template, where it used to be a usage error (64).
    "histogram-rescale-overflows": (2, lambda d, tmp: [
        "histogram", _file(tmp, "big.mnt", "dpi 1\n1e306 5 10 E\n3 4 20 B\n")],
        "minutia x at 500 dpi must be a finite number >= 0, got inf"),
    "model-unknown-feature-norm": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, _norm("pct_BIF", 35.0, 10.0)),
        str(d["real_template"])], "pct_BIF"),
    "model-cost-out-of-range": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["params"].update(r=1e-9)), NO_IRD), "cost parameter r "),
    "model-spec-bins-not-integer": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["spec"].update(b_relangle=20.5)), NO_IRD), "b_relangle"),
    "model-spec-d-max-nan": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["spec"].update(d_max=float("nan"))), NO_IRD), "d_max"),
    # Model values are checked, not coerced: each of these used to load and
    # exit with a decision, 0 or 1.
    "model-average-pair-count-negative": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["avg_real"].update(pair_count=-3)), NO_IRD), "pair_count"),
    "model-average-pair-count-bool": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["avg_real"].update(pair_count=True)), NO_IRD), "pair_count"),
    "model-average-normalized-string": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["avg_real"].update(normalized="no")), NO_IRD), "normalized"),
    "model-average-dims-fraction": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["avg_real"].update(dims=2.9)), NO_IRD), "dims"),
    "model-average-mass-strings": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, _avg_real(_as_strings)), NO_IRD), "mass"),
    "model-weights-strings": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p.update(weights=["0", "1", "0", "0", "0"])), NO_IRD),
        "fusion weights"),
    "model-weights-bool": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p.update(weights=[False, True, False, False, False])), NO_IRD),
        "fusion weights"),
    "model-feature-norm-string": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, _norm("mean_ird", "35", 10.0)),
        str(d["real_template"])], "mean_ird"),
    "model-feature-norm-bool": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, _norm("mean_ird", 35.0, True)),
        str(d["real_template"])], "mean_ird"),
    # A norm is an (offset, scale) pair; other lengths used to exit 5 with
    # "too many values to unpack" or "not enough values to unpack".
    "model-feature-norm-three-values": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, lambda p: p["feature_norms"].update(
            mean_ird=[1.0, 2.0, 3.0])), str(d["real_template"])], "feature norm of 'mean_ird'"),
    "model-feature-norm-one-value": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, lambda p: p["feature_norms"].update(
            var_ird=[1.0])), str(d["real_template"])], "feature norm of 'var_ird'"),
    "mds-infinite-distance": (2, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "a,0,inf\nb,inf,0\n"), "--out", str(tmp / "c.csv")],
        "non-finite"),
    # Squared in the double-centring, 1e308 overflowed: the command wrote
    # NaN coordinates and exited 0.
    "mds-distance-too-large": (2, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "a,0,1e308\nb,1e308,0\n"), "--out", str(tmp / "c.csv")],
        "distance matrix has entries above 6.704e+153, too large to square for MDS"),
    # Each of these used to exit 2 with NumPy's or the shape check's
    # message, which named neither row nor file.
    "mds-row-too-short": (2, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "a,0,1\nb,1\n"), "--out", str(tmp / "c.csv")],
        "row 2 has 1 distances, expected 2"),
    "mds-row-too-long": (2, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "a,0,1,2\nb,1,0\n"), "--out", str(tmp / "c.csv")],
        "row 1 has 3 distances, expected 2"),
    "mds-empty-matrix": (2, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "\n"), "--out", str(tmp / "c.csv")],
        "distance matrix has no rows"),
    # Repeated labels used to be written as two rows of coordinates.
    "mds-repeated-label": (2, lambda d, tmp: [
        "mds", _file(tmp, "d.csv", "a,0,1\na,1,0\n"), "--out", str(tmp / "c.csv")],
        "distance matrix label 'a' is repeated"),
    "search-top-negative": (64, lambda d, tmp: _search(d, tmp, str(d["index"]), "--top", "-1"),
        "--top"),
    "refine-max-iters-negative": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "1", "--max-iters", "-3"), "max_iters"),
    "refine-threshold-nan": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "nan", "--max-iters", "3"), "threshold"),
    # Each of these used to exit 70 with a traceback from the draw, or 64
    # with NumPy's message, which names no value.
    "refine-foreground-nan": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "0.01", "--foreground", "nan", "0", "100", "100"),
        "foreground value must be a finite number >= 0, got nan"),
    "refine-foreground-infinite": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "0.01", "--foreground", "0", "0", "inf", "100"),
        "foreground value must be a finite number >= 0, got inf"),
    "refine-foreground-negative": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "0.01", "--foreground", "-1", "0", "100", "100"),
        "foreground value must be a finite number >= 0, got -1.0"),
    "refine-seed-negative": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "0.01", "--seed", "-1"),
        "rng_seed must be an integer >= 0, got -1"),
    "refine-field-angle-infinite": (64, lambda d, tmp: _refine(
        d, tmp, "--threshold", "0.01", "--field-angle", "inf"), "field angle"),
    "index-mass-idx-too-large": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_idx", _setitem(0, 10 ** 7)))), "mass_idx"),
    "index-mass-idx-beyond-int64": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_idx", _setitem(0, 2 ** 64)))),
        "mass_idx must be a list of integers"),
    "index-mass-idx-negative": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_idx", _setitem(0, -1)))), "mass_idx"),
    # A repeated bin used to keep one of its masses, and search exited 0.
    "index-mass-idx-repeated": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _repeat_first_bin)), "entry 0: mass_idx must be strictly increasing"),
    "index-mass-val-nan": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_val", _setitem(0, float("nan"))))), "mass_val"),
    "index-mass-val-negative": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_val", _setitem(0, -1.0)))), "mass_val"),
    "index-spec-bins-bool": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["spec"].update(b_dist=True))), "b_dist"),
    "index-spec-d-max-infinite": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["spec"].update(d_max=float("inf")))), "d_max"),
    "index-lengths-differ": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(mass_val=[1.0]))), "length"),
    "index-finger-not-string": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(finger=5))), "finger"),
    "index-impression-not-string": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(impression=1))), "impression"),
    # An index id follows the template id rule, or no query could match it.
    "index-finger-with-space": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(finger="left thumb"))),
        "entry 0: finger"),
    "index-impression-empty": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(impression=""))),
        "entry 0: impression"),
    "report-index-finger-not-string": (5, lambda d, tmp: [
        "identify", "report", _edited(d["index"], tmp, lambda p: p["entries"][0].update(finger=5)),
        str(d["gallery_dir"])], "finger"),
    "index-pair-count-negative": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(pair_count=-3))), "pair_count"),
    "index-pair-count-bool": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p["entries"][0].update(pair_count=True))), "pair_count"),
    # Numbers are never true, false or strings, and a flag is only true or
    # false. Each of these used to load or train and exit 0 or 1.
    "model-cost-param-bool": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: p["params"].update(r=True)), NO_IRD), "cost parameter r "),
    "model-average-mass-false": (5, lambda d, tmp: _classify(tmp, _edited(
        d["model"], tmp, lambda p: _set_first_zero(p["avg_synth"]["mass"], False)), NO_IRD),
        "mass"),
    "index-mass-val-string": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_val", _setitem(0, "1.5")))), "mass_val"),
    "index-mass-val-bool": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, _first_entry("mass_val", _setitem(0, True)))), "mass_val"),
    "train-r-grid-bool": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "r_grid": [True]}}), *_train(d, tmp)], "r_grid"),
    "train-e-grid-bool": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "e_grid": [True]}}), *_train(d, tmp)], "e_grid"),
    "train-split-bool": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "split": [True, 2, 2]}}), *_train(d, tmp)], "split"),
    "train-side-features-string": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "use_side_features": "no"}}), *_train(d, tmp)],
        "use_side_features"),
    "train-side-features-number": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "use_side_features": 1}}), *_train(d, tmp)],
        "use_side_features"),
    # The config is checked before any template is read (this used to exit
    # 2 for the missing directory).
    "train-weight-grid-bool-checked-first": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "w0_grid": [False]}}), "train", str(tmp / "none"),
        str(d["synth_dir"]), "--out", str(tmp / "m.json")], "w0_grid"),
    # The bin spec has one config key, the top-level "spec"; a spec in the
    # train section used to be dropped without a word.
    "train-spec-in-train-section": (64, lambda d, tmp: [
        *_config(tmp, {"train": {**TRAIN, "spec": {"b_dist": 5, "b_dir": 5}}}),
        *_train(d, tmp)], "train.spec"),
    # A model or index holds exactly the keys its writer writes. Each of
    # these used to load with defaults (the model ones exited 0 or 1) or as
    # an empty gallery (64).
    "model-feature-norms-empty": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, lambda p: p.update(feature_norms={})),
        str(d["real_template"])], "feature_norms"),
    "model-params-empty": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, lambda p: p.update(params={})),
        str(d["real_template"])], "params"),
    "model-spec-empty": (5, lambda d, tmp: [
        "classify", _edited(d["model"], tmp, lambda p: p.update(spec={})),
        str(d["real_template"])], "spec"),
    "index-entries-object": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p.update(entries={}))), "entries"),
    "index-entries-string": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p.update(entries=""))), "entries"),
    "index-spec-empty": (5, lambda d, tmp: _search(d, tmp, _edited(
        d["index"], tmp, lambda p: p.update(spec={}))), "spec"),
    # An index without entries cannot be searched, so none is written.
    "enroll-empty-directory": (64, lambda d, tmp: [
        "identify", "enroll", str(tmp), "--out", str(tmp / "i.json")], "empty gallery index"),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_error_exit_statuses(case, data, index, tmp_path, capsys):
    status, argv, message = ERROR_CASES[case]
    code = main(argv({**data, "index": index}, tmp_path))
    err = capsys.readouterr().err
    assert code == status
    assert code not in (0, 1)
    assert "Traceback" not in err
    assert err.startswith("error: ")
    if message is not None:
        assert message in err


# --- type swaps --------------------------------------------------------------

# One or two values of each JSON type; each leaf gets those of the other types.
SWAP_VALUES = (False, True, 0, 1, "1.5", None, [1], {})


def _json_type(value):
    """The JSON type of a parsed value: true and false are not numbers."""
    return "number" if type(value) in (int, float) else type(value)


def _sample(values):
    """Every position of a short list; the ends of a long one, and its first
    zero and first nonzero entry (a mass list has both)."""
    if len(values) <= 5:
        return range(len(values))
    zero = [i for i, v in enumerate(values) if v == 0][:1]
    nonzero = [i for i, v in enumerate(values) if v != 0][:1]
    return sorted({0, len(values) - 1, *zero, *nonzero})


def _leaves(node, path=()):
    """The paths of a payload's leaves: scalars, lists of scalars and sampled
    entries of those lists. Objects and lists of objects are walked."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for i in _sample(node):
            yield from _leaves(node[i], (*path, i))
    else:
        yield path
        if isinstance(node, list):
            yield from ((*path, i) for i in _sample(node))


def _leaks(payload, argv, status, tmp_path, capsys):
    """Every (path, value) type swap of `payload` for which the command
    `argv(file, path)` does not fail with `status` and without a traceback."""
    leaks = []
    for path in _leaves(payload):
        for value in SWAP_VALUES:
            if _json_type(value) == _json_type(reduce(getitem, path, payload)):
                continue
            swapped = deepcopy(payload)
            reduce(getitem, path[:-1], swapped)[path[-1]] = value
            code = main(argv(_file(tmp_path, "swapped.json", json.dumps(swapped)), path))
            if code != status or "Traceback" in capsys.readouterr().err:
                leaks.append((path, value, code))
    return leaks


def test_type_swaps_in_a_model_are_corrupt(data, tmp_path, capsys):
    model = json.loads(data["model"].read_text())
    assert _leaks(model, lambda file, path: ["classify", file, str(data["real_template"])],
                  5, tmp_path, capsys) == []


def test_type_swaps_in_an_index_are_corrupt(data, index, tmp_path, capsys):
    payload = json.loads(index.read_text())
    assert _leaks(payload, lambda file, path: _search(data, tmp_path, file),
                  5, tmp_path, capsys) == []


def test_type_swaps_in_a_config_are_usage_errors(data, tmp_path, capsys):
    config = {"spec": {"d_max": 200.0, "b_dist": 10, "b_dir": 10}, "train": TRAIN,
              "identify_spec": {"b_dist": 10, "b_dir": 10, "b_relangle": 12}}

    def argv(file, path):
        if path[0] == "identify_spec":
            return ["--config", file, "identify", "enroll", str(data["gallery_dir"]),
                    "--out", str(tmp_path / "i.json")]
        return ["--config", file, *_train(data, tmp_path)]

    assert _leaks(config, argv, 64, tmp_path, capsys) == []


# --- section swaps -----------------------------------------------------------

# What each object of a payload, and a list of objects, is swapped for.
SECTION_VALUES = ({}, [], [1], 1, "x", None)


def _sections(node, path=()):
    """The paths of a payload's objects, the payload itself first, and of its
    lists of objects, whose entries are sampled as in _leaves."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _sections(value, (*path, key))
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        yield path
        for i in _sample(node):
            yield from _sections(node[i], (*path, i))


def _section_edits(payload):
    """(edit, edited payload) for each key deleted at any depth and each
    section swapped for each of SECTION_VALUES."""
    for path in _sections(payload):
        node = reduce(getitem, path, payload)
        for key in node if isinstance(node, dict) else ():
            edited = deepcopy(payload)
            del reduce(getitem, path, edited)[key]
            yield ("delete", *path, key), edited
        for value in SECTION_VALUES:
            if not path:
                yield ("swap", value), value
                continue
            edited = deepcopy(payload)
            reduce(getitem, path[:-1], edited)[path[-1]] = value
            yield ("swap", *path, value), edited


def _section_leaks(payload, argv, tmp_path, capsys):
    """Every section edit of `payload` for which the command `argv(file)`
    does not exit 5 (corrupt) without a traceback."""
    leaks = []
    for edit, edited in _section_edits(payload):
        code = main(argv(_file(tmp_path, "edited.json", json.dumps(edited))))
        if code != 5 or "Traceback" in capsys.readouterr().err:
            leaks.append((edit, code))
    return leaks


def test_section_edits_in_a_model_are_corrupt(data, tmp_path, capsys):
    model = json.loads(data["model"].read_text())
    assert _section_leaks(model, lambda file: ["classify", file, str(data["real_template"])],
                          tmp_path, capsys) == []


def test_section_edits_in_an_index_are_corrupt(data, index, tmp_path, capsys):
    payload = json.loads(index.read_text())
    assert _section_leaks(payload, lambda file: _search(data, tmp_path, file),
                          tmp_path, capsys) == []


def test_internal_error_exits_70_with_traceback(data, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_2dmh", boom)
    assert main(["histogram", str(data["real_template"])]) == 70
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: boom" in err
    assert err.endswith("error: boom\n")


def test_evaluate_skips_template_without_pair_within_d_max(data, tmp_path, capsys):
    real_dir = _dir_plus(data["real_dir"], tmp_path, FAR_PAIR)
    out = tmp_path / "report.csv"
    code = main(["evaluate", str(data["model"]), real_dir, str(data["synth_dir"]),
                 "--out", str(out)])
    assert code == 0
    assert "skipped: 1" in capsys.readouterr().out
    assert len(out.read_text().strip().splitlines()) == 1 + 24
