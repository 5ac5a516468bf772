"""Command-line surface tying the library together.

Commands: histogram, train, classify, evaluate, identify {enroll,search,
report}, refine, mds. Models and scores are JSON, tabular reports are CSV.

Exit codes: 0 and 1 are reserved for classification outcomes (real /
synthetic); errors use 2 (unreadable or malformed template, template
directory or distance matrix), 3 (too few minutiae, or no minutiae pair
within d_max), 4 (empty class), 5 (corrupt model or index, or a model that
gives a template a non-finite score), 64 (usage: a bad command line, config
or argument value), 70 (internal error; the traceback is printed) and 73
(cannot write output).

A JSON config file may provide defaults for the bin spec and the training
protocol; its path comes from --config or the MINHIST_CONFIG environment
variable, and individual flags override it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import List, Optional

from .analysis import DistanceMatrix, mds_embed
from .histogram import IDENTIFICATION_SPEC, BinSpec, TooFewMinutiaeError, build_2dmh, build_4dmh
from .identify import GalleryIndex, access_rate_report, build_index, search
from .realness import (
    ClassModel,
    EmptyClassError,
    NonFiniteScoreError,
    TrainConfig,
    classify_template,
    evaluate,
    train,
)
from .refine import OrientationField, RefineConfig, init_template, refine, write_trace_csv
from .template import (
    REAL,
    SYNTHETIC,
    MinutiaTemplate,
    load_directory,
    load_template,
    save_template,
)

EXIT_REAL = 0
EXIT_SYNTHETIC = 1
EXIT_PARSE = 2
EXIT_TOO_FEW = 3
EXIT_EMPTY_CLASS = 4
EXIT_BAD_MODEL = 5
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_CANT_WRITE = 73

ENV_CONFIG = "MINHIST_CONFIG"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(load, path: str, code: int):
    """`load(path)`, with a missing, unreadable or malformed file turned into
    exit `code`. Loaders check every value and raise ValueError for a file
    of the wrong shape; any other error is a bug."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise CliError(code, f"cannot read {path}: {exc}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    config = _read(lambda p: json.loads(Path(p).read_text(encoding="utf-8")), path, EXIT_USAGE)
    if not isinstance(config, dict):
        raise CliError(EXIT_USAGE, f"config {path} is not a JSON object")
    return config


def _spec_from(args, config: dict, key: str = "spec", base: BinSpec = BinSpec()) -> BinSpec:
    """The config's `key` section and the spec flags laid over `base`."""
    try:
        fields = {**config.get(key, {})}
        for field in dataclass_fields(BinSpec):
            value = getattr(args, field.name, None)
            if value is not None:
                fields[field.name] = value
        return replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"bad bin specification: {exc}")


def _train_config(args, config: dict) -> TrainConfig:
    """The config's `train` section with the spec and the training flags
    laid over it. It is built once, under the spec it trains with, because
    the cost grid is checked against that spec."""
    fields = {"spec": _spec_from(args, config)}
    if args.split is not None:
        fields["split"] = tuple(int(x) for x in args.split.split("/"))
    if args.no_side_features:
        fields["use_side_features"] = False
    try:
        section = {**config.get("train", {})}
        if "spec" in section:
            raise ValueError('the bin spec is the top-level "spec" of the config, not train.spec')
        return TrainConfig(**{**section, **fields})
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"bad training configuration: {exc}")


def _read_templates_dir(path: str, label: Optional[str] = None) -> List[MinutiaTemplate]:
    templates = _read(load_directory, path, EXIT_PARSE)
    if label is not None:
        templates = [replace(t, label=label) for t in templates]
    return templates


# --- subcommand implementations -------------------------------------------


def cmd_histogram(args, config: dict) -> int:
    # A 4D histogram is the identification descriptor, so it is binned as
    # identify enroll bins it.
    if args.dims == 2:
        build, spec = build_2dmh, _spec_from(args, config)
    else:
        build, spec = build_4dmh, _spec_from(args, config, "identify_spec", IDENTIFICATION_SPEC)
    t = _read(load_template, args.template, EXIT_PARSE)
    h = build(t, spec, normalize=args.normalize)
    json.dump(h.to_dict(), sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_train(args, config: dict) -> int:
    train_cfg = _train_config(args, config)
    real = _read_templates_dir(args.real_dir, label=REAL)
    synth = _read_templates_dir(args.synth_dir, label=SYNTHETIC)
    result = train(real, synth, train_cfg)
    result.model.save(args.out)
    print(f"set II accuracy: {result.set2_accuracy:.1f}")
    if result.skipped:
        print(f"skipped: {result.skipped}")
    return 0


def cmd_classify(args, config: dict) -> int:
    model = _read(ClassModel.load, args.model, EXIT_BAD_MODEL)
    score = classify_template(_read(load_template, args.template, EXIT_PARSE), model)
    json.dump(asdict(score), sys.stdout)
    sys.stdout.write("\n")
    return EXIT_REAL if score.decision == REAL else EXIT_SYNTHETIC


def cmd_evaluate(args, config: dict) -> int:
    model = _read(ClassModel.load, args.model, EXIT_BAD_MODEL)
    templates: List[MinutiaTemplate] = []
    templates += _read_templates_dir(args.real_dir, label=REAL)
    templates += _read_templates_dir(args.synth_dir, label=SYNTHETIC)
    report = evaluate(model, templates)
    if args.out:
        report.write_csv(args.out)
    print(f"accuracy: {report.accuracy:.1f}")
    for label in (REAL, SYNTHETIC):
        print(f"  {label}: {report.per_class[label]:.1f}")
    if report.skipped:
        print(f"skipped: {report.skipped}")
    return 0


def cmd_identify_enroll(args, config: dict) -> int:
    spec = _spec_from(args, config, "identify_spec", IDENTIFICATION_SPEC)
    index = build_index(_read_templates_dir(args.directory), spec)
    index.save(args.out)
    print(f"enrolled {len(index.entries)} impressions of {len(index.finger_ids())} fingers")
    return 0


def cmd_identify_search(args, config: dict) -> int:
    if args.top < 1:
        raise CliError(EXIT_USAGE, f"--top must be at least 1, got {args.top}")
    index = _read(GalleryIndex.load, args.index, EXIT_BAD_MODEL)
    result = search(index, _read(load_template, args.template, EXIT_PARSE))
    payload = {
        "query": list(result.query_id),
        "true_rank": result.true_rank,
        "accessed_fraction": result.accessed_fraction,
        "ranked": [[fid, score] for fid, score in result.ranked[: args.top]],
    }
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_identify_report(args, config: dict) -> int:
    index = _read(GalleryIndex.load, args.index, EXIT_BAD_MODEL)
    report = access_rate_report(index, _read_templates_dir(args.directory))
    print(f"queries: {report.n_queries}")
    print(f"mean accessed fraction: {report.mean_accessed_fraction:.4f}")
    print(f"rank-1: {report.rank1_percent:.1f}%")
    if report.rank1_percent_min30 is not None:
        print(
            f"rank-1 (>=30 minutiae, n={report.n_queries_min30}): "
            f"{report.rank1_percent_min30:.1f}%"
        )
    return 0


def cmd_refine(args, config: dict) -> int:
    model = _read(ClassModel.load, args.target, EXIT_BAD_MODEL)
    field = OrientationField(kind=args.field, angle=args.field_angle)
    cfg = RefineConfig(
        target=model.avg_real,
        threshold=args.threshold,
        max_iters=args.max_iters,
        rng_seed=args.seed,
        foreground=tuple(args.foreground),
        count_distribution=tuple(args.counts),
        orientation_field=field,
        params=model.params,
    )
    template = init_template(cfg)
    result = refine(template, cfg)
    save_template(result.template, args.out)
    if args.trace:
        write_trace_csv(result.trace, args.trace)
    print(f"{result.status}: emd {result.final_emd:.4f} after {len(result.trace) - 1} moves")
    return 0


def cmd_mds(args, config: dict) -> int:
    dm = _read(DistanceMatrix.from_csv, args.matrix, EXIT_PARSE)
    result = mds_embed(dm, dims=args.dims)
    result.write_csv(args.out)
    if result.flagged_dims:
        print(f"warning: dimensions {result.flagged_dims} have negative eigenvalues",
              file=sys.stderr)
    return 0


# --- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Command-line errors exit 64 (usage), not argparse's 2, which is the
    status of an unreadable template. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    """The spec flags; each dest is the BinSpec field it sets."""
    p.add_argument("--d-max", dest="d_max", type=float, default=None)
    p.add_argument("--bins-dist", dest="b_dist", type=int, default=None)
    p.add_argument("--bins-dir", dest="b_dir", type=int, default=None)
    p.add_argument("--bins-relangle", dest="b_relangle", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minhist",
        description="Minutiae histograms: realness testing, identification, refinement.",
    )
    parser.add_argument("--config", default=None, help=f"JSON config (default: ${ENV_CONFIG})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("histogram", help="print a template's histogram as JSON")
    p.add_argument("template")
    p.add_argument("--dims", type=int, choices=(2, 4), default=2)
    p.add_argument("--normalize", action="store_true")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("train", help="train a realness model")
    p.add_argument("real_dir")
    p.add_argument("synth_dir")
    p.add_argument("--out", required=True)
    p.add_argument("--split", default=None, help="fingers per set, e.g. 40/30/40")
    p.add_argument("--no-side-features", action="store_true")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify a template (exit 0 real, 1 synthetic)")
    p.add_argument("model")
    p.add_argument("template")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="evaluate a model on labeled directories")
    p.add_argument("model")
    p.add_argument("real_dir")
    p.add_argument("synth_dir")
    p.add_argument("--out", default=None, help="per-template CSV report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("identify", help="gallery enrollment and search")
    idsub = p.add_subparsers(dest="subcommand", required=True)
    q = idsub.add_parser("enroll")
    q.add_argument("directory")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_identify_enroll)
    q = idsub.add_parser("search")
    q.add_argument("index")
    q.add_argument("template")
    q.add_argument("--top", type=int, default=10)
    q.set_defaults(func=cmd_identify_search)
    q = idsub.add_parser("report")
    q.add_argument("index")
    q.add_argument("directory")
    q.set_defaults(func=cmd_identify_report)

    p = sub.add_parser("refine", help="generate and refine a synthetic template")
    p.add_argument("--target", required=True, help="realness model JSON (avg_real is the target)")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="per-iteration CSV trace")
    defaults = {f.name: f.default for f in dataclass_fields(RefineConfig)}
    p.add_argument("--max-iters", type=int, default=defaults["max_iters"])
    p.add_argument("--foreground", type=float, nargs=4, default=defaults["foreground"],
                   metavar=("X0", "Y0", "X1", "Y1"))
    p.add_argument("--counts", type=int, nargs="+", default=defaults["count_distribution"],
                   help="empirical minutiae count distribution")
    p.add_argument("--field", choices=("constant", "radial"), default="constant")
    p.add_argument("--field-angle", type=float, default=0.0)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("mds", help="classical MDS of a distance matrix CSV")
    p.add_argument("matrix")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mds)

    return parser


# The exit status of any failure other than a CliError: the first matching
# row wins. Every read goes through _read, so an OSError here is a write.
# TypeError is absent on purpose: a programming bug is an internal error.
_EXIT_STATUSES = (
    (TooFewMinutiaeError, EXIT_TOO_FEW),
    (EmptyClassError, EXIT_EMPTY_CLASS),
    (NonFiniteScoreError, EXIT_BAD_MODEL),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_CANT_WRITE),
    (Exception, EXIT_INTERNAL),
)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except Exception as exc:
        if isinstance(exc, CliError):
            code = exc.code
        else:
            code = next(status for kind, status in _EXIT_STATUSES if isinstance(exc, kind))
        if code == EXIT_INTERNAL:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return code
