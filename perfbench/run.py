"""minhist benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload realness --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The run sets up its inputs (several times, reporting the median as
`setup_s`), measures its timed section for about `--seconds` seconds,
checks the outputs and prints one JSON line per workload with the named
figures, then, as the last line, the result object. With `--trace 1` the
timed section runs once untraced (half the time) and once traced with the
same ops, and the per-layer metrics are printed instead. The exit code is 1
when an output check failed and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
LAYERS = ("template", "histogram", "transport", "realness", "identify", "refine", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
CROSS_CHECKS = 6
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "stage_s": "s",
             "op_ms.p50": "ms", "op_ms.p75": "ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("realness", "identify", "refine", "population"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import minhist from this checkout's src/ (never from elsewhere)."""
    src = ROOT / "src"
    if not (src / "minhist" / "__init__.py").is_file():
        print(f"error: no program at {src / 'minhist'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import importlib
    import types

    import scipy.optimize  # noqa: F401  (HiGHS start-up is part of set-up)

    mh = types.SimpleNamespace(**{
        name: importlib.import_module(f"minhist.{name}") for name in LAYERS})
    if not Path(mh.template.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: minhist imported from {mh.template.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return mh


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cross_check(mh, wl, ctx, run) -> tuple:
    """EMDs from the timed section against the dense LP `solve_transport`."""
    import numpy as np

    rng = np.random.default_rng([wl.seed, 99])
    failures = []
    records = wl.emd_records(ctx, run, rng, CROSS_CHECKS)
    for h1, h2, params, value in records:
        cost = mh.transport.build_cost_matrix(h1.spec, params)
        want = mh.transport.solve_transport(h1.mass.ravel(), h2.mass.ravel(), cost).total_cost
        if not abs(value - want) <= 1e-7:
            failures.append(f"emd {value!r} != solve_transport {want!r}")
    return len(records), failures


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # single-threaded BLAS/OpenMP, this process only
        os.environ[var] = "1"
    t0 = time.perf_counter()
    mh = import_program()
    t_import = time.perf_counter()

    from clock import Clock
    from workloads import WORKLOADS

    clock = Clock(stream=WORKLOADS[args.workload].probe_stream)
    clock.probe()
    work = OUT / f"work-{os.getpid()}"
    try:
        report, result = measure(args, mh, clock, work, t_import - t0)
    except Exception:  # report any failure as a result, never as a bare traceback
        import traceback

        traceback.print_exc()
        report = {"workload": args.workload, "seed": args.seed, "problems": ["run aborted"]}
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, mh, clock, work: Path, raw_import_s: float):
    import numpy as np

    import inputs
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, percentile

    wl = WORKLOADS[args.workload](mh, args.seed)
    setups, raw_setups = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        ctx = wl.setup(work / f"setup{rep}")
        t1 = time.perf_counter()
        clock.probe()
        setups.append(clock.scaled(t0, t1))
        raw_setups.append(t1 - t0)
    # the import is scaled by the machine speed over the whole set-up
    import_s = raw_import_s * clock.factor(clock.probes[0][0], time.perf_counter())

    budget = wl.budget(args.seconds if not args.trace else args.seconds / 2)
    with clock.probing_solves():
        run = wl.run(ctx, budget, clock)
    rss = peak_rss_mb()
    traced_run = tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_run = wl.run(ctx, type(budget)(ops=run.ops), clock, tracer)
        finally:
            tracer.uninstall()

    attempted, errors = run.attempted, list(run.errors)
    checked, failures = wl.check(ctx, run)
    n, more = cross_check(mh, wl, ctx, run)
    checked, failures = checked + n + 1, failures + more
    input_sha = inputs.input_hash(ctx["groups"], wl.params())
    if not wl.input_hash(args.seed) == input_sha != wl.input_hash(args.seed + 1):
        failures.append("input hash is not a function of the seed")

    named = dict(run.named)
    if traced_run is None:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": rss,
            "stage_s": run.stage_s,
            "op_ms.p50": percentile(run.op_ms, 0.5),
            "op_ms.p75": percentile(run.op_ms, 0.75),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    else:
        attempted += traced_run.attempted
        errors += traced_run.errors
        checked += 2
        if [wl.digest(o) for o in traced_run.outputs] != [wl.digest(o) for o in run.outputs]:
            failures.append("traced run produced different outputs")
        wall = traced_run.wall_s - traced_run.probe_s
        overhead = clock.scaled(*traced_run.window) / clock.scaled(*run.window) - 1.0
        named["trace.overhead_s"] = (wall - (run.wall_s - run.probe_s), "s")
        layers = layer_metrics(tracer, wall, overhead)
        if layers["trace.coverage"][0] < 0.95:
            failures.append(f"top-level spans cover {layers['trace.coverage'][0]:.3f} "
                            "of the traced wall time")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "wall_s": wall,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": tracer.dump(min((s[1] for s in tracer.spans), default=0.0)),
        }))

    attempted += checked
    failed = len(errors) + len(failures)
    named.update({
        "failed_frac": (failed / attempted, "ratio"),
        "raw.setup_s": (raw_import_s + statistics.median(raw_setups), "s"),
        "raw.stage_s": (run.raw_stage_s, "s"),
        "raw.op_ms.p50": (percentile(run.raw_op_ms, 0.5), "ms"),
        "raw.op_ms.p75": (percentile(run.raw_op_ms, 0.75), "ms"),
        "machine_slowdown": (clock.slowdown(), "ratio"),
    })
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": run.ops,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "traffic": {**wl.traffic(ctx), "input_sha256": input_sha},
        "machine": machine(),
        "problems": (errors + failures)[:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


if __name__ == "__main__":
    sys.exit(main())
