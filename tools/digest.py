"""Digests of the program's outputs, to show that two trees compute the same bits.

    python3 tools/digest.py [SRC]

SRC is the root of a source checkout (default: the checkout holding this
script). minhist is imported from SRC/src, and SRC/perfbench's Refine,
Realness, Population and Identify workloads generate the inputs and run the
program, untimed, in a temporary directory; nothing under SRC is written.
The output is seven lines:

    refine      sha256 of the 150 refine runs of seeds 11-15, ops k < 30: per
                run its status, the trace rows (iteration, EMD in hex, move),
                the final template as serialize_template writes it and the
                final EMD in hex
    realness    sha256 of seed 11's stage (each site's model as JSON and its
                Set II accuracy in hex) and its first 40 classify ops
    population  sha256 of seed 11's stage (the EMD matrix and the MDS
                coordinates and eigenvalues as float64 bytes) and its first 12
                bootstrap ops
    identify    sha256 of seed 11's stage (whether the built and the loaded
                index give equal finger_ids(), and those ids) and its first
                40 search ops: the query key, the ranked finger ids with
                their scores in hex, and the true rank
    emd_calls   calls of minhist.transport.emd over the four digests; a
                bootstrap op solves only the picks whose EMD bound can
                reach its radius, so this counts the solves, not the picks
    plan_calls  calls of minhist.transport._plan over them, or of
                transport_plan in a tree without _plan
    solves      calls of minhist.transport._FlowModel.solve over them: every
                HiGHS solve, through emd, a plan or a caller's own model

Run it on a parent tree and on a change tree, from either tree:

    python3 tools/digest.py /path/to/parent
    python3 tools/digest.py /path/to/change

Equal lines mean byte-identical outputs and the same solver traffic. The
digest prefixes are 16 hex digits of the sha256; equal prefixes on every
line are what the comparison asks for.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

REFINE_SEEDS, REFINE_OPS = range(11, 16), 30
REALNESS_OPS, POPULATION_OPS, IDENTIFY_OPS = 40, 12, 40
SEED = 11


def _harness(root: Path):
    """perfbench's run module of the checkout at root, which imports minhist
    from root/src only."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _count_calls(mh, names):
    """Wrap each function of minhist.transport named in names, in every
    minhist module that holds it, and return the call counter."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(mh.transport, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("minhist") and \
                    getattr(module, name, None) is original:
                setattr(module, name, counted)
    return counts


def _count_solves(mh):
    """Wrap _FlowModel.solve, the one method that runs HiGHS, on the class,
    and return the call counter."""
    counts = {"solve": 0}
    flow_model = mh.transport._FlowModel
    original = flow_model.solve

    def counted(self):
        counts["solve"] += 1
        return original(self)

    flow_model.solve = counted
    return counts


def _hex(x: float) -> str:
    return float(x).hex()


def _refine(mh, workloads, tmp: Path) -> str:
    digest = hashlib.sha256()
    for seed in REFINE_SEEDS:
        wl = workloads.Refine(mh, seed)
        ctx = wl.setup(tmp / f"refine.{seed}")
        state, _ = wl.stage(ctx, lambda: None)
        for k in range(REFINE_OPS):
            result, _ = wl.op(ctx, state, k, lambda: None)
            rows = [(row.iteration, _hex(row.emd), row.move) for row in result.trace]
            text = mh.template.serialize_template(result.template)
            digest.update(repr((result.status, rows, text, _hex(result.final_emd))).encode())
    return digest.hexdigest()


def _realness(mh, workloads, tmp: Path) -> str:
    digest = hashlib.sha256()
    wl = workloads.Realness(mh, SEED)
    ctx = wl.setup(tmp / "realness")
    state, _ = wl.stage(ctx, lambda: None)
    for result in state["results"]:
        digest.update(json.dumps(result.model.to_dict()).encode())
        digest.update(_hex(result.set2_accuracy).encode())
    for k in range(REALNESS_OPS):
        key, decision, emd_real, emd_synth, fused = wl.op(ctx, state, k, lambda: None)
        digest.update(repr((key, decision, _hex(emd_real), _hex(emd_synth),
                            _hex(fused))).encode())
    return digest.hexdigest()


def _population(mh, workloads, tmp: Path) -> str:
    digest = hashlib.sha256()
    wl = workloads.Population(mh, SEED)
    ctx = wl.setup(tmp / "population")
    state, _ = wl.stage(ctx, lambda: None)
    for array in (state["d"], state["mds"].coords, state["mds"].eigenvalues):
        digest.update(repr(array.shape).encode() + array.astype("<f8").tobytes())
    for k in range(POPULATION_OPS):
        finger, radius = wl.op(ctx, state, k, lambda: None)
        digest.update(repr((finger, _hex(radius))).encode())
    return digest.hexdigest()


def _identify(mh, workloads, tmp: Path) -> str:
    digest = hashlib.sha256()
    wl = workloads.Identify(mh, SEED)
    ctx = wl.setup(tmp / "identify")
    state, _ = wl.stage(ctx, lambda: None)
    ids = state["index"].finger_ids()
    digest.update(repr((ids == state["loaded"].finger_ids(), ids)).encode())
    for k in range(IDENTIFY_OPS):
        key, ranked, true_rank = wl.op(ctx, state, k, lambda: None)
        digest.update(repr((key, [(f, _hex(score)) for f, score in ranked],
                            true_rank)).encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    mh = _harness(root).import_program()
    import workloads  # perfbench's, on the path import_program set

    # transport_plan's plans go through _plan where the tree has it; a
    # refine plan built from a candidate's solution solves nothing, and
    # only the solves line sees that candidate's solve.
    plan = "_plan" if hasattr(mh.transport, "_plan") else "transport_plan"
    counts = _count_calls(mh, ("emd", plan))
    solves = _count_solves(mh)
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in (("refine", _refine), ("realness", _realness),
                          ("population", _population), ("identify", _identify)):
            print(f"{name:<11} {run(mh, workloads, Path(tmp))[:16]}")
    print(f"{'emd_calls':<11} {counts['emd']}")
    print(f"{'plan_calls':<11} {counts[plan]}")
    print(f"{'solves':<11} {solves['solve']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
