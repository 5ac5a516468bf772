"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --workload refine --seeds 5
    python3 perfbench/spread.py --workload all --seeds 10 --first-seed 100

Runs the benchmark once per seed (one after another, never in parallel),
then prints, per workload and metric, the median, the distance between the
first and third quartile as a share of the median (as
`statistics.quantiles(values, n=4)` gives them), the bound and whether the
spread is below a third of the bound. `setup_s` has no spread limit. Exits
1 when a run fails or a spread (other than that of setup_s) exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:10s} {name:12s} median {statistics.median(vals):12.4f} "
                  f"spread {spread:6.3f} bound {bounds[name]:.2f} "
                  f"{'ok' if spread < bounds[name] / 3 or name == 'setup_s' else 'WIDE'}",
                  flush=True)
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
