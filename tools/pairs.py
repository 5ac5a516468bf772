"""Alternating benchmark pairs of a parent and a change checkout, as one JSON file.

    python3 tools/pairs.py --parent DIR --change DIR --workload W [W ...]
                           --seeds 11-15 --out BENCH_<pr>.json [--seconds 20]

For each workload and seed, the script runs `python3 perfbench/run.py
--workload W --seed N --seconds S` once in each checkout, each side with its
own copy of the script, one after the other. The side that runs first
alternates from pair to pair, so a drift of the machine's speed during the
pairs favours neither side. Both sides may be the same checkout (`.` for
both is a smoke run of this script).

The output holds, per workload, every run (its exit status, `correct`,
`attempted`, `failed`, end-to-end metrics and named figures) and, per
end-to-end metric, each side's values, median and quartiles, and the number
of pairs in which the change was better than the parent. Which direction is
better comes from the change checkout's BENCHMARK.json (lower when it does
not say). The exit status is 1 if any run exited non-zero, was not
`correct` or had `failed` > 0; the file is written either way. Seeds are a
range (11-15), a comma list (11,13) or one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str):
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        seeds = list(range(first, last + 1))
    else:
        seeds = [int(part) for part in text.split(",")]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="the change checkout")
    p.add_argument("--workload", nargs="+", required=True,
                   choices=("realness", "identify", "refine", "population"))
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 11-15, 11,13 or 11")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    for side in SIDES:
        root = getattr(args, side)
        if not (root / "perfbench" / "run.py").is_file():
            p.error(f"--{side} {root} has no perfbench/run.py")
    return args


def _commit(root: Path):
    """The checkout's git commit, with "+dirty" when its tracked files have
    changed since, or None outside git."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True,
                              text=True).stdout.strip()

    commit = git("rev-parse", "--short=12", "HEAD")
    if not commit:
        return None
    return commit + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _better(root: Path) -> dict:
    """metric name -> "lower" or "higher", from root's BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["better"] for m in json.loads(path.read_text())["end_to_end"]}


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in root: its exit status and its last two lines
    (the report and the result), or a failed record if they do not parse."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=root, env=env, capture_output=True, text=True)
    try:
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        named = {k: v["value"] for k, v in report.get("named", {}).items()}
        return {"exit": proc.returncode, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": metrics, "named": named, "problems": report.get("problems", [])}
    except (ValueError, KeyError, TypeError):
        return {"exit": proc.returncode, "correct": False, "attempted": 0, "failed": 1,
                "metrics": {}, "named": {}, "problems": [proc.stderr[-2000:]]}


def _quantile(values, q: float) -> float:
    """The q-quantile of values, interpolated linearly (NumPy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarise(pairs, better: dict) -> dict:
    """Per end-to-end metric: each side's values, median and quartiles, and
    in how many pairs the change was better."""
    names = [k for k in pairs[0]["parent"]["metrics"]
             if all(k in p[side]["metrics"] for p in pairs for side in SIDES)]
    out = {}
    for name in names:
        direction = better.get(name, "lower")
        entry = {"better": direction}
        for side in SIDES:
            values = [p[side]["metrics"][name] for p in pairs]
            entry[side] = {"values": values, "median": _quantile(values, 0.5),
                           "q1": _quantile(values, 0.25), "q3": _quantile(values, 0.75)}
        sign = 1 if direction == "lower" else -1
        entry["change_wins"] = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0
            for p in pairs)
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def _ok(run: dict) -> bool:
    return run["exit"] == 0 and run["correct"] and run["failed"] == 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    roots = {side: getattr(args, side).resolve() for side in SIDES}
    better = _better(roots["change"])
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds!r}",
        "commits": {side: _commit(root) for side, root in roots.items()},
        "host": {"nproc": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    ok = True
    k = 0
    for workload in args.workload:
        pairs = []
        for seed in args.seeds:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run = _run(roots[side], workload, seed, args.seconds)
                ok = ok and _ok(run)
                print(f"{workload} seed {seed} {side}: "
                      + (f"op_ms.p50 {run['metrics'].get('op_ms.p50', float('nan')):.3f}"
                         if _ok(run) else f"FAILED {run['problems'][:3]}"),
                      file=sys.stderr)
            pairs.append(pair)
        bench["workloads"][workload] = {"pairs": pairs, "metrics": summarise(pairs, better)}
    bench["ok"] = ok
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
