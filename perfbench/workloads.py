"""The four benchmark workloads.

Each workload generates its inputs from the seed (`generate`), writes them
as `.mnt` files and warms the solver up (`setup`), runs its timed section
(`run`): a fixed *stage* followed by repeated *ops* until the time budget is
spent, and checks the outputs afterwards (`check`). The timed section calls
the program only through its public API, looked up on the module at call
time (`mh.realness.train`, ...), so that the tracer's wrappers see it. Times
are scaled to the reference machine speed by `clock.Clock`.

Workload   stage                                   op
realness   load_directory x4, train per site (2)    classify_template
identify   load_directory, build_index, save, load  search (leave one out)
refine     load_directory, build_2dmh, average,     refine run
           threshold EMDs
population load_directory, build_2dmh, average,     bootstrap_neighborhood
           pairwise EMD matrix, DistanceMatrix, MDS
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
import reference as ref
from inputs import Template

EMD_TOL = 1e-7


@dataclass
class Budget:
    """When to stop issuing ops: after `ops` ops when given, otherwise once
    `seconds` have passed since the timed section began (at least `min_ops`,
    at most `max_ops`)."""

    seconds: float = 0.0
    ops: Optional[int] = None
    min_ops: int = 1
    max_ops: Optional[int] = None

    def more(self, done: int, started: float) -> bool:
        if self.ops is not None:
            return done < self.ops
        if self.max_ops is not None and done >= self.max_ops:
            return False
        return done < self.min_ops or perf_counter() - started < self.seconds


@dataclass
class Run:
    """What one timed section produced."""

    window: Tuple[float, float] = (0.0, 0.0)  # perf_counter start and end
    wall_s: float = 0.0  # raw, probes included
    probe_s: float = 0.0  # raw time spent in calibration probes
    stage_s: float = 0.0  # scaled
    raw_stage_s: float = 0.0
    stage_steps: int = 0
    op_ms: List[float] = field(default_factory=list)  # scaled, successful ops
    raw_op_ms: List[float] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)  # one entry per op
    errors: List[str] = field(default_factory=list)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)  # stage results

    @property
    def ops(self) -> int:
        return len(self.outputs)

    @property
    def attempted(self) -> int:
        return self.stage_steps + self.ops


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else float("nan")


def op_loop(run: Run, budget: Budget, started: float, clock, tracer, kind: str,
            op: Callable[[int], Any]) -> List[Tuple[float, float]]:
    """Issue ops 0, 1, ... while the budget allows, probing the machine speed
    between them; return the (start, end) of each op that succeeded. An op
    that raises is recorded as failed and the loop goes on."""
    intervals = []
    k = 0
    while budget.more(k, started):
        clock.maybe_probe()
        if tracer is not None:
            tracer.op = f"{kind}:{k}"
        t0 = perf_counter()
        try:
            out = op(k)
        except Exception as exc:  # the loop must keep running; the error is reported
            run.errors.append(f"{kind}:{k}: {exc!r}")
            out = None
        else:
            intervals.append((t0, perf_counter()))
        run.outputs.append(out)
        k += 1
    if tracer is not None:
        tracer.op = None
    return intervals


def _check_close(failures: List[str], what: str, got: float, want: float) -> None:
    if not abs(got - want) <= EMD_TOL:
        failures.append(f"{what}: {got!r} != reference {want!r}")


class Workload:
    name = ""
    min_ops = 1
    stage_reps = 1  # stage_s is the median of this many back-to-back stages
    probe_stream = False  # see clock.Clock
    op_name, op_tail = "op_ms", 0.9  # named figures of the op latency

    def __init__(self, mh, seed: int):
        self.mh = mh
        self.seed = seed

    # -- inputs -------------------------------------------------------------
    def generate(self, seed: int) -> Dict[str, List[Template]]:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def input_hash(self, seed: int) -> str:
        return inputs.input_hash(self.generate(seed), self.params())

    def setup(self, workdir: Path) -> dict:
        groups = self.generate(self.seed)
        for name, templates in groups.items():
            inputs.write_dir(workdir / name, templates)
        self.warm_up(groups)
        return {"dir": workdir, "groups": groups}

    def warm_up(self, groups) -> None:
        """First solve before timing: HiGHS start-up and the cost-matrix cache."""
        mh = self.mh
        spec = mh.histogram.BinSpec()
        t1, t2 = [mh.template.parse_template(t.text) for t in list(groups.values())[0][:2]]
        h1, h2 = mh.histogram.build_2dmh(t1, spec), mh.histogram.build_2dmh(t2, spec)
        for r, s, e in self.cost_grid():
            mh.transport.build_cost_matrix(spec, mh.transport.CostParams(r, s, e))
        for e in sorted({p[2] for p in self.cost_grid()}):
            mh.transport.emd(h1, h2, mh.transport.CostParams(1.0, 1.0, e))

    def cost_grid(self) -> List[Tuple[float, float, float]]:
        return [(1.0, 1.0, 1.0)]

    def budget(self, seconds: float) -> Budget:
        return Budget(seconds=seconds, min_ops=self.min_ops)

    # -- timed section, checks, records ----------------------------------------
    def stage(self, ctx: dict, tick: Callable[[], None]):
        """Run the stage, calling tick() between steps (it may probe the
        machine speed); return (state for the ops, [(figure, start, end)])."""
        raise NotImplementedError

    def op(self, ctx: dict, state: dict, k: int, tick: Callable[[], None]) -> Any:
        """Run op k, calling tick() between steps if it has several."""
        raise NotImplementedError

    def extra_named(self, ctx: dict, run: Run, clock) -> Dict[str, Tuple[float, str]]:
        return {}

    def run(self, ctx: dict, budget: Budget, clock, tracer=None) -> Run:
        run = Run()
        clock.probe()
        started = perf_counter()
        reps, state = [], None
        for _ in range(self.stage_reps):
            state = None  # let the previous repetition's results go first
            begin = perf_counter()
            state, marks = self.stage(ctx, clock.maybe_probe)
            reps.append((begin, perf_counter(), marks))
            clock.probe()
        staged = perf_counter()
        intervals = op_loop(run, budget, started, clock, tracer, self.op_name.split("_")[0],
                            lambda k: self.op(ctx, state, k, clock.maybe_probe))
        clock.probe()
        run.window = (started, perf_counter())
        run.wall_s = run.window[1] - started
        run.probe_s = clock.probe_time(started)
        run.state = state
        run.stage_s = median(clock.scaled(a, b) for a, b, _ in reps)
        run.raw_stage_s = median(b - a - clock.probe_time(a, b) for a, b, _ in reps)
        run.stage_steps = len(marks) * len(reps)
        run.op_ms = [1e3 * clock.scaled(a, b) for a, b in intervals]
        run.raw_op_ms = [1e3 * (b - a - clock.probe_time(a, b)) for a, b in intervals]
        run.named = {name: (median(clock.scaled(a, b) for _, _, m in reps for n, a, b in m
                                   if n == name), "s") for name, _, _ in marks}
        run.named[f"{self.op_name}.p50"] = (percentile(run.op_ms, 0.5), "ms")
        run.named[f"{self.op_name}.p{round(100 * self.op_tail)}"] = (
            percentile(run.op_ms, self.op_tail), "ms")
        run.named.update(self.extra_named(ctx, run, clock))
        return run

    def check(self, ctx: dict, run: Run) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def emd_records(self, ctx: dict, run: Run, rng, n: int) -> list:
        """A seeded sample of about n (h1, h2, CostParams, value) EMDs that
        the timed section produced."""
        raise NotImplementedError

    def digest(self, out) -> Any:
        """Comparable form of one op output (traced and untraced must agree)."""
        return out

    def traffic(self, ctx: dict) -> dict:
        raise NotImplementedError


def _lp_stats(pairs: List[Tuple[np.ndarray, np.ndarray]]) -> dict:
    sizes = [np.count_nonzero(a) * np.count_nonzero(b) for a, b in pairs]
    if not sizes:
        return {"lp_vars_p50": 0, "lp_vars_max": 0}
    return {"lp_vars_p50": float(np.median(sizes)), "lp_vars_max": int(max(sizes))}


def _nnz_p50(templates: Sequence[Template]) -> float:
    return float(np.median([np.count_nonzero(ref.hist2d(t)) for t in templates]))


# ---------------------------------------------------------------------------


class Realness(Workload):
    """Broad real population against a cluster synthetic one; train on the
    default 18-point grid, then classify Set III (2 real : 1 synthetic).

    The stage trains one model per site, each site an independent draw of
    Sets I and II; only the first site has a Set III to classify. How long
    a train takes depends mostly on its class averages (the same Set II
    template solves against one seed's synthetic average up to 2x as fast as
    against another's), so train time on a single site swings with the
    seed's draw; over several sites it evens out."""

    name = "realness"
    min_ops = 100
    op_name = "classify_ms"
    SITES = 2
    # Fingers per class in Sets I and II. Set I is large so that the class
    # averages are smooth: averages of a few templates make LP solve times
    # swing by up to 3x from seed to seed.
    SET1, SET2 = 20, 1
    SET3_REAL, SET3_SYNTH = 120, 60
    IMPRESSIONS = 2
    # Varied, but not so widely that the two broad Set II templates alone
    # make train time swing with the seed.
    MINUTIAE = (30, 45)

    def params(self) -> dict:
        return {"workload": self.name, "sites": self.SITES, "set1": self.SET1,
                "set2": self.SET2, "set3": (self.SET3_REAL, self.SET3_SYNTH),
                "minutiae": self.MINUTIAE}

    @staticmethod
    def _groups(site: int) -> Tuple[str, str]:
        """Names of a site's real and synthetic groups (and directories)."""
        return ("real", "synthetic") if site == 0 else (f"real.{site}", f"synthetic.{site}")

    def generate(self, seed):
        rng = np.random.default_rng([seed, 1])
        groups = {}
        for site in range(self.SITES):
            for group, label, kind, n3 in zip(
                    self._groups(site), ("real", "synthetic"), ("broad", "cluster"),
                    (self.SET3_REAL, self.SET3_SYNTH) if site == 0 else (0, 0)):
                out = []
                for f in range(1, self.SET1 + self.SET2 + n3 + 1):
                    finger = inputs.make_finger(rng, kind, self.MINUTIAE)
                    out += [inputs.make_impression(rng, finger, str(f), str(i), label)
                            for i in range(1, self.IMPRESSIONS + 1)]
                groups[group] = out
        return groups

    def cost_grid(self):
        return [(r, s, e) for r in ref.R_GRID for s in ref.S_GRID for e in ref.E_GRID]

    def _set(self, templates, lo, hi):
        return [t for t in templates if lo < int(t.finger) <= hi]

    def setup(self, workdir):
        ctx = super().setup(workdir)
        first3 = self.SET1 + self.SET2
        real3 = self._set(ctx["groups"]["real"], first3, 10 ** 9)
        synth3 = self._set(ctx["groups"]["synthetic"], first3, 10 ** 9)
        order = []
        for k, t in enumerate(synth3):
            order += [("real", r.finger, r.impression) for r in real3[2 * k: 2 * k + 2]]
            order.append(("synthetic", t.finger, t.impression))
        order += [("real", r.finger, r.impression) for r in real3[2 * len(synth3):]]
        ctx["order"] = order
        return ctx

    def budget(self, seconds):
        return Budget(seconds=seconds, min_ops=self.min_ops,
                      max_ops=(self.SET3_REAL + self.SET3_SYNTH) * self.IMPRESSIONS)

    def stage(self, ctx, tick):
        mh = self.mh
        t0 = perf_counter()
        sites = [[mh.template.load_directory(ctx["dir"] / name) for name in self._groups(site)]
                 for site in range(self.SITES)]
        t1 = perf_counter()
        config = mh.realness.TrainConfig(split=(self.SET1, self.SET2, self.SET3_REAL))
        results = []
        for real, synth in sites:
            tick()
            results.append(mh.realness.train(real, synth, config))
        t2 = perf_counter()
        by_id = {(t.label, t.finger_id, t.impression_id): t for t in sites[0][0] + sites[0][1]}
        state = {"result": results[0], "results": results, "by_id": by_id}
        return state, [("load_s", t0, t1), ("train_s", t1, t2)]

    def op(self, ctx, state, k, tick):
        key = ctx["order"][k]
        score = self.mh.realness.classify_template(state["by_id"][key], state["result"].model)
        return key, score.decision, score.emd_real, score.emd_synth, score.fused

    def extra_named(self, ctx, run, clock):
        return {"set2_accuracy": (run.state["result"].set2_accuracy, "%")}

    def _ref_sets(self, ctx, site=0):
        by_name = lambda ts: sorted(ts, key=lambda t: t.filename)  # load_directory order
        real, synth = [ctx["groups"][name] for name in self._groups(site)]
        s1, s2 = self.SET1, self.SET1 + self.SET2
        avg_real = np.mean([ref.hist2d(t) for t in by_name(self._set(real, 0, s1))], axis=0)
        avg_synth = np.mean([ref.hist2d(t) for t in by_name(self._set(synth, 0, s1))], axis=0)
        set2 = [(t, True) for t in by_name(self._set(real, s1, s2))] + [
            (t, False) for t in by_name(self._set(synth, s1, s2))]
        return avg_real, avg_synth, set2

    def check(self, ctx, run):
        failures: List[str] = []
        checked = 0
        for site, result in enumerate(run.state["results"]):
            checked += self._check_model(ctx, site, result, failures)
        model = run.state["result"].model
        params = (model.params.r, model.params.s, model.params.e)
        avg_real, avg_synth, _ = self._ref_sets(ctx)
        # Set III decisions: all internally consistent, a seeded sample
        # recomputed from the reference EMDs.
        templates = self._by_key(ctx)
        outs = [o for o in run.outputs if o is not None]
        for key, decision, _, _, fused in outs:
            checked += 1
            if decision != ("real" if fused > 0 else "synthetic"):
                failures.append(f"{key}: decision {decision} disagrees with score {fused}")
        rng = np.random.default_rng([self.seed, 11])
        w0, w1, w2, w3, w4 = model.weights
        for i in rng.choice(len(outs), size=min(8, len(outs)), replace=False):
            key, decision, emd_real, emd_synth, _ = outs[i]
            t = templates[key]
            h = ref.hist2d(t)
            r_real, r_synth = ref.emd(h, avg_real, params), ref.emd(h, avg_synth, params)
            checked += 3
            _check_close(failures, f"{key} emd_real", emd_real, r_real)
            _check_close(failures, f"{key} emd_synth", emd_synth, r_synth)
            fused = w0 + w1 * (r_synth - r_real)
            for w, name, value in zip((w2, w3, w4), ("mean_ird", "var_ird", "pct_bif"),
                                      ref.side_features(t)):
                offset, scale = model.feature_norms[name]
                fused += w * (value - offset) / scale
            if w1 != 0.0 and abs(fused) <= ref.AMBIGUOUS:
                continue
            if decision != ("real" if fused > 0 else "synthetic"):
                failures.append(f"{key}: decision {decision}, reference score {fused}")
        return checked, failures

    def _check_model(self, ctx, site, result, failures: List[str]) -> int:
        """Check one site's trained model against the reference grid search."""
        where = f"site {site}: "
        model = result.model
        avg_real, avg_synth, set2 = self._ref_sets(ctx, site)
        if not (np.allclose(model.avg_real.mass, avg_real, rtol=0, atol=1e-12)
                and np.allclose(model.avg_synth.mass, avg_synth, rtol=0, atol=1e-12)):
            failures.append(where + "class averages differ from the reference")
        lo, hi, best, ambiguous = ref.train(set2, avg_real, avg_synth)
        if not lo - 1e-9 <= result.set2_accuracy <= hi + 1e-9:
            failures.append(where + f"Set II accuracy {result.set2_accuracy} "
                            f"outside reference [{lo}, {hi}]")
        params = (model.params.r, model.params.s, model.params.e)
        if not ambiguous and (params, tuple(model.weights)) != best:
            failures.append(where + f"trained point {params, model.weights} != reference {best}")
        for name, (offset, scale) in ref.feature_norms(set2).items():
            got = model.feature_norms[name]
            if not np.allclose(got, (offset, scale), rtol=1e-12, atol=0):
                failures.append(where + f"feature norm {name}: {got} != {(offset, scale)}")
        return 3

    def _by_key(self, ctx):
        return {(t.label, t.finger, t.impression): t
                for t in ctx["groups"]["real"] + ctx["groups"]["synthetic"]}

    def emd_records(self, ctx, run, rng, n):
        mh = self.mh
        model = run.state["result"].model
        templates = self._by_key(ctx)
        outs = [o for o in run.outputs if o is not None]
        records = []
        for i in rng.choice(len(outs), size=min(n, len(outs)), replace=False):
            key, _, emd_real, emd_synth, _ = outs[i]
            h = mh.histogram.build_2dmh(mh.template.parse_template(templates[key].text), model.spec)
            records.append((h, model.avg_real, model.params, emd_real))
            records.append((h, model.avg_synth, model.params, emd_synth))
        return records

    def traffic(self, ctx):
        real, synth = ctx["groups"]["real"], ctx["groups"]["synthetic"]
        avg_real, avg_synth, _ = self._ref_sets(ctx)
        hists = [ref.hist2d(t) for t in real + synth]
        return {
            **inputs.count_stats([t for group in ctx["groups"].values() for t in group]),
            "sites": self.SITES,
            "nnz_bins_p50": float(np.median([np.count_nonzero(h) for h in hists])),
            **_lp_stats([(h, avg) for h in hists for avg in (avg_real, avg_synth)]),
            "cost_grid": self.cost_grid(),
            "set3_templates": len(ctx["order"]),
            "gallery": 0,
            "queries": 0,
        }


class Identify(Workload):
    """Gallery of jittered impressions with minutiae dropout; enrol, save,
    load, then leave-one-impression-out search over the gallery."""

    name = "identify"
    min_ops = 200
    # The first enrolment in a process is a third slower than the next ones
    # (fresh memory for the dense gallery), so set-up runs one stage untimed;
    # the timed stage is short and I/O-bound, so it is repeated more.
    stage_reps = 7
    probe_stream = True
    op_name, op_tail = "search_ms", 0.95
    FINGERS, IMPRESSIONS = 100, 4
    MINUTIAE = (25, 50)
    JITTER, DROPOUT = 3.0, 0.15

    def params(self):
        return {"workload": self.name, "fingers": self.FINGERS,
                "impressions": self.IMPRESSIONS, "minutiae": self.MINUTIAE,
                "jitter": self.JITTER, "dropout": self.DROPOUT}

    def generate(self, seed):
        rng = np.random.default_rng([seed, 2])
        out = []
        for f in range(1, self.FINGERS + 1):
            finger = inputs.make_finger(rng, "broad", self.MINUTIAE)
            out += [inputs.make_impression(rng, finger, str(f), str(i), None,
                                           jitter=self.JITTER, dropout=self.DROPOUT)
                    for i in range(1, self.IMPRESSIONS + 1)]
        return {"gallery": out}

    def cost_grid(self):
        return []

    def warm_up(self, groups):
        mh = self.mh
        t = mh.template.parse_template(groups["gallery"][0].text)
        h = mh.histogram.build_4dmh(t)
        mh.identify.bis(h, h)

    def setup(self, workdir):
        ctx = super().setup(workdir)
        gallery = ctx["groups"]["gallery"]
        perm = np.random.default_rng([self.seed, 12]).permutation(len(gallery))
        ctx["order"] = [(gallery[i].finger, gallery[i].impression) for i in perm]
        self.stage(ctx, lambda: None)
        return ctx

    def stage(self, ctx, tick):
        mh = self.mh
        index_path = ctx["dir"] / "index.json"
        t0 = perf_counter()
        templates = mh.template.load_directory(ctx["dir"] / "gallery")
        index = mh.identify.build_index(templates)
        t1 = perf_counter()
        tick()
        index.save(index_path)
        t2 = perf_counter()
        tick()
        loaded = mh.identify.GalleryIndex.load(index_path)
        t3 = perf_counter()
        by_id = {(t.finger_id, t.impression_id): t for t in templates}
        state = {"index": index, "loaded": loaded, "by_id": by_id, "path": index_path}
        return state, [("enroll_s", t0, t1), ("index_save_s", t1, t2), ("index_load_s", t2, t3)]

    def op(self, ctx, state, k, tick):
        key = ctx["order"][k % len(ctx["order"])]
        result = self.mh.identify.search(state["loaded"], state["by_id"][key])
        return key, result.ranked, result.true_rank

    def extra_named(self, ctx, run, clock):
        ranks = [o[2] for o in run.outputs if o is not None]
        return {
            "index_mb": (run.state["path"].stat().st_size / 1e6, "MB"),
            "rank1_percent": (100.0 * float(np.mean([r == 1 for r in ranks])), "%"),
        }

    def check(self, ctx, run):
        failures: List[str] = []
        built, loaded = run.state["index"], run.state["loaded"]
        checked = 1
        same = (built.spec == loaded.spec and len(built.entries) == len(loaded.entries)
                and all(a.finger_id == b.finger_id and a.impression_id == b.impression_id
                        and a.hist.pair_count == b.hist.pair_count
                        and np.array_equal(a.hist.mass, b.hist.mass)
                        for a, b in zip(built.entries, loaded.entries)))
        if not same:
            failures.append("loaded index differs from the enrolled one")
        gallery = ctx["groups"]["gallery"]
        reference = ref.Gallery(gallery)
        by_id = {(t.finger, t.impression): t for t in gallery}
        expected: Dict[Tuple[str, str], list] = {}
        for out in run.outputs:
            if out is None:
                continue
            key, ranked, true_rank = out
            if key not in expected:
                expected[key] = reference.rank(by_id[key])
            want = expected[key]
            checked += 1
            if list(ranked) != want:
                failures.append(f"query {key}: ranking differs from the reference")
            elif true_rank != 1 + [f for f, _ in want].index(key[0]):
                failures.append(f"query {key}: true rank {true_rank} is wrong")
        return checked, failures

    def emd_records(self, ctx, run, rng, n):
        # identify solves no EMD; cross-check the transport layer on pairs of
        # its templates' 2D histograms instead.
        mh = self.mh
        gallery = ctx["groups"]["gallery"]
        records = []
        for i, j in rng.choice(len(gallery), size=(n, 2)):
            h1, h2 = [mh.histogram.build_2dmh(mh.template.parse_template(gallery[k].text))
                      for k in (i, j)]
            params = mh.transport.CostParams()
            records.append((h1, h2, params, mh.transport.emd(h1, h2, params)))
        return records

    def traffic(self, ctx):
        gallery = ctx["groups"]["gallery"]
        return {
            **inputs.count_stats(gallery),
            "nnz_bins_p50": _nnz_p50(gallery),
            "nnz_bins_4d_p50": float(np.median([np.count_nonzero(ref.hist4d(t))
                                                for t in gallery])),
            **_lp_stats([]),
            "cost_grid": [],
            "gallery": len(gallery),
            "queries": len(ctx["order"]),
        }


class Refine(Workload):
    """Seeded refiner runs (radial field, batch 8) toward the average of a
    real population, with the threshold at the median within-class EMD, so
    every run does a similar amount of work. Run k starts from 25, 30 or 35
    minutiae in turn (k mod 3): the three LP sizes stay in equal shares in
    every run of the benchmark, which keeps the median run steady."""

    name = "refine"
    min_ops = 6
    stage_reps = 3
    op_name = "refine_ms"
    REAL = 48
    THRESHOLD_SAMPLE = 24
    MINUTIAE = (30, 45)
    MAX_ITERS, BATCH = 4, 8
    COUNTS = (25, 30, 35)

    def params(self):
        return {"workload": self.name, "real": self.REAL, "minutiae": self.MINUTIAE,
                "sample": self.THRESHOLD_SAMPLE, "max_iters": self.MAX_ITERS,
                "batch": self.BATCH}

    def generate(self, seed):
        rng = np.random.default_rng([seed, 3])
        real = [inputs.make_impression(rng, inputs.make_finger(rng, "broad", self.MINUTIAE),
                                       str(f), "1", "real")
                for f in range(1, self.REAL + 1)]
        return {"real": real}

    def config(self, target, threshold, k):
        mh = self.mh
        return mh.refine.RefineConfig(
            target=target,
            threshold=threshold,
            max_iters=self.MAX_ITERS,
            rng_seed=int(self.seed) * 1000 + k,
            orientation_field=mh.refine.OrientationField(kind="radial", center=(100.0, 100.0)),
            count_distribution=(self.COUNTS[k % len(self.COUNTS)],),
            batch_size=self.BATCH,
            params=mh.transport.CostParams(),
        )

    def stage(self, ctx, tick):
        mh = self.mh
        t0 = perf_counter()
        real = mh.template.load_directory(ctx["dir"] / "real")
        hists = [mh.histogram.build_2dmh(t) for t in real]
        target = mh.realness.average_histogram(hists)
        params = mh.transport.CostParams()
        within = []
        for h in hists[: self.THRESHOLD_SAMPLE]:
            tick()
            within.append(mh.transport.emd(h, target, params))
        threshold = float(np.median(within))
        t1 = perf_counter()
        return {"target": target, "threshold": threshold}, [("target_s", t0, t1)]

    def op(self, ctx, state, k, tick):
        cfg = self.config(state["target"], state["threshold"], k)
        return self.mh.refine.refine(self.mh.refine.init_template(cfg), cfg), cfg

    def extra_named(self, ctx, run, clock):
        results = [o[0] for o in run.outputs if o is not None]
        return {
            "refine_s_per_run": (percentile(run.op_ms, 0.5) / 1e3, "s"),
            "accepted_per_run": (float(np.mean([len(r.trace) - 1 for r in results])), "count"),
        }

    def digest(self, out):
        if out is None:
            return None
        result, _ = out
        return result.status, [(row.emd, row.move) for row in result.trace]

    def check(self, ctx, run):
        mh = self.mh
        failures: List[str] = []
        real = sorted(ctx["groups"]["real"], key=lambda t: t.filename)
        hists = [ref.hist2d(t) for t in real]
        target = np.mean(hists, axis=0)
        checked = 2
        if not np.allclose(run.state["target"].mass, target, rtol=0, atol=1e-12):
            failures.append("refinement target differs from the reference average")
        within = [ref.emd(h, target, (1.0, 1.0, 1.0)) for h in hists[: self.THRESHOLD_SAMPLE]]
        _check_close(failures, "threshold", run.state["threshold"], float(np.median(within)))
        for k, out in enumerate(run.outputs):
            if out is None:
                continue
            result, cfg = out
            checked += 1
            emds = [row.emd for row in result.trace]
            final = mh.histogram.build_2dmh(result.template, cfg.target.spec)
            recomputed = mh.transport.emd(final, cfg.target, cfg.params)
            if not all(b < a for a, b in zip(emds, emds[1:])):
                failures.append(f"run {k}: trace is not strictly decreasing")
            if result.final_emd != emds[-1] or abs(recomputed - result.final_emd) > EMD_TOL:
                failures.append(f"run {k}: final EMD {result.final_emd!r}, "
                                f"trace {emds[-1]!r}, recomputed {recomputed!r}")
            accepted = len(emds) - 1
            status_ok = {
                "success": result.final_emd <= cfg.threshold,
                "timeout": accepted == cfg.max_iters and result.final_emd > cfg.threshold,
                "stall": accepted < cfg.max_iters and result.final_emd > cfg.threshold,
            }.get(result.status, False)
            if not status_ok:
                failures.append(f"run {k}: status {result.status!r} inconsistent")
        return checked, failures

    def emd_records(self, ctx, run, rng, n):
        mh = self.mh
        target = run.state["target"]
        outs = [o for o in run.outputs if o is not None]
        records = []
        for i in rng.choice(len(outs), size=min(n, len(outs)), replace=False):
            result, cfg = outs[i]
            h = mh.histogram.build_2dmh(result.template, target.spec)
            records.append((h, target, cfg.params, result.final_emd))
        return records

    def traffic(self, ctx):
        real = ctx["groups"]["real"]
        hists = [ref.hist2d(t) for t in sorted(real, key=lambda t: t.filename)]
        target = np.mean(hists, axis=0)
        return {
            **inputs.count_stats(real),
            "nnz_bins_p50": float(np.median([np.count_nonzero(h) for h in hists])),
            **_lp_stats([(h, target) for h in hists[: self.THRESHOLD_SAMPLE]]),
            "cost_grid": self.cost_grid(),
            "gallery": 0,
            "queries": 0,
        }


class Population(Workload):
    """Per-finger mean histograms of a mixed population (2 broad : 1
    cluster): the pairwise EMD matrix of the means and its MDS, then
    bootstrap neighbourhoods finger after finger."""

    name = "population"
    min_ops = 12
    op_name = "bootstrap_ms"
    KINDS = ("broad", "broad", "cluster")
    FINGERS, IMPRESSIONS = 12, 32
    MINUTIAE = (35, 45)  # narrow, so that LP sizes do not swing with the seed
    # Impressions differ as real ones do, and a finger's mean is over many of
    # them. Means of a few near-identical impressions are lumpy, and LPs
    # between lumpy histograms take erratic times (up to 4x apart). Means of
    # 16 impressions still gave about one broad finger in a hundred that
    # every LP against it takes 7x as long to solve (as target, not as
    # source), enough to make one seed's matrix 40% slower; 32 gave none in
    # a hundred.
    JITTER, DROPOUT = 8.0, 0.25
    ALPHA, REPLICATES = 0.05, 200

    def params(self):
        return {"workload": self.name, "fingers": self.FINGERS,
                "impressions": self.IMPRESSIONS, "minutiae": self.MINUTIAE, "kinds": self.KINDS,
                "jitter": self.JITTER, "dropout": self.DROPOUT}

    def generate(self, seed):
        rng = np.random.default_rng([seed, 4])
        out = []
        for f in range(1, self.FINGERS + 1):
            finger = inputs.make_finger(rng, self.KINDS[(f - 1) % 3], self.MINUTIAE)
            out += [inputs.make_impression(rng, finger, str(f), str(i), None,
                                           jitter=self.JITTER, dropout=self.DROPOUT)
                    for i in range(1, self.IMPRESSIONS + 1)]
        return {"population": out}

    def stage(self, ctx, tick):
        mh = self.mh
        params = mh.transport.CostParams()
        t0 = perf_counter()
        templates = mh.template.load_directory(ctx["dir"] / "population")
        fingers = sorted({t.finger_id for t in templates}, key=int)
        hists = {f: [mh.histogram.build_2dmh(t) for t in templates if t.finger_id == f]
                 for f in fingers}
        means = [mh.realness.average_histogram(hists[f]) for f in fingers]
        t1 = perf_counter()
        d = np.zeros((len(means), len(means)))
        for i in range(len(means)):
            tick()
            for j in range(i + 1, len(means)):
                d[i, j] = d[j, i] = mh.transport.emd(means[i], means[j], params)
        dm = mh.analysis.DistanceMatrix(labels=list(fingers), d=d)
        t2 = perf_counter()
        mds = mh.analysis.mds_embed(dm, dims=2)
        t3 = perf_counter()
        state = {"d": d, "mds": mds, "fingers": fingers, "means": means, "hists": hists}
        return state, [("prepare_s", t0, t1), ("emd_matrix_s", t1, t2), ("mds_s", t2, t3)]

    def op(self, ctx, state, k, tick):
        f = state["fingers"][k % len(state["fingers"])]
        hood = self.mh.analysis.bootstrap_neighborhood(
            state["hists"][f], self.ALPHA, self.REPLICATES, self.mh.transport.CostParams(),
            seed=k, finger_id=f)
        return f, hood.radius

    def extra_named(self, ctx, run, clock):
        return {"bootstrap_s": (sum(run.op_ms[: self.FINGERS]) / 1e3, "s")}

    def check(self, ctx, run):
        # The matrix is filled from the upper triangle, as a user would; the
        # EMD's symmetry and zero self-distance are checked on sampled pairs.
        mh = self.mh
        failures: List[str] = []
        d, mds, means = run.state["d"], run.state["mds"], run.state["means"]
        params = mh.transport.CostParams()
        checked = 1
        if not (np.isfinite(mds.coords).all() and mds.coords.shape == (len(d), 2)):
            failures.append("MDS coordinates malformed")
        groups = self._by_finger(ctx)
        fingers = run.state["fingers"]
        ref_means = {f: np.mean([ref.hist2d(t) for t in groups[f]], axis=0) for f in fingers}
        rng = np.random.default_rng([self.seed, 14])
        for i, j in rng.choice(len(means), size=(3, 2), replace=False):
            checked += 3
            want = ref.emd(ref_means[fingers[i]], ref_means[fingers[j]], (1.0, 1.0, 1.0))
            _check_close(failures, f"d[{i},{j}]", float(d[i, j]), want)
            _check_close(failures, f"emd({j},{i}) against d[{i},{j}]",
                         mh.transport.emd(means[j], means[i], params), float(d[i, j]))
            _check_close(failures, f"emd({i},{i})", mh.transport.emd(means[i], means[i], params), 0.0)
        outs = [o for o in run.outputs if o is not None]
        radii: Dict[str, List[float]] = {}
        for k in rng.choice(len(outs), size=min(2, len(outs)), replace=False):
            f, radius = outs[k]
            if f not in radii:
                radii[f] = [ref.emd(ref.hist2d(t), ref_means[f], (1.0, 1.0, 1.0))
                            for t in groups[f]]
            checked += 1
            if not any(abs(radius - r) <= EMD_TOL for r in radii[f]):
                failures.append(f"finger {f}: radius {radius!r} is no impression's EMD")
        return checked, failures

    def _by_finger(self, ctx) -> Dict[str, List[Template]]:
        """Generated templates per finger, in load_directory order."""
        groups: Dict[str, List[Template]] = {}
        for t in sorted(ctx["groups"]["population"], key=lambda t: t.filename):
            groups.setdefault(t.finger, []).append(t)
        return groups

    def emd_records(self, ctx, run, rng, n):
        means, d = run.state["means"], run.state["d"]
        params = self.mh.transport.CostParams()
        return [(means[i], means[j], params, float(d[i, j]))
                for i, j in (rng.choice(len(means), size=2, replace=False) for _ in range(n))]

    def traffic(self, ctx):
        pop = ctx["groups"]["population"]
        groups = self._by_finger(ctx)
        means = [np.mean([ref.hist2d(t) for t in groups[str(f)]], axis=0)
                 for f in range(1, self.FINGERS + 1)]
        return {
            **inputs.count_stats(pop),
            "nnz_bins_p50": _nnz_p50(pop),
            **_lp_stats([(a, b) for i, a in enumerate(means) for b in means[i + 1:]]),
            "cost_grid": self.cost_grid(),
            "gallery": 0,
            "queries": 0,
        }


WORKLOADS = {w.name: w for w in (Realness, Identify, Refine, Population)}
