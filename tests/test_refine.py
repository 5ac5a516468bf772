import importlib
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from minhist import transport
from minhist.histogram import (
    BinSpec,
    MinutiaeHistogram,
    _Pairs,
    build_2dmh,
)
from minhist.realness import average_histogram
from minhist.refine import (
    OrientationField,
    RefineConfig,
    _deletion_weights,
    assign_types,
    init_template,
    refine,
    write_trace_csv,
)
from minhist.template import BIFURCATION, ENDING, Minutia, MinutiaTemplate
from minhist.transport import (
    CostParams,
    build_cost_matrix,
    emd,
    solve_transport,
    transport_plan,
)

from genpop import make_population

SPEC = BinSpec(b_dist=10, b_dir=10)


def target_histogram(seed=50):
    """Class-average style target drawn from the generator's own mechanism,
    so the direction-difference marginal is reachable by the moves."""
    probe = RefineConfig(
        target=average_histogram(
            [build_2dmh(t, SPEC) for t in make_population(seed, 2, 1, "broad", None)]
        ),
        threshold=1.0,
    )
    hists = []
    for k in range(6):
        draw = init_template(RefineConfig(
            target=probe.target, threshold=1.0,
            rng_seed=seed * 100 + k, count_distribution=(28, 32, 36),
        ))
        hists.append(build_2dmh(draw, SPEC))
    return average_histogram(hists)


def base_config(**kwargs):
    defaults = dict(
        target=target_histogram(),
        threshold=0.05,
        max_iters=40,
        rng_seed=1,
        batch_size=8,
    )
    defaults.update(kwargs)
    return RefineConfig(**defaults)


class TestOrientationField:
    def test_constant(self):
        f = OrientationField(kind="constant", angle=230.0)
        assert f.orientation(10.0, 20.0) == 50.0

    def test_radial(self):
        f = OrientationField(kind="radial", center=(100.0, 100.0))
        assert f.orientation(200.0, 100.0) == pytest.approx(0.0)
        assert f.orientation(100.0, 200.0) == pytest.approx(90.0)
        assert f.orientation(0.0, 100.0) == pytest.approx(0.0)  # folded half-turn
        assert f.orientation(100.0, 100.0) == 0.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            OrientationField(kind="swirl")

    # The float remainder of a tiny negative angle by 180 rounds up to 180.0.
    @pytest.mark.parametrize("field, x, y", [
        (OrientationField(angle=-1e-20), 0.0, 0.0),
        (OrientationField(kind="radial"), 1.0, -1e-300),
    ])
    def test_orientation_lies_in_0_180(self, field, x, y):
        assert field.orientation(x, y) == 0.0

    # An infinite angle or center used to surface only later, as a minutia
    # direction of nan.
    @pytest.mark.parametrize("kwargs, message", [
        ({"angle": float("inf")}, "field angle .* got inf"),
        ({"angle": True}, "field angle"),
        ({"kind": "radial", "center": (0.0, float("nan"))}, "field center .* got nan"),
    ])
    def test_angle_and_center_must_be_finite(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            OrientationField(**kwargs)


class TestRefineConfig:
    def test_validation(self):
        target = target_histogram()
        with pytest.raises(ValueError, match="threshold"):
            RefineConfig(target=target, threshold=0.0)
        with pytest.raises(ValueError, match="foreground"):
            RefineConfig(target=target, threshold=0.1, foreground=(0, 0, 0, 10))
        raw = build_2dmh(make_population(51, 1, 1, "broad", None)[0], SPEC, normalize=False)
        with pytest.raises(ValueError, match="normalized"):
            RefineConfig(target=raw, threshold=0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": -1}, "max_iters"),
        ({"batch_size": 0}, "batch_size"),
        ({"count_distribution": ()}, "count distribution is empty"),
    ])
    def test_counts_that_cannot_work_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RefineConfig(target=target_histogram(), threshold=0.1, **kwargs)

    # A count is drawn as is, so a fraction or a flag is refused, not coerced.
    @pytest.mark.parametrize("counts", [(2.5,), (True,), (30, 1), (np.float64(30.0),)])
    def test_counts_must_be_integers_of_at_least_two(self, counts):
        with pytest.raises(ValueError, match="count_distribution .* at least 2"):
            RefineConfig(target=target_histogram(), threshold=0.1, count_distribution=counts)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            RefineConfig(target=target_histogram(), threshold=threshold)

    # A non-finite corner used to overflow in the draw, and a negative one
    # to fail mid-run or not, depending on the seed.
    @pytest.mark.parametrize("foreground, shown", [
        ((float("nan"), 0.0, 100.0, 100.0), "nan"),
        ((0.0, 0.0, float("inf"), 100.0), "inf"),
        ((-1.0, 0.0, 100.0, 100.0), "-1.0"),
        ((0.0, 0.0, 100.0, "100"), "'100'"),
    ])
    def test_foreground_values_must_be_finite_and_non_negative(self, foreground, shown):
        with pytest.raises(ValueError, match=f"foreground value must be a finite number >= 0,"
                                             f" got {shown}"):
            RefineConfig(target=target_histogram(), threshold=0.1, foreground=foreground)

    # A seed is used as is by the generator, so a fraction or a string is
    # refused, not coerced, and a negative one is named here, not by NumPy.
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
            RefineConfig(target=target_histogram(), threshold=0.1, rng_seed=seed)


class TestInitTemplate:
    def test_deterministic(self):
        cfg = base_config(rng_seed=7)
        assert init_template(cfg) == init_template(cfg)
        assert init_template(base_config(rng_seed=8)) != init_template(cfg)

    def test_count_from_distribution(self):
        cfg = base_config(count_distribution=(17,))
        assert len(init_template(cfg)) == 17
        counts = {
            len(init_template(base_config(count_distribution=(10, 20, 30), rng_seed=s)))
            for s in range(25)
        }
        assert counts <= {10, 20, 30}
        assert len(counts) > 1

    def test_positions_inside_foreground(self):
        cfg = base_config(foreground=(50.0, 60.0, 120.0, 140.0))
        t = init_template(cfg)
        for m in t.minutiae:
            assert 50.0 <= m.x <= 120.0
            assert 60.0 <= m.y <= 140.0

    def test_constant_field_directions(self):
        cfg = base_config(
            orientation_field=OrientationField(kind="constant", angle=30.0),
            count_distribution=(40,),
        )
        dirs = {m.direction for m in init_template(cfg).minutiae}
        assert dirs <= {30.0, 210.0}
        assert len(dirs) == 2  # the half-turn coin flip hits both branches

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            init_template(base_config(count_distribution=(1,)))


class TestRefine:
    def test_trace_strictly_decreasing(self):
        for seed in range(4):
            cfg = base_config(rng_seed=seed, threshold=1e-6, max_iters=25)
            result = refine(init_template(cfg), cfg)
            emds = [row.emd for row in result.trace]
            assert all(b < a for a, b in zip(emds, emds[1:]))
            assert result.final_emd == emds[-1]
            assert result.trace[0].move == "init"

    def test_deterministic(self):
        cfg = base_config(rng_seed=3, max_iters=15, threshold=1e-6)
        t = init_template(cfg)
        r1 = refine(t, cfg)
        r2 = refine(t, cfg)
        assert r1.template == r2.template
        assert [(row.iteration, row.emd, row.move) for row in r1.trace] == [
            (row.iteration, row.emd, row.move) for row in r2.trace
        ]

    def test_success_at_loose_threshold(self):
        cfg = base_config(threshold=0.3, max_iters=100, rng_seed=0)
        result = refine(init_template(cfg), cfg)
        assert result.status == "success"
        assert result.final_emd <= 0.3
        assert len(result.trace) > 1  # the initial draw is not yet good enough

    def test_already_good_enough_exits_immediately(self):
        cfg = base_config(threshold=100.0)
        result = refine(init_template(cfg), cfg)
        assert result.status == "success"
        assert len(result.trace) == 1

    def test_no_iterations_is_a_timeout(self):
        cfg = base_config(threshold=1e-9, max_iters=0)
        result = refine(init_template(cfg), cfg)
        assert result.status == "timeout"
        assert [row.move for row in result.trace] == ["init"]

    def test_candidates_without_a_pair_are_not_scored(self, monkeypatch):
        # Only minutiae 0 and 1 lie within d_max of each other, so deleting
        # either draws a candidate without a pair: it has no normalized
        # histogram, and the batch goes on without it.
        pairless = []
        moved_counts = _Pairs.moved_counts

        def recording_moved_counts(pairs, moves):
            counts, pair_counts = moved_counts(pairs, moves)
            n = len(pairs.dirs)
            pairless.extend(n + (k == n) - (m is None)
                            for (k, m), count in zip(moves, pair_counts) if count == 0)
            return counts, pair_counts

        monkeypatch.setattr(_Pairs, "moved_counts", recording_moved_counts)
        t = MinutiaTemplate(minutiae=(Minutia(0.0, 0.0, 0.0), Minutia(10.0, 0.0, 90.0),
                                      Minutia(1000.0, 1000.0, 45.0)), dpi=500)
        cfg = base_config(threshold=1e-6, max_iters=3, batch_size=10)
        result = refine(t, cfg)
        assert pairless and all(n == 2 for n in pairless)
        assert all(row.move not in ("delete:0", "delete:1") for row in result.trace[:2])
        final = build_2dmh(result.template, SPEC)
        assert emd(final, cfg.target, cfg.params) == result.final_emd

    def test_a_move_that_keeps_the_emd_is_not_accepted(self):
        # The directions differ by 90 degrees, so a flip keeps the histogram,
        # and an added minutia lands beyond d_max of both: every candidate
        # ties the current EMD, and a tie is no improvement.
        t = MinutiaTemplate(minutiae=(Minutia(0.0, 0.0, 0.0), Minutia(10.0, 0.0, 90.0)), dpi=500)
        cfg = base_config(threshold=1e-6, foreground=(1000.0, 1000.0, 1100.0, 1100.0))
        result = refine(t, cfg)
        assert result.status == "stall"
        assert [row.move for row in result.trace] == ["init"]

    def test_timeout_status(self):
        cfg = base_config(threshold=1e-9, max_iters=3)
        result = refine(init_template(cfg), cfg)
        assert result.status in ("timeout", "stall")
        assert len(result.trace) <= 4

    def test_final_template_matches_final_emd(self):
        cfg = base_config(threshold=1e-6, max_iters=20, rng_seed=9)
        result = refine(init_template(cfg), cfg)
        h = build_2dmh(result.template, SPEC)
        assert emd(h, cfg.target, cfg.params) == pytest.approx(result.final_emd, abs=1e-9)

    # These runs end in a stall, a success and a timeout.
    @pytest.mark.parametrize("seed, threshold", [(9, 1e-6), (0, 0.3), (4, 1e-6)])
    def test_plans_only_for_the_current_template(self, seed, threshold, monkeypatch):
        # Candidates are scored by emd alone; a transport plan, for the
        # deletion blame and the candidates' lower bound, is built once per
        # iteration for the current template.
        module = importlib.import_module("minhist.refine")
        planned = []

        def counting_plan(h1, h2, params, model):
            planned.append(h1.mass.copy())
            return transport._plan(h1, h2, params, model)

        # refine looks up _plan by its name in its own module.
        monkeypatch.setattr(module, "_plan", counting_plan)
        cfg = base_config(threshold=threshold, max_iters=6, rng_seed=seed)
        t = init_template(cfg)
        result = refine(t, cfg)
        accepted = len(result.trace) - 1
        # One plan per iteration run: each accepted move, plus the last
        # iteration when it stalls.
        assert len(planned) == accepted + (result.status == "stall")
        assert len(planned) <= min(cfg.max_iters, 1 + accepted)
        assert np.array_equal(planned[0], build_2dmh(t, SPEC).mass)
        # Plan k is of the template after k accepted moves.
        for mass, row in zip(planned, result.trace):
            h = MinutiaeHistogram(spec=SPEC, dims=2, mass=mass, normalized=True, pair_count=1)
            assert emd(h, cfg.target, cfg.params) == row.emd

    @staticmethod
    def _counting_run(cfg, monkeypatch):
        """refine(init_template(cfg), cfg) and the number of emd calls it made."""
        module = importlib.import_module("minhist.refine")
        calls = []

        def counting_emd(h1, h2, params):
            calls.append(h1)
            return emd(h1, h2, params)

        with monkeypatch.context() as m:
            m.setattr(module, "emd", counting_emd)
            result = refine(init_template(cfg), cfg)
        return result, len(calls)

    # Candidates whose dual lower bound cannot win are never scored; the
    # winner, and with it the trace, must be the one a full batch picks.
    @pytest.mark.parametrize("seed, threshold", [(9, 1e-6), (0, 0.3), (4, 1e-6), (3, 0.2),
                                                 (7, 1e-6)])
    def test_pruning_keeps_the_trace(self, seed, threshold, monkeypatch):
        cfg = base_config(threshold=threshold, max_iters=8, rng_seed=seed)
        pruned, pruned_calls = self._counting_run(cfg, monkeypatch)
        monkeypatch.setattr(transport, "SLACK_TOL", -np.inf)  # no potentials: bound -inf
        full, full_calls = self._counting_run(cfg, monkeypatch)
        assert (pruned.status, pruned.trace, pruned.template) == (
            full.status, full.trace, full.template)
        assert pruned_calls < full_calls

    @pytest.mark.parametrize("seed", [4, 7])
    def test_ties_go_to_the_earliest_candidate(self, seed, monkeypatch):
        # EMDs rounded to 0.01 tie often. Scored in reverse batch order (by
        # decreasing stand-in bounds that prune nothing), the winner must
        # still be the lowest EMD, then the earliest in the batch.
        module = importlib.import_module("minhist.refine")
        monkeypatch.setattr(module, "emd", lambda h1, h2, params: round(emd(h1, h2, params), 2))
        cfg = base_config(threshold=1e-6, max_iters=8, rng_seed=seed)
        with monkeypatch.context() as m:
            m.setattr(transport, "SLACK_TOL", -np.inf)
            want = refine(init_template(cfg), cfg)

        def reversed_order(h1, h2, params, model):
            plan, model = transport._plan(h1, h2, params, model)
            plan.lower_bound = SimpleNamespace(
                bounds=lambda supplies, solve: -1e9 - np.arange(len(supplies), dtype=float))
            return plan, model

        monkeypatch.setattr(module, "_plan", reversed_order)
        got = refine(init_template(cfg), cfg)
        assert (got.status, got.trace, got.template) == (want.status, want.trace, want.template)

    def test_perturbed_potentials_switch_pruning_off(self, monkeypatch):
        # Potentials that are far from dual feasible bound nothing: refine
        # must then score every candidate, and still follow the same trace.
        class Perturbed(transport._Highs):
            def getSolution(self):
                solution = super().getSolution()
                duals = list(solution.row_dual)
                duals[::2] = [y + 0.5 for y in duals[::2]]
                solution.row_dual = duals
                return solution

        cfg = base_config(threshold=1e-6, max_iters=8, rng_seed=4)
        want, _ = self._counting_run(cfg, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(transport, "SLACK_TOL", -np.inf)
            _, full_calls = self._counting_run(cfg, monkeypatch)
        monkeypatch.setattr(transport, "_Highs", Perturbed)
        h = build_2dmh(init_template(cfg), SPEC)
        bound = transport_plan(h, cfg.target, cfg.params).lower_bound
        assert bound.slack >= 0.5 and bound.potentials is None
        assert bound(h) == -np.inf
        got, calls = self._counting_run(cfg, monkeypatch)
        assert (got.status, got.trace, got.template) == (want.status, want.trace, want.template)
        assert calls == full_calls

    @pytest.mark.parametrize("seed", [3, 4])
    def test_independent_of_earlier_solves(self, seed):
        # emd keeps a warm model and restarts from its last basis; the plan
        # behind the deletion blame must not, or the trajectory would follow
        # whatever was solved before. The first run starts on no kept model.
        cfg = base_config(threshold=1e-6, max_iters=12, rng_seed=seed)
        transport._emd_models.clear()
        first = refine(init_template(cfg), cfg)
        rng = np.random.default_rng(52)
        other_spec = BinSpec(b_dist=6, b_dir=7)
        for spec, params in ((SPEC, cfg.params), (SPEC, CostParams(0.5, 2.0, 1.0)),
                             (other_spec, CostParams(1.0, 2.0, 2.0))):
            h1, h2 = (MinutiaeHistogram(spec=spec, dims=2, mass=m / m.sum(), normalized=True,
                                        pair_count=1)
                      for m in rng.random((2, spec.b_dist, spec.b_dir)))
            emd(h1, h2, params)
        other = replace(cfg, rng_seed=seed + 100)
        refine(init_template(other), other)
        again = refine(init_template(cfg), cfg)
        assert again.template == first.template
        assert again.trace == first.trace
        assert any(row.move.startswith("delete") for row in first.trace)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_same_result_whatever_ran_before(self, seed):
        # A fresh model may end on any optimal vertex, so a run is seeded
        # only while its plans depend on their inputs alone. The same run
        # must give the same result alone; after solves that leave emd's
        # kept model on its network at another basis, or on other networks;
        # and after another run.
        cfg = base_config(threshold=1e-6, max_iters=12, rng_seed=seed)

        def run():
            result = refine(init_template(cfg), cfg)
            return result.status, result.trace, result.template

        def solves(*networks):
            def solve():
                rng = np.random.default_rng(53)
                for spec, params in networks:
                    h1, h2 = (MinutiaeHistogram(spec=spec, dims=2, mass=m / m.sum(),
                                                normalized=True, pair_count=1)
                              for m in rng.random((2, spec.b_dist, spec.b_dir)))
                    transport_plan(h1, h2, params)
                    solve_transport(h1.mass, h2.mass, build_cost_matrix(spec, params))
                    emd(h1, h2, params)
            return solve

        def other_run():
            other = replace(cfg, rng_seed=seed + 100)
            refine(init_template(other), other)

        def no_kept_model():
            transport._emd_models.clear()

        no_kept_model()
        alone = run()
        for before in (solves((SPEC, cfg.params)),
                       solves((SPEC, CostParams(0.5, 2.0, 1.0)),
                              (BinSpec(b_dist=6, b_dir=7), CostParams(1.0, 2.0, 2.0))),
                       other_run, no_kept_model):
            before()
            assert run() == alone

    # At these seeds run A's plans depend on the basis each solve starts
    # from, so a model shared between the runs would change them.
    @pytest.mark.parametrize("seed", [4, 18])
    def test_interleaved_runs_equal_runs_made_alone(self, seed, monkeypatch):
        # Each plan is solved on the model of the run's own previous plan. So
        # run B, made in full after each plan of run A, must change neither
        # A's plans and result nor its own.
        module = importlib.import_module("minhist.refine")
        cfg_a = base_config(threshold=1e-6, max_iters=12, rng_seed=seed)
        cfg_b = replace(cfg_a, rng_seed=seed + 100)

        def run(cfg, after_each_plan=lambda: None):
            plans = []

            def recording_plan(h1, h2, params, model):
                plan, model = transport._plan(h1, h2, params, model)
                plans.append(plan.flow)
                after_each_plan()
                return plan, model

            with monkeypatch.context() as m:
                m.setattr(module, "_plan", recording_plan)
                result = refine(init_template(cfg), cfg)
            return result.status, result.trace, result.template, plans

        alone_a, alone_b = run(cfg_a), run(cfg_b)
        runs_b = []
        assert run(cfg_a, lambda: runs_b.append(run(cfg_b))) == alone_a
        assert runs_b and all(b == alone_b for b in runs_b)

    def test_concurrent_runs_equal_serial_runs(self):
        # Each run owns its plan model, and emd's shared models sit behind
        # its lock: runs in four threads that switch every microsecond must
        # each give the result of the same run made alone.
        cfgs = [base_config(threshold=1e-6, max_iters=12, rng_seed=seed) for seed in (3, 4, 5, 18)]

        def run(cfg):
            result = refine(init_template(cfg), cfg)
            return result.status, result.trace, result.template

        serial = [run(cfg) for cfg in cfgs]
        concurrent = [None] * len(cfgs)

        def work(k):
            concurrent[k] = run(cfgs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert concurrent == serial

    @pytest.mark.parametrize("seed", range(4))
    def test_deletion_blame_is_twice_the_plan_cost(self, seed):
        # Every source bin of the plan holds pairs of the current template,
        # and each pair's blame goes to both members: blame that sums to
        # anything else means the plan lost or invented mass.
        cfg = base_config(rng_seed=seed, count_distribution=(12, 30))
        current = init_template(cfg)
        plan = transport_plan(build_2dmh(current, SPEC), cfg.target, cfg.params)
        weights = _deletion_weights(_Pairs.of(current, SPEC), plan, cfg)
        assert plan.total_cost > 0
        assert weights.sum() == pytest.approx(2 * plan.total_cost, rel=1e-12, abs=0)

    @pytest.mark.parametrize("e", [1.0, 2.0])
    @pytest.mark.parametrize("spec", [BinSpec(), BinSpec(b_dist=7, b_dir=13)],
                             ids=["10x10", "7x13"])
    def test_deletion_blame_is_the_dense_cost_loop(self, spec, e):
        # The blame prices each flow entry by the ground cost and sums the
        # entries per source bin in plan order: the same bits as this loop
        # over the dense cost matrix.
        params = CostParams(e=e)
        target = average_histogram(
            [build_2dmh(t, spec) for t in make_population(51, 3, 1, "broad", None)])
        cost = build_cost_matrix(spec, params)
        for seed in range(3):
            cfg = RefineConfig(target=target, threshold=1.0, params=params, rng_seed=seed,
                               count_distribution=(12, 30))
            current = init_template(cfg)
            plan = transport_plan(build_2dmh(current, spec), target, params)
            sources = [i for i, _ in plan.flow]
            assert len(set(sources)) < len(sources)  # some bin ships to several
            bin_cost = np.zeros(spec.b_dist * spec.b_dir)
            for (i, j), mass in plan.flow.items():
                bin_cost[i] += mass * cost[i, j]
            pairs = _Pairs.of(current, spec)
            want = np.zeros(len(current))
            blame = bin_cost[pairs.bins] / pairs.counts[pairs.bins]
            np.add.at(want, pairs.i, blame)
            np.add.at(want, pairs.j, blame)
            got = _deletion_weights(pairs, plan, cfg)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_too_small_template_rejected(self):
        cfg = base_config()
        t = MinutiaTemplate(minutiae=init_template(cfg).minutiae[:1], dpi=500)
        with pytest.raises(ValueError, match="at least 2"):
            refine(t, cfg)

    def test_trace_csv(self, tmp_path):
        cfg = base_config(threshold=1e-6, max_iters=10)
        result = refine(init_template(cfg), cfg)
        out = tmp_path / "trace.csv"
        write_trace_csv(result.trace, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iteration,emd,move"
        assert len(lines) == 1 + len(result.trace)


class TestAssignTypes:
    def _template(self, n=40):
        return init_template(base_config(count_distribution=(n,)))

    def test_extremes(self):
        t = self._template()
        assert all(m.mtype == ENDING for m in assign_types(t, 0.0).minutiae)
        assert all(m.mtype == BIFURCATION for m in assign_types(t, 1.0).minutiae)

    def test_deterministic(self):
        t = self._template()
        assert assign_types(t, 0.4, seed=3) == assign_types(t, 0.4, seed=3)

    def test_rate_concentrates_on_target(self):
        # pooled over many seeded templates the empirical rate lands near 0.409
        total, bif = 0, 0
        for seed in range(250):
            t = init_template(base_config(count_distribution=(40,), rng_seed=seed))
            typed = assign_types(t, 0.409, seed=seed)
            total += len(typed)
            bif += sum(1 for m in typed.minutiae if m.mtype == BIFURCATION)
        assert bif / total == pytest.approx(0.409, abs=0.02)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            assign_types(self._template(), 1.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            assign_types(self._template(), 0.5, seed=seed)

    def test_geometry_untouched(self):
        t = self._template()
        typed = assign_types(t, 0.5)
        for a, b in zip(t.minutiae, typed.minutiae):
            assert (a.x, a.y, a.direction) == (b.x, b.y, b.direction)
