import gc
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from minhist import transport
from minhist.histogram import BinSpec, MinutiaeHistogram
from minhist.transport import (
    CostParams,
    build_cost_matrix,
    emd,
    solve_transport,
    transport_plan,
)

from oracles import (
    brute_force_transport_cost,
    exact_plan_cost,
    linprog_transport_cost,
    loop_dual_bound,
    loop_node_supplies,
)


def make_hist(mass, spec=None, normalized=True):
    mass = np.asarray(mass, dtype=float)
    spec = spec or BinSpec(b_dist=mass.shape[0], b_dir=mass.shape[1])
    return MinutiaeHistogram(
        spec=spec, dims=2, mass=mass, normalized=normalized,
        pair_count=int(round(mass.sum())) if not normalized else 1,
    )


def random_normalized_hist(rng, b_dist=10, b_dir=10):
    mass = rng.random((b_dist, b_dir))
    mass /= mass.sum()
    return make_hist(mass)


class TestCostParams:
    def test_defaults_valid(self):
        p = CostParams()
        assert (p.r, p.s, p.e) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kwargs", [{"r": 0}, {"s": -1}, {"e": 0}, {"r": float("inf")}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CostParams(**kwargs)


class TestCostRange:
    """Every nonzero arc cost of the flow network must lie in [1e-6, 1e6]."""

    @pytest.mark.parametrize("params, name", [
        (CostParams(r=1e-9, s=1, e=1), "r"),
        (CostParams(r=1, s=2e6, e=1), "s"),
        (CostParams(r=1e9, s=1, e=2), "r"),
        (CostParams(r=1, s=1e-9, e=2), "s"),
        (CostParams(r=1, s=1e300, e=2), "s"),  # the power overflows
        (CostParams(r=1, s=200, e=2), "s"),  # only the farthest arc is above 1e6
    ])
    def test_out_of_range_rejected(self, params, name):
        rng = np.random.default_rng(19)
        h1, h2 = random_normalized_hist(rng), random_normalized_hist(rng)
        match = f"cost parameter {name} "
        for call in (lambda: emd(h1, h2, params), lambda: emd(h1, h1, params),
                     lambda: transport_plan(h1, h2, params),
                     lambda: build_cost_matrix(h1.spec, params)):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("r, s, e", [
        (1e-6, 1e6, 1.0), (1e6, 1e-6, 1.0), (1e-3, 1e3 / 9, 2.0), (1e3 / 9, 1e-3, 2.0),
    ], ids=["e1-r-low", "e1-s-low", "e2-r-low", "e2-s-low"])
    def test_corners_match_dense_lp(self, r, s, e):
        rng = np.random.default_rng(20)
        params = CostParams(r=r, s=s, e=e)
        for _ in range(3):
            h1, h2 = random_normalized_hist(rng), random_normalized_hist(rng)
            cost = build_cost_matrix(h1.spec, params)
            want = solve_transport(h1.mass.ravel(), h2.mass.ravel(), cost).total_cost
            assert abs(emd(h1, h2, params) - want) <= 1e-12 * want

    @pytest.mark.parametrize("e", [1.5, 2.0])
    def test_overflowing_power_rejected_without_warning(self, e):
        message = f"cost parameter s = 1e+300 at e = {e!r} gives an arc cost of inf on 10 bins"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                transport.check_cost_range(BinSpec(), CostParams(s=1e300, e=e))

    def test_axis_of_one_bin_has_no_arcs(self):
        # one distance bin: s prices no arc, so any s > 0 is accepted
        rng = np.random.default_rng(21)
        h1, h2 = random_normalized_hist(rng, 1, 10), random_normalized_hist(rng, 1, 10)
        tiny_s = emd(h1, h2, CostParams(r=1.0, s=1e-9, e=2.0))
        assert tiny_s == emd(h1, h2, CostParams(r=1.0, s=1.0, e=2.0))


class TestBuildCostMatrix:
    def test_unit_steps(self):
        spec = BinSpec(b_dist=3, b_dir=3)
        cm = build_cost_matrix(spec, CostParams(r=1, s=1, e=1))
        # flat index of bin (x, u) is x * b_dir + u
        assert cm[0, 1 * 3 + 0] == 1.0  # (0,0) -> (1,0)
        assert cm[0, 1 * 3 + 1] == 2.0  # (0,0) -> (1,1)

    def test_direct_substitution(self):
        spec = BinSpec(b_dist=3, b_dir=3)
        cm = build_cost_matrix(spec, CostParams(r=3, s=2, e=1))
        assert cm[0, 1 * 3 + 2] == 2.0 + 6.0  # (0,0) -> (1,2)

    def test_zero_diagonal_and_symmetry(self):
        spec = BinSpec(b_dist=4, b_dir=5)
        cm = build_cost_matrix(spec, CostParams(r=0.7, s=1.3, e=2.0))
        assert np.all(np.diag(cm) == 0.0)
        assert (cm[np.eye(20, dtype=bool) == 0] > 0).all()
        np.testing.assert_allclose(cm, cm.T)

    def test_direction_axis_is_linear_not_circular(self):
        spec = BinSpec(b_dist=1, b_dir=10)
        cm = build_cost_matrix(spec, CostParams())
        assert cm[0, 9] == 9.0  # ends of the folded axis are far apart

    def test_returned_cost_is_a_fresh_array(self):
        # The caller owns the matrix: editing it changes neither the next
        # matrix nor any EMD.
        spec = BinSpec(b_dist=4, b_dir=4)
        mass1 = np.zeros((4, 4))
        mass2 = np.zeros((4, 4))
        mass1[0, 0] = 1.0
        mass2[1, 1] = 1.0
        h1, h2 = make_hist(mass1), make_hist(mass2)
        for params, want in ((CostParams(r=1, s=2, e=1), 3.0), (CostParams(r=1, s=2, e=2), 5.0)):
            before = emd(h1, h2, params)
            assert before == pytest.approx(want, abs=1e-9)
            cost = build_cost_matrix(spec, params)
            fresh = cost.copy()
            cost[0, 5] = 0.0
            cost *= 0.0
            assert np.array_equal(build_cost_matrix(spec, params), fresh)
            assert fresh[0, 5] == want
            assert emd(h1, h2, params) == before


class TestFlowNetwork:
    @pytest.mark.parametrize("e", [1.0, 1.5, 2.0])
    def test_shortest_paths_are_the_ground_cost(self, e):
        params = CostParams(r=0.7, s=1.3, e=e)
        for b_dist in range(1, 6):
            for b_dir in range(1, 6):
                spec = BinSpec(b_dist=b_dist, b_dir=b_dir)
                n_nodes, arc_cost, tails, heads = transport._flow_network(spec, params)
                assert arc_cost.size == tails.size == heads.size
                # Explicit zeros stay arcs: a distance move by 0 bins is free.
                graph = sparse.csr_matrix((arc_cost, (tails, heads)), shape=(n_nodes, n_nodes))
                n = b_dist * b_dir
                paths = shortest_path(graph, indices=np.arange(n))[:, n_nodes - n:]
                np.testing.assert_allclose(
                    paths, build_cost_matrix(spec, params), rtol=1e-12, atol=0)

    def test_flow_with_a_cycle_is_rejected(self):
        # Each node of a two-arc cycle waits for the other, so neither is
        # ever ready: the flow cannot be taken apart into paths.
        with pytest.raises(RuntimeError, match="transport flow has a cycle"):
            transport._paths(np.array([0, 1]), np.array([1, 0]), np.array([1, 1]), np.zeros(2))

    @pytest.mark.parametrize("network", ["e=1", "e=1.5", "e=2", "solve_transport"])
    def test_model_matrix_is_the_incidence_matrix(self, monkeypatch, network):
        # HiGHS gets the node-arc incidence matrix column-wise, two entries
        # per arc with the lower row first (canonical CSC). The optimal
        # vertex the dual simplex ends on depends on this layout, and plans
        # and refine's traces depend on that vertex.
        models = []

        class Recording(transport._FlowModel):
            def __init__(self, *args):
                super().__init__(*args)
                models.append(self)

        monkeypatch.setattr(transport, "_FlowModel", Recording)
        if network == "solve_transport":
            # Every source to every sink: 3 sources, 4 sinks, 12 arcs.
            solve_transport([1, 2, 3], [2, 1, 1, 2], np.arange(12.0).reshape(3, 4))
            assert (models[0].b_eq.size, models[0].tails.size) == (7, 12)
        else:
            params = CostParams(r=0.7, s=1.3, e=float(network[2:]))
            for b_dist in range(1, 6):
                for b_dir in range(1, 6):
                    n_nodes, arc_cost, tails, heads = transport._flow_network(
                        BinSpec(b_dist=b_dist, b_dir=b_dir), params)
                    transport._FlowModel(arc_cost, tails, heads, np.zeros(n_nodes))
        assert models
        for model in models:
            tails, heads = model.tails, model.heads
            lp = model.highs.getLp()
            assert (lp.num_row_, lp.num_col_) == (model.b_eq.size, tails.size)
            matrix = lp.a_matrix_
            assert matrix.format_ == transport.MatrixFormat.kColwise
            np.testing.assert_array_equal(matrix.start_, np.arange(0, 2 * tails.size + 1, 2))
            rows = np.asarray(matrix.index_).reshape(-1, 2)
            values = np.asarray(matrix.value_).reshape(-1, 2)
            assert (rows[:, 0] < rows[:, 1]).all()
            assert (np.sort(values, axis=1) == [-1.0, 1.0]).all()
            np.testing.assert_array_equal(rows[values == 1], tails)
            np.testing.assert_array_equal(rows[values == -1], heads)


class TestSolveTransport:
    def test_identical_marginals_zero_cost(self):
        cost = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        plan = solve_transport([0.2, 0.3, 0.5], [0.2, 0.3, 0.5], cost)
        assert plan.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_two_bin_single_move(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = solve_transport([1.0, 0.0], [0.0, 1.0], cost)
        assert plan.total_cost == pytest.approx(1.0, abs=1e-9)
        assert plan.flow[(0, 1)] == pytest.approx(1.0, abs=1e-9)

    def test_random_3x3_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            supply = rng.integers(0, 20, 3).astype(float)
            total = int(supply.sum())
            if total == 0:
                continue
            demand = rng.multinomial(total, [1 / 3] * 3).astype(float)
            cost = rng.integers(0, 9, (3, 3)).astype(float)
            np.fill_diagonal(cost, 0.0)
            plan = solve_transport(supply, demand, cost)
            expected = brute_force_transport_cost(supply, demand, cost)
            assert plan.total_cost == pytest.approx(expected, abs=1e-9)

    def test_plan_feasibility(self):
        rng = np.random.default_rng(12)
        supply = rng.random(9)
        supply /= supply.sum()
        demand = rng.random(9)
        demand /= demand.sum()
        cost = rng.random((9, 9)) * 5
        plan = solve_transport(supply, demand, cost)
        row = np.zeros(9)
        col = np.zeros(9)
        recomputed = 0.0
        for (i, j), mass in plan.flow.items():
            assert mass >= 0
            row[i] += mass
            col[j] += mass
            recomputed += mass * cost[i, j]
        np.testing.assert_allclose(row, supply, atol=1e-8)
        np.testing.assert_allclose(col, demand, atol=1e-8)
        assert plan.total_cost == pytest.approx(recomputed, abs=1e-9)

    def test_only_network_plans_carry_a_lower_bound(self):
        # lower_bound is a result of transport_plan's solve, not part of the
        # plan's value: two solves of the same inputs compare equal and
        # print alike although their bounds are distinct objects.
        rng = np.random.default_rng(16)
        h1, h2 = random_normalized_hist(rng, 4, 5), random_normalized_hist(rng, 4, 5)
        cost = build_cost_matrix(h1.spec, CostParams())
        assert solve_transport(h1.mass.ravel(), h2.mass.ravel(), cost).lower_bound is None
        first, second = transport_plan(h1, h2), transport_plan(h1, h2)
        assert first.lower_bound is not second.lower_bound
        assert first == second
        assert repr(first) == repr(second) and "lower_bound" not in repr(first)
        assert first.lower_bound(h1) <= emd(h1, h2)

    def test_basic_solution_sparsity(self):
        rng = np.random.default_rng(13)
        supply = rng.random(8)
        supply /= supply.sum()
        demand = rng.random(8)
        demand /= demand.sum()
        cost = rng.random((8, 8))
        plan = solve_transport(supply, demand, cost)
        assert len(plan.flow) <= 8 + 8 - 1

    def test_unbalanced_rejected(self):
        cost = np.zeros((2, 2))
        with pytest.raises(ValueError, match="unbalanced"):
            solve_transport([1.0, 0.0], [0.0, 0.5], cost)

    def test_negative_mass_rejected(self):
        cost = np.zeros((2, 2))
        with pytest.raises(ValueError, match="non-negative"):
            solve_transport([1.0, -1.0], [0.0, 0.0], cost)

    @pytest.mark.parametrize("supply, demand", [
        ([np.nan, 1.0], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, np.nan]),
        ([np.inf, 1.0], [1.0, 1.0]),
        ([np.inf, 1.0], [np.inf, 1.0]),
        ([-np.inf, 1.0], [1.0, 1.0]),
    ], ids=["nan-supply", "nan-demand", "inf-supply", "inf-both", "minus-inf"])
    def test_non_finite_mass_rejected(self, supply, demand):
        with pytest.raises(ValueError, match="masses must be finite"):
            solve_transport(supply, demand, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, bad):
        with pytest.raises(ValueError, match="costs must be finite"):
            solve_transport([0.5, 0.5], [0.5, 0.5], [[0.0, bad], [1.0, 0.0]])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(14)
        supply = rng.random(6)
        demand = rng.random(6)
        demand *= supply.sum() / demand.sum()
        cost = rng.random((6, 6)) * 3
        base = solve_transport(supply, demand, cost).total_cost
        for lam in (0.25, 2.0, 7.5):
            scaled = solve_transport(lam * supply, lam * demand, cost)
            assert scaled.total_cost == pytest.approx(lam * base, rel=1e-6, abs=1e-8)

    def test_cost_shape_must_match_marginals(self):
        with pytest.raises(ValueError, match="marginal lengths"):
            solve_transport([0.5, 0.5], [0.5, 0.5], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="marginal lengths"):
            solve_transport([0.5, 0.5], [1.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="marginal lengths"):
            solve_transport([0.5, 0.5], [0.5, 0.5], np.zeros(4))

    def test_nested_list_cost(self):
        plan = solve_transport([1.0, 0.0], [0.0, 1.0], [[0.0, 2.0], [2.0, 0.0]])
        assert plan.total_cost == pytest.approx(2.0, abs=1e-9)
        assert plan.flow == {(0, 1): 1.0}

    def test_zero_total_mass(self):
        plan = solve_transport([0.0, 0.0], [0.0, 0.0], np.ones((2, 2)))
        assert plan.total_cost == 0.0
        assert plan.flow == {}

    @pytest.mark.parametrize("mass1, mass2", [
        ([[1e10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e10]]),
        ([[5e9, 5e9], [0.0, 0.0]], [[5e9, 0.0], [5e9, 0.0]]),
    ], ids=["corners", "row-to-column"])
    def test_mass_beyond_exact_scaling_rejected(self, mass1, mass2):
        # A total of 1e10 x MASS_SCALE is above 2**53 and wraps in int64:
        # unchecked, emd returned 0.0 on "corners" and a negative value on
        # "row-to-column".
        h1, h2 = make_hist(mass1, normalized=False), make_hist(mass2, normalized=False)
        cost = build_cost_matrix(h1.spec, CostParams())
        for call in (lambda: emd(h1, h2), lambda: transport_plan(h1, h2),
                     lambda: solve_transport(np.ravel(mass1), np.ravel(mass2), cost)):
            with pytest.raises(ValueError, match=re.escape("exceeds 2**53")):
                call()

    def test_large_mass_within_exact_scaling_solved_exactly(self):
        mass1, mass2 = np.zeros((2, 2)), np.zeros((2, 2))
        mass1[0, 0] = mass2[1, 1] = 1e6
        h1, h2 = make_hist(mass1, normalized=False), make_hist(mass2, normalized=False)
        assert emd(h1, h2) == 2e6
        plan = transport_plan(h1, h2)
        assert plan.total_cost == 2e6
        assert plan.flow == {(0, 3): 1e6}


class TestEmd:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(15)
        h = random_normalized_hist(rng)
        assert emd(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_adjacent_one_hot_bins(self):
        mass1 = np.zeros((10, 10))
        mass2 = np.zeros((10, 10))
        mass1[3, 4] = 1.0
        mass2[4, 4] = 1.0  # one distance bin over
        value = emd(make_hist(mass1), make_hist(mass2), CostParams(s=1, r=1, e=1))
        # single unit moved one distance bin: verified against the oracle too
        oracle = brute_force_transport_cost([1.0], [1.0], [[1.0]])
        assert value == pytest.approx(1.0, abs=1e-9)
        assert oracle == pytest.approx(1.0)

    @pytest.mark.parametrize("e", [1.0, 2.0])
    def test_two_empty_raw_histograms(self, e):
        # The raw histograms of templates without a pair within d_max hold
        # no mass: nothing moves, and no solve is needed.
        empty = make_hist(np.zeros((10, 10)), normalized=False)
        params = CostParams(e=e)
        assert emd(empty, empty, params) == 0.0
        plan = transport_plan(empty, empty, params)
        assert plan.total_cost == 0.0 and plan.flow == {}

    def test_a_source_against_a_target_of_zero_mass_is_rejected(self):
        # 1e-9 against 0 passes the balance check, but scales to one unit
        # that no target entry can take: a ValueError that says so. The
        # other way round nothing moves.
        spec = BinSpec(b_dist=2, b_dir=2)
        tiny, zero = np.zeros((2, 2)), np.zeros((2, 2))
        tiny[1, 1] = 1e-9
        h1, h2 = (make_hist(m, spec, normalized=False) for m in (tiny, zero))
        for call in (lambda: emd(h1, h2), lambda: transport_plan(h1, h2),
                     lambda: solve_transport(tiny.ravel(), zero.ravel(), np.ones((4, 4)))):
            with pytest.raises(ValueError, match="^source mass 1e-09 against a target of zero mass$"):
                call()
        assert emd(h2, h1) == transport_plan(h2, h1).total_cost == 0.0

    def test_mismatched_specs_rejected(self):
        h1 = random_normalized_hist(np.random.default_rng(0), 10, 10)
        h2 = random_normalized_hist(np.random.default_rng(0), 5, 10)
        with pytest.raises(ValueError, match="specification"):
            emd(h1, h2)

    def test_4d_histograms_rejected(self):
        spec = BinSpec(b_dist=2, b_dir=2, b_relangle=2)
        h = MinutiaeHistogram(spec=spec, dims=4, mass=np.full((2, 2, 2, 4), 1 / 32),
                              normalized=True, pair_count=16)
        with pytest.raises(ValueError, match="defined for 2D histograms"):
            emd(h, h)

    def test_unequal_totals_rejected(self):
        mass1 = np.zeros((10, 10))
        mass1[0, 0] = 3.0
        mass2 = np.zeros((10, 10))
        mass2[0, 0] = 2.0
        with pytest.raises(ValueError, match="total mass"):
            emd(make_hist(mass1, normalized=False), make_hist(mass2, normalized=False))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bin_rejected(self, bad):
        mass = np.full((2, 2), 0.25)
        spoiled = mass.copy()
        spoiled[0, 1] = bad
        for h1, h2 in ((make_hist(spoiled), make_hist(mass)),
                       (make_hist(mass), make_hist(spoiled))):
            with pytest.raises(ValueError, match="finite"):
                emd(h1, h2)

    def test_mixed_normalization_rejected(self):
        mass = np.zeros((10, 10))
        mass[0, 0] = 1.0
        with pytest.raises(ValueError, match="normalized"):
            emd(make_hist(mass, normalized=True), make_hist(mass, normalized=False))

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            h1 = random_normalized_hist(rng, 6, 6)
            h2 = random_normalized_hist(rng, 6, 6)
            assert emd(h1, h2) == pytest.approx(emd(h2, h1), abs=1e-9)

    @pytest.mark.parametrize("e", [1.0, 2.0])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2)],
        ids=["1x1", "1x2", "2x1", "1x3", "3x1", "1x4", "4x1", "2x2"])
    def test_matches_brute_force_oracle(self, shape, e):
        # emd and transport_plan solve their own network LP, not
        # solve_transport; check both against vertex enumeration on criterion
        # 1's integer masses (exact under MASS_SCALE) with criterion 1's
        # tolerance.
        rng = np.random.default_rng([18, *shape, int(e)])
        spec = BinSpec(b_dist=shape[0], b_dir=shape[1])
        n = shape[0] * shape[1]
        for _ in range(10):
            params = CostParams(r=rng.uniform(0.1, 3.0), s=rng.uniform(0.1, 3.0), e=e)
            supply = rng.integers(0, 101, n).astype(float)
            supply[0] += 1.0
            demand = rng.multinomial(int(supply.sum()), np.full(n, 1.0 / n)).astype(float)
            h1 = make_hist(supply.reshape(shape), spec, normalized=False)
            h2 = make_hist(demand.reshape(shape), spec, normalized=False)
            cost = build_cost_matrix(spec, params)
            want = brute_force_transport_cost(h1.mass.ravel(), h2.mass.ravel(), cost)
            assert abs(emd(h1, h2, params) - want) <= 1e-9
            assert abs(exact_plan_cost(transport_plan(h1, h2, params), cost) - want) <= 1e-9

    def test_threads_share_the_kept_model_safely(self):
        # Four threads, more than the cores, switch between problems of two
        # params and three targets on emd's two model slots; each value must
        # equal its cold solve.
        rng = np.random.default_rng(23)
        hists = [random_normalized_hist(rng, 6, 6) for _ in range(8)]
        problems = [(h, hists[k % 3], CostParams(e=e))
                    for k, h in enumerate(hists[3:]) for e in (1.0, 2.0)]
        want = []
        for h1, h2, params in problems:
            transport._emd_models.clear()
            want.append(emd(h1, h2, params))
        wrong = []

        def work(offset):
            try:
                for k in range(3 * len(problems)):
                    i = (offset + k) % len(problems)
                    if emd(*problems[i]) != want[i]:
                        wrong.append(i)
            except Exception as exc:  # a thread's exception would be lost
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(transport._emd_models) <= transport._EMD_SLOTS == 2

    def test_rejected_supply_change_drops_the_kept_model(self, monkeypatch):
        # HiGHS reports a rejected bound change by status, not exception.
        # emd's model takes its supplies in one changeColsBounds call:
        # refuse it after two of its changes have reached the model. The
        # half-changed model must go, and later values match the oracle.
        changes = []

        class RefusesOnce(transport._Highs):
            def changeColsBounds(self, count, columns, lower, upper):
                changes.append(count)
                if len(changes) == 1:
                    assert count > 2
                    super().changeColsBounds(2, columns[:2], lower[:2], upper[:2])
                    return transport.HighsStatus.kError
                return super().changeColsBounds(count, columns, lower, upper)

        monkeypatch.setattr(transport, "_Highs", RefusesOnce)
        transport._emd_models.clear()
        rng = np.random.default_rng(24)
        params = CostParams(1.0, 2.0, 2.0)
        h1, h2, h3 = (random_normalized_hist(rng, 6, 6) for _ in range(3))
        emd(h3, h2, params)  # a fresh model is built with its supplies
        with pytest.raises(RuntimeError, match="rejected the supplies"):
            emd(h1, h2, params)
        assert changes and transport._emd_models == {}
        cost = build_cost_matrix(h1.spec, params)
        for a, b in ((h3, h2), (h1, h2)):
            want = linprog_transport_cost(a.mass.ravel(), b.mass.ravel(), cost)
            assert emd(a, b, params) == want
        transport._emd_models.clear()

    @pytest.mark.parametrize("e", [1.0, 2.0])
    def test_infeasible_flow_is_rejected(self, monkeypatch, e):
        # A solution with one unit of flow moved to another arc no longer
        # meets the supplies: every solver must refuse it, and emd must drop
        # the model it was read from.
        class Shifted(transport._Highs):
            def getSolution(self):
                solution = super().getSolution()
                flow = list(solution.col_value)
                k = next(i for i, f in enumerate(flow) if f >= 1)
                flow[k] -= 1
                flow[k - 1] += 1
                solution.col_value = flow
                return solution

        monkeypatch.setattr(transport, "_Highs", Shifted)
        transport._emd_models.clear()
        rng = np.random.default_rng(25)
        h1, h2 = (random_normalized_hist(rng, 4, 4) for _ in range(2))
        params = CostParams(1.0, 2.0, e)
        with pytest.raises(RuntimeError, match="does not meet the supplies"):
            emd(h1, h2, params)
        assert transport._emd_models == {}
        with pytest.raises(RuntimeError, match="does not meet the supplies"):
            transport_plan(h1, h2, params)
        with pytest.raises(RuntimeError, match="does not meet the supplies"):
            solve_transport(h1.mass, h2.mass, build_cost_matrix(h1.spec, params))

    @pytest.mark.parametrize("solver", ["emd", "transport_plan", "solve_transport"])
    def test_rejected_option_raises(self, monkeypatch, solver):
        # A model that fails to build is not kept; the next emd builds one
        # with the real binding and matches the oracle.
        class NoOptions(transport._Highs):
            def setOptionValue(self, name, value):
                return transport.HighsStatus.kError

        rng = np.random.default_rng(26)
        h1, h2 = (random_normalized_hist(rng, 4, 4) for _ in range(2))
        params = CostParams(1.0, 2.0, 2.0)
        cost = build_cost_matrix(h1.spec, params)
        solve = {"emd": lambda: emd(h1, h2, params),
                 "transport_plan": lambda: transport_plan(h1, h2, params),
                 "solve_transport": lambda: solve_transport(h1.mass, h2.mass, cost)}[solver]
        monkeypatch.setattr(transport, "_Highs", NoOptions)
        transport._emd_models.clear()
        with pytest.raises(RuntimeError, match="output_flag"):
            solve()
        assert transport._emd_models == {}
        monkeypatch.undo()
        assert emd(h1, h2, params) == linprog_transport_cost(h1.mass.ravel(), h2.mass.ravel(),
                                                             cost)

    @staticmethod
    def _solvers(h1, h2, params):
        cost = build_cost_matrix(h1.spec, params)
        return {"emd": lambda: emd(h1, h2, params),
                "transport_plan": lambda: transport_plan(h1, h2, params),
                "solve_transport": lambda: solve_transport(h1.mass, h2.mass, cost)}

    @pytest.mark.parametrize("solver", ["emd", "transport_plan", "solve_transport"])
    def test_rejected_model_raises(self, monkeypatch, solver):
        # A binding that refuses the model: the error says so and no model
        # is kept.
        class NoModel(transport._Highs):
            def passModel(self, lp):
                return transport.HighsStatus.kError

        rng = np.random.default_rng(27)
        h1, h2 = (random_normalized_hist(rng, 4, 4) for _ in range(2))
        solve = self._solvers(h1, h2, CostParams(1.0, 2.0, 2.0))[solver]
        monkeypatch.setattr(transport, "_Highs", NoModel)
        transport._emd_models.clear()
        with pytest.raises(RuntimeError, match="^transportation model rejected by HiGHS$"):
            solve()
        assert transport._emd_models == {}

    @pytest.mark.parametrize("solver", ["emd", "transport_plan", "solve_transport"])
    def test_every_option_reaches_the_model(self, monkeypatch, solver):
        # _FlowModel is the only builder of a HiGHS model, so each solver's
        # model gets the whole table, in order, and keeps the values set.
        models = []

        class Recording(transport._Highs):
            def __init__(self):
                super().__init__()
                self.options = []
                models.append(self)

            def setOptionValue(self, name, value):
                self.options.append((name, value))
                return super().setOptionValue(name, value)

        rng = np.random.default_rng(28)
        h1, h2 = (random_normalized_hist(rng, 4, 4) for _ in range(2))
        params = CostParams(1.0, 2.0, 2.0)
        monkeypatch.setattr(transport, "_Highs", Recording)
        transport._emd_models.clear()
        self._solvers(h1, h2, params)[solver]()
        assert len(models) == 1
        assert models[0].options == list(transport.HIGHS_OPTIONS)
        for name, value in transport.HIGHS_OPTIONS:
            assert models[0].getOptionValue(name) == (transport.HighsStatus.kOk, value)
        if solver == "emd":
            assert [m.highs for m in transport._emd_models.values()] == [models[0]]
        transport._emd_models.clear()

    @pytest.mark.parametrize("solver", ["emd", "transport_plan", "solve_transport"])
    @pytest.mark.parametrize("refused", [name for name, _ in transport.HIGHS_OPTIONS])
    def test_each_option_status_is_checked(self, monkeypatch, solver, refused):
        # A binding that refuses one option: the error names it and no
        # model is kept.
        class RefusesOne(transport._Highs):
            def setOptionValue(self, name, value):
                if name == refused:
                    return transport.HighsStatus.kError
                return super().setOptionValue(name, value)

        rng = np.random.default_rng(29)
        h1, h2 = (random_normalized_hist(rng, 4, 4) for _ in range(2))
        solve = self._solvers(h1, h2, CostParams(1.0, 2.0, 1.0))[solver]
        monkeypatch.setattr(transport, "_Highs", RefusesOne)
        transport._emd_models.clear()
        with pytest.raises(RuntimeError, match=f"rejected the option {refused}$"):
            solve()
        assert transport._emd_models == {}

    def test_plans_do_not_evict_the_kept_model(self):
        # Refine alternates transport_plan and emd on one (spec, params);
        # its speed relies on emd finding its model kept.
        rng = np.random.default_rng(27)
        h1, h2, h3 = (random_normalized_hist(rng, 5, 5) for _ in range(3))
        params = CostParams(1.0, 2.0, 2.0)
        transport._emd_models.clear()
        emd(h1, h2, params)
        (kept,) = transport._emd_models.values()
        transport_plan(h3, h2, params)
        solve_transport(h3.mass, h2.mass, build_cost_matrix(h1.spec, params))
        emd(h3, h2, params)
        assert list(transport._emd_models.values()) == [kept]

    @pytest.mark.parametrize("solver", ["emd", "transport_plan"])
    def test_a_fresh_model_is_built_with_its_supplies(self, monkeypatch, solver):
        # One rule builds or reuses a model: a fresh one gets its supplies
        # from passModel, and only a reused one changes bounds. emd's models
        # take theirs as injection column bounds, all in one call, and
        # plans as row bounds, one call per node.
        changes = []

        class Recording(transport._Highs):
            def changeRowBounds(self, row, lower, upper):
                changes.append("row")
                return super().changeRowBounds(row, lower, upper)

            def changeColsBounds(self, count, columns, lower, upper):
                changes.append("columns")
                return super().changeColsBounds(count, columns, lower, upper)

        rng = np.random.default_rng(33)
        h1, h2, h3 = (random_normalized_hist(rng, 6, 6) for _ in range(3))
        params = CostParams(1.0, 2.0, 2.0)
        monkeypatch.setattr(transport, "_Highs", Recording)
        transport._emd_models.clear()
        if solver == "emd":
            emd(h1, h2, params)
            assert changes == []
            assert emd(h3, h2, params) == transport_plan(h3, h2, params).total_cost
            assert changes == ["columns"]
        else:
            _, model = transport._plan(h1, h2, params, None)
            assert changes == []
            transport._plan(h3, h2, params, model)
            assert len(changes) > 1 and set(changes) == {"row"}
        transport._emd_models.clear()

    def test_a_plan_reads_the_solution_once(self, monkeypatch):
        reads = []

        class Recording(transport._Highs):
            def getSolution(self):
                reads.append(self)
                return super().getSolution()

        rng = np.random.default_rng(34)
        h1, h2, h3 = (random_normalized_hist(rng, 5, 5) for _ in range(3))
        monkeypatch.setattr(transport, "_Highs", Recording)
        _, model = transport._plan(h1, h2, CostParams(), None)
        assert len(reads) == 1
        second, _ = transport._plan(h3, h2, CostParams(), model)
        assert len(reads) == 2 and reads[1] is reads[0]
        assert second.lower_bound.potentials is not None

    @pytest.mark.parametrize("held", [False, True])
    def test_interrupted_solve_leaves_no_kept_model(self, monkeypatch, held):
        # An interrupt inside HiGHS leaves the model at an unknown basis: it
        # propagates, the model is not kept, and the next value is exact.
        # The model of another target, in the other slot, stays.
        class Interruptible(transport._Highs):
            interrupt = False

            def run(self):
                if Interruptible.interrupt:
                    raise KeyboardInterrupt
                return super().run()

        rng = np.random.default_rng(35)
        h1, h2, h3 = (random_normalized_hist(rng, 6, 6) for _ in range(3))
        params = CostParams(1.0, 2.0, 2.0)
        monkeypatch.setattr(transport, "_Highs", Interruptible)
        transport._emd_models.clear()
        if held:
            emd(h3, h1, params)
            emd(h1, h2, params)
            assert len(transport._emd_models) == 2
        other = transport._emd_models.get(h1.mass.tobytes())
        Interruptible.interrupt = True
        with pytest.raises(KeyboardInterrupt):
            emd(h3, h2, params)
        assert list(transport._emd_models.values()) == ([other] if held else [])
        Interruptible.interrupt = False
        cost = build_cost_matrix(h1.spec, params)
        assert emd(h3, h2, params) == linprog_transport_cost(h3.mass.ravel(), h2.mass.ravel(),
                                                             cost)
        transport._emd_models.clear()

    @pytest.mark.parametrize("change", ["params", "spec"])
    def test_a_model_of_another_network_is_not_reused(self, change):
        # Given a model of another (spec, params), _plan solves on a fresh
        # model and returns transport_plan's plan; the given model keeps
        # its supplies.
        rng = np.random.default_rng(30)
        h1, h2 = (random_normalized_hist(rng, 4, 5) for _ in range(2))
        _, model = transport._plan(h1, h2, CostParams(), None)
        supplies = model.b_eq.copy()
        if change == "params":
            args = (h2, h1, CostParams(1.0, 2.0, 1.0))
        else:
            args = (make_hist(h2.mass.T), make_hist(h1.mass.T), CostParams())
        plan, fresh = transport._plan(*args, model)
        assert fresh is not model and fresh.network == (args[0].spec, args[2])
        assert np.array_equal(model.b_eq, supplies)
        assert plan == transport_plan(*args)
        assert plan.total_cost == emd(*args)

    def test_a_plan_passes_its_model_on_once(self):
        # _plan returns the model it solved on, and the next _plan
        # re-supplies that model; a plan that needs no solve returns the
        # model it was given.
        rng = np.random.default_rng(31)
        h1, h2, h3 = (random_normalized_hist(rng, 5, 5) for _ in range(3))
        params = CostParams()
        first, model = transport._plan(h1, h3, params, None)
        second, again = transport._plan(h2, h3, params, model)
        assert again is model
        assert np.array_equal(model.b_eq, transport._node_supplies(h2, h3, params)[1])
        assert second.total_cost == emd(h2, h3)
        same, kept = transport._plan(h3, h3, params, model)
        assert kept is model and same.total_cost == 0.0
        third, fresh = transport._plan(h1, h3, params, None)
        assert fresh is not model
        assert third == transport_plan(h1, h3) == first

    @pytest.mark.parametrize("shape, params", [
        ((10, 10), CostParams()), ((4, 7), CostParams(e=2.0)), ((6, 5), CostParams(0.5, 2.0, 1.0))],
        ids=["10x10-e1", "4x7-e2", "6x5-r!=s"])
    def test_plans_of_chained_column_solves(self, shape, params):
        # Refine chains its solves on one column-form model and builds each
        # plan from the solution of the solve that scored its histogram.
        # Each such plan costs exactly the EMD, the dense optimum and the
        # linprog reference, and its potentials bound every EMD to the same
        # target, tightly at its own histogram.
        rng = np.random.default_rng([37, *shape])
        target, *hists = (random_normalized_hist(rng, *shape) for _ in range(6))
        network, cost = (target.spec, params), build_cost_matrix(target.spec, params)
        model = first = None
        for h in hists:
            b_eq = transport._node_supplies(h, target, params)[1]
            model, solved = transport._solve(network, b_eq, model, columns=True)
            first = first or model
            plan = transport._plan_of(h, target, params, solved)
            solved_emd = emd(h, target, params)
            assert exact_plan_cost(plan, cost) == plan.total_cost == solved_emd
            assert solved_emd == solve_transport(h.mass, target.mass, cost).total_cost
            assert solved_emd == linprog_transport_cost(h.mass.ravel(), target.mass.ravel(), cost)
            for other in (*hists, target):
                assert plan.lower_bound(other) <= emd(other, target, params)
            assert abs(plan.lower_bound(h) - solved_emd) <= 1e-12 * solved_emd
        assert model is first and model.column is not None

    def test_failed_warm_solve_drops_the_model(self):
        # A failed solve leaves no trusted basis: _plan raises, returns no
        # model and keeps none, and a fresh model gives the plan.
        rng = np.random.default_rng(32)
        h1, h2, h3 = (random_normalized_hist(rng, 6, 6) for _ in range(3))
        params = CostParams(1.0, 2.0, 2.0)
        _, model = transport._plan(h1, h3, params, None)
        model.highs.setOptionValue("simplex_iteration_limit", 0)
        with pytest.raises(RuntimeError, match="transportation solve failed"):
            transport._plan(h2, h3, params, model)
        failed = weakref.ref(model)
        del model
        gc.collect()
        assert failed() is None
        again, _ = transport._plan(h2, h3, params, None)
        assert again == transport_plan(h2, h3, params)
        assert again.total_cost == emd(h2, h3, params)

    def test_kept_plans_hold_no_solver_state(self):
        # A plan is its flow, total_cost and lower_bound: keeping plans
        # keeps no HiGHS model. Once the chain's model is dropped it is
        # freed, and no _FlowModel can be reached from the plans.
        rng = np.random.default_rng(36)
        params = CostParams(e=2.0)
        target = random_normalized_hist(rng)
        plans, model = [], None
        for _ in range(100):
            plan, model = transport._plan(random_normalized_hist(rng), target, params, model)
            plans.append(plan)
        plans.append(transport_plan(random_normalized_hist(rng), target, params))
        chained = weakref.ref(model)
        del model
        gc.collect()
        assert chained() is None
        seen, reachable = set(), list(plans)
        while reachable:
            obj = reachable.pop()
            # Classes and modules lead to every global, emd's models among them.
            if id(obj) in seen or isinstance(obj, (type, type(transport))):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, transport._FlowModel)
            reachable.extend(gc.get_referents(obj))
        assert all(plan.total_cost > 0 and plan.lower_bound.potentials is not None
                   for plan in plans)

    def test_triangle_inequality_e1(self):
        rng = np.random.default_rng(17)
        params = CostParams(e=1.0)
        for _ in range(5):
            a, b, c = (random_normalized_hist(rng, 5, 5) for _ in range(3))
            ab, bc, ac = emd(a, b, params), emd(b, c, params), emd(a, c, params)
            assert ac <= ab + bc + 1e-7



def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestStackSupplies:
    """A stack of source masses against one target is checked, scaled and
    bounded in one pass; every row must give what the per-pair loop of
    tests/oracles.py gives for it alone, bit for bit."""

    @staticmethod
    def _rows(rng, target, k):
        """k random sparse rows of unit mass, the target itself, the target
        moved by less than a scaled unit (equal scaled marginals), and the
        same with that move on an entry where the target is 0 (the scaled
        masses agree, the entries of positive mass do not)."""
        shape = target.mass.shape
        rows = rng.random((k, *shape)) * (rng.random((k, *shape)) < 0.5)
        rows[:, 0, 0] += 1e-3
        rows /= rows.sum(axis=(1, 2), keepdims=True)
        nudged, stray = target.mass.copy(), target.mass.copy()
        nudged[np.unravel_index(np.argmax(nudged), shape)] += 1e-13
        stray[np.unravel_index(np.argmin(stray), shape)] += 1e-13
        return np.concatenate([rows, [target.mass, nudged, stray]])

    @pytest.mark.parametrize("spec, params", [
        (BinSpec(), CostParams()),
        (BinSpec(b_dist=4, b_dir=7), CostParams(e=2.0)),
        (BinSpec(b_dist=6, b_dir=5), CostParams(r=0.5, s=2.0)),
        (BinSpec(b_dist=5, b_dir=3), CostParams(r=2.0, s=0.5, e=2.0)),
    ], ids=["10x10-e1", "4x7-e2", "6x5-s!=r", "5x3-s!=r-e2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_the_loop(self, spec, params, seed):
        rng = np.random.default_rng([seed, spec.b_dist, spec.b_dir])
        mass = rng.random((spec.b_dist, spec.b_dir)) * (rng.random((spec.b_dist, spec.b_dir)) < 0.6)
        mass[-1, -1] = 0.0
        mass[0, 0] += 1e-3
        target = make_hist(mass / mass.sum(), spec)
        masses = self._rows(rng, target, 8)
        hists = [make_hist(m, spec) for m in masses]
        src, dst, supplies, solve = transport._stack_supplies(
            masses.reshape(len(masses), -1), hists[0], target, params)
        assert supplies.shape == (len(masses), transport._flow_network(spec, params)[0])
        bound = transport_plan(hists[0], target, params).lower_bound
        assert bound.potentials is not None
        bounds = bound.bounds(supplies, solve)
        for i, h in enumerate(hists):
            marginals, b_eq = loop_node_supplies(h, target, params)
            assert solve[i] == (b_eq is not None)
            if b_eq is not None:
                assert _bits(supplies[i]) == _bits(b_eq)
            # The one-row cases.
            got_marginals, got_b_eq = transport._node_supplies(h, target, params)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(got_marginals, marginals))
            assert _bits(got_b_eq if b_eq is not None else []) == _bits(
                b_eq if b_eq is not None else [])
            want = loop_dual_bound(bound, h)
            assert _bits(bounds[i]) == _bits(bound(h)) == _bits(want)
        # The target itself, the nudged target and the stray entry.
        assert solve.tolist()[-3:] == [False, False, True]
        assert (bounds[~solve] == 0).all()

    @pytest.mark.parametrize("tiny", [4e-10, 6e-10])
    def test_rows_of_zero_mass(self, tiny):
        # Raw masses against a target of 4e-10 (0 units) or 6e-10 (1 unit)
        # at one entry: a row of zero mass needs no solve. Where a row rounds
        # to more units than the target, the target's first entry of
        # positive mass takes the difference, and where to fewer, the row's.
        spec, params = BinSpec(b_dist=3, b_dir=4), CostParams()
        target_mass = np.zeros((3, 4))
        target_mass[1, 2] = tiny
        target = make_hist(target_mass, spec, normalized=False)
        masses = np.zeros((5, 3, 4))
        masses[1] = target_mass
        masses[2, 0, 1] = 4e-10
        masses[3, 2, 3] = 1e-9
        masses[4, 0, 1] = masses[4, 0, 2] = 3e-10
        hists = [make_hist(m, spec, normalized=False) for m in masses]
        _, _, supplies, solve = transport._stack_supplies(
            masses.reshape(5, -1), hists[0], target, params)
        for i, h in enumerate(hists):
            marginals, b_eq = loop_node_supplies(h, target, params)
            assert solve[i] == (b_eq is not None)
            if b_eq is not None:
                assert _bits(supplies[i]) == _bits(b_eq)
            assert (transport._node_supplies(h, target, params)[0] is None) == (marginals is None)
        assert solve.tolist() == [False, False, True, True, True]
        assert supplies[3, 11] == 1 and supplies[3, 6] == -1
        assert supplies[2, 1] == (tiny > 5e-10)

    @staticmethod
    def _message(h, target, params):
        with pytest.raises(ValueError) as alone:
            loop_node_supplies(h, target, params)
        return str(alone.value)

    @pytest.mark.parametrize("bad", [("negative", "unbalanced"), ("unbalanced", "negative"),
                                     ("unbalanced", "double"), ("double", "unbalanced"),
                                     ("inf", "negative"), ("huge", "nan")])
    def test_first_of_two_bad_rows_raises(self, bad):
        spec, params = BinSpec(b_dist=4, b_dir=4), CostParams()
        rng = np.random.default_rng(3)
        target = random_normalized_hist(rng, 4, 4)
        masses = np.stack([random_normalized_hist(rng, 4, 4).mass for _ in range(6)])
        edits = {"negative": lambda m: m.__setitem__((1, 1), -m[1, 1]),
                 "unbalanced": lambda m: m.__imul__(1.5),
                 "double": lambda m: m.__imul__(2.0),
                 "nan": lambda m: m.__setitem__((0, 3), np.nan),
                 "inf": lambda m: m.__setitem__((2, 0), np.inf),
                 "huge": lambda m: m.__imul__(1e16)}
        edits[bad[0]](masses[2])
        edits[bad[1]](masses[4])
        first = self._message(make_hist(masses[2], spec), target, params)
        assert first != self._message(make_hist(masses[4], spec), target, params)
        with pytest.raises(ValueError) as stacked:
            transport._stack_supplies(masses.reshape(6, -1), target, target, params)
        assert str(stacked.value) == first

    def test_a_row_whose_difference_has_no_target_entry(self):
        # Against a target of zero mass, a row of 1e-9 passes the balance
        # check but scales to 1 unit, which no target entry can take: it
        # raises what _integer_marginals raises, before a later bad row, and
        # after an earlier one.
        spec, params = BinSpec(b_dist=2, b_dir=2), CostParams()
        target = make_hist(np.zeros((2, 2)), spec, normalized=False)
        tiny, heavy = np.zeros(4), np.zeros(4)
        tiny[3], heavy[0] = 1e-9, 2.0
        for rows in ([np.zeros(4), tiny, heavy], [np.zeros(4), heavy, tiny]):
            want = self._message(make_hist(rows[1].reshape(2, 2), spec, normalized=False),
                                 target, params)
            with pytest.raises(ValueError) as stacked:
                transport._stack_supplies(np.stack(rows), target, target, params)
            assert str(stacked.value) == want

    def test_an_empty_stack(self):
        target = make_hist(np.full((3, 3), 1 / 9))
        src, dst, supplies, solve = transport._stack_supplies(
            np.zeros((0, 9)), target, target, CostParams())
        assert supplies.shape == (0, 9) and solve.shape == (0,)
        bound = transport_plan(make_hist(np.eye(3) / 3), target).lower_bound
        assert bound.bounds(supplies, solve).shape == (0,)

def test_missing_highs_binding_names_the_scipy_version():
    # A SciPy whose HiGHS binding lacks _Highs, in a fresh interpreter.
    src = str(Path(transport.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, types, scipy.optimize\n"
        "sys.modules['scipy.optimize._highspy._core'] = types.ModuleType('_core')\n"
        "try:\n"
        "    import minhist.transport\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "_Highs" in done.stdout
    assert "SciPy 1.17.1" in done.stdout
