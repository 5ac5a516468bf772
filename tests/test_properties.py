"""Property tests: the histogram builders against the pair-loop oracle, the
laws of the EMD against the dense transportation LP and `linprog`, and the
transport plan built from the EMD's flow network."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minhist.histogram import (
    IDENTIFICATION_SPEC,
    BinSpec,
    MinutiaeHistogram,
    TooFewMinutiaeError,
    _Pairs,
    build_2dmh,
    build_4dmh,
)
from minhist import transport
from minhist.refine import RefineConfig, _deletion_weights
from minhist.template import BIFURCATION, ENDING, Minutia, MinutiaTemplate
from minhist.transport import (
    MASS_SCALE,
    CostParams,
    TransportPlan,
    build_cost_matrix,
    emd,
    solve_transport,
    transport_plan,
)

from oracles import exact_plan_cost, linprog_transport_cost, loop_histograms

# At most 55 pairs, so some bin of every spec stays empty.
# Coordinates on a 10 px grid put pair distances on d_max (200 = 120-160-200)
# and on distance bin edges; the four axis directions give alpha = 0, 90, 180.
COORDS = st.one_of(
    st.integers(0, 25).map(lambda k: 10.0 * k),
    st.floats(0.0, 250.0, allow_nan=False, allow_infinity=False),
)
DIRECTIONS = st.one_of(
    st.sampled_from([0.0, 90.0, 180.0, 270.0]),
    st.floats(0.0, 360.0, exclude_max=True, allow_nan=False),
)
MINUTIAE = st.builds(
    Minutia, COORDS, COORDS, DIRECTIONS, st.sampled_from([ENDING, BIFURCATION])
)
TEMPLATES = st.lists(MINUTIAE, min_size=2, max_size=11).map(
    lambda ms: MinutiaTemplate(minutiae=tuple(ms), dpi=500)
)
ODD_SPEC = BinSpec(d_max=150.0, b_dist=7, b_dir=9, b_relangle=11)
SPECS = st.sampled_from([BinSpec(), IDENTIFICATION_SPEC, ODD_SPEC])
# Pairs at exactly 200 and 150 px from the origin minutia, and alpha = 180.
ON_EDGES = MinutiaTemplate(
    minutiae=tuple(
        Minutia(x, y, a, mtype)
        for x, y, a, mtype in [
            (0.0, 0.0, 0.0, ENDING), (200.0, 0.0, 180.0, BIFURCATION),
            (120.0, 160.0, 90.0, ENDING), (150.0, 0.0, 270.0, BIFURCATION),
            (90.0, 120.0, 0.0, ENDING), (0.0, 40.0, 180.0, ENDING),
        ]
    ),
    dpi=500,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=TEMPLATES, spec=SPECS)
@example(t=ON_EDGES, spec=BinSpec())
@example(t=ON_EDGES, spec=ODD_SPEC)
def test_builders_equal_pair_loop(t, spec):
    mass2, mass4, pairs = loop_histograms(t, spec)

    h2 = build_2dmh(t, spec, normalize=False)
    assert np.array_equal(h2.mass, mass2)
    assert h2.pair_count == len(pairs)
    h4 = build_4dmh(t, spec)
    assert np.array_equal(h4.mass, mass4)
    assert h4.pair_count == len(pairs)
    if pairs:
        assert np.array_equal(build_2dmh(t, spec).mass, mass2 / len(pairs))

    # A flow out of one bin is blamed on the pairs in that bin, each pair
    # crediting both members, so the blame sums to twice the bin's cost.
    n_bins = spec.b_dist * spec.b_dir
    uniform = np.full((spec.b_dist, spec.b_dir), 1.0 / n_bins)
    target = MinutiaeHistogram(spec=spec, dims=2, mass=uniform, normalized=True, pair_count=1)
    cfg = RefineConfig(target=target, threshold=1.0)
    cost = build_cost_matrix(spec, cfg.params)
    occupied = {di * spec.b_dir + ai for _, _, di, ai in pairs}
    for b in sorted(occupied) + [next(b for b in range(n_bins) if b not in occupied)]:
        sink = n_bins - 1 if b == 0 else 0
        plan = TransportPlan(flow={(b, sink): 0.5}, total_cost=0.5 * cost[b, sink])
        weights = _deletion_weights(_Pairs.of(t, spec), plan, cfg)
        members = {m for i, j, di, ai in pairs if di * spec.b_dir + ai == b for m in (i, j)}
        assert set(np.flatnonzero(weights)) == members
        assert weights.sum() == pytest.approx(2 * plan.total_cost if members else 0.0)


# A one-minutia move: ("add", _, m) appends m, ("delete", k, _) deletes
# minutia k % n while more than 2 are left, ("flip", k, _) turns minutia
# k % n by 180 degrees and ("replace", k, m) puts m in its place.
MOVES = st.lists(st.tuples(st.sampled_from(["add", "delete", "flip", "replace"]),
                           st.integers(0, 11), MINUTIAE), min_size=1, max_size=4)
# Only minutiae 0 and 1 are within d_max of each other: deleting either
# leaves no pair.
ONE_PAIR = MinutiaTemplate(minutiae=(Minutia(0.0, 0.0, 0.0), Minutia(10.0, 0.0, 180.0),
                                     Minutia(1000.0, 1000.0, 45.0)), dpi=500)


def _move(t, kind, k, m):
    """(template after the move, (k, m) for _Pairs.moved)."""
    minutiae, n = list(t.minutiae), len(t)
    if kind == "add":
        return replace(t, minutiae=(*minutiae, m)), (n, m)
    k %= n
    if kind == "delete" and n > 2:
        del minutiae[k]
        return replace(t, minutiae=tuple(minutiae)), (k, None)
    if kind != "replace":
        m = replace(minutiae[k], direction=(minutiae[k].direction + 180.0) % 360.0)
    minutiae[k] = m
    return replace(t, minutiae=tuple(minutiae)), (k, m)


# A move re-bins only the moved minutia's pairs; each move's histogram, from
# the pairs of the template before it, is build_2dmh of the moved template
# bit for bit. Coordinates are in the template's dpi: at 250 DPI
# the grid points of COORDS lie 2x as far apart at 500 DPI, at 1000 and 333
# DPI closer.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=TEMPLATES, dpi=st.sampled_from([500, 250, 1000, 333]), spec=SPECS, moves=MOVES)
@example(t=ON_EDGES, dpi=500, spec=BinSpec(),
         moves=[("add", 6, Minutia(200.0, 0.0, 180.0)), ("flip", 0, None),
                ("delete", 1, None), ("replace", 2, Minutia(0.0, 200.0, 0.0))])
@example(t=ON_EDGES, dpi=500, spec=ODD_SPEC,
         moves=[("add", 0, Minutia(150.0, 0.0, 0.0)), ("flip", 4, None), ("delete", 0, None)])
@example(t=ON_EDGES, dpi=250, spec=BinSpec(),
         moves=[("add", 6, Minutia(100.0, 0.0, 180.0)), ("flip", 0, None)])
@example(t=ONE_PAIR, dpi=500, spec=BinSpec(), moves=[("delete", 0, None)])
@example(t=ONE_PAIR, dpi=500, spec=BinSpec(),
         moves=[("delete", 1, None), ("add", 0, Minutia(0.0, 40.0, 90.0))])
@example(t=ONE_PAIR, dpi=250, spec=BinSpec(),
         moves=[("delete", 0, None), ("flip", 2, None), ("delete", 1, None),
                ("add", 0, Minutia(500.0, 500.0, 0.0)), ("replace", 2, Minutia(0.0, 30.0, 10.0))])
def test_one_minutia_moves_equal_the_builder(t, dpi, spec, moves):
    t = replace(t, dpi=dpi)
    # The moves from t as one batch: row by row, build_2dmh's raw counts and
    # pair count of that move's template, and its normalized bits where it
    # has a pair.
    batch = [_move(t, kind, k, m) for kind, k, m in moves]
    counts, pair_counts = _Pairs.of(t, spec).moved_counts([move for _, move in batch])
    assert counts.shape == (len(moves), spec.b_dist * spec.b_dir)
    for (moved, _), row, pair_count in zip(batch, counts, pair_counts):
        raw = build_2dmh(moved, spec, normalize=False)
        assert row.astype(float).tobytes() == raw.mass.tobytes()
        assert pair_count == raw.pair_count
        if pair_count:
            assert (row / pair_count).tobytes() == build_2dmh(moved, spec).mass.tobytes()
    # One move at a time, each from the template the one before it gives.
    for kind, k, m in moves:
        pairs = _Pairs.of(t, spec)
        t, move = _move(t, kind, k, m)
        try:
            want = build_2dmh(t, spec)
        except TooFewMinutiaeError:  # no pair left
            with pytest.raises(TooFewMinutiaeError):
                pairs.moved(*move)
            continue
        got = pairs.moved(*move)
        assert got.mass.tobytes() == want.mass.tobytes()
        assert (got.pair_count, got.normalized) == (want.pair_count, want.normalized)


# Normalized 2D histograms on specs from 1x1 to 10x10, sparse (mostly empty
# bins) or dense, and the cost parameters the training grid uses.
SHAPES = st.tuples(st.integers(1, 10), st.integers(1, 10))
UNIT_COSTS = st.sampled_from([0.5, 1.0, 2.0])
PARAMS = st.builds(CostParams, UNIT_COSTS, UNIT_COSTS, st.sampled_from([1.0, 2.0]))


def _masses(shape):
    dense = st.floats(0.01, 1.0)
    sparse = st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), dense)
    return st.one_of(
        hnp.arrays(float, shape, elements=dense),
        hnp.arrays(float, shape, elements=sparse).filter(lambda m: m.sum() > 0),
    )


def _histograms(k):
    def build(shape):
        spec = BinSpec(b_dist=shape[0], b_dir=shape[1])
        return st.tuples(*[_masses(shape) for _ in range(k)]).map(lambda masses: [
            MinutiaeHistogram(spec=spec, dims=2, mass=m / m.sum(), normalized=True,
                              pair_count=1)
            for m in masses
        ])
    return SHAPES.flatmap(build)


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want) + 1e-15


# Both paths return the correctly rounded exact optimum, so at the grid's
# cost parameters they agree bit for bit (the 1e-12 law, made exact).
@settings(max_examples=300, deadline=None, derandomize=True)
@given(hists=_histograms(2), params=PARAMS)
def test_emd_equals_dense_lp(hists, params):
    h1, h2 = hists
    cost = build_cost_matrix(h1.spec, params)
    want = solve_transport(h1.mass.ravel(), h2.mass.ravel(), cost).total_cost
    assert emd(h1, h2, params) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hists=_histograms(2), params=PARAMS)
def test_emd_symmetric_and_zero_on_itself(hists, params):
    h1, h2 = hists
    assert _close(emd(h2, h1, params), emd(h1, h2, params))
    assert emd(h1, h1, params) == 0.0
    assert emd(h2, h2, params) == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hists=_histograms(3), r=UNIT_COSTS, s=UNIT_COSTS)
def test_emd_triangle_inequality_at_e1(hists, r, s):
    # At e = 2 the ground cost is not a metric, so the law is not asserted.
    a, b, c = hists
    params = CostParams(r, s, 1.0)
    assert emd(a, c, params) <= emd(a, b, params) + emd(b, c, params) + 1e-12


# train scales EMDs between cost grid points of equal r/s by this law, for
# any factor c and exponent e whose arc costs stay inside the cost range.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(hists=_histograms(2), r=UNIT_COSTS, s=UNIT_COSTS,
       e=st.sampled_from([1.0, 1.5, 2.0]), c=st.floats(0.25, 4.0))
def test_emd_homogeneous_in_unit_costs(hists, r, s, e, c):
    h1, h2 = hists
    scaled = CostParams(c * r, c * s, e)
    assert _close(emd(h1, h2, scaled), c ** e * emd(h1, h2, CostParams(r, s, e)))


# linprog's dense LP, summed exactly, gives the same bits as both paths.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(hists=_histograms(2), params=PARAMS)
def test_both_paths_equal_linprog(hists, params):
    h1, h2 = hists
    cost = build_cost_matrix(h1.spec, params)
    want = linprog_transport_cost(h1.mass.ravel(), h2.mass.ravel(), cost)
    assert emd(h1, h2, params) == want
    assert solve_transport(h1.mass.ravel(), h2.mass.ravel(), cost).total_cost == want


@st.composite
def _tied_problems(draw):
    """A dense transportation problem full of ties: all-zero or small-integer
    costs, and marginals that are uniform or two splits of one list of small
    integers, so partial sums of supply and demand coincide (degenerate
    vertices)."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        supply, demand = np.full(m, float(n)), np.full(n, float(m))
    else:
        pieces = draw(st.lists(st.integers(1, 3), min_size=max(m, n, 2), max_size=12))

        def split(k):
            cuts = draw(st.lists(st.integers(1, len(pieces) - 1), min_size=k - 1,
                                 max_size=k - 1, unique=True))
            return np.add.reduceat(np.array(pieces, dtype=float), [0, *sorted(cuts)])
        supply, demand = split(m), split(n)
    if draw(st.booleans()):
        cost = np.zeros((m, n))
    else:
        cost = np.array(draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)),
                        dtype=float).reshape(m, n)
    return supply, demand, cost


# On degenerate problems the dual simplex may end on any optimal vertex; each
# is a basic plan that meets both marginals at the optimum of linprog.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(problem=_tied_problems())
def test_solve_transport_basic_on_tied_costs(problem):
    supply, demand, cost = problem
    plan = solve_transport(supply, demand, cost)
    assert len(plan.flow) <= supply.size + demand.size - 1
    out, into = np.zeros(supply.size, np.int64), np.zeros(demand.size, np.int64)
    for (i, j), mass in plan.flow.items():
        assert mass > 0
        out[i] += round(mass * MASS_SCALE)
        into[j] += round(mass * MASS_SCALE)
    _, s_int, _, d_int = transport._integer_marginals(supply, demand)
    assert np.array_equal(out, s_int) and np.array_equal(into, d_int)
    assert plan.total_cost == linprog_transport_cost(supply, demand, cost)


# emd restarts from the basis of whatever its model of the target, or the
# model it takes over, solved last; the value must not depend on that,
# whether the last solve had other masses, other params or another spec, or
# there was none.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(hists=_histograms(4), params=PARAMS, other_params=PARAMS, other_spec=_histograms(2))
def test_emd_independent_of_earlier_solves(hists, params, other_params, other_spec):
    a, b, c, d = hists
    transport._emd_models.clear()
    cold = emd(a, b, params)
    for before in ([(c, d, params)], [(c, d, other_params)],
                   [(*other_spec, params), (c, d, params)], [(b, a, params)]):
        for h1, h2, p in before:
            emd(h1, h2, p)
        assert emd(a, b, params) == cold


def _random_hist(rng, spec):
    mass = rng.random((spec.b_dist, spec.b_dir)) * (rng.random((spec.b_dist, spec.b_dir)) < 0.7)
    mass[0, 0] += 0.01
    return MinutiaeHistogram(spec=spec, dims=2, mass=mass / mass.sum(), normalized=True,
                             pair_count=1)


def test_emd_equals_a_cold_solve_after_any_interleaving():
    # emd's two slots hold models of its last targets. Over seeded call
    # sequences that mix three targets per spec, two specs and e = 1 and 2,
    # with runs of one target and constant switching, every value has the
    # bits of a cold solve, and no more than two models are ever held.
    rng = np.random.default_rng(60)
    problems = []
    for spec in (BinSpec(b_dist=5, b_dir=6), BinSpec(b_dist=4, b_dir=7)):
        targets = [_random_hist(rng, spec) for _ in range(3)]
        sources = [_random_hist(rng, spec) for _ in range(3)]
        for e in (1.0, 2.0):
            params = CostParams(r=float(rng.uniform(0.5, 2.0)), s=float(rng.uniform(0.5, 2.0)),
                                e=e)
            problems += [(h, t, params) for h in sources for t in targets]
    cold = []
    for problem in problems:
        transport._emd_models.clear()
        cold.append(emd(*problem).hex())
    orders = [rng.permutation(len(problems)), rng.integers(0, len(problems), 3 * len(problems)),
              np.repeat(rng.permutation(len(problems)), 2), np.arange(len(problems))[::-1]]
    for order in orders:
        for i in order.tolist():
            assert emd(*problems[i]).hex() == cold[i]
            assert len(transport._emd_models) <= 2
    transport._emd_models.clear()


def test_classify_bits_independent_of_earlier_calls():
    # A classify solves to avg_real and then avg_synth, each on its own
    # slot. Its EMDs and fused score must have the same bits alone, after
    # other templates, after EMDs to other targets, params and specs, and
    # in any order of templates.
    from genpop import make_population
    from minhist.realness import SIDE_FEATURES, ClassModel, average_histogram, classify_template

    spec = BinSpec()
    real = make_population(61, 3, 2, "broad", None)
    synth = make_population(62, 3, 2, "cluster", None)
    model = ClassModel(
        avg_real=average_histogram([build_2dmh(t, spec) for t in real[:3]]),
        avg_synth=average_histogram([build_2dmh(t, spec) for t in synth[:3]]),
        weights=(0.1, 1.0, -0.5, 0.25, 0.01),
        feature_norms={name: (1.0, 2.0) for name in SIDE_FEATURES},
        params=CostParams(r=1.0, s=2.0, e=2.0), spec=spec)
    probes = real[3:] + synth[3:]

    def bits(t):
        score = classify_template(t, model)
        return score.emd_real.hex(), score.emd_synth.hex(), score.fused.hex()

    want = []
    for t in probes:
        transport._emd_models.clear()
        want.append(bits(t))
    rng = np.random.default_rng(63)
    others = [_random_hist(rng, spec) for _ in range(3)]
    odd = BinSpec(b_dist=4, b_dir=5)
    for _ in range(3):
        for i in rng.permutation(len(probes)).tolist():
            for h1, h2, params in ((others[0], others[1], model.params),
                                   (others[2], model.avg_real, CostParams(e=1.0)),
                                   (_random_hist(rng, odd), _random_hist(rng, odd), model.params),
                                   (others[1], model.avg_synth, model.params)):
                if rng.random() < 0.5:
                    emd(h1, h2, params)
            assert bits(probes[i]) == want[i]
            assert len(transport._emd_models) <= 2
    transport._emd_models.clear()


def _normalized(mass):
    mass = np.asarray(mass, dtype=float)
    spec = BinSpec(b_dist=mass.shape[0], b_dir=mass.shape[1])
    return MinutiaeHistogram(spec=spec, dims=2, mass=mass / mass.sum(), normalized=True,
                             pair_count=1)


# transport_plan decomposes an optimal flow on emd's network: its masses are
# whole units of 1 / MASS_SCALE with the scaled marginals as sums, its cost
# is the dense optimum, and it does not depend on what was solved before.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(hists=_histograms(2), params=PARAMS, other=_histograms(2), other_params=PARAMS)
@example(hists=[_normalized([[1.0]])] * 2, params=CostParams(1.0, 1.0, 1.0),
         other=[_normalized([[1.0, 2.0]]), _normalized([[2.0, 1.0]])],
         other_params=CostParams(0.5, 2.0, 2.0))
@example(hists=[_normalized([[1.0]])] * 2, params=CostParams(2.0, 0.5, 2.0),
         other=[_normalized([[1.0, 2.0]]), _normalized([[2.0, 1.0]])],
         other_params=CostParams(1.0, 1.0, 1.0))
@example(hists=[_normalized([[3.0, 0.0, 1.0, 0.0, 2.0, 5.0, 0.0]]),
                _normalized([[0.0, 4.0, 0.0, 2.0, 0.0, 1.0, 4.0]])],
         params=CostParams(0.5, 2.0, 1.0),
         other=[_normalized([[1.0], [2.0]]), _normalized([[2.0], [1.0]])],
         other_params=CostParams(0.5, 2.0, 1.0))
@example(hists=[_normalized([[3.0, 0.0, 1.0, 0.0, 2.0, 5.0, 0.0]]),
                _normalized([[0.0, 4.0, 0.0, 2.0, 0.0, 1.0, 4.0]])],
         params=CostParams(2.0, 1.0, 2.0),
         other=[_normalized([[1.0], [2.0]]), _normalized([[2.0], [1.0]])],
         other_params=CostParams(2.0, 1.0, 2.0))
def test_transport_plan_is_exact_optimal_and_history_free(hists, params, other, other_params):
    h1, h2 = hists
    supply, demand = h1.mass.ravel(), h2.mass.ravel()
    plan = transport_plan(h1, h2, params)

    units = {key: round(mass * MASS_SCALE) for key, mass in plan.flow.items()}
    assert all(mass > 0 and mass == units[key] / MASS_SCALE for key, mass in plan.flow.items())
    rows, s_int, cols, d_int = transport._integer_marginals(supply, demand)
    want_out, want_in = np.zeros(supply.size, np.int64), np.zeros(demand.size, np.int64)
    want_out[rows], want_in[cols] = s_int, d_int
    out, into = np.zeros_like(want_out), np.zeros_like(want_in)
    for (i, j), u in units.items():
        out[i] += u
        into[j] += u
    assert np.array_equal(out, want_out) and np.array_equal(into, want_in)

    cost = build_cost_matrix(h1.spec, params)
    dense = solve_transport(supply, demand, cost).total_cost
    assert exact_plan_cost(plan, cost) == dense == plan.total_cost == emd(h1, h2, params)

    for a, b, p in ((*other, other_params), (*other, params), (h2, h1, params)):
        emd(a, b, p)
        transport_plan(a, b, p)
    assert list(transport_plan(h1, h2, params).flow.items()) == list(plan.flow.items())


# The potentials of a plan's solve bound the EMD to the same target from
# below for every histogram (weak duality), and equal it at the solved pair.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(hists=_histograms(3), params=PARAMS)
@example(hists=[_normalized([[3.0, 0.0, 1.0, 0.0], [2.0, 5.0, 0.0, 1.0], [0.0, 1.0, 1.0, 4.0]]),
                _normalized([[0.0, 4.0, 0.0, 2.0], [0.0, 1.0, 4.0, 0.0], [1.0, 0.0, 2.0, 1.0]]),
                _normalized([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0], [2.0, 0.0, 0.0, 5.0]])],
         params=CostParams(0.7, 1.3, 1.0))
@example(hists=[_normalized([[3.0, 0.0, 1.0, 0.0], [2.0, 5.0, 0.0, 1.0], [0.0, 1.0, 1.0, 4.0]]),
                _normalized([[0.0, 4.0, 0.0, 2.0], [0.0, 1.0, 4.0, 0.0], [1.0, 0.0, 2.0, 1.0]]),
                _normalized([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0], [2.0, 0.0, 0.0, 5.0]])],
         params=CostParams(0.7, 1.3, 2.0))
def test_plan_potentials_bound_every_emd(hists, params):
    h1, h2, target = hists
    bound = transport_plan(h1, target, params).lower_bound
    nearby = _normalized(0.9 * h1.mass + 0.1 * h2.mass)
    for h in (h1, h2, target, nearby):
        assert bound(h) <= emd(h, target, params)
    solved = emd(h1, target, params)
    if solved > 0:
        assert abs(bound(h1) - solved) <= 1e-12 * solved


# A chain of plans, each solved on the model the one before returned, ends
# on an optimal vertex of each problem: a plan costs the EMD, and its
# potentials bound every EMD to the same target, tightly at its own histogram.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(hists=_histograms(4), params=PARAMS)
def test_warm_plans_are_optimal_and_bound_every_emd(hists, params):
    *chain, target = hists
    cost = build_cost_matrix(target.spec, params)
    model = None
    for h in chain:
        plan, model = transport._plan(h, target, params, model)
        solved = emd(h, target, params)
        assert exact_plan_cost(plan, cost) == plan.total_cost == solved
        for other in hists:
            assert plan.lower_bound(other) <= emd(other, target, params)
        if solved > 0:
            assert abs(plan.lower_bound(h) - solved) <= 1e-12 * solved


def test_failed_solve_drops_the_kept_model():
    rng = np.random.default_rng(22)
    spec, params = BinSpec(b_dist=6, b_dir=6), CostParams(1.0, 2.0, 2.0)
    h1, h2, h3 = (MinutiaeHistogram(spec=spec, dims=2, mass=m / m.sum(), normalized=True,
                                    pair_count=1)
                  for m in rng.random((3, 6, 6)))
    transport._emd_models.clear()
    emd(h1, h2, params)
    (model,) = transport._emd_models.values()
    highs = model.highs
    highs.setOptionValue("simplex_iteration_limit", 0)
    with pytest.raises(RuntimeError, match="transportation solve failed"):
        emd(h3, h2, params)
    assert transport._emd_models == {}
    want = linprog_transport_cost(h3.mass.ravel(), h2.mass.ravel(), build_cost_matrix(spec, params))
    assert emd(h3, h2, params) == want
