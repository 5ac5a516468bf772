"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N ...: PASS/FAIL" line and then asserts,
so a plain `pytest -v` run doubles as the acceptance report. The heavyweight
desk-scale protocol (criteria 6 and 8) is computed once in a module fixture.
"""

import itertools
import time

import numpy as np
import pytest

from minhist.analysis import DistanceMatrix, bootstrap_neighborhood, mds_embed
from minhist.histogram import BinSpec, MinutiaeHistogram, build_2dmh, build_4dmh, fold_direction_difference
from minhist.identify import access_rate_report, bis, build_index
from minhist.realness import (
    REAL,
    SYNTHETIC,
    TrainConfig,
    average_histogram,
    classify_template,
    emd_difference_score,
    evaluate,
    split_by_finger,
    train,
)
from minhist.refine import OrientationField, RefineConfig, init_template, refine
from minhist.template import Minutia, MinutiaTemplate
from minhist.transport import CostParams, emd, solve_transport

from genpop import make_population, make_template
from oracles import brute_force_transport_cost
from test_analysis import fvc_matrix
from test_histogram import near_bin_edge, random_template, rotate_template
from test_realness import one_hot, simple_model


def report(number, title, ok):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def protocol_population(seed, kind, label, n_fingers=110, n_impressions=8):
    """110 x 8 population with independent impressions per finger."""
    rng = np.random.default_rng(seed)
    out = []
    for f in range(1, n_fingers + 1):
        for imp in range(1, n_impressions + 1):
            out.append(make_template(rng, kind, str(f), str(imp), label))
    return out


EMD_ONLY_CONFIG = TrainConfig(
    split=(40, 30, 40),
    r_grid=(1.0,), s_grid=(1.0,), e_grid=(1.0,),
    w0_grid=(0.0,), w1_grid=(1.0,),
    use_side_features=False,
)


@pytest.fixture(scope="module")
def protocol():
    """Separable and null two-population runs of the I/II/III protocol."""
    started = time.perf_counter()
    real = protocol_population(900, "broad", REAL)
    synth = protocol_population(901, "cluster", SYNTHETIC)
    result = train(real, synth, EMD_ONLY_CONFIG)
    _, _, real3 = split_by_finger(real, EMD_ONLY_CONFIG.split)
    _, _, synth3 = split_by_finger(synth, EMD_ONLY_CONFIG.split)
    separable_accuracy = evaluate(result.model, real3 + synth3).accuracy

    null_a = protocol_population(902, "broad", REAL)
    null_b = protocol_population(903, "broad", SYNTHETIC)
    null_result = train(null_a, null_b, EMD_ONLY_CONFIG)
    _, _, null_a3 = split_by_finger(null_a, EMD_ONLY_CONFIG.split)
    _, _, null_b3 = split_by_finger(null_b, EMD_ONLY_CONFIG.split)
    null_accuracy = evaluate(null_result.model, null_a3 + null_b3).accuracy

    return {
        "model": result.model,
        "real": real,
        "separable_accuracy": separable_accuracy,
        "null_accuracy": null_accuracy,
        "seconds": time.perf_counter() - started,
    }


def test_criterion_01_solver_exactness():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 500:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        supply = rng.integers(0, 101, m).astype(float)
        total = int(supply.sum())
        if total == 0:
            continue
        demand = rng.multinomial(total, np.full(n, 1.0 / n)).astype(float)
        cost = np.round(rng.uniform(0.0, 10.0, (m, n)), 3)
        got = solve_transport(supply, demand, cost).total_cost
        want = brute_force_transport_cost(supply, demand, cost)
        worst = max(worst, abs(got - want))
        checked += 1
    elapsed = time.perf_counter() - started
    report("1", "solver exactness vs brute force", worst <= 1e-9 and elapsed < 10.0)


def test_criterion_02_metric_axioms():
    rng = np.random.default_rng(1002)
    spec = BinSpec()
    hists = []
    for _ in range(200):
        mass = rng.random((10, 10)) * (rng.random((10, 10)) < 0.4)
        if mass.sum() == 0:
            mass[0, 0] = 1.0
        hists.append(MinutiaeHistogram(spec=spec, dims=2, mass=mass / mass.sum(),
                                       normalized=True, pair_count=1))
    params = CostParams(e=1.0)
    cache = {}

    def d(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = emd(hists[i], hists[j], params)
        return cache[(i, j)]

    symmetric = True
    triangle = True
    for _ in range(60):
        i, j, k = rng.choice(200, size=3, replace=False)
        if abs(d(i, j) - d(j, i)) > 1e-9:
            symmetric = False
        if d(i, k) > d(i, j) + d(j, k) + 1e-7:
            triangle = False
    report("2", "EMD symmetry and triangle inequality", symmetric and triangle)


def test_criterion_03_invariance_suite():
    rng = np.random.default_rng(1003)
    spec2 = BinSpec()
    spec4 = BinSpec(b_dist=10, b_dir=10, b_relangle=12)
    checked = 0
    ok = True
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        t = random_template(rng, n=12, extent=100.0)
        shifted = MinutiaTemplate(
            minutiae=tuple(Minutia(m.x + 200, m.y + 200, m.direction, m.mtype)
                           for m in t.minutiae),
            dpi=500,
        )
        rotated = rotate_template(shifted, float(rng.uniform(0, 360)))
        dx, dy = (float(v) for v in rng.uniform(0, 40, 2))
        translated = MinutiaTemplate(
            minutiae=tuple(
                Minutia(m.x + dx, m.y + dy, m.direction, m.mtype)
                for m in shifted.minutiae
            ),
            dpi=500,
        )
        if any(near_bin_edge(x, spec2) for x in (shifted, rotated, translated)):
            continue  # flagged bin-edge coincidence, excluded by the criterion
        for other in (rotated, translated):
            if not np.array_equal(build_2dmh(shifted, spec2).mass, build_2dmh(other, spec2).mass):
                ok = False
            if not np.array_equal(build_4dmh(shifted, spec4).mass, build_4dmh(other, spec4).mass):
                ok = False
        checked += 1
    report("3", "rotation/translation invariance", ok and checked == 100)


def test_criterion_04_angle_folding_fixtures():
    ok = (
        fold_direction_difference(10.0, 350.0) == 20.0
        and fold_direction_difference(170.0, 190.0) == 20.0
        and fold_direction_difference(90.0, 270.0) == 180.0
    )
    report("4", "angle folding fixtures", ok)


def test_criterion_05_decision_fixtures():
    spec = BinSpec(b_dist=4, b_dir=4)
    h = one_hot(spec, 0)
    model_real_wins = simple_model(
        one_hot(spec, 0, weight=0.34, extra={(1, 0): 0.66}),
        one_hot(spec, 1, weight=0.21, extra={(2, 0): 0.79}),
    )
    model_synth_wins = simple_model(
        one_hot(spec, 1, weight=0.31, extra={(2, 0): 0.69}),
        one_hot(spec, 0, weight=0.39, extra={(1, 0): 0.61}),
    )
    s1 = emd_difference_score(h, model_real_wins)
    s2 = emd_difference_score(h, model_synth_wins)
    ok = (
        abs(s1.emd_real - 0.66) < 1e-9 and abs(s1.emd_synth - 1.79) < 1e-9
        and s1.decision == REAL and s1.a > 0
        and abs(s2.emd_real - 1.69) < 1e-9 and abs(s2.emd_synth - 0.61) < 1e-9
        and s2.decision == SYNTHETIC and s2.a < 0
    )
    report("5", "decision fixtures and sign convention", ok)


def test_criterion_06_protocol_round_trip(protocol):
    ok = (
        protocol["separable_accuracy"] >= 95.0
        and 44.0 <= protocol["null_accuracy"] <= 56.0
        and protocol["seconds"] < 300.0
    )
    print(
        f"  separable {protocol['separable_accuracy']:.1f}%, "
        f"null {protocol['null_accuracy']:.1f}%, {protocol['seconds']:.0f}s"
    )
    report("6", "two-population protocol round trip", ok)


def test_criterion_07_identification_properties():
    rng = np.random.default_rng(1007)
    spec = BinSpec(b_dist=10, b_dir=10, b_relangle=12)

    symmetric_bounded = True
    raw = [
        MinutiaeHistogram(spec=BinSpec(), dims=2,
                          mass=rng.integers(0, 5, (10, 10)).astype(float),
                          normalized=False, pair_count=0)
        for _ in range(200)
    ]
    for _ in range(100):
        i, j = rng.choice(200, size=2, replace=False)
        score = bis(raw[i], raw[j])
        if score != bis(raw[j], raw[i]) or score > min(raw[i].mass.sum(), raw[j].mass.sum()):
            symmetric_bounded = False

    gallery = make_population(905, 100, 2, "broad", None, jitter=0.0)
    index = build_index(gallery, spec)
    queries = [t for t in gallery if t.impression_id == "1"]
    rep = access_rate_report(index, queries)
    retrieval_ok = (
        rep.rank1_percent == 100.0
        and rep.mean_accessed_fraction == pytest.approx(1 / 100, abs=1e-12)
    )

    deletion_ok = True
    for t in queries[:20]:
        full = build_4dmh(t, spec, normalize=False)
        keep = sorted(rng.choice(len(t), size=int(0.8 * len(t)), replace=False))
        reduced = build_4dmh(
            MinutiaTemplate(minutiae=tuple(t.minutiae[i] for i in keep), dpi=500),
            spec, normalize=False,
        )
        if bis(full, reduced) > bis(full, full):
            deletion_ok = False

    report("7", "identification properties", symmetric_bounded and retrieval_ok and deletion_ok)


def test_criterion_08_refiner(protocol):
    model = protocol["model"]
    spec = model.spec
    avg_real = model.avg_real

    rng = np.random.default_rng(1008)
    sample = rng.choice(len(protocol["real"]), size=150, replace=False)
    within = np.array([
        emd(build_2dmh(protocol["real"][i], spec), avg_real, model.params)
        for i in sample
    ])
    threshold = float(np.quantile(within, 0.95))

    strictly_decreasing = True
    classified_real = 0
    for seed in range(20):
        cfg = RefineConfig(
            target=avg_real,
            threshold=threshold,
            max_iters=15,
            rng_seed=seed,
            orientation_field=OrientationField(kind="radial", center=(100.0, 100.0)),
            count_distribution=(25, 30, 35),
            batch_size=8,
            params=model.params,
        )
        result = refine(init_template(cfg), cfg)
        emds = [row.emd for row in result.trace]
        if not all(b < a for a, b in zip(emds, emds[1:])):
            strictly_decreasing = False
        if classify_template(result.template, model).decision == REAL:
            classified_real += 1
    print(f"  threshold {threshold:.3f}, classified real {classified_real}/20")
    report("8", "refiner traces and closed loop",
           strictly_decreasing and classified_real >= 18)


def test_criterion_09_mds():
    tri = DistanceMatrix(labels=["p", "q", "r"],
                         d=np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float))
    res = mds_embed(tri, dims=2)
    fixtures_ok = all(
        abs(np.linalg.norm(res.coords[i] - res.coords[j]) - 1.0) <= 1e-9
        for i, j in itertools.combinations(range(3), 2)
    )
    line = DistanceMatrix(labels=["u", "v", "w"],
                          d=np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float))
    lres = mds_embed(line, dims=2)
    fixtures_ok = fixtures_ok and np.allclose(lres.coords[:, 0], [1, 0, -1], atol=1e-9)

    fvc = mds_embed(fvc_matrix(), dims=2)
    coords = dict(zip(fvc.labels, fvc.coords))
    synthetic = {"D", "H", "L"}
    # a linear separator exists: dim 1 splits the two groups with a margin
    hi = max(coords[l][0] for l in synthetic)
    lo = min(coords[l][0] for l in coords if l not in synthetic)
    separable = hi < 0.0 < lo
    report("9", "MDS fixtures and database separation", fixtures_ok and separable)


def test_criterion_10_bootstrap_coverage():
    rng = np.random.default_rng(1010)
    spec = BinSpec()
    base_rng = np.random.default_rng(906)
    n_base = 35
    center = base_rng.uniform(60.0, 140.0, 2)
    radii = 25.0 * np.sqrt(base_rng.random(n_base))
    angles = base_rng.uniform(0.0, 2 * np.pi, n_base)
    base = center + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    base_dirs = base_rng.uniform(0.0, 360.0, n_base)

    def impression(r):
        pts = np.clip(base + r.normal(0.0, 2.0, base.shape), 0.0, None)
        dirs = (base_dirs + r.normal(0.0, 5.0, n_base)) % 360.0
        return MinutiaTemplate(
            minutiae=tuple(Minutia(float(x), float(y), float(d))
                           for (x, y), d in zip(pts, dirs)),
            dpi=500,
        )

    observed = [build_2dmh(impression(rng), spec) for _ in range(30)]
    nb = bootstrap_neighborhood(observed, alpha=0.1, replicates=500, seed=3)
    mean = average_histogram(observed)
    inside = sum(
        emd(build_2dmh(impression(rng), spec), mean) <= nb.radius
        for _ in range(1000)
    )
    coverage = inside / 1000
    print(f"  radius {nb.radius:.4f}, coverage {coverage:.3f}")
    report("10", "bootstrap coverage", coverage >= 1 - 0.1 - 0.05)
