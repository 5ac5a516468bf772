"""Property tests of the histogram builders against the pair-loop oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minhist.histogram import (
    IDENTIFICATION_SPEC,
    BinSpec,
    MinutiaeHistogram,
    build_2dmh,
    build_4dmh,
)
from minhist.refine import RefineConfig, _deletion_weights
from minhist.template import BIFURCATION, ENDING, Minutia, MinutiaTemplate
from minhist.transport import TransportPlan, build_cost_matrix

from oracles import loop_histograms

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
        weights = _deletion_weights(t, plan, cfg)
        members = {m for i, j, di, ai in pairs if di * spec.b_dir + ai == b for m in (i, j)}
        assert set(np.flatnonzero(weights)) == members
        assert weights.sum() == pytest.approx(2 * plan.total_cost if members else 0.0)
