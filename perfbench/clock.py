"""Timing scaled to a reference machine speed.

On a shared machine the speed of one core can change by half for stretches of
seconds to minutes while other tenants load the host: the same inputs then
take 1.5x as long, which swamps any change worth detecting. So every run
also times a fixed calibration probe, at most every PROBE_EVERY_S seconds,
between operations (and between the steps of a stage), and each measured
interval is scaled by

    reference probe time / (median probe time within PROBE_WINDOW_S of it)

Probes also run inside long program calls (`train`, a refiner run, a
bootstrap): while `Clock.probing_solves` is active, every EMD solve the
program starts first gives the clock the chance to probe. Probe time is left
out of scaled and raw times alike.

The probe does the same kinds of work as the program, with code and data that
belong to the benchmark and do not depend on the seed: one exact EMD solved
with SciPy's HiGHS on two fixed histograms and a hundred bin intersections of
fixed 32,000-bin vectors (core speed). A clock made with `stream=True` adds
bin intersections streaming through 8 MB, more than a core's own caches
(shared-cache speed): that sets the pace of a gallery search, and only the
sum of both parts tracks it, while the LP-bound workloads track the core
part best. The probe's LP runs once untimed first, so that what ran before
it (and so the program's cache footprint) barely changes its time.
A change to the program never changes the probe, so it moves scaled times
as it moves raw ones; only the machine's speed at the time is divided out.
PROBE_REF_S is the probe's time on the reference machine (a 2-vCPU Xeon VM
at 2.1 GHz with Python 3.11, NumPy 2.4, SciPy 1.17), so scaled times read as
seconds there. Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import List, Tuple

import numpy as np

import inputs
import reference as ref
from tracing import rebind

SOLVES = (("minhist.transport", "emd"), ("minhist.transport", "transport_plan"))

PROBE_REF_S = {False: 0.0075, True: 0.016}  # by `stream`
STREAM_PASSES = 3
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 0.6


class Clock:
    def __init__(self, stream: bool = False) -> None:
        # (start, timed duration, total duration with the untimed warm-up)
        self.probes: List[Tuple[float, float, float]] = []
        self.ref_s = PROBE_REF_S[stream]
        rng = np.random.default_rng(20130419)
        self._hists = [ref.hist2d(inputs.make_impression(
            rng, inputs.make_finger(rng, "cluster", (40, 40)), "1", "1", None)) for _ in range(2)]
        self._x, self._y = rng.random(32000), rng.random(32000)
        self._big = rng.random((32, 32000)) if stream else None

    def probe(self) -> None:
        h1, h2 = self._hists
        begin = perf_counter()
        ref.emd(h1, h2, (1.0, 1.0, 1.0))
        start = perf_counter()
        ref.emd(h1, h2, (1.0, 1.0, 1.0))
        for _ in range(100):
            float(np.minimum(self._x, self._y).sum())
        if self._big is not None:
            out = np.empty_like(self._big)
            for _ in range(STREAM_PASSES):
                float(np.minimum(self._big, self._x, out=out).sum())
        end = perf_counter()
        self.probes.append((begin, end - start, end - begin))

    def maybe_probe(self) -> None:
        if not self.probes or perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()

    @contextmanager
    def probing_solves(self):
        """Let every EMD solve of the program probe first (if one is due)."""
        def probing(solve):
            @functools.wraps(solve)
            def probed(*args, **kwargs):
                self.maybe_probe()
                return solve(*args, **kwargs)
            return probed

        undo = [u for mod_name, attr in SOLVES for u in rebind(mod_name, attr, probing)]
        try:
            yield
        finally:
            for restore in reversed(undo):
                restore()

    def probe_time(self, since: float, until: float = float("inf")) -> float:
        """Seconds spent in probes that started in [since, until)."""
        return sum(total for s, _, total in self.probes if since <= s < until)

    def factor(self, start: float, end: float) -> float:
        """Reference-speed factor for the interval [start, end]."""
        near = [d for s, d, _ in self.probes
                if start - PROBE_WINDOW_S <= s <= end + PROBE_WINDOW_S]
        if not near:
            near = [min(self.probes, key=lambda p: min(abs(p[0] - start), abs(p[0] - end)))[1]]
        return self.ref_s / median(near)

    def slowdown(self) -> float:
        """Median probe time of the run over the reference probe time."""
        return median(d for _, d, _ in self.probes) / self.ref_s

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] in reference-machine seconds, leaving out
        the probes inside it; each piece between probes is scaled by the
        probes around that piece."""
        total, piece_start = 0.0, start
        for probe_start, _, duration in self.probes:
            if start <= probe_start < end:
                total += (probe_start - piece_start) * self.factor(piece_start, probe_start)
                piece_start = probe_start + duration
        return total + (end - piece_start) * self.factor(piece_start, end)
