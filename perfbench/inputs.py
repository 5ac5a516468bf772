"""Seeded generation of the benchmark's template populations.

The two geometry kinds follow the test suite's population generator:

* "broad":   minutiae uniform over a 200 x 200 pixel window, so pair distances
             fill most distance bins and a 2D histogram has ~90 of 100 bins
             nonzero;
* "cluster": minutiae inside a 25 px disk around a per-finger centre, so pair
             distances stay below 50 px and ~30 bins are nonzero.

The generator is a copy kept inside the benchmark, so that edits to the test
helpers never change the benchmark's inputs. A finger is a base template;
impressions are jittered copies, optionally with random minutiae dropout.
Every value is rounded to the precision written to disk and then parsed back,
so the arrays held here equal what the program reads from the files.
Degenerate templates (fewer than 2 minutiae, or no pair within d_max) are
redrawn: they are kept out of the performance inputs on purpose.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

D_MAX = 200.0

# kind: (mean_ird mean, var_ird mean, bifurcation probability)
KIND_DEFAULTS = {
    "broad": (9.2, 3.3, 0.41),
    "cluster": (7.6, 2.0, 0.30),
}


@dataclass
class Template:
    """One generated template: its file text and the values parsed from it."""

    finger: str
    impression: str
    kind: str
    label: Optional[str]
    xy: np.ndarray  # (n, 2) pixels at 500 DPI
    dirs: np.ndarray  # (n,) degrees in [0, 360)
    bif: np.ndarray  # (n,) bool, True for bifurcation
    mean_ird: float
    var_ird: float
    text: str

    @property
    def filename(self) -> str:
        return f"{self.finger}_{self.impression}.mnt"

    def __len__(self) -> int:
        return len(self.dirs)


def _base_points(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "broad":
        return rng.uniform(0.0, 200.0, size=(n, 2))
    if kind == "cluster":
        center = rng.uniform(60.0, 140.0, size=2)
        radii = 25.0 * np.sqrt(rng.random(n))
        angles = rng.uniform(0.0, 2 * np.pi, n)
        return center + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    raise ValueError(f"unknown population kind {kind!r}")


def _usable(xy: np.ndarray) -> bool:
    if len(xy) < 2:
        return False
    iu, ju = np.triu_indices(len(xy), k=1)
    return bool((np.hypot(*(xy[iu] - xy[ju]).T) <= D_MAX).any())


@dataclass
class Finger:
    kind: str
    points: np.ndarray
    dirs: np.ndarray
    bif: np.ndarray


def make_finger(rng: np.random.Generator, kind: str, n_range: Sequence[int]) -> Finger:
    while True:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        points = _base_points(rng, kind, n)
        if _usable(points):
            break
    return Finger(
        kind=kind,
        points=points,
        dirs=rng.uniform(0.0, 360.0, n),
        bif=rng.random(n) < KIND_DEFAULTS[kind][2],
    )


def make_impression(
    rng: np.random.Generator,
    finger: Finger,
    finger_id: str,
    impression_id: str,
    label: Optional[str],
    jitter: float = 2.0,
    dropout: float = 0.0,
) -> Template:
    """A jittered copy of the finger; each minutia is dropped with
    probability `dropout` (redrawn until at least 8 minutiae and one pair
    within d_max remain)."""
    ird_mean, ird_var, _ = KIND_DEFAULTS[finger.kind]
    while True:
        keep = rng.random(len(finger.dirs)) >= dropout
        points = finger.points[keep] + rng.normal(0.0, jitter, (int(keep.sum()), 2))
        points = np.clip(points, 0.0, None)
        dirs = (finger.dirs[keep] + rng.normal(0.0, 2.5 * jitter, int(keep.sum()))) % 360.0
        if keep.sum() >= min(8, len(keep)) and _usable(points):
            break
    bif = finger.bif[keep]
    mean_ird = f"{max(3.0, rng.normal(ird_mean, 0.4)):.3f}"
    var_ird = f"{max(0.1, rng.normal(ird_var, 0.3)):.3f}"
    lines = ["dpi 500", f"mean_ird {mean_ird}", f"var_ird {var_ird}"]
    if label is not None:
        lines.append(f"label {label}")
    lines += [f"finger {finger_id}", f"impression {impression_id}"]
    rows = [(f"{x:.2f}", f"{y:.2f}", f"{d:.2f}") for (x, y), d in zip(points, dirs)]
    lines += [f"{x} {y} {d} {'B' if b else 'E'}" for (x, y, d), b in zip(rows, bif)]
    return Template(
        finger=finger_id,
        impression=impression_id,
        kind=finger.kind,
        label=label,
        xy=np.array([[float(x), float(y)] for x, y, _ in rows], dtype=float),
        dirs=np.array([float(d) % 360.0 for _, _, d in rows], dtype=float),
        bif=bif.copy(),
        mean_ird=float(mean_ird),
        var_ird=float(var_ird),
        text="\n".join(lines) + "\n",
    )


def write_dir(directory: Path, templates: Sequence[Template]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for t in templates:
        (directory / t.filename).write_text(t.text, encoding="utf-8")


def input_hash(groups: Dict[str, Sequence[Template]], params: dict) -> str:
    """SHA-256 over the workload parameters and every generated file."""
    h = hashlib.sha256(repr(sorted(params.items())).encode())
    for name in sorted(groups):
        for t in sorted(groups[name], key=lambda t: t.filename):
            h.update(f"{name}/{t.filename}\n".encode())
            h.update(t.text.encode())
    return h.hexdigest()


def count_stats(templates: List[Template]) -> dict:
    counts = np.array([len(t) for t in templates])
    return {
        "templates": int(len(templates)),
        "minutiae_p50": float(np.median(counts)),
        "minutiae_max": int(counts.max()),
    }
