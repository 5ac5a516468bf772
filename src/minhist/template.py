"""Minutiae template data model, text format parsing and DPI rescaling.

A template is a list of minutiae (position in pixels, direction in degrees,
type) plus per-template scalars: the source image resolution (DPI), the global
mean and variance of interridge distances, and optional provenance labels.

Text format (UTF-8, ``#`` starts a comment line)::

    dpi 500
    mean_ird 9.2          # optional
    var_ird 3.1           # optional
    label real            # optional, "real" or "synthetic"
    finger 17             # optional
    impression 3          # optional
    10.0 20.0 90.0 E      # one minutia per line: x y direction type
    55.0 81.5 310.0 B

Minutia types are E (ending), B (bifurcation) and U (unknown). Directions are
reduced modulo 360 into [0, 360) on parse. Datasets on disk follow the
``<finger>_<impression>.mnt`` naming convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

ENDING = "ending"
BIFURCATION = "bifurcation"
UNKNOWN = "unknown"

# Provenance labels: the two classes of the test of realness.
REAL = "real"
SYNTHETIC = "synthetic"

_TYPE_LETTERS = {"E": ENDING, "B": BIFURCATION, "U": UNKNOWN}
_LETTER_OF_TYPE = {v: k for k, v in _TYPE_LETTERS.items()}

# Plausible range for the global mean interridge distance of adult prints at
# 500 DPI, in pixels. Values outside only raise a warning, never an error.
MEAN_IRD_RANGE_500DPI = (3.0, 25.0)


class TemplateParseError(ValueError):
    """Malformed template text; message names the offending line."""


@dataclass(frozen=True)
class Minutia:
    """A single minutia: position in pixels, direction in degrees, type."""

    x: float
    y: float
    direction: float
    mtype: str = UNKNOWN

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("minutia coordinates must be finite")
        if self.x < 0 or self.y < 0:
            raise ValueError("minutia coordinates must be non-negative")
        if not math.isfinite(self.direction):
            raise ValueError("minutia direction must be finite")
        object.__setattr__(self, "direction", self.direction % 360.0)
        if self.mtype not in (ENDING, BIFURCATION, UNKNOWN):
            raise ValueError(f"unknown minutia type: {self.mtype!r}")


@dataclass(frozen=True)
class MinutiaTemplate:
    """An ordered set of minutiae plus per-template scalar side features."""

    minutiae: Tuple[Minutia, ...]
    dpi: int = 500
    mean_ird: Optional[float] = None
    var_ird: Optional[float] = None
    label: Optional[str] = None
    finger_id: Optional[str] = None
    impression_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "minutiae", tuple(self.minutiae))
        if self.dpi <= 0:
            raise ValueError("dpi must be positive")
        if self.mean_ird is not None and self.mean_ird <= 0:
            raise ValueError("mean_ird must be positive")
        if self.var_ird is not None and self.var_ird < 0:
            raise ValueError("var_ird must be non-negative")
        if self.label is not None and self.label not in (REAL, SYNTHETIC):
            raise ValueError(f"label must be {REAL!r} or {SYNTHETIC!r}, got {self.label!r}")

    def __len__(self) -> int:
        return len(self.minutiae)

    @property
    def template_id(self) -> str:
        finger = self.finger_id if self.finger_id is not None else "?"
        impression = self.impression_id if self.impression_id is not None else "?"
        return f"{finger}_{impression}"


def parse_template(text: str) -> MinutiaTemplate:
    """Parse the template text format into a validated MinutiaTemplate.

    Unknown header fields are ignored. Minutiae order is preserved.
    Raises TemplateParseError naming the line number on malformed input.
    """
    header: dict = {}
    minutiae: List[Minutia] = []
    seen_minutiae = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not seen_minutiae and not _looks_numeric(fields[0]):
            _parse_header_line(fields, header, lineno)
            continue
        seen_minutiae = True
        minutiae.append(_parse_minutia_line(fields, lineno))
    if "dpi" not in header:
        raise TemplateParseError("missing 'dpi' header line")
    try:
        return MinutiaTemplate(minutiae=tuple(minutiae), **header)
    except ValueError as exc:
        raise TemplateParseError(str(exc)) from exc


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_header_line(fields: List[str], header: dict, lineno: int) -> None:
    key = fields[0].lower()
    if len(fields) != 2:
        if key in ("dpi", "mean_ird", "var_ird", "label", "finger", "impression"):
            raise TemplateParseError(f"line {lineno}: '{key}' expects exactly one value")
        return  # unknown header field, ignored
    value = fields[1]
    try:
        if key == "dpi":
            header["dpi"] = int(value)
        elif key == "mean_ird":
            header["mean_ird"] = _finite_float(value)
        elif key == "var_ird":
            header["var_ird"] = _finite_float(value)
        elif key == "label":
            header["label"] = value
        elif key == "finger":
            header["finger_id"] = value
        elif key == "impression":
            header["impression_id"] = value
        # anything else: unknown header field, ignored
    except ValueError as exc:
        raise TemplateParseError(f"line {lineno}: {exc}") from exc


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _parse_minutia_line(fields: List[str], lineno: int) -> Minutia:
    if len(fields) != 4:
        raise TemplateParseError(
            f"line {lineno}: expected 'x y direction type', got {len(fields)} fields"
        )
    try:
        x = _finite_float(fields[0])
        y = _finite_float(fields[1])
        direction = _finite_float(fields[2])
    except ValueError as exc:
        raise TemplateParseError(f"line {lineno}: {exc}") from exc
    letter = fields[3].upper()
    if letter not in _TYPE_LETTERS:
        raise TemplateParseError(f"line {lineno}: minutia type must be E, B or U, got {fields[3]!r}")
    try:
        return Minutia(x=x, y=y, direction=direction, mtype=_TYPE_LETTERS[letter])
    except ValueError as exc:
        raise TemplateParseError(f"line {lineno}: {exc}") from exc


def serialize_template(t: MinutiaTemplate) -> str:
    """Render a template back into the text format (parse round-trips)."""
    lines = [f"dpi {t.dpi}"]
    if t.mean_ird is not None:
        lines.append(f"mean_ird {t.mean_ird!r}")
    if t.var_ird is not None:
        lines.append(f"var_ird {t.var_ird!r}")
    if t.label is not None:
        lines.append(f"label {t.label}")
    if t.finger_id is not None:
        lines.append(f"finger {t.finger_id}")
    if t.impression_id is not None:
        lines.append(f"impression {t.impression_id}")
    for m in t.minutiae:
        lines.append(f"{m.x!r} {m.y!r} {m.direction!r} {_LETTER_OF_TYPE[m.mtype]}")
    return "\n".join(lines) + "\n"


def rescale_to_500dpi(t: MinutiaTemplate) -> MinutiaTemplate:
    """Rescale coordinates and interridge scalars to a 500 DPI print.

    Coordinates and mean_ird scale by 500/dpi, var_ird by (500/dpi)^2,
    directions are unchanged. Idempotent on its own output.
    """
    factor = 500.0 / t.dpi
    if factor == 1.0:
        rescaled = t
    else:
        minutiae = tuple(
            replace(m, x=m.x * factor, y=m.y * factor) for m in t.minutiae
        )
        rescaled = replace(
            t,
            minutiae=minutiae,
            dpi=500,
            mean_ird=None if t.mean_ird is None else t.mean_ird * factor,
            var_ird=None if t.var_ird is None else t.var_ird * factor * factor,
        )
    lo, hi = MEAN_IRD_RANGE_500DPI
    if (
        rescaled.mean_ird is not None
        and rescaled.var_ird is not None
        and not (lo <= rescaled.mean_ird <= hi)
    ):
        warnings.warn(
            f"mean interridge distance {rescaled.mean_ird:.2f} px at 500 DPI is outside "
            f"the plausible range [{lo}, {hi}]",
            stacklevel=2,
        )
    return rescaled


def bifurcation_percentage(t: MinutiaTemplate) -> float:
    """Percentage of bifurcations among the typed minutiae, in [0, 100]."""
    typed = [m for m in t.minutiae if m.mtype != UNKNOWN]
    if not typed:
        raise ValueError("no typed minutiae")
    n_bif = sum(1 for m in typed if m.mtype == BIFURCATION)
    return 100.0 * n_bif / len(typed)


def load_template(path: Path | str) -> MinutiaTemplate:
    """Read one template file; finger/impression ids default from the filename."""
    path = Path(path)
    t = parse_template(path.read_text(encoding="utf-8"))
    if t.finger_id is None or t.impression_id is None:
        stem = path.stem
        if "_" in stem:
            finger, impression = stem.rsplit("_", 1)
            if t.finger_id is None:
                t = replace(t, finger_id=finger)
            if t.impression_id is None:
                t = replace(t, impression_id=impression)
    return t


def save_template(t: MinutiaTemplate, path: Path | str) -> None:
    Path(path).write_text(serialize_template(t), encoding="utf-8")


def load_directory(directory: Path | str, pattern: str = "*.mnt") -> List[MinutiaTemplate]:
    """Load all template files in a directory, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    templates = []
    for path in sorted(directory.glob(pattern)):
        try:
            templates.append(load_template(path))
        except TemplateParseError as exc:
            raise TemplateParseError(f"{path.name}: {exc}") from exc
    return templates
