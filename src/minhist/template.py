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

import csv
import numbers
import sys
from dataclasses import dataclass, is_dataclass, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

ENDING = "ending"
BIFURCATION = "bifurcation"
UNKNOWN = "unknown"

# Provenance labels: the two classes of the test of realness.
REAL = "real"
SYNTHETIC = "synthetic"

_TYPE_LETTERS = {"E": ENDING, "B": BIFURCATION, "U": UNKNOWN}
_LETTER_OF_TYPE = {v: k for k, v in _TYPE_LETTERS.items()}


class TemplateParseError(ValueError):
    """Malformed template text; message names the offending line."""


# The checks every template field, payload and config value goes through.
# Each returns the value it accepts and raises ValueError naming `name`
# otherwise. JSON true and false are not numbers, and strings are never
# parsed.

_INF = float("inf")
_FLOAT_MAX = sys.float_info.max


def _real(value, name: str, minimum=None, positive: bool = False):
    """A finite real number, >= `minimum` if given and > 0 if `positive`."""
    # A plain float, the common case, skips the abstract type checks.
    if ((type(value) is float or not isinstance(value, bool) and isinstance(value, numbers.Real))
            and -_INF < value < _INF
            and (minimum is None or value >= minimum) and (not positive or value > 0)):
        return value
    bound = " > 0" if positive else "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def _int(value, name: str, minimum: int):
    """An integer >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _mod(angle, period: float):
    """angle modulo period, in [0, period): the float remainder of a tiny
    negative angle rounds up to period itself, which wraps to 0.0."""
    angle %= period
    return 0.0 if angle == period else angle


def _token(value, name: str) -> str:
    """An id: it is written as one header token, and '#' starts a comment."""
    if not (isinstance(value, str) and value.split() == [value] and "#" not in value):
        raise ValueError(f"{name} must be one token without '#', got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _numbers(values, name: str, integer: bool = False) -> np.ndarray:
    """A list of JSON numbers (integers only, if `integer`) as an int64 or
    float array. One pass over the element types, so no element is upcast."""
    kinds = {int} if integer else {int, float}
    if isinstance(values, list) and set(map(type, values)) <= kinds:
        try:
            return np.array(values, dtype=np.int64 if integer else float)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a list of {'integers' if integer else 'numbers'}")


def _object(value, name: str, keys) -> dict:
    """A JSON object with exactly the keys `keys`: a tuple of names, or a
    dataclass whose field names they are."""
    if is_dataclass(keys):
        keys = tuple(f.name for f in dataclass_fields(keys))
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    if value.keys() != set(keys):
        raise ValueError(f"{name} must have exactly the keys {', '.join(keys)},"
                         f" got {', '.join(map(str, value)) or 'none'}")
    return value


@dataclass(frozen=True)
class Minutia:
    """A single minutia: position in pixels, direction in degrees, type."""

    x: float
    y: float
    direction: float
    mtype: str = UNKNOWN

    def __post_init__(self) -> None:
        _real(self.x, "minutia x", minimum=0)
        _real(self.y, "minutia y", minimum=0)
        direction = _mod(_real(self.direction, "minutia direction"), 360.0)
        object.__setattr__(self, "direction", direction)
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
        _int(self.dpi, "dpi", 1)
        # Rescaling divides by the dpi as a float.
        if self.dpi > _FLOAT_MAX:
            raise ValueError(f"dpi must be at most {_FLOAT_MAX:.6g}, the largest float")
        if self.mean_ird is not None:
            _real(self.mean_ird, "mean_ird", positive=True)
        if self.var_ird is not None:
            _real(self.var_ird, "var_ird", minimum=0)
        if self.label is not None and self.label not in (REAL, SYNTHETIC):
            raise ValueError(f"label must be {REAL!r} or {SYNTHETIC!r}, got {self.label!r}")
        for key, value in (("finger", self.finger_id), ("impression", self.impression_id)):
            if value is not None:
                _token(value, key)
        # Every value rescale_to_500dpi scales must pass its check there too.
        factor = 500.0 / self.dpi
        if factor != 1.0:
            for axis in ("x", "y"):
                top = max((getattr(m, axis) for m in self.minutiae), default=0.0)
                _real(top * factor, f"minutia {axis} at 500 dpi", minimum=0)
            if self.mean_ird is not None:
                _real(self.mean_ird * factor, "mean_ird at 500 dpi", positive=True)
            if self.var_ird is not None:
                _real(self.var_ird * factor * factor, "var_ird at 500 dpi", minimum=0)

    def __len__(self) -> int:
        return len(self.minutiae)

    @property
    def template_id(self) -> str:
        finger = self.finger_id if self.finger_id is not None else "?"
        impression = self.impression_id if self.impression_id is not None else "?"
        return f"{finger}_{impression}"


# The header lines: key -> (template field, token parser), in the order
# serialize_template writes them. Range rules are the constructor's.
_HEADER = {
    "dpi": ("dpi", int),
    "mean_ird": ("mean_ird", float),
    "var_ird": ("var_ird", float),
    "label": ("label", str),
    "finger": ("finger_id", str),
    "impression": ("impression_id", str),
}


def parse_template(text: str) -> MinutiaTemplate:
    """Parse the template text format into a validated MinutiaTemplate.

    Before the first minutia, a line that starts with a word is a header
    line, and an unknown header field is ignored; a known one given twice
    raises. Minutiae order is
    preserved. One leading byte order mark (U+FEFF) is dropped.
    Raises TemplateParseError naming the line number on malformed input.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    header: dict = {}
    minutiae: List[Minutia] = []
    seen_minutiae = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not seen_minutiae and fields[0].isidentifier() and not _looks_numeric(fields[0]):
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
    if key not in _HEADER:
        return  # unknown header field, ignored
    if len(fields) != 2:
        raise TemplateParseError(f"line {lineno}: '{key}' expects exactly one value")
    name, parse = _HEADER[key]
    if name in header:
        raise TemplateParseError(f"line {lineno}: '{key}' is given more than once")
    try:
        header[name] = parse(fields[1])
    except ValueError as exc:
        raise TemplateParseError(f"line {lineno}: {exc}") from exc


def _parse_minutia_line(fields: List[str], lineno: int) -> Minutia:
    if len(fields) != 4:
        raise TemplateParseError(
            f"line {lineno}: expected 'x y direction type', got {len(fields)} fields"
        )
    try:
        x, y, direction = float(fields[0]), float(fields[1]), float(fields[2])
        letter = fields[3].upper()
        if letter not in _TYPE_LETTERS:
            raise ValueError(f"minutia type must be E, B or U, got {fields[3]!r}")
        return Minutia(x=x, y=y, direction=direction, mtype=_TYPE_LETTERS[letter])
    except ValueError as exc:
        raise TemplateParseError(f"line {lineno}: {exc}") from exc


def serialize_template(t: MinutiaTemplate) -> str:
    """Render a template back into the text format (parse round-trips)."""
    lines = []
    for key, (name, _) in _HEADER.items():
        value = getattr(t, name)
        if value is not None:
            lines.append(f"{key} {value}")
    for m in t.minutiae:
        lines.append(f"{m.x} {m.y} {m.direction} {_LETTER_OF_TYPE[m.mtype]}")
    return "\n".join(lines) + "\n"


def rescale_to_500dpi(t: MinutiaTemplate) -> MinutiaTemplate:
    """Rescale coordinates and interridge scalars to a 500 DPI print.

    Coordinates and mean_ird scale by 500/dpi, var_ird by (500/dpi)^2,
    directions are unchanged. Idempotent on its own output; the histogram
    builders and the realness side features call it themselves.
    """
    factor = 500.0 / t.dpi
    if factor == 1.0:
        return t
    minutiae = tuple(replace(m, x=m.x * factor, y=m.y * factor) for m in t.minutiae)
    return replace(
        t,
        minutiae=minutiae,
        dpi=500,
        mean_ird=None if t.mean_ird is None else t.mean_ird * factor,
        var_ird=None if t.var_ird is None else t.var_ird * factor * factor,
    )


def bifurcation_percentage(t: MinutiaTemplate) -> float:
    """Percentage of bifurcations among the typed minutiae, in [0, 100]."""
    typed = [m for m in t.minutiae if m.mtype != UNKNOWN]
    if not typed:
        raise ValueError("no typed minutiae")
    n_bif = sum(1 for m in typed if m.mtype == BIFURCATION)
    return 100.0 * n_bif / len(typed)


def load_template(path: Path | str) -> MinutiaTemplate:
    """Read one template file; finger/impression ids default from the filename
    <finger>_<impression>.mnt. A malformed file or id is a TemplateParseError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TemplateParseError(f"not UTF-8 text: {exc}") from exc
    t = parse_template(text)
    if (t.finger_id is None or t.impression_id is None) and "_" in path.stem:
        finger, impression = path.stem.rsplit("_", 1)
        try:
            t = replace(t, finger_id=finger if t.finger_id is None else t.finger_id,
                        impression_id=impression if t.impression_id is None else t.impression_id)
        except ValueError as exc:
            raise TemplateParseError(f"{exc} (from the file name)") from exc
    return t


def save_template(t: MinutiaTemplate, path: Path | str) -> None:
    Path(path).write_text(serialize_template(t), encoding="utf-8")


def _write_csv(path: Path | str, rows: Iterable[Sequence]) -> None:
    """Write rows, each a sequence of cells, as a UTF-8 CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def load_directory(directory: Path | str) -> List[MinutiaTemplate]:
    """Load every *.mnt file in a directory, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    templates = []
    for path in sorted(directory.glob("*.mnt")):
        try:
            templates.append(load_template(path))
        except TemplateParseError as exc:
            raise TemplateParseError(f"{path.name}: {exc}") from exc
    return templates
