"""JSON wire formats for complex matrices and density parameters.

Complex matrices travel as separate real/imaginary 2-D arrays in row-major
order; permutations as 1-based image arrays.  Floats are emitted with
Python's shortest round-trip repr, so serialize-then-parse is bit-exact.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import ValidationError
from .coset import FlagCoordinates, validate_profile
from .density import DensityParameters, Spectrum

# The largest n a parameter document may name.  The library is for dense
# problems of n up to a few hundred; a profile is checked against this
# before anything n x n is built, since a document without levels ties n
# to no array it carries.
MAX_N = 1024


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def _json_array(value, kinds, message):
    """A JSON array, as a tuple, whose entries' exact types are in the set ``kinds`` (no bools).

    Integer entries must fit the array's dtype: a double when ``kinds`` has
    float, else a 64-bit int.  JSON integers have no bound, and one beyond
    it would raise ``OverflowError`` deep in a constructor.
    """
    if isinstance(value, list) and set(map(type, value)) <= kinds:
        try:
            return tuple(np.array(value, dtype=float if float in kinds else np.int64).tolist())
        except OverflowError:
            message += " in range"
    raise ValidationError(f"{message}, got {value!r}", code="BAD_JSON")


def _json_rows(value, name):
    """A JSON array of rows of numbers as a float array, typed by two set passes, not per row."""
    if not (isinstance(value, list) and set(map(type, value)) <= {list}):
        raise ValidationError(f"{name} must be an array of rows", code="BAD_JSON")
    if not set(map(type, chain.from_iterable(value))) <= {int, float}:
        raise ValidationError(f"{name} entries must be numbers", code="BAD_JSON")
    return np.asarray(value, dtype=float)


def matrix_from_json(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ValidationError("matrix document must be an object", code="BAD_JSON")
    try:
        rows, cols = _json_array([doc["rows"], doc["cols"]], {int}, "rows and cols must be integers")
        re, im = _json_rows(doc["re"], "re"), _json_rows(doc["im"], "im")
    except (KeyError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed matrix document: {exc}", code="BAD_JSON")
    if rows < 1 or cols < 1:
        raise ValidationError("rows and cols must be >= 1", code="BAD_SHAPE")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValidationError(
            f"re/im shapes {re.shape}/{im.shape} do not match {rows}x{cols}",
            code="BAD_SHAPE",
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("matrix entries must be finite", code="NOT_FINITE")
    # assigned, not re + 1j * im: that sum turns a -0.0 part into +0.0
    a = np.empty((rows, cols), dtype=complex)
    a.real, a.imag = re, im
    return a


def coords_to_json(coords: FlagCoordinates) -> dict:
    """The ``profile`` and ``levels`` of a parameter document: one chart and X per level."""
    levels = zip(coords.xs, coords.charts)
    return {
        "profile": list(coords.profile),
        "levels": [{"chart": list(sigma), "X": matrix_to_json(x)} for x, sigma in levels],
    }


def params_to_json(params: DensityParameters) -> dict:
    return {**coords_to_json(params.coords), "lambdas": list(params.spectrum.lambdas)}


def params_from_json(doc) -> DensityParameters:
    if not isinstance(doc, dict):
        raise ValidationError("parameter document must be an object", code="BAD_JSON")
    for key in ("profile", "lambdas", "levels"):
        if key not in doc:
            raise ValidationError(f"missing key {key!r}", code="BAD_JSON")
    profile = validate_profile(
        _json_array(doc["profile"], {int}, "profile must be an array of integers")
    )
    n = sum(profile)
    if n > MAX_N:
        raise ValidationError(f"profile gives n = {n}, above MAX_N = {MAX_N}", code="BAD_DIMENSION")
    levels = doc["levels"]
    if not isinstance(levels, list):
        raise ValidationError("levels must be an array", code="BAD_JSON")
    xs, charts = [], []
    for entry in levels:
        if not isinstance(entry, dict) or "chart" not in entry or "X" not in entry:
            raise ValidationError("each level needs 'chart' and 'X'", code="BAD_JSON")
        charts.append(_json_array(entry["chart"], {int}, "chart must be an array of integers"))
        xs.append(matrix_from_json(entry["X"]))
    if charts and len(charts[0]) != n:
        raise ValidationError(
            f"profile {profile} sums to {n} but the outermost level "
            f"has dimension {len(charts[0])}",
            code="PROFILE_SUM",
        )
    coords = FlagCoordinates(profile, tuple(xs), tuple(charts))
    lambdas = _json_array(doc["lambdas"], {int, float}, "lambdas must be an array of numbers")
    return DensityParameters(Spectrum(profile, lambdas), coords)


def dumps(doc) -> str:
    """One line of compact JSON with sorted keys, so the same document gives the same bytes."""
    # JSON has no NaN or Infinity: a non-finite float is a fault, not output
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}", code="BAD_JSON")
