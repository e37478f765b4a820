"""Deterministic CSV and JSON serialization.

All floats are written with 17 significant digits (``%.17g``), which
round-trips IEEE doubles exactly; CSV files use LF line endings and no
locale formatting; JSON objects are emitted with sorted keys.  Identical
inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable

__all__ = ["format_float", "json_dumps", "write_csv"]

TRAJECTORY_HEADER = ("t", "w", "wprime")
CURVE_HEADER = ("t", "lambda", "u0", "monitor")
TURNING_HEADER = ("t_star", "lambda_star", "u0_star", "direction")
PROFILE_HEADER = ("r", "u")


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering of a float; ``nan``, ``inf`` and
    ``-inf`` for the non-finite values (a NaN of either sign is ``nan``)."""
    return "%.17g" % x


def _emit(obj, pieces: list[str]) -> None:
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        # non-finite values are not valid JSON numbers; quote them
        pieces.append(format_float(obj) if math.isfinite(obj) else json.dumps(format_float(obj)))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _emit(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def write_csv(stream: IO[str], header: Iterable[str], rows: Iterable[tuple]) -> None:
    """Write rows of floats/strings with the fixed float format and LF endings."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(
            ",".join(format_float(x) if isinstance(x, float) else str(x) for x in row)
            + "\n"
        )
