"""CSV/JSON writers shared by the library and the command line."""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

from .errors import VfpError


def fmt_float(x: float) -> str:
    """17-significant-digit decimal representation; non-finite values as nan/inf/-inf."""
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row) + "\n")


def _finite(value) -> bool:
    """Whether every float in a payload is finite: a walk, so no report is held as text."""
    if isinstance(value, (dict, list, tuple)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, float) or math.isfinite(value)


def write_json(path: str, payload: dict) -> None:
    """Strict JSON: a non-finite number raises VfpError before the file is opened."""
    if not _finite(payload):
        raise VfpError(f"{path} would hold a non-finite number, which JSON cannot")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
