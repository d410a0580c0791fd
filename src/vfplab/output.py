"""CSV/JSON writers shared by the library and the command line."""

from __future__ import annotations

import json
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    """17-significant-digit decimal representation; non-finite values as nan/inf/-inf."""
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
