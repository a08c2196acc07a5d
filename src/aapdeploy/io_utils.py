"""Deterministic, locale-independent output helpers.

CSV files always carry a header row, use 12 significant digits for floats,
'.' as the decimal separator and LF line endings.  All writers go through a
temp-file + rename so interrupted runs never leave partial outputs.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence


@functools.cache
def _row_template(types: tuple[type, ...]) -> str:
    """The %-template of a row whose cells have these types: floats (and
    float subclasses) at 12 significant digits, anything else as str."""
    return ",".join("%.12g" if issubclass(kind, float) else "%s" for kind in types)


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = tuple(row)
        lines.append(_row_template(tuple(map(type, cells))) % cells)
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_json_atomic(path: str | Path, payload) -> None:
    _atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
