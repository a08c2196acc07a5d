"""Deterministic, locale-independent output helpers.

CSV files always carry a header row, use 12 significant digits for floats,
'.' as the decimal separator and LF line endings.  All writers go through a
temp-file + rename so interrupted runs never leave partial outputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence


def fmt_value(value) -> str:
    """Render a cell: floats at 12 significant digits, anything else as str."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


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
    lines.extend(",".join(fmt_value(v) for v in row) for row in rows)
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_json_atomic(path: str | Path, payload) -> None:
    _atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
