"""Deterministic, locale-independent output helpers.

CSV files always carry a header row, '.' as the decimal separator and LF line
endings.  The CSV writer takes one table, a mapping from column name to
cells in column order, refuses columns of unequal length, and picks each
column's format once: 12 significant digits for floats (float subclasses
included), str for the rest, and that rule cell by cell in a column that
mixes them.  All writers go through a temp file, created under the user's
umask, and a rename, so interrupted runs never leave partial outputs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Sequence


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str | Path, table: Mapping[str, Sequence]) -> None:
    formats, cells = [], []
    for column in table.values():
        floats = {issubclass(kind, float) for kind in set(map(type, column))}
        if floats == {True, False}:
            column = [("%.12g" if isinstance(c, float) else "%s") % c for c in column]
        formats.append("%.12g" if floats == {True} else "%s")
        cells.append(column)
    rows = zip(*cells, strict=True)  # ValueError before any file is made
    lines = [",".join(table), *map(",".join(formats).__mod__, rows)]
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_json_atomic(path: str | Path, payload) -> None:
    _atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
