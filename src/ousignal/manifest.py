"""Run manifests and deterministic file output.

Every CLI command records a manifest holding the resolved config text and the
effective argument values, enough to replay the run and obtain byte-identical
CSV outputs. Files are written atomically (temp file + rename) and floats are
serialized with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# Bumped whenever the same config and seed stop giving the same bytes; replay
# refuses manifests written under another version.
ARTIFACT_VERSION = "0.6.0"


def fmt(value) -> str:
    """Canonical cell format: full-precision floats, plain ints and strings."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@contextmanager
def _atomic_file(path):
    """A text handle on a temp file beside path, renamed onto path when the block ends
    (deleted instead if it raises)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_file(path) as handle:
        handle.write(text)


def write_csv(path, header: list[str], rows, trailer: str | None = None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _cells(values) -> list[str]:
    """`fmt` of every entry of a numeric array, by one %-format call over all of them.

    `%.17g` and `f"{v:.17g}"` share Python's correctly rounded conversion, so
    each cell has the bytes `fmt` gives it.
    """
    flat = values.ravel().tolist()
    spec = "%.17g\n" if values.dtype.kind == "f" else "%d\n"
    return (spec * len(flat) % tuple(flat)).split("\n")[:-1]


def write_columns(path, header: list[str], columns) -> None:
    """`write_csv` over the rows of equal-length numeric columns, each formatted by one
    `_cells` call (float columns as %.17g, integer ones as %d), with the same bytes."""
    cells = [_cells(column) for column in columns]
    rows = [",".join(header), *map(",".join, zip(*cells))]
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_long_csv(path, header: list[str], keys, shared, blocks) -> None:
    """Long-format table: one row per pair (keys[i], shared[j]), i major.

    blocks yields the value table in consecutive blocks of rows, one row
    per key. Row (i, j) reads keys[i], shared[j], then table[i, j] (one
    float, or a row of them when the table has a third axis). The bytes
    equal `write_csv` over the same rows. shared is formatted once; each
    key's rows are one %-format call over table[i], through a template that
    holds the shared cells, written to the file as it is made, so memory
    holds one block and one key's text.
    """
    shared = _cells(shared)
    done = 0
    with _atomic_file(path) as handle:
        handle.write(",".join(header) + "\n")
        for block in blocks:
            spec = ",%.17g" * (block.shape[2] if block.ndim == 3 else 1)
            rows = [cell + spec for cell in shared]
            for key, values in zip(_cells(keys[done:done + len(block)]), block):
                head = key + ","
                template = head + ("\n" + head).join(rows) + "\n"
                handle.write(template % tuple(values.ravel().tolist()))
            done += len(block)


@dataclass
class RunManifest:
    """Provenance record of one command invocation."""

    command: str
    config_text: str
    args: dict
    seed: int | None
    outputs: list[str]
    duration_seconds: float
    scenario: dict = field(default_factory=dict)
    artifact_version: str = ARTIFACT_VERSION
    extra: dict = field(default_factory=dict)

    def save(self, path) -> None:
        fields = {name: getattr(self, name) for name in self.__dataclass_fields__}
        atomic_write_text(path, json.dumps(fields, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
