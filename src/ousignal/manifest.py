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

from .noise import _block_sizes

# Bumped whenever the same config and seed stop giving the same bytes; replay
# refuses manifests written under another version.
ARTIFACT_VERSION = "0.10.0"


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


def write_long_csv(path, header: list[str], shared, rows) -> None:
    """Long-format table: for each (key, values) pair of rows, one line per shared[j].

    Line j reads key, shared[j], then values[j] (one float, or a row of them),
    with the bytes of `write_csv`; a key of None writes no key cell. A key's
    lines are written in slices of at most 2**14 values (`_block_sizes`), each
    one %-format call on its slice's template, built once per call. So memory
    holds what rows holds, the templates and one slice's text.
    """
    slices = []
    with _atomic_file(path) as handle:
        handle.write(",".join(header) + "\n")
        for key, values in rows:
            if not slices:  # "\0" keeps the key cell's place; %.17g and fmt round alike
                width, start = len(header) - 1 - (key is not None), 0
                cell = "\0%.17g" if shared.dtype.kind == "f" else "\0%d"
                line = cell + ",%%.17g" * width + "\n"
                for size in _block_sizes(shared.size, width):
                    part = tuple(shared[start:start + size].tolist())
                    start += size
                    slices.append((start * width, line * size % part))
            head, flat, start = "" if key is None else fmt(key) + ",", values.ravel(), 0
            for stop, template in slices:
                handle.write(template.replace("\0", head) % tuple(flat[start:stop].tolist()))
                start = stop


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
