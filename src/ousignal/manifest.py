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
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Bumped whenever the same config and seed stop giving the same bytes; replay
# refuses manifests written under another version.
ARTIFACT_VERSION = "0.3.0"


def fmt(value) -> str:
    """Canonical cell format: full-precision floats, plain ints and strings."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: list[str], rows, trailer: str | None = None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    atomic_write_text(path, "\n".join(lines) + "\n")


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
        atomic_write_text(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
