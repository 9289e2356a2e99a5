"""Key/value report documents with a stable line schema.

Every command prints one report: schema version first, mode second, the
input digest third, then mode-specific lines, and the timing line last, so
that everything above the timing line is byte-stable for identical input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

SCHEMA_VERSION = 2


def input_digest(data: bytes) -> str:
    """Hex SHA-256 of the raw input bytes, echoed in every report."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class Report:
    mode: str
    digest: str
    lines: list = field(default_factory=list)

    def add(self, key: str, value, indent: int = 0) -> None:
        self.lines.append(f"{'  ' * indent}{key}: {value}")

    def add_raw(self, text: str, indent: int = 0) -> None:
        self.lines.append(f"{'  ' * indent}{text}")

    def render(self, time_ms: int) -> str:
        head = [
            f"schema-version: {SCHEMA_VERSION}",
            f"mode: {self.mode}",
            f"input-sha256: {self.digest}",
        ]
        return "\n".join(head + self.lines + [f"time-ms: {time_ms}"]) + "\n"
