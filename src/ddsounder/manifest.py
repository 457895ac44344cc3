"""Run manifest: what each pipeline stage read and wrote, with content hashes.

The manifest is the one output that is allowed to differ between otherwise
identical runs (it records wall-clock times); everything it points at must
be byte-identical for equal seeds.  A run hashes each of its files once: an
input that an earlier stage wrote takes the digest recorded for it there.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

__all__ = ["StageRecord", "RunManifest", "file_digest"]

_CHUNK = 1 << 20


def file_digest(path: str) -> str:
    """Hex SHA-256 of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


@dataclass
class StageRecord:
    """One pipeline stage: inputs and outputs as path -> sha256 maps."""

    name: str
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    wall_clock_s: float = 0.0


@dataclass
class RunManifest:
    seed: int
    version: str
    config_paths: list[str] = field(default_factory=list)
    stages: list[StageRecord] = field(default_factory=list)

    def add_stage(
        self,
        name: str,
        input_paths: list[str],
        output_paths: list[str],
        wall_clock_s: float,
        base_dir: str = ".",
    ) -> StageRecord:
        """Record a completed stage, hashing its files relative to ``base_dir``.

        An input that an earlier stage recorded as an output takes the digest
        of its latest such record; only the other inputs are read from disk.
        """
        written = {p: d for stage in self.stages for p, d in stage.outputs.items()}
        record = StageRecord(
            name=name,
            inputs={
                p: written.get(p) or file_digest(os.path.join(base_dir, p))
                for p in input_paths
            },
            outputs={p: file_digest(os.path.join(base_dir, p)) for p in output_paths},
            wall_clock_s=wall_clock_s,
        )
        self.stages.append(record)
        return record

    def to_json(self) -> str:
        obj = {
            "seed": self.seed,
            "version": self.version,
            "config_paths": list(self.config_paths),
            "stages": [
                {
                    "name": s.name,
                    "inputs": dict(sorted(s.inputs.items())),
                    "outputs": dict(sorted(s.outputs.items())),
                    "wall_clock_s": s.wall_clock_s,
                }
                for s in self.stages
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        from .io import atomic_write

        atomic_write(path, self.to_json().encode("ascii"))

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        from .io import FileFormatError

        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}: {exc}") from None
        try:
            stages = [
                StageRecord(
                    name=s["name"],
                    inputs=dict(s["inputs"]),
                    outputs=dict(s["outputs"]),
                    wall_clock_s=float(s["wall_clock_s"]),
                )
                for s in obj["stages"]
            ]
            return cls(
                seed=int(obj["seed"]),
                version=str(obj["version"]),
                config_paths=list(obj["config_paths"]),
                stages=stages,
            )
        except (KeyError, TypeError) as exc:
            raise FileFormatError(f"{path}: malformed manifest ({exc})") from None
