"""Run manifest: what each pipeline stage read and wrote, with content hashes.

The manifest is the one output that is allowed to differ between otherwise
identical runs (it records wall-clock times); everything it points at must
be byte-identical for equal seeds.  A run hashes each of its files once: an
input that an earlier stage wrote takes the digest recorded for it there, and
an output whose writer hashed it as it wrote takes that digest.  Files are
hashed through ``io._hash_range``, the loop that also hashes a record as it
is written in place.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

__all__ = ["StageRecord", "RunManifest", "file_digest"]


def file_digest(path: str) -> str:
    """Hex SHA-256 of a file's contents."""
    from .io import _hash_range

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        return _hash_range(hashlib.sha256(), fh.fileno(), 0, size, path).hexdigest()


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
        digests: dict[str, str] | None = None,
    ) -> StageRecord:
        """Record a completed stage, hashing its files relative to ``base_dir``.

        An input that an earlier stage recorded as an output takes the digest
        of its latest such record, and an output in ``digests`` (path -> known
        sha256) takes that one; only the other files are read from disk.
        """
        digests = digests or {}
        written = {p: d for stage in self.stages for p, d in stage.outputs.items()}
        record = StageRecord(
            name=name,
            inputs={
                p: written.get(p) or file_digest(os.path.join(base_dir, p))
                for p in input_paths
            },
            outputs={
                p: digests.get(p) or file_digest(os.path.join(base_dir, p))
                for p in output_paths
            },
            wall_clock_s=wall_clock_s,
        )
        self.stages.append(record)
        return record

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        from .io import atomic_write

        atomic_write(path, self.to_json().encode("ascii"))

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        from .io import FileFormatError, _read_json

        obj = _read_json(path)
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FileFormatError(f"{path}: malformed manifest ({exc})") from None
