"""Manifest tests: content hashing, digest reuse, serialization."""

import hashlib
import os

import pytest

from ddsounder import manifest
from ddsounder.io import FileFormatError
from ddsounder.manifest import RunManifest, file_digest


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "config.ini").write_text("[sounder]\n")
    (tmp_path / "record.bin").write_bytes(b"\x01\x02\x03")
    (tmp_path / "grid.bin").write_bytes(b"\x04\x05")
    (tmp_path / "peaks.json").write_text("{}\n")
    return tmp_path


def _chain(tree):
    """simulate -> process -> analyze over the fixture files."""
    m = RunManifest(seed=42, version="0.1.0", config_paths=["config.ini"])
    base = str(tree)
    m.add_stage("simulate", [], ["record.bin"], 1.0, base_dir=base)
    m.add_stage("process", ["config.ini", "record.bin"], ["grid.bin"], 2.0, base_dir=base)
    m.add_stage("analyze", ["grid.bin"], ["peaks.json"], 3.0, base_dir=base)
    return m


class TestDigest:
    def test_matches_hashlib(self, tree):
        path = tree / "record.bin"
        assert file_digest(str(path)) == hashlib.sha256(b"\x01\x02\x03").hexdigest()

    def test_missing_file_raises(self, tree):
        with pytest.raises(OSError):
            file_digest(str(tree / "nope.bin"))


class TestDigestReuse:
    def test_input_written_earlier_takes_its_recorded_digest(self, tree, monkeypatch):
        """record.bin and grid.bin are hashed once, as outputs; config.ini,
        which no stage wrote, is hashed from disk as process's input."""
        hashed = []

        def counting_digest(path):
            hashed.append(os.path.basename(path))
            return file_digest(path)

        monkeypatch.setattr(manifest, "file_digest", counting_digest)
        m = _chain(tree)
        assert sorted(hashed) == ["config.ini", "grid.bin", "peaks.json", "record.bin"]
        assert m.stages[1].inputs["record.bin"] == m.stages[0].outputs["record.bin"]
        assert m.stages[2].inputs["grid.bin"] == m.stages[1].outputs["grid.bin"]

    def test_latest_writer_wins(self, tree):
        m = _chain(tree)
        (tree / "grid.bin").write_bytes(b"rewritten")
        m.add_stage("rewrite", [], ["grid.bin"], 1.0, base_dir=str(tree))
        stage = m.add_stage("plot", ["grid.bin"], [], 1.0, base_dir=str(tree))
        assert stage.inputs["grid.bin"] == hashlib.sha256(b"rewritten").hexdigest()


class TestSerialization:
    def test_round_trip(self, tree, tmp_path):
        m = _chain(tree)
        path = str(tmp_path / "manifest.json")
        m.save(path)
        back = RunManifest.load(path)
        assert back.seed == 42
        assert back.version == "0.1.0"
        assert back.config_paths == ["config.ini"]
        assert [s.name for s in back.stages] == ["simulate", "process", "analyze"]
        assert back.stages[1].inputs == m.stages[1].inputs
        assert back.stages[2].wall_clock_s == 3.0

    def test_json_is_stable(self, tree):
        assert _chain(tree).to_json() == _chain(tree).to_json()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("not json at all")
        with pytest.raises(FileFormatError):
            RunManifest.load(str(path))

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"seed": 1}\n')
        with pytest.raises(FileFormatError):
            RunManifest.load(str(path))

    @pytest.mark.parametrize(
        "old,new",
        [
            (b"{", b"\xff{"),
            (b'"seed": 42', b'"seed": "x"'),
            (b'"wall_clock_s": 1.0', b'"wall_clock_s": "slow"'),
        ],
        ids=["not-utf8", "seed", "wall-clock"],
    )
    def test_load_names_the_bad_file(self, tree, tmp_path, old, new):
        path = tmp_path / "manifest.json"
        text = _chain(tree).to_json().encode()
        assert old in text
        path.write_bytes(text.replace(old, new, 1))
        with pytest.raises(FileFormatError, match=r"manifest\.json: "):
            RunManifest.load(str(path))

    def test_stage_order_preserved(self, tree):
        m = _chain(tree)
        names = [s.name for s in m.stages]
        assert names == ["simulate", "process", "analyze"]
