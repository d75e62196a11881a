"""The one checkpoint format: its layout, old compressed files, damaged files.

Engine (resume), GCMAE and serving checkpoints are all plain ``.npz``
archives of ``module/``, ``optim/`` and ``best/`` sections plus one
``__meta_json__`` blob.  Files written compressed by earlier versions must
still load.  Without compression, each member's CRC-32 is what turns a
flipped bit into an error instead of a silently wrong weight, so every
loader must raise ``zipfile.BadZipFile`` on a damaged file, naming it.
"""

import json
import re
import zipfile

import numpy as np
import pytest

from repro import engine
from repro.core import GCMAE, GCMAEConfig, load_gcmae, save_gcmae, train_gcmae
from repro.graph.generators import CitationGraphSpec, make_citation_graph
from repro.registry import config_from_dict
from repro.serve import EncoderSpec, ModelRegistry, load_encoder, save_encoder

GRAPH = make_citation_graph(CitationGraphSpec(60, 12, 3, average_degree=4.0), seed=0)
CONFIG = GCMAEConfig(hidden_dim=8, embed_dim=8, heads=1, epochs=6, projector_hidden=8)
SPEC = EncoderSpec(in_features=12, hidden_features=8, out_features=8)
SEED = 3
META = "__meta_json__.npy"


def _engine_checkpoint(directory, epochs):
    with engine.checkpointing(directory):
        train_gcmae(GRAPH, CONFIG.with_overrides(epochs=epochs), seed=SEED)
    (path,) = directory.glob("*.npz")
    return path


def _gcmae_checkpoint(directory):
    model = GCMAE(GRAPH.num_features, CONFIG, rng=np.random.default_rng(0))
    return save_gcmae(model, directory / "gcmae.npz")


def _meta(path):
    with np.load(path) as payload:
        return json.loads(payload["__meta_json__"].tobytes().decode("utf-8"))


def _recompress(path):
    """Rewrite ``path`` the way earlier versions wrote: ``np.savez_compressed``."""
    with np.load(path) as payload:
        arrays = {key: payload[key] for key in payload.files}
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}


def _damage(path, how):
    """Cut ``path`` to half its length, or flip a byte of its largest array."""
    data = path.read_bytes()
    if how == "cut":
        path.write_bytes(data[: len(data) // 2])
        return
    with np.load(path) as payload:
        array = max((payload[key] for key in payload.files), key=lambda a: a.nbytes)
    start = data.find(array.tobytes())  # plain archive: stored as they are
    assert start > 0
    flipped = bytearray(data)
    flipped[start + array.nbytes // 2] ^= 0xFF
    path.write_bytes(bytes(flipped))


def _raises_naming(path):
    return pytest.raises(zipfile.BadZipFile, match=re.escape(str(path)))


class TestLayout:
    def test_every_writer_writes_one_plain_layout(self, tmp_path):
        written = {
            "model": _engine_checkpoint(tmp_path / "engine", epochs=1),
            "encoder": save_encoder(tmp_path / "encoder.npz", SPEC.build(), SPEC),
        }
        for module, path in [*written.items(), ("model", _gcmae_checkpoint(tmp_path))]:
            with zipfile.ZipFile(path) as archive:
                members = {info.filename: info.compress_type for info in archive.infolist()}
            assert set(members.values()) == {zipfile.ZIP_STORED}, path
            assert META in members, path
            assert any(name.startswith(f"module/{module}/") for name in members), path
            sections = {name.split("/")[0] for name in members if name != META}
            assert sections <= {"module", "optim", "best"}, path
            assert _meta(path)["format_version"] == 1

    def test_gcmae_meta_holds_config_and_width(self, tmp_path):
        meta = _meta(_gcmae_checkpoint(tmp_path))
        assert config_from_dict(GCMAEConfig, meta["config"]) == CONFIG
        assert meta["num_features"] == GRAPH.num_features

    def test_engine_meta_records_the_resolved_config(self, tmp_path):
        meta = _meta(_engine_checkpoint(tmp_path, epochs=2))
        assert config_from_dict(GCMAEConfig, meta["config"]) == CONFIG.with_overrides(epochs=2)


class TestCompressedFilesStillLoad:
    def test_engine_checkpoint_resumes_to_the_uninterrupted_result(self, tmp_path):
        reference = train_gcmae(GRAPH, CONFIG, seed=SEED)
        path = _engine_checkpoint(tmp_path, epochs=3)
        _recompress(path)
        saved_seconds = _meta(path)["epoch_seconds"]
        with engine.checkpointing(tmp_path, resume=True):
            resumed = train_gcmae(GRAPH, CONFIG, seed=SEED)
        assert resumed.epoch_seconds[:3] == saved_seconds  # resumed, not retrained
        assert resumed.loss_history == reference.loss_history
        for name, weight in reference.model.state_dict().items():
            assert np.array_equal(weight, resumed.model.state_dict()[name]), name

    def test_serving_checkpoint_loads_through_the_registry(self, tmp_path):
        encoder = SPEC.build(seed=5)
        path = save_encoder(tmp_path / "enc.npz", encoder, SPEC)
        _recompress(path)
        entry = ModelRegistry().load("demo", path)
        assert entry.spec == SPEC
        for name, weight in encoder.state_dict().items():
            assert np.array_equal(weight, entry.encoder.state_dict()[name]), name


@pytest.mark.parametrize("how", ["cut", "flip"])
class TestDamagedFilesRaiseNamingTheFile:
    def test_load_encoder(self, tmp_path, how):
        path = save_encoder(tmp_path / "enc.npz", SPEC.build(), SPEC)
        _damage(path, how)
        with _raises_naming(path):
            load_encoder(path)

    def test_load_gcmae(self, tmp_path, how):
        path = _gcmae_checkpoint(tmp_path)
        _damage(path, how)
        with _raises_naming(path):
            load_gcmae(path)

    def test_resume(self, tmp_path, how):
        path = _engine_checkpoint(tmp_path, epochs=2)
        _damage(path, how)
        with _raises_naming(path), engine.checkpointing(tmp_path, resume=True):
            train_gcmae(GRAPH, CONFIG, seed=SEED)
