"""Binary model files: round trips, determinism, corruption rejection."""

import dataclasses
import hashlib
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from cjlm.encoder import EncoderConfig
from cjlm.errors import ModelFormatError
from cjlm.jointlm import JointModelParams, log_probs_batch
from cjlm.serialization import (
    CHECKSUM_BYTES,
    FORMAT_VERSION,
    MAGIC,
    ModelArtifact,
    load_model,
    save_model,
)
from cjlm.training import TrainConfig
from cjlm.vocab import build_vocabulary

from test_jointlm import random_samples


def make_artifact(arch="attention", fusion="gating", seed=0):
    cfg = EncoderConfig(arch=arch, emb_dim=5, tgt_emb_dim=4, attn_dim=6,
                        filters1=7, filters3=6, repr_dim=8, maxlen=10,
                        history=3, fusion=fusion)
    src_vocab = build_vocabulary([[f"s{i}" for i in range(8)]], limit=8)
    tgt_vocab = build_vocabulary([[f"t{i}" for i in range(7)]], limit=7)
    params = JointModelParams.initialize(
        cfg, len(src_vocab), len(tgt_vocab), (6,),
        np.random.default_rng(seed), init_scale=0.5,
    )
    return ModelArtifact(
        encoder_config=cfg,
        source_vocab=src_vocab,
        target_vocab=tgt_vocab,
        params=params,
        train_config=TrainConfig(learning_rate=0.3, epochs=2, seed=9),
        provenance={"seed": 9, "train_samples": 123},
    )


@pytest.mark.parametrize("arch,fusion", [
    ("generic", "gating"), ("tag", "pooling"),
    ("tag_dep", "gating"), ("attention", "pooling"),
])
def test_round_trip_bit_exact(tmp_path, arch, fusion):
    artifact = make_artifact(arch=arch, fusion=fusion)
    path = tmp_path / "model.cjlm"
    save_model(artifact, path)
    loaded = load_model(path)
    assert loaded.encoder_config == artifact.encoder_config
    assert loaded.train_config == artifact.train_config
    assert loaded.source_vocab.tokens == artifact.source_vocab.tokens
    assert loaded.target_vocab.tokens == artifact.target_vocab.tokens
    assert loaded.emit_eos is True
    assert loaded.provenance == artifact.provenance
    for name, tensor in artifact.params.tensors().items():
        got = loaded.params.tensors()[name]
        assert got.dtype == np.float32
        assert np.array_equal(got, tensor), name


def test_round_trip_preserves_log_probs_exactly(tmp_path):
    artifact = make_artifact()
    cfg = artifact.encoder_config
    samples = random_samples(cfg, 50, 3)
    before = log_probs_batch(samples, cfg, artifact.params)
    save_model(artifact, tmp_path / "m")
    after = log_probs_batch(samples, cfg, load_model(tmp_path / "m").params)
    assert np.array_equal(before, after)


def test_identical_artifacts_identical_bytes(tmp_path):
    save_model(make_artifact(seed=4), tmp_path / "a")
    save_model(make_artifact(seed=4), tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    save_model(make_artifact(seed=5), tmp_path / "c")
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def test_view_backed_parameters_save_the_same_bytes(tmp_path):
    # astype leaves softmax_w and softmax_b as strided views of one
    # [w | b | 1] matrix; the file holds the same tensor bytes either way.
    artifact = make_artifact(seed=4)
    laid_out = artifact.params.astype(np.float32)
    assert not laid_out.softmax_w.flags.c_contiguous
    assert not laid_out.softmax_b.flags.c_contiguous
    save_model(artifact, tmp_path / "a")
    save_model(dataclasses.replace(artifact, params=laid_out), tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_rejects_flipped_payload_byte(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="checksum mismatch"):
        load_model(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(ModelFormatError, match="checksum|truncated"):
        load_model(path)
    path.write_bytes(blob[:6])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="bad magic"):
        load_model(path)


def test_rejects_unsupported_version(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 999)
    # Refresh the checksum so the version check itself is exercised.
    import hashlib
    blob[-CHECKSUM_BYTES:] = hashlib.sha256(
        bytes(blob[:-CHECKSUM_BYTES])).digest()[:CHECKSUM_BYTES]
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="unsupported version 999"):
        load_model(path)
    assert FORMAT_VERSION == 1


def test_rejects_corrupt_header_json(tmp_path):
    path = tmp_path / "m"
    artifact = make_artifact()
    save_model(artifact, path)
    blob = bytearray(path.read_bytes())
    header_start = len(MAGIC) + 4 + 8
    blob[header_start] = ord("X")  # break the JSON opening brace
    import hashlib
    blob[-CHECKSUM_BYTES:] = hashlib.sha256(
        bytes(blob[:-CHECKSUM_BYTES])).digest()[:CHECKSUM_BYTES]
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="malformed header"):
        load_model(path)


def header_copy(path, out, edit):
    """Copy a model file with its header block replaced by ``edit(header)``,
    its length and the checksum rewritten to match."""
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<Q", blob, start)
    header = edit(blob[start + 8 : start + 8 + length])
    body = (blob[:start] + struct.pack("<Q", len(header)) + header
            + blob[start + 8 + length : -CHECKSUM_BYTES])
    out.write_bytes(body + hashlib.sha256(body).digest()[:CHECKSUM_BYTES])
    return out


# Checksummed headers on which ``json.loads`` raises RecursionError and
# ``int(inf)`` raises OverflowError, neither of them a ValueError, and whose
# float dimensions would pass the tensor shape check (10.0 == 10).
CRAFTED_HEADERS = {
    "nested": (lambda h: b"[" * 100_000,
               "maximum recursion depth exceeded while decoding a JSON array "
               "from a unicode string"),
    "infinite-hidden-dim": (
        lambda h: re.sub(rb'"hidden_dims":\[[^\]]*\]', b'"hidden_dims":[1e999]', h),
        "cannot convert float infinity to integer"),
    "infinite-limit": (
        lambda h: re.sub(rb'"limit":\d+', b'"limit":1e999', h, count=1),
        "cannot convert float infinity to integer"),
    "float-dims": (
        lambda h: re.sub(rb'"(maxlen|history)":(\d+)', rb'"\1":\2.0', h),
        "maxlen must be an integer, not float"),
}


@pytest.mark.parametrize("crafted", sorted(CRAFTED_HEADERS))
def test_rejects_crafted_header(tmp_path, crafted):
    edit, message = CRAFTED_HEADERS[crafted]
    save_model(make_artifact(), tmp_path / "m")
    path = header_copy(tmp_path / "m", tmp_path / "bad", edit)
    with pytest.raises(ModelFormatError,
                       match=f"^malformed header block: {re.escape(message)}$"):
        load_model(path)


def test_missing_file_reports_os_error(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "does-not-exist")


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.cjlm"
    save_model(make_artifact(seed=1), path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("simulated disk failure")

    # The new bytes are written, then syncing them fails.
    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="simulated disk failure"):
        save_model(make_artifact(seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.cjlm"]

    # The save streams: this one fails after the header and some tensors
    # are written.
    broken = make_artifact(seed=2)
    broken.params.proj_b = np.array(["not a number"])
    with pytest.raises(ValueError):
        save_model(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.cjlm"]

    monkeypatch.undo()
    save_model(make_artifact(seed=2), path)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["model.cjlm"]


def test_save_holds_at_most_one_tensor(tmp_path):
    # Paper size: a 31.5 MiB file. The laid-out cast makes softmax_w a
    # strided view, so the save copies it, 15.3 MiB, the largest copy it may
    # hold; building the file in memory first peaked at 47.0 MiB.
    cfg = EncoderConfig(arch="tag", maxlen=40)
    vocab = build_vocabulary([[f"w{i}" for i in range(20000)]], limit=20000)
    params = JointModelParams.initialize(
        cfg, len(vocab), len(vocab), (200,), np.random.default_rng(0)
    ).astype(np.float32)
    artifact = ModelArtifact(cfg, vocab, vocab, params)
    tracemalloc.start()
    try:
        save_model(artifact, tmp_path / "m")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "m").stat().st_size > 31_000_000
    assert peak <= 16 * 2**20, peak
    assert load_model(tmp_path / "m").params.softmax_w.tobytes() == \
        params.softmax_w.tobytes()


def test_no_train_config_round_trips_as_none(tmp_path):
    artifact = make_artifact()
    artifact.train_config = None
    artifact.emit_eos = False
    save_model(artifact, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.train_config is None
    assert loaded.emit_eos is False


# --- format pins -----------------------------------------------------------
# Tensor names in file order and the SHA-256 of a seeded, untrained model
# file for every arch x fusion. Any change to the tensor layout, the init
# draw order or the byte format shows up here.

def pinned_artifact(arch, fusion):
    cfg = EncoderConfig(arch=arch, emb_dim=5, tgt_emb_dim=4, attn_dim=6,
                        filters1=7, filters3=6, repr_dim=8, maxlen=10,
                        history=3, fusion=fusion, attn_depth=2)
    src_vocab = build_vocabulary([[f"s{i}" for i in range(8)]], limit=8)
    tgt_vocab = build_vocabulary([[f"t{i}" for i in range(7)]], limit=7)
    params = JointModelParams.initialize(
        cfg, len(src_vocab), len(tgt_vocab), (6, 5),
        np.random.default_rng(3), init_scale=0.5,
    )
    return ModelArtifact(cfg, src_vocab, tgt_vocab, params,
                         train_config=TrainConfig(seed=3))


def read_tensor_block(blob):
    """Split a model file into the bytes before the tensor count and the
    list of (name, array) records in file order."""
    pos = len(MAGIC) + 4
    (header_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8 + header_len
    prefix = blob[:pos]
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    records = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        rank = blob[pos]
        shape = struct.unpack_from(f"<{rank}I", blob, pos + 1)
        pos += 1 + 4 * rank
        size = int(np.prod(shape)) * 4
        records.append((name, np.frombuffer(blob[pos : pos + size], "<f4")
                        .reshape(shape)))
        pos += size
    return prefix, records


def write_tensor_block(path, prefix, records):
    """Reassemble a model file from edited records with a valid checksum."""
    blob = bytearray(prefix)
    blob += struct.pack("<I", len(records))
    for name, array in records:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape)
        blob += np.ascontiguousarray(array, "<f4").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()[:CHECKSUM_BYTES]
    path.write_bytes(bytes(blob))


ENCODER_NAMES = ["src_embeddings", "conv1_w", "conv1_b", "conv3_w", "conv3_b",
                 "proj_w", "proj_b"]
GATE_NAMES = ["gate_local_w", "gate_local_b", "gate_global_w"]
ATTN_NAMES = ["attn_0_w", "attn_0_b", "attn_1_w", "attn_1_b"]
PREDICTOR_NAMES = ["tgt_embeddings", "hidden_0_w", "hidden_0_b", "hidden_1_w",
                   "hidden_1_b", "softmax_w", "softmax_b"]

PINNED_SHA256 = {
    ("generic", "gating"):
        "a4848da742e63e57b42320840a2db57520c6093aac388d4425ad54bc4776be8e",
    ("generic", "pooling"):
        "f123776fcd9cd744243961a25447ed089c48dd9ee5373bb8b0e0353126dd8734",
    ("tag", "gating"):
        "8080a728fb825f5263748dafb478f2a7b1f849094d2ab7d30ecc324ec5fcc0cb",
    ("tag", "pooling"):
        "6d63ee05f0b5b4f3fbef686086b66eda2db182797f2929d587957d692a7c598d",
    ("tag_dep", "gating"):
        "bae89a9b37575bd81e40a41b96488bd15027270b49ff6c7291d5db9463d5363f",
    ("tag_dep", "pooling"):
        "71585156cf59aef2e5b5d6154fb1e349f81b311804df6e38e92bd893748e42b3",
    ("attention", "gating"):
        "32d1df32381b7e651b6a7545b71fd68fd884b4e3a91dea2f72a74119c85ae268",
    ("attention", "pooling"):
        "935987b4f076ed5bbbb03db330f797abd5ae98eb65f1224b5795b2f472a2baa6",
}


@pytest.mark.parametrize("arch,fusion", sorted(PINNED_SHA256))
def test_model_file_format_is_pinned(tmp_path, arch, fusion):
    path = tmp_path / "model.cjlm"
    save_model(pinned_artifact(arch, fusion), path)
    blob = path.read_bytes()
    names = [name for name, _ in read_tensor_block(blob)[1]]
    assert names == (ENCODER_NAMES
                     + (GATE_NAMES if fusion == "gating" else [])
                     + (ATTN_NAMES if arch == "attention" else [])
                     + PREDICTOR_NAMES)
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256[arch, fusion]


def first_record_copy(path, out, edit):
    """Copy a model file with ``edit(blob, pos)`` applied to its bytes, where
    ``pos`` is the offset of the first tensor record, and the checksum
    recomputed."""
    blob = bytearray(path.read_bytes())
    prefix, _ = read_tensor_block(bytes(blob))
    edit(blob, len(prefix) + 4)  # after the tensor count
    blob[-CHECKSUM_BYTES:] = hashlib.sha256(
        blob[:-CHECKSUM_BYTES]).digest()[:CHECKSUM_BYTES]
    out.write_bytes(bytes(blob))
    return out


def non_utf8_name_copy(path, out):
    """Copy a model file with the first byte of its first tensor name set to
    0xe9."""
    def edit(blob, pos):
        blob[pos + 2] = 0xE9  # after the name length
    return first_record_copy(path, out, edit)


def wrapping_shape_copy(path, out):
    """Copy a model file with its first tensor's shape set to (2**31, 2**31,
    4), whose element count wraps to 0 in int64."""
    def edit(blob, pos):
        at = pos + 2 + struct.unpack_from("<H", blob, pos)[0]
        blob[at : at + 1 + 4 * blob[at]] = struct.pack("<B3I", 3, 2**31, 2**31, 4)
    return first_record_copy(path, out, edit)


def test_rejects_non_utf8_tensor_name(tmp_path):
    save_model(make_artifact(), tmp_path / "m")
    path = non_utf8_name_copy(tmp_path / "m", tmp_path / "bad")
    with pytest.raises(ModelFormatError, match=r"malformed tensor name "
                       r"b'\\xe9rc_embeddings': not UTF-8"):
        load_model(path)


def test_rejects_shape_whose_element_count_wraps(tmp_path):
    save_model(make_artifact(), tmp_path / "m")
    path = wrapping_shape_copy(tmp_path / "m", tmp_path / "bad")
    with pytest.raises(ModelFormatError, match="^truncated model file$"):
        load_model(path)


def _rewrite(path, edit):
    prefix, records = read_tensor_block(path.read_bytes())
    write_tensor_block(path, prefix, edit(records))


def test_rejects_missing_tensor(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    _rewrite(path, lambda recs: [r for r in recs if r[0] != "proj_b"])
    with pytest.raises(ModelFormatError, match="missing tensor 'proj_b'"):
        load_model(path)


def test_rejects_extra_tensor(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    _rewrite(path, lambda recs: recs + [("attn_9_b", np.zeros(6))])
    with pytest.raises(ModelFormatError, match="unexpected tensor 'attn_9_b'"):
        load_model(path)


def test_rejects_empty_hidden_stack(tmp_path):
    # A self-consistent file with no hidden layers: the header lists none and
    # the softmax reads the predictor input directly.
    path = tmp_path / "m"
    artifact = make_artifact()
    save_model(artifact, path)
    prefix, records = read_tensor_block(path.read_bytes())
    header_start = len(MAGIC) + 4 + 8
    header = json.loads(prefix[header_start:])
    header["hidden_dims"] = []
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = prefix[: len(MAGIC) + 4] + struct.pack("<Q", len(encoded)) + encoded
    cfg = artifact.encoder_config
    in_dim = cfg.repr_dim + cfg.history * cfg.tgt_emb_dim
    records = [(n, np.zeros((a.shape[0], in_dim)) if n == "softmax_w" else a)
               for n, a in records if not n.startswith("hidden_")]
    write_tensor_block(path, prefix, records)
    with pytest.raises(ModelFormatError, match="hidden_dims must be a non-empty"):
        load_model(path)


def test_rejects_wrong_shaped_tensor(tmp_path):
    path = tmp_path / "m"
    save_model(make_artifact(), path)
    _rewrite(path, lambda recs: [(n, a.T if n == "conv3_w" else a)
                                 for n, a in recs])
    with pytest.raises(ModelFormatError, match="'conv3_w' has shape"):
        load_model(path)
