"""Self-describing binary model files.

Layout, all little-endian:

* magic ``CJLM``, uint32 format version
* uint64 length-prefixed UTF-8 JSON block: encoder and training configs,
  hidden layer sizes, EOS emission flag, both vocabularies, and a provenance
  record (seed, corpus line counts, per-epoch metrics)
* uint32 tensor count, then per tensor: uint16 name length, name, uint8 rank,
  uint32 per-dim sizes, row-major float32 payload
* trailing 8 bytes: the first 8 bytes of SHA-256 over everything before them

Loading needs no external configuration, validates the checksum before
parsing, and reproduces tensors bit-for-bit; the JSON block is serialized
with sorted keys so identical models produce identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import mmap
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .encoder import EncoderConfig
from .errors import ConfigError, CorpusError, ModelFormatError
from .jointlm import JointModelParams, param_spec
from .training import TrainConfig
from .vocab import Vocabulary

MAGIC = b"CJLM"
FORMAT_VERSION = 1
CHECKSUM_BYTES = 8
TENSOR_DTYPE = np.dtype("<f4")


@dataclass
class ModelArtifact:
    """A trained model plus everything needed to use it standalone."""

    encoder_config: EncoderConfig
    source_vocab: Vocabulary
    target_vocab: Vocabulary
    params: JointModelParams
    train_config: TrainConfig | None = None
    emit_eos: bool = True
    provenance: dict = field(default_factory=dict)


def _header_json(artifact: ModelArtifact) -> bytes:
    header = {
        "encoder_config": asdict(artifact.encoder_config),
        "train_config": None if artifact.train_config is None
        else asdict(artifact.train_config),
        "hidden_dims": list(artifact.params.hidden_dims),
        "emit_eos": artifact.emit_eos,
        "source_vocab": {
            "tokens": list(artifact.source_vocab.tokens),
            "limit": artifact.source_vocab.limit,
        },
        "target_vocab": {
            "tokens": list(artifact.target_vocab.tokens),
            "limit": artifact.target_vocab.limit,
        },
        "provenance": artifact.provenance,
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside ``path`` for writing.

    When the block succeeds, the file is fsynced and replaces ``path`` in one
    step, so success means durable. When it fails, the temporary file is
    removed: no partial file appears, and any previous file at ``path`` stays
    as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    dir_fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_model(artifact: ModelArtifact, path) -> None:
    """Write the artifact through ``replacing``: a save that fails part-way
    leaves any previous file at ``path`` as it was.

    The file is streamed: each piece is written and fed to one running
    SHA-256 in turn, so a save holds at most one tensor's float32 copy (none
    for C-ordered float32 tensors), never the whole file.
    """
    header = _header_json(artifact)
    tensors = artifact.params.tensors()
    digest = hashlib.sha256()
    with replacing(path) as f:

        def write(data) -> None:
            digest.update(data)
            f.write(data)

        write(MAGIC)
        write(struct.pack("<IQ", FORMAT_VERSION, len(header)))
        write(header)
        write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            write(struct.pack("<H", len(encoded)) + encoded
                  + struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape))
            write(np.ascontiguousarray(tensor, dtype=TENSOR_DTYPE)
                  .reshape(-1).view(np.uint8))
        f.write(digest.digest()[:CHECKSUM_BYTES])


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ModelFormatError("truncated model file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        (value,) = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return value


def load_model(path) -> ModelArtifact:
    """Read, validate, and reconstruct a saved model."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size < len(MAGIC) + 4 + CHECKSUM_BYTES:
            raise ModelFormatError("truncated model file")
        # Map the file instead of reading it: a read copies it into a fresh
        # buffer, which costs about 8,400 page faults for a paper-size model
        # whenever the allocator hands out new memory, and whether it does
        # varies from one process to the next.
        data = memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))
    reader = _Reader(data)
    if reader.take(len(MAGIC)) != MAGIC:
        raise ModelFormatError("not a model file (bad magic bytes)")
    version = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported version {version}")
    digest = hashlib.sha256(data[: -CHECKSUM_BYTES]).digest()[:CHECKSUM_BYTES]
    if data[-CHECKSUM_BYTES:] != digest:
        raise ModelFormatError("checksum mismatch: file is corrupted")

    header_len = reader.unpack("<Q")
    try:
        header = json.loads(bytes(reader.take(header_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"malformed header block: {e}") from None
    try:
        cfg = EncoderConfig(**header["encoder_config"])
        train_cfg = (None if header["train_config"] is None
                     else TrainConfig(**header["train_config"]))
        hidden_dims = tuple(int(d) for d in header["hidden_dims"])
        emit_eos = bool(header["emit_eos"])
        src_vocab = Vocabulary(
            tokens=tuple(header["source_vocab"]["tokens"]),
            limit=int(header["source_vocab"]["limit"]),
        )
        tgt_vocab = Vocabulary(
            tokens=tuple(header["target_vocab"]["tokens"]),
            limit=int(header["target_vocab"]["limit"]),
        )
        provenance = header["provenance"]
        expected = {spec.name: spec.shape for spec in
                    param_spec(cfg, len(src_vocab), len(tgt_vocab), hidden_dims)}
    except (KeyError, TypeError, ValueError, ConfigError, CorpusError) as e:
        raise ModelFormatError(f"malformed header block: {e}") from None

    count = reader.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = reader.unpack("<H")
        raw_name = bytes(reader.take(name_len))
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(
                f"malformed tensor name {raw_name!r}: not UTF-8") from None
        rank = reader.unpack("<B")
        shape = tuple(reader.unpack("<I") for _ in range(rank))
        # Counted exactly: a product of crafted dims must not wrap in int64.
        payload = reader.take(math.prod(shape) * TENSOR_DTYPE.itemsize)
        if name in tensors:
            raise ModelFormatError(f"duplicate tensor {name!r}")
        tensors[name] = (
            np.frombuffer(payload, dtype=TENSOR_DTYPE)
            .reshape(shape)
            .astype(np.float32)
        )
    if reader.pos != len(data) - CHECKSUM_BYTES:
        raise ModelFormatError("trailing bytes after tensor block")

    missing = sorted(expected.keys() - tensors.keys())
    if missing:
        raise ModelFormatError(f"missing tensor {missing[0]!r}")
    extra = sorted(tensors.keys() - expected.keys())
    if extra:
        raise ModelFormatError(f"unexpected tensor {extra[0]!r}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ModelFormatError(
                f"tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {shape}"
            )

    return ModelArtifact(
        encoder_config=cfg,
        source_vocab=src_vocab,
        target_vocab=tgt_vocab,
        params=JointModelParams.from_tensors(tensors),
        train_config=train_cfg,
        emit_eos=emit_eos,
        provenance=provenance,
    )
