"""Binary model checkpoints.

Layout, all little-endian:

    bytes 0-3   magic "GBU1"
    bytes 4-7   unsigned 32-bit manifest length H
    H bytes     UTF-8 JSON manifest {config, tensors, meta}
    rest        concatenated 32-bit floats, one run per manifest entry

Manifest tensor entries are {name, shape, byte_offset} sorted by name, with
offsets relative to the start of the float section.  Optimizer moments ride
along under "adam." names; batch-norm running statistics are recognized by
"running_" in the name and load as non-trainable.  Save then load is
bit-exact.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, model_config_from_dict, model_config_to_dict
from .tensor import Tensor

MAGIC = b"GBU1"
OPTIMIZER_PREFIX = "adam."


class CheckpointError(ValueError):
    """Malformed checkpoint file or unserializable state."""


@dataclass
class Checkpoint:
    params: dict
    config: ModelConfig
    meta: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)


def _require_f32(name: str, arr: np.ndarray) -> np.ndarray:
    if arr.dtype != np.float32:
        raise CheckpointError(
            f"checkpoint stores 32-bit floats; {name!r} has dtype {arr.dtype}"
        )
    return arr


def save_checkpoint(
    path,
    params: dict,
    config: ModelConfig,
    meta: dict | None = None,
    optimizer: dict | None = None,
) -> None:
    """Write params (+ optional optimizer moments) with their config and metadata."""
    arrays: dict[str, np.ndarray] = {}
    for name, tensor in params.items():
        if name.startswith(OPTIMIZER_PREFIX):
            raise CheckpointError(f"parameter name {name!r} collides with optimizer namespace")
        arrays[name] = _require_f32(name, np.ascontiguousarray(tensor.data))
    for name, arr in (optimizer or {}).items():
        if not name.startswith(OPTIMIZER_PREFIX):
            raise CheckpointError(f"optimizer entry {name!r} must start with {OPTIMIZER_PREFIX!r}")
        arrays[name] = _require_f32(name, np.ascontiguousarray(np.asarray(arr)))

    entries = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = arrays[name]
        entries.append({"name": name, "shape": list(arr.shape), "byte_offset": offset})
        blob = arr.astype("<f4", copy=False).tobytes()
        blobs.append(blob)
        offset += len(blob)

    manifest = {
        "config": model_config_to_dict(config),
        "tensors": entries,
        "meta": meta or {},
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _read_manifest(path, fh) -> tuple[dict, int]:
    """Read and validate the magic, length, JSON and keys of the manifest from fh.

    Returns the manifest and the offset where the float section starts.
    """
    head = fh.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (header_len,) = struct.unpack("<I", head[4:8])
    header = fh.read(header_len)
    if len(header) < header_len:
        raise CheckpointError(f"{path}: truncated manifest ({len(header)} of {header_len} bytes)")
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: manifest is not valid JSON ({exc})") from exc
    for key in ("config", "tensors", "meta"):
        if key not in manifest:
            raise CheckpointError(f"{path}: manifest missing {key!r}")
    return manifest, 8 + header_len


def read_manifest(path) -> dict:
    """Parse and validate just the JSON manifest of a checkpoint file."""
    with open(path, "rb") as fh:
        return _read_manifest(path, fh)[0]


def load_checkpoint(path) -> Checkpoint:
    """Read each tensor straight from the file into its own array; the file is never held whole."""
    with open(path, "rb") as fh:
        manifest, data_start = _read_manifest(path, fh)
        expected = 0
        for entry in manifest["tensors"]:
            if entry["byte_offset"] != expected:
                raise CheckpointError(
                    f"{path}: tensor {entry['name']!r} at offset {entry['byte_offset']}, expected {expected}"
                )
            expected += 4 * int(np.prod(entry["shape"], dtype=np.int64))
        held = os.fstat(fh.fileno()).st_size - data_start
        if held != expected:
            raise CheckpointError(
                f"{path}: float section holds {held} bytes, manifest declares {expected}"
            )

        params: dict = {}
        optimizer: dict = {}
        for entry in manifest["tensors"]:
            name = entry["name"]
            arr = np.empty(tuple(entry["shape"]), dtype="<f4")
            got = fh.readinto(arr)
            if got != arr.nbytes:
                raise CheckpointError(f"{path}: tensor {name!r} truncated ({got} of {arr.nbytes} bytes)")
            if name.startswith(OPTIMIZER_PREFIX):
                optimizer[name] = arr
            else:
                params[name] = Tensor(arr, requires_grad="running_" not in name, dtype=np.float32)

    config = model_config_from_dict(manifest["config"])
    return Checkpoint(params=params, config=config, meta=manifest["meta"], optimizer=optimizer)
