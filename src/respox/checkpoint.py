"""Binary model checkpoints: the GBU1 schema.

A checkpoint is one file in the container framing of `container.py` with
magic "GBU1".  The header (the manifest) holds config, tensors and meta.
Tensor entries are {name, shape, byte_offset} sorted by name, with offsets
relative to the start of the body, the float section: one run of 32-bit
floats per entry, in manifest order.  Optimizer moments ride along under
"adam." names; batch-norm running statistics (model.is_buffer) load as
non-trainable.  Save then load is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import container
from .config import ModelConfig, model_config_from_dict, model_config_to_dict
from .model import is_buffer
from .tensor import Tensor

OPTIMIZER_PREFIX = "adam."


class CheckpointError(ValueError):
    """Malformed checkpoint file or unserializable state."""


GBU1 = container.Framing(b"GBU1", "float section", ("config", "tensors", "meta"), *[CheckpointError] * 4)


@dataclass
class Checkpoint:
    params: dict
    config: ModelConfig
    meta: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)


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
        arrays[name] = tensor.data
    for name, arr in (optimizer or {}).items():
        if not name.startswith(OPTIMIZER_PREFIX):
            raise CheckpointError(f"optimizer entry {name!r} must start with {OPTIMIZER_PREFIX!r}")
        arrays[name] = arr

    names = sorted(arrays)
    entries = []
    offset = 0
    for name in names:
        arr = arrays[name] = np.ascontiguousarray(arrays[name])
        if arr.dtype != np.float32:
            raise CheckpointError(f"checkpoint stores 32-bit floats; {name!r} has dtype {arr.dtype}")
        entries.append({"name": name, "shape": list(arr.shape), "byte_offset": offset})
        offset += arr.nbytes
    manifest = {"config": model_config_to_dict(config), "tensors": entries, "meta": meta or {}}
    container.write(path, GBU1, manifest, [arrays[name] for name in names])


def _is_entry(entry) -> bool:
    """{name: str, shape: list of ints >= 0, byte_offset: int}, nothing else."""
    return (
        isinstance(entry, dict) and set(entry) == {"name", "shape", "byte_offset"}
        and isinstance(entry["name"], str) and container.is_json_int(entry["byte_offset"])
        and isinstance(entry["shape"], list) and all(container.is_json_int(n) and n >= 0 for n in entry["shape"])
    )


def _checked_manifest(path, fh) -> dict:
    """Read the manifest and check its entries, offsets and the float section size against the file."""
    manifest, held = container.read_header(fh, path, GBU1)
    if not isinstance(manifest["tensors"], list) or not isinstance(manifest["meta"], dict):
        raise CheckpointError(f"{path}: manifest 'tensors' must be a list and 'meta' an object")
    expected = 0
    for entry in manifest["tensors"]:
        if not _is_entry(entry):
            raise CheckpointError(f"{path}: bad tensor entry {entry!r}, expected {{name, shape, byte_offset}}")
        if entry["byte_offset"] != expected:
            raise CheckpointError(
                f"{path}: tensor {entry['name']!r} at offset {entry['byte_offset']}, expected {expected}"
            )
        expected += 4 * int(np.prod(entry["shape"], dtype=np.int64))
    container.check_body(path, GBU1, held, expected)
    return manifest


def read_manifest(path) -> dict:
    """Parse and check a checkpoint's manifest without reading any tensor."""
    with open(path, "rb") as fh:
        return _checked_manifest(path, fh)


def load_checkpoint(path) -> Checkpoint:
    """Read each tensor straight from the file into its own array; the file is never held whole."""
    with open(path, "rb") as fh:
        manifest = _checked_manifest(path, fh)
        params, optimizer = {}, {}
        for entry in manifest["tensors"]:
            name = entry["name"]
            arr = container.read_array(fh, path, GBU1, f"tensor {name!r}", tuple(entry["shape"]), "<f4")
            if name.startswith(OPTIMIZER_PREFIX):
                optimizer[name] = arr
            else:
                params[name] = Tensor(arr, requires_grad=not is_buffer(name), dtype=np.float32)

    config = model_config_from_dict(manifest["config"])
    return Checkpoint(params=params, config=config, meta=manifest["meta"], optimizer=optimizer)
