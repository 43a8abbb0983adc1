import hashlib
import json
import re

import numpy as np
import pytest

from respox.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from respox.config import tiny_model_config
from respox.model import build_model
from respox.tensor import Tensor


@pytest.fixture(scope="module")
def micro_state():
    cfg = tiny_model_config("micro")
    return cfg, build_model(cfg, seed=0)


def test_roundtrip_bit_exact(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg, meta={"epoch": 3})
    back = load_checkpoint(str(path))
    assert back.config == cfg
    assert back.meta["epoch"] == 3
    assert back.params.keys() == params.keys()
    for name in params:
        np.testing.assert_array_equal(back.params[name].data, params[name].data)
        assert back.params[name].data.dtype == np.float32


def test_resave_is_byte_identical(tmp_path, micro_state):
    cfg, params = micro_state
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(a), params, cfg)
    save_checkpoint(str(b), load_checkpoint(str(a)).params, cfg)
    assert a.read_bytes() == b.read_bytes()


def test_running_buffers_load_frozen(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    back = load_checkpoint(str(path))
    for name, tensor in back.params.items():
        assert tensor.requires_grad == ("running_" not in name), name


def test_optimizer_namespace_separated(tmp_path, micro_state):
    cfg, params = micro_state
    opt = {
        "adam.m.first": np.zeros(3, dtype=np.float32),
        "adam.v.first": np.ones(3, dtype=np.float32),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg, optimizer=opt)
    back = load_checkpoint(str(path))
    assert set(back.optimizer) == set(opt)
    np.testing.assert_array_equal(back.optimizer["adam.v.first"], opt["adam.v.first"])
    assert not any(name.startswith("adam.") for name in back.params)


def test_param_name_collision_with_optimizer_rejected(tmp_path, micro_state):
    cfg, params = micro_state
    bad = dict(params)
    bad["adam.m.sneaky"] = Tensor(np.zeros(2, dtype=np.float32), dtype=np.float32)
    with pytest.raises(CheckpointError):
        save_checkpoint(str(tmp_path / "x.ckpt"), bad, cfg)


def test_float64_params_rejected(tmp_path, micro_state):
    cfg, _ = micro_state
    bad = {"w": Tensor(np.zeros(2, dtype=np.float64), dtype=np.float64)}
    with pytest.raises(CheckpointError):
        save_checkpoint(str(tmp_path / "x.ckpt"), bad, cfg)


def test_bad_magic_rejected(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ZZZZ"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_truncated_data_rejected(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 3])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("edit", ["drop_last_tensor_bytes", "append_one_float"])
def test_float_section_must_match_manifest(tmp_path, micro_state, edit):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = path.read_bytes()
    if edit == "drop_last_tensor_bytes":
        raw = raw[:-8]  # whole floats missing: offsets still line up, the size does not
    else:
        raw = raw + np.float32(1.0).tobytes()
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="float section"):
        load_checkpoint(str(path))


def test_corrupt_manifest_rejected(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    raw = bytearray(path.read_bytes())
    raw[12] = ord("!")  # inside the JSON manifest
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def _edit_first_entry(**fields):
    def edit(manifest):
        manifest["tensors"][0].update(fields)
        manifest["tensors"][0] = {k: v for k, v in manifest["tensors"][0].items() if v is not None}
        return manifest

    return edit


def _negated_shape(manifest):
    entry = next(e for e in manifest["tensors"] if len(e["shape"]) >= 2)
    entry["shape"][:2] = [-entry["shape"][0], -entry["shape"][1]]  # same element count
    return manifest


MALFORMED_MANIFESTS = {
    "no_byte_offset": _edit_first_entry(byte_offset=None),
    "tensors_not_a_list": lambda manifest: {**manifest, "tensors": 5},
    "shape_not_a_list": _edit_first_entry(shape="ab"),
    "negative_dims": _negated_shape,
    "bool_byte_offset": _edit_first_entry(byte_offset=False),
    "name_not_a_string": _edit_first_entry(name=5),
    "meta_not_an_object": lambda manifest: {**manifest, "meta": "x"},
    "header_not_an_object": lambda manifest: " ".join(manifest),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_a_checkpoint_error(tmp_path, micro_state, rewrite_header, case):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    rewrite_header(path, MALFORMED_MANIFESTS[case])
    for read in (read_manifest, load_checkpoint):
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            read(str(path))


def test_manifest_offsets_sorted_and_relative(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    manifest = read_manifest(str(path))
    names = [entry["name"] for entry in manifest["tensors"]]
    assert names == sorted(names)
    assert manifest["tensors"][0]["byte_offset"] == 0
    offset = 0
    for entry in manifest["tensors"]:
        assert entry["byte_offset"] == offset
        offset += 4 * int(np.prod(entry["shape"]))


# pinned sha256 of the checkpoint below: any drift in the framing, the
# manifest or the float section changes it
GOLDEN_CHECKPOINT_SHA256 = "391bfc6a58e8dacef43eaed89caa85693cb056059983e0c947e6a8f1507f2a36"


def test_checkpoint_bytes_match_golden(tmp_path):
    params = {
        "encoder.0.conv.weight": Tensor(np.arange(12, dtype=np.float32).reshape(2, 1, 6) / 8, dtype=np.float32),
        "encoder.0.bn.running_var": Tensor(np.full(2, 1.5, dtype=np.float32), requires_grad=False, dtype=np.float32),
        "head1.fu.bias": Tensor(np.array([-0.5], dtype=np.float32), dtype=np.float32),
    }
    optimizer = {}
    for name in ("encoder.0.conv.weight", "head1.fu.bias"):
        optimizer[f"adam.m.{name}"] = np.full(params[name].data.shape, 0.25, dtype=np.float32)
        optimizer[f"adam.v.{name}"] = np.full(params[name].data.shape, 0.5, dtype=np.float32)
    path = tmp_path / "golden.ckpt"
    save_checkpoint(str(path), params, tiny_model_config("micro"), meta={"epoch": 1, "adam_t": 7}, optimizer=optimizer)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT_SHA256
    back = load_checkpoint(str(path))
    assert set(back.optimizer) == set(optimizer)
    assert not back.params["encoder.0.bn.running_var"].requires_grad


def test_read_manifest_checks_the_float_section(tmp_path, micro_state):
    cfg, params = micro_state
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, cfg)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CheckpointError, match="float section"):
        read_manifest(str(path))
