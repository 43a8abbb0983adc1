import json

import numpy as np
import pytest

from respox.config import (
    ConfigError,
    DataConfig,
    GateConfig,
    ModelConfig,
    RunConfig,
    TrainConfig,
    config_hash,
    load_run_config,
    model_config_from_dict,
    model_config_to_dict,
    run_config_from_dict,
    run_config_to_dict,
    tiny_model_config,
)


def test_defaults_are_valid_and_full_scale():
    cfg = ModelConfig()
    assert cfg.encoder_channels[-1] == 256
    assert cfg.bert_heads == 6
    assert cfg.bottleneck_length(2400) == 100


def test_stride_products_are_enforced():
    with pytest.raises(ConfigError):
        ModelConfig(encoder_strides=(5, 2, 1, 2, 2, 2, 3, 1, 2))
    with pytest.raises(ConfigError):
        ModelConfig(decoder_strides=(3, 2, 2, 2, 1, 1, 2))


def test_kernel_size_is_pinned():
    with pytest.raises(ConfigError):
        ModelConfig(kernel_size=5)


def test_bottleneck_must_match_bert_width():
    with pytest.raises(ConfigError):
        ModelConfig(bert_hidden=128)


def test_head_count_only_for_gated():
    with pytest.raises(ConfigError):
        ModelConfig(n_heads=4)
    cfg = tiny_model_config("tiny", variant="gated", n_heads=4)
    assert cfg.n_heads == 4


def test_bert_width_must_host_heads():
    with pytest.raises(ConfigError):
        ModelConfig(
            encoder_channels=(32, 64, 64, 128, 128, 256, 256, 256, 4),
            bert_hidden=4,
            bert_heads=6,
        )


def test_full_width_hosts_six_heads_via_floor():
    cfg = ModelConfig(bert_heads=6)
    assert cfg.bert_hidden // cfg.bert_heads == 42


def test_train_config_bounds():
    with pytest.raises(ConfigError):
        TrainConfig(pretrain_fraction=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1e-4)


def test_gate_config_modes():
    with pytest.raises(ConfigError):
        GateConfig(mode="nearest")
    with pytest.raises(ConfigError):
        GateConfig(mode="manual")
    GateConfig(mode="manual", manual_table={"v=0,u=0": 1})


def test_data_split_ratio_open_interval():
    with pytest.raises(ConfigError):
        DataConfig(split_ratio=1.0)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        run_config_from_dict({"model": {"kernel": 7}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"optimizer": {}})


@pytest.mark.parametrize(
    "payload", [{"train": {"batch": 1}}, {"data": {"normalize": True}}], ids=["batch", "normalize"]
)
def test_removed_knobs_are_unknown_keys(payload):
    with pytest.raises(ConfigError):
        run_config_from_dict(payload)


def test_badly_typed_values_are_config_errors():
    for payload in (
        {"model": {"rrelu_bounds": [0.1]}},
        {"model": {"encoder_channels": ["a"] * 9}},
        {"model": {"encoder_channels": [2.5] + [4] * 8}},
        {"model": {"n_heads": True}},
        {"train": {"epochs": 2.5}},
        {"train": {"seed": 1.5}},
        {"data": {"split_seed": "x"}},
        {"gate": {"n_heads": 2.5}},
    ):
        section = next(iter(payload))
        with pytest.raises(ConfigError, match=f"bad value in config section '{section}'"):
            run_config_from_dict(payload)
    # a ConfigError from a section's own checks keeps its message
    with pytest.raises(ConfigError, match="^rrelu bounds must satisfy"):
        run_config_from_dict({"model": {"rrelu_bounds": [0.5, 0.25]}})


def test_python_caller_tuple_entries_must_be_integers_not_truncated():
    channels = ModelConfig().encoder_channels
    for bad in (32.9, 32.0, True):
        with pytest.raises(ConfigError, match="encoder_channels entries must be integers"):
            ModelConfig(encoder_channels=(bad,) + channels[1:])
    with pytest.raises(ConfigError, match="decoder_strides entries must be integers"):
        ModelConfig(decoder_strides=(3.0, 2, 2, 2, 1, 1, 1))
    # numpy integers are integers, and the config hash is that of the plain ints
    cfg = ModelConfig(encoder_channels=tuple(np.array(channels, dtype=np.int64)))
    assert type(cfg.encoder_channels[0]) is int
    assert config_hash(RunConfig(model=cfg)) == config_hash(RunConfig())


def test_train_section_loss_weight_aliases():
    cfg = run_config_from_dict({"train": {"lambda": 0.5, "lambda_u": 2.0}})
    assert cfg.train.corr_weight == 0.5
    assert cfg.train.aux_weight == 2.0
    payload = run_config_to_dict(cfg)
    assert payload["train"]["lambda"] == 0.5
    assert payload["train"]["lambda_u"] == 2.0
    assert "corr_weight" not in payload["train"]


def test_roundtrip_preserves_hash(tmp_path):
    cfg = RunConfig(model=tiny_model_config("tiny"))
    payload = run_config_to_dict(cfg)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    again = load_run_config(str(path))
    assert config_hash(cfg) == config_hash(again)


@pytest.mark.parametrize("raw", [b"{not json", b'{"train": {"seed": "\xff"}}', None], ids=["json", "utf8", "dir"])
def test_load_run_config_maps_unreadable_input_to_config_error(tmp_path, raw):
    path = tmp_path / "run.json"
    if raw is None:
        path.mkdir()
    else:
        path.write_bytes(raw)
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(str(path))


def test_model_config_dict_roundtrip():
    cfg = tiny_model_config("micro", variant="varaug")
    assert model_config_from_dict(model_config_to_dict(cfg)) == cfg


def test_hash_ignores_data_dir_and_eval_section():
    a = run_config_from_dict({"data": {"dir": "/a"}, "eval": {"aggregation": "segment"}})
    b = run_config_from_dict({"data": {"dir": "/b"}, "eval": {"aggregation": "night"}})
    assert config_hash(a) == config_hash(b)
    c = run_config_from_dict({"train": {"seed": 1}})
    assert config_hash(a) != config_hash(c)


def test_hash_sensitive_to_model_fields():
    assert config_hash(RunConfig(model=tiny_model_config("tiny"))) != config_hash(
        RunConfig(model=tiny_model_config("micro"))
    )
