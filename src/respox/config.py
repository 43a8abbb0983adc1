"""Run configuration: model architecture plus train/gate/data/eval sections.

The JSON surface is strict (unknown keys are rejected) and canonical
serialization feeds a sha256 hash that gets stamped into every artifact,
so two runs agree on their config if and only if their hashes agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .container import read_json

ENCODER_DOWN_FACTOR = 240
DECODER_UP_FACTOR = 24
QUANTUM_S = 24

VARIANTS = ("backbone", "cnn", "varaug", "gated")
GATE_MODES = ("grad-sim", "identity", "manual")

FULL_PARAM_COUNT_REFERENCE = 26_821_113  # published full-scale reference; reported, never asserted


class ConfigError(ValueError):
    """A configuration value or combination violates the contract."""


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


@dataclass
class ModelConfig:
    fb: int = 10
    fo: int = 1
    encoder_channels: tuple[int, ...] = (32, 64, 64, 128, 128, 256, 256, 256, 256)
    encoder_strides: tuple[int, ...] = (5, 2, 1, 2, 2, 2, 3, 1, 1)
    decoder_channels: tuple[int, ...] = (256, 128, 128, 64, 64, 32, 32)
    decoder_strides: tuple[int, ...] = (3, 2, 2, 2, 1, 1, 1)
    kernel_size: int = 7
    bert_layers: int = 8
    bert_heads: int = 6
    bert_hidden: int = 256
    bert_intermediate: int = 512
    max_positions: int = 2400
    n_heads: int = 1
    u_classes: int = 3
    v_states: int = 2
    rrelu_bounds: tuple[float, float] = (0.125, 1.0 / 3.0)
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    variant: str = "backbone"

    def __post_init__(self):
        self.encoder_channels = tuple(int(c) for c in self.encoder_channels)
        self.encoder_strides = tuple(int(s) for s in self.encoder_strides)
        self.decoder_channels = tuple(int(c) for c in self.decoder_channels)
        self.decoder_strides = tuple(int(s) for s in self.decoder_strides)
        self.rrelu_bounds = (float(self.rrelu_bounds[0]), float(self.rrelu_bounds[1]))
        self.validate()

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.fb < 1 or self.fo < 1 or self.fb != 10 * self.fo:
            raise ConfigError(f"sampling rates must satisfy fb = 10*fo >= 10, got fb={self.fb}, fo={self.fo}")
        if len(self.encoder_channels) != 9 or len(self.encoder_strides) != 9:
            raise ConfigError("encoder needs 9 channel and 9 stride entries")
        if len(self.decoder_channels) != 7 or len(self.decoder_strides) != 7:
            raise ConfigError("decoder needs 7 channel and 7 stride entries")
        if _product(self.encoder_strides) != ENCODER_DOWN_FACTOR:
            raise ConfigError(
                f"encoder strides must multiply to {ENCODER_DOWN_FACTOR}, got {_product(self.encoder_strides)}"
            )
        if _product(self.decoder_strides) != DECODER_UP_FACTOR:
            raise ConfigError(
                f"decoder strides must multiply to {DECODER_UP_FACTOR}, got {_product(self.decoder_strides)}"
            )
        if any(c < 1 for c in self.encoder_channels + self.decoder_channels):
            raise ConfigError("channel widths must be positive")
        if any(s < 1 for s in self.encoder_strides + self.decoder_strides):
            raise ConfigError("strides must be positive")
        if self.kernel_size != 7:
            raise ConfigError(f"kernel size is fixed at 7, got {self.kernel_size}")
        if self.variant == "cnn":
            if self.encoder_strides[8] != 1:
                raise ConfigError("cnn variant drops the 9th encoder layer, so its stride must be 1")
        else:
            if self.bert_hidden != self.encoder_channels[-1]:
                raise ConfigError(
                    f"bottleneck width {self.encoder_channels[-1]} must equal bert_hidden {self.bert_hidden}"
                )
            if self.bert_layers < 1 or self.bert_heads < 1:
                raise ConfigError("bert_layers and bert_heads must be >= 1")
            if self.bert_hidden // self.bert_heads < 1:
                raise ConfigError(
                    f"bert_hidden {self.bert_hidden} cannot host {self.bert_heads} heads"
                )
            if self.max_positions < 1:
                raise ConfigError("max_positions must be >= 1")
        if self.n_heads < 1:
            raise ConfigError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.variant != "gated" and self.n_heads != 1:
            raise ConfigError(f"variant {self.variant!r} uses a single head, got n_heads={self.n_heads}")
        if self.u_classes < 2:
            raise ConfigError(f"u_classes must be >= 2, got {self.u_classes}")
        if self.v_states < 1:
            raise ConfigError(f"v_states must be >= 1, got {self.v_states}")
        lo, hi = self.rrelu_bounds
        if not (0.0 <= lo <= hi < 1.0):
            raise ConfigError(f"rrelu bounds must satisfy 0 <= lower <= upper < 1, got {self.rrelu_bounds}")

    @property
    def bottleneck_width(self) -> int:
        if self.variant == "cnn":
            return self.encoder_channels[7]
        return self.encoder_channels[-1]

    @property
    def fu_channels(self) -> tuple[int, int, int]:
        d = self.decoder_channels
        return (d[0], d[2], d[4])

    def bottleneck_length(self, duration_s: int) -> int:
        if duration_s % QUANTUM_S != 0:
            raise ConfigError(f"duration {duration_s}s is not a multiple of the {QUANTUM_S}s quantum")
        return self.fb * duration_s // ENCODER_DOWN_FACTOR


@dataclass
class TrainConfig:
    lr: float = 2e-4
    epochs: int = 500
    seed: int = 0
    corr_weight: float = 0.2      # JSON key "lambda"
    aux_weight: float = 1.0       # JSON key "lambda_u"
    pretrain_fraction: float = 0.2
    grad_clip: float = 0.0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.corr_weight < 0 or self.aux_weight < 0:
            raise ConfigError("loss weights lambda and lambda_u must be >= 0")
        if not 0.0 < self.pretrain_fraction < 1.0:
            raise ConfigError(f"pretrain_fraction must lie in (0, 1), got {self.pretrain_fraction}")
        if self.grad_clip < 0:
            raise ConfigError(f"grad_clip must be >= 0, got {self.grad_clip}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


@dataclass
class GateConfig:
    n_heads: int = 6
    mode: str = "grad-sim"
    manual_table: dict[str, int] | None = None

    def __post_init__(self):
        if self.mode not in GATE_MODES:
            raise ConfigError(f"gate mode must be one of {GATE_MODES}, got {self.mode!r}")
        if self.n_heads < 1:
            raise ConfigError(f"gate n_heads must be >= 1, got {self.n_heads}")
        if self.mode == "manual" and not self.manual_table:
            raise ConfigError("gate mode 'manual' requires manual_table")


@dataclass
class DataConfig:
    dir: str | None = None
    split_ratio: float = 0.7
    split_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")


@dataclass
class EvalConfig:
    aggregation: str = "segment"
    group_var: str | None = None
    split: str = "test"

    def __post_init__(self):
        if self.aggregation not in ("segment", "night"):
            raise ConfigError(f"aggregation must be 'segment' or 'night', got {self.aggregation!r}")
        if self.split not in ("train", "test", "all"):
            raise ConfigError(f"split must be train/test/all, got {self.split!r}")


_TRAIN_KEY_ALIASES = {"lambda": "corr_weight", "lambda_u": "aux_weight"}
_TRAIN_KEY_REVERSE = {v: k for k, v in _TRAIN_KEY_ALIASES.items()}


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


_SECTION_TYPES = {
    "model": ModelConfig,
    "train": TrainConfig,
    "gate": GateConfig,
    "data": DataConfig,
    "eval": EvalConfig,
}


def _section_from_dict(cls, section: str, payload: dict):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        name = _TRAIN_KEY_ALIASES.get(key, key) if section == "train" else key
        if name not in fields:
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in config section {section!r}: {exc}") from exc


def run_config_from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(payload) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        sections[name] = _section_from_dict(cls, name, payload.get(name, {}))
    return RunConfig(**sections)


def load_run_config(path: str) -> RunConfig:
    return run_config_from_dict(read_json(path, ConfigError))


def _section_to_dict(section: str, obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = list(value)
        key = _TRAIN_KEY_REVERSE.get(f.name, f.name) if section == "train" else f.name
        out[key] = value
    return out


def run_config_to_dict(cfg: RunConfig) -> dict:
    return {name: _section_to_dict(name, getattr(cfg, name)) for name in _SECTION_TYPES}


def model_config_to_dict(cfg: ModelConfig) -> dict:
    return _section_to_dict("model", cfg)


def model_config_from_dict(payload: dict) -> ModelConfig:
    return _section_from_dict(ModelConfig, "model", payload)


def config_hash(cfg) -> str:
    """Stable digest of a RunConfig (or an already-serialized payload dict).

    The hash pins what produced an artifact: model, training, gating, and
    the data split. The data directory is a storage location and the eval
    section a readout choice, so neither participates; reproducing a run
    from a different path or reporting it with different aggregation keeps
    its hash.
    """
    payload = cfg if isinstance(cfg, dict) else run_config_to_dict(cfg)
    payload = json.loads(json.dumps(payload))
    if isinstance(payload.get("data"), dict):
        payload["data"].pop("dir", None)
    payload.pop("eval", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def tiny_model_config(scale: str = "tiny", variant: str = "backbone", n_heads: int = 1) -> ModelConfig:
    """Desk-scale architectures: channel widths <= 16, 1-2 attention layers."""
    if scale == "micro":
        return ModelConfig(
            encoder_channels=(2, 4, 4, 4, 4, 4, 4, 4, 4),
            decoder_channels=(4, 4, 4, 4, 4, 4, 4),
            bert_layers=1,
            bert_heads=2,
            bert_hidden=4,
            bert_intermediate=8,
            max_positions=16,
            variant=variant,
            n_heads=n_heads,
        )
    if scale == "tiny":
        return ModelConfig(
            encoder_channels=(16, 16, 16, 16, 16, 16, 16, 16, 16),
            decoder_channels=(16, 16, 16, 16, 16, 16, 16),
            bert_layers=2,
            bert_heads=2,
            bert_hidden=16,
            bert_intermediate=32,
            max_positions=128,
            variant=variant,
            n_heads=n_heads,
        )
    raise ConfigError(f"unknown tiny scale {scale!r}")
