"""Breathing-to-SpO2 network: conv encoder, attention bottleneck, deconv decoder heads.

The encoder shrinks a 10 Hz breathing signal by x240 into bottleneck tokens,
an optional transformer stack mixes them, and each decoder head upsamples
x24 back to 1 Hz.  Four variants share the machinery:

  backbone  encoder + bottleneck + one head, skip links
  cnn       8-layer encoder + one head, no bottleneck, no skip links
  varaug    backbone + accessible variable as an input channel + stage head
  gated     backbone + N decoder heads selected per second by a gate map
            + stage head predicting the inaccessible variable

Every decoder head and the stage head is the same shape of network: a stack
of deconv blocks and a 1x1 projection, built by _add_decoder and walked by
_decode.  Decoder block i of a head concatenates encoder output
SKIP_SOURCES[i] onto its output, except in the cnn variant.

SpO2 lives in [0, 1] inside the model (divide by 100 on the way in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import (
    DECODER_UP_FACTOR,
    ENCODER_DOWN_FACTOR,
    ConfigError,
    ModelConfig,
)
from .data import STAGE_MISSING, STAGE_NONREM, accessible_state, normalize_breathing
from .tensor import (
    ShapeError,
    Tensor,
    as_tensor,
    concat,
    log_softmax,
    no_grad,
)

CORR_EPS = 1e-8
FU_STRIDES = (3, 2, 4)
# Decoder block i concatenates encoder output SKIP_SOURCES[i]: the 3m, 6m,
# 12m and 24m scales, m being the bottleneck length.
SKIP_SOURCES = (5, 4, 3, 2)

ModelParams = dict


class LengthError(ValueError):
    """Input length violates the stride arithmetic or position budget."""


class GateRangeError(ValueError):
    """A gate status fell outside 1..N."""


@dataclass
class Prediction:
    y_hat: Tensor                      # [fo*T], model scale [0, 1]
    u_logits: Tensor | None = None     # [u_classes, fo*T]
    gate_series: np.ndarray | None = None  # [fo*T], values 1..N


# ---------------------------------------------------------------- building


def is_buffer(name: str) -> bool:
    """Batch-norm running statistics: stored and updated by train-mode forward, never trained."""
    return "running_" in name


def _add_block(shapes, prefix, c_in, c_out, k, transposed):
    """One conv (or deconv) layer and its batch norm."""
    kind, shape = ("deconv", (c_in, c_out, k)) if transposed else ("conv", (c_out, c_in, k))
    shapes[f"{prefix}.{kind}.weight"] = shape
    shapes[f"{prefix}.{kind}.bias"] = (c_out,)
    for key in ("gamma", "beta", "running_mean", "running_var"):
        shapes[f"{prefix}.bn.{key}"] = (c_out,)


def _add_decoder(shapes, prefix, c_ins, c_outs, n_out, k):
    """Deconv blocks {prefix}.i (c_ins[i] -> c_outs[i]), then a 1x1 projection to n_out."""
    for i, (c_in, c_out) in enumerate(zip(c_ins, c_outs)):
        _add_block(shapes, f"{prefix}.{i}", c_in, c_out, k, transposed=True)
    shapes[f"{prefix}.proj.weight"] = (n_out, c_outs[-1], 1)
    shapes[f"{prefix}.proj.bias"] = (n_out,)


def input_channels(config: ModelConfig) -> int:
    return 2 if config.variant == "varaug" else 1


def encoder_layer_count(config: ModelConfig) -> int:
    return 8 if config.variant == "cnn" else 9


def uses_skips(config: ModelConfig) -> bool:
    return config.variant != "cnn"


def has_stage_head(config: ModelConfig) -> bool:
    return config.variant in ("varaug", "gated")


def decoder_in_channels(config: ModelConfig) -> list[int]:
    """Per-layer input widths of one decoder head, including skip concatenation."""
    skips = SKIP_SOURCES if uses_skips(config) else ()
    chain = [config.bottleneck_width]
    for i, width in enumerate(config.decoder_channels[:-1]):
        if i < len(skips):
            width += config.encoder_channels[skips[i]]
        chain.append(width)
    return chain


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor of a variant, in the order build_model draws them."""
    config.validate()
    shapes: dict[str, tuple[int, ...]] = {}
    k = config.kernel_size

    c_ins = (input_channels(config),) + config.encoder_channels
    for i in range(encoder_layer_count(config)):
        _add_block(shapes, f"encoder.{i}", c_ins[i], c_ins[i + 1], k, transposed=False)

    if config.variant != "cnn":
        shapes["bert.pos_emb"] = (config.max_positions, config.bert_hidden)
        layer = kernels.attention_param_shapes(config.bert_hidden, config.bert_heads, config.bert_intermediate)
        for i in range(config.bert_layers):
            shapes.update({f"bert.{i}.{key}": shape for key, shape in layer.items()})

    in_chain = decoder_in_channels(config)
    for h in range(1, config.n_heads + 1):
        _add_decoder(shapes, f"head{h}", in_chain, config.decoder_channels, 1, k)

    if has_stage_head(config):
        fu = config.fu_channels
        _add_decoder(shapes, "fu", (config.bottleneck_width,) + fu[:-1], fu, config.u_classes, k)

    return shapes


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Every tensor of param_shapes(config), drawn from one default_rng(seed) stream in that
    order: conv, deconv and projection weights uniform in +-1/sqrt(fan_in), attention weights
    and pos_emb normal(0, 0.02); gains and running variances ones, the rest zeros."""
    rng = np.random.default_rng(seed)
    params: ModelParams = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".weight"):  # conv [c_out, c_in, k], deconv [c_in, c_out, k], proj [n_out, c_in, 1]
            fan_in = shape[0] * shape[2] if name.endswith(".deconv.weight") else shape[1] * shape[2]
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        elif name == "bert.pos_emb" or name.endswith("_w"):
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            data = np.full(shape, 1.0 if name.endswith(("gamma", "running_var", "_g")) else 0.0)
        params[name] = Tensor(data.astype(dtype), requires_grad=not is_buffer(name), dtype=dtype)
    return params


def model_dtype(params: ModelParams):
    return next(iter(params.values())).dtype


def param_count(params: ModelParams) -> int:
    return int(sum(t.size for t in params.values() if t.requires_grad))


# ---------------------------------------------------------------- forward


def _block(params, prefix, x, stride, config, mode, rng, transposed):
    """One layer built by _add_block: (de)conv, batch norm and rrelu in one kernel call."""
    kind = "deconv" if transposed else "conv"
    lo, hi = config.rrelu_bounds
    return kernels.conv_bn_rrelu(
        x,
        params[f"{prefix}.{kind}.weight"],
        params[f"{prefix}.{kind}.bias"],
        params[f"{prefix}.bn.gamma"],
        params[f"{prefix}.bn.beta"],
        params[f"{prefix}.bn.running_mean"],
        params[f"{prefix}.bn.running_var"],
        stride=stride,
        padding=config.kernel_size // 2,
        transposed=transposed,
        output_padding=stride - 1 if transposed else 0,
        eps=config.bn_eps,
        momentum=config.bn_momentum,
        lower=lo,
        upper=hi,
        mode=mode,
        rng=rng,
    )


def encode(
    params: ModelParams,
    config: ModelConfig,
    x: Tensor,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[Tensor] | None]:
    """Run the encoder (and bottleneck when present).

    Returns (features [n, fb*T/240], skips).  Skips are the encoder
    outputs named by SKIP_SOURCES, in decoder order: lengths 3m, 6m, 12m,
    24m where m is the bottleneck length; None for the cnn variant.
    """
    if x.ndim != 2 or x.shape[0] != input_channels(config):
        raise ShapeError(
            f"encode expects [{input_channels(config)}, fb*T] input, got {x.shape}"
        )
    length = x.shape[1]
    if length == 0 or length % ENCODER_DOWN_FACTOR != 0:
        raise LengthError(
            f"input length {length} is not a positive multiple of {ENCODER_DOWN_FACTOR}"
        )
    if mode == "train" and rng is None:
        raise ShapeError("train-mode forward requires an rng for rrelu sampling")
    m = length // ENCODER_DOWN_FACTOR

    h = x
    outputs = []
    for i in range(encoder_layer_count(config)):
        h = _block(params, f"encoder.{i}", h, config.encoder_strides[i], config, mode, rng, transposed=False)
        outputs.append(h)

    skips = [outputs[j] for j in SKIP_SOURCES] if uses_skips(config) else None

    if config.variant == "cnn":
        return h, skips

    if m > config.max_positions:
        raise LengthError(
            f"bottleneck length {m} exceeds the {config.max_positions} position budget"
        )
    tokens = h.t()
    pos = params["bert.pos_emb"].narrow(0, 0, m)
    tokens = tokens + pos
    for i in range(config.bert_layers):
        layer = {key: params[f"bert.{i}.{key}"] for key in kernels.ATTENTION_PARAM_KEYS}
        tokens = kernels.multi_head_self_attention(tokens, layer, config.bert_heads)
    return tokens.t(), skips


def _decode(params, prefix, h, strides, skips, config, mode, rng):
    """Walk a decoder built by _add_decoder; block i's output is joined with skips[i]."""
    for i, stride in enumerate(strides):
        h = _block(params, f"{prefix}.{i}", h, stride, config, mode, rng, transposed=True)
        if skips is not None and i < len(skips):
            h = concat([h, skips[i]], axis=0)
    return kernels.conv1d(h, params[f"{prefix}.proj.weight"], params[f"{prefix}.proj.bias"])


def decode_head(
    params: ModelParams,
    config: ModelConfig,
    head: int,
    features: Tensor,
    skips: list[Tensor] | None,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Upsample bottleneck features x24 through decoder head `head` (1-based)."""
    if not 1 <= head <= config.n_heads:
        raise GateRangeError(f"head index {head} outside 1..{config.n_heads}")
    if uses_skips(config) and skips is None:
        raise ShapeError(f"variant {config.variant!r} decodes with skip activations")
    out = _decode(params, f"head{head}", features, config.decoder_strides, skips, config, mode, rng)
    return out.reshape(out.shape[1])


def predict_inaccessible(
    params: ModelParams,
    config: ModelConfig,
    features: Tensor,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Stage-head logits [u_classes, fo*T] from bottleneck features."""
    if not has_stage_head(config):
        raise ConfigError(f"variant {config.variant!r} has no stage head")
    return _decode(params, "fu", features, FU_STRIDES, None, config, mode, rng)


def combine_heads(per_head: Tensor, status: np.ndarray) -> Tensor:
    """Per-timestep head selection: out[t] = per_head[status[t] - 1, t].

    Implemented as a one-hot mask multiply so gradients flow only to the
    selected head at each timestep; numerically identical (bitwise) to
    direct indexing because every unselected product is an exact zero.
    """
    if per_head.ndim != 2:
        raise ShapeError(f"per_head must be [N, T], got {per_head.shape}")
    n, t = per_head.shape
    s = np.asarray(status)
    if s.shape != (t,):
        raise ShapeError(f"gate series must have shape ({t},), got {s.shape}")
    if s.size and (s.min() < 1 or s.max() > n):
        raise GateRangeError(f"gate status outside 1..{n}: range [{s.min()}, {s.max()}]")
    onehot = s[None, :] == np.arange(1, n + 1)[:, None]
    return (per_head * onehot).sum(axis=0)


def as_input(breathing: np.ndarray, params: ModelParams, v: int | None = None) -> Tensor:
    """Pack a breathing series (and optionally the accessible state) as [C, L]."""
    dtype = model_dtype(params)
    x = np.asarray(breathing, dtype=dtype).reshape(1, -1)
    if v is not None:
        state = np.full_like(x, float(v))
        x = np.concatenate([x, state], axis=0)
    return Tensor(x, dtype=dtype)


def night_input(params: ModelParams, config: ModelConfig, record) -> tuple[Tensor, int | None]:
    """One night as model input: z-scored breathing packed [C, L], plus the
    accessible state v for varaug and gated (None otherwise)."""
    v = accessible_state(record) if config.variant in ("varaug", "gated") else None
    x = as_input(normalize_breathing(record), params, v=v if config.variant == "varaug" else None)
    return x, v


def forward(
    params: ModelParams,
    config: ModelConfig,
    x: Tensor,
    v: int | None = None,
    u: np.ndarray | None = None,
    gate_map=None,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Prediction:
    """Full forward pass for any variant.

    Gated models fix each second's head from a gate map before any head
    is decoded: train mode reads the stage labels u (missing ones map to
    non-REM), eval mode the argmax of the stage head, which runs first.
    Heads 1..N then run in order, with a graph where the gate reaches them.
    In train mode an unreached head runs without one, keeping its rrelu
    draws and running statistics, and the stage head runs last.
    """
    if config.variant == "varaug" and v is None:
        raise ConfigError("varaug forward requires the accessible state v")
    if config.variant == "gated":
        if gate_map is None:
            raise ConfigError("gated forward requires a gate map")
        if v is None:
            raise ConfigError("gated forward requires the accessible state v")
        if mode == "train" and u is None:
            raise ConfigError("gated train-mode forward requires ground-truth stages u")

    features, skips = encode(params, config, x, mode=mode, rng=rng)
    if config.variant != "gated":
        y_hat = decode_head(params, config, 1, features, skips, mode=mode, rng=rng)
        u_logits = predict_inaccessible(params, config, features, mode=mode, rng=rng) if has_stage_head(config) else None
        return Prediction(y_hat=y_hat, u_logits=u_logits)

    if mode == "train":
        t_out = features.shape[1] * DECODER_UP_FACTOR
        u_gate = np.asarray(u)
        if u_gate.shape != (t_out,):
            raise ShapeError(f"stage series must have shape ({t_out},), got {u_gate.shape}")
        u_gate = np.where(u_gate == STAGE_MISSING, min(STAGE_NONREM, config.u_classes - 1), u_gate)
    else:
        u_logits = predict_inaccessible(params, config, features, mode=mode, rng=rng)
        u_gate = np.argmax(u_logits.data, axis=0)
    gate_series = gate_map.lookup(v, u_gate)
    heads = np.unique(gate_series)
    if heads[0] < 1 or heads[-1] > config.n_heads:
        raise GateRangeError(f"gate status outside 1..{config.n_heads}: range [{heads[0]}, {heads[-1]}]")
    rows = []
    for h in range(1, config.n_heads + 1):
        if h in heads:
            rows.append(decode_head(params, config, h, features, skips, mode=mode, rng=rng).reshape(1, -1))
        elif mode == "train":
            with no_grad():
                decode_head(params, config, h, features, skips, mode=mode, rng=rng)
    if mode == "train":
        u_logits = predict_inaccessible(params, config, features, mode=mode, rng=rng)
    y_hat = combine_heads(rows[0] if len(rows) == 1 else concat(rows, axis=0), np.searchsorted(heads, gate_series) + 1)
    return Prediction(y_hat=y_hat, u_logits=u_logits, gate_series=gate_series)


# ---------------------------------------------------------------- losses


def loss_components(y_hat: Tensor, y) -> tuple[Tensor, Tensor]:
    """(mean absolute error, Pearson correlation) between a prediction and target.

    The correlation denominator carries a small epsilon inside the square
    root so a constant series yields correlation 0 instead of dividing by 0.
    """
    y = as_tensor(y, y_hat)
    if y_hat.ndim != 1 or y_hat.shape != y.shape or y_hat.shape[0] < 1:
        raise ShapeError(f"loss expects matching 1-D series, got {y_hat.shape} and {y.shape}")
    l1 = (y_hat - y).abs().mean()
    dyh = y_hat - y_hat.mean()
    dy = y - y.mean()
    num = (dyh * dy).sum()
    den = ((dyh * dyh).sum() * (dy * dy).sum() + CORR_EPS).sqrt()
    return l1, num / den


def stage_ce_sum(u_logits: Tensor, u: np.ndarray) -> Tensor:
    """Summed cross-entropy of stage logits against labels; missing seconds excluded."""
    if u_logits.ndim != 2:
        raise ShapeError(f"u_logits must be [classes, T], got {u_logits.shape}")
    n_classes, t = u_logits.shape
    u_arr = np.asarray(u)
    if u_arr.shape != (t,):
        raise ShapeError(f"stage labels must have shape ({t},), got {u_arr.shape}")
    valid = u_arr != STAGE_MISSING
    if np.any((u_arr[valid] < 0) | (u_arr[valid] >= n_classes)):
        raise ShapeError(f"stage labels must lie in [0, {n_classes}) or be {STAGE_MISSING}")
    onehot = np.zeros((n_classes, t))
    cols = np.nonzero(valid)[0]
    onehot[u_arr[cols], cols] = 1.0
    logp = log_softmax(u_logits, axis=0)
    return -(logp * onehot).sum()


def loss(
    y_hat: Tensor,
    y,
    corr_weight: float,
    u_logits: Tensor | None = None,
    u: np.ndarray | None = None,
    aux_weight: float = 0.0,
) -> tuple[Tensor, dict]:
    """The training objective and its float terms {l1, corr, ce} for the log.

    Mean absolute error minus corr_weight times Pearson correlation; when
    stage logits are given and aux_weight is nonzero, plus aux_weight/T times
    the summed stage cross-entropy.  Seconds labeled 255 (missing) are
    excluded from the cross-entropy sum; the normalizer stays the full
    series length.
    """
    if corr_weight < 0 or aux_weight < 0:
        raise ConfigError(f"loss weights must be >= 0, got corr {corr_weight}, aux {aux_weight}")
    l1, corr = loss_components(y_hat, y)
    total = l1 - corr_weight * corr
    ce = 0.0
    if u_logits is not None and aux_weight != 0.0:
        t = y_hat.shape[0]
        if u_logits.ndim != 2 or u_logits.shape[1] != t:
            raise ShapeError(f"u_logits must be [classes, {t}], got {u_logits.shape}")
        ce_sum = stage_ce_sum(u_logits, u)
        total = total + (aux_weight / t) * ce_sum
        ce = float(ce_sum)
    return total, {"l1": float(l1), "corr": float(corr), "ce": ce}
