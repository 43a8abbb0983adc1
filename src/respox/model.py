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
    ENCODER_DOWN_FACTOR,
    ConfigError,
    ModelConfig,
)
from .data import normalize_breathing
from .tensor import (
    ShapeError,
    Tensor,
    concat,
    log_softmax,
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
    per_head: Tensor                   # [N, fo*T]
    u_logits: Tensor | None = None     # [u_classes, fo*T]
    gate_series: np.ndarray | None = None  # [fo*T], values 1..N


# ---------------------------------------------------------------- building


def _uniform(rng, shape, bound, dtype):
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True, dtype=dtype)


def _normal(rng, shape, std, dtype):
    return Tensor((rng.normal(0.0, std, size=shape)).astype(dtype), requires_grad=True, dtype=dtype)


def _zeros(shape, dtype, requires_grad=True):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def _ones(shape, dtype, requires_grad=True):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def _add_block(params, prefix, rng, c_in, c_out, k, dtype, transposed):
    """One conv (or deconv) layer and its batch norm; weights uniform in +-1/sqrt(c_in*k)."""
    kind, shape = ("deconv", (c_in, c_out, k)) if transposed else ("conv", (c_out, c_in, k))
    params[f"{prefix}.{kind}.weight"] = _uniform(rng, shape, 1.0 / np.sqrt(c_in * k), dtype)
    params[f"{prefix}.{kind}.bias"] = _zeros((c_out,), dtype)
    params[f"{prefix}.bn.gamma"] = _ones((c_out,), dtype)
    params[f"{prefix}.bn.beta"] = _zeros((c_out,), dtype)
    params[f"{prefix}.bn.running_mean"] = _zeros((c_out,), dtype, requires_grad=False)
    params[f"{prefix}.bn.running_var"] = _ones((c_out,), dtype, requires_grad=False)


def _add_decoder(params, prefix, rng, c_ins, c_outs, n_out, k, dtype):
    """Deconv blocks {prefix}.i (c_ins[i] -> c_outs[i]), then a 1x1 projection to n_out."""
    for i, (c_in, c_out) in enumerate(zip(c_ins, c_outs)):
        _add_block(params, f"{prefix}.{i}", rng, c_in, c_out, k, dtype, transposed=True)
    c_last = c_outs[-1]
    params[f"{prefix}.proj.weight"] = _uniform(rng, (n_out, c_last, 1), 1.0 / np.sqrt(c_last), dtype)
    params[f"{prefix}.proj.bias"] = _zeros((n_out,), dtype)


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


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Create the full parameter set for a variant, deterministically from seed."""
    config.validate()
    rng = np.random.default_rng(seed)
    params: ModelParams = {}
    k = config.kernel_size

    c_prev = input_channels(config)
    for i in range(encoder_layer_count(config)):
        c_out = config.encoder_channels[i]
        _add_block(params, f"encoder.{i}", rng, c_prev, c_out, k, dtype, transposed=False)
        c_prev = c_out

    if config.variant != "cnn":
        d = config.bert_hidden
        shapes = kernels.attention_param_shapes(d, config.bert_heads, config.bert_intermediate)
        params["bert.pos_emb"] = _normal(rng, (config.max_positions, d), 0.02, dtype)
        for i in range(config.bert_layers):
            for key, shape in shapes.items():
                name = f"bert.{i}.{key}"
                if key.endswith("_w"):
                    params[name] = _normal(rng, shape, 0.02, dtype)
                elif key.endswith("_g"):
                    params[name] = _ones(shape, dtype)
                else:
                    params[name] = _zeros(shape, dtype)

    in_chain = decoder_in_channels(config)
    for h in range(1, config.n_heads + 1):
        _add_decoder(params, f"head{h}", rng, in_chain, config.decoder_channels, 1, k, dtype)

    if has_stage_head(config):
        fu = config.fu_channels
        _add_decoder(params, "fu", rng, (config.bottleneck_width,) + fu[:-1], fu, config.u_classes, k, dtype)

    return params


def model_dtype(params: ModelParams):
    return next(iter(params.values())).dtype


def param_count(params: ModelParams) -> int:
    return int(sum(t.size for t in params.values() if t.requires_grad))


# ---------------------------------------------------------------- forward


def _bn_rrelu(params, prefix, h, config, mode, rng):
    """Batch norm then randomized leaky ReLU: the tail every (de)conv block shares."""
    h = kernels.batch_norm1d(
        h,
        params[f"{prefix}.bn.gamma"],
        params[f"{prefix}.bn.beta"],
        params[f"{prefix}.bn.running_mean"],
        params[f"{prefix}.bn.running_var"],
        eps=config.bn_eps,
        momentum=config.bn_momentum,
        mode=mode,
    )
    lo, hi = config.rrelu_bounds
    return kernels.rrelu(h, lo, hi, mode=mode, rng=rng)


def _conv_block(params, prefix, x, stride, config, mode, rng):
    k = config.kernel_size
    h = kernels.conv1d(
        x,
        params[f"{prefix}.conv.weight"],
        params[f"{prefix}.conv.bias"],
        stride=stride,
        padding=k // 2,
    )
    return _bn_rrelu(params, prefix, h, config, mode, rng)


def _deconv_block(params, prefix, x, stride, config, mode, rng):
    k = config.kernel_size
    h = kernels.conv_transpose1d(
        x,
        params[f"{prefix}.deconv.weight"],
        params[f"{prefix}.deconv.bias"],
        stride=stride,
        padding=k // 2,
        output_padding=stride - 1,
    )
    return _bn_rrelu(params, prefix, h, config, mode, rng)


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
        h = _conv_block(params, f"encoder.{i}", h, config.encoder_strides[i], config, mode, rng)
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
        tokens = kernels.multi_head_self_attention(tokens, layer, config.bert_heads, mode=mode)
    return tokens.t(), skips


def _decode(params, prefix, h, strides, skips, config, mode, rng):
    """Walk a decoder built by _add_decoder; block i's output is joined with skips[i]."""
    for i, stride in enumerate(strides):
        h = _deconv_block(params, f"{prefix}.{i}", h, stride, config, mode, rng)
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
    onehot = (s[None, :] == np.arange(1, n + 1)[:, None]).astype(per_head.dtype)
    return (per_head * Tensor(onehot, dtype=per_head.dtype)).sum(axis=0)


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
    v = record.gender if config.variant in ("varaug", "gated") else None
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

    The stage head runs once, after the decoder heads, so its rrelu draws
    never perturb the shared modules' sample stream.  Gated models then pick
    each second's head from the stage labels u in train mode (missing labels
    fall back to the non-REM entry) or from the stage head's argmax in eval
    mode.
    """
    if config.variant == "varaug" and v is None:
        raise ConfigError("varaug forward requires the accessible state v")
    if config.variant == "gated":
        from .gate import gate_lookup  # local import, gate depends on model

        if gate_map is None:
            raise ConfigError("gated forward requires a gate map")
        if v is None:
            raise ConfigError("gated forward requires the accessible state v")
        if mode == "train" and u is None:
            raise ConfigError("gated train-mode forward requires ground-truth stages u")

    features, skips = encode(params, config, x, mode=mode, rng=rng)

    head_rows = [
        decode_head(params, config, h, features, skips, mode=mode, rng=rng).reshape(1, -1)
        for h in range(1, config.n_heads + 1)
    ]
    per_head = head_rows[0] if config.n_heads == 1 else concat(head_rows, axis=0)
    t_out = per_head.shape[1]

    u_logits = None
    if has_stage_head(config):
        u_logits = predict_inaccessible(params, config, features, mode=mode, rng=rng)
    if config.variant != "gated":
        return Prediction(y_hat=per_head.reshape(t_out), per_head=per_head, u_logits=u_logits)

    if mode == "train":
        u_gate = np.asarray(u)
        if u_gate.shape != (t_out,):
            raise ShapeError(f"stage series must have shape ({t_out},), got {u_gate.shape}")
        u_gate = np.where(u_gate == 255, min(2, config.u_classes - 1), u_gate)
    else:
        u_gate = np.argmax(u_logits.data, axis=0)
    gate_series = gate_lookup(gate_map, v, u_gate)
    y_hat = combine_heads(per_head, gate_series)
    return Prediction(y_hat=y_hat, per_head=per_head, u_logits=u_logits, gate_series=gate_series)


# ---------------------------------------------------------------- losses


def _as_const(y, like: Tensor) -> Tensor:
    if isinstance(y, Tensor):
        if y.dtype != like.dtype:
            return Tensor(y.data, dtype=like.dtype)
        return y
    return Tensor(np.asarray(y), dtype=like.dtype)


def loss_components(y_hat: Tensor, y) -> tuple[Tensor, Tensor]:
    """(mean absolute error, Pearson correlation) between a prediction and target.

    The correlation denominator carries a small epsilon inside the square
    root so a constant series yields correlation 0 instead of dividing by 0.
    """
    y = _as_const(y, y_hat)
    if y_hat.ndim != 1 or y_hat.shape != y.shape or y_hat.shape[0] < 1:
        raise ShapeError(f"loss expects matching 1-D series, got {y_hat.shape} and {y.shape}")
    l1 = (y_hat - y).abs().mean()
    dyh = y_hat - y_hat.mean()
    dy = y - y.mean()
    num = (dyh * dy).sum()
    den = ((dyh * dyh).sum() * (dy * dy).sum() + CORR_EPS).sqrt()
    return l1, num / den


def stage_ce_sum(u_logits: Tensor, u: np.ndarray) -> Tensor:
    """Summed cross-entropy of stage logits against labels; 255 seconds excluded."""
    if u_logits.ndim != 2:
        raise ShapeError(f"u_logits must be [classes, T], got {u_logits.shape}")
    n_classes, t = u_logits.shape
    u_arr = np.asarray(u)
    if u_arr.shape != (t,):
        raise ShapeError(f"stage labels must have shape ({t},), got {u_arr.shape}")
    valid = u_arr != 255
    if np.any((u_arr[valid] < 0) | (u_arr[valid] >= n_classes)):
        raise ShapeError(f"stage labels must lie in [0, {n_classes}) or be 255")
    onehot = np.zeros((n_classes, t))
    cols = np.nonzero(valid)[0]
    onehot[u_arr[cols], cols] = 1.0
    logp = log_softmax(u_logits, axis=0)
    return -(logp * Tensor(onehot, dtype=u_logits.dtype)).sum()


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
