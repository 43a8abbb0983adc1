"""Central-difference verification of the autodiff kernels.

grad_check compares reverse-mode gradients against a two-sided finite
difference of the same computation.  Multi-output ops are reduced to a
scalar through a fixed seeded weighting whose weights are exact powers of
two: that keeps the probe sensitive (a plain sum of softmax outputs has a
zero derivative) without adding rounding noise of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from . import model as model_mod
from .config import tiny_model_config
from .tensor import Tensor, no_grad

TOL_F32 = 1e-3
TOL_F64 = 1e-5

_WEIGHT_SEED = 0x5EED


def _probe_weights(shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(_WEIGHT_SEED)
    exponents = rng.integers(-3, 4, size=shape)
    return np.ldexp(np.ones(shape), exponents)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over coordinates of |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    err = np.abs(a - n) / denom
    return float(err.max()) if err.size else 0.0


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    numeric_fn: Callable[..., Tensor] | None = None,
    numeric_inputs: Sequence[Tensor] | None = None,
) -> float:
    """Return the worst relative error between reverse mode and central FD.

    fn is re-invoked for every probe, so it must be deterministic and must
    read the current .data of its inputs.  When `numeric_fn`/`numeric_inputs`
    are given (a float64 shadow of the computation), the finite differences
    run on the shadow while analytic gradients come from `inputs`; this is
    the 32-bit checking mode.
    """
    out = fn(*inputs)
    weights = _probe_weights(out.shape)

    for t in inputs:
        t.grad = None
    (out * weights).sum().backward()

    shadow = list(numeric_inputs) if numeric_inputs is not None else list(inputs)
    shadow_fn = numeric_fn if numeric_fn is not None else fn
    if len(shadow) != len(inputs):
        raise ValueError("numeric_inputs must mirror inputs")

    def shadow_scalar() -> float:
        return (shadow_fn(*shadow) * weights).sum().item()

    worst = 0.0
    for probe, source in zip(shadow, inputs):
        if not source.requires_grad:
            continue
        analytic = source.grad
        if analytic is None:
            analytic = np.zeros(source.shape, dtype=source.dtype)
        flat = probe.data.reshape(-1)
        numeric = np.zeros(flat.shape, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = shadow_scalar()
            flat[i] = orig - eps
            lo = shadow_scalar()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
        worst = max(worst, relative_error(analytic.reshape(-1), numeric))
    return worst


@dataclass
class CheckResult:
    name: str
    dtype: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return np.isfinite(self.error) and self.error < self.tolerance


def _dual_check(name, build, results, eps=1e-5):
    """Run one fixture in 64-bit, then re-run its 32-bit twin against the 64-bit FD oracle."""
    fn, inputs64 = build(np.float64)
    results.append(CheckResult(name, "float64", grad_check(fn, inputs64, eps=eps), TOL_F64))
    fn32, inputs32 = build(np.float32)
    shadow_fn, shadow = build(np.float64)
    err32 = grad_check(fn32, inputs32, eps=eps, numeric_fn=shadow_fn, numeric_inputs=shadow)
    results.append(CheckResult(name, "float32", err32, TOL_F32))


def _rand(rng, shape, dtype, lo=-1.0, hi=1.0, keep_away=0.0):
    data = rng.uniform(lo, hi, size=shape)
    if keep_away > 0.0:
        data = np.where(np.abs(data) < keep_away, keep_away * np.sign(data) + (data == 0) * keep_away, data)
    return Tensor(data.astype(dtype), requires_grad=True, dtype=dtype)


# (transposed, stride, mode, x takes a gradient) of the fused block fixtures;
# the first is shaped like the first encoder layer, whose input is data.
BLOCK_CASES = (
    (False, 1, "train", False),
    (False, 2, "train", True),
    (False, 1, "eval", True),
    (False, 3, "eval", True),
    (True, 1, "train", True),
    (True, 2, "train", True),
    (True, 1, "eval", False),
    (True, 2, "eval", True),
)


def run_suite(seed: int = 0, instances: int = 20) -> list[CheckResult]:
    """Gradient-check every kernel plus a composed stack, in both precisions."""
    results: list[CheckResult] = []
    base_rng = np.random.default_rng(seed)
    seeds = base_rng.integers(0, 2**31 - 1, size=instances)

    for inst, inst_seed in enumerate(seeds):
        suffix = f"[{inst}]"
        rng = np.random.default_rng(inst_seed)
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 7]))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k // 2 + 1))
        length = int(rng.integers(max(k - 2 * pad, 2), 14))

        def build_conv(dtype, rng_seed=inst_seed, c_in=c_in, c_out=c_out, k=k, stride=stride, pad=pad, length=length):
            r = np.random.default_rng(rng_seed)
            x = _rand(r, (c_in, length), dtype)
            w = _rand(r, (c_out, c_in, k), dtype)
            b = _rand(r, (c_out,), dtype)
            return (lambda xx, ww, bb: kernels.conv1d(xx, ww, bb, stride=stride, padding=pad)), [x, w, b]

        _dual_check(f"conv1d{suffix}", build_conv, results)

        op = int(rng.integers(0, stride))

        def build_deconv(dtype, rng_seed=inst_seed, c_in=c_in, c_out=c_out, k=k, stride=stride, pad=pad, length=length, op=op):
            r = np.random.default_rng(rng_seed)
            x = _rand(r, (c_in, length), dtype)
            w = _rand(r, (c_in, c_out, k), dtype)
            b = _rand(r, (c_out,), dtype)
            pad_eff = min(pad, ((length - 1) * stride + k + op - 1) // 2)
            return (
                lambda xx, ww, bb: kernels.conv_transpose1d(
                    xx, ww, bb, stride=stride, padding=pad_eff, output_padding=op
                ),
                [x, w, b],
            )

        _dual_check(f"conv_transpose1d{suffix}", build_deconv, results)

        channels = int(rng.integers(1, 5))
        blen = int(rng.integers(3, 12))
        bn_mode = "train" if inst % 2 == 0 else "eval"

        def build_bn(dtype, rng_seed=inst_seed, channels=channels, blen=blen, bn_mode=bn_mode):
            r = np.random.default_rng(rng_seed)
            x = _rand(r, (channels, blen), dtype)
            gamma = _rand(r, (channels,), dtype, 0.5, 1.5)
            beta = _rand(r, (channels,), dtype)
            rm = Tensor(r.uniform(-0.3, 0.3, channels).astype(dtype), dtype=dtype)
            rv = Tensor(r.uniform(0.5, 1.5, channels).astype(dtype), dtype=dtype)
            return (
                lambda xx, gg, bb: kernels.batch_norm1d(xx, gg, bb, rm, rv, mode=bn_mode),
                [x, gamma, beta],
            )

        _dual_check(f"batch_norm1d.{bn_mode}{suffix}", build_bn, results)

        def build_rrelu(dtype, rng_seed=inst_seed, channels=channels, blen=blen):
            r = np.random.default_rng(rng_seed)
            x = _rand(r, (channels, blen), dtype, keep_away=0.05)
            return (lambda xx: kernels.rrelu(xx, mode="eval")), [x]

        _dual_check(f"rrelu.eval{suffix}", build_rrelu, results)

        heads = int(rng.choice([1, 2]))
        d = heads * int(rng.integers(1, 4))
        tokens = int(rng.integers(1, 6))

        def build_attn(dtype, rng_seed=inst_seed, d=d, tokens=tokens, heads=heads):
            r = np.random.default_rng(rng_seed)
            x = _rand(r, (tokens, d), dtype)
            shapes = kernels.attention_param_shapes(d, heads, 2 * d)
            names = list(shapes)
            tensors = []
            for name, shape in shapes.items():
                lo, hi = (0.5, 1.5) if name.endswith("_g") else (-1.0, 1.0)
                tensors.append(_rand(r, shape, dtype, lo, hi))

            def fn(xx, *weights):
                params = dict(zip(names, weights))
                return kernels.multi_head_self_attention(xx, params, n_heads=heads)

            return fn, [x] + tensors

        if inst < max(4, instances // 4):
            _dual_check(f"attention{suffix}", build_attn, results)

    block_seed = int(base_rng.integers(0, 2**31 - 1))
    for transposed, stride, mode, x_grad in BLOCK_CASES:

        def build_block(dtype, transposed=transposed, stride=stride, mode=mode, x_grad=x_grad):
            r = np.random.default_rng(block_seed)
            c_in, c_out, k, length = 2, 3, 3, 7
            x = _rand(r, (c_in, length), dtype)
            x.requires_grad = x_grad
            w = _rand(r, (c_in, c_out, k) if transposed else (c_out, c_in, k), dtype)
            b = _rand(r, (c_out,), dtype)
            gamma = _rand(r, (c_out,), dtype, 0.5, 1.5)
            beta = _rand(r, (c_out,), dtype)
            rm = Tensor(r.uniform(-0.3, 0.3, c_out).astype(dtype), dtype=dtype)
            rv = Tensor(r.uniform(0.5, 1.5, c_out).astype(dtype), dtype=dtype)

            def fn(xx, ww, bb, gg, be):
                # a fresh generator per call draws the same train-mode slopes for every probe
                return kernels.conv_bn_rrelu(
                    xx, ww, bb, gg, be, rm, rv, stride=stride, padding=k // 2, transposed=transposed,
                    output_padding=stride - 1 if transposed else 0, mode=mode, rng=np.random.default_rng(block_seed),
                )

            return fn, [x, w, b, gamma, beta]

        kind = "deconv" if transposed else "conv"
        _dual_check(f"conv_bn_rrelu.{kind}.s{stride}.{mode}{'' if x_grad else '.x_const'}", build_block, results)

    return results


def _rrelu_kink_margin(cfg, params, x_np) -> float:
    """Smallest |pre-activation| any rrelu sees in one eval forward pass.

    Finite differences step over the rrelu kink when a pre-activation sits
    within eps of zero, which corrupts the numeric derivative without any
    analytic error.  The model suite measures this margin to pick a safe
    (seed, eps) pair.
    """
    margins = [np.inf]
    tail = kernels._rrelu_tail

    def observed(y, *args, **kwargs):
        if y.size:
            margins.append(float(np.min(np.abs(y))))
        return tail(y, *args, **kwargs)

    # every block's rrelu, fused or not, runs through the kernels module's tail
    kernels._rrelu_tail = observed
    try:
        with no_grad():
            x = Tensor(x_np, dtype=np.float64)
            model_mod.forward(params, cfg, x, mode="eval")
    finally:
        kernels._rrelu_tail = tail
    return min(margins)


def _kink_safe_draw(cfg, seed: int, duration: int):
    """(seed, kink margin, input) of the best of up to 40 weight/input draws.

    Scans for a draw whose pre-activations all keep a healthy distance from
    the rrelu kink; the model suite then sizes eps well under that margin.
    """
    best_seed, best_margin, best_x = seed, -1.0, None
    for candidate in range(seed, seed + 40):
        rng = np.random.default_rng(candidate)
        x_np = rng.uniform(-1.0, 1.0, size=(1, cfg.fb * duration))
        params64 = model_mod.build_model(cfg, seed=candidate, dtype=np.float64)
        margin = _rrelu_kink_margin(cfg, params64, x_np)
        if margin > best_margin:
            best_seed, best_margin, best_x = candidate, margin, x_np
        if margin > 1e-3:
            break
    return best_seed, best_margin, best_x


def run_model_suite(seed: int = 0) -> list[CheckResult]:
    """Whole-model check: encoder -> bottleneck -> decoder -> loss, eval-mode activations."""
    results: list[CheckResult] = []
    cfg = tiny_model_config(scale="micro")
    duration = 48
    best_seed, best_margin, x_np = _kink_safe_draw(cfg, seed, duration)
    eps = min(1e-6, best_margin / 100.0)
    y_np = np.random.default_rng(best_seed).uniform(0.9, 0.99, size=(cfg.fo * duration,))

    def build(dtype):
        params = model_mod.build_model(cfg, seed=best_seed, dtype=dtype)
        names = sorted(name for name, t in params.items() if t.requires_grad)
        tensors = [params[name] for name in names]
        x = Tensor(x_np, dtype=dtype)

        def fn(*weights):
            pred = model_mod.forward(params, cfg, x, mode="eval")
            return model_mod.loss(pred.y_hat, y_np, corr_weight=0.2)[0]

        return fn, tensors

    _dual_check("model.composed", build, results, eps=eps)
    return results


def run_all(seed: int = 0, instances: int = 20) -> tuple[list[CheckResult], float]:
    start = time.perf_counter()
    results = run_suite(seed=seed, instances=instances)
    results.extend(run_model_suite(seed=seed))
    return results, time.perf_counter() - start
