import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respox import model as model_mod
from respox.config import ConfigError, tiny_model_config
from respox.gate import GateMap
from respox.model import (
    SKIP_SOURCES,
    GateRangeError,
    LengthError,
    as_input,
    build_model,
    combine_heads,
    encode,
    forward,
    loss,
    loss_components,
    param_count,
    stage_ce_sum,
)
from respox.tensor import Tensor


def breathing(duration_s, seed=0):
    return np.random.default_rng(seed).normal(size=10 * duration_s)


def test_build_is_deterministic():
    cfg = tiny_model_config("micro")
    a = build_model(cfg, seed=5)
    b = build_model(cfg, seed=5)
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    c = build_model(cfg, seed=6)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


# sha256 of the newline-joined parameter names of each micro build, in
# insertion order; checkpoints store tensors in this order.
MICRO_PARAM_NAME_SHA256 = {
    "backbone": "8faa7ed44ef2adfc25a914ec4ca9559766997ace51b674bb1eea380e20ea267b",
    "cnn": "2e986376d64039c12bc157913de603391e626c967a21cb85d8e530899be061eb",
    "varaug": "51d4749ad2c6d3087cc92c43ae80307b58bb9e53ff43b81d1507d40c4343f196",
    "gated": "5095fc9acb51687a57e372917938b6565e94c4bbb626407f2ef7461435035e18",
}


@pytest.mark.parametrize("variant", ["backbone", "cnn", "varaug", "gated"])
def test_build_draws_every_tensor_by_the_rule_in_order(variant):
    """Conv, deconv and projection weights are uniform in +-1/sqrt(fan_in);
    attention weights and pos_emb are normal(0, 0.02); all drawn from one
    default_rng(seed) stream in insertion order.  The rest are zeros or ones."""
    cfg = tiny_model_config("micro", variant=variant, n_heads=2 if variant == "gated" else 1)
    params = build_model(cfg, seed=11)
    rng = np.random.default_rng(11)
    for name, tensor in params.items():
        shape = tensor.shape
        if name.endswith(".deconv.weight"):  # [c_in, c_out, k]
            bound = 1.0 / np.sqrt(shape[0] * shape[2])
            expected = rng.uniform(-bound, bound, size=shape)
        elif name.endswith((".conv.weight", ".proj.weight")):  # [c_out, c_in, k]
            bound = 1.0 / np.sqrt(shape[1] * shape[2])
            expected = rng.uniform(-bound, bound, size=shape)
        elif name == "bert.pos_emb" or (name.startswith("bert.") and name.endswith("_w")):
            expected = rng.normal(0.0, 0.02, size=shape)
        elif name.endswith((".gamma", ".running_var", "_g")):
            expected = np.ones(shape)
        else:
            assert name.endswith((".bias", ".beta", ".running_mean", "_b")), name
            expected = np.zeros(shape)
        assert tensor.dtype == np.float32, name
        np.testing.assert_array_equal(tensor.data, expected.astype(np.float32), err_msg=name)
        assert tensor.requires_grad == (".running_" not in name), name
    digest = hashlib.sha256("\n".join(params).encode("utf-8")).hexdigest()
    assert digest == MICRO_PARAM_NAME_SHA256[variant]


def test_skips_come_in_decoder_order():
    cfg = tiny_model_config("micro")
    params = build_model(cfg, seed=0)
    features, skips = encode(params, cfg, as_input(breathing(48), params))
    m = features.shape[1]
    expected = [(cfg.encoder_channels[j], 3 * m * 2**i) for i, j in enumerate(SKIP_SOURCES)]
    assert [s.shape for s in skips] == expected  # 3m, 6m, 12m, 24m
    cnn = tiny_model_config("micro", variant="cnn")
    cnn_params = build_model(cnn, seed=0)
    assert encode(cnn_params, cnn, as_input(breathing(48), cnn_params))[1] is None


def test_running_stats_are_buffers():
    params = build_model(tiny_model_config("micro"), seed=0)
    for name, tensor in params.items():
        if "running_" in name:
            assert not tensor.requires_grad, name
        else:
            assert tensor.requires_grad, name


@pytest.mark.parametrize("variant", ["backbone", "cnn", "varaug", "gated"])
def test_variant_output_lengths(variant):
    cfg = tiny_model_config("micro", variant=variant, n_heads=2 if variant == "gated" else 1)
    params = build_model(cfg, seed=0)
    duration = 96
    v = 1 if variant in ("varaug", "gated") else None
    x = as_input(breathing(duration), params, v=v if variant == "varaug" else None)
    gate_map = GateMap(n_heads=2, table={(a, b): 1 + (b % 2) for a in (0, 1) for b in (0, 1, 2)}) \
        if variant == "gated" else None
    pred = forward(params, cfg, x, v=v, gate_map=gate_map, mode="eval")
    assert pred.y_hat.shape == (duration,)
    if variant in ("varaug", "gated"):
        assert pred.u_logits.shape == (3, duration)
    else:
        assert pred.u_logits is None
    if variant == "gated":
        assert pred.per_head.shape == (2, duration)
        assert pred.gate_series.shape == (duration,)
        assert set(np.unique(pred.gate_series)) <= {1, 2}


def test_cnn_variant_has_no_attention_params():
    params = build_model(tiny_model_config("micro", variant="cnn"), seed=0)
    assert not any("bert" in name for name in params)
    backbone = build_model(tiny_model_config("micro"), seed=0)
    assert param_count(params) < param_count(backbone)


def test_non_multiple_length_rejected():
    cfg = tiny_model_config("micro")
    params = build_model(cfg, seed=0)
    with pytest.raises(LengthError):
        forward(params, cfg, as_input(breathing(25), params), mode="eval")


def test_position_budget_enforced():
    cfg = tiny_model_config("micro")  # 16 positions -> 384 s max
    params = build_model(cfg, seed=0)
    with pytest.raises(LengthError):
        forward(params, cfg, as_input(breathing(24 * 17), params), mode="eval")


def test_varaug_requires_state_and_packs_constant_channel():
    cfg = tiny_model_config("micro", variant="varaug")
    params = build_model(cfg, seed=0)
    x = as_input(breathing(48), params, v=1)
    assert x.shape == (2, 480)
    np.testing.assert_array_equal(x.data[1], np.ones(480, dtype=np.float32))
    with pytest.raises(ConfigError):
        forward(params, cfg, x, mode="eval")  # v missing


def test_gated_requires_map_and_state():
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    params = build_model(cfg, seed=0)
    x = as_input(breathing(48), params)
    with pytest.raises(ConfigError):
        forward(params, cfg, x, v=0, mode="eval")


@given(
    n_heads=st.integers(1, 5),
    length=st.integers(1, 50),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_combine_heads_matches_indexing_bitwise(n_heads, length, seed):
    rng = np.random.default_rng(seed)
    per_head = Tensor(rng.normal(size=(n_heads, length)).astype(np.float32), dtype=np.float32)
    status = rng.integers(1, n_heads + 1, size=length)
    out = combine_heads(per_head, status).data
    direct = per_head.data[status - 1, np.arange(length)]
    np.testing.assert_array_equal(out, direct)


def test_combine_heads_rejects_out_of_range():
    per_head = Tensor(np.zeros((2, 4), dtype=np.float32), dtype=np.float32)
    with pytest.raises(GateRangeError):
        combine_heads(per_head, np.array([1, 2, 3, 1]))
    with pytest.raises(GateRangeError):
        combine_heads(per_head, np.array([0, 1, 1, 1]))


def test_combine_heads_routes_gradient_to_selected_head_only():
    per_head = Tensor(np.arange(8, dtype=np.float64).reshape(2, 4), requires_grad=True, dtype=np.float64)
    status = np.array([1, 2, 2, 1])
    combine_heads(per_head, status).sum().backward()
    expected = np.array([[1.0, 0, 0, 1.0], [0, 1.0, 1.0, 0]])
    np.testing.assert_array_equal(per_head.grad, expected)


def test_loss_components_match_numpy_formulas():
    rng = np.random.default_rng(0)
    y_hat = Tensor(rng.normal(size=60), dtype=np.float64)
    y = rng.normal(size=60)
    l1, corr = loss_components(y_hat, y)
    np.testing.assert_allclose(float(l1), np.mean(np.abs(y_hat.data - y)), atol=1e-12)
    expected_corr = np.corrcoef(y_hat.data, y)[0, 1]
    np.testing.assert_allclose(float(corr), expected_corr, atol=1e-6)


def test_loss_weighting():
    y_hat = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
    y = np.array([1.5, 2.0, 2.5])
    l1, corr = loss_components(y_hat, y)
    np.testing.assert_allclose(
        float(loss(y_hat, y, 0.2)[0]), float(l1) - 0.2 * float(corr), atol=1e-12
    )


def test_corr_survives_constant_prediction():
    y_hat = Tensor(np.full(24, 0.95), dtype=np.float64)
    _, corr = loss_components(y_hat, np.linspace(0.9, 1.0, 24))
    assert np.isfinite(float(corr))


def test_stage_ce_sums_over_labeled_seconds_only():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(3, 6)), requires_grad=True, dtype=np.float64)
    u = np.array([0, 1, 2, 255, 255, 0], dtype=np.uint8)
    ce = stage_ce_sum(logits, u)
    log_p = logits.data - np.log(np.exp(logits.data).sum(axis=0, keepdims=True))
    expected = -sum(log_p[u[i], i] for i in range(6) if u[i] != 255)
    np.testing.assert_allclose(float(ce), expected, atol=1e-10)


def _loss_fixture():
    rng = np.random.default_rng(2)
    y_hat = Tensor(rng.normal(size=12), dtype=np.float64)
    y = rng.normal(size=12)
    logits = Tensor(rng.normal(size=(3, 12)), dtype=np.float64)
    u = rng.integers(0, 3, size=12).astype(np.uint8)
    return y_hat, y, logits, u


def test_loss_adds_scaled_stage_term():
    y_hat, y, logits, u = _loss_fixture()
    base = float(loss(y_hat, y, 0.2)[0])
    with_aux, terms = loss(y_hat, y, 0.2, logits, u, 1.0)
    assert float(with_aux) > base
    np.testing.assert_allclose(
        float(with_aux) - base, float(stage_ce_sum(logits, u)) / 12.0, atol=1e-10
    )
    assert terms["ce"] == float(stage_ce_sum(logits, u))


def test_loss_with_zero_aux_weight_skips_stage_term():
    y_hat, y, logits, u = _loss_fixture()
    base, base_terms = loss(y_hat, y, 0.2)
    with_logits, terms = loss(y_hat, y, 0.2, logits, u, 0.0)
    assert float(with_logits) == float(base)
    assert terms == base_terms
    assert terms["ce"] == 0.0


@pytest.mark.parametrize("weights", [(-0.1, 0.0), (0.2, -1.0)], ids=["corr", "aux"])
def test_loss_rejects_negative_weights(weights):
    y_hat, y, logits, u = _loss_fixture()
    with pytest.raises(ConfigError):
        loss(y_hat, y, weights[0], logits, u, weights[1])


def test_param_count_depends_on_architecture_not_seed():
    params = build_model(tiny_model_config("tiny"), seed=0)
    assert param_count(params) == param_count(build_model(tiny_model_config("tiny"), seed=1))


def test_train_mode_uses_rng_and_eval_does_not():
    cfg = tiny_model_config("micro")
    params = build_model(cfg, seed=0)
    x = as_input(breathing(48), params)
    a = forward(params, cfg, x, mode="eval").y_hat.data.copy()
    b = forward(params, cfg, x, mode="eval").y_hat.data.copy()
    np.testing.assert_array_equal(a, b)
    with pytest.raises(Exception):
        forward(params, cfg, x, mode="train")  # rng required in train mode
