import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respox import model as model_mod
from respox.config import ConfigError, ModelConfig, tiny_model_config
from respox.data import STAGE_MISSING, STAGE_NONREM
from respox.gate import GateError, GateMap, identity_gate_map
from respox.model import (
    SKIP_SOURCES,
    GateRangeError,
    LengthError,
    as_input,
    build_model,
    combine_heads,
    decode_head,
    encode,
    forward,
    loss,
    loss_components,
    param_count,
    param_shapes,
    predict_inaccessible,
    stage_ce_sum,
)
from respox.tensor import Tensor, _toposort, concat


def breathing(duration_s, seed=0):
    return np.random.default_rng(seed).normal(size=10 * duration_s)


@pytest.fixture()
def decoded_heads(monkeypatch):
    """Head indices that forward passes to model.decode_head, in call order."""
    heads = []
    real = model_mod.decode_head

    def counting(params, config, head, *args, **kwargs):
        heads.append(head)
        return real(params, config, head, *args, **kwargs)

    monkeypatch.setattr(model_mod, "decode_head", counting)
    return heads


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


@pytest.mark.parametrize("variant", ["backbone", "cnn", "varaug", "gated"])
def test_param_shapes_is_the_build_inventory_and_allocates_no_tensor(variant):
    micro = tiny_model_config("micro", variant=variant, n_heads=2 if variant == "gated" else 1)
    built = build_model(micro, seed=0)
    assert list(param_shapes(micro).items()) == [(name, t.shape) for name, t in built.items()]
    full = ModelConfig(variant=variant, n_heads=6 if variant == "gated" else 1)
    tracemalloc.start()
    try:
        shapes = param_shapes(full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shapes) == {"backbone": 227, "cnn": 92, "varaug": 247, "gated": 467}[variant]
    assert peak < 4 * sum(int(np.prod(shape)) for shape in shapes.values()) / 100


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
def test_variant_output_lengths(variant, decoded_heads):
    cfg = tiny_model_config("micro", variant=variant, n_heads=2 if variant == "gated" else 1)
    params = build_model(cfg, seed=0)
    duration = 96
    v = 1 if variant in ("varaug", "gated") else None
    x = as_input(breathing(duration), params, v=v if variant == "varaug" else None)
    gate_map = GateMap(n_heads=2, table={(a, b): 1 + (b % 2) for a in (0, 1) for b in (0, 1, 2)}) \
        if variant == "gated" else None
    pred = forward(params, cfg, x, v=v, gate_map=gate_map, mode="eval")
    assert pred.y_hat.shape == (duration,)
    if variant == "gated":
        assert pred.u_logits.shape == (3, duration)
    else:
        assert pred.u_logits is None  # nothing reads a varaug stage head in eval
    if variant == "varaug":
        train = forward(params, cfg, x, v=v, mode="train", rng=np.random.default_rng(0))
        assert train.u_logits.shape == (3, duration)
    if variant == "gated":
        assert len(decoded_heads) == len(np.unique(pred.gate_series))
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


def two_head_map():
    return GateMap(n_heads=2, table={(a, b): 1 + (b % 2) for a in (0, 1) for b in (0, 1, 2)})


def gapped_map():
    """Gender 0 reaches heads 1 and 3, gender 1 only head 2."""
    return GateMap(n_heads=3, table={(0, 0): 3, (0, 1): 1, (0, 2): 3, (1, 0): 2, (1, 1): 2, (1, 2): 2})


GATE_MAPS = {"two_head": two_head_map, "gapped": gapped_map, "identity": lambda: identity_gate_map(2, 3)}


@pytest.mark.parametrize("gate", sorted(GATE_MAPS))
def test_gated_eval_decodes_only_the_gated_heads_and_train_decodes_all(gate, decoded_heads):
    gate_map = GATE_MAPS[gate]()
    cfg = tiny_model_config("micro", variant="gated", n_heads=gate_map.n_heads)
    params = build_model(cfg, seed=0)
    duration = 96
    x = as_input(breathing(duration), params)
    for v in (0, 1):
        decoded_heads.clear()
        pred = forward(params, cfg, x, v=v, gate_map=gate_map, mode="eval")
        assert sorted(decoded_heads) == np.unique(pred.gate_series).tolist()
    decoded_heads.clear()
    u = np.arange(duration) % cfg.u_classes
    forward(params, cfg, x, v=0, u=u, gate_map=gate_map, mode="train", rng=np.random.default_rng(0))
    assert decoded_heads == list(range(1, cfg.n_heads + 1))


def gated_train_reference(params, cfg, x, v, u, gate_map, rng):
    """A gated train forward that decodes every head with a graph and masks out the unreached ones."""
    features, skips = encode(params, cfg, x, mode="train", rng=rng)
    rows = [
        decode_head(params, cfg, h, features, skips, mode="train", rng=rng).reshape(1, -1)
        for h in range(1, cfg.n_heads + 1)
    ]
    u_logits = predict_inaccessible(params, cfg, features, mode="train", rng=rng)
    gate_series = gate_map.lookup(v, np.where(u == STAGE_MISSING, STAGE_NONREM, u))
    return combine_heads(concat(rows, axis=0), gate_series), u_logits, gate_series


def stage_series(duration, u_classes):
    u = np.arange(duration) % u_classes
    u[::7] = STAGE_MISSING
    return u


@pytest.mark.parametrize("gate", sorted(GATE_MAPS))
def test_gated_train_equals_decoding_every_head_with_a_graph_bitwise(gate):
    gate_map = GATE_MAPS[gate]()
    cfg = tiny_model_config("micro", variant="gated", n_heads=gate_map.n_heads)
    duration = 96
    u = stage_series(duration, cfg.u_classes)
    y = np.linspace(0.9, 1.0, duration)
    for v in (0, 1):
        params, ref = build_model(cfg, seed=3), build_model(cfg, seed=3)
        x = as_input(breathing(duration, seed=4), params)
        pred = forward(params, cfg, x, v=v, u=u, gate_map=gate_map, mode="train", rng=np.random.default_rng(5))
        y_ref, u_ref, gate_ref = gated_train_reference(ref, cfg, x, v, u, gate_map, np.random.default_rng(5))
        np.testing.assert_array_equal(pred.gate_series, gate_ref)
        assert pred.y_hat.data.tobytes() == y_ref.data.tobytes()
        assert pred.u_logits.data.tobytes() == u_ref.data.tobytes()
        loss(pred.y_hat, y, 0.2, pred.u_logits, u, aux_weight=0.5)[0].backward()
        loss(y_ref, y, 0.2, u_ref, u, aux_weight=0.5)[0].backward()
        reached = {f"head{h}." for h in np.unique(gate_ref)}
        for name, tensor in params.items():
            if not tensor.requires_grad:
                assert tensor.data.tobytes() == ref[name].data.tobytes(), name  # running statistics
            elif name.startswith("head") and not name.startswith(tuple(reached)):
                assert tensor.grad is None and not np.any(ref[name].grad), name
            else:
                assert tensor.grad.tobytes() == ref[name].grad.tobytes(), name


def test_gated_train_with_an_unmapped_state_fails_before_any_head(decoded_heads):
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    params = build_model(cfg, seed=0)
    x = as_input(breathing(48), params)
    gate_map = GateMap(n_heads=2, table={(0, 0): 1, (0, 2): 2})
    with pytest.raises(GateError, match=r"no entry for \(v=0, u=1\)"):
        forward(params, cfg, x, v=0, u=np.arange(48) % 3, gate_map=gate_map, mode="train", rng=np.random.default_rng(0))
    assert decoded_heads == []


def test_gated_train_builds_graph_nodes_only_for_the_heads_the_gate_reaches(monkeypatch):
    """Every head still runs, in order; only the heads the gate reaches return a graph node."""
    graphs = []
    real = model_mod.decode_head

    def recording(params, config, head, *args, **kwargs):
        out = real(params, config, head, *args, **kwargs)
        graphs.append((head, out._grad_fn is not None))
        return out

    monkeypatch.setattr(model_mod, "decode_head", recording)
    gate_map = identity_gate_map(2, 3)
    cfg = tiny_model_config("micro", variant="gated", n_heads=gate_map.n_heads)
    params = build_model(cfg, seed=0)
    duration = 240
    x = as_input(breathing(duration), params)
    u = np.arange(duration) % 2  # awake and REM: two of the gender's three heads
    pred = forward(params, cfg, x, v=1, u=u, gate_map=gate_map, mode="train", rng=np.random.default_rng(0))
    assert np.unique(pred.gate_series).tolist() == [4, 5]
    assert graphs == [(h, h in (4, 5)) for h in range(1, 7)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gate", sorted(GATE_MAPS))
def test_gated_eval_equals_selecting_from_every_head_bitwise(gate, dtype):
    gate_map = GATE_MAPS[gate]()
    cfg = tiny_model_config("micro", variant="gated", n_heads=gate_map.n_heads)
    params = build_model(cfg, seed=1, dtype=dtype)
    x = as_input(breathing(96, seed=2), params)
    features, skips = encode(params, cfg, x, mode="eval")
    every_head = Tensor(
        np.stack([decode_head(params, cfg, h, features, skips).data for h in range(1, cfg.n_heads + 1)]),
        dtype=dtype,
    )
    u_hat = np.argmax(predict_inaccessible(params, cfg, features).data, axis=0)
    for v in (0, 1):
        gate_series = gate_map.lookup(v, u_hat)
        pred = forward(params, cfg, x, v=v, gate_map=gate_map, mode="eval")
        assert pred.y_hat.dtype == dtype
        np.testing.assert_array_equal(pred.gate_series, gate_series)
        np.testing.assert_array_equal(pred.y_hat.data, combine_heads(every_head, gate_series).data)


# A gated eval forward given any table with a `lookup` method; model reaches
# nothing of respox.gate on the way.
GATED_FORWARD_WITHOUT_GATE = """
import sys
import numpy as np
from respox import model
from respox.config import tiny_model_config

class HalfTable:
    def lookup(self, v, u_series):
        return np.where(np.asarray(u_series) == 0, 1, 2)

cfg = tiny_model_config("micro", variant="gated", n_heads=2)
params = model.build_model(cfg, seed=1)
x = model.as_input(np.random.default_rng(2).normal(size=10 * 96), params)
pred = model.forward(params, cfg, x, v=0, gate_map=HalfTable(), mode="eval")
assert pred.y_hat.shape == (96,) and set(np.unique(pred.gate_series)) <= {1, 2}
print(" ".join(sorted(name for name in sys.modules if name.startswith("respox"))))
"""


def test_gated_forward_needs_only_a_table_with_lookup_and_never_imports_gate():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", GATED_FORWARD_WITHOUT_GATE], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    imported = result.stdout.split()
    assert "respox.model" in imported
    assert "respox.gate" not in imported


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


def test_micro_gated_train_step_is_at_most_60_graph_nodes():
    """One node per (de)conv block and per attention layer: 139 nodes before fusing."""
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    params = build_model(cfg, seed=0)
    duration = 240
    x = as_input(breathing(duration), params)
    u = np.arange(duration) % cfg.u_classes
    pred = forward(params, cfg, x, v=0, u=u, gate_map=two_head_map(), mode="train", rng=np.random.default_rng(0))
    total, _ = loss(pred.y_hat, np.full(duration, 0.95), 0.2)
    assert len([n for n in _toposort(total) if n._grad_fn is not None]) <= 60
