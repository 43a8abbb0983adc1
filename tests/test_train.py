import json
import logging
import weakref

import numpy as np
import pytest

import respox.model as model_mod
import respox.train as train_mod
from respox.checkpoint import load_checkpoint
from respox.config import ConfigError, GateConfig, TrainConfig, tiny_model_config
from respox.model import build_model
from respox.tensor import Tensor
from respox.train import (
    ADAM_BUCKET,
    AUTO_CLIP_NORM,
    TrainingError,
    TrainLog,
    adam_from_checkpoint,
    adam_step,
    adam_to_optimizer_dict,
    clip_gradients,
    copy_backbone_into_gated,
    init_adam,
    pretrain_epochs,
    train,
    train_gated_pipeline,
    write_train_log,
)


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True, dtype=np.float32)


# ---------------------------------------------------------------- Adam


def test_adam_first_step_closed_form():
    w = _param([1.0, -2.0])
    params = {"w": w}
    state = init_adam(params, lr=0.01)
    g = np.array([0.5, -3.0], dtype=np.float32)
    w.grad = g.copy()
    adam_step(params, state)
    # after bias correction the first step is lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(w.data, expected, rtol=1e-5)
    assert state.t == 1


def test_adam_two_steps_match_reference():
    w = _param([0.5, 0.5, -1.0])
    params = {"w": w}
    state = init_adam(params, lr=0.003)
    grads = [
        np.array([1.0, -0.5, 2.0], dtype=np.float32),
        np.array([-0.2, 0.8, 0.1], dtype=np.float32),
    ]
    ref = np.array([0.5, 0.5, -1.0], dtype=np.float64)
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        w.grad = g.copy()
        adam_step(params, state)
        g64 = g.astype(np.float64)
        m = 0.9 * m + 0.1 * g64
        v = 0.999 * v + 0.001 * g64 * g64
        ref -= 0.003 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    np.testing.assert_allclose(w.data, ref, atol=1e-6)


def test_adam_missing_grad_counts_as_zero():
    w = _param([2.0])
    state = init_adam({"w": w}, lr=0.1)
    w.grad = None
    adam_step({"w": w}, state)
    np.testing.assert_array_equal(w.data, [2.0])
    assert state.t == 1


def test_adam_nonfinite_grad_rejected():
    w = _param([1.0])
    state = init_adam({"w": w}, lr=0.1)
    w.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(TrainingError):
        adam_step({"w": w}, state)


def test_init_adam_tracks_only_trainables():
    params = {
        "w": _param([1.0]),
        "bn.running_mean": Tensor(np.zeros(1, dtype=np.float32), dtype=np.float32),
    }
    state = init_adam(params, lr=0.1)
    assert set(state.m) == {"w"}
    assert set(state.v) == {"w"}


def test_adam_checkpoint_roundtrip():
    w = _param([1.0, 1.0, 1.0])
    params = {"w": w}
    state = init_adam(params, lr=0.005)
    w.grad = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    adam_step(params, state)
    restored = adam_from_checkpoint(
        params, adam_to_optimizer_dict(state), {"adam_t": state.t, "adam_lr": state.lr}
    )
    assert restored.t == 1
    assert restored.lr == 0.005
    np.testing.assert_array_equal(restored.m["w"], state.m["w"])
    np.testing.assert_array_equal(restored.v["w"], state.v["w"])


# Sizes around ADAM_BUCKET: tensors alone in a bucket (large ones, and a small
# one between two large ones) and runs, one of them closed on reaching the size.
BUCKET_SIZES = [3, ADAM_BUCKET + 5, 9, ADAM_BUCKET, 40_000, 30_000, 7, (2, 5), 1, (4, 3, 2)]


def _bucket_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return {
        f"p{i}": Tensor(rng.normal(size=size).astype(dtype), requires_grad=True, dtype=dtype)
        for i, size in enumerate(BUCKET_SIZES)
    }


def _per_tensor_adam(data, grads, m, v, t, lr):
    """The update adam_step replaced: one tensor at a time, fresh arrays."""
    bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
    for name, grad in grads.items():
        grad = np.zeros_like(data[name]) if grad is None else grad
        m[name] = 0.9 * m[name] + (1.0 - 0.9) * grad
        v[name] = 0.999 * v[name] + (1.0 - 0.999) * grad * grad
        data[name] = data[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_the_per_tensor_update_bit_for_bit(dtype):
    params = _bucket_params(dtype)
    state = init_adam(params, lr=3e-3)
    assert len(state.buckets) > 3 and any(len(names) > 1 for _, _, names in state.buckets)
    data = {name: t.data.copy() for name, t in params.items()}
    m = {name: np.zeros_like(arr) for name, arr in data.items()}
    v = {name: np.zeros_like(arr) for name, arr in data.items()}
    rng = np.random.default_rng(1)
    for step in range(1, 5):
        grads = {
            name: None if (i + step) % 4 == 0 else rng.normal(size=t.shape).astype(dtype)
            for i, (name, t) in enumerate(params.items())
        }
        for name, grad in grads.items():
            params[name].grad = grad
        adam_step(params, state)
        _per_tensor_adam(data, grads, m, v, step, 3e-3)
        assert state.t == step
        for name, t in params.items():
            assert t.data.dtype == dtype and t.data.tobytes() == data[name].tobytes(), name
            assert state.m[name].tobytes() == m[name].tobytes(), name
            assert state.v[name].tobytes() == v[name].tobytes(), name


def _byte_offset(view, base):
    return view.__array_interface__["data"][0] - base.__array_interface__["data"][0]


def test_init_adam_lays_params_and_moments_out_flat_in_params_order():
    params = _bucket_params(np.float32)
    params["bn.running_mean"] = Tensor(np.zeros(3, dtype=np.float32), dtype=np.float32)
    before = {name: t.data.copy() for name, t in params.items()}
    state = init_adam(params, lr=0.1)
    flat, m, v = state.flat
    offset = 0
    for name, tensor in params.items():
        np.testing.assert_array_equal(tensor.data, before[name])
        if not tensor.requires_grad:
            assert not np.shares_memory(tensor.data, flat)
            continue
        for view, base in ((tensor.data, flat), (state.m[name], m), (state.v[name], v)):
            assert view.base is base and view.shape == tensor.shape
            assert _byte_offset(view, base) == offset * flat.itemsize
        offset += tensor.size
    assert flat.size == m.size == v.size == offset
    # buckets tile the layout; a multi-tensor bucket holds only tensors below the bucket size
    assert [b[0] for b in state.buckets[1:]] == [b[1] for b in state.buckets[:-1]]
    assert state.buckets[0][0] == 0 and state.buckets[-1][1] == offset
    for _, _, names in state.buckets:
        assert len(names) == 1 or all(params[n].size < ADAM_BUCKET for n in names)


def test_adam_from_checkpoint_fills_the_flat_views():
    params = _bucket_params(np.float32)
    state = init_adam(params, lr=0.01)
    for tensor in params.values():
        tensor.grad = np.ones(tensor.shape, dtype=np.float32)
    adam_step(params, state)
    fresh = _bucket_params(np.float32, seed=1)
    restored = adam_from_checkpoint(fresh, adam_to_optimizer_dict(state), {"adam_t": 1, "adam_lr": 0.01})
    for name in params:
        assert restored.m[name].base is restored.flat[1] and restored.v[name].base is restored.flat[2]
        assert fresh[name].data.base is restored.flat[0]
        np.testing.assert_array_equal(restored.m[name], state.m[name])
        np.testing.assert_array_equal(restored.v[name], state.v[name])


def test_rejected_adam_step_changes_nothing():
    params = _bucket_params(np.float32)
    state = init_adam(params, lr=0.01)
    for tensor in params.values():
        tensor.grad = np.ones(tensor.shape, dtype=np.float32)
    adam_step(params, state)
    before = [vec.copy() for vec in state.flat]
    last = list(params)[-1]
    params[last].grad = np.full(params[last].shape, np.inf, dtype=np.float32)
    with pytest.raises(TrainingError, match=f"{last!r} at step 2"):
        adam_step(params, state)
    assert state.t == 1
    for vec, old in zip(state.flat, before):
        assert vec.tobytes() == old.tobytes()


def test_adam_step_rejects_params_it_did_not_lay_out():
    state = init_adam({"w": _param([1.0])}, lr=0.1)
    with pytest.raises(TrainingError):
        adam_step({"w": _param([1.0])}, state)


# ---------------------------------------------------------------- clipping


def test_clip_scales_global_norm():
    a, b = _param([3.0, 0.0]), _param([0.0, 0.0])
    a.grad = np.array([3.0, 0.0], dtype=np.float32)
    b.grad = np.array([0.0, 4.0], dtype=np.float32)
    params = {"a": a, "b": b}
    norm = clip_gradients(params, 1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(
        sum(float(np.sum(t.grad.astype(np.float64) ** 2)) for t in params.values())
    )
    assert clipped == pytest.approx(1.0, rel=1e-6)
    np.testing.assert_allclose(a.grad, [0.6, 0.0], rtol=1e-6)


def test_clip_below_threshold_is_noop():
    a = _param([0.0, 0.0])
    a.grad = np.array([0.3, 0.4], dtype=np.float32)
    norm = clip_gradients({"a": a}, 1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(a.grad, np.array([0.3, 0.4], dtype=np.float32))


# ---------------------------------------------------------------- train loop


def test_train_bitwise_deterministic(micro_cfg, micro_records):
    tc = TrainConfig(epochs=2, seed=5, lr=1e-3)
    p1, _, log1 = train(micro_cfg, micro_records, tc)
    p2, _, log2 = train(micro_cfg, micro_records, tc)
    assert p1.keys() == p2.keys()
    for name in p1:
        np.testing.assert_array_equal(p1[name].data, p2[name].data)
    assert [e["l1"] for e in log1.entries] == [e["l1"] for e in log2.entries]


def test_zero_lr_freezes_trainables_but_not_buffers(micro_cfg, micro_records):
    params = build_model(micro_cfg, seed=0)
    weights = {n: t.data.copy() for n, t in params.items() if t.requires_grad}
    buffers = {n: t.data.copy() for n, t in params.items() if not t.requires_grad}
    tc = TrainConfig(epochs=1, seed=0, lr=0.0)
    out, _, _ = train(micro_cfg, micro_records, tc, params=params)
    for name, old in weights.items():
        np.testing.assert_array_equal(out[name].data, old)
    assert any(not np.array_equal(out[n].data, old) for n, old in buffers.items())


def test_resume_from_checkpoint_bit_identical(micro_cfg, micro_records, tmp_path):
    tc = TrainConfig(epochs=4, seed=1, lr=1e-3)
    straight, _, _ = train(micro_cfg, micro_records, tc)

    ck = tmp_path / "mid.ckpt"
    train(micro_cfg, micro_records, tc, end_epoch=2, checkpoint_path=str(ck))
    mid = load_checkpoint(str(ck))
    assert mid.meta["epoch"] == 2
    adam = adam_from_checkpoint(mid.params, mid.optimizer, mid.meta)
    resumed, _, _ = train(
        micro_cfg,
        micro_records,
        tc,
        params=mid.params,
        adam=adam,
        start_epoch=int(mid.meta["epoch"]),
    )
    for name in straight:
        np.testing.assert_array_equal(straight[name].data, resumed[name].data)


def test_checkpoint_cadence_and_meta(micro_cfg, micro_records, tmp_path):
    ck = tmp_path / "run.ckpt"
    tc = TrainConfig(epochs=2, seed=0, lr=1e-3, checkpoint_every=1)
    train(micro_cfg, micro_records, tc, checkpoint_path=str(ck), config_hash="deadbeef")
    back = load_checkpoint(str(ck))
    assert back.meta["epoch"] == 2
    assert back.meta["config_hash"] == "deadbeef"
    assert back.meta["adam_t"] == 2 * len(micro_records)
    assert back.optimizer and all(k.startswith("adam.") for k in back.optimizer)


def test_each_epoch_checkpoint_is_written_once(micro_cfg, micro_records, tmp_path, monkeypatch):
    written = []
    save = train_mod.save_checkpoint

    def counted_save(*args, **kwargs):
        written.append(kwargs["meta"]["epoch"])
        save(*args, **kwargs)

    monkeypatch.setattr(train_mod, "save_checkpoint", counted_save)
    tc = TrainConfig(epochs=2, seed=0, lr=1e-3, checkpoint_every=1)
    train(micro_cfg, micro_records, tc, checkpoint_path=str(tmp_path / "run.ckpt"))
    assert written == [1, 2]
    # a call that runs no epoch still leaves its checkpoint
    written.clear()
    train(micro_cfg, micro_records, tc, start_epoch=2, checkpoint_path=str(tmp_path / "none.ckpt"))
    assert written == [2]


def test_empty_training_set_rejected(micro_cfg):
    with pytest.raises(TrainingError):
        train(micro_cfg, [], TrainConfig(epochs=1))


def test_gated_variant_requires_gate_map(micro_records):
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    with pytest.raises(ConfigError):
        train(cfg, micro_records, TrainConfig(epochs=1))


def test_nonfinite_loss_enables_auto_clip(micro_cfg, micro_records, monkeypatch, caplog):
    orig = model_mod.loss_components
    calls = {"n": 0}

    def flaky(y_hat, y):
        l1, corr = orig(y_hat, y)
        if calls["n"] == 0:
            calls["n"] += 1
            return Tensor(np.asarray(np.inf, dtype=l1.data.dtype)), corr
        return l1, corr

    monkeypatch.setattr(model_mod, "loss_components", flaky)
    tc = TrainConfig(epochs=1, seed=0, lr=1e-3)
    with caplog.at_level(logging.WARNING, logger="respox.train"):
        _, _, tlog = train(micro_cfg, micro_records, tc)
    assert tlog.clip_activated_epoch == 0
    assert f"norm {AUTO_CLIP_NORM:.1f}" in caplog.text


def test_epoch_means_are_over_the_steps_taken(micro_cfg, micro_records, monkeypatch):
    orig_loss, orig_components = model_mod.loss, model_mod.loss_components
    calls = {"n": 0}
    logged = []

    def flaky(y_hat, y):
        l1, corr = orig_components(y_hat, y)
        calls["n"] += 1
        if calls["n"] == 2:
            return Tensor(np.asarray(np.inf, dtype=l1.data.dtype)), corr
        return l1, corr

    def recorded(*args, **kwargs):
        loss, terms = orig_loss(*args, **kwargs)
        if np.isfinite(float(loss)):
            logged.append({"loss": float(loss), **terms})
        return loss, terms

    monkeypatch.setattr(model_mod, "loss_components", flaky)
    monkeypatch.setattr(model_mod, "loss", recorded)
    _, _, tlog = train(micro_cfg, micro_records, TrainConfig(epochs=1, seed=0, lr=1e-3))
    assert tlog.clip_activated_epoch == 0
    assert len(logged) == len(micro_records) - 1
    for key in ("loss", "l1", "corr", "ce"):
        total = 0.0
        for terms in logged:
            total += terms[key]
        assert tlog.entries[0][key] == total / len(logged), key


def test_nonfinite_loss_with_clip_active_aborts(micro_cfg, micro_records, monkeypatch):
    orig = model_mod.loss_components

    def always_bad(y_hat, y):
        l1, corr = orig(y_hat, y)
        return Tensor(np.asarray(np.inf, dtype=l1.data.dtype)), corr

    monkeypatch.setattr(model_mod, "loss_components", always_bad)
    tc = TrainConfig(epochs=1, seed=0, lr=1e-3, grad_clip=5.0)
    with pytest.raises(TrainingError):
        train(micro_cfg, micro_records, tc)


@pytest.mark.parametrize("skip_first", [False, True], ids=["stepped", "skipped"])
def test_step_graph_is_freed_before_the_next_forward(micro_cfg, micro_records, monkeypatch, skip_first):
    # Tensor has no __weakref__ slot, so watch the prediction's array; the
    # loss graph keeps it alive for as long as the graph is alive.
    forward, loss_components = model_mod.forward, model_mod.loss_components
    previous = []
    alive_at_forward = []

    def watched_forward(*args, **kwargs):
        alive_at_forward.append(any(ref() is not None for ref in previous))
        pred = forward(*args, **kwargs)
        previous.append(weakref.ref(pred.y_hat.data))
        return pred

    def first_loss_nonfinite(y_hat, y):
        l1, corr = loss_components(y_hat, y)
        if len(previous) == 1:
            return Tensor(np.asarray(np.inf, dtype=l1.data.dtype)), corr
        return l1, corr

    monkeypatch.setattr(model_mod, "forward", watched_forward)
    if skip_first:
        monkeypatch.setattr(model_mod, "loss_components", first_loss_nonfinite)
    _, _, tlog = train(micro_cfg, micro_records, TrainConfig(epochs=1, seed=0, lr=1e-3))
    assert (tlog.clip_activated_epoch == 0) == skip_first
    assert alive_at_forward == [False] * len(micro_records)


def test_no_gradient_lives_through_a_forward(micro_cfg, micro_records, monkeypatch):
    forward = model_mod.forward
    held = []

    def watched_forward(params, *args, **kwargs):
        held.append([name for name, t in params.items() if t.requires_grad and t.grad is not None])
        return forward(params, *args, **kwargs)

    monkeypatch.setattr(model_mod, "forward", watched_forward)
    _, adam, _ = train(micro_cfg, micro_records, TrainConfig(epochs=2, seed=0, lr=1e-3))
    assert adam.t == 2 * len(micro_records)
    assert held == [[]] * adam.t


def test_train_log_rows_carry_provenance(tmp_path):
    tlog = TrainLog(seed=9, config_hash="abc123")
    tlog.entries.append({"epoch": 0, "l1": 0.5, "corr": 0.1, "ce": 0.0, "loss": 0.48, "wall_s": 0.01})
    path = tmp_path / "log.jsonl"
    write_train_log(str(path), tlog)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["seed"] == 9
    assert rows[0]["config_hash"] == "abc123"
    assert rows[0]["tool_version"]
    assert rows[0]["epoch"] == 0


# ---------------------------------------------------------------- gated pipeline


def test_pretrain_epoch_budgets():
    assert pretrain_epochs(TrainConfig(epochs=10, pretrain_fraction=0.2)) == 2
    assert pretrain_epochs(TrainConfig(epochs=1, pretrain_fraction=0.5)) == 1
    assert pretrain_epochs(TrainConfig(epochs=3, pretrain_fraction=0.9)) == 3


def test_copy_backbone_into_gated_seeds_all_heads():
    bb_cfg = tiny_model_config("micro")
    gated_cfg = tiny_model_config("micro", variant="gated", n_heads=3)
    bb = build_model(bb_cfg, seed=0)
    gated = build_model(gated_cfg, seed=1)
    fu_before = {n: t.data.copy() for n, t in gated.items() if n.startswith("fu.")}
    assert fu_before, "gated variant carries a stage head"
    copy_backbone_into_gated(bb, gated, 3)
    for name, tensor in bb.items():
        if name.startswith("head1."):
            suffix = name.removeprefix("head1.")
            for h in (1, 2, 3):
                np.testing.assert_array_equal(gated[f"head{h}.{suffix}"].data, tensor.data)
        else:
            np.testing.assert_array_equal(gated[name].data, tensor.data)
    for name, old in fu_before.items():
        np.testing.assert_array_equal(gated[name].data, old)


def test_gated_pipeline_phases_and_gate(micro_records):
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    tc = TrainConfig(epochs=4, seed=0, lr=1e-3, pretrain_fraction=0.5)
    params, gate_map, tlog = train_gated_pipeline(cfg, micro_records, tc, GateConfig(n_heads=2))
    assert gate_map.n_heads == 2
    assert [e["epoch"] for e in tlog.entries] == [0, 1, 2, 3]
    assert any(name.startswith("head2.") for name in params)
    space = {(v, u) for v in range(cfg.v_states) for u in range(cfg.u_classes)}
    assert set(gate_map.table) == space


def test_gated_pipeline_frees_the_backbone_before_fine_tuning(micro_records, monkeypatch):
    """The backbone's params, Adam moments and gate-derivation gradients are gone
    by the first gated forward.  Every backbone tensor's data is a view of the
    flat vector, so that vector dies only with the last of them."""
    train_fn, forward = train_mod.train, model_mod.forward
    backbone, alive = [], []

    def watched_train(config, *args, **kwargs):
        params, adam, tlog = train_fn(config, *args, **kwargs)
        if config.variant == "backbone":
            backbone.extend(weakref.ref(vec) for vec in adam.flat)
        return params, adam, tlog

    def watched_forward(params, config, *args, **kwargs):
        if config.variant == "gated":
            alive.append(any(ref() is not None for ref in backbone))
        return forward(params, config, *args, **kwargs)

    monkeypatch.setattr(train_mod, "train", watched_train)
    monkeypatch.setattr(model_mod, "forward", watched_forward)
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    tc = TrainConfig(epochs=2, seed=0, lr=1e-3, pretrain_fraction=0.5)
    train_gated_pipeline(cfg, micro_records, tc, GateConfig(n_heads=2))
    assert len(backbone) == 3
    assert alive == [False] * len(micro_records)


def test_gated_pipeline_rejects_other_variants(micro_cfg, micro_records):
    with pytest.raises(ConfigError):
        train_gated_pipeline(micro_cfg, micro_records, TrainConfig(epochs=2))
