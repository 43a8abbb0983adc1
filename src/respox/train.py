"""Adam optimization and the per-variant training loops.

Reproducibility contract: every stochastic choice derives from the run seed
through named seed sequences - record order from (seed, epoch), rrelu slope
draws from (seed, epoch, step) - so a run resumed from any epoch boundary
replays the exact bit stream of an uninterrupted run.

Flat layout: init_adam copies the trainable params, in `params` order, into
one vector and makes each Tensor.data a view of it; Adam's m and v are two
vectors of that layout.  adam_step updates them in place, one bucket at a
time: a run of tensors of about ADAM_BUCKET elements, or one larger tensor.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, container
from . import model as model_mod
from .checkpoint import save_checkpoint
from .config import ConfigError, GateConfig, ModelConfig, TrainConfig
from .gate import (
    GateMap,
    check_head_count,
    derive_gate_map,
    identity_gate_map,
    manual_gate_map,
    parse_state_key,
    populated_states,
)

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
AUTO_CLIP_NORM = 10.0
ADAM_BUCKET = 1 << 16  # elements per adam_step bucket


class TrainingError(RuntimeError):
    """Empty dataset, divergent loss, or non-finite gradients."""


@dataclass
class AdamState:
    m: dict  # name -> view of the flat m vector
    v: dict
    t: int = 0
    lr: float = 2e-4
    flat: tuple = ()  # the (params, m, v) vectors
    buckets: list = field(default_factory=list)  # [start, stop, names]
    scratch: np.ndarray | None = None  # gathers the grads of one multi-tensor bucket


def init_adam(params: dict, lr: float) -> AdamState:
    """Lay the trainable params out flat (see the module docstring); zero the moments."""
    names = [name for name, t in params.items() if t.requires_grad]
    if len({params[name].dtype for name in names}) != 1:
        raise TrainingError("Adam needs trainable parameters of one dtype")
    flat = np.concatenate([params[name].data.ravel() for name in names])
    state = AdamState(m={}, v={}, lr=lr, flat=(flat, np.zeros_like(flat), np.zeros_like(flat)))
    start = 0
    for name in names:
        tensor = params[name]
        stop = start + tensor.size
        tensor.data, state.m[name], state.v[name] = (vec[start:stop].reshape(tensor.shape) for vec in state.flat)
        if state.buckets and max(tensor.size, start - state.buckets[-1][0]) < ADAM_BUCKET:
            state.buckets[-1][1] = stop
            state.buckets[-1][2].append(name)
        else:
            state.buckets.append([start, stop, [name]])
        start = stop
    runs = [stop - start for start, stop, names in state.buckets if len(names) > 1]
    state.scratch = np.empty(max(runs, default=0), dtype=flat.dtype)
    return state


def _bucket_grad(params: dict, names: list, out: np.ndarray | None) -> np.ndarray:
    """A bucket's gradients as one flat array, in `out` if several; a missing one counts as zero."""
    grads = [np.zeros(t.size, t.dtype) if t.grad is None else t.grad for t in map(params.get, names)]
    return grads[0].reshape(-1) if len(grads) == 1 else np.concatenate(grads, axis=None, out=out)


def adam_step(params: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, in place; missing gradients count as zero.

    All gradients are checked before anything changes, so a rejected step
    leaves the parameters, the moments and `t` as they were.
    """
    if any(params[name].data.base is not state.flat[0] for name in state.m):
        raise TrainingError("adam_step needs the params that init_adam laid out")
    for start, stop, names in state.buckets:
        if not np.isfinite(_bucket_grad(params, names, state.scratch[: stop - start])).all():
            bad = next(n for n in names if not np.isfinite(_bucket_grad(params, [n], None)).all())
            raise TrainingError(f"non-finite gradient in {bad!r} at step {state.t + 1}")
    state.t += 1
    bc1, bc2 = 1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t
    for start, stop, names in state.buckets:
        g = _bucket_grad(params, names, state.scratch[: stop - start])
        p_b, m_b, v_b = (vec[start:stop] for vec in state.flat)
        m_b *= ADAM_BETA1
        m_b += (1.0 - ADAM_BETA1) * g
        v_b *= ADAM_BETA2
        v_b += (1.0 - ADAM_BETA2) * g * g
        p_b -= state.lr * (m_b / bc1) / (np.sqrt(v_b / bc2) + ADAM_EPS)


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all trainable gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    grads = []
    for name, tensor in params.items():
        if tensor.requires_grad and tensor.grad is not None:
            grads.append(tensor.grad)
            total += float(np.sum(np.asarray(tensor.grad, dtype=np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for grad in grads:
            grad *= np.asarray(scale, dtype=grad.dtype)
    return norm


def adam_to_optimizer_dict(state: AdamState) -> dict:
    moments = (("m", state.m), ("v", state.v))
    return {f"adam.{key}.{name}": view for key, views in moments for name, view in views.items()}


def adam_from_checkpoint(params: dict, optimizer: dict, meta: dict) -> AdamState:
    state = init_adam(params, lr=float(meta.get("adam_lr", 2e-4)))
    state.t = int(meta.get("adam_t", 0))
    for key, view in adam_to_optimizer_dict(state).items():
        if key in optimizer:
            view[...] = optimizer[key]  # into the flat layout's views
    return state


@dataclass
class TrainLog:
    seed: int
    config_hash: str | None = None
    entries: list = field(default_factory=list)
    clip_activated_epoch: int | None = None

    def extend(self, other: "TrainLog") -> None:
        self.entries.extend(other.entries)
        if self.clip_activated_epoch is None:
            self.clip_activated_epoch = other.clip_activated_epoch


def write_train_log(path, train_log: TrainLog) -> None:
    """One JSON object per epoch, seed and config hash stamped on every line."""
    stamp = {"seed": train_log.seed, "config_hash": train_log.config_hash, "tool_version": __version__}
    lines = (json.dumps({**entry, **stamp}, sort_keys=True) + "\n" for entry in train_log.entries)
    container.write_text(path, "".join(lines))


def train(
    config: ModelConfig,
    records,
    train_cfg: TrainConfig,
    params: dict | None = None,
    gate_map: GateMap | None = None,
    *,
    start_epoch: int = 0,
    end_epoch: int | None = None,
    adam: AdamState | None = None,
    checkpoint_path=None,
    config_hash: str | None = None,
) -> tuple[dict, AdamState, TrainLog]:
    """One optimizer step per night per epoch, shuffled by (seed, epoch).

    A non-finite loss is skipped and turns gradient clipping on (norm 10)
    for the rest of the run; a second non-finite loss with clipping already
    active aborts.  When checkpoint_path is given, a checkpoint lands there
    every train_cfg.checkpoint_every epochs and at the end, once per epoch.
    Each epoch logs its loss terms averaged over the steps taken (NaN if none).
    """
    config.validate()
    if not records:
        raise TrainingError("empty training set")
    if config.variant == "gated" and gate_map is None:
        raise ConfigError("gated training requires a gate map")

    if params is None:
        params = model_mod.build_model(config, seed=train_cfg.seed)
    if adam is None:
        adam = init_adam(params, lr=train_cfg.lr)
    end_epoch = train_cfg.epochs if end_epoch is None else end_epoch

    train_log = TrainLog(seed=train_cfg.seed, config_hash=config_hash)
    clip_norm = train_cfg.grad_clip
    seed = train_cfg.seed

    for epoch in range(start_epoch, end_epoch):
        t0 = time.perf_counter()
        order = np.random.default_rng(np.random.SeedSequence([seed, epoch])).permutation(len(records))
        sums = {"l1": 0.0, "corr": 0.0, "ce": 0.0, "loss": 0.0}
        steps = 0
        for step, night_index in enumerate(order):
            record = records[night_index]
            rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, step]))
            for name in adam.m:  # the last step's gradients die before this step's forward
                params[name].grad = None
            x, v = model_mod.night_input(params, config, record)
            pred = model_mod.forward(
                params, config, x, v=v, u=record.stages, gate_map=gate_map, mode="train", rng=rng
            )
            y = record.spo2.astype(np.float64) / 100.0
            loss, terms = model_mod.loss(
                pred.y_hat, y, train_cfg.corr_weight, pred.u_logits, record.stages, train_cfg.aux_weight
            )
            loss_value = float(loss)
            if not np.isfinite(loss_value):
                if clip_norm > 0.0:
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch} step {step} with clipping already active"
                    )
                clip_norm = AUTO_CLIP_NORM
                train_log.clip_activated_epoch = epoch
                log.warning(
                    "non-finite loss at epoch %d step %d; gradient clipping enabled at norm %.1f",
                    epoch,
                    step,
                    AUTO_CLIP_NORM,
                )
                del pred, loss
                continue

            loss.backward()
            del pred, loss  # free this step's graph before the next forward builds one
            if clip_norm > 0.0:
                clip_gradients(params, clip_norm)
            adam_step(params, adam)
            for key, value in terms.items():
                sums[key] += value
            sums["loss"] += loss_value
            steps += 1

        means = {key: total / steps if steps else float("nan") for key, total in sums.items()}
        train_log.entries.append({"epoch": epoch, **means, "wall_s": time.perf_counter() - t0})
        every = train_cfg.checkpoint_every
        if checkpoint_path is not None and every > 0 and (epoch + 1) % every == 0 and epoch + 1 < end_epoch:
            _write_checkpoint(checkpoint_path, params, config, train_cfg, adam, epoch + 1, config_hash)

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, params, config, train_cfg, adam, end_epoch, config_hash)
    return params, adam, train_log


def _write_checkpoint(path, params, config, train_cfg, adam, epoch, config_hash):
    save_checkpoint(
        path,
        params,
        config,
        meta={
            "epoch": epoch,
            "seed": train_cfg.seed,
            "adam_t": adam.t,
            "adam_lr": adam.lr,
            "config_hash": config_hash,
            "tool_version": __version__,
        },
        optimizer=adam_to_optimizer_dict(adam),
    )


def pretrain_epochs(train_cfg: TrainConfig) -> int:
    return min(max(1, round(train_cfg.pretrain_fraction * train_cfg.epochs)), train_cfg.epochs)


def copy_backbone_into_gated(backbone_params: dict, gated_params: dict, n_heads: int) -> None:
    """Overwrite shared modules and seed every head from the pretrained head.

    After this, all heads compute identical outputs; the stage head keeps its
    fresh initialization (the backbone has none).
    """
    for name, tensor in backbone_params.items():
        if name.startswith("head1."):
            suffix = name.removeprefix("head1.")
            for h in range(1, n_heads + 1):
                gated_params[f"head{h}.{suffix}"].data[...] = tensor.data
        else:
            gated_params[name].data[...] = tensor.data


def resolve_gate_map(
    config: ModelConfig,
    gate_cfg: GateConfig,
    backbone_params: dict | None = None,
    backbone_config: ModelConfig | None = None,
    records=None,
    corr_weight: float = 0.2,
) -> GateMap:
    """Build the gate map named by `gate_cfg.mode`, sized to the model's head count."""
    if gate_cfg.mode == "identity":
        gate_map = identity_gate_map(config.v_states, config.u_classes)
    elif gate_cfg.mode == "manual":
        table = {parse_state_key(key): head for key, head in gate_cfg.manual_table.items()}
        gate_map = manual_gate_map(table, n_heads=config.n_heads)
    elif gate_cfg.mode == "grad-sim":
        if backbone_params is None or records is None:
            raise ConfigError("gate mode 'grad-sim' requires a pretrained backbone and records")
        gate_map = derive_gate_map(
            backbone_params, backbone_config, records, config.n_heads, corr_weight=corr_weight
        )
    else:
        raise ConfigError(f"unknown gate mode {gate_cfg.mode!r}")
    if gate_map.n_heads != config.n_heads:
        raise ConfigError(
            f"gate map has {gate_map.n_heads} heads, model expects {config.n_heads}"
        )
    return gate_map


def train_gated_pipeline(
    config: ModelConfig,
    records,
    train_cfg: TrainConfig,
    gate_cfg: GateConfig | None = None,
    *,
    checkpoint_path=None,
    config_hash: str | None = None,
) -> tuple[dict, GateMap, TrainLog]:
    """Pretrain a backbone, derive the gate map, then fine-tune the gated model.

    The gate configuration is checked first: its head count must be the
    model's (None means a grad-sim gate of that count), identity and manual
    maps are resolved outright, and a grad-sim head count above the
    populated states fails, all before any training.  Phase 1 trains a
    single-head backbone for a pretrain_fraction share of the epoch budget.
    Phase 2 derives the grad-sim map from it.  Phase 3 copies the backbone into every head and
    trains the gated variant over the remaining epochs, gating on
    ground-truth stages.  Phase 3 restarts the optimizer; epoch numbering
    continues, so phases share one shuffle/sample seed stream.
    """
    if config.variant != "gated":
        raise ConfigError(f"pipeline requires variant 'gated', got {config.variant!r}")
    gate_cfg = gate_cfg or GateConfig(n_heads=config.n_heads)
    if gate_cfg.n_heads != config.n_heads:
        raise ConfigError(f"gate config has {gate_cfg.n_heads} heads, model has {config.n_heads}")
    gate_map = None
    if gate_cfg.mode != "grad-sim":
        gate_map = resolve_gate_map(config, gate_cfg)
    else:
        check_head_count(config.n_heads, populated_states(config, records))
    pre = pretrain_epochs(train_cfg)

    backbone_cfg = replace(config, variant="backbone", n_heads=1)
    backbone_params, backbone_adam, log1 = train(
        backbone_cfg, records, train_cfg, start_epoch=0, end_epoch=pre, config_hash=config_hash
    )
    if gate_map is None:
        gate_map = resolve_gate_map(
            config,
            gate_cfg,
            backbone_params=backbone_params,
            backbone_config=backbone_cfg,
            records=records,
            corr_weight=train_cfg.corr_weight,
        )

    gated_params = model_mod.build_model(config, seed=train_cfg.seed)
    copy_backbone_into_gated(backbone_params, gated_params, config.n_heads)
    del backbone_params, backbone_adam  # and the gradients gate derivation left on the backbone
    gated_params, _, log3 = train(
        config,
        records,
        train_cfg,
        params=gated_params,
        gate_map=gate_map,
        start_epoch=pre,
        end_epoch=train_cfg.epochs,
        checkpoint_path=checkpoint_path,
        config_hash=config_hash,
    )

    train_log = TrainLog(seed=train_cfg.seed, config_hash=config_hash)
    train_log.extend(log1)
    train_log.extend(log3)
    return gated_params, gate_map, train_log
