"""Command-line entry points tying the modules into reproducible workflows.

Every command is deterministic given (config, seed, data). Exit codes:
0 success, 1 runtime or check failure, 2 usage or configuration error.
Every artifact written here carries the config hash and the tool version.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import replace

import click
import numpy as np

from . import __version__
from . import model as model_mod
from .checkpoint import OPTIMIZER_PREFIX, CheckpointError, load_checkpoint, read_manifest
from .config import (
    ConfigError,
    FULL_PARAM_COUNT_REFERENCE,
    GATE_MODES,
    VARIANTS,
    RunConfig,
    config_hash,
    load_run_config,
    model_config_from_dict,
    model_config_to_dict,
)
from .container import read_json, write_json
from .data import (
    RecordError,
    crop_to_multiple,
    filter_split,
    load_dataset,
    write_record,
)
from .evaluate import EvalError, GroupVarError, dump_predictions, evaluate
from .gate import GateError, load_gate_map, save_gate_map
from .gradcheck import run_all
from .synth import SynthError, SynthProfile, profile_from_dict, profile_to_dict, synth_generate
from .train import TrainingError, resolve_gate_map, train, train_gated_pipeline, write_train_log

log = logging.getLogger(__name__)

EXIT_FAILURE = 1
EXIT_USAGE = 2


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return load_run_config(path)


def _override(obj, label: str, **updates):
    """Apply non-None flag overrides onto one config section or profile, logging each change."""
    applied = {key: value for key, value in updates.items() if value is not None}
    for key, value in applied.items():
        if getattr(obj, key) != value:
            log.info("flag override: %s.%s = %r (config had %r)", label, key, value, getattr(obj, key))
    return replace(obj, **applied) if applied else obj


def _load_records(data_dir: str | None, cfg: RunConfig, split: str):
    directory = data_dir or cfg.data.dir
    if not directory:
        raise ConfigError("no data directory: pass --data or set data.dir in the config")
    records = load_dataset(directory)
    if split != "all":
        records = filter_split(records, split, ratio=cfg.data.split_ratio, seed=cfg.data.split_seed)
    return [crop_to_multiple(r) for r in records]


def _load_model_checkpoint(path):
    """A checkpoint whose tensors are exactly those of model.param_shapes(its config)."""
    checkpoint = load_checkpoint(path)
    params, shapes = checkpoint.params, model_mod.param_shapes(checkpoint.config)
    for name in [*shapes, *(name for name in params if name not in shapes)]:
        if name not in params:
            raise CheckpointError(f"{path}: tensor {name!r} is missing")
        built = shapes.get(name, "no such tensor")
        if params[name].shape != built:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {params[name].shape}, its config builds {built}")
    return checkpoint


@click.group()
@click.version_option(version=__version__, prog_name="respox")
@click.option("-v", "--verbose", is_flag=True, help="Debug-level logging.")
def main(verbose: bool):
    """Breathing-to-SpO2 sequence regression: data, training, gating, evaluation."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# ---------------------------------------------------------------- synth


@main.command()
@click.option("--out", required=True, type=click.Path(file_okay=False), help="Output directory.")
@click.option("--profile", type=click.Path(exists=True, dir_okay=False), help="Generator profile JSON.")
@click.option("--seed", type=int, default=None, help="Override the profile seed.")
@click.option("--nights", type=int, default=None, help="Override the night count.")
@click.option("--duration", type=int, default=None, help="Override night duration in seconds.")
def synth(out, profile, seed, nights, duration):
    """Generate a deterministic synthetic dataset plus a manifest."""
    try:
        prof = SynthProfile() if profile is None else profile_from_dict(read_json(profile, SynthError))
        prof = _override(prof, "profile", seed=seed, nights=nights, duration_s=duration)
    except SynthError as exc:
        _fail(EXIT_USAGE, f"bad profile: {exc}")

    os.makedirs(out, exist_ok=True)
    records = synth_generate(prof)
    files = []
    for record in records:
        name = f"{record.subject_id}.rsp"
        write_record(record, os.path.join(out, name))
        files.append(name)
    payload = profile_to_dict(prof)
    manifest = {
        "tool_version": __version__,
        "profile": payload,
        "profile_hash": config_hash(payload),
        "files": files,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    click.echo(f"wrote {len(files)} records and manifest.json to {out}")


# ---------------------------------------------------------------- train


@main.command(name="train")
@click.option("--config", "config_path", envvar="RESPOX_CONFIG",
              type=click.Path(exists=True, dir_okay=False), help="Run config JSON (env RESPOX_CONFIG).")
@click.option("--data", "data_dir", type=click.Path(exists=True, file_okay=False), help="Dataset directory.")
@click.option("--variant", type=click.Choice(VARIANTS), default=None)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Checkpoint path.")
@click.option("--log-out", type=click.Path(dir_okay=False), help="Train log path (default OUT.log.jsonl).")
@click.option("--gate-map-out", type=click.Path(dir_okay=False),
              help="Gate map path for the gated variant (default OUT.gatemap.json).")
@click.option("--seed", type=int, default=None, help="Override the training seed.")
@click.option("--epochs", type=int, default=None, help="Override the epoch budget.")
@click.option("--split", type=click.Choice(["train", "all"]), default="train",
              help="Train on the subject-split train portion (default) or on everything.")
def train_cmd(config_path, data_dir, variant, out, log_out, gate_map_out, seed, epochs, split):
    """Train a model variant and write checkpoint, log, and gate map."""
    try:
        cfg = _load_config(config_path)
        cfg.train = _override(cfg.train, "train", seed=seed, epochs=epochs)
        cfg.data = _override(cfg.data, "data", dir=data_dir)
        cfg.model = _override(cfg.model, "model", variant=variant)
        if cfg.model.variant == "gated" and cfg.model.n_heads != cfg.gate.n_heads:
            log.info("sizing model.n_heads from gate.n_heads = %d", cfg.gate.n_heads)
            cfg.model = replace(cfg.model, n_heads=cfg.gate.n_heads)
        digest = config_hash(cfg)
        records = _load_records(data_dir, cfg, split)
    except (ConfigError, RecordError, SynthError) as exc:
        _fail(EXIT_USAGE, str(exc))

    try:
        if cfg.model.variant == "gated":
            params, gate_map, train_log = train_gated_pipeline(
                cfg.model,
                records,
                cfg.train,
                cfg.gate,
                checkpoint_path=out,
                config_hash=digest,
            )
            gate_path = gate_map_out or f"{out}.gatemap.json"
            gate_map.provenance["config_hash"] = digest
            gate_map.provenance["tool_version"] = __version__
            save_gate_map(gate_path, gate_map)
            click.echo(f"gate map: {gate_path}")
        else:
            params, _, train_log = train(
                cfg.model,
                records,
                cfg.train,
                checkpoint_path=out,
                config_hash=digest,
            )
    except (TrainingError, model_mod.LengthError) as exc:
        _fail(EXIT_FAILURE, f"training failed: {exc}")
    except (GateError, ConfigError) as exc:
        _fail(EXIT_FAILURE, f"gate map construction failed: {exc}")

    log_path = log_out or f"{out}.log.jsonl"
    write_train_log(log_path, train_log)
    final = train_log.entries[-1]
    click.echo(
        f"trained {cfg.model.variant} for {len(train_log.entries)} epochs "
        f"(loss {final['loss']:.4f}, l1 {final['l1']:.4f}); checkpoint: {out}; log: {log_path}"
    )


# ---------------------------------------------------------------- gatemap


@main.command()
@click.option("--ckpt", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Backbone checkpoint to differentiate.")
@click.option("--config", "config_path", envvar="RESPOX_CONFIG",
              type=click.Path(exists=True, dir_okay=False), help="Run config JSON (env RESPOX_CONFIG).")
@click.option("--data", "data_dir", type=click.Path(exists=True, file_okay=False), help="Dataset directory.")
@click.option("--n-heads", type=int, default=None, help="Override the head count.")
@click.option("--mode", type=click.Choice(GATE_MODES), default=None)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Gate map JSON path.")
def gatemap(ckpt, config_path, data_dir, n_heads, mode, out):
    """Derive a gate map from a trained backbone via gradient similarity."""
    try:
        cfg = _load_config(config_path)
        cfg.gate = _override(cfg.gate, "gate", n_heads=n_heads, mode=mode)
        checkpoint = _load_model_checkpoint(ckpt)
        gated_cfg = replace(checkpoint.config, variant="gated", n_heads=cfg.gate.n_heads)
        records = None
        if cfg.gate.mode == "grad-sim":
            records = _load_records(data_dir, cfg, "train")
    except (ConfigError, CheckpointError, RecordError) as exc:
        _fail(EXIT_USAGE, str(exc))

    try:
        gate_map = resolve_gate_map(
            gated_cfg,
            cfg.gate,
            backbone_params=checkpoint.params,
            backbone_config=checkpoint.config,
            records=records,
            corr_weight=cfg.train.corr_weight,
        )
    except (GateError, ConfigError, model_mod.LengthError) as exc:
        _fail(EXIT_FAILURE, f"gate map construction failed: {exc}")
    gate_map.provenance["config_hash"] = config_hash(cfg)
    gate_map.provenance["tool_version"] = __version__
    save_gate_map(out, gate_map)
    click.echo(f"gate map with {gate_map.n_heads} heads over {len(gate_map.table)} states: {out}")


# ---------------------------------------------------------------- eval


@main.command(name="eval")
@click.option("--ckpt", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", envvar="RESPOX_CONFIG",
              type=click.Path(exists=True, dir_okay=False), help="Run config JSON (env RESPOX_CONFIG).")
@click.option("--data", "data_dir", type=click.Path(exists=True, file_okay=False), help="Dataset directory.")
@click.option("--gate-map", "gate_map_path", type=click.Path(exists=True, dir_okay=False),
              help="Gate map JSON for gated checkpoints.")
@click.option("--split", type=click.Choice(["train", "test", "all"]), default=None,
              help="Which subject-split portion to score (config default: test).")
@click.option("--group-by", type=str, default=None, help="Add grouped distribution stats for this variable.")
@click.option("--dump", "dump_dir", type=click.Path(file_okay=False), help="Write per-night TSV dumps here.")
@click.option("--report", "report_path", required=True, type=click.Path(dir_okay=False))
def eval_cmd(ckpt, config_path, data_dir, gate_map_path, split, group_by, dump_dir, report_path):
    """Score a checkpoint on a dataset and write the JSON report."""
    try:
        cfg = _load_config(config_path)
        cfg.eval = _override(cfg.eval, "eval", split=split, group_var=group_by)
        checkpoint = _load_model_checkpoint(ckpt)
        if config_path is not None:
            digest = config_hash(cfg)
            stored = checkpoint.meta.get("config_hash")
            if stored is not None and stored != digest:
                raise ConfigError(
                    f"config hash mismatch: checkpoint was trained under {stored[:12]}..., "
                    f"--config hashes to {digest[:12]}..."
                )
        gate_map = None
        if checkpoint.config.variant == "gated":
            if gate_map_path is None:
                raise ConfigError("gated checkpoint requires --gate-map")
            gate_map = load_gate_map(gate_map_path)
            if gate_map.n_heads != checkpoint.config.n_heads:
                raise ConfigError(
                    f"gate map has {gate_map.n_heads} heads, checkpoint has {checkpoint.config.n_heads}"
                )
        records = _load_records(data_dir, cfg, cfg.eval.split)
    except (ConfigError, CheckpointError, GateError, RecordError) as exc:
        _fail(EXIT_USAGE, str(exc))

    try:
        report = evaluate(
            checkpoint.params,
            checkpoint.config,
            records,
            gate_map,
            config_hash=checkpoint.meta.get("config_hash"),
            checkpoint_id=os.path.basename(ckpt),
            group_var=cfg.eval.group_var,
        )
    except GroupVarError as exc:
        _fail(EXIT_USAGE, str(exc))
    except (EvalError, GateError, model_mod.GateRangeError, model_mod.LengthError) as exc:
        _fail(EXIT_FAILURE, f"evaluation failed: {exc}")

    payload = report.to_dict()
    payload["tool_version"] = __version__
    payload["aggregation"] = cfg.eval.aggregation
    write_json(report_path, payload)

    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
        for record, y_hat, gate_series in report.nights:
            dump_predictions(record, y_hat, gate_series, os.path.join(dump_dir, f"{record.subject_id}.tsv"))
        click.echo(f"dumped {len(records)} nights to {dump_dir}")

    table = report.by_night if cfg.eval.aggregation == "night" else report.by_segment
    for name in sorted(table):
        agg = table[name]
        click.echo(
            f"{name}: corr {agg.corr:.4f}  mae {agg.mae:.4f}  rmse {agg.rmse:.4f}  "
            f"({agg.count} {'nights' if cfg.eval.aggregation == 'night' else 'segments'}, "
            f"{agg.corr_excluded} excluded from corr)"
        )
    click.echo(f"report: {report_path}")


# ---------------------------------------------------------------- gradcheck


@main.command()
@click.option("--seed", type=int, default=0)
@click.option("--instances", type=int, default=20, help="Random fixtures per operator check.")
def gradcheck(seed, instances):
    """Run the finite-difference suite; exit nonzero on any violation."""
    results, elapsed = run_all(seed=seed, instances=instances)
    failures = sorted((r for r in results if not r.passed), key=lambda r: -r.error)
    click.echo(f"{len(results)} checks in {elapsed:.1f}s, {len(failures)} failures")
    if failures:
        for r in failures[:10]:
            click.echo(f"  FAIL {r.name} [{r.dtype}] error {r.error:.3e} tolerance {r.tolerance:.0e}")
        sys.exit(EXIT_FAILURE)


# ---------------------------------------------------------------- inspect


@main.command()
@click.option("--ckpt", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tensors/--no-tensors", default=False, help="List every stored tensor.")
def inspect(ckpt, tensors):
    """Print a checkpoint's config, metadata, and parameter inventory from its manifest alone."""
    try:
        manifest = read_manifest(ckpt)
        config = model_config_to_dict(model_config_from_dict(manifest["config"]))
    except (CheckpointError, ConfigError) as exc:
        _fail(EXIT_USAGE, f"cannot read checkpoint: {exc}")

    click.echo(json.dumps(config, indent=2, sort_keys=True))
    if manifest["meta"]:
        click.echo("meta: " + json.dumps(manifest["meta"], sort_keys=True))
    shapes = {entry["name"]: tuple(entry["shape"]) for entry in manifest["tensors"]}
    params = sorted(name for name in shapes if not name.startswith(OPTIMIZER_PREFIX))
    trainable = sum(int(np.prod(shapes[name])) for name in params if not model_mod.is_buffer(name))
    total = sum(int(np.prod(shapes[name])) for name in params)
    click.echo(
        f"parameters: {trainable:,} trainable, {total:,} with buffers "
        f"(full-scale reference: {FULL_PARAM_COUNT_REFERENCE:,})"
    )
    if len(shapes) > len(params):
        click.echo(f"optimizer tensors: {len(shapes) - len(params)}")
    if tensors:
        for name in params:
            click.echo(f"  {name}  {shapes[name]}  float32")


if __name__ == "__main__":
    main()
