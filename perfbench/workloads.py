"""The benchmark's workloads: inputs, set-up, one round of work, output checks.

Each workload writes its seeded inputs (RSP1 records, and for full-eval a
GBU1 checkpoint plus gate map), then drives respox only through public
functions.  `setup` holds the program calls made before the timed phase;
`run_round` does one fixed unit of work and checks its outputs.  A round's
`ops` are optimizer steps on the train workloads and scored nights on
full-eval; `wall_s` is the wall time of the call those ops belong to.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from respox import evaluate as evaluate_mod
from respox.checkpoint import load_checkpoint, save_checkpoint
from respox.cli import main as respox_cli
from respox.config import GateConfig, ModelConfig, TrainConfig, tiny_model_config
from respox.data import crop_to_multiple, filter_split, load_dataset
from respox.gate import identity_gate_map, load_gate_map, save_gate_map
from respox.model import build_model
from respox.tensor import Tensor
from respox.train import train, train_gated_pipeline

from inputs import write_nights

SEGMENT_S = 240
MAE_TOLERANCE = 1e-6  # dumps print 8 decimals


@dataclass
class Round:
    ops: int                      # steps taken or nights scored, checked or not
    attempted: int                # operations tried: steps plus scored nights
    failed: int
    wall_s: float
    loss: float | None = None     # mean training loss of the last epoch
    mae_pct: float | None = None  # overall segment MAE of the evaluation
    problems: list = field(default_factory=list)


def _failed_round(attempted: int, problem: str) -> Round:
    return Round(ops=0, attempted=attempted, failed=attempted, wall_s=math.nan, problems=[problem])


def _fresh_params(params: dict) -> dict:
    return {
        name: Tensor(t.data.copy(), requires_grad=t.requires_grad, dtype=t.data.dtype)
        for name, t in params.items()
    }


def _load_records(directory: str) -> list:
    return [crop_to_multiple(r) for r in load_dataset(directory)]


def _timed_call(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class DeskGated:
    """Criterion-8-shaped gated pipeline on micro models: per-node Python overhead."""

    name = "desk-gated"
    NIGHTS, DURATION_S, EPOCHS = 40, 240, 10

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.data_dir = os.path.join(workdir, "data")
        self.train_records = self.test_records = None

    def prepare(self) -> None:
        write_nights(self.data_dir, self.seed, self.NIGHTS, self.DURATION_S)

    def setup(self) -> None:
        self.train_records = self.test_records = None  # drop the last set-up's state first
        records = _load_records(self.data_dir)
        self.train_records = filter_split(records, "train", ratio=0.7, seed=0)
        self.test_records = filter_split(records, "test", ratio=0.7, seed=0)
        warm = TrainConfig(epochs=1, seed=self.seed, lr=3e-3, aux_weight=0.0)
        train(tiny_model_config("micro"), self.train_records[:1], warm)

    def run_round(self) -> Round:
        cfg = tiny_model_config("micro", variant="gated", n_heads=2)
        tc = TrainConfig(epochs=self.EPOCHS, seed=self.seed, lr=3e-3, aux_weight=0.0, pretrain_fraction=0.15)
        steps = self.EPOCHS * len(self.train_records)
        attempted = steps + len(self.test_records)
        try:
            (params, gate_map, log), wall = _timed_call(
                train_gated_pipeline, cfg, self.train_records, tc, GateConfig(n_heads=2, mode="grad-sim")
            )
            report = evaluate_mod.evaluate(params, cfg, self.test_records, gate_map)
        except Exception:
            traceback.print_exc()
            return _failed_round(attempted, "pipeline raised")
        problems = []
        skipped = 0 if log.clip_activated_epoch is None else 1
        if skipped:
            problems.append("a non-finite loss skipped a step")
        loss = log.entries[-1]["loss"]
        mae = report.by_segment["overall"].mae
        if not all(math.isfinite(e["loss"]) for e in log.entries):
            problems.append("non-finite epoch loss")
        elif not loss < 0.5 * log.entries[0]["loss"]:
            problems.append(f"training did not halve the loss ({log.entries[0]['loss']} -> {loss})")
        if not math.isfinite(mae):
            problems.append("non-finite test MAE")
        failed = attempted if problems else 0
        return Round(steps - skipped, attempted, failed, wall, loss, mae, problems)


class FullTrain:
    """Full-scale backbone train on 2400 s nights, ending in a checkpoint write."""

    name = "full-train"
    NIGHTS, DURATION_S = 4, 2400

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.data_dir = os.path.join(workdir, "data")
        self.ckpt_path = os.path.join(workdir, "train.ckpt")
        self.records = self.params = None

    def prepare(self) -> None:
        write_nights(self.data_dir, self.seed, self.NIGHTS, self.DURATION_S)

    def setup(self) -> None:
        self.records = self.params = None  # drop the last set-up's state first
        self.config = ModelConfig()
        self.records = _load_records(self.data_dir)
        self.params = build_model(self.config, seed=self.seed)
        train(self.config, self.records[:1], TrainConfig(epochs=1, seed=self.seed), params=_fresh_params(self.params))

    def run_round(self) -> Round:
        attempted = len(self.records)
        params = _fresh_params(self.params)
        if os.path.exists(self.ckpt_path):
            os.remove(self.ckpt_path)
        try:
            (_, adam, log), wall = _timed_call(
                train,
                self.config,
                self.records,
                TrainConfig(epochs=1, seed=self.seed),
                params=params,
                checkpoint_path=self.ckpt_path,
            )
        except Exception:
            traceback.print_exc()
            return _failed_round(attempted, "train raised")
        problems = []
        entry = log.entries[-1]
        if adam.t != attempted:
            problems.append(f"{attempted - adam.t} steps skipped")
        if not math.isfinite(entry["loss"]):
            problems.append("non-finite loss")
        floats = sum(t.size for t in params.values()) + 2 * sum(m.size for m in adam.m.values())
        if not os.path.exists(self.ckpt_path) or os.path.getsize(self.ckpt_path) < 4 * floats:
            problems.append(f"checkpoint missing or shorter than its {floats} floats")
        failed = attempted if problems else 0
        return Round(adam.t, attempted, failed, wall, entry["loss"], None, problems)


class FullEval:
    """`respox eval --group-by gender --dump` of a 6-head gated model on 8 h nights."""

    name = "full-eval"
    NIGHTS, DURATION_S = 2, 28800

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        self.data_dir = os.path.join(workdir, "data")
        self.ckpt_path = os.path.join(workdir, "gated.ckpt")
        self.gate_path = os.path.join(workdir, "gate.json")
        self.report_path = os.path.join(workdir, "report.json")
        self.dump_dir = os.path.join(workdir, "dumps")
        self.checkpoint = None

    def prepare(self) -> None:
        write_nights(self.data_dir, self.seed, self.NIGHTS, self.DURATION_S)
        config = ModelConfig(variant="gated", n_heads=6)
        save_checkpoint(self.ckpt_path, build_model(config, seed=self.seed), config, meta={"seed": self.seed})
        save_gate_map(self.gate_path, identity_gate_map(config.v_states, config.u_classes))

    def setup(self) -> None:
        self.checkpoint = None  # drop the last set-up's state first
        self.checkpoint = load_checkpoint(self.ckpt_path)
        gate_map = load_gate_map(self.gate_path)
        self.records = _load_records(self.data_dir)
        evaluate_mod.predict_record(self.checkpoint.params, self.checkpoint.config, self.records[0], gate_map)

    def run_round(self) -> Round:
        attempted = len(self.records)
        for path in (self.report_path,) + tuple(self._dump_paths()):
            if os.path.exists(path):
                os.remove(path)
        args = [
            "eval", "--ckpt", self.ckpt_path, "--gate-map", self.gate_path, "--data", self.data_dir,
            "--split", "all", "--group-by", "gender", "--dump", self.dump_dir, "--report", self.report_path,
        ]
        code, wall = 0, math.nan
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                _, wall = _timed_call(respox_cli.main, args=args, prog_name="respox", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = "an exception"
        if code not in (0, None) or math.isnan(wall):
            return _failed_round(attempted, f"respox eval exited with {code}")
        try:
            problems, mae = self._check()
        except (OSError, ValueError, KeyError) as exc:
            return _failed_round(attempted, f"cannot read the eval outputs: {exc}")
        failed = attempted if problems else 0
        return Round(attempted, attempted, failed, wall, None, mae, problems)

    def _dump_paths(self):
        return [os.path.join(self.dump_dir, f"s{n:04d}.tsv") for n in range(self.NIGHTS)]

    def _check(self) -> tuple[list, float]:
        """Dump shape per night, and the report's MAE recomputed from the dumps."""
        problems = []
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        segment_maes = []
        for record, path in zip(self.records, self._dump_paths()):
            t = record.duration_s
            cols = np.loadtxt(path, skiprows=1, usecols=(1, 2), ndmin=2)
            if cols.shape[0] != t:
                problems.append(f"{path}: {cols.shape[0]} rows, expected {t}")
                continue
            if not np.all(np.isfinite(cols)):
                problems.append(f"{path}: non-finite prediction")
            n_seg = t // SEGMENT_S
            err = np.abs(cols[: n_seg * SEGMENT_S, 1] - cols[: n_seg * SEGMENT_S, 0])
            segment_maes.extend(err.reshape(n_seg, SEGMENT_S).mean(axis=1))
        expected_segments = sum(r.duration_s // SEGMENT_S for r in self.records)
        if report["segment_count"] != expected_segments or len(segment_maes) != expected_segments:
            problems.append(
                f"{report['segment_count']} report segments, {len(segment_maes)} dumped, expected {expected_segments}"
            )
        mae = report["by_segment"]["overall"]["mae"]
        if segment_maes and abs(float(np.mean(segment_maes)) - mae) > MAE_TOLERANCE:
            problems.append(f"report MAE {mae} != {float(np.mean(segment_maes))} recomputed from dumps")
        if sorted(report.get("group_stats") or {}) != sorted({str(r.gender) for r in self.records}):
            problems.append("group stats do not cover every gender")
        return problems, mae


WORKLOADS = {cls.name: cls for cls in (DeskGated, FullTrain, FullEval)}
