import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from respox import __version__, cli, container
from respox import train as train_mod
from respox.checkpoint import load_checkpoint, save_checkpoint
from respox.cli import main
from respox.config import (
    GateConfig,
    RunConfig,
    TrainConfig,
    config_hash,
    run_config_to_dict,
    tiny_model_config,
)
from respox.gate import identity_gate_map, save_gate_map
from respox.model import param_count
from respox.tensor import Tensor

@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, runner):
    """Six synthetic 240 s nights: one full scoring segment each at micro scale."""
    out = tmp_path_factory.mktemp("data")
    result = runner.invoke(
        main, ["synth", "--out", str(out), "--seed", "3", "--nights", "6", "--duration", "240"]
    )
    assert result.exit_code == 0, result.output
    return out


def _micro_run_config(**train_updates):
    train = {"epochs": 2, "lr": 1e-3, "pretrain_fraction": 0.5, "seed": 0}
    train.update(train_updates)
    return RunConfig(
        model=tiny_model_config("micro"),
        train=TrainConfig(**train),
        gate=GateConfig(n_heads=2),
    )


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    cfg = _micro_run_config()
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(run_config_to_dict(cfg)))
    return path


@pytest.fixture(scope="module")
def backbone_ckpt(tmp_path_factory, runner, data_dir, config_file):
    out = tmp_path_factory.mktemp("bb") / "bb.ckpt"
    result = runner.invoke(
        main,
        ["train", "--config", str(config_file), "--data", str(data_dir), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


# ---------------------------------------------------------------- synth


def test_synth_writes_records_and_manifest(runner, data_dir):
    files = sorted(p.name for p in data_dir.iterdir())
    assert "manifest.json" in files
    assert sum(name.endswith(".rsp") for name in files) == 6
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["profile_hash"]
    assert len(manifest["files"]) == 6
    assert manifest["profile"]["duration_s"] == 240


def test_synth_rerun_is_byte_identical(runner, data_dir, tmp_path):
    again = tmp_path / "again"
    result = runner.invoke(
        main, ["synth", "--out", str(again), "--seed", "3", "--nights", "6", "--duration", "240"]
    )
    assert result.exit_code == 0
    assert (again / "manifest.json").read_bytes() == (data_dir / "manifest.json").read_bytes()
    name = json.loads((data_dir / "manifest.json").read_text())["files"][0]
    assert (again / name).read_bytes() == (data_dir / name).read_bytes()


def test_synth_rejects_bad_profile(runner, tmp_path):
    bad = tmp_path / "profile.json"
    bad.write_text('{"no_such_knob": 3}')
    result = runner.invoke(main, ["synth", "--out", str(tmp_path / "d"), "--profile", str(bad)])
    assert result.exit_code == 2
    assert "bad profile" in result.stderr


@pytest.mark.parametrize(
    "profile",
    [{"nights": 2.5}, {"dwell_range_s": [60]}, {"dwell_range_s": [60.5, 120]}, {"seed": True}],
    ids=["fractional_nights", "one_dwell_bound", "fractional_dwell", "bool_seed"],
)
def test_synth_badly_typed_profile_exits_2(runner, tmp_path, profile):
    bad = tmp_path / "profile.json"
    bad.write_text(json.dumps(profile))
    result = runner.invoke(main, ["synth", "--out", str(tmp_path / "d"), "--profile", str(bad)])
    assert result.exit_code == 2, result.output
    assert "error: bad profile: " in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------- JSON inputs


@pytest.mark.parametrize("raw", [b"{not json", b'{"seed": "\xff"}', None], ids=["json", "utf8", "dir"])
@pytest.mark.parametrize("command", ["train --config", "synth --profile", "eval --gate-map"])
def test_unreadable_json_input_exits_2_without_traceback(runner, data_dir, gated_artifacts, tmp_path, raw, command):
    bad = tmp_path / "input.json"
    if raw is None:
        bad.mkdir()
    else:
        bad.write_bytes(raw)
    ckpt, _ = gated_artifacts
    args = {
        "train --config": ["train", "--data", str(data_dir), "--out", str(tmp_path / "b.ckpt")],
        "synth --profile": ["synth", "--out", str(tmp_path / "d")],
        "eval --gate-map": ["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--report", str(tmp_path / "r.json")],
    }[command]
    result = runner.invoke(main, [*args, *command.split()[1:], str(bad)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr.lower()
    assert "Traceback" not in result.output


def test_every_text_artifact_goes_through_write_text(runner, data_dir, config_file, tmp_path, monkeypatch):
    written = []
    write_text = container.write_text
    monkeypatch.setattr(container, "write_text", lambda path, text: written.append(str(path)) or write_text(path, text))
    ckpt = tmp_path / "g.ckpt"
    trained = runner.invoke(
        main,
        ["train", "--config", str(config_file), "--data", str(data_dir), "--variant", "gated", "--out", str(ckpt)],
    )
    assert trained.exit_code == 0, trained.output
    gate_path, log_path = f"{ckpt}.gatemap.json", f"{ckpt}.log.jsonl"
    assert written == [gate_path, log_path]
    report, dumps = tmp_path / "report.json", tmp_path / "dumps"
    evaluated = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(ckpt), "--gate-map", gate_path, "--data", str(data_dir),
            "--report", str(report), "--dump", str(dumps),
        ],
    )
    assert evaluated.exit_code == 0, evaluated.output
    names = sorted(os.listdir(dumps))
    assert names
    assert written[2:] == [str(report), *(str(dumps / name) for name in names)]


# ---------------------------------------------------------------- train


def test_train_backbone_writes_artifacts(runner, data_dir, config_file, backbone_ckpt):
    assert backbone_ckpt.exists()
    log_path = backbone_ckpt.with_name(backbone_ckpt.name + ".log.jsonl")
    rows = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1]
    expected_hash = config_hash(_micro_run_config())
    assert all(r["config_hash"] == expected_hash for r in rows)
    assert all(r["tool_version"] for r in rows)
    ckpt = load_checkpoint(str(backbone_ckpt))
    assert ckpt.meta["config_hash"] == expected_hash
    assert ckpt.meta["epoch"] == 2


def test_train_is_deterministic(runner, data_dir, config_file, backbone_ckpt, tmp_path):
    out = tmp_path / "bb2.ckpt"
    result = runner.invoke(
        main,
        ["train", "--config", str(config_file), "--data", str(data_dir), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_bytes() == backbone_ckpt.read_bytes()


def test_train_reads_config_from_environment(runner, data_dir, config_file, tmp_path):
    out = tmp_path / "env.ckpt"
    result = runner.invoke(
        main,
        ["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1"],
        env={"RESPOX_CONFIG": str(config_file)},
    )
    assert result.exit_code == 0, result.output
    assert load_checkpoint(str(out)).meta["epoch"] == 1


@pytest.fixture(scope="module")
def gated_artifacts(runner, data_dir, config_file, tmp_path_factory):
    base = tmp_path_factory.mktemp("gated")
    out = base / "g.ckpt"
    result = runner.invoke(
        main,
        [
            "train", "--config", str(config_file), "--data", str(data_dir),
            "--variant", "gated", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out, base / "g.ckpt.gatemap.json"


def test_train_gated_writes_gate_map(gated_artifacts):
    ckpt, gate_path = gated_artifacts
    assert gate_path.exists()
    payload = json.loads(gate_path.read_text())
    assert payload["n_heads"] == 2
    assert payload["provenance"]["config_hash"]
    assert payload["provenance"]["tool_version"]
    assert load_checkpoint(str(ckpt)).config.variant == "gated"


@pytest.mark.parametrize(
    "gate",
    [
        GateConfig(n_heads=7),
        GateConfig(n_heads=2, mode="manual", manual_table={"v0u0": 1}),
        GateConfig(n_heads=2, mode="manual", manual_table={"v=0,u=0": "one"}),
        GateConfig(n_heads=2, mode="manual", manual_table={"v=0,u=0": 1.9}),
    ],
    ids=["more_heads_than_states", "bad_manual_key", "bad_manual_head", "fractional_manual_head"],
)
def test_train_gated_gate_failure_exits_1(runner, data_dir, tmp_path, gate, monkeypatch):
    cfg = _micro_run_config()
    cfg.gate = gate
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_config_to_dict(cfg)))
    steps = []
    adam_step = train_mod.adam_step
    monkeypatch.setattr(train_mod, "adam_step", lambda *args: steps.append(1) or adam_step(*args))
    result = runner.invoke(
        main,
        [
            "train", "--config", str(cfg_path), "--data", str(data_dir),
            "--variant", "gated", "--out", str(tmp_path / "g.ckpt"),
        ],
    )
    assert result.exit_code == 1, result.output
    assert "gate map construction failed" in result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not steps, "the gate config must fail before backbone pretraining"


@pytest.mark.parametrize("flag", ["--out", "--log-out", "--gate-map-out"])
def test_train_into_a_missing_directory_exits_2_before_training(runner, data_dir, config_file, tmp_path, flag, monkeypatch):
    # --out into a missing directory takes the derived log and gate map paths with it
    steps = []
    adam_step = train_mod.adam_step
    monkeypatch.setattr(train_mod, "adam_step", lambda *args: steps.append(1) or adam_step(*args))
    paths = {"--out": str(tmp_path / "g.ckpt"), flag: str(tmp_path / "missing" / "artifact")}
    result = runner.invoke(
        main,
        [
            "train", "--config", str(config_file), "--data", str(data_dir), "--variant", "gated",
            *(arg for item in paths.items() for arg in item),
        ],
    )
    assert result.exit_code == 2, result.output
    assert f"output directory {tmp_path / 'missing'} does not exist" in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert not steps
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("section,key", [("train", "batch"), ("data", "normalize")])
def test_train_rejects_removed_config_keys(runner, data_dir, tmp_path, section, key):
    payload = run_config_to_dict(_micro_run_config())
    payload[section][key] = 1
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(payload))
    result = runner.invoke(
        main, ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp_path / "b.ckpt")]
    )
    assert result.exit_code == 2, result.output
    assert f"unknown key {key!r}" in result.stderr


def test_train_badly_typed_config_value_exits_2(runner, data_dir, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"rrelu_bounds": [0.1]}}))
    result = runner.invoke(
        main, ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp_path / "b.ckpt")]
    )
    assert result.exit_code == 2, result.output
    assert "error: bad value in config section 'model'" in result.stderr
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "payload",
    [
        {"train": {"epochs": 2.5}},
        {"train": {"seed": 1.5}},
        {"data": {"split_seed": "x"}},
        {"model": {"variant": "gated"}, "gate": {"n_heads": 2.5}},
    ],
    ids=["epochs", "seed", "split_seed", "gate_n_heads"],
)
def test_train_non_integer_config_value_exits_2(runner, data_dir, tmp_path, payload):
    section = next(name for name in payload if name != "model")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(payload))
    result = runner.invoke(
        main, ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(tmp_path / "b.ckpt")]
    )
    assert result.exit_code == 2, result.output
    assert f"error: bad value in config section {section!r}" in result.stderr
    assert isinstance(result.exception, SystemExit)


# ---------------------------------------------------------------- gatemap


def test_gatemap_from_backbone(runner, data_dir, config_file, backbone_ckpt, tmp_path):
    out = tmp_path / "gate.json"
    result = runner.invoke(
        main,
        [
            "gatemap", "--ckpt", str(backbone_ckpt), "--config", str(config_file),
            "--data", str(data_dir), "--n-heads", "2", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["n_heads"] == 2
    assert len(payload["table"]) == 6
    assert payload["provenance"]["mode"] == "grad-sim"


def test_gatemap_into_a_missing_directory_exits_2(runner, data_dir, config_file, backbone_ckpt, tmp_path):
    result = runner.invoke(
        main,
        [
            "gatemap", "--ckpt", str(backbone_ckpt), "--config", str(config_file),
            "--data", str(data_dir), "--out", str(tmp_path / "missing" / "gate.json"),
        ],
    )
    assert result.exit_code == 2, result.output
    assert f"output directory {tmp_path / 'missing'} does not exist" in result.stderr
    assert isinstance(result.exception, SystemExit)


@pytest.fixture(scope="module")
def long_data_dir(tmp_path_factory, runner):
    """Two 480 s nights: 20 bottleneck positions, over the micro model's 16."""
    out = tmp_path_factory.mktemp("long")
    result = runner.invoke(
        main, ["synth", "--out", str(out), "--seed", "3", "--nights", "2", "--duration", "480"]
    )
    assert result.exit_code == 0, result.output
    return out


def test_train_over_position_budget_exits_1(runner, long_data_dir, config_file, tmp_path):
    result = runner.invoke(
        main,
        [
            "train", "--config", str(config_file), "--data", str(long_data_dir),
            "--split", "all", "--out", str(tmp_path / "bb.ckpt"),
        ],
    )
    assert result.exit_code == 1, result.output
    assert "training failed: bottleneck length 20 exceeds the 16 position budget" in result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_gatemap_over_position_budget_exits_1(runner, long_data_dir, config_file, backbone_ckpt, tmp_path):
    result = runner.invoke(
        main,
        [
            "gatemap", "--ckpt", str(backbone_ckpt), "--config", str(config_file),
            "--data", str(long_data_dir), "--n-heads", "2", "--out", str(tmp_path / "gate.json"),
        ],
    )
    assert result.exit_code == 1, result.output
    assert "gate map construction failed: bottleneck length 20" in result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "gate.json").exists()


# ---------------------------------------------------------------- eval


def test_eval_writes_report_and_dumps(runner, data_dir, config_file, backbone_ckpt, tmp_path):
    report_path = tmp_path / "report.json"
    dump_dir = tmp_path / "dumps"
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(backbone_ckpt), "--config", str(config_file),
            "--data", str(data_dir), "--report", str(report_path), "--dump", str(dump_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(report_path.read_text())
    assert "overall" in payload["by_segment"]
    assert "overall" in payload["by_night"]
    assert payload["tool_version"]
    assert payload["aggregation"] == "segment"
    assert payload["checkpoint_id"] == backbone_ckpt.name
    assert "overall:" in result.output
    dumps = sorted(p.name for p in dump_dir.iterdir())
    assert len(dumps) == payload["by_night"]["overall"]["count"]
    first = (dump_dir / dumps[0]).read_text().splitlines()
    assert first[0].startswith("t\ty_true")
    assert len(first) == 241


@pytest.fixture()
def predict_calls(monkeypatch):
    """Subject ids that evaluate.predict_record is called with, in call order."""
    import respox.evaluate as ev

    calls = []
    original = ev.predict_record

    def counting(*args, **kwargs):
        calls.append(args[2].subject_id)
        return original(*args, **kwargs)

    monkeypatch.setattr(ev, "predict_record", counting)
    return calls


def test_eval_forwards_each_night_once(runner, data_dir, backbone_ckpt, tmp_path, predict_calls):
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(backbone_ckpt), "--data", str(data_dir), "--split", "all",
            "--group-by", "gender", "--dump", str(tmp_path / "dumps"), "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 0, result.output
    nights = sorted(p.stem for p in data_dir.glob("*.rsp"))
    assert sorted(predict_calls) == nights
    assert sorted(p.stem for p in (tmp_path / "dumps").iterdir()) == nights
    assert set(json.loads((tmp_path / "r.json").read_text())["group_stats"]) == {"0", "1"}


def test_eval_unknown_group_variable_exits_2_before_any_forward(
    runner, data_dir, backbone_ckpt, tmp_path, predict_calls
):
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(backbone_ckpt), "--data", str(data_dir), "--split", "all",
            "--group-by", "nosuch", "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2, result.output
    assert "has no variable 'nosuch'" in result.stderr
    assert predict_calls == []
    assert not (tmp_path / "r.json").exists()


def test_eval_report_into_a_missing_directory_exits_2_before_any_forward(
    runner, data_dir, backbone_ckpt, tmp_path, predict_calls
):
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(backbone_ckpt), "--data", str(data_dir), "--split", "all",
            "--dump", str(tmp_path / "dumps"), "--report", str(tmp_path / "missing" / "r.json"),
        ],
    )
    assert result.exit_code == 2, result.output
    assert f"output directory {tmp_path / 'missing'} does not exist" in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert predict_calls == []
    assert os.listdir(tmp_path) == []


def test_eval_badly_typed_record_header_exits_2(runner, data_dir, backbone_ckpt, tmp_path, rewrite_header):
    bad_dir = tmp_path / "data"
    shutil.copytree(data_dir, bad_dir)
    bad = sorted(bad_dir.glob("*.rsp"))[0]
    rewrite_header(bad, lambda header: {**header, "fb": "ten"})
    result = runner.invoke(
        main,
        ["eval", "--ckpt", str(backbone_ckpt), "--data", str(bad_dir), "--report", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2, result.output
    assert f"error: {bad}: header field 'fb' must be an integer" in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_eval_refuses_a_gate_map_from_another_run(runner, data_dir, gated_artifacts, tmp_path, predict_calls):
    ckpt, gate_path = gated_artifacts
    payload = json.loads(gate_path.read_text())
    payload["provenance"]["config_hash"] = "0" * 64
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--gate-map", str(other),
            "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2, result.output
    assert "error: gate map is from another run: it was derived under 000000000000..." in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert predict_calls == []
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        lambda payload: {**payload, "n_heads": 2.5},
        lambda payload: {**payload, "table": {key: 1.9 for key in payload["table"]}},
        lambda payload: {**payload, "table": {key: True for key in payload["table"]}},
        lambda payload: {**payload, "table": {key: "1" for key in payload["table"]}},
    ],
    ids=["n_heads_2.5", "head_1.9", "head_true", "head_string"],
)
def test_eval_badly_typed_gate_map_exits_2_before_any_forward(
    runner, data_dir, gated_artifacts, tmp_path, predict_calls, change
):
    ckpt, gate_path = gated_artifacts
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(change(json.loads(gate_path.read_text()))))
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--gate-map", str(bad),
            "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2, result.output
    assert "error: bad gate-map payload: " in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert predict_calls == []
    assert not (tmp_path / "r.json").exists()


def test_eval_gate_map_must_fit_checkpoint(runner, data_dir, gated_artifacts, tmp_path):
    ckpt, _ = gated_artifacts
    cfg = load_checkpoint(str(ckpt)).config
    wide = tmp_path / "wide.json"
    save_gate_map(str(wide), identity_gate_map(cfg.v_states, cfg.u_classes))
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--gate-map", str(wide),
            "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert "6 heads" in result.stderr

    # right head count, but no table entry for any state: a typed failure at
    # evaluation time, not a traceback
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n_heads": 2, "table": {}}))
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--gate-map", str(empty),
            "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 1
    assert "evaluation failed" in result.stderr


def test_eval_rejects_mismatched_config(runner, data_dir, backbone_ckpt, tmp_path):
    other = _micro_run_config(seed=99)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(run_config_to_dict(other)))
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(backbone_ckpt), "--config", str(other_path),
            "--data", str(data_dir), "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 2
    assert "config hash mismatch" in result.stderr


def test_eval_gated_requires_gate_map(runner, data_dir, gated_artifacts, tmp_path):
    ckpt, gate_path = gated_artifacts
    result = runner.invoke(
        main,
        ["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--report", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2
    assert "--gate-map" in result.stderr

    # a config describing the gated model (as the train override produced it)
    # hashes identically and passes the mismatch check
    gated_cfg = _micro_run_config()
    payload = run_config_to_dict(gated_cfg)
    payload["model"]["variant"] = "gated"
    payload["model"]["n_heads"] = 2
    cfg_path = tmp_path / "gated.json"
    cfg_path.write_text(json.dumps(payload))
    ok = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(ckpt), "--config", str(cfg_path),
            "--data", str(data_dir), "--gate-map", str(gate_path),
            "--report", str(tmp_path / "r2.json"),
        ],
    )
    assert ok.exit_code == 0, ok.output


def test_eval_night_aggregation_echoes_nights(runner, data_dir, backbone_ckpt, tmp_path):
    cfg = _micro_run_config()
    payload = run_config_to_dict(cfg)
    payload["eval"]["aggregation"] = "night"
    cfg_path = tmp_path / "night.json"
    cfg_path.write_text(json.dumps(payload))
    result = runner.invoke(
        main,
        [
            "eval", "--ckpt", str(backbone_ckpt), "--config", str(cfg_path),
            "--data", str(data_dir), "--report", str(tmp_path / "r.json"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "nights" in result.output
    assert json.loads((tmp_path / "r.json").read_text())["aggregation"] == "night"


# One tensor dropped, added or reshaped in the micro backbone checkpoint:
# (name, stored shape or None to drop it, the refusal).
UNLIKE_ITS_CONFIG = {
    "missing": ("head1.proj.bias", None, "tensor 'head1.proj.bias' is missing"),
    "extra": ("head2.proj.bias", (1,), "tensor 'head2.proj.bias' has shape (1,), its config builds no such tensor"),
    "misshapen": ("encoder.0.bn.gamma", (3,), "tensor 'encoder.0.bn.gamma' has shape (3,), its config builds (2,)"),
}


@pytest.fixture(params=sorted(UNLIKE_ITS_CONFIG))
def unlike_ckpt(request, backbone_ckpt, tmp_path):
    name, shape, refusal = UNLIKE_ITS_CONFIG[request.param]
    ckpt = load_checkpoint(str(backbone_ckpt))
    params = dict(ckpt.params)
    if shape is None:
        del params[name]
    else:
        params[name] = Tensor(np.zeros(shape, dtype=np.float32))
    path = tmp_path / f"{request.param}.ckpt"
    save_checkpoint(str(path), params, ckpt.config, meta=ckpt.meta, optimizer=ckpt.optimizer)
    return path, name, shape, refusal


@pytest.mark.parametrize("command", ["eval", "gatemap"])
def test_checkpoint_unlike_its_config_exits_2_naming_the_tensor(
    runner, data_dir, config_file, unlike_ckpt, tmp_path, command
):
    path, name, shape, refusal = unlike_ckpt
    out = ["--report", str(tmp_path / "r.json")] if command == "eval" else ["--out", str(tmp_path / "g.json")]
    result = runner.invoke(
        main, [command, "--ckpt", str(path), "--config", str(config_file), "--data", str(data_dir), *out]
    )
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {path}: {refusal}\n"
    assert not list(tmp_path.glob("*.json"))

    # loading and listing still read the file
    assert (name in load_checkpoint(str(path)).params) == (shape is not None)
    listed = runner.invoke(main, ["inspect", "--ckpt", str(path), "--tensors"])
    assert listed.exit_code == 0, listed.output
    assert (f"  {name}  " in listed.output) == (shape is not None)


# ---------------------------------------------------------------- inspect


def test_inspect_reports_counts(runner, backbone_ckpt):
    result = runner.invoke(main, ["inspect", "--ckpt", str(backbone_ckpt)])
    assert result.exit_code == 0
    assert "parameters:" in result.output
    assert "26,821,113" in result.output
    listed = runner.invoke(main, ["inspect", "--ckpt", str(backbone_ckpt), "--tensors"])
    assert "encoder.0.conv.weight" in listed.output


def test_inspect_reads_only_the_manifest(runner, gated_artifacts, monkeypatch):
    ckpt, _ = gated_artifacts
    loaded = load_checkpoint(str(ckpt))
    total = sum(t.data.size for t in loaded.params.values())
    expected = [
        f"parameters: {param_count(loaded.params):,} trainable, {total:,} with buffers "
        "(full-scale reference: 26,821,113)",
        f"optimizer tensors: {len(loaded.optimizer)}",
    ] + [f"  {name}  {loaded.params[name].data.shape}  float32" for name in sorted(loaded.params)]
    before = runner.invoke(main, ["inspect", "--ckpt", str(ckpt), "--tensors"])

    def refuse(path):
        raise AssertionError("inspect must not load tensors")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    result = runner.invoke(main, ["inspect", "--ckpt", str(ckpt), "--tensors"])
    assert result.exit_code == 0, result.output
    assert result.output == before.output
    assert result.output.splitlines()[-len(expected):] == expected


def test_inspect_rejects_truncated_checkpoint(runner, backbone_ckpt, tmp_path):
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(backbone_ckpt.read_bytes()[:-10])
    result = runner.invoke(main, ["inspect", "--ckpt", str(broken)])
    assert result.exit_code == 2
    assert "cannot read checkpoint" in result.stderr


def test_inspect_rejects_malformed_manifest(runner, backbone_ckpt, tmp_path, rewrite_header):
    broken = tmp_path / "broken.ckpt"
    shutil.copyfile(backbone_ckpt, broken)
    rewrite_header(broken, lambda manifest: {**manifest, "tensors": [{"name": "x", "shape": [1]}]})
    result = runner.invoke(main, ["inspect", "--ckpt", str(broken)])
    assert result.exit_code == 2, result.output
    assert "error: cannot read checkpoint" in result.stderr
    assert isinstance(result.exception, SystemExit)


# ---------------------------------------------------------------- misc


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "respox" in result.output


def test_python_dash_m_respox_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "respox", "--version"], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"respox, version {__version__}\n"
