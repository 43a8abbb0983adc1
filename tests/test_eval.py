import dataclasses
import hashlib
import logging
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from respox.evaluate import (
    EvalError,
    GroupVarError,
    SegmentMetrics,
    _aggregate_nights,
    _aggregate_segments,
    _series_stats,
    dump_predictions,
    evaluate,
    group_distribution,
    metrics,
    predict_record,
    segment,
)
from respox.container import write_json
from respox.gate import identity_gate_map, manual_gate_map
from respox.model import build_model
from respox.config import tiny_model_config


# ---------------------------------------------------------------- metrics


def test_metrics_hand_example():
    y = np.array([94.0, 95.0, 96.0, 97.0])
    y_hat = np.array([95.0, 96.0, 95.0, 98.0])
    m = metrics(y_hat, y)
    assert m.mae == pytest.approx(1.0)
    assert m.rmse == pytest.approx(1.0)
    assert m.corr == pytest.approx(4.0 / math.sqrt(30.0))
    assert m.corr_defined


def test_metrics_perfect_predictor():
    y = np.array([90.0, 92.0, 95.0, 97.0])
    m = metrics(y, y)
    assert m.corr == pytest.approx(1.0)
    assert m.mae == 0.0
    assert m.rmse == 0.0


def test_metrics_flat_side_disables_corr():
    flat = np.full(10, 95.0)
    wavy = 95.0 + np.sin(np.arange(10))
    for a, b in [(flat, wavy), (wavy, flat), (flat, flat)]:
        m = metrics(a, b)
        assert m.corr == 0.0
        assert not m.corr_defined
    assert metrics(flat, wavy).mae == pytest.approx(float(np.mean(np.abs(wavy - 95.0))))


def test_metrics_input_validation():
    with pytest.raises(EvalError):
        metrics(np.array([1.0]), np.array([1.0]))
    with pytest.raises(EvalError):
        metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


@given(
    y=arrays(np.float64, 24, elements=st.floats(70, 100)),
    scale=st.floats(0.1, 5.0),
    shift=st.floats(-20, 20),
)
@settings(max_examples=40, deadline=None)
def test_metrics_corr_scale_shift_invariant(y, scale, shift):
    rng = np.random.default_rng(0)
    y_hat = y + rng.normal(0, 1.0, size=y.shape)
    base = metrics(y_hat, y)
    moved = metrics(scale * y_hat + shift, y)
    if base.corr_defined and moved.corr_defined:
        assert moved.corr == pytest.approx(base.corr, abs=1e-9)


@given(
    y=arrays(np.float64, 16, elements=st.floats(80, 100)),
    y_hat=arrays(np.float64, 16, elements=st.floats(80, 100)),
)
@settings(max_examples=60, deadline=None)
def test_metrics_mae_never_exceeds_rmse(y, y_hat):
    m = metrics(y_hat, y)
    assert m.mae <= m.rmse + 1e-12
    assert -1.0 - 1e-12 <= m.corr <= 1.0 + 1e-12


# ---------------------------------------------------------------- segmentation


def test_segment_counts_and_tail_drop(caplog):
    y = np.zeros(480)
    assert len(segment(y, y, 240)) == 2
    assert len(segment(np.zeros(250), np.zeros(250), 240)) == 1
    with caplog.at_level(logging.WARNING, logger="respox.evaluate"):
        assert segment(np.zeros(239), np.zeros(239), 240) == []
    assert "shorter than one" in caplog.text


def test_segment_windows_are_consecutive():
    y = np.arange(10, dtype=np.float64)
    segs = segment(y + 100, y, 4)
    assert len(segs) == 2
    np.testing.assert_array_equal(segs[0][1], [0, 1, 2, 3])
    np.testing.assert_array_equal(segs[1][1], [4, 5, 6, 7])
    np.testing.assert_array_equal(segs[1][0], [104, 105, 106, 107])


def test_segment_length_mismatch_rejected():
    with pytest.raises(EvalError):
        segment(np.zeros(10), np.zeros(11), 4)


# ---------------------------------------------------------------- aggregation


def _seg(corr, mae, rmse, defined=True):
    return SegmentMetrics(corr=corr, mae=mae, rmse=rmse, corr_defined=defined)


def test_aggregate_segments_hand_example():
    lists = [
        [_seg(1.0, 1.0, 1.0), _seg(0.5, 3.0, 3.0)],
        [_seg(0.0, 2.0, 2.0, defined=False)],
    ]
    agg = _aggregate_segments(lists)
    assert agg.corr == pytest.approx(0.75)
    assert agg.mae == pytest.approx(2.0)
    assert agg.count == 3
    assert agg.corr_excluded == 1


def test_aggregate_nights_hand_example():
    lists = [
        [_seg(1.0, 1.0, 1.0), _seg(0.5, 3.0, 3.0)],
        [_seg(0.0, 2.0, 2.0, defined=False)],
    ]
    agg = _aggregate_nights(lists)
    assert agg.corr == pytest.approx(0.75)   # only the first night defines one
    assert agg.mae == pytest.approx(2.0)     # mean of per-night means (2, 2)
    assert agg.count == 2
    assert agg.corr_excluded == 1


def test_aggregate_unweighted_vs_night_weighted():
    # one long night and one short night with different errors: the segment
    # table weights by segment, the night table weights nights equally
    lists = [
        [_seg(0.0, 1.0, 1.0, defined=False)] * 3,
        [_seg(0.0, 5.0, 5.0, defined=False)],
    ]
    assert _aggregate_segments(lists).mae == pytest.approx(2.0)
    assert _aggregate_nights(lists).mae == pytest.approx(3.0)


# ---------------------------------------------------------------- evaluate


def test_evaluate_rejects_empty_and_short(micro_params, micro_cfg, micro_records):
    with pytest.raises(EvalError):
        evaluate(micro_params, micro_cfg, [])
    with pytest.raises(EvalError):
        evaluate(micro_params, micro_cfg, micro_records[:1], seg_len=100)


def test_evaluate_order_invariant(micro_params, micro_cfg, micro_records):
    fwd = evaluate(micro_params, micro_cfg, micro_records, seg_len=48)
    rev = evaluate(micro_params, micro_cfg, list(reversed(micro_records)), seg_len=48)
    assert fwd.to_dict() == rev.to_dict()
    assert fwd.segment_count == 2 * len(micro_records)


def test_evaluate_tables_are_consistent(micro_params, micro_cfg, micro_records):
    report = evaluate(micro_params, micro_cfg, micro_records, seg_len=48)
    assert set(report.by_segment) == {"synth", "overall"}
    assert set(report.by_night) == {"synth", "overall"}
    for table in (report.by_segment, report.by_night):
        for agg in table.values():
            assert agg.mae <= agg.rmse + 1e-12
            assert agg.count > 0
    # single dataset: its rows equal the overall rows
    assert report.by_segment["synth"] == report.by_segment["overall"]


def test_evaluate_splits_by_dataset(micro_params, micro_cfg, micro_records):
    renamed = [
        dataclasses.replace(r, dataset_id="other") if i % 2 else r
        for i, r in enumerate(micro_records)
    ]
    report = evaluate(micro_params, micro_cfg, renamed, seg_len=48)
    assert set(report.by_segment) == {"other", "synth", "overall"}
    assert report.by_segment["other"].count + report.by_segment["synth"].count == (
        report.by_segment["overall"].count
    )


def test_evaluate_carries_identifiers(micro_params, micro_cfg, micro_records):
    report = evaluate(
        micro_params,
        micro_cfg,
        micro_records,
        seg_len=48,
        config_hash="ff00",
        checkpoint_id="run.ckpt",
    )
    payload = report.to_dict()
    assert payload["config_hash"] == "ff00"
    assert payload["checkpoint_id"] == "run.ckpt"
    assert "group_stats" not in payload


# ---------------------------------------------------------------- prediction


def test_predict_record_deterministic(micro_params, micro_cfg, micro_records):
    record = micro_records[0]
    y1, pred1 = predict_record(micro_params, micro_cfg, record)
    y2, _ = predict_record(micro_params, micro_cfg, record)
    np.testing.assert_array_equal(y1, y2)
    assert y1.shape == (record.duration_s,)
    assert np.all(np.isfinite(y1))
    assert pred1.gate_series is None


# ---------------------------------------------------------------- grouping


def test_series_stats_quantile_oracle():
    stats = _series_stats(np.arange(1.0, 101.0))
    assert stats["min"] == 1.0
    assert stats["max"] == 100.0
    assert stats["q1"] == pytest.approx(25.75)
    assert stats["median"] == pytest.approx(50.5)
    assert stats["q3"] == pytest.approx(75.25)
    assert stats["mean"] == pytest.approx(50.5)


def test_group_distribution_by_gender(micro_records):
    predictions = [r.spo2.astype(np.float64) + 1.0 for r in micro_records]
    stats = group_distribution(micro_records, predictions, "gender")
    assert set(stats) == {"0", "1"}
    for group in stats.values():
        assert group["pred"]["mean"] == pytest.approx(group["truth"]["mean"] + 1.0)


def test_group_distribution_unknown_var(micro_records):
    predictions = [r.spo2.astype(np.float64) for r in micro_records]
    with pytest.raises(GroupVarError):
        group_distribution(micro_records, predictions, "age")
    with pytest.raises(EvalError):
        group_distribution(micro_records, predictions[:-1], "gender")


def test_group_distribution_reads_record_vars(micro_records):
    tagged = [
        dataclasses.replace(r, vars={"site": "a" if i < 3 else "b"})
        for i, r in enumerate(micro_records)
    ]
    predictions = [r.spo2.astype(np.float64) for r in tagged]
    stats = group_distribution(tagged, predictions, "site")
    assert set(stats) == {"a", "b"}


def test_evaluate_group_stats_plumbed(micro_params, micro_cfg, micro_records):
    report = evaluate(micro_params, micro_cfg, micro_records, seg_len=48, group_var="gender")
    assert set(report.group_stats) == {"0", "1"}
    assert "group_stats" in report.to_dict()


# ---------------------------------------------------------------- dumps


def test_dump_predictions_rows(tmp_path, micro_params, micro_cfg, micro_records):
    record = micro_records[0]
    path = tmp_path / "night.tsv"
    report = evaluate(micro_params, micro_cfg, [record], seg_len=record.duration_s)
    n = dump_predictions(*report.nights[0], str(path))
    lines = path.read_text().splitlines()
    assert n == record.duration_s
    assert len(lines) == n + 1
    assert lines[0] == "t\ty_true\ty_hat_raw\ty_hat_rounded\tstage\tgate_status"
    y_hat, _ = predict_record(micro_params, micro_cfg, record)
    for t, line in enumerate(lines[1:]):
        cols = line.split("\t")
        assert int(cols[0]) == t
        assert float(cols[1]) == pytest.approx(float(record.spo2[t]), abs=1e-6)
        assert float(cols[2]) == pytest.approx(float(y_hat[t]), abs=1e-6)
        assert int(cols[3]) == math.floor(float(cols[2]) + 0.5)
        assert int(cols[4]) == int(record.stages[t])
        assert cols[5] == "0"  # ungated variants dump gate status 0
    dumped_mae = np.mean(np.abs(np.array([float(l.split("\t")[2]) for l in lines[1:]]) - record.spo2))
    assert dumped_mae == pytest.approx(report.by_segment["overall"].mae, abs=1e-9)


def test_dump_rounding_is_half_up(tmp_path, micro_records):
    record = micro_records[0]
    fixed = np.full(record.duration_s, 94.5)
    fixed[0] = 94.4
    fixed[1] = 94.6
    path = tmp_path / "rounded.tsv"
    dump_predictions(record, fixed, None, str(path))
    rounded = [int(line.split("\t")[3]) for line in path.read_text().splitlines()[1:]]
    assert rounded[0] == 94
    assert rounded[1] == 95
    assert rounded[2] == 95  # .5 rounds up, not to even


def test_dump_gated_records_gate_status(tmp_path, micro_records):
    cfg = tiny_model_config("micro", variant="gated", n_heads=2)
    params = build_model(cfg, seed=0)
    space = {(v, u): 1 + (u % 2) for v in range(cfg.v_states) for u in range(cfg.u_classes)}
    gate_map = manual_gate_map(space, n_heads=2)
    path = tmp_path / "gated.tsv"
    record = micro_records[0]
    y_hat, pred = predict_record(params, cfg, record, gate_map)
    dump_predictions(record, y_hat, pred.gate_series, str(path))
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    statuses = {int(r[5]) for r in rows}
    assert statuses <= {1, 2}
    # inference gates on the model's own stage estimate, not the truth column
    u_hat = np.argmax(pred.u_logits.data, axis=0)
    for r, u in zip(rows, u_hat):
        assert int(r[5]) == 1 + (int(u) % 2)


@pytest.mark.parametrize("field", ["spo2", "stages"])
def test_dump_rejects_a_series_shorter_than_the_prediction(tmp_path, micro_records, field):
    record = micro_records[0]
    y_hat = np.full(record.duration_s, 95.0)
    short = types.SimpleNamespace(spo2=record.spo2, stages=record.stages)
    setattr(short, field, getattr(record, field)[:-1])
    with pytest.raises(ValueError):
        dump_predictions(short, y_hat, None, str(tmp_path / "short.tsv"))


# pinned sha256 of the gated eval output below: the report JSON as `respox
# eval` writes it, then each night's dump in input order.  Any change to the
# forward pass, the metrics or the dump format that moves a byte changes it.
# The float32 forward goes through numpy's BLAS and SIMD math, so the digest
# holds for one numpy build on one CPU family: if it fails on a new machine
# with no code change, compare against the parent commit there first.
GOLDEN_GATED_EVAL_SHA256 = "98eceb3d7b7fcfc8f06a58996a883990c3a07dfcba8b5bcc5b6a5c53ae382ef3"


def test_gated_eval_output_matches_golden(tmp_path, micro_records):
    cfg = tiny_model_config("micro", variant="gated", n_heads=6)
    params = build_model(cfg, seed=0)
    gate_map = identity_gate_map(cfg.v_states, cfg.u_classes)
    report = evaluate(params, cfg, micro_records, gate_map, seg_len=48, group_var="gender")
    digest = hashlib.sha256()
    write_json(tmp_path / "report.json", report.to_dict())
    digest.update((tmp_path / "report.json").read_bytes())
    for record, y_hat, gate_series in report.nights:
        path = tmp_path / f"{record.subject_id}.tsv"
        dump_predictions(record, y_hat, gate_series, str(path))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_GATED_EVAL_SHA256
