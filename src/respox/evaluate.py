"""Segment-based evaluation: metrics, aggregation, group distributions, dumps.

Each night is forwarded once; its prediction feeds the segment metrics, the
group distributions and the per-night dump alike. Predictions and ground
truth are cut into fixed-length non-overlapping segments; correlation, mean
absolute error, and root mean squared error are computed per segment in SpO2
percentage points and averaged unweighted. Flat segments (variance below the
floor on either side) contribute MAE and RMSE but are excluded from the
correlation average. The report carries both the per-segment aggregation and
a per-night alternative.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from . import model as model_mod
from .tensor import no_grad

log = logging.getLogger(__name__)

SEGMENT_LEN_S = 240
CORR_VAR_FLOOR = 1e-12

# Headline full-scale numbers reported for this architecture on restricted
# clinical sleep-study corpora and on a radio-frequency dataset. They are
# quoted for context only: those datasets are access-controlled, so nothing
# in this package can recompute them, and no test compares against them.
PUBLISHED_FULL_SCALE_RESULTS = {
    "medical_overall": {"corr": 0.53, "mae": 1.58, "rmse": 1.70},
    "rf": {"corr": 0.52, "mae": 1.32, "rmse": 1.54},
}


class EvalError(RuntimeError):
    pass


class GroupVarError(ValueError):
    pass


@dataclass
class SegmentMetrics:
    corr: float
    mae: float
    rmse: float
    corr_defined: bool


@dataclass
class Aggregate:
    corr: float
    mae: float
    rmse: float
    count: int          # segments (by_segment) or nights (by_night)
    corr_excluded: int  # members that contributed no correlation


@dataclass
class EvalReport:
    by_segment: dict[str, Aggregate]
    by_night: dict[str, Aggregate]
    segment_count: int
    excluded_count: int
    config_hash: str | None = None
    checkpoint_id: str | None = None
    group_stats: dict | None = None
    # (record, y_hat in percentage points, gate series or None) per night, in
    # input order; kept in memory for dumps and left out of to_dict()
    nights: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        payload = {
            "by_segment": {k: asdict(v) for k, v in self.by_segment.items()},
            "by_night": {k: asdict(v) for k, v in self.by_night.items()},
            "segment_count": self.segment_count,
            "excluded_count": self.excluded_count,
            "config_hash": self.config_hash,
            "checkpoint_id": self.checkpoint_id,
        }
        if self.group_stats is not None:
            payload["group_stats"] = self.group_stats
        return payload


# ---------------------------------------------------------------- segments


def segment(y_hat: np.ndarray, y: np.ndarray, seg_len: int = SEGMENT_LEN_S) -> list:
    """Cut aligned series into consecutive seg_len windows, dropping the tail."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise EvalError(f"series lengths differ: {y_hat.shape} vs {y.shape}")
    n = y.shape[0] // seg_len
    if n == 0:
        log.warning("series of %d s shorter than one %d s segment", y.shape[0], seg_len)
    return [
        (y_hat[i * seg_len : (i + 1) * seg_len], y[i * seg_len : (i + 1) * seg_len])
        for i in range(n)
    ]


def metrics(y_hat_seg: np.ndarray, y_seg: np.ndarray) -> SegmentMetrics:
    """Pearson correlation, MAE, and RMSE of one segment in percentage points."""
    a = np.asarray(y_hat_seg, dtype=np.float64)
    b = np.asarray(y_seg, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise EvalError(f"need two aligned 1-D series of length >= 2, got {a.shape} and {b.shape}")
    diff = a - b
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    da = a - a.mean()
    db = b - b.mean()
    var_a = float(np.mean(da * da))
    var_b = float(np.mean(db * db))
    if var_a < CORR_VAR_FLOOR or var_b < CORR_VAR_FLOOR:
        return SegmentMetrics(corr=0.0, mae=mae, rmse=rmse, corr_defined=False)
    corr = float(np.sum(da * db) / np.sqrt(np.sum(da * da) * np.sum(db * db)))
    return SegmentMetrics(corr=corr, mae=mae, rmse=rmse, corr_defined=True)


# ---------------------------------------------------------------- prediction


def predict_record(params, config, record, gate_map=None):
    """Eval-mode forward over one night; returns (y_hat_pct, prediction)."""
    x, v = model_mod.night_input(params, config, record)
    with no_grad():
        pred = model_mod.forward(params, config, x, v=v, gate_map=gate_map, mode="eval")
    y_hat_pct = pred.y_hat.data.astype(np.float64) * 100.0
    return y_hat_pct, pred


def _mean(values) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals) if vals else 0.0


def _aggregate_segments(seg_lists: list[list[SegmentMetrics]]) -> Aggregate:
    flat = [m for segs in seg_lists for m in segs]
    defined = [m.corr for m in flat if m.corr_defined]
    return Aggregate(
        corr=_mean(defined),
        mae=_mean(m.mae for m in flat),
        rmse=_mean(m.rmse for m in flat),
        count=len(flat),
        corr_excluded=len(flat) - len(defined),
    )


def _aggregate_nights(seg_lists: list[list[SegmentMetrics]]) -> Aggregate:
    nights = [segs for segs in seg_lists if segs]
    night_corr = []
    for segs in nights:
        defined = [m.corr for m in segs if m.corr_defined]
        if defined:
            night_corr.append(_mean(defined))
    return Aggregate(
        corr=_mean(night_corr),
        mae=_mean(_mean(m.mae for m in segs) for segs in nights),
        rmse=_mean(_mean(m.rmse for m in segs) for segs in nights),
        count=len(nights),
        corr_excluded=len(nights) - len(night_corr),
    )


def evaluate(
    params,
    config,
    records,
    gate_map=None,
    *,
    seg_len: int = SEGMENT_LEN_S,
    config_hash: str | None = None,
    checkpoint_id: str | None = None,
    group_var: str | None = None,
) -> EvalReport:
    """Score a model on test records, aggregated per dataset and overall.

    Per-segment metrics are averaged unweighted across all nights of a
    dataset (and across everything for the "overall" row); the by_night
    table averages each night's segment means instead. Exact summation
    makes both tables invariant to record ordering. Each record is forwarded
    once; the report keeps every night's prediction for dump_predictions.
    """
    records = list(records)
    if not records:
        raise EvalError("no records to evaluate")
    if group_var is not None:
        for record in records:
            _group_key(record, group_var)
    nights = []
    by_dataset: dict[str, list[list[SegmentMetrics]]] = {}
    for record in records:
        y_hat, pred = predict_record(params, config, record, gate_map)
        nights.append((record, y_hat, pred.gate_series))
        segs = [metrics(h, t) for h, t in segment(y_hat, record.spo2, seg_len)]
        by_dataset.setdefault(record.dataset_id, []).append(segs)

    all_lists = [segs for lists in by_dataset.values() for segs in lists]
    total = sum(len(segs) for segs in all_lists)
    if total == 0:
        raise EvalError(f"no complete {seg_len} s segments in {len(records)} records")

    by_segment = {ds: _aggregate_segments(lists) for ds, lists in sorted(by_dataset.items())}
    by_night = {ds: _aggregate_nights(lists) for ds, lists in sorted(by_dataset.items())}
    by_segment["overall"] = _aggregate_segments(all_lists)
    by_night["overall"] = _aggregate_nights(all_lists)

    group_stats = None
    if group_var is not None:
        group_stats = group_distribution(records, [y_hat for _, y_hat, _ in nights], group_var)

    return EvalReport(
        by_segment=by_segment,
        by_night=by_night,
        segment_count=total,
        excluded_count=by_segment["overall"].corr_excluded,
        config_hash=config_hash,
        checkpoint_id=checkpoint_id,
        group_stats=group_stats,
        nights=nights,
    )


# ---------------------------------------------------------------- grouping


def _series_stats(values: np.ndarray) -> dict:
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "min": float(values.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


def _group_key(record, group_var: str):
    if group_var in ("gender", "dataset_id", "subject_id"):
        return getattr(record, group_var)
    if group_var in record.vars:
        return record.vars[group_var]
    raise GroupVarError(f"record {record.subject_id} has no variable {group_var!r}")


def group_distribution(records, predictions, group_var: str) -> dict:
    """Quartile statistics of truth and prediction pooled per group value."""
    records = list(records)
    predictions = list(predictions)
    if len(records) != len(predictions):
        raise EvalError(f"{len(records)} records but {len(predictions)} prediction series")
    truth: dict = {}
    pred: dict = {}
    for record, y_hat in zip(records, predictions):
        key = str(_group_key(record, group_var))
        truth.setdefault(key, []).append(np.asarray(record.spo2, dtype=np.float64))
        pred.setdefault(key, []).append(np.asarray(y_hat, dtype=np.float64))
    return {
        key: {
            "truth": _series_stats(np.concatenate(truth[key])),
            "pred": _series_stats(np.concatenate(pred[key])),
        }
        for key in sorted(truth)
    }


# ---------------------------------------------------------------- dumps


def dump_predictions(record, y_hat, gate_series, path) -> int:
    """Write one night's prediction as TSV rows of {t, truth, raw, rounded, stage, gate}.

    y_hat is in percentage points, as predict_record returns it; a gate
    series of None (ungated variants) dumps gate status 0. Rounding is
    half-up to match integer oximeter readouts; it affects the dump only,
    never the metrics. Returns the number of data rows.
    """
    n = y_hat.shape[0]
    if gate_series is None:
        gate_series = np.zeros(n, dtype=np.int64)
    rounded = np.floor(y_hat + 0.5).astype(np.int64)
    columns = (record.spo2[:n], y_hat, rounded, record.stages[:n], gate_series[:n])
    rows = zip(range(n), *(column.tolist() for column in columns), strict=True)
    text = "".join(["%d\t%.8f\t%.8f\t%d\t%d\t%d\n" % row for row in rows])
    container.write_text(path, "t\ty_true\ty_hat_raw\ty_hat_rounded\tstage\tgate_status\n" + text)
    return n
