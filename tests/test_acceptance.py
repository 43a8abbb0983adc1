"""End-to-end acceptance checks for the shipped engine.

One test per criterion, each printing a single pass line with the measured
quantity. The suite covers: published-number disclosure, the finite-difference
gradient suite, the temporal shape contract, gating exactness, metric
fidelity against a scalar oracle, the single-record overfit oracle, gate-map
recovery from generated structure, the gating-benefit ordering on
group-dependent data, determinism and container persistence, and a
full-scale build with one forward pass.

The long tests (overfit, benefit ordering) print wall time so budget
regressions are visible in the log.
"""

import math
import time

import numpy as np
import pytest

from respox.checkpoint import load_checkpoint, save_checkpoint
from respox.config import (
    FULL_PARAM_COUNT_REFERENCE,
    GateConfig,
    ModelConfig,
    TrainConfig,
    tiny_model_config,
)
from respox.data import crop_to_multiple, filter_split, read_record, record_file_size, write_record
from respox.evaluate import PUBLISHED_FULL_SCALE_RESULTS, evaluate, metrics
from respox.gate import build_gate_map, identity_gate_map, state_gradient
from respox.gradcheck import run_all
from respox.model import as_input, build_model, combine_heads, encode, forward, param_count
from respox.synth import SynthProfile, gender_opposed_profile, stage_paired_profile, synth_generate
from respox.tensor import Tensor, no_grad
from respox.train import train, train_gated_pipeline


def _report(capsys, num: int, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] PASS  {detail}")


def test_criterion_01_published_numbers_are_context_not_targets(capsys):
    """The headline full-scale numbers ship as quoted context only.

    They were measured on access-controlled clinical and radio-frequency
    datasets with full-scale training, so nothing here can recompute them;
    no test in this repository compares against them.
    """
    assert set(PUBLISHED_FULL_SCALE_RESULTS) == {"medical_overall", "rf"}
    for block in PUBLISHED_FULL_SCALE_RESULTS.values():
        assert set(block) == {"corr", "mae", "rmse"}
        assert all(isinstance(v, float) and math.isfinite(v) for v in block.values())
    med = PUBLISHED_FULL_SCALE_RESULTS["medical_overall"]
    rf = PUBLISHED_FULL_SCALE_RESULTS["rf"]
    _report(
        capsys,
        1,
        "published full-scale results quoted for context, not reproducible at desk scale: "
        f"medical corr {med['corr']} / MAE {med['mae']} / RMSE {med['rmse']}; "
        f"rf corr {rf['corr']} / MAE {rf['mae']} / RMSE {rf['rmse']}",
    )


def test_criterion_02_gradient_suite_passes_within_budget(capsys):
    """Every kernel and the composed model match central finite differences."""
    results, elapsed = run_all(seed=0)
    assert results
    failures = [r for r in results if not r.passed]
    assert not failures, f"{len(failures)} gradient checks failed: {failures[:5]}"
    for r in results:
        assert r.dtype in ("float32", "float64")
        bound = 1e-3 if r.dtype == "float32" else 1e-5
        assert r.error < bound, f"{r.name} [{r.dtype}] error {r.error:.3e} >= {bound}"
    assert elapsed < 300.0, f"gradient suite took {elapsed:.1f}s, budget is 300s"
    by_dtype = {d: sum(1 for r in results if r.dtype == d) for d in ("float32", "float64")}
    _report(
        capsys,
        2,
        f"{len(results)} finite-difference checks green "
        f"(float32 {by_dtype['float32']} within 1e-3, float64 {by_dtype['float64']} within 1e-5) "
        f"in {elapsed:.1f}s < 300s",
    )


def test_criterion_03_bottleneck_and_output_lengths(capsys):
    """10 Hz input of T seconds: bottleneck 10T/240 positions, output length T."""
    cfg = tiny_model_config("tiny")
    params = build_model(cfg, seed=0)
    checked = []
    for t_seconds in (24, 48, 240, 2400):
        x = as_input(np.zeros(cfg.fb * t_seconds), params)
        with no_grad():
            features, _ = encode(params, cfg, x, mode="eval")
            pred = forward(params, cfg, x, mode="eval")
        assert features.shape[1] == 10 * t_seconds // 240
        assert pred.y_hat.data.shape == (cfg.fo * t_seconds,)
        checked.append(f"T={t_seconds}s -> {features.shape[1]}/{pred.y_hat.data.shape[0]}")
    _report(capsys, 3, "bottleneck/output lengths exact: " + ", ".join(checked))


def test_criterion_04_head_combination_matches_brute_force(capsys):
    """One-hot mask combination equals direct per-timestep indexing, bitwise."""
    rng = np.random.default_rng(0)
    for i in range(1000):
        n = int(rng.integers(1, 7))
        t = int(rng.integers(1, 65))
        dtype = np.float32 if i % 2 == 0 else np.float64
        per_head = rng.normal(size=(n, t)).astype(dtype)
        status = rng.integers(1, n + 1, size=t)
        combined = combine_heads(Tensor(per_head, dtype=dtype), status)
        brute = per_head[status - 1, np.arange(t)]
        assert combined.data.dtype == brute.dtype
        assert combined.data.tobytes() == brute.tobytes()
    _report(capsys, 4, "combine_heads bitwise equal to brute-force selection on 1000 instances")


def _scalar_metrics(y_hat, y):
    """Independent re-implementation: plain loops and math.fsum, no numpy."""
    n = len(y)
    diffs = [float(a) - float(b) for a, b in zip(y_hat, y)]
    mae = math.fsum(abs(d) for d in diffs) / n
    rmse = math.sqrt(math.fsum(d * d for d in diffs) / n)
    ma = math.fsum(float(v) for v in y_hat) / n
    mb = math.fsum(float(v) for v in y) / n
    da = [float(v) - ma for v in y_hat]
    db = [float(v) - mb for v in y]
    cov = math.fsum(a * b for a, b in zip(da, db))
    va = math.fsum(a * a for a in da)
    vb = math.fsum(b * b for b in db)
    corr = cov / math.sqrt(va * vb)
    return corr, mae, rmse


def test_criterion_05_metrics_match_scalar_oracle(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(2, 301))
        y = 94.0 + rng.normal(scale=2.0, size=length)
        y_hat = y + rng.normal(scale=1.5, size=length)
        got = metrics(y_hat, y)
        corr, mae, rmse = _scalar_metrics(y_hat, y)
        assert got.corr_defined
        for a, b in ((got.corr, corr), (got.mae, mae), (got.rmse, rmse)):
            assert abs(a - b) < 1e-9
            worst = max(worst, abs(a - b))

    hand = metrics(np.array([90.0, 92.0, 94.0, 96.0]), np.array([91.0, 91.0, 95.0, 95.0]))
    assert abs(hand.corr - 16.0 / math.sqrt(320.0)) < 1e-12
    assert abs(hand.corr - 0.8944) < 1e-4
    assert hand.mae == 1.0
    assert hand.rmse == 1.0
    _report(
        capsys,
        5,
        f"100 random segments within 1e-9 of scalar oracle (worst {worst:.2e}); "
        f"hand example corr {hand.corr:.4f} / MAE {hand.mae} / RMSE {hand.rmse}",
    )


def test_criterion_06_single_record_overfit(capsys):
    """500 Adam steps at lr 2e-4, batch 1, drive the normalized L1 under 0.05.

    The correlation weight is zeroed so the asserted quantity is exactly the
    logged L1 term rather than a blend.
    """
    profile = SynthProfile(seed=0, nights=1, duration_s=600)
    records = [crop_to_multiple(r) for r in synth_generate(profile)]
    assert len(records) == 1
    cfg = tiny_model_config("tiny")
    tc = TrainConfig(epochs=500, seed=0, corr_weight=0.0)
    assert tc.lr == 2e-4
    start = time.time()
    _, _, log = train(cfg, records, tc)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s, budget is 600s"
    last = log.entries[-1]
    assert last["epoch"] == 499
    assert last["l1"] < 0.05, f"train-mode L1 after 500 steps is {last['l1']:.4f}"
    _report(capsys, 6, f"L1 after 500 steps {last['l1']:.4f} < 0.05 in {elapsed:.1f}s")


def test_criterion_07_gate_map_recovers_generating_partition(capsys):
    """Four (gender, stage) states built from two mappings, paired by stage.

    Two pretraining epochs give the clustering a trained Jacobian to read;
    the generating partition must come back in at least 9 of 10 seeds.
    """
    states = [(0, 0), (0, 1), (1, 0), (1, 1)]
    hits = 0
    for seed in range(10):
        profile = stage_paired_profile(seed=seed, nights=8, duration_s=360)
        records = [crop_to_multiple(r) for r in synth_generate(profile)]
        cfg = tiny_model_config("micro")
        params, _, _ = train(cfg, records, TrainConfig(epochs=2, seed=seed, lr=1e-3))
        grads = [state_gradient(params, cfg, records, s) for s in states]
        table = build_gate_map(grads, 2).table
        if table[(0, 0)] == table[(1, 0)] and table[(0, 1)] == table[(1, 1)] and table[(0, 0)] != table[(0, 1)]:
            hits += 1
    assert hits >= 9, f"partition recovered in only {hits}/10 seeds"
    _report(capsys, 7, f"generating partition recovered in {hits}/10 seeds")


@pytest.mark.slow
def test_criterion_08_gating_beats_backbone_and_varaug(capsys):
    """Mean test MAE over 5 seeds: gated < backbone and gated <= varaug.

    Group-dependent data: the breathing-to-saturation mapping flips sign with
    gender, so one shared head must average the two regimes while a
    gender-keyed gate can serve each with its own head. The stage
    classification task carries no signal on this data, so the auxiliary
    weight is zero for every variant.
    """
    gate_cfg = GateConfig(
        n_heads=2,
        mode="manual",
        manual_table={f"v={v},u={u}": v + 1 for v in range(2) for u in range(3)},
    )
    maes = {"backbone": [], "varaug": [], "gated": []}
    start = time.time()
    for seed in range(5):
        profile = gender_opposed_profile(seed=seed, nights=40, duration_s=240)
        records = [crop_to_multiple(r) for r in synth_generate(profile)]
        tr = filter_split(records, "train", ratio=0.7, seed=0)
        te = filter_split(records, "test", ratio=0.7, seed=0)
        tc = TrainConfig(epochs=120, seed=seed, lr=3e-3, aux_weight=0.0, pretrain_fraction=0.15)

        for variant in ("backbone", "varaug"):
            cfg = tiny_model_config("micro", variant=variant)
            params, _, _ = train(cfg, tr, tc)
            maes[variant].append(evaluate(params, cfg, te).by_segment["overall"].mae)

        g_cfg = tiny_model_config("micro", variant="gated", n_heads=2)
        params, gate_map, _ = train_gated_pipeline(g_cfg, tr, tc, gate_cfg)
        maes["gated"].append(evaluate(params, g_cfg, te, gate_map).by_segment["overall"].mae)
    elapsed = time.time() - start
    assert elapsed < 7200.0, f"benefit sweep took {elapsed:.0f}s, budget is 7200s"

    mean = {k: float(np.mean(v)) for k, v in maes.items()}
    assert mean["gated"] < mean["backbone"], f"gated {mean['gated']:.3f} !< backbone {mean['backbone']:.3f}"
    assert mean["gated"] <= mean["varaug"], f"gated {mean['gated']:.3f} !<= varaug {mean['varaug']:.3f}"
    _report(
        capsys,
        8,
        f"5-seed mean test MAE: gated {mean['gated']:.3f} < backbone {mean['backbone']:.3f}, "
        f"<= varaug {mean['varaug']:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_09_determinism_and_container_roundtrips(tmp_path, capsys):
    # record container: size formula, bit-exact roundtrip, on every fixture
    fixtures = []
    for profile in (
        SynthProfile(seed=1, nights=2, duration_s=240),
        gender_opposed_profile(seed=2, nights=2, duration_s=480),
    ):
        fixtures.extend(synth_generate(profile))
    assert len(fixtures) == 4
    for i, record in enumerate(fixtures):
        p1 = tmp_path / f"rec{i}a.rsp"
        p2 = tmp_path / f"rec{i}b.rsp"
        write_record(record, p1)
        raw = p1.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        assert len(raw) == record_file_size(header_len, record.fb, record.fo, record.duration_s)
        back = read_record(p1)
        assert back.breathing.tobytes() == record.breathing.astype("<f4").tobytes()
        assert back.spo2.tobytes() == record.spo2.astype("<f4").tobytes()
        assert np.array_equal(back.stages, record.stages)
        assert (back.subject_id, back.dataset_id, back.gender, back.vars) == (
            record.subject_id,
            record.dataset_id,
            record.gender,
            record.vars,
        )
        write_record(back, p2)
        assert p2.read_bytes() == raw

    # checkpoint container: identical run twice, then a save/load/save cycle
    train_records = [crop_to_multiple(r) for r in synth_generate(SynthProfile(seed=3, nights=3, duration_s=240))]
    cfg = tiny_model_config("micro")
    tc = TrainConfig(epochs=2, seed=3, lr=1e-3)
    meta = {"epoch": 2, "config_hash": "acceptance"}
    paths = []
    for run in range(2):
        params, _, _ = train(cfg, train_records, tc)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, params, cfg, meta=meta)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    reloaded = load_checkpoint(paths[0])
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, reloaded.params, reloaded.config, meta=reloaded.meta)
    assert resaved.read_bytes() == paths[0].read_bytes()
    _report(
        capsys,
        9,
        f"{len(fixtures)} record fixtures size-exact and bit-stable; "
        "repeated training and checkpoint recycling byte-identical",
    )


def test_criterion_10_full_scale_builds_and_runs(capsys):
    """Full configuration: hidden 256, 8 attention layers of 6 heads,
    intermediate 512, positions for a 2400 s night, 6 gate heads.

    The parameter count is reported beside the published figure; equality is
    not asserted because the published description leaves the convolution
    widths open.
    """
    cfg = ModelConfig(variant="gated", n_heads=6)
    assert (cfg.bert_hidden, cfg.bert_layers, cfg.bert_heads) == (256, 8, 6)
    assert (cfg.bert_intermediate, cfg.max_positions) == (512, 2400)
    start = time.time()
    params = build_model(cfg, seed=0)
    count = param_count(params)
    gate_map = identity_gate_map(cfg.v_states, cfg.u_classes)
    x = as_input(np.zeros(cfg.fb * 2400), params)
    with no_grad():
        pred = forward(params, cfg, x, v=0, gate_map=gate_map, mode="eval")
    elapsed = time.time() - start
    assert pred.y_hat.data.shape == (2400,)
    assert np.all(np.isfinite(pred.y_hat.data))
    assert pred.gate_series is not None and pred.gate_series.shape == (2400,)
    assert count > 0
    _report(
        capsys,
        10,
        f"full-scale build + 2400s forward in {elapsed:.1f}s; "
        f"parameter count {count:,} (published reference {FULL_PARAM_COUNT_REFERENCE:,}, not asserted)",
    )
