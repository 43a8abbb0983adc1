import numpy as np
import pytest

from respox import model as model_mod
from respox.config import tiny_model_config
from respox.gradcheck import (
    BLOCK_CASES,
    CheckResult,
    _kink_safe_draw,
    _rrelu_kink_margin,
    grad_check,
    relative_error,
    run_all,
    run_model_suite,
    run_suite,
)
from respox.tensor import Tensor, tanh


def test_relative_error_normalizes_by_magnitude():
    assert relative_error([1.0], [1.0]) == 0.0
    assert relative_error([100.0], [101.0]) == pytest.approx(1.0 / 101.0)
    # small magnitudes fall back to an absolute scale
    assert relative_error([0.001], [0.002]) == pytest.approx(0.001)
    assert relative_error([], []) == 0.0


def test_check_result_pass_logic():
    assert CheckResult("x", "float64", 1e-9, 1e-6).passed
    assert not CheckResult("x", "float64", 1e-3, 1e-6).passed
    assert not CheckResult("x", "float64", float("nan"), 1e-6).passed


def test_grad_check_accepts_correct_gradient():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)

    def fn(a, b):
        return tanh(a @ b)

    assert grad_check(fn, [a, b]) < 1e-7


def test_grad_check_catches_sabotaged_gradient():
    """A wrong derivative must produce a large error, or the suite proves nothing."""
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(5,)), requires_grad=True, dtype=np.float64)

    def wrong(a):
        return tanh(a) + a * 0.5  # analytic graph computes d/dx [tanh + x/2]

    def truth(a):
        return tanh(a)  # FD oracle sees plain tanh

    shadow = Tensor(a.data.copy(), requires_grad=True, dtype=np.float64)
    err = grad_check(wrong, [a], numeric_fn=truth, numeric_inputs=[shadow])
    assert err > 0.1


def test_run_suite_fast_slice_green():
    results = run_suite(seed=0, instances=2)
    assert results
    failures = [r for r in results if not r.passed]
    assert failures == []
    dtypes = {r.dtype for r in results}
    assert dtypes == {"float64", "float32"}


def test_run_suite_deterministic():
    a = run_suite(seed=0, instances=2)
    b = run_suite(seed=0, instances=2)
    assert [(r.name, r.dtype, r.error) for r in a] == [(r.name, r.dtype, r.error) for r in b]


def test_run_model_suite_green():
    results = run_model_suite(seed=0)
    assert results
    assert all(r.passed for r in results)


def test_run_all_returns_results_and_elapsed():
    results, elapsed = run_all(seed=0, instances=1)
    assert elapsed > 0.0
    assert all(r.passed for r in results)
    assert {r.dtype for r in results} == {"float64", "float32"}


def test_run_suite_checks_every_fused_block_case_in_both_precisions():
    results = [r for r in run_suite(seed=0, instances=1) if r.name.startswith("conv_bn_rrelu.")]
    assert len(results) == 2 * len(BLOCK_CASES)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert {"conv_bn_rrelu.conv.s1.train.x_const", "conv_bn_rrelu.deconv.s2.eval"} <= names
    assert {r.dtype for r in results} == {"float64", "float32"}


def test_kink_margin_observes_every_fused_block():
    """The margins the model suite sizes eps by: the values the three-kernel blocks gave."""
    cfg = tiny_model_config(scale="micro")
    x_np = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1, cfg.fb * 48))
    params = model_mod.build_model(cfg, seed=0, dtype=np.float64)
    assert _rrelu_kink_margin(cfg, params, x_np) == 9.036052006775082e-07
    best_seed, best_margin, _ = _kink_safe_draw(cfg, 0, 48)
    assert (best_seed, best_margin) == (25, 1.2033229271061334e-05)
