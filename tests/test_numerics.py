"""Kernel-level checks: relu/normalize VJPs, Adam, schedule, RNG."""

import math

import numpy as np
import pytest

from protomatch.errors import NumericError, ValidationError
from protomatch.numerics import (
    AdamState,
    LrSchedule,
    ParamTensor,
    RngStream,
    adam_step,
    finite_diff_check,
    l2_normalize_rows,
    l2_normalize_rows_vjp,
    lr_at,
    relu,
    relu_vjp,
)


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------


def test_relu_sign_cases():
    np.testing.assert_array_equal(relu(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])


def test_relu_all_negative_is_zero():
    assert not relu(-np.abs(RngStream(0).normal((4, 5))) - 0.1).any()


def test_relu_gradient_zero_at_exactly_zero():
    grad = relu_vjp(np.array([0.0, -1.0, 1.0]), np.ones(3))
    np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0])


def test_relu_vjp_matches_finite_differences_away_from_kink():
    for seed in range(20):
        rng = RngStream(seed)
        x0 = rng.normal((4, 5))
        while np.abs(x0).min() < 1e-3:  # resample draws sitting on the kink
            x0 = rng.normal((4, 5))
        probe = rng.normal((4, 5))

        def fn(values):
            return (
                float((relu(values["x"]) * probe).sum()),
                {"x": relu_vjp(values["x"], probe)},
            )

        assert finite_diff_check(fn, {"x": x0}) < 1e-7


# ---------------------------------------------------------------------------
# l2_normalize_rows
# ---------------------------------------------------------------------------


def test_normalize_three_four_five_row():
    np.testing.assert_allclose(
        l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]], rtol=0, atol=1e-11
    )


def test_normalize_zero_row_stays_zero():
    out = l2_normalize_rows(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(out[0], 0.0)
    np.testing.assert_allclose(out[1], [1.0, 0.0, 0.0], atol=1e-11)


def test_normalize_output_norms_near_one():
    for seed in range(20):
        rows = RngStream(seed).normal((10, 6))
        keep = np.linalg.norm(rows, axis=1) >= 1e-6
        norms = np.linalg.norm(l2_normalize_rows(rows)[keep], axis=1)
        assert np.all(norms <= 1.0) and np.all(norms >= 1.0 - 1e-9)


def test_normalize_vjp_matches_finite_differences():
    for seed in range(20):
        rng = RngStream(seed)
        x0 = rng.normal((5, 4))
        probe = rng.normal((5, 4))

        def fn(values):
            return (
                float((l2_normalize_rows(values["x"]) * probe).sum()),
                {"x": l2_normalize_rows_vjp(values["x"], probe)},
            )

        assert finite_diff_check(fn, {"x": x0}) < 1e-6


def test_normalize_vjp_zero_row_gets_zero_gradient():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    grad = l2_normalize_rows_vjp(x, np.ones_like(x))
    np.testing.assert_array_equal(grad[0], 0.0)


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude_is_lr():
    # bias-corrected moments cancel on step 1: update = lr * g/|g| (eps aside)
    p = ParamTensor(np.array([0.0]))
    p.grad[:] = 1.0
    state = AdamState.init({"w": p})
    adam_step({"w": p}, state, lr=0.1)
    assert state.step == 1
    assert abs(p.value[0] + 0.1) < 1e-8


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = ParamTensor(np.array([1.5, -2.5]))
    state = AdamState.init({"w": p})
    adam_step({"w": p}, state, lr=0.1)
    np.testing.assert_array_equal(p.value, [1.5, -2.5])


def test_adam_descends_quadratic_monotonically():
    p = ParamTensor(np.array([1.0]))
    state = AdamState.init({"w": p})
    trace = [abs(p.value[0])]
    for _ in range(10):
        p.grad[:] = 2.0 * p.value  # d/dw of w^2
        adam_step({"w": p}, state, lr=0.05)
        trace.append(abs(p.value[0]))
    assert all(b < a for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# LrSchedule / lr_at
# ---------------------------------------------------------------------------


def default_schedule() -> LrSchedule:
    return LrSchedule(warmup_epochs=5, peak_lr=3e-5, total_epochs=50)


def test_schedule_anchor_values_exact():
    sched = default_schedule()
    assert lr_at(0.0, sched) == 0.0
    assert lr_at(5.0, sched) == 3e-5
    assert lr_at(27.5, sched) == 1.5e-5  # cosine midpoint of the decay phase
    assert lr_at(50.0, sched) == pytest.approx(0.0, abs=1e-20)


def test_schedule_is_continuous_on_a_grid():
    sched = default_schedule()
    grid = np.linspace(0.0, 50.0, 5001)
    values = np.array([lr_at(float(e), sched) for e in grid])
    assert np.all(values >= 0.0)
    # 5000 sub-steps: adjacent values may differ by at most max|lr'| * h
    assert np.abs(np.diff(values)).max() < 3e-5 * math.pi * (50.0 / 5000) / 2 + 3e-5 / 5


def test_schedule_out_of_range_epoch_rejected():
    sched = default_schedule()
    with pytest.raises(ValidationError):
        lr_at(-0.1, sched)
    with pytest.raises(ValidationError):
        lr_at(50.1, sched)


def test_schedule_invalid_configs_rejected():
    with pytest.raises(ValidationError):
        LrSchedule(warmup_epochs=6, peak_lr=1e-3, total_epochs=5)
    with pytest.raises(ValidationError):
        LrSchedule(warmup_epochs=-1, peak_lr=1e-3, total_epochs=5)
    with pytest.raises(ValidationError):
        LrSchedule(warmup_epochs=1, peak_lr=-1e-3, total_epochs=5)


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


def test_rng_same_seed_bit_identical():
    a = RngStream(123, stream=4).normal((6, 6))
    b = RngStream(123, stream=4).normal((6, 6))
    np.testing.assert_array_equal(a, b)


def test_rng_streams_are_independent():
    assert not np.array_equal(RngStream(1, stream=0).normal(8), RngStream(1, stream=1).normal(8))


def test_rng_state_roundtrip_resumes_sequence():
    rng = RngStream(9)
    rng.normal(5)
    saved = rng.state
    expected = rng.normal(7)
    rng2 = RngStream(0)
    rng2.set_state(saved)
    np.testing.assert_array_equal(rng2.normal(7), expected)


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic_matches_analytic():
    def fn(values):
        w = values["w"]
        return float((w * w).sum()), {"w": 2.0 * w}

    assert finite_diff_check(fn, {"w": np.array([3.0])}) < 1e-9


def test_finite_diff_constant_function_zero_both_ways():
    def fn(values):
        return 1.0, {"w": np.zeros_like(values["w"])}

    assert finite_diff_check(fn, {"w": np.array([0.3, -0.7])}) == 0.0


def test_finite_diff_flags_a_wrong_gradient():
    def fn(values):
        w = values["w"]
        return float((w * w).sum()), {"w": 3.0 * w}  # deliberately off by 1.5x

    assert finite_diff_check(fn, {"w": np.array([2.0])}) > 1e-2


def test_finite_diff_rejects_non_finite_loss():
    def fn(values):
        return float("nan"), {"w": np.zeros_like(values["w"])}

    with pytest.raises(NumericError):
        finite_diff_check(fn, {"w": np.array([1.0])})
