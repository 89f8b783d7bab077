"""Kernel-level checks: relu/normalize VJPs, Adam, schedule, RNG."""

import math

import numpy as np
import pytest

from protomatch import numerics
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


def _cubic_loss(values):
    """sum(w^3) + sum(w) * sum(b) over the trailing axes, so it takes probe stacks."""
    w, b = values["w"], values["b"]
    return (w**3).sum(axis=(-2, -1)) + w.sum(axis=(-2, -1)) * b.sum(axis=-1)


def test_finite_diff_probes_use_the_loss_callable(monkeypatch):
    calls = {"fn": 0, "loss_fn": 0}
    w0, b0 = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]]), np.array([0.3, -0.2, 0.1, 0.4])

    def fn(values):
        calls["fn"] += 1
        w, b = values["w"], values["b"]
        return _cubic_loss(values), {"w": 3.0 * w**2 + b.sum(), "b": np.full_like(b, w.sum())}

    def loss_fn(values):
        calls["loss_fn"] += 1
        # one leading probe axis everywhere: the perturbed tensor's holds the
        # chunk, every other array's has length 1
        lengths = [v.shape[0] for v in values.values()]
        assert values["w"].shape[1:] == w0.shape and values["b"].shape[1:] == b0.shape
        assert sum(n > 1 for n in lengths) <= 1 and min(lengths) == 1
        losses = _cubic_loss(values)
        assert losses.shape == (max(lengths),)
        return losses

    values = {"w": w0.copy(), "b": b0.copy()}
    err = finite_diff_check(fn, values, loss_fn=loss_fn)
    # 12 probes of w and 8 of b: one chunk each
    assert calls == {"fn": 1, "loss_fn": 2}
    np.testing.assert_array_equal(values["w"], w0)  # never written
    np.testing.assert_array_equal(values["b"], b0)
    # chunks of 5 probes: 3 for w, 2 for b, and the same error, bit for bit
    monkeypatch.setattr(numerics, "PROBE_CHUNK", 5)
    assert finite_diff_check(fn, values, loss_fn=loss_fn) == err
    assert calls == {"fn": 2, "loss_fn": 7}
    # the same probes through fn give the same error, bit for bit
    assert err == finite_diff_check(fn, {"w": w0.copy(), "b": b0.copy()})
    assert calls["fn"] == 3 + 2 * (w0.size + b0.size)


@pytest.mark.parametrize("through", ["loss_fn", "fn"])
def test_finite_diff_leaves_inputs_unchanged_when_a_probe_raises(through):
    w0 = np.array([[1.5, -0.5], [0.25, 2.0]])
    first = {}

    def fn(values):
        w = values["w"]
        if first and through == "fn":
            raise NumericError("probe failed")
        first["done"] = True
        return float((w * w).sum()), {"w": 2.0 * w}

    def loss_fn(values):
        raise NumericError("probe failed")

    values = {"w": w0.copy()}
    with pytest.raises(NumericError, match="probe failed"):
        finite_diff_check(fn, values, loss_fn=loss_fn if through == "loss_fn" else None)
    assert values["w"].tobytes() == w0.tobytes()


@pytest.mark.parametrize("batched", [True, False])
def test_finite_diff_names_the_first_non_finite_probe(batched):
    # only moving w[1, 0] up crosses the wall at 2; the message is one line
    # and the coordinate prints as plain ints
    def loss(values):
        w = values["w"]
        return np.where(w > 2.0, np.inf, w * w).sum(axis=(-2, -1))

    def fn(values):
        return float(loss(values)), {"w": 2.0 * values["w"]}

    w0 = np.array([[0.5, 1.0], [2.0 - 0.5e-5, 0.3]])
    with pytest.raises(NumericError) as info:
        finite_diff_check(fn, {"w": w0}, loss_fn=loss if batched else None)
    assert str(info.value) == "non-finite loss while perturbing 'w' coordinate (1, 0)"


def test_finite_diff_does_not_hide_a_nan_gradient():
    def fn(values):
        w = values["w"]
        return float((w * w).sum()), {"w": np.array([2.0 * w[0], np.nan, 2.0 * w[2]])}

    assert math.isnan(finite_diff_check(fn, {"w": np.array([1.0, 2.0, 3.0])}))
