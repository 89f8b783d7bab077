"""Kernel-level checks: relu/normalize VJPs, Adam, schedule, RNG."""

import math
import tracemalloc

import numpy as np
import pytest

from protomatch import numerics
from protomatch.errors import NumericError, ShapeError, ValidationError
from protomatch.numerics import (
    AdamState,
    ParamTensor,
    RngStream,
    adam_step,
    finite_diff_check,
    l2_normalize_rows,
    l2_normalize_rows_vjp,
    l2_normalize_rows_with_norms,
    lr_at,
    relu,
    relu_vjp,
)

from conftest import adam_oracle, per_row


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

        def loss(values):
            return float((relu(values["x"]) * probe).sum())

        grads = {"x": relu_vjp(x0, probe)}
        assert finite_diff_check(per_row(loss), {"x": x0}, grads) < 1e-7


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


def normalize_vjp(x, g, **kwargs):
    """l2_normalize_rows_vjp at x, with the squared norms the forward computes."""
    return l2_normalize_rows_vjp(x, numerics.l2_normalize_rows_with_norms(x)[1], g, **kwargs)


def test_normalize_vjp_matches_finite_differences():
    for seed in range(20):
        rng = RngStream(seed)
        x0 = rng.normal((5, 4))
        probe = rng.normal((5, 4))

        def loss(values):
            return float((l2_normalize_rows(values["x"]) * probe).sum())

        grads = {"x": normalize_vjp(x0, probe)}
        assert finite_diff_check(per_row(loss), {"x": x0}, grads) < 1e-6


def test_normalize_vjp_zero_row_gets_zero_gradient():
    # a row with 0 < norm <= NORM_GUARD is as dead as an all-zero one; the
    # third row's norm is the guard itself
    x = np.array([[0.0, 0.0], [3e-13, 4e-13], [numerics.NORM_GUARD, 0.0], [3.0, 4.0]])
    assert np.linalg.norm(x[2]) == numerics.NORM_GUARD
    grad = normalize_vjp(x, np.ones_like(x))
    np.testing.assert_array_equal(grad[:3], 0.0)
    assert np.all(grad[3] != 0.0)


def test_normalize_huge_rows_scale_without_overflow():
    # norm**3 overflows from ~6e102 on, though every result here is finite;
    # the suite turns a RuntimeWarning into an error
    rng = RngStream(11)
    x, g = rng.normal((6, 5)), rng.normal((6, 5))
    for scale in (1e120, 1e150):
        np.testing.assert_allclose(l2_normalize_rows(x * scale), l2_normalize_rows(x), rtol=1e-12)
        np.testing.assert_allclose(
            normalize_vjp(x * scale, g) * scale,
            normalize_vjp(x, g),
            rtol=1e-9,
            atol=1e-12,
        )


def _shifted(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of a that starts offset float64s into a fresh buffer."""
    view = np.empty(a.size + 8)[offset : offset + a.size].reshape(a.shape)
    view[...] = a
    return view


@pytest.mark.parametrize("shape", [(7, 17), (5, 3, 33), (64, 4, 256)])
def test_normalize_bits_do_not_depend_on_alignment(shape):
    # a workspace view starts wherever its block puts it, and a step must
    # give the same bits with or without one, whose backward writes over
    # the gradient it reads; the offsets cover every 8-byte position in a
    # 64-byte line
    rng = RngStream(12)
    x, g = rng.normal(shape), rng.normal(shape)
    forward, backward = l2_normalize_rows(x).tobytes(), normalize_vjp(x, g).tobytes()
    for offset in range(8):
        xs, gs = _shifted(x, offset), _shifted(g, offset)
        out, scratch = _shifted(np.zeros(shape), offset), _shifted(np.zeros(shape), 7 - offset)
        assert l2_normalize_rows(xs).tobytes() == forward, offset
        assert l2_normalize_rows_with_norms(xs, out)[0].tobytes() == forward, offset
        assert normalize_vjp(xs, gs).tobytes() == backward, offset
        got = normalize_vjp(xs, gs, out=out, scratch=scratch)
        assert got.tobytes() == backward, offset
        got = normalize_vjp(xs, gs, out=gs, scratch=scratch)
        assert np.shares_memory(got, gs) and gs.tobytes() == backward, offset


def test_normalize_vjp_in_place_allocates_only_per_row_factors():
    rng = RngStream(13)
    x, g = rng.normal((64, 4, 256)), rng.normal((64, 4, 256))
    sq_norms, scratch = l2_normalize_rows_with_norms(x)[1], np.empty_like(x)
    want = normalize_vjp(x, g).tobytes()
    tracemalloc.start()
    try:
        l2_normalize_rows_vjp(x, sq_norms, g, out=g, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 16  # a few (64, 4) arrays, no temporary of x's 512 KiB
    assert g.tobytes() == want


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_adam_first_step_magnitude_is_lr():
    # bias-corrected moments cancel on step 1: update = lr * g/|g| (eps aside)
    value, grad = np.array([0.0]), np.array([1.0])
    state = AdamState(np.zeros(1), np.zeros(1))
    adam_step(value, grad, state, lr=0.1)
    assert state.step == 1
    assert abs(value[0] + 0.1) < 1e-8


def test_adam_zero_gradient_leaves_parameter_unchanged():
    value = np.array([1.5, -2.5])
    state = AdamState.init({"w": ParamTensor(value)})
    adam_step(value, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(value, [1.5, -2.5])


def test_adam_descends_quadratic_monotonically():
    value, grad = np.array([1.0]), np.zeros(1)
    state = AdamState(np.zeros(1), np.zeros(1))
    trace = [abs(value[0])]
    for _ in range(10):
        grad[:] = 2.0 * value  # d/dw of w^2
        adam_step(value, grad, state, lr=0.05)
        trace.append(abs(value[0]))
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_adam_state_sizes_its_moments_to_the_tensors():
    state = AdamState.init({"a": ParamTensor(np.ones((2, 3))), "b": ParamTensor(np.ones(0))})
    assert state.first.shape == state.second.shape == (6,) and state.step == 0
    assert not state.first.any() and not state.second.any()


def test_adam_step_allocates_nothing_and_matches_the_oracle_bitwise():
    rng = RngStream(12)
    value, grad = rng.normal(5000), np.empty(5000)
    want = {"w": value.copy()}
    first, second = {"w": np.zeros(5000)}, {"w": np.zeros(5000)}
    state = AdamState(np.zeros(5000), np.zeros(5000))
    for step in range(1, 7):
        grad[:] = rng.normal(5000)
        adam_oracle(want, {"w": grad}, first, second, step, 1e-2)
        tracemalloc.start()
        try:
            adam_step(value, grad, state, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000  # no temporary of the vector's 40 kB
        assert value.tobytes() == want["w"].tobytes()
        assert state.first.tobytes() == first["w"].tobytes()
        assert state.second.tobytes() == second["w"].tobytes()


# ---------------------------------------------------------------------------
# lr_at
# ---------------------------------------------------------------------------


# warmup_epochs, peak_lr and epochs of TrainConfig's defaults
SCHEDULE = (5, 3e-5, 50)


def test_schedule_anchor_values_exact():
    assert lr_at(0.0, *SCHEDULE) == 0.0
    assert lr_at(5.0, *SCHEDULE) == 3e-5
    assert lr_at(27.5, *SCHEDULE) == 1.5e-5  # cosine midpoint of the decay phase
    assert lr_at(50.0, *SCHEDULE) == pytest.approx(0.0, abs=1e-20)


def test_schedule_is_continuous_on_a_grid():
    grid = np.linspace(0.0, 50.0, 5001)
    values = np.array([lr_at(float(e), *SCHEDULE) for e in grid])
    assert np.all(values >= 0.0)
    # 5000 sub-steps: adjacent values may differ by at most max|lr'| * h
    assert np.abs(np.diff(values)).max() < 3e-5 * math.pi * (50.0 / 5000) / 2 + 3e-5 / 5


def test_schedule_with_warmup_to_the_end_holds_peak_lr():
    # no decay phase: the warmup ends at the last epoch, at peak_lr
    assert lr_at(2.5, 10, 3e-5, 10) == 3e-5 * 2.5 / 10
    assert lr_at(10.0, 10, 3e-5, 10) == 3e-5


def test_schedule_out_of_range_epoch_rejected():
    with pytest.raises(ValidationError):
        lr_at(-0.1, *SCHEDULE)
    with pytest.raises(ValidationError):
        lr_at(50.1, *SCHEDULE)


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rng_refuses_seeds_beyond_64_unsigned_bits(seed):
    with pytest.raises(ValidationError) as exc:
        RngStream(seed)
    assert str(exc.value) == f"seed must be a 64-bit unsigned integer, got {seed}"


@pytest.mark.parametrize("n", [1, 2, 17, 1024, 100_003])
def test_rng_permutation_is_the_generators_in_int32(n):
    # the batch sampler and the ambiguity pair sampler draw through it
    rng = RngStream(7, stream=3)
    want = np.random.Generator(np.random.Philox(key=7 + (3 << 64)))
    got = rng.permutation(n)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want.permutation(n))
    np.testing.assert_equal(rng.state, want.bit_generator.state)


# ---------------------------------------------------------------------------
# finite_diff_check
# ---------------------------------------------------------------------------


def _square_sum(values):
    """sum(w^2) over the trailing axes, so it takes probe stacks."""
    return (values["w"] ** 2).sum(axis=-1)


def test_finite_diff_quadratic_matches_analytic():
    w = np.array([3.0])
    assert finite_diff_check(_square_sum, {"w": w}, {"w": 2.0 * w}) < 1e-9


def test_finite_diff_constant_function_zero_both_ways():
    def loss(values):
        return np.ones(len(values["w"]))

    w = np.array([0.3, -0.7])
    assert finite_diff_check(loss, {"w": w}, {"w": np.zeros_like(w)}) == 0.0


def test_finite_diff_flags_a_wrong_gradient():
    w = np.array([2.0])
    assert finite_diff_check(_square_sum, {"w": w}, {"w": 3.0 * w}) > 1e-2  # off by 1.5x


def test_finite_diff_rejects_non_finite_loss():
    def loss(values):
        return np.full(len(values["w"]), np.nan)

    with pytest.raises(NumericError):
        finite_diff_check(loss, {"w": np.array([1.0])}, {"w": np.zeros(1)})


def test_finite_diff_refuses_a_gradient_of_another_shape():
    with pytest.raises(ShapeError) as exc:
        finite_diff_check(_square_sum, {"w": np.ones(3)}, {"w": np.ones(2)})
    assert str(exc.value) == "gradient for 'w' has shape (2,), expected (3,)"


def _cubic_loss(values):
    """sum(w^3) + sum(w) * sum(b) over the trailing axes, so it takes probe stacks."""
    w, b = values["w"], values["b"]
    return (w**3).sum(axis=(-2, -1)) + w.sum(axis=(-2, -1)) * b.sum(axis=-1)


def test_finite_diff_probes_use_the_loss_callable(monkeypatch):
    calls = {"loss_fn": 0}
    w0, b0 = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]]), np.array([0.3, -0.2, 0.1, 0.4])
    grads = {"w": 3.0 * w0**2 + b0.sum(), "b": np.full_like(b0, w0.sum())}

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
    err = finite_diff_check(loss_fn, values, grads)
    # the unperturbed point, then 12 probes of w and 8 of b: one chunk each
    assert calls == {"loss_fn": 3}
    np.testing.assert_array_equal(values["w"], w0)  # never written
    np.testing.assert_array_equal(values["b"], b0)
    # chunks of 5 probes: 3 for w, 2 for b, and the same error, bit for bit
    monkeypatch.setattr(numerics, "PROBE_CHUNK", 5)
    assert finite_diff_check(loss_fn, values, grads) == err
    assert calls == {"loss_fn": 9}
    # the same probes one point at a time give the same error, bit for bit
    points = []

    def cubic_of_one_point(point):
        points.append(point)
        return float(_cubic_loss(point))

    assert err == finite_diff_check(per_row(cubic_of_one_point), {"w": w0, "b": b0}, grads)
    assert len(points) == 1 + 2 * (w0.size + b0.size)


@pytest.mark.parametrize("through", ["loss_fn", "fn"])
def test_finite_diff_leaves_inputs_unchanged_when_a_probe_raises(through):
    # "fn": a loss of one point, called per probe row, that raises after
    # the unperturbed point
    w0 = np.array([[1.5, -0.5], [0.25, 2.0]])
    first = {}

    def loss(values):
        if first:
            raise NumericError("probe failed")
        first["done"] = True
        return _square_sum(values).sum(axis=-1)

    values = {"w": w0.copy()}
    with pytest.raises(NumericError, match="probe failed"):
        finite_diff_check(per_row(loss) if through == "fn" else loss, values, {"w": 2.0 * w0})
    assert values["w"].tobytes() == w0.tobytes()


@pytest.mark.parametrize("batched", [True, False])
def test_finite_diff_names_the_first_non_finite_probe(batched):
    # only moving w[1, 0] up crosses the wall at 2; the message is one line
    # and the coordinate prints as plain ints
    def loss(values):
        w = values["w"]
        return np.where(w > 2.0, np.inf, w * w).sum(axis=(-2, -1))

    w0 = np.array([[0.5, 1.0], [2.0 - 0.5e-5, 0.3]])
    with pytest.raises(NumericError) as info:
        finite_diff_check(loss if batched else per_row(loss), {"w": w0}, {"w": 2.0 * w0})
    assert str(info.value) == "non-finite loss while perturbing 'w' coordinate (1, 0)"


def test_finite_diff_does_not_hide_a_nan_gradient():
    w = np.array([1.0, 2.0, 3.0])
    grads = {"w": np.array([2.0 * w[0], np.nan, 2.0 * w[2]])}
    assert math.isnan(finite_diff_check(_square_sum, {"w": w}, grads))
