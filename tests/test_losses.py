"""Variance hinge, symmetric contrastive loss, total objective, and VJPs."""

import math

import numpy as np
import pytest

from protomatch.errors import NumericError, ShapeError, ValidationError
from protomatch.losses import (
    MIN_TEMPERATURE,
    LossBreakdown,
    LossConfig,
    contrastive_loss,
    contrastive_vjp,
    mask_std,
    total_loss,
    variance_loss,
    variance_vjp,
)
from protomatch.numerics import RngStream, finite_diff_check, relu

from conftest import per_row


def variance_value_and_grad(masks, cfg):
    fwd = variance_loss(masks, cfg)
    return fwd.value, variance_vjp(fwd)


def contrastive_value_and_grad(scores, temperature):
    fwd = contrastive_loss(scores, temperature)
    return fwd.value, contrastive_vjp(fwd)


# ---------------------------------------------------------------------------
# LossConfig
# ---------------------------------------------------------------------------


def test_default_constants():
    cfg = LossConfig()
    assert (cfg.std_target, cfg.variance_floor, cfg.variance_weight, cfg.temperature) == (
        0.75,
        1e-4,
        5.0,
        0.05,
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        LossConfig(std_target=0.0)
    with pytest.raises(ValidationError):
        LossConfig(variance_floor=0.0)
    with pytest.raises(ValidationError):
        LossConfig(variance_weight=-1.0)
    with pytest.raises(ValidationError):
        LossConfig(temperature=0.0)


def test_temperature_whose_unit_logit_overflows_rejected():
    with pytest.raises(ValidationError, match="logit of a unit score overflows"):
        LossConfig(temperature=MIN_TEMPERATURE)
    smallest = float(np.nextafter(MIN_TEMPERATURE, 1.0))
    LossConfig(temperature=smallest)
    assert math.isinf(1.0 / MIN_TEMPERATURE) and math.isfinite(1.0 / smallest)


# ---------------------------------------------------------------------------
# variance_loss
# ---------------------------------------------------------------------------


def test_constant_masks_hit_the_hinge_fully():
    # zero spread: std collapses to sqrt(floor) = 0.01, leaving 0.75 - 0.01
    masks = np.full((4, 6, 3), 0.75)
    loss, grad = variance_value_and_grad(masks, LossConfig())
    assert loss == pytest.approx(0.74, abs=1e-9)
    np.testing.assert_array_equal(grad, 0.0)  # centered values are all zero


def test_high_spread_masks_cost_nothing():
    rng = RngStream(0)
    masks = np.abs(rng.normal((5, 4, 3))) * 10.0  # per-token std far above target
    cfg = LossConfig(std_target=0.1)
    loss, grad = variance_value_and_grad(masks, cfg)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_scalar_loop_oracle_small_case():
    rng = RngStream(1)
    masks = np.abs(rng.normal((2, 3, 2)))  # batch 2, tokens 3, prototypes 2
    cfg = LossConfig()
    loss = variance_loss(masks, cfg).value
    acc = 0.0
    for j in range(3):
        pooled = [masks[l, j, k] for l in range(2) for k in range(2)]
        mean = sum(pooled) / 4.0
        var = sum((x - mean) ** 2 for x in pooled) / 4.0
        acc += max(0.0, cfg.std_target - math.sqrt(var + cfg.variance_floor))
    assert loss == pytest.approx(acc / 3.0, abs=1e-12)


def test_closed_form_gradient_where_hinge_active():
    rng = RngStream(2)
    masks = np.abs(rng.normal((3, 4, 2))) * 0.01  # tiny spread keeps hinge active
    cfg = LossConfig()
    loss, grad = variance_value_and_grad(masks, cfg)
    assert loss > 0.0
    pooled = masks.transpose(1, 0, 2).reshape(4, -1)  # token-major view
    mu = pooled.mean(axis=1, keepdims=True)
    var = ((pooled - mu) ** 2).mean(axis=1)
    std = np.sqrt(var + cfg.variance_floor)
    n = pooled.shape[1]
    expected = -(pooled - mu) / (4 * n * std[:, None])
    np.testing.assert_allclose(
        grad.transpose(1, 0, 2).reshape(4, -1), expected, rtol=0, atol=1e-15
    )


def test_variance_vjp_matches_finite_differences():
    cfg = LossConfig()
    checked = 0
    for seed in range(30):
        masks0 = np.abs(RngStream(seed).normal((3, 4, 2)))
        # skip draws near the hinge boundary where the loss is non-smooth
        pooled = masks0.transpose(1, 0, 2).reshape(4, -1)
        std = np.sqrt(pooled.var(axis=1) + cfg.variance_floor)
        if np.abs(cfg.std_target - std).min() < 1e-3:
            continue

        def loss(values):
            return variance_loss(values["m"], cfg).value

        grads = {"m": variance_vjp(variance_loss(masks0, cfg))}
        assert finite_diff_check(per_row(loss), {"m": masks0}, grads) < 1e-6
        checked += 1
        if checked == 20:
            break
    assert checked == 20


def parent_mask_std(masks, cfg):
    """mask_std through numpy's two-axis mean and a broadcast subtract."""
    batch, _, n_protos = masks.shape[-3:]
    centered = masks - masks.mean(axis=(-3, -1), keepdims=True)
    var = np.einsum("...ljk,...ljk->...j", centered, centered) / (n_protos * batch)
    return centered, np.sqrt(var + cfg.variance_floor)


def parent_variance_loss(masks, cfg):
    """(value, gradient) of the variance hinge over parent_mask_std."""
    batch, n_tokens, n_protos = masks.shape[-3:]
    centered, std = parent_mask_std(masks, cfg)
    slack = cfg.std_target - std
    active = slack > 0
    value = np.where(active, slack, 0.0).sum(axis=-1) / n_tokens
    scale = np.where(active, -1.0 / (n_tokens * (n_protos * batch) * std), 0.0)
    return value, centered * scale[..., None, :, None]


@pytest.mark.parametrize(
    "videos", [(64, 10), (128, 4, 9), (1024, 10)], ids=["train", "probe_stack", "eval"]
)
def test_mask_statistics_keep_numpys_bits_across_the_pairwise_sum_boundary(videos):
    cfg = LossConfig()
    for k in range(1, 11):
        masks = relu(RngStream(k).normal(videos + (k,)))  # about half zeros
        masks *= np.linspace(0.2, 3.0, videos[-1])[:, None]  # hinge active on some tokens
        masks[..., 1, :] = -0.0  # a token of negative zeros: numpy's mean of them is +0.0
        want_centered, want_std = parent_mask_std(masks, cfg)
        centered, std = mask_std(masks, cfg)
        assert centered.tobytes() == want_centered.tobytes() and std.tobytes() == want_std.tobytes()
        want_value, want_grad = parent_variance_loss(masks, cfg)
        value, grad = variance_value_and_grad(masks, cfg)
        assert np.asarray(value).tobytes() == want_value.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert 0 < (want_std < cfg.std_target).mean() < 1
        if k == 8:  # from here numpy sums pairwise: left-to-right adds would miss its bits
            left_to_right = masks[..., 0] + 0.0
            for j in range(1, k):
                left_to_right += masks[..., j]
            assert left_to_right.tobytes() != masks.sum(axis=-1).tobytes()


def test_zero_prototype_masks_rejected():
    # a head without learned prototypes has no variance term to compute
    with pytest.raises(ValidationError, match="prototype, got \\(2, 3, 0\\)"):
        variance_loss(np.zeros((2, 3, 0)), LossConfig())


# ---------------------------------------------------------------------------
# contrastive_loss
# ---------------------------------------------------------------------------


def test_single_pair_loss_is_exactly_zero():
    loss, grad = contrastive_value_and_grad(np.array([[0.37]]), temperature=0.05)
    assert loss == 0.0
    np.testing.assert_allclose(grad, 0.0, atol=1e-16)


def test_uniform_matrix_gives_two_log_l():
    for size in (2, 4, 16):
        loss = contrastive_loss(np.full((size, size), 0.3), temperature=0.05).value
        assert loss == pytest.approx(2.0 * math.log(size), abs=1e-9)


def test_identity_matrix_saturates_softmax():
    loss = contrastive_loss(np.eye(3), temperature=0.05).value
    assert loss < 1e-8  # positives dominate by e^20


def test_loss_invariant_to_uniform_score_shift():
    rng = RngStream(4)
    scores = rng.normal((5, 5))
    a = contrastive_loss(scores, 0.05).value
    b = contrastive_loss(scores + 3.7, 0.05).value
    assert a == pytest.approx(b, rel=1e-12)


def test_loss_symmetric_under_transpose():
    scores = RngStream(5).normal((6, 6))
    a, ga = contrastive_value_and_grad(scores, 0.07)
    b, gb = contrastive_value_and_grad(scores.T, 0.07)
    assert a == pytest.approx(b, rel=1e-12)
    np.testing.assert_allclose(ga, gb.T, rtol=0, atol=1e-15)


def test_loss_nonnegative_on_random_inputs():
    for seed in range(10):
        loss = contrastive_loss(RngStream(seed).normal((4, 4)), 0.05).value
        assert loss >= 0.0


def test_contrastive_gradient_closed_form():
    scores = RngStream(6).normal((4, 4))
    tau = 0.05
    _, grad = contrastive_value_and_grad(scores, tau)
    logits = scores / tau
    row = np.exp(logits - logits.max(axis=1, keepdims=True))
    row /= row.sum(axis=1, keepdims=True)
    col = np.exp(logits - logits.max(axis=0, keepdims=True))
    col /= col.sum(axis=0, keepdims=True)
    expected = (row + col - 2.0 * np.eye(4)) / (4 * tau)
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)


def test_contrastive_vjp_matches_finite_differences():
    for seed in range(20):
        scores0 = RngStream(seed).normal((4, 4))

        def loss(values):
            return contrastive_loss(values["s"], 0.5).value

        grads = {"s": contrastive_vjp(contrastive_loss(scores0, 0.5))}
        assert finite_diff_check(per_row(loss), {"s": scores0}, grads) < 1e-6


def test_non_square_matrix_rejected():
    with pytest.raises(ShapeError):
        contrastive_loss(np.zeros((2, 3)), 0.05)


# ---------------------------------------------------------------------------
# total_loss
# ---------------------------------------------------------------------------


def test_weighted_sum_direct_case():
    breakdown = total_loss(1.0, 0.2, LossConfig(variance_weight=5.0))
    assert breakdown == LossBreakdown(1.0, 0.2, 2.0)


def test_zero_weight_total_is_contrastive():
    breakdown = total_loss(0.83, 0.7, LossConfig(variance_weight=0.0))
    assert breakdown.total == 0.83


def test_non_finite_component_rejected_by_name():
    with pytest.raises(NumericError) as exc:
        total_loss(float("nan"), 0.0, LossConfig())
    assert "contrastive" in str(exc.value)
    with pytest.raises(NumericError) as exc:
        total_loss(0.0, float("inf"), LossConfig())
    assert "variance" in str(exc.value)


# ---------------------------------------------------------------------------
# stacks of points
# ---------------------------------------------------------------------------


def test_stacked_losses_match_unstacked_calls_bitwise():
    cfg = LossConfig()
    rng = RngStream(3)
    masks = np.abs(rng.normal((5, 4, 9, 2)))
    scores = rng.normal((5, 4, 4))
    values, grads = variance_value_and_grad(masks, cfg)
    c_values, c_grads = contrastive_value_and_grad(scores, cfg.temperature)
    assert values.shape == c_values.shape == (5,)
    for p in range(5):
        value, grad = variance_value_and_grad(masks[p], cfg)
        c_value, c_grad = contrastive_value_and_grad(scores[p], cfg.temperature)
        assert type(value) is float and type(c_value) is float  # unstacked: Python floats
        assert value == values[p] and c_value == c_values[p]
        assert grad.tobytes() == grads[p].tobytes() and c_grad.tobytes() == c_grads[p].tobytes()


def test_total_loss_names_a_non_finite_stacked_value_in_one_line():
    with pytest.raises(NumericError) as info:
        total_loss(np.array([0.5, np.inf, np.nan]), np.zeros(3), LossConfig())
    assert str(info.value) == "contrastive loss is non-finite: inf"
