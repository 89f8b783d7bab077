"""Training objective: mask variance regularizer plus symmetric contrastive loss.

The variance term pushes each token position's mask values (pooled over the
batch and the K prototypes) to have standard deviation at least a target
value, so prototypes cannot collapse onto identical token selections.  The
contrastive term is the usual temperature-scaled InfoNCE in both directions
over an in-batch square score matrix.  Each term is a forward that returns
its value plus the intermediates its VJP reads, and a VJP over those, so a
caller that needs only the value computes no gradient; nothing here calls an
autodiff engine.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

# 1 / float max: at or below it, 1.0 / temperature (the logit of a matched
# pair of unit vectors) is inf.
MIN_TEMPERATURE = 1.0 / sys.float_info.max


@dataclass(frozen=True)
class LossConfig:
    """Objective constants.

    std_target: per-token mask standard deviation the regularizer demands.
    variance_floor: additive floor inside the sqrt, keeps the gradient finite
        at zero variance.
    variance_weight: multiplier on the variance term in the total objective.
    temperature: softmax temperature of the contrastive term.
    """

    std_target: float = 0.75
    variance_floor: float = 1e-4
    variance_weight: float = 5.0
    temperature: float = 0.05

    def __post_init__(self) -> None:
        if self.std_target <= 0:
            raise ValidationError(f"std_target must be > 0, got {self.std_target}")
        if self.variance_floor <= 0:
            raise ValidationError(f"variance_floor must be > 0, got {self.variance_floor}")
        if self.variance_weight < 0:
            raise ValidationError(f"variance_weight must be >= 0, got {self.variance_weight}")
        if self.temperature <= 0:
            raise ValidationError(f"temperature must be > 0, got {self.temperature}")
        if self.temperature <= MIN_TEMPERATURE:
            raise ValidationError(
                f"temperature must be above {MIN_TEMPERATURE!r}, where the logit of a "
                f"unit score overflows, got {self.temperature!r}"
            )


@dataclass(frozen=True)
class LossBreakdown:
    contrastive: float | np.ndarray  # arrays for a stack of points
    variance: float | np.ndarray
    total: float | np.ndarray


# numpy sums an axis of fewer than this many items left to right and a
# longer one pairwise (pairwise_sum in its add loop)
_PAIRWISE_SUM_MIN = 8


def mask_std(masks: np.ndarray, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-token spread of the mask values pooled over videos and prototypes.

    masks has shape (..., batch, n_tokens, n_prototypes), with at least one
    prototype.  Returns (masks minus their per-token mean, the per-token
    population standard deviation with the variance floor added under the
    sqrt); the std has shape (..., n_tokens).

    The centered masks have the bits of masks - masks.mean(axis=(-3, -1)),
    whose sum adds each video's prototypes first, then the videos.  Below
    _PAIRWISE_SUM_MIN prototypes numpy adds a video's prototypes left to
    right from +0.0, so one whole-array add per prototype slice gives the
    same sums, and one subtract per slice centers them; numpy would instead
    run an inner loop per row over the short prototype axis.  From there up
    it sums pairwise, and its own reduction runs.
    """
    batch, _, n_protos = masks.shape[-3:]
    if n_protos < _PAIRWISE_SUM_MIN:
        per_video = masks[..., 0] + 0.0  # from +0.0, as numpy's row sums start
        for k in range(1, n_protos):
            per_video += masks[..., k]
        mean = per_video.sum(axis=-2, keepdims=True) / (n_protos * batch)  # (..., 1, n_tokens)
        centered = np.empty_like(masks)
        for k in range(n_protos):
            np.subtract(masks[..., k], mean, out=centered[..., k])
    else:
        centered = masks - masks.mean(axis=(-3, -1), keepdims=True)
    var = np.einsum("...ljk,...ljk->...j", centered, centered) / (n_protos * batch)
    return centered, np.sqrt(var + cfg.variance_floor)


def _scalar_if_unstacked(value: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float; a stack of results as the array."""
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True, eq=False)
class VarianceForward:
    """variance_loss's value and what variance_vjp reads."""

    value: float | np.ndarray
    centered: np.ndarray  # masks minus their per-token mean
    std: np.ndarray  # (..., n_tokens) per-token std, floor included
    active: np.ndarray  # (..., n_tokens) where the hinge is active


def variance_loss(masks: np.ndarray, cfg: LossConfig) -> VarianceForward:
    """Hinge on per-token mask std, averaged over token positions.

    masks has shape (batch, n_tokens, n_prototypes).  For each token
    position the batch*n_prototypes mask values are pooled; their population
    standard deviation (with the variance floor added under the sqrt) is
    pushed up to std_target.  Returns the value with the intermediates of
    its gradient, which variance_vjp computes.  A stack of masks
    (..., batch, n_tokens, n_prototypes) gives one value per stacked slice,
    each with the bits of the unstacked call.  With zero prototypes there
    is nothing to regularize, and the masks are rejected.
    """
    if masks.ndim < 3:
        raise ShapeError(f"masks must be (batch, tokens, prototypes), got {masks.shape}")
    batch, n_tokens, n_protos = masks.shape[-3:]
    if batch < 1 or n_tokens < 1 or n_protos < 1:
        raise ValidationError(
            f"masks need at least one video, token and prototype, got {masks.shape}"
        )
    centered, std = mask_std(masks, cfg)
    slack = cfg.std_target - std
    active = slack > 0
    value = np.where(active, slack, 0.0).sum(axis=-1) / n_tokens
    return VarianceForward(_scalar_if_unstacked(value), centered, std, active)


def variance_vjp(fwd: VarianceForward) -> np.ndarray:
    """d value / d masks of a variance_loss forward."""
    batch, n_tokens, n_protos = fwd.centered.shape[-3:]
    pooled = n_protos * batch
    # d value / d m[i,j,k] = -(m[i,j,k] - mean_j) / (n_tokens * pooled * std_j)
    # wherever the hinge is active, 0 elsewhere.
    scale = np.where(fwd.active, -1.0 / (n_tokens * pooled * fwd.std), 0.0)  # (..., n_tokens)
    return fwd.centered * scale[..., None, :, None]


@dataclass(frozen=True, eq=False)
class ContrastiveForward:
    """contrastive_loss's value and what contrastive_vjp reads."""

    value: float | np.ndarray
    logits: np.ndarray  # scores / temperature
    row_lse: np.ndarray  # (..., n) log-sum-exp of each row of logits
    col_lse: np.ndarray  # (..., n) log-sum-exp of each column
    temperature: float


def contrastive_loss(scores: np.ndarray, temperature: float) -> ContrastiveForward:
    """Symmetric InfoNCE over a square in-batch score matrix.

    Row i is text i against all videos; the diagonal holds the matched
    pairs.  Value is the mean over pairs of the text-to-video and
    video-to-text cross-entropies.  Returns the value with the
    intermediates of its gradient, which contrastive_vjp computes.
    Log-sum-exp stabilized: exact for any score scale.  A stack of score
    matrices (..., n, n) gives one value per matrix, each with the bits of
    the unstacked call.  A temperature so small that the logits' spans
    overflow gives a non-finite value without warnings; total_loss reports
    it.
    """
    if scores.ndim < 2 or scores.shape[-2] != scores.shape[-1]:
        raise ShapeError(f"in-batch contrastive loss needs a square matrix, got {scores.shape}")
    if temperature <= 0:
        raise ValidationError(f"temperature must be > 0, got {temperature}")
    n = scores.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        logits = scores / temperature
        diag = np.diagonal(logits, axis1=-2, axis2=-1)

        row_max = logits.max(axis=-1)
        row_lse = row_max + np.log(np.exp(logits - row_max[..., :, None]).sum(axis=-1))
        col_max = logits.max(axis=-2)
        col_lse = col_max + np.log(np.exp(logits - col_max[..., None, :]).sum(axis=-2))
        value = ((row_lse - diag) + (col_lse - diag)).sum(axis=-1) / n
    return ContrastiveForward(_scalar_if_unstacked(value), logits, row_lse, col_lse, temperature)


def contrastive_vjp(fwd: ContrastiveForward) -> np.ndarray:
    """d value / d scores of a contrastive_loss forward."""
    n = fwd.logits.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        row_softmax = np.exp(fwd.logits - fwd.row_lse[..., :, None])
        col_softmax = np.exp(fwd.logits - fwd.col_lse[..., None, :])
        grad_logits = (row_softmax + col_softmax - 2.0 * np.eye(n)) / n
        return grad_logits / fwd.temperature


def total_loss(
    contrastive: float | np.ndarray, variance: float | np.ndarray, cfg: LossConfig
) -> LossBreakdown:
    """Weighted sum of the two terms, kept itemized for logging.

    Takes floats, or arrays of per-point values for a stack of points.
    """
    for name, component in (("contrastive", contrastive), ("variance", variance)):
        bad = ~np.isfinite(component)
        if bad.any():
            raise NumericError(f"{name} loss is non-finite: {np.asarray(component)[bad].flat[0]}")
    return LossBreakdown(contrastive, variance, contrastive + cfg.variance_weight * variance)
