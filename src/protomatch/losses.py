"""Training objective: mask variance regularizer plus symmetric contrastive loss.

The variance term pushes each token position's mask values (pooled over the
batch and the K prototypes) to have standard deviation at least a target
value, so prototypes cannot collapse onto identical token selections.  The
contrastive term is the usual temperature-scaled InfoNCE in both directions
over an in-batch square score matrix.  Both return their gradient alongside
the value; nothing here calls an autodiff engine.
"""

from __future__ import annotations

import sys
import warnings
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


def mask_std(masks: np.ndarray, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-token spread of the mask values pooled over videos and prototypes.

    masks has shape (..., batch, n_tokens, n_prototypes), with at least one
    prototype.  Returns (masks minus their per-token mean, the per-token
    population standard deviation with the variance floor added under the
    sqrt); the std has shape (..., n_tokens).
    """
    batch, _, n_protos = masks.shape[-3:]
    mean = masks.mean(axis=(-3, -1), keepdims=True)  # (..., 1, n_tokens, 1)
    centered = masks - mean
    var = np.einsum("...ljk,...ljk->...j", centered, centered) / (n_protos * batch)
    return centered, np.sqrt(var + cfg.variance_floor)


def _scalar_if_unstacked(value: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float; a stack of results as the array."""
    return float(value) if value.ndim == 0 else value


def variance_loss(masks: np.ndarray, cfg: LossConfig) -> tuple[float | np.ndarray, np.ndarray]:
    """Hinge on per-token mask std, averaged over token positions.

    masks has shape (batch, n_tokens, n_prototypes).  For each token
    position the batch*n_prototypes mask values are pooled; their population
    standard deviation (with the variance floor added under the sqrt) is
    pushed up to std_target.  Returns (value, d value / d masks).  A stack
    of masks (..., batch, n_tokens, n_prototypes) gives one value per
    stacked slice, each with the bits of the unstacked call.

    With zero prototypes there is nothing to regularize: returns 0 with an
    all-zero gradient, warning if the configured weight is positive.
    """
    if masks.ndim < 3:
        raise ShapeError(f"masks must be (batch, tokens, prototypes), got {masks.shape}")
    batch, n_tokens, n_protos = masks.shape[-3:]
    if batch < 1 or n_tokens < 1:
        raise ValidationError(f"masks need at least one video and one token, got {masks.shape}")
    if n_protos == 0:
        if cfg.variance_weight > 0:
            warnings.warn(
                f"variance_weight={cfg.variance_weight} has no effect with 0 prototypes",
                stacklevel=2,
            )
        return _scalar_if_unstacked(np.zeros(masks.shape[:-3])), np.zeros_like(masks)

    pooled = n_protos * batch
    centered, std = mask_std(masks, cfg)
    slack = cfg.std_target - std
    active = slack > 0
    value = np.where(active, slack, 0.0).sum(axis=-1) / n_tokens

    # d value / d m[i,j,k] = -(m[i,j,k] - mean_j) / (n_tokens * pooled * std_j)
    # wherever the hinge is active, 0 elsewhere.
    scale = np.where(active, -1.0 / (n_tokens * pooled * std), 0.0)  # (..., n_tokens)
    grad = centered * scale[..., None, :, None]
    return _scalar_if_unstacked(value), grad


def contrastive_loss(
    scores: np.ndarray, temperature: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Symmetric InfoNCE over a square in-batch score matrix.

    Row i is text i against all videos; the diagonal holds the matched
    pairs.  Value is the mean over pairs of the text-to-video and
    video-to-text cross-entropies.  Returns (value, d value / d scores).
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

        row_softmax = np.exp(logits - row_lse[..., :, None])
        col_softmax = np.exp(logits - col_lse[..., None, :])
        grad_logits = (row_softmax + col_softmax - 2.0 * np.eye(n)) / n
        return _scalar_if_unstacked(value), grad_logits / temperature


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
