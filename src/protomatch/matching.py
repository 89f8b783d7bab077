"""Similarity scoring: text-adaptive max over each video's prototypes.

A text matches a video through whichever of the video's K+1 embedded
prototypes it is most similar to; with one row per video (the
single-vector baseline) this is the plain inner product.  The winning prototype index is recorded
per (text, video) pair, and the backward pass routes the upstream gradient
only through that winning row (the subgradient of max).

One kernel scores everything: one gemm per prototype stripe, the texts
against row k of every video (a strided view BLAS reads in place),
written into a contiguous (K+1, texts, V) buffer.  A video's rows land in
the same output column of every stripe, so bit-equal prototype rows give
bit-equal scores, and ties break toward the lowest index.  similarity_matrix
runs it over row blocks of near-equal height, sized by a fixed byte
budget, and reduces each block over its contiguous stripes: the max, and
the winner as the count of leading stripes below it.  Memory is
O(T*V + block) rather than O(T*V*(K+1)).  Evaluation asks for the scores
only: the winner pass is skipped and no (T, V) winners array is
allocated.  Leading stack axes broadcast, and the blocks depend only on a
slice's sizes, so a training batch, a stack of finite-difference probes
and a gallery-scale evaluation all run the same blocked kernel, and each
stacked slice gets the bits of an unstacked call.  prototype_scores is the
same kernel over all rows at once, unreduced, for the top-2 gap of a
prototype-max tie.  The VJP scatters the upstream gradient into a one-hot
(T, V*(K+1)) weight matrix at the winning columns and is then two
matmuls; no (T, V, D) temporary is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError


@dataclass(eq=False)
class SimilarityMatrix:
    """Scores for every (text, video) pair plus the winning prototype index."""

    scores: np.ndarray  # (..., n_texts, n_videos) float64
    winners: np.ndarray | None  # (..., n_texts, n_videos) int64 in [0, K]; None if not asked for


# Bytes of one block of per-prototype scores in similarity_matrix.  A
# training batch (64 texts x 64 videos x 4 rows) is 128 KiB, one block.
_BLOCK_BYTES = 8 << 20


def _check_shapes(text_embedded: np.ndarray, video_embedded: np.ndarray) -> tuple[int, ...]:
    """Texts (..., T, D) and videos (..., V, K+1, D); returns the broadcast leading shape."""
    try:
        lead = np.broadcast_shapes(text_embedded.shape[:-2], video_embedded.shape[:-3])
    except ValueError:
        lead = None
    if (
        lead is None
        or text_embedded.ndim < 2
        or video_embedded.ndim != text_embedded.ndim + 1
        or text_embedded.shape[-1] != video_embedded.shape[-1]
    ):
        raise ShapeError(
            f"text embeddings {text_embedded.shape} do not conform with video "
            f"prototype stack {video_embedded.shape}"
        )
    return lead


def _stripe_products(
    text_rows: np.ndarray, video_embedded: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(..., K+1, rows, V) inner products of text rows with every prototype row.

    One gemm per prototype stripe: stripe k is the strided view of row k of
    every video, which BLAS reads in place.  A video's rows land in the same
    output column of every stripe, so bit-equal rows give bit-equal scores.
    Leading axes broadcast, K+1 gemms per stacked pair.
    """
    stripes = video_embedded.swapaxes(-2, -3).swapaxes(-1, -2)  # (..., K+1, D, V)
    return np.matmul(text_rows[..., None, :, :], stripes, out=out)


def prototype_scores(text_embedded: np.ndarray, video_embedded: np.ndarray) -> np.ndarray:
    """Inner product of every text row with every prototype row.

    text_embedded: (..., n_texts, embed_dim); video_embedded: (...,
    n_videos, K+1, embed_dim).  Returns a (..., n_texts, n_videos, K+1)
    view of the stripe kernel's products for all text rows at once, which
    similarity_matrix takes the max of; leading axes broadcast.
    """
    _check_shapes(text_embedded, video_embedded)
    return np.moveaxis(_stripe_products(text_embedded, video_embedded), -3, -1)


def similarity_matrix(
    text_embedded: np.ndarray,
    video_embedded: np.ndarray,
    winners: bool = True,
    buffer: np.ndarray | None = None,
) -> SimilarityMatrix:
    """All-pairs max-over-prototypes scores.

    text_embedded: (..., n_texts, embed_dim) unit rows.
    video_embedded: (..., n_videos, K+1, embed_dim) unit rows per video.
    Leading axes broadcast, and each stacked slice gets the bits of an
    unstacked call: the row blocks depend on the slice's sizes only.  With
    winners=False the winner pass is skipped and the result's winners is
    None; the scores are the same bits either way.  buffer, if given, is a
    C-contiguous array of at least (K+1) * n_videos times one block's rows
    (all n_texts at a training batch's size) times the stack's size that
    receives the block products; the result never points into it.  Ties
    break toward the lowest prototype index.
    """
    lead = _check_shapes(text_embedded, video_embedded)
    n_videos, n_rows, _ = video_embedded.shape[-3:]
    if n_rows == 0:
        raise ValidationError(
            f"prototype stack must have at least one row per video, got {video_embedded.shape}"
        )
    n_texts = text_embedded.shape[-2]
    dtype = np.result_type(text_embedded, video_embedded)
    height = _BLOCK_BYTES // (dtype.itemsize * n_rows * max(n_videos, 1))
    n_blocks = max(1, -(-n_texts // max(height, 1)))
    # heights differ by at most one, so a call spanning several blocks has a
    # one-row block only if the budget fits fewer than four rows: such a
    # block goes through gemv, whose last bits can differ from gemm's
    bounds = [n_texts * b // n_blocks for b in range(n_blocks + 1)]
    if buffer is None:  # one for all blocks: a fresh one per block costs page faults
        buffer = np.empty(math.prod(lead) * n_rows * -(-n_texts // n_blocks) * n_videos, dtype)
    buffer = buffer.reshape(-1)
    scores = np.empty(lead + (n_texts, n_videos), dtype)
    won = np.empty(lead + (n_texts, n_videos), np.int64) if winners else None
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        shape = lead + (n_rows, stop - start, n_videos)
        out = buffer[: math.prod(shape)].reshape(shape)
        stripes = _stripe_products(text_embedded[..., rows, :], video_embedded, out)
        stripe = [stripes[..., k, :, :] for k in range(n_rows)]
        best = scores[..., rows, :]  # stripe 0 against itself when it is the only one
        np.maximum(stripe[0], stripe[min(1, n_rows - 1)], out=best)
        for k in range(2, n_rows):
            np.maximum(best, stripe[k], out=best)
        if won is None:
            continue
        # the winner is the first stripe equal to the max: the count of the
        # leading stripes that are not
        undecided = stripe[0] != best
        leading = undecided.astype(np.min_scalar_type(n_rows - 1))
        for k in range(1, n_rows - 1):
            undecided &= stripe[k] != best
            leading += undecided
        won[..., rows, :] = leading
    return SimilarityMatrix(scores, won)


def similarity_vjp(
    grad_scores: np.ndarray,
    text_embedded: np.ndarray,
    video_embedded: np.ndarray,
    winners: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of similarity_matrix.

    The gradient for pair (t, v) flows into text row t and into the single
    winning prototype row of video v recorded in winners.  Returns
    (grad_text_embedded, grad_video_embedded).  out, if given, is a pair of
    C-contiguous arrays shaped like text_embedded and video_embedded that
    receive them; weights, if given, is a C-contiguous (n_texts, n_videos,
    K+1) array that holds the one-hot weights.
    """
    if (
        grad_scores.ndim != 2
        or winners.shape != grad_scores.shape
        or text_embedded.ndim != 2
        or video_embedded.ndim != 3
        or text_embedded.shape[0] != grad_scores.shape[0]
        or video_embedded.shape[0] != grad_scores.shape[1]
        or text_embedded.shape[1] != video_embedded.shape[2]
    ):
        raise ShapeError(
            f"grad {grad_scores.shape} and winners {winners.shape} do not conform with "
            f"{text_embedded.shape} texts and {video_embedded.shape} videos"
        )
    n_texts = grad_scores.shape[0]
    n_videos, n_rows, dim = video_embedded.shape
    # weights[t, v, k] is grad_scores[t, v] where k won the pair, else 0:
    # the max subgradient itself, not an approximation of it
    if weights is None:
        weights = np.zeros((n_texts, n_videos, n_rows))
    else:
        weights.fill(0.0)
    np.put_along_axis(weights, winners[:, :, None], grad_scores[:, :, None], axis=2)
    weights = weights.reshape(n_texts, n_videos * n_rows)
    grad_text, grad_video = (None, None) if out is None else out
    grad_text = np.matmul(weights, video_embedded.reshape(n_videos * n_rows, dim), out=grad_text)
    if grad_video is not None:
        grad_video = grad_video.reshape(n_videos * n_rows, dim)
    grad_video = np.matmul(weights.T, text_embedded, out=grad_video)
    return grad_text, grad_video.reshape(video_embedded.shape)

