"""Similarity scoring: text-adaptive max over each video's prototypes.

A text matches a video through whichever of the video's K+1 embedded
prototypes it is most similar to; with one row per video (the
single-vector baseline) this is the plain inner product.  The winning prototype index is recorded
per (text, video) pair, and the backward pass routes the upstream gradient
only through that winning row (the subgradient of max).

Batched scoring multiplies the texts, in row blocks of near-equal height
sized by a fixed byte budget, by the stored prototype rows flattened to
(V*(K+1), D), and reduces each block's scores over its K+1 stripes (the
strided views of one prototype index across all V videos): the max
stripe by stripe, and the winner as the count of leading stripes below
it.  Memory is O(T*V + block) rather than O(T*V*(K+1)).  The VJP
scatters the upstream gradient into a one-hot (T, V*(K+1)) weight matrix
at the winning columns and is then two matmuls; no (T, V, D) temporary
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError


@dataclass(eq=False)
class SimilarityMatrix:
    """Scores for every (text, video) pair plus the winning prototype index."""

    scores: np.ndarray  # (n_texts, n_videos) float64
    winners: np.ndarray  # (n_texts, n_videos) int64, values in [0, K]


# Bytes of one block of per-prototype scores in similarity_matrix.  A
# training batch (64 texts x 64 videos x 4 rows) is 128 KiB, one block.
_BLOCK_BYTES = 8 << 20


def _check_shapes(text_embedded: np.ndarray, video_embedded: np.ndarray) -> None:
    if (
        text_embedded.ndim != 2
        or video_embedded.ndim != 3
        or text_embedded.shape[1] != video_embedded.shape[2]
    ):
        raise ShapeError(
            f"text embeddings {text_embedded.shape} do not conform with video "
            f"prototype stack {video_embedded.shape}"
        )


def _block_scores(
    text_rows: np.ndarray, video_embedded: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(rows, K+1, V) inner products of text rows with every prototype row.

    One matmul against the stored rows; each prototype index is a strided
    view of the (rows, V*(K+1)) product.
    """
    n_videos, n_rows, dim = video_embedded.shape
    flat = np.matmul(text_rows, video_embedded.reshape(n_videos * n_rows, dim).T, out=out)
    return flat.reshape(text_rows.shape[0], n_videos, n_rows).transpose(0, 2, 1)


def prototype_scores(text_embedded: np.ndarray, video_embedded: np.ndarray) -> np.ndarray:
    """Inner product of every text row with every prototype row.

    text_embedded: (n_texts, embed_dim); video_embedded: (n_videos, K+1,
    embed_dim).  Returns (n_texts, n_videos, K+1), computed as one matmul.
    """
    _check_shapes(text_embedded, video_embedded)
    return _block_scores(text_embedded, video_embedded).transpose(0, 2, 1)


def similarity_matrix(text_embedded: np.ndarray, video_embedded: np.ndarray) -> SimilarityMatrix:
    """All-pairs max-over-prototypes scores.

    text_embedded: (n_texts, embed_dim) unit rows.
    video_embedded: (n_videos, K+1, embed_dim) unit rows per video.
    Ties break toward the lowest prototype index.
    """
    _check_shapes(text_embedded, video_embedded)
    n_videos, n_rows, _ = video_embedded.shape
    if n_rows == 0:
        raise ValidationError(
            f"prototype stack must have at least one row per video, got {video_embedded.shape}"
        )
    n_texts = text_embedded.shape[0]
    dtype = np.result_type(text_embedded, video_embedded)
    height = _BLOCK_BYTES // (dtype.itemsize * n_rows * max(n_videos, 1))
    n_blocks = max(1, -(-n_texts // max(height, 1)))
    # heights differ by at most one, so a call spanning several blocks has a
    # one-row block only if the budget fits fewer than four rows: such a
    # block goes through gemv, whose last bits can differ from gemm's
    bounds = [n_texts * b // n_blocks for b in range(n_blocks + 1)]
    # one product buffer for all blocks: a fresh one per block costs page faults
    buffer = np.empty((-(-n_texts // n_blocks), n_rows * n_videos), dtype)
    scores = np.empty((n_texts, n_videos), dtype)
    winners = np.empty((n_texts, n_videos), np.int64)
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        block = _block_scores(text_embedded[rows], video_embedded, buffer[: stop - start])
        best = scores[rows]
        np.copyto(best, block[:, 0])
        for k in range(1, n_rows):
            np.maximum(best, block[:, k], out=best)
        # the winner is the first stripe equal to the max: the count of the
        # leading stripes that are not
        undecided = block[:, 0] != best
        leading = undecided.astype(np.min_scalar_type(n_rows - 1))
        for k in range(1, n_rows - 1):
            undecided &= block[:, k] != best
            leading += undecided
        winners[rows] = leading
    return SimilarityMatrix(scores, winners)


def similarity_vjp(
    grad_scores: np.ndarray,
    text_embedded: np.ndarray,
    video_embedded: np.ndarray,
    winners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of similarity_matrix.

    The gradient for pair (t, v) flows into text row t and into the single
    winning prototype row of video v recorded in winners.  Returns
    (grad_text_embedded, grad_video_embedded).
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
    weights = np.zeros((n_texts, n_videos, n_rows))
    np.put_along_axis(weights, winners[:, :, None], grad_scores[:, :, None], axis=2)
    weights = weights.reshape(n_texts, n_videos * n_rows)
    grad_text = weights @ video_embedded.reshape(n_videos * n_rows, dim)
    grad_video = (weights.T @ text_embedded).reshape(video_embedded.shape)
    return grad_text, grad_video

