"""Similarity scoring: text-adaptive max over each video's prototypes.

A text matches a video through whichever of the video's K+1 embedded
prototypes it is most similar to; with one row per video (the
single-vector baseline) this is the plain inner product.  The winning prototype index is recorded
per (text, video) pair, and the backward pass routes the upstream gradient
only through that winning row (the subgradient of max).

Batched scoring is one matmul of the texts against the flattened
(V*(K+1), D) prototype stack, followed by a max over each video's K+1
columns.  The VJP scatters the upstream gradient into a one-hot
(T, V*(K+1)) weight matrix at the winning columns and is then two
matmuls.  Memory is O(T*V*(K+1)); no (T, V, D) temporary is built.
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


def prototype_scores(text_embedded: np.ndarray, video_embedded: np.ndarray) -> np.ndarray:
    """Inner product of every text row with every prototype row.

    text_embedded: (n_texts, embed_dim); video_embedded: (n_videos, K+1,
    embed_dim).  Returns (n_texts, n_videos, K+1), computed as one matmul.
    """
    if (
        text_embedded.ndim != 2
        or video_embedded.ndim != 3
        or text_embedded.shape[1] != video_embedded.shape[2]
    ):
        raise ShapeError(
            f"text embeddings {text_embedded.shape} do not conform with video "
            f"prototype stack {video_embedded.shape}"
        )
    n_videos, n_rows, dim = video_embedded.shape
    flat = text_embedded @ video_embedded.reshape(n_videos * n_rows, dim).T
    return flat.reshape(text_embedded.shape[0], n_videos, n_rows)


def similarity_matrix(text_embedded: np.ndarray, video_embedded: np.ndarray) -> SimilarityMatrix:
    """All-pairs max-over-prototypes scores.

    text_embedded: (n_texts, embed_dim) unit rows.
    video_embedded: (n_videos, K+1, embed_dim) unit rows per video.
    Ties break toward the lowest prototype index.
    """
    per_proto = prototype_scores(text_embedded, video_embedded)
    if per_proto.shape[2] == 0:
        raise ValidationError(
            f"prototype stack must have at least one row per video, got {video_embedded.shape}"
        )
    winners = per_proto.argmax(axis=2)
    scores = np.take_along_axis(per_proto, winners[:, :, None], axis=2)[:, :, 0]
    return SimilarityMatrix(scores, winners.astype(np.int64, copy=False))


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

