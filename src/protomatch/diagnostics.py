"""Corpus ambiguity analysis and prototype interpretability exports.

Intra-text similarity is the cosine between two captions of the same video;
inter-text similarity pairs captions of different videos.  When many videos
have a minimum intra similarity below the mean inter similarity, a caption
can sit closer to other videos' captions than to its own siblings, which is
the failure mode multiple prototypes address.  The other exports make the
learned behavior inspectable: per-token mask heatmaps, prototype diversity
summaries, and caption-to-prototype assignment purity on labeled corpora.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Corpus, VideoRecord
from .errors import ValidationError
from .matching import similarity_matrix
from .numerics import NORM_GUARD, RngStream, l2_normalize_rows
from .prototypes import (
    HeadParameters,
    compute_masks,
    embed_texts,
    embed_videos,
    head_forward,
)

DEFAULT_BINS = 40
DEFAULT_PAIR_CAP = 1_000_000
# Caption pairs whose embeddings are gathered at once in intra_inter_stats.
_PAIR_CHUNK = 8192


@dataclass(eq=False)
class AmbiguityStats:
    bin_edges: np.ndarray  # (bins + 1,) fixed over [-1, 1]
    inter_hist: np.ndarray  # (bins,) pair counts
    min_intra: list[tuple[str, float]]  # (video_id, min intra-pair cosine)
    mean_inter: float
    fraction_below: float  # share of multi-caption videos with min intra < mean inter


def intra_inter_stats(
    corpus: Corpus,
    params: HeadParameters | None = None,
    bins: int = DEFAULT_BINS,
    pair_cap: int = DEFAULT_PAIR_CAP,
    seed: int = 0,
) -> AmbiguityStats:
    """Cosine statistics of caption pairs within and across videos.

    Uses raw text features by default; pass params to compare captions in
    the learned joint embedding space instead.  Inter-video pairs beyond
    pair_cap are subsampled uniformly (seeded); the histogram only needs
    the distribution's shape.
    """
    if corpus.num_videos < 2:
        raise ValidationError("inter-video statistics need at least 2 videos")
    features = np.stack([t.features for t in corpus.texts])
    if params is not None:
        unit = embed_texts(features, params)
    else:
        unit = l2_normalize_rows(features)
    video_index = {v.video_id: i for i, v in enumerate(corpus.videos)}
    video_of = np.array([video_index[t.video_id] for t in corpus.texts])

    min_intra: list[tuple[str, float]] = []
    for vi, video in enumerate(corpus.videos):
        rows = np.flatnonzero(video_of == vi)
        if rows.shape[0] < 2:
            continue
        sims = unit[rows] @ unit[rows].T
        pair_min = sims[np.triu_indices(rows.shape[0], k=1)].min()
        min_intra.append((video.video_id, float(pair_min)))
    if not min_intra:
        raise ValidationError(
            "intra-video similarity is undefined: every video has a single caption"
        )

    i_idx, j_idx = np.triu_indices(unit.shape[0], k=1)
    keep = video_of[i_idx] != video_of[j_idx]
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if i_idx.shape[0] > pair_cap:
        pick = RngStream(seed).permutation(i_idx.shape[0])[:pair_cap]
        i_idx, j_idx = i_idx[pick], j_idx[pick]
    inter = np.empty(i_idx.shape[0])
    for start in range(0, i_idx.shape[0], _PAIR_CHUNK):  # bounded gathers
        pairs = slice(start, start + _PAIR_CHUNK)
        inter[pairs] = np.einsum("pd,pd->p", unit[i_idx[pairs]], unit[j_idx[pairs]])

    edges = np.linspace(-1.0, 1.0, bins + 1)
    hist, _ = np.histogram(np.clip(inter, -1.0, 1.0), bins=edges)
    mean_inter = float(inter.mean())
    below = sum(1 for _, v in min_intra if v < mean_inter)
    return AmbiguityStats(edges, hist, min_intra, mean_inter, below / len(min_intra))


def write_ambiguity_csvs(stats: AmbiguityStats, out_dir: str | Path) -> None:
    """inter_hist.csv, min_intra.csv, summary.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["bin_left,bin_right,count"]
    for b in range(stats.inter_hist.shape[0]):
        lines.append(f"{stats.bin_edges[b]!r},{stats.bin_edges[b + 1]!r},{int(stats.inter_hist[b])}")
    (out / "inter_hist.csv").write_text("\n".join(lines) + "\n")
    lines = ["video_id,value"]
    for video_id, value in stats.min_intra:
        lines.append(f"{video_id},{value!r}")
    (out / "min_intra.csv").write_text("\n".join(lines) + "\n")
    summary = {"mean_inter": stats.mean_inter, "fraction_below": stats.fraction_below}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def export_mask_heatmaps(video: VideoRecord, params: HeadParameters, path: str | Path) -> None:
    """Mask values as a (K rows x B columns) CSV plus a row-normalized twin.

    The raw file holds compute_masks output exactly.  The twin (suffix
    `_normalized`) divides each prototype's row by its sum so rows compare
    as attention profiles; all-zero rows stay zero.
    """
    _, masks = compute_masks(video.tokens, params)  # (B, K)
    heat = masks.T  # (K, B)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def rows_to_csv(matrix: np.ndarray) -> str:
        header = "prototype," + ",".join(f"token_{j}" for j in range(matrix.shape[1]))
        lines = [header]
        for k in range(matrix.shape[0]):
            lines.append(f"{k}," + ",".join(repr(float(v)) for v in matrix[k]))
        return "\n".join(lines) + "\n"

    path.write_text(rows_to_csv(heat))
    sums = heat.sum(axis=1, keepdims=True)
    normalized = heat / np.where(sums > NORM_GUARD, sums, 1.0)
    normalized_path = path.with_name(path.stem + "_normalized" + path.suffix)
    normalized_path.write_text(rows_to_csv(normalized))


def prototype_diversity(corpus: Corpus, params: HeadParameters) -> tuple[float, float]:
    """(mean pairwise cosine of learned prototypes, mean per-token mask std).

    The cosine is averaged per video over its prototype pairs in the
    learned embedding space (class-token row excluded), then over videos:
    lower means more diverse prototypes.  A prototype whose masks are all
    zero has no direction, so pairs involving it are undefined and skipped;
    a video needs two live prototypes to contribute.  The mask std pools
    each token position's mask values across videos and prototypes,
    mirroring what the variance regularizer pushes on, then averages over
    token positions.
    """
    k = params.n_prototypes
    if k < 2:
        raise ValidationError(f"prototype diversity needs at least 2 prototypes, got {k}")
    tokens = np.stack([v.tokens for v in corpus.videos])
    cache = head_forward(tokens, params)
    embedded = cache.embedded[:, :k, :]  # learned rows only
    live = np.linalg.norm(embedded, axis=2) > NORM_GUARD
    per_video = []
    for v in range(embedded.shape[0]):
        rows = embedded[v][live[v]]
        if rows.shape[0] < 2:
            continue
        sims = rows @ rows.T
        per_video.append(float(sims[np.triu_indices(rows.shape[0], 1)].mean()))
    if not per_video:
        raise ValidationError("no video has two live prototypes; cosine diversity is undefined")
    mean_cosine = float(np.mean(per_video))

    per_token_std = cache.masks.std(axis=(0, 2))  # population std over videos x prototypes
    return mean_cosine, float(per_token_std.mean())


def matching_purity(corpus: Corpus, params: HeadParameters) -> float:
    """How cleanly captions split over prototypes along event lines.

    For each video, captions are grouped by the prototype that wins the
    max-similarity match against their own video; a group's hits are the
    count of its most common event label.  Purity is total hits over total
    captions.  1.0 means every prototype serves captions of a single event;
    a head that routes everything through one prototype scores the
    frequency of the most common event.  Requires event labels on every
    caption (synthetic corpora have them).
    """
    if any(t.event_label is None for t in corpus.texts):
        raise ValidationError("matching purity needs an event label on every caption")
    video_embedded = embed_videos(np.stack([v.tokens for v in corpus.videos]), params)
    text_embedded = embed_texts(np.stack([t.features for t in corpus.texts]), params)
    sim = similarity_matrix(text_embedded, video_embedded)

    hits = 0
    for vi, video in enumerate(corpus.videos):
        groups: dict[int, list[int]] = {}
        for ti in corpus.texts_of(video.video_id):
            winner = int(sim.winners[ti, vi])
            groups.setdefault(winner, []).append(corpus.texts[ti].event_label)
        for labels in groups.values():
            hits += max(labels.count(e) for e in set(labels))
    return hits / corpus.num_texts
