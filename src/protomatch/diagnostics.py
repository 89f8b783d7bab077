"""Corpus ambiguity analysis and prototype interpretability exports.

Intra-text similarity is the cosine between two captions of the same video;
inter-text similarity pairs captions of different videos.  When many videos
have a minimum intra similarity below the mean inter similarity, a caption
can sit closer to other videos' captions than to its own siblings, which is
the failure mode multiple prototypes address.  The other exports make the
learned behavior inspectable: per-token mask heatmaps, prototype diversity
summaries, and caption-to-prototype assignment purity on labeled corpora.

The inter-video pairs are never listed.  The kept pair ordinals are sorted
once, so per-caption prefix counts split them into runs by first caption.
Each such row decodes its run to partner captions by stepping past its own
video's later captions, and its cosines are one gather of the partners and
one dot against the row's caption, scattered back to their sampled
positions.  Beyond O(captions x dim) for the embeddings, the memory is the
seeded permutation of all pair ordinals (4 bytes a pair, int32, freed once
the kept prefix is copied) and O(DEFAULT_PAIR_CAP) for the kept pairs; a
row's gather is at most one copy of the embeddings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Corpus, VideoRecord
from .errors import NumericError, ValidationError
from .matching import similarity_matrix
from .numerics import NORM_GUARD, RngStream, l2_normalize_rows
from .prototypes import HeadParameters, embed_texts, embed_videos, head_forward

DEFAULT_BINS = 40
DEFAULT_PAIR_CAP = 1_000_000


@dataclass(eq=False)
class AmbiguityStats:
    bin_edges: np.ndarray  # (bins + 1,) fixed over [-1, 1]
    inter_hist: np.ndarray  # (bins,) pair counts
    min_intra: list[tuple[str, float]]  # (video_id, min intra-pair cosine)
    mean_inter: float
    fraction_below: float  # share of multi-caption videos with min intra < mean inter


def _inter_video_pairs(
    siblings_after: np.ndarray, pair_cap: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordinals of the sampled caption pairs (i, j), i < j, of different videos.

    siblings_after[i] counts the captions after i that describe i's video.
    The pairs are numbered in row-major upper-triangle order, skipping the
    same-video ones.  At most pair_cap of them are kept: the first pair_cap
    ordinals of a seeded permutation of all of them, else all.  Returns
    (ordinals, starts, position) with the kept ordinals ascending, starts[i]
    the ordinal of row i's first pair, and position[p] the index of kept
    pair p in the permutation prefix.  When every pair is kept, in order,
    position is the ordinals array itself.
    """
    n = siblings_after.shape[0]
    row_pairs = (n - 1 - np.arange(n)) - siblings_after
    starts = np.cumsum(row_pairs) - row_pairs
    total = int(starts[-1] + row_pairs[-1])
    if total <= pair_cap:
        ordinals = np.arange(total)
        return ordinals, starts, ordinals
    permuted = RngStream(seed).permutation(total)
    kept = permuted[:pair_cap].copy()
    del permuted
    position = np.argsort(kept)
    return kept[position], starts, position


def intra_inter_stats(
    corpus: Corpus, params: HeadParameters | None = None, seed: int = 0
) -> AmbiguityStats:
    """Cosine statistics of caption pairs within and across videos.

    Uses raw text features by default; pass params to compare captions in
    the learned joint embedding space instead.  Inter-video pairs beyond
    DEFAULT_PAIR_CAP, read at call time, are subsampled uniformly
    (seeded); the histogram only needs the distribution's shape.
    """
    if corpus.num_videos < 2:
        raise ValidationError("inter-video statistics need at least 2 videos")
    features = corpus.features
    unit = l2_normalize_rows(features) if params is None else embed_texts(features, params)

    # captions grouped by video, corpus order within each group
    order, bounds = corpus.caption_order, corpus.caption_starts
    min_intra: list[tuple[str, float]] = []
    upper: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # caption count -> its pairs
    for v in np.flatnonzero(np.diff(bounds) >= 2).tolist():
        rows = order[bounds[v] : bounds[v + 1]]
        n_rows = len(rows)
        if n_rows not in upper:
            upper[n_rows] = np.triu_indices(n_rows, k=1)
        sims = unit[rows] @ unit[rows].T
        pair_min = sims[upper[n_rows]].min()
        min_intra.append((corpus.video_ids[v], float(pair_min)))
    if not min_intra:
        raise ValidationError(
            "intra-video similarity is undefined: every video has a single caption"
        )

    slot = np.empty(corpus.num_texts, np.intp)  # each caption's position in order
    slot[order] = np.arange(corpus.num_texts)
    siblings_after = (bounds[corpus.text_video + 1] - 1) - slot
    ordinals, starts, position = _inter_video_pairs(siblings_after, DEFAULT_PAIR_CAP, seed)
    # One row of pairs at a time: "pd,d->p" runs the same per-pair dot kernel
    # as "pd,pd->p", so each cosine keeps its bits.  Scattered back to the
    # sampled order, the mean sums in the same order too.
    inter = np.empty(ordinals.shape[0])
    row_bounds = np.append(np.searchsorted(ordinals, starts), ordinals.shape[0])
    for row in np.flatnonzero(np.diff(row_bounds)).tolist():
        start, stop = row_bounds[row], row_bounds[row + 1]
        later = order[slot[row] + 1 : slot[row] + 1 + siblings_after[row]]
        # the pair of rank r in the row skips the row's own video: j is
        # row + 1 + r plus the count of later siblings k with
        # later[k] - k <= row + 1 + r, as later[k] - row - 1 - k captions of
        # other videos come between the row and later[k]
        j = row + 1 + (ordinals[start:stop] - starts[row])
        j += np.searchsorted(later - np.arange(later.shape[0]), j, side="right")
        inter[position[start:stop]] = np.einsum("pd,d->p", unit[j], unit[row])

    edges = np.linspace(-1.0, 1.0, DEFAULT_BINS + 1)
    hist, _ = np.histogram(np.clip(inter, -1.0, 1.0), bins=edges)
    mean_inter = float(inter.mean())
    below = sum(1 for _, v in min_intra if v < mean_inter)
    return AmbiguityStats(edges, hist, min_intra, mean_inter, below / len(min_intra))


def write_ambiguity_csvs(stats: AmbiguityStats, out_dir: str | Path) -> None:
    """inter_hist.csv, min_intra.csv, summary.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["bin_left,bin_right,count"]
    edges = stats.bin_edges.tolist()  # Python floats: numpy >= 2 scalars repr as np.float64(...)
    for b in range(stats.inter_hist.shape[0]):
        lines.append(f"{edges[b]!r},{edges[b + 1]!r},{int(stats.inter_hist[b])}")
    (out / "inter_hist.csv").write_text("\n".join(lines) + "\n")
    lines = ["video_id,value"]
    for video_id, value in stats.min_intra:
        lines.append(f"{video_id},{value!r}")
    (out / "min_intra.csv").write_text("\n".join(lines) + "\n")
    summary = {"mean_inter": stats.mean_inter, "fraction_below": stats.fraction_below}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def export_mask_heatmaps(video: VideoRecord, params: HeadParameters, path: str | Path) -> None:
    """Mask values as a (K rows x B columns) CSV plus a row-normalized twin.

    The raw file holds the mask head's relu masks for this video exactly.
    The twin (suffix `_normalized`) divides each prototype's row by its sum
    so rows compare as attention profiles; all-zero rows stay zero.  The
    masks do not read the projection, so a projection that overflows is
    ignored; masks that are not all finite raise NumericError before any
    file is written.
    """
    heat = head_forward(video.tokens[None], params).masks[0].T  # (K, B)
    if not np.isfinite(heat).all():
        raise NumericError(f"the head gives non-finite masks for video {video.video_id!r}")
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


def prototype_diversity(
    corpus: Corpus, params: HeadParameters, variant: str = "mask"
) -> tuple[float, float]:
    """(mean pairwise cosine of learned prototypes, mean per-token mask std).

    The cosine is averaged per video over its prototype pairs in the
    learned embedding space (class-token row excluded), then over videos:
    lower means more diverse prototypes.  A prototype whose masks are all
    zero has no direction, so pairs involving it are undefined and skipped;
    a video needs two live prototypes to contribute.  The mask std pools
    each token position's mask values across videos and prototypes,
    mirroring what the variance regularizer pushes on, then averages over
    token positions.  Both read the mask head, so a head of any other
    variant raises ValidationError: a part head's mask_w and mask_b are
    untrained.  A head whose video embeddings are not all finite raises
    NumericError, as embed_videos does.
    """
    if variant != "mask":
        raise ValidationError(f"prototype diversity reads learned masks; a {variant} head has none")
    k = params.n_prototypes
    if k < 2:
        raise ValidationError(f"prototype diversity needs at least 2 prototypes, got {k}")
    cache = head_forward(corpus.tokens, params)
    if not np.isfinite(cache.sq_norms).all():  # NaN rows would read as dead masks
        raise NumericError("the head gives non-finite video embeddings; nothing to compare")
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


def matching_purity(corpus: Corpus, params: HeadParameters, variant: str = "mask") -> float:
    """How cleanly captions split over prototypes along event lines.

    Each caption is matched against its own video's K+1 prototypes only,
    one stacked similarity_matrix pair per caption, and the winner (the
    lowest index on a tie, as in scoring) puts it in that video's group
    for the prototype; a group's hits are the count of its most common
    event label.
    Purity is total hits over total captions.  1.0 means every prototype
    serves captions of a single event; a head that routes everything
    through one prototype scores the frequency of the most common event.
    Requires event labels on every caption (synthetic corpora have them).
    variant is the head variant whose prototypes are matched, as in
    evaluate.
    """
    if any(label is None for label in corpus.event_labels):
        raise ValidationError("matching purity needs an event label on every caption")
    video_embedded = embed_videos(corpus.tokens, params, variant)
    text_embedded = embed_texts(corpus.features, params)

    own = similarity_matrix(text_embedded[:, None, :], video_embedded[corpus.text_video, None])
    winners = own.winners[:, 0, 0]
    _, labels = np.unique(corpus.event_labels, return_inverse=True)
    counts = np.zeros((corpus.num_videos, video_embedded.shape[1], labels.max() + 1), np.intp)
    np.add.at(counts, (corpus.text_video, winners, labels), 1)
    return int(counts.max(axis=2).sum()) / corpus.num_texts
