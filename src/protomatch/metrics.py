"""Retrieval evaluation: ranks, R@K, median rank, recall sums, both directions.

Ranks are optimistic: rank = 1 + number of gallery items scoring strictly
higher than the best ground-truth item.  Video-to-text queries may have
several correct captions; the best-ranked one counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import Corpus
from .errors import ValidationError
from .matching import similarity_matrix
from .prototypes import HeadParameters, embed_texts, embed_videos

DIRECTIONS = ("text_to_video", "video_to_text")
REPORTED_KS = (1, 5, 10)


def recall_at_k(ranks: Sequence[int] | np.ndarray, k: int) -> float:
    """Percent of queries whose rank is at most k; ranks is an int array or a list."""
    if len(ranks) == 0:
        raise ValidationError("recall_at_k needs at least one rank")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return 100.0 * int(np.count_nonzero(np.asarray(ranks) <= k)) / len(ranks)


def median_rank(ranks: Sequence[int] | np.ndarray) -> float:
    """Middle rank; midpoint of the middle two for even counts.  ranks as in recall_at_k."""
    if len(ranks) == 0:
        raise ValidationError("median_rank needs at least one rank")
    return float(np.median(np.asarray(ranks)))


def sum_recalls(values: Iterable[float]) -> float:
    """Sum of reported recall percentages, exact at the reported precision.

    Recalls are short decimals (one digit after the point); accumulating
    them as binary floats drifts (36.2 + 64.2 + 75.7 sums to
    176.10000000000002).  Summing the printed decimal values and converting
    once yields the figure the reports actually state.
    """
    total = sum(Decimal(repr(float(v))) for v in values)
    return float(total)


@dataclass(frozen=True)
class DirectionReport:
    r_at: dict[int, float]  # k -> percent
    med_r: float


@dataclass(frozen=True)
class RetrievalReport:
    directions: dict[str, DirectionReport]  # keyed by DIRECTIONS entries
    sum_r: float

    def to_json_dict(self) -> dict:
        return {
            "directions": {
                name: {"r_at": {str(k): v for k, v in rep.r_at.items()}, "med_r": rep.med_r}
                for name, rep in self.directions.items()
            },
            "sum_r": self.sum_r,
        }

    def to_text_table(self) -> str:
        """Aligned table, columns R@1, R@5, R@10, MedR, plus a SumR line."""
        ks = sorted(next(iter(self.directions.values())).r_at)
        header = ["direction".ljust(15)] + [f"R@{k}".rjust(7) for k in ks] + ["MedR".rjust(7)]
        lines = ["".join(header)]
        for name, rep in self.directions.items():
            cells = [name.ljust(15)]
            cells += [f"{rep.r_at[k]:7.1f}" for k in ks]
            cells += [f"{rep.med_r:7.1f}"]
            lines.append("".join(cells))
        lines.append(f"SumR {self.sum_r:.1f}")
        return "\n".join(lines)


def ranks_from_scores(
    scores: np.ndarray, gt_per_query: Sequence[Iterable[int]]
) -> list[int]:
    """Rank of each query row given its ground-truth column set.

    The optimistic rank of the module docstring, for all rows at once: each
    row's best ground-truth score, then a count of the scores strictly above
    it.
    """
    if scores.shape[0] != len(gt_per_query):
        raise ValidationError(
            f"got {scores.shape[0]} score rows but {len(gt_per_query)} ground-truth sets"
        )
    gts = list(map(list, gt_per_query))
    n_items = scores.shape[1]
    for gt in gts:  # the first bad set raises
        if not gt:
            raise ValidationError("ranks_from_scores needs at least one ground-truth index")
        if any(not 0 <= g < n_items for g in gt):
            raise ValidationError(f"ground-truth indices {gt} outside gallery of {n_items}")
    rows = np.repeat(np.arange(len(gts)), list(map(len, gts)))
    cols = np.fromiter(chain.from_iterable(gts), np.intp, rows.size)
    return _ranks(scores, rows, cols).tolist()


def _ranks(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """ranks_from_scores with the ground truths as (row, column) pairs, every row in some."""
    best = np.full(scores.shape[0], -np.inf)
    np.maximum.at(best, rows, scores[rows, cols])
    return 1 + (scores > best[:, None]).sum(axis=1)


def evaluate(corpus: Corpus, params: HeadParameters, variant: str = "mask") -> RetrievalReport:
    """Retrieval metrics over a whole corpus in both directions.

    Text-to-video ranks each caption's true video among all videos;
    video-to-text ranks each video's best caption among all captions.
    sum_r adds every reported R@K across both directions.
    Raises NumericError when the head's text or video embeddings are not
    all finite.
    """
    video_embedded = embed_videos(corpus.tokens, params, variant)
    text_embedded = embed_texts(corpus.features, params)
    scores = similarity_matrix(text_embedded, video_embedded, winners=False).scores

    # (query, ground truth) pairs: each caption's video, each video's captions
    captions, videos = np.arange(corpus.num_texts), corpus.text_video
    reports: dict[str, DirectionReport] = {}
    for name, args in zip(DIRECTIONS, ((scores, captions, videos), (scores.T, videos, captions))):
        ranks = _ranks(*args)
        reports[name] = DirectionReport(
            {k: recall_at_k(ranks, k) for k in REPORTED_KS}, median_rank(ranks)
        )
    all_recalls = [rep.r_at[k] for rep in reports.values() for k in REPORTED_KS]
    return RetrievalReport(reports, sum_recalls(all_recalls))


def write_report(report: RetrievalReport, json_path: str | Path, text_path: str | Path) -> None:
    Path(json_path).write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    Path(text_path).write_text(report.to_text_table() + "\n")
