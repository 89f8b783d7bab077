"""Retrieval metrics: ranks, recalls, median rank, reports, full evaluation."""

import json

import numpy as np
import pytest

from protomatch.errors import NumericError, ValidationError
from protomatch.metrics import (
    evaluate,
    median_rank,
    ranks_from_scores,
    recall_at_k,
    sum_recalls,
    write_report,
)
from protomatch.numerics import RngStream
from protomatch.prototypes import init_head

from conftest import random_corpus


# ---------------------------------------------------------------------------
# ranks_from_scores, one query
# ---------------------------------------------------------------------------


def test_top_scoring_ground_truth_ranks_first():
    assert ranks_from_scores(np.array([[0.9, 0.1, 0.5]]), [{0}]) == [1]


def test_low_scoring_ground_truth_ranks_last():
    assert ranks_from_scores(np.array([[0.9, 0.1, 0.5]]), [{1}]) == [3]


def test_multi_positive_takes_best_ranked():
    assert ranks_from_scores(np.array([[0.9, 0.1, 0.5]]), [{1, 2}]) == [2]


def test_rank_validation():
    with pytest.raises(ValidationError):
        ranks_from_scores(np.array([[0.5, 0.2]]), [set()])
    with pytest.raises(ValidationError):
        ranks_from_scores(np.array([[0.5, 0.2]]), [{5}])


def test_optimistic_tie_handling():
    # equal scores do not outrank the ground truth
    assert ranks_from_scores(np.array([[0.5, 0.5, 0.5]]), [{2}]) == [1]


# ---------------------------------------------------------------------------
# recall_at_k / median_rank / sum_recalls
# ---------------------------------------------------------------------------


def test_recall_all_hits():
    assert recall_at_k([1, 1, 1], 1) == 100.0


def test_recall_two_of_three_within_ten():
    assert recall_at_k([2, 3, 11], 10) == pytest.approx(66.67, abs=0.005)


def test_recall_empty_rejected():
    with pytest.raises(ValidationError):
        recall_at_k([], 5)


def test_recall_k_below_one_rejected():
    with pytest.raises(ValidationError) as exc:
        recall_at_k([1], 0)
    assert str(exc.value) == "k must be >= 1, got 0"


def test_median_of_no_ranks_rejected():
    with pytest.raises(ValidationError) as exc:
        median_rank([])
    assert str(exc.value) == "median_rank needs at least one rank"


def test_recall_and_median_take_an_int_array_as_its_list():
    ranks = RngStream(3).integers(40, 101) + 1
    for k in (1, 5, 10, 41):
        assert recall_at_k(ranks, k) == recall_at_k(ranks.tolist(), k)
    assert median_rank(ranks) == median_rank(ranks.tolist())
    assert median_rank(ranks[1:]) == median_rank(ranks[1:].tolist())


def test_median_odd_and_even():
    assert median_rank([1, 2, 3]) == 2.0
    assert median_rank([2, 3]) == 2.5


def test_median_random_lists_match_sort_oracle():
    rng = RngStream(0)
    for _ in range(50):
        n = 1 + rng.integers(20)
        ranks = [1 + rng.integers(100) for _ in range(n)]
        ordered = sorted(ranks)
        if n % 2:
            expected = float(ordered[n // 2])
        else:
            expected = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
        assert median_rank(ranks) == expected


def test_sum_recalls_decimal_exact():
    assert sum_recalls([36.2, 64.2, 75.7, 34.8, 63.8, 73.7]) == 348.4
    assert sum_recalls([36.2, 64.2, 75.7]) == 176.1


# ---------------------------------------------------------------------------
# brute-force oracle over random score matrices
# ---------------------------------------------------------------------------


def brute_force_rank(scores: np.ndarray, gt: set[int]) -> int:
    # full sort, then position of the best ground-truth entry
    order = np.argsort(-scores, kind="stable")
    positions = [int(np.where(order == g)[0][0]) for g in gt]
    best = min(positions)
    # entries tied with the ground truth but sorted ahead of it do not count
    target = scores[order[best]]
    ahead = sum(1 for i in range(best) if scores[order[i]] > target)
    return ahead + 1


def test_metrics_match_brute_force_oracle_on_200_matrices():
    rng = RngStream(123)
    for _ in range(200):
        n_q = 1 + rng.integers(50)
        n_g = 1 + rng.integers(50)
        scores = rng.normal((n_q, n_g))
        gt = []
        for _q in range(n_q):
            size = 1 + rng.integers(min(3, n_g))
            picks = set(int(rng.integers(n_g)) for _ in range(size))
            gt.append(picks)
        ranks = ranks_from_scores(scores, gt)
        oracle = [brute_force_rank(scores[q], gt[q]) for q in range(n_q)]
        assert ranks == oracle
        for k in (1, 5, 10):
            expected = 100.0 * sum(r <= k for r in oracle) / n_q
            assert recall_at_k(ranks, k) == expected
        assert median_rank(ranks) == float(np.median(oracle))


def test_ranks_match_brute_force_oracle_on_tied_matrices():
    rng = RngStream(321)
    for _ in range(200):
        n_q = 1 + rng.integers(40)
        n_g = 1 + rng.integers(40)
        scores = np.round(0.3 * rng.normal((n_q, n_g)), 1)  # a few distinct values
        gt_rows = [set(int(rng.integers(n_g)) for _ in range(1 + rng.integers(min(4, n_g))))
                   for _ in range(n_q)]
        gt_cols = [set(int(rng.integers(n_q)) for _ in range(1 + rng.integers(min(4, n_q))))
                   for _ in range(n_g)]
        assert ranks_from_scores(scores, gt_rows) == [
            brute_force_rank(scores[q], gt_rows[q]) for q in range(n_q)
        ]
        # the video-to-text direction ranks over a transposed view
        assert ranks_from_scores(scores.T, gt_cols) == [
            brute_force_rank(scores[:, g], gt_cols[g]) for g in range(n_g)
        ]


def test_ranks_from_scores_reports_first_bad_set():
    outside = r"^ground-truth indices \[{}\] outside gallery of 2$"
    for scores in (np.zeros((3, 2)), np.zeros((2, 3)).T):  # rows, and a transposed view
        with pytest.raises(ValidationError,
                           match="^ranks_from_scores needs at least one ground-truth index$"):
            ranks_from_scores(scores, [{0}, set(), {5}])
        with pytest.raises(ValidationError, match=outside.format(5)):
            ranks_from_scores(scores, [{0}, {5}, set()])
        with pytest.raises(ValidationError, match=outside.format(-1)):
            ranks_from_scores(scores, [{0}, {1}, {-1}])
        with pytest.raises(ValidationError, match=outside.format("1, 2")):
            ranks_from_scores(scores, [[0], [1, 2], [1]])  # the gallery size itself
        with pytest.raises(ValidationError, match=outside.format(2**70)):
            ranks_from_scores(scores, [[0], [1], [2**70]])  # beyond any index array
        with pytest.raises(ValidationError, match=outside.format("0, -1")):
            ranks_from_scores(scores, [iter([1]), iter([0, -1]), iter([])])  # any iterables
        with pytest.raises(ValidationError, match="got 3 score rows but 2 ground-truth sets"):
            ranks_from_scores(scores, [{0}, {1}])


def test_recall_monotone_in_k():
    rng = RngStream(9)
    for _ in range(20):
        ranks = [1 + rng.integers(30) for _ in range(15)]
        values = [recall_at_k(ranks, k) for k in (1, 5, 10)]
        assert values[0] <= values[1] <= values[2]


def test_metrics_invariant_under_strictly_increasing_transform():
    rng = RngStream(10)
    scores = rng.normal((8, 12))
    gt = [{int(rng.integers(12))} for _ in range(8)]
    base = ranks_from_scores(scores, gt)
    transformed = ranks_from_scores(np.tanh(scores) * 3.0 + 1.0, gt)
    assert base == transformed


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def make_eval_setup(num_videos=6, captions_per_video=2, seed=0):
    corpus = random_corpus(
        num_videos=num_videos, captions_per_video=captions_per_video, seed=seed
    )
    params = init_head(2, 8, 7, 6, RngStream(seed, stream=0))
    return corpus, params


def test_identity_like_scores_are_perfect():
    # each caption copies its video's class token through a shared projection,
    # so every text scores ~1 on its own video and strictly less elsewhere
    from protomatch.dataset import Corpus, TextRecord, VideoRecord

    rng = RngStream(3)
    dim, n_tokens = 6, 4
    videos, texts = [], []
    for v in range(5):
        tokens = rng.normal((n_tokens, dim))
        videos.append(VideoRecord(f"v{v}", tokens))
        texts.append(TextRecord(f"v{v}_t0", f"v{v}", tokens[0].copy()))
    corpus = Corpus(videos, texts, (n_tokens, dim, dim))
    params = init_head(2, dim, dim, dim, RngStream(4, stream=0))
    params.tproj_w.value[:] = params.vproj_w.value
    report = evaluate(corpus, params)
    for direction in ("text_to_video", "video_to_text"):
        rep = report.directions[direction]
        assert rep.r_at == {1: 100.0, 5: 100.0, 10: 100.0}
        assert rep.med_r == 1.0
    assert report.sum_r == 600.0


def test_single_video_single_text_is_all_perfect():
    corpus, params = make_eval_setup(num_videos=1, captions_per_video=1)
    report = evaluate(corpus, params)
    for rep in report.directions.values():
        assert rep.r_at == {1: 100.0, 5: 100.0, 10: 100.0}
        assert rep.med_r == 1.0
    assert report.sum_r == 600.0


def test_report_structure_and_sum():
    corpus, params = make_eval_setup()
    report = evaluate(corpus, params)
    assert set(report.directions) == {"text_to_video", "video_to_text"}
    recalls = [
        rep.r_at[k] for rep in report.directions.values() for k in (1, 5, 10)
    ]
    assert report.sum_r == sum_recalls(recalls)
    for rep in report.directions.values():
        assert rep.r_at[1] <= rep.r_at[5] <= rep.r_at[10] <= 100.0
        assert rep.med_r >= 1.0


@pytest.mark.filterwarnings("error")  # overflow is reported as the error, not as warnings
@pytest.mark.parametrize(
    "tensor, value, side",
    [("tproj_w", np.nan, "text"), ("mask_w", np.nan, "video"), ("vproj_w", 1e308, "video")],
    ids=["nan_text_projection", "nan_masks", "overflowing_video_projection"],
)
def test_non_finite_embeddings_raise_instead_of_a_perfect_score(tensor, value, side):
    # with NaN scores no gallery item scores strictly above the ground truth,
    # which would read as R@1 = 100 in both directions
    corpus, params = make_eval_setup()
    getattr(params, tensor).value[:] = value
    with pytest.raises(NumericError) as exc:
        evaluate(corpus, params)
    assert str(exc.value) == f"the head gives non-finite {side} embeddings; nothing to rank"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tensor, side", [("tproj_w", "text"), ("vproj_w", "video")])
def test_overflowing_squared_norms_raise_instead_of_zero_rows(tensor, side):
    # rows near 1e160 are finite, but their squared norms overflow: they would
    # normalize to all-zero rows, with no warning, and rank as ties
    corpus, params = make_eval_setup()
    assert evaluate(corpus, params).sum_r < 600.0
    getattr(params, tensor).value[:] *= 1e160
    with pytest.raises(NumericError) as exc:
        evaluate(corpus, params)
    assert str(exc.value) == f"the head gives non-finite {side} embeddings; nothing to rank"


def test_video_to_text_scores_best_caption():
    # one caption placed exactly at a prototype direction dominates a noise
    # caption of the same video; the video's rank uses the better one
    corpus, params = make_eval_setup(num_videos=4, captions_per_video=3, seed=5)
    report = evaluate(corpus, params)
    v2t = report.directions["video_to_text"]
    t2v = report.directions["text_to_video"]
    # more candidate captions per video can only help the video direction
    assert v2t.med_r <= corpus.num_texts
    assert t2v.med_r <= corpus.num_videos


def test_write_report_json_and_table(tmp_path):
    corpus, params = make_eval_setup()
    report = evaluate(corpus, params)
    write_report(report, tmp_path / "report.json", tmp_path / "report.txt")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["sum_r"] == report.sum_r
    assert set(payload["directions"]) == {"text_to_video", "video_to_text"}
    table = (tmp_path / "report.txt").read_text()
    assert "R@1" in table and "MedR" in table and "SumR" in table
    assert f"SumR {report.sum_r:.1f}" in table
