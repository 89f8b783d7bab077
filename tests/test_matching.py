"""Max-over-prototypes similarity, from one pair to full matrices, and its VJP."""

import numpy as np
import pytest

from protomatch import matching
from protomatch.errors import ShapeError, ValidationError
from protomatch.matching import (
    SimilarityMatrix,
    prototype_scores,
    similarity_matrix,
    similarity_vjp,
)
from protomatch.numerics import RngStream, finite_diff_check, l2_normalize_rows
from protomatch.prototypes import embed_texts, embed_videos

from conftest import make_head, unit


def _einsum_similarity_oracle(text_embedded, video_embedded):
    """Reference forward: per-prototype scores by einsum, then max."""
    per_proto = np.einsum("td,vkd->tvk", text_embedded, video_embedded)
    winners = per_proto.argmax(axis=2)
    scores = np.take_along_axis(per_proto, winners[:, :, None], axis=2)[:, :, 0]
    return SimilarityMatrix(scores, winners.astype(np.int64))


def _scatter_vjp_oracle(grad_scores, text_embedded, video_embedded, winners):
    """Reference VJP: gather each pair's winning row, scatter-add with np.add.at."""
    n_texts, n_videos = grad_scores.shape
    video_index = np.broadcast_to(np.arange(n_videos), (n_texts, n_videos))
    winning_rows = video_embedded[video_index, winners]  # (T, V, D_e)
    grad_text = np.einsum("tv,tvd->td", grad_scores, winning_rows)
    grad_video = np.zeros_like(video_embedded)
    contrib = grad_scores[:, :, None] * text_embedded[:, None, :]  # (T, V, D_e)
    np.add.at(grad_video, (video_index, winners), contrib)
    return grad_text, grad_video


def _pair_score(text, rows):
    """Score and winner of one text against one video's prototype rows."""
    sim = similarity_matrix(text[None, :], rows[None, :, :])
    return sim.scores[0, 0], sim.winners[0, 0]


# ---------------------------------------------------------------------------
# a single prototype row: the plain inner product
# ---------------------------------------------------------------------------


def test_self_similarity_is_one():
    v = unit([1.0, 2.0, 2.0])
    assert _pair_score(v, v[None, :])[0] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_similarity_is_zero():
    assert _pair_score(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))[0] == 0.0


def test_antipodal_similarity_is_minus_one():
    v = unit([0.6, 0.8])
    assert _pair_score(v, -v[None, :])[0] == pytest.approx(-1.0, abs=1e-12)


def test_base_similarity_dim_mismatch():
    with pytest.raises(ShapeError):
        _pair_score(np.zeros(3), np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# max over one video's prototypes
# ---------------------------------------------------------------------------


def test_direct_max_picks_second_prototype():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    score, winner = _pair_score(np.array([0.6, 0.8]), protos)
    assert score == pytest.approx(0.8, abs=1e-15)
    assert winner == 1


def test_single_prototype_equals_base_similarity():
    rng = RngStream(0)
    text = unit(rng.normal(4))
    proto = unit(rng.normal(4))
    score, winner = _pair_score(text, proto[None, :])
    assert winner == 0
    assert score == float(np.dot(text, proto))


def test_matches_brute_force_loop_over_prototypes():
    for seed in range(50):
        rng = RngStream(seed)
        text = unit(rng.normal(6))
        protos = l2_normalize_rows(rng.normal((5, 6)))  # 4 learned + class
        score, winner = _pair_score(text, protos)
        dots = [float(np.dot(text, protos[k])) for k in range(5)]
        # one matmul and a per-row dot loop may round apart in the last bit
        assert abs(score - max(dots)) <= 2 * np.finfo(np.float64).eps
        assert winner == dots.index(max(dots))


def test_tie_breaks_toward_lowest_index():
    text = np.array([1.0, 0.0])
    protos = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    score, winner = _pair_score(text, protos)
    assert (score, winner) == (1.0, 1)


def test_row_permutation_preserves_score_and_maps_winner():
    rng = RngStream(3)
    text = unit(rng.normal(5))
    protos = l2_normalize_rows(rng.normal((4, 5)))
    score, winner = _pair_score(text, protos)
    perm = np.array([2, 0, 3, 1])
    p_score, p_winner = _pair_score(text, protos[perm])
    assert p_score == score
    assert perm[p_winner] == winner


def test_empty_prototype_set_rejected():
    with pytest.raises(ValidationError):
        _pair_score(np.zeros(3), np.zeros((0, 3)))


def test_superset_monotonicity_1000_cases():
    rng = RngStream(42)
    for _ in range(1000):
        text = unit(rng.normal(4))
        protos = l2_normalize_rows(rng.normal((3, 4)))
        extra = l2_normalize_rows(rng.normal((1, 4)))
        base, _ = _pair_score(text, protos)
        grown, _ = _pair_score(text, np.vstack([protos, extra]))
        assert grown >= base


# ---------------------------------------------------------------------------
# similarity_matrix
# ---------------------------------------------------------------------------


def test_one_by_one_matrix_is_inner_product():
    head = make_head(0, 8, 7, 6, seed=1)
    tokens = RngStream(5).normal((1, 9, 8))
    feats = RngStream(6).normal((1, 7))
    videos = embed_videos(tokens, head)
    texts = embed_texts(feats, head)
    sim = similarity_matrix(texts, videos)
    assert sim.scores.shape == (1, 1)
    assert sim.scores[0, 0] == float(np.dot(texts[0], videos[0, 0]))
    assert sim.winners[0, 0] == 0


def test_text_equal_to_a_prototype_scores_one():
    videos = np.zeros((1, 3, 4))
    videos[0, 0] = unit([1.0, 1.0, 0.0, 0.0])
    videos[0, 1] = unit([0.0, 0.0, 3.0, 4.0])
    videos[0, 2] = unit([1.0, 0.0, 0.0, 1.0])
    texts = videos[0, 1][None, :]
    sim = similarity_matrix(texts, videos)
    assert sim.scores[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sim.winners[0, 0] == 1


def test_matrix_matches_double_loop_oracle():
    rng = RngStream(7)
    texts = l2_normalize_rows(rng.normal((3, 5)))
    videos = np.stack([l2_normalize_rows(rng.normal((4, 5))) for _ in range(3)])
    sim = similarity_matrix(texts, videos)
    eps = np.finfo(np.float64).eps
    for t in range(3):
        for v in range(3):
            dots = [float(np.dot(texts[t], videos[v, k])) for k in range(4)]
            # the batched matmul and the per-row dot loop may round differently
            # in the last bit; anything beyond 2 ulps is a real bug
            assert abs(sim.scores[t, v] - max(dots)) <= 2 * eps
            assert sim.winners[t, v] == dots.index(max(dots))


def test_scores_stay_within_unit_interval():
    for seed in range(5):
        rng = RngStream(seed)
        texts = l2_normalize_rows(rng.normal((6, 5)))
        videos = np.stack([l2_normalize_rows(rng.normal((3, 5))) for _ in range(4)])
        sim = similarity_matrix(texts, videos)
        assert np.all(sim.scores <= 1.0 + 1e-9) and np.all(sim.scores >= -1.0 - 1e-9)
        assert np.all(sim.winners >= 0) and np.all(sim.winners <= 2)


# ---------------------------------------------------------------------------
# VJP of the max-matching score
# ---------------------------------------------------------------------------


def test_similarity_vjp_matches_finite_differences_away_from_ties():
    for seed in range(10):
        rng = RngStream(seed)
        texts0 = l2_normalize_rows(rng.normal((3, 5)))
        videos0 = np.stack([l2_normalize_rows(rng.normal((4, 5))) for _ in range(3)])
        probe = rng.normal((3, 3))
        # the winner set must be stable in the perturbation neighborhood
        per_proto = prototype_scores(texts0, videos0)
        sorted_scores = np.sort(per_proto, axis=2)
        if (sorted_scores[:, :, -1] - sorted_scores[:, :, -2]).min() < 1e-3:
            continue

        def fn(values):
            sim = similarity_matrix(values["texts"], values["videos"])
            grad_text, grad_video = similarity_vjp(
                probe, values["texts"], values["videos"], sim.winners
            )
            return float((sim.scores * probe).sum()), {
                "texts": grad_text,
                "videos": grad_video,
            }

        err = finite_diff_check(fn, {"texts": texts0.copy(), "videos": videos0.copy()})
        assert err < 1e-5


def test_vjp_at_tie_follows_lowest_index_branch():
    texts = np.array([[1.0, 0.0]])
    videos = np.array([[[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]])  # rows 1 and 2 tied
    sim = similarity_matrix(texts, videos)
    grad_text, grad_video = similarity_vjp(np.ones((1, 1)), texts, videos, sim.winners)
    np.testing.assert_array_equal(grad_video[0, 1], texts[0])  # winner row only
    np.testing.assert_array_equal(grad_video[0, 2], 0.0)
    np.testing.assert_array_equal(grad_text[0], videos[0, 1])


def test_vjp_routes_nothing_to_losing_prototypes():
    rng = RngStream(9)
    texts = l2_normalize_rows(rng.normal((2, 4)))
    videos = np.stack([l2_normalize_rows(rng.normal((3, 4))) for _ in range(2)])
    sim = similarity_matrix(texts, videos)
    _, grad_video = similarity_vjp(np.ones((2, 2)), texts, videos, sim.winners)
    for v in range(2):
        winners_of_v = set(sim.winners[:, v].tolist())
        for k in range(3):
            if k not in winners_of_v:
                np.testing.assert_array_equal(grad_video[v, k], 0.0)


def _unit_stack(rng, n_videos, n_rows, dim):
    return np.stack([l2_normalize_rows(rng.normal((n_rows, dim))) for _ in range(n_videos)])


def _texts_near_rows(rng, rows, n_texts, noise):
    picks = rows[np.arange(n_texts) % len(rows)]
    return l2_normalize_rows(picks + noise * rng.normal(picks.shape))


def _dyadic(rng, shape):
    """Multiples of 1/8: every score below is exact in any summation order."""
    return np.round(8 * rng.normal(shape)) / 8


def _oracle_case(case, seed):
    """(texts, videos, text rows per similarity_matrix block or None for one block)."""
    rng = RngStream(seed)
    if case == "more_texts_than_videos":  # the CLI check's 4x3 shape
        return l2_normalize_rows(rng.normal((4, 6))), _unit_stack(rng, 3, 4, 6), None
    if case == "fewer_texts_than_videos":
        return l2_normalize_rows(rng.normal((5, 8))), _unit_stack(rng, 9, 3, 8), None
    if case == "single_row_baseline":  # K+1 = 1
        return l2_normalize_rows(rng.normal((7, 5))), _unit_stack(rng, 6, 1, 5), None
    if case == "duplicated_rows":
        videos = _unit_stack(rng, 6, 4, 5)
        videos[:, 3] = videos[:, 1]
        return _texts_near_rows(rng, videos[:, 1], 12, 0.3), videos, None
    if case == "many_texts_one_row":  # the pile-up np.add.at existed for
        videos = _unit_stack(rng, 2, 3, 6)
        return _texts_near_rows(rng, videos[:1, 2], 40, 0.05), videos, None
    if case == "blocks_with_remainder":  # 11 texts, at most 3 a block
        return _dyadic(rng, (11, 6)), _dyadic(rng, (5, 4, 6)), 3
    if case == "remainder_of_one":  # 10 texts, at most 3 a block: not 3 + 3 + 3 + 1
        return _dyadic(rng, (10, 6)), _dyadic(rng, (5, 4, 6)), 3
    if case == "duplicated_rows_across_blocks":  # exact ties in every block
        videos = _dyadic(rng, (6, 4, 5))
        videos[:, 3] = videos[:, 1]
        texts = videos[np.arange(12) % 6, 1] + _dyadic(rng, (12, 5)) / 4
        return texts, videos, 5
    if case == "single_row_blocks":  # K+1 = 1, 10 texts, at most 4 a block
        return _dyadic(rng, (10, 5)), _dyadic(rng, (7, 1, 5)), 4
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    [
        "more_texts_than_videos",
        "fewer_texts_than_videos",
        "single_row_baseline",
        "duplicated_rows",
        "many_texts_one_row",
        "blocks_with_remainder",
        "remainder_of_one",
        "duplicated_rows_across_blocks",
        "single_row_blocks",
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernels_match_einsum_and_scatter_oracles(case, seed, monkeypatch):
    texts, videos, block_rows = _oracle_case(case, seed)
    heights = []
    if block_rows is not None:
        n_videos, n_rows = videos.shape[:2]
        monkeypatch.setattr(matching, "_BLOCK_BYTES", block_rows * n_rows * n_videos * 8)
        assert texts.shape[0] > block_rows and texts.shape[0] % block_rows  # unequal heights
        block_scores = matching._block_scores

        def recording_block_scores(text_rows, *args, **kwargs):
            heights.append(text_rows.shape[0])
            return block_scores(text_rows, *args, **kwargs)

        monkeypatch.setattr(matching, "_block_scores", recording_block_scores)
    grad_scores = RngStream(seed + 50).normal((texts.shape[0], videos.shape[0]))
    sim = similarity_matrix(texts, videos)
    if block_rows is not None:
        # as few blocks as the budget allows, heights within one of each other
        assert len(heights) == -(-texts.shape[0] // block_rows)
        assert sum(heights) == texts.shape[0] and max(heights) - min(heights) <= 1
    ref = _einsum_similarity_oracle(texts, videos)
    np.testing.assert_array_equal(sim.winners, ref.winners)
    assert sim.winners.dtype == np.int64
    np.testing.assert_allclose(sim.scores, ref.scores, rtol=0, atol=1e-12)
    if block_rows is not None:
        np.testing.assert_array_equal(sim.scores, ref.scores)
    grad_text, grad_video = similarity_vjp(grad_scores, texts, videos, sim.winners)
    ref_text, ref_video = _scatter_vjp_oracle(grad_scores, texts, videos, ref.winners)
    np.testing.assert_allclose(grad_text, ref_text, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad_video, ref_video, rtol=0, atol=1e-12)
    if case.startswith("duplicated_rows"):
        assert (sim.winners == 1).any() and not (sim.winners == 3).any()
    if case == "many_texts_one_row":
        assert (sim.winners[:, 0] == 2).all()


def test_similarity_matrix_rejects_empty_prototype_stack():
    with pytest.raises(ValidationError):
        similarity_matrix(np.zeros((2, 3)), np.zeros((4, 0, 3)))


def test_similarity_matrix_rejects_width_mismatch():
    with pytest.raises(ShapeError):
        similarity_matrix(np.zeros((2, 3)), np.zeros((4, 2, 5)))


def test_vjp_rejects_winners_shape_mismatch():
    texts, videos = np.zeros((2, 3)), np.zeros((4, 2, 3))
    with pytest.raises(ShapeError):
        similarity_vjp(np.ones((2, 4)), texts, videos, np.zeros((2, 3), dtype=np.int64))


def test_vjp_rejects_embedding_width_mismatch():
    texts, videos = np.zeros((2, 3)), np.zeros((4, 2, 5))
    with pytest.raises(ShapeError):
        similarity_vjp(np.ones((2, 4)), texts, videos, np.zeros((2, 4), dtype=np.int64))
