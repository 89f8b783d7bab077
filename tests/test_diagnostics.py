"""Caption ambiguity statistics, mask heatmap export, prototype diversity."""

import json

import numpy as np
import pytest

from protomatch import diagnostics
from protomatch.dataset import Corpus, SynthConfig, TextRecord, VideoRecord, synth_corpus
from protomatch.diagnostics import (
    DEFAULT_BINS,
    AmbiguityStats,
    _inter_video_pairs,
    export_mask_heatmaps,
    intra_inter_stats,
    matching_purity,
    prototype_diversity,
    write_ambiguity_csvs,
)
from protomatch.errors import NumericError, ValidationError
from protomatch.numerics import RngStream, l2_normalize_rows
from protomatch.prototypes import embed_texts, embed_videos, head_forward, init_head

from conftest import make_head, random_corpus, unit


def corpus_from_features(per_video: dict[str, list[np.ndarray]], text_dim: int) -> Corpus:
    """Tiny corpus with dummy tokens and hand-picked caption features."""
    rng = RngStream(99)
    videos, texts = [], []
    for vid, feats in per_video.items():
        videos.append(VideoRecord(vid, rng.normal((3, 4))))
        for c, f in enumerate(feats):
            texts.append(TextRecord(f"{vid}_t{c}", vid, np.asarray(f, dtype=np.float64)))
    return Corpus(videos, texts, (3, 4, text_dim))


# ---------------------------------------------------------------------------
# intra_inter_stats
# ---------------------------------------------------------------------------


def test_identical_captions_have_min_intra_one():
    cap = unit([1.0, 2.0, 3.0])
    corpus = corpus_from_features(
        {"a": [cap, cap.copy()], "b": [unit([1.0, 0.0, 0.0])]}, text_dim=3
    )
    stats = intra_inter_stats(corpus)
    (video_id, value) = stats.min_intra[0]
    assert video_id == "a"
    # normalization guard shaves ~2e-12 off perfect alignment
    assert value == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_cross_video_captions_give_zero_inter():
    corpus = corpus_from_features(
        {"a": [np.array([1.0, 0.0]), np.array([1.0, 0.0])],
         "b": [np.array([0.0, 1.0]), np.array([0.0, 1.0])]},
        text_dim=2,
    )
    stats = intra_inter_stats(corpus)
    assert stats.mean_inter == pytest.approx(0.0, abs=1e-12)


def test_all_single_caption_videos_rejected():
    corpus = corpus_from_features(
        {"a": [np.array([1.0, 0.0])], "b": [np.array([0.0, 1.0])]}, text_dim=2
    )
    with pytest.raises(ValidationError):
        intra_inter_stats(corpus)


def test_single_video_corpus_rejected():
    corpus = corpus_from_features(
        {"a": [np.array([1.0, 0.0]), np.array([0.0, 1.0])]}, text_dim=2
    )
    with pytest.raises(ValidationError):
        intra_inter_stats(corpus)


def test_stats_match_brute_force_oracle():
    corpus = synth_corpus(SynthConfig(num_videos=10, seed=2))
    stats = intra_inter_stats(corpus)
    feats = np.stack([t.features for t in corpus.texts])
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    owner = [t.video_id for t in corpus.texts]
    sims = feats @ feats.T
    inter = [
        sims[i, j]
        for i in range(len(owner))
        for j in range(i + 1, len(owner))
        if owner[i] != owner[j]
    ]
    assert stats.mean_inter == pytest.approx(float(np.mean(inter)), abs=1e-12)
    assert stats.inter_hist.sum() == len(inter)
    below = 0
    mins = dict(stats.min_intra)
    for video in corpus.videos:
        idx = corpus.texts_of(video.video_id)
        expected_min = min(
            sims[a, b] for ai, a in enumerate(idx) for b in idx[ai + 1 :]
        )
        assert mins[video.video_id] == pytest.approx(expected_min, abs=1e-12)
        below += expected_min < stats.mean_inter
    assert stats.fraction_below == below / corpus.num_videos


def test_stats_invariant_under_caption_reordering():
    corpus = synth_corpus(SynthConfig(num_videos=6, seed=3))
    reordered = Corpus(corpus.videos, list(reversed(corpus.texts)), corpus.dims)
    a = intra_inter_stats(corpus)
    b = intra_inter_stats(reordered)
    assert a.mean_inter == pytest.approx(b.mean_inter, abs=1e-12)
    assert a.fraction_below == b.fraction_below
    assert dict(a.min_intra) == pytest.approx(dict(b.min_intra), abs=1e-12)


def test_projected_space_differs_from_raw():
    corpus = synth_corpus(SynthConfig(num_videos=6, seed=4))
    params = init_head(2, corpus.dims[1], corpus.dims[2], 5, RngStream(0, stream=0))
    raw = intra_inter_stats(corpus)
    projected = intra_inter_stats(corpus, params=params)
    assert raw.mean_inter != projected.mean_inter


@pytest.mark.filterwarnings("error")  # overflow is reported as the error, not as warnings
def test_overflowing_text_projection_raises_instead_of_nan_stats():
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=4))
    params = init_head(2, corpus.dims[1], corpus.dims[2], 5, RngStream(0, stream=0))
    params.tproj_w.value[:] = 1e308
    with pytest.raises(NumericError, match="non-finite text embeddings"):
        intra_inter_stats(corpus, params=params)


def test_subsampling_caps_inter_pair_count(monkeypatch):
    monkeypatch.setattr(diagnostics, "DEFAULT_PAIR_CAP", 50)
    corpus = synth_corpus(SynthConfig(num_videos=12, seed=5))
    stats = intra_inter_stats(corpus)
    assert stats.inter_hist.sum() == 50


def _triu_pairs_oracle(video_of, pair_cap, seed):
    """Every upper-triangle caption pair listed, same-video pairs masked out,
    then pair_cap of them picked by a seeded permutation of all of them."""
    i_idx, j_idx = np.triu_indices(video_of.shape[0], k=1)
    keep = video_of[i_idx] != video_of[j_idx]
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if i_idx.shape[0] > pair_cap:
        pick = RngStream(seed).permutation(i_idx.shape[0])[:pair_cap]
        i_idx, j_idx = i_idx[pick], j_idx[pick]
    return i_idx, j_idx


def _triu_stats_oracle(corpus, params, pair_cap, seed):
    """intra_inter_stats from listed pairs, per-video masks and 8192-pair gathers."""
    features = np.stack([t.features for t in corpus.texts])
    unit = embed_texts(features, params) if params is not None else l2_normalize_rows(features)
    video_index = {v.video_id: i for i, v in enumerate(corpus.videos)}
    video_of = np.array([video_index[t.video_id] for t in corpus.texts])
    min_intra = []
    for vi, video in enumerate(corpus.videos):
        rows = np.flatnonzero(video_of == vi)
        if rows.shape[0] >= 2:
            sims = (unit[rows] @ unit[rows].T)[np.triu_indices(rows.shape[0], k=1)]
            min_intra.append((video.video_id, float(sims.min())))
    i_idx, j_idx = _triu_pairs_oracle(video_of, pair_cap, seed)
    inter = np.empty(i_idx.shape[0])
    for start in range(0, i_idx.shape[0], 8192):
        pairs = slice(start, start + 8192)
        inter[pairs] = np.einsum("pd,pd->p", unit[i_idx[pairs]], unit[j_idx[pairs]])
    edges = np.linspace(-1.0, 1.0, DEFAULT_BINS + 1)
    hist, _ = np.histogram(np.clip(inter, -1.0, 1.0), bins=edges)
    mean_inter = float(inter.mean())
    below = sum(1 for _, v in min_intra if v < mean_inter)
    return AmbiguityStats(edges, hist, min_intra, mean_inter, below / len(min_intra))


def _ragged_corpus(seed):
    """2-15 videos of 0-5 captions each (the first two of at least 2 and 1),
    captions stored video by video for even seeds and shuffled for odd ones.
    The corpus holds the captioned videos only; counts keeps the zeros, and
    each caption's video number is in its id."""
    rng = RngStream(seed, stream=3)
    n_videos = 2 + int(rng.integers(14))
    counts = rng.integers(6, n_videos)
    counts[0], counts[1] = max(counts[0], 2), max(counts[1], 1)
    videos, texts = [], []
    for v, count in enumerate(counts):
        videos.append(VideoRecord(f"v{v}", rng.normal((3, 4))))
        for c in range(count):
            texts.append(TextRecord(f"v{v}_t{c}", f"v{v}", rng.normal((6,))))
    if seed % 2:
        texts = [texts[k] for k in rng.permutation(len(texts))]
    captioned = [video for video, count in zip(videos, counts) if count]
    return Corpus(captioned, texts, (3, 4, 6)), counts


def _sampled_pairs_in_permutation_order(video_of, pair_cap, seed):
    """_inter_video_pairs' ordinals as pairs of the oracle's full listing,
    scattered back to their sampled positions, after checking that the
    ordinals ascend, that starts holds each caption row's first ordinal and
    that position is a permutation."""
    n = video_of.shape[0]
    siblings_after = np.array([np.sum(video_of[c + 1 :] == video_of[c]) for c in range(n)])
    ordinals, starts, position = _inter_video_pairs(siblings_after, pair_cap, seed)
    assert np.all(np.diff(ordinals) > 0)
    listed_i, listed_j = _triu_pairs_oracle(video_of, n * n, seed)
    assert np.array_equal(starts, np.searchsorted(listed_i, np.arange(n)))
    i_idx, j_idx = listed_i[ordinals], listed_j[ordinals]
    if position is None:
        return i_idx, j_idx
    assert np.array_equal(np.sort(position), np.arange(position.shape[0]))
    got_i, got_j = np.empty_like(i_idx), np.empty_like(j_idx)
    got_i[position], got_j[position] = i_idx, j_idx
    return got_i, got_j


def _assert_stats_match_oracle(corpus, params, pair_cap, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagnostics, "DEFAULT_PAIR_CAP", pair_cap)
        got = intra_inter_stats(corpus, params=params, seed=seed)
    want = _triu_stats_oracle(corpus, params, pair_cap, seed)
    assert np.array_equal(got.bin_edges, want.bin_edges)
    assert np.array_equal(got.inter_hist, want.inter_hist), pair_cap
    assert got.min_intra == want.min_intra
    assert got.mean_inter == want.mean_inter, pair_cap
    assert got.fraction_below == want.fraction_below


@pytest.mark.parametrize("seed", range(52))
def test_decoded_pairs_match_listed_pairs_bitwise(seed):
    corpus, counts = _ragged_corpus(seed)
    video_of = np.array([int(t.video_id[1:]) for t in corpus.texts])
    total = (len(video_of) ** 2 - int((counts**2).sum())) // 2
    caps = {max(total - 1, 1), total, total + 1, 1 + int(RngStream(seed).integers(total))}
    # caps that leave a caption row holding a single sampled pair: 1, and the
    # cap at which the last caption row the seeded sample reaches gets its first pair
    listed_i, _ = _triu_pairs_oracle(video_of, total, seed)
    _, first = np.unique(listed_i[RngStream(seed).permutation(total)], return_index=True)
    caps.update({1, int(first.max()) + 1})
    head = init_head(2, 4, 6, 5, RngStream(seed, stream=0))
    for cap in sorted(caps):
        got_i, got_j = _sampled_pairs_in_permutation_order(video_of, cap, seed)
        want_i, want_j = _triu_pairs_oracle(video_of, cap, seed)
        assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j), cap
        for params in (None, head):
            _assert_stats_match_oracle(corpus, params, cap, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_rows_of_many_pairs_match_listed_pairs_bitwise(seed):
    # 900 captions, 403 650 cross-video pairs: a caption row holds ~200 of
    # the 180 000 sampled pairs on average, gathered and dotted together;
    # odd dims leave a remainder after the dot kernel's SIMD lanes
    corpus = synth_corpus(
        SynthConfig(num_videos=300, captions_per_video=3, text_dim=37, seed=seed)
    )
    video_of = np.repeat(np.arange(300), 3)
    assert [t.video_id for t in corpus.texts] == [corpus.videos[v].video_id for v in video_of]
    cap = 180_000
    got_i, got_j = _sampled_pairs_in_permutation_order(video_of, cap, seed)
    assert np.bincount(got_i).max() > 300
    want_i, want_j = _triu_pairs_oracle(video_of, cap, seed)
    assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j)
    head = init_head(3, corpus.dims[1], corpus.dims[2], 29, RngStream(seed, stream=0))
    for params in (None, head):
        _assert_stats_match_oracle(corpus, params, cap, seed)


def test_written_csvs_are_self_consistent(tmp_path):
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=6))
    stats = intra_inter_stats(corpus)
    write_ambiguity_csvs(stats, tmp_path)
    hist_lines = (tmp_path / "inter_hist.csv").read_text().splitlines()
    assert hist_lines[0] == "bin_left,bin_right,count"
    counts = [int(line.split(",")[2]) for line in hist_lines[1:]]
    assert sum(counts) == stats.inter_hist.sum()
    intra_lines = (tmp_path / "min_intra.csv").read_text().splitlines()
    assert intra_lines[0] == "video_id,value"
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the headline number must be recomputable from the emitted artifacts
    mins = [float(line.split(",")[1]) for line in intra_lines[1:]]
    recomputed = sum(m < summary["mean_inter"] for m in mins) / len(mins)
    assert summary["fraction_below"] == recomputed == stats.fraction_below


# ---------------------------------------------------------------------------
# export_mask_heatmaps
# ---------------------------------------------------------------------------


def test_zero_mask_parameters_export_all_zero_heatmap(tmp_path):
    head = make_head(2, 4, 3, 4)
    head.mask_w.value[:] = 0.0
    head.mask_b.value[:] = 0.0
    video = VideoRecord("v0", RngStream(1).normal((5, 4)))
    path = tmp_path / "heat.csv"
    export_mask_heatmaps(video, head, path)
    rows = [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]
    values = np.array([[float(c) for c in row] for row in rows])
    assert values.shape == (2, 5)
    np.testing.assert_array_equal(values, 0.0)
    normalized = (tmp_path / "heat_normalized.csv").read_text().splitlines()[1:]
    norm_values = np.array([[float(c) for c in r.split(",")[1:]] for r in normalized])
    np.testing.assert_array_equal(norm_values, 0.0)  # zero rows stay zero


def test_one_hot_selecting_mask_hits_single_cell_per_row(tmp_path):
    head = make_head(2, 3, 3, 3)
    video = VideoRecord("v0", np.eye(3))
    head.mask_b.value[:] = 0.0
    head.mask_w.value[:] = 0.0
    head.mask_w.value[1, 0] = 1.0  # prototype 0 looks only at token 1
    head.mask_w.value[2, 1] = 1.0  # prototype 1 looks only at token 2
    path = tmp_path / "heat.csv"
    export_mask_heatmaps(video, head, path)
    rows = [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]
    values = np.array([[float(c) for c in row] for row in rows])
    np.testing.assert_array_equal(values[0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(values[1], [0.0, 0.0, 1.0])


def test_heatmap_values_equal_head_forward_masks_exactly(tmp_path):
    head = make_head(3, 6, 4, 5, seed=7)
    video = VideoRecord("v0", RngStream(8).normal((7, 6)))
    path = tmp_path / "heat.csv"
    export_mask_heatmaps(video, head, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("prototype,")
    values = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    masks = head_forward(video.tokens[None], head).masks[0]
    np.testing.assert_array_equal(values, masks.T)  # repr round-trips floats


# ---------------------------------------------------------------------------
# prototype_diversity
# ---------------------------------------------------------------------------


def identical_prototype_head():
    # both mask columns identical, so both learned prototypes coincide
    head = make_head(2, 4, 3, 4, seed=9)
    head.mask_w.value[:, 1] = head.mask_w.value[:, 0]
    head.mask_b.value[:] = 1.0
    return head


def test_identical_prototypes_have_cosine_one():
    corpus = random_corpus(num_videos=3, captions_per_video=2, n_tokens=5, token_dim=4, text_dim=3)
    cosine, _ = prototype_diversity(corpus, identical_prototype_head())
    assert cosine == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_prototypes_have_cosine_zero():
    head = make_head(2, 4, 3, 4, seed=10)
    head.mask_w.value[:] = 0.0
    head.mask_b.value[:] = 0.0
    head.mask_w.value[0, 0] = 1.0  # prototype 0 reads input dim 0
    head.mask_w.value[1, 1] = 1.0  # prototype 1 reads input dim 1
    head.vproj_w.value[:] = np.eye(4)
    tokens = np.zeros((3, 4))
    tokens[0] = [0.0, 0.0, 0.0, 1.0]  # class token, masks stay zero on it
    tokens[1] = [2.0, 0.0, 0.0, 0.0]  # activates prototype 0 only -> e1
    tokens[2] = [0.0, 3.0, 0.0, 0.0]  # activates prototype 1 only -> e2
    corpus = Corpus(
        [VideoRecord("v0", tokens), VideoRecord("v1", tokens.copy())],
        [
            TextRecord("v0_t0", "v0", np.ones(3)),
            TextRecord("v1_t0", "v1", np.ones(3)),
        ],
        (3, 4, 3),
    )
    cosine, spread = prototype_diversity(corpus, head)
    assert cosine == pytest.approx(0.0, abs=1e-12)
    assert spread >= 0.0


def test_diversity_requires_two_prototypes():
    corpus = random_corpus()
    with pytest.raises(ValidationError):
        prototype_diversity(corpus, make_head(1, 8, 7, 6))


def test_diversity_refuses_a_part_head():
    corpus = random_corpus(num_videos=3, captions_per_video=2, n_tokens=5, token_dim=8, text_dim=7)
    head = make_head(2, 8, 7, 6)
    prototype_diversity(corpus, head, variant="mask")
    with pytest.raises(ValidationError, match="a part head has none"):
        prototype_diversity(corpus, head, variant="part")


def test_diversity_skips_dead_prototypes():
    # one mask column relu-dead everywhere: no live pair, explicit error
    head = make_head(2, 4, 3, 4, seed=11)
    head.mask_w.value[:] = 0.0
    head.mask_b.value[:] = [1.0, -1.0]  # column 1 never activates
    corpus = random_corpus(num_videos=3, captions_per_video=2, n_tokens=5, token_dim=4, text_dim=3)
    with pytest.raises(ValidationError):
        prototype_diversity(corpus, head)


@pytest.mark.filterwarnings("error")  # no overflow warning escapes
@pytest.mark.parametrize("scale", [1e308, np.nan], ids=["overflowing", "nan"])
def test_diversity_of_a_non_finite_head_raises_numeric_error(scale):
    corpus = random_corpus(num_videos=3, captions_per_video=2, n_tokens=5, token_dim=8, text_dim=7)
    head = make_head(2, 8, 7, 6)
    prototype_diversity(corpus, head)
    head.vproj_w.value[:] *= scale
    with pytest.raises(NumericError, match="non-finite video embeddings"):
        prototype_diversity(corpus, head)


def test_mask_spread_statistic_matches_direct_formula():
    corpus = random_corpus(num_videos=4, captions_per_video=2, n_tokens=6, token_dim=8, text_dim=7)
    head = make_head(3, 8, 7, 6, seed=12)
    _, spread = prototype_diversity(corpus, head)
    tokens = np.stack([v.tokens for v in corpus.videos])
    masks = head_forward(tokens, head).masks
    np.testing.assert_allclose(spread, masks.std(axis=(0, 2)).mean(), atol=1e-15)


# ---------------------------------------------------------------------------
# matching_purity
# ---------------------------------------------------------------------------


def test_purity_is_one_when_prototypes_split_events_cleanly():
    corpus = synth_corpus(
        SynthConfig(num_videos=4, captions_per_video=4, events_per_video=2,
                    token_noise=0.001, caption_noise=0.001, seed=13)
    )
    # a single prototype serving all captions still counts the majority label
    head = init_head(2, corpus.dims[1], corpus.dims[2], 6, RngStream(5, stream=0))
    purity = matching_purity(corpus, head)
    assert 0.0 < purity <= 1.0


def test_purity_requires_event_labels():
    corpus = random_corpus(num_videos=2, captions_per_video=2)
    unlabeled = Corpus(
        corpus.videos,
        [TextRecord(t.text_id, t.video_id, t.features) for t in corpus.texts],
        corpus.dims,
    )
    with pytest.raises(ValidationError):
        matching_purity(unlabeled, make_head())


def test_purity_single_event_is_always_one():
    corpus = synth_corpus(SynthConfig(num_videos=3, events_per_video=1, seed=14))
    head = init_head(2, corpus.dims[1], corpus.dims[2], 6, RngStream(6, stream=0))
    assert matching_purity(corpus, head) == 1.0


def purity_oracle(corpus, head, variant):
    """Purity from one caption at a time, grouped in a dict of label lists."""
    videos = embed_videos(np.stack([v.tokens for v in corpus.videos]), head, variant)
    texts = embed_texts(np.stack([t.features for t in corpus.texts]), head)
    index = {v.video_id: i for i, v in enumerate(corpus.videos)}
    groups: dict[tuple[int, int], list[int]] = {}
    for ti, text in enumerate(corpus.texts):
        vi = index[text.video_id]
        winner = int(np.argmax(videos[vi] @ texts[ti]))
        groups.setdefault((vi, winner), []).append(text.event_label)
    hits = sum(max(labels.count(e) for e in labels) for labels in groups.values())
    return hits / corpus.num_texts


def test_purity_of_a_part_head_matches_its_part_prototypes():
    corpus = synth_corpus(SynthConfig(num_videos=6, seed=20))
    head = init_head(3, corpus.dims[1], corpus.dims[2], 6, RngStream(20, stream=0))
    purity = matching_purity(corpus, head, variant="part")
    assert purity == purity_oracle(corpus, head, "part")
    # the mask reading of the same parameters, which the part head never trains, differs
    assert purity != matching_purity(corpus, head)


@pytest.mark.parametrize("variant", ["mask", "part"])
def test_purity_counts_any_integer_label_as_the_oracle_does(variant):
    # the corpus does not check label signs, and labels need not be small
    corpus = synth_corpus(SynthConfig(num_videos=12, captions_per_video=5, seed=21))
    relabel = {0: -7, 1: 10**15, 2: 3}
    texts = [t._replace(event_label=relabel[t.event_label]) for t in corpus.texts]
    corpus = Corpus(corpus.videos, texts, corpus.dims)
    head = init_head(3, corpus.dims[1], corpus.dims[2], 6, RngStream(21, stream=0))
    assert matching_purity(corpus, head, variant) == purity_oracle(corpus, head, variant)
