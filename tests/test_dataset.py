"""Corpus model, blob format, synthetic generator, and batch sampler."""

import json

import numpy as np
import pytest

from protomatch.dataset import (
    BLOB_DTYPE,
    Corpus,
    SynthConfig,
    TextRecord,
    VideoRecord,
    load_corpus,
    make_batches,
    save_corpus,
    synth_corpus,
)
from protomatch.errors import (
    BlobSizeError,
    CorpusError,
    DanglingReferenceError,
    ValidationError,
)
from protomatch.numerics import RngStream

from conftest import random_corpus


# ---------------------------------------------------------------------------
# save/load round-trip and forced failures
# ---------------------------------------------------------------------------


def test_roundtrip_is_identity_at_storage_precision(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=2, n_tokens=5, token_dim=8, text_dim=6)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    loaded = load_corpus(manifest)
    assert loaded.num_videos == 2 and loaded.num_texts == 4
    assert loaded.dims == corpus.dims
    for orig, back in zip(corpus.videos, loaded.videos):
        assert back.video_id == orig.video_id
        np.testing.assert_array_equal(back.tokens, orig.tokens.astype(BLOB_DTYPE).astype(np.float64))
    for orig, back in zip(corpus.texts, loaded.texts):
        assert (back.text_id, back.video_id, back.event_label) == (
            orig.text_id,
            orig.video_id,
            orig.event_label,
        )
        np.testing.assert_array_equal(
            back.features, orig.features.astype(BLOB_DTYPE).astype(np.float64)
        )


def test_roundtrip_twice_is_bit_exact(tmp_path):
    # after one quantization to storage precision, a second pass changes nothing
    corpus = random_corpus(seed=3)
    save_corpus(corpus, tmp_path / "a" / "manifest.jsonl")
    once = load_corpus(tmp_path / "a" / "manifest.jsonl")
    save_corpus(once, tmp_path / "b" / "manifest.jsonl")
    twice = load_corpus(tmp_path / "b" / "manifest.jsonl")
    for a, b in zip(once.videos, twice.videos):
        np.testing.assert_array_equal(a.tokens, b.tokens)
    for a, b in zip(once.texts, twice.texts):
        np.testing.assert_array_equal(a.features, b.features)


def test_single_video_corpus_roundtrips(tmp_path):
    corpus = random_corpus(num_videos=1, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    loaded = load_corpus(manifest)
    assert loaded.num_videos == 1 and loaded.num_texts == 1


def test_truncated_blob_raises_size_error_naming_record(tmp_path):
    corpus = random_corpus(num_videos=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    blob = tmp_path / "blobs" / "video_00001.bin"
    blob.write_bytes(blob.read_bytes()[:-4])  # drop one float32
    with pytest.raises(BlobSizeError) as exc:
        load_corpus(manifest)
    assert "v1" in str(exc.value)


def test_dangling_video_reference_raises(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["video_id"] = "v9"
    lines[-1] = json.dumps(rec)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DanglingReferenceError) as exc:
        load_corpus(manifest)
    assert "v9" in str(exc.value)


def test_video_without_caption_rejected_on_save(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    corpus = Corpus(corpus.videos, corpus.texts[:1], corpus.dims)  # v1 left textless
    with pytest.raises(CorpusError) as exc:
        save_corpus(corpus, tmp_path / "manifest.jsonl")
    assert "v1" in str(exc.value)


def test_garbled_manifest_line_reports_path_and_lineno(tmp_path):
    corpus = random_corpus(num_videos=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    lines[1] = "{not json"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(manifest)
    assert "manifest.jsonl" in str(exc.value) and "2" in str(exc.value)


@pytest.mark.parametrize(
    "line, needle",
    [
        ('[1, 2]', "expected a JSON object"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": "ten"}', "'features'"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "blob": 7}', "'blob' must be a string"),
        ('{"kind": "text", "id": 9, "video_id": "v0", "features": [1.0]}', "'id' must be a string"),
    ],
    ids=["not_an_object", "string_features", "numeric_blob_path", "numeric_id"],
)
def test_ill_typed_manifest_record_raises_corpus_error(tmp_path, line, needle):
    corpus = random_corpus(num_videos=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    manifest.write_text(manifest.read_text() + line + "\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(manifest)
    assert needle in str(exc.value)


def test_corpus_validate_catches_duplicates_and_nonfinite():
    good = random_corpus(num_videos=2, captions_per_video=1)
    dup = Corpus(good.videos + [good.videos[0]], good.texts, good.dims)
    with pytest.raises(CorpusError):
        dup.validate()
    bad_tokens = random_corpus(num_videos=2, captions_per_video=1)
    bad_tokens.videos[0].tokens[0, 0] = np.nan
    with pytest.raises(CorpusError):
        bad_tokens.validate()


@pytest.mark.parametrize("kind", ["videos", "texts"])
def test_corpus_validate_names_the_first_non_finite_record(kind):
    corpus = random_corpus(num_videos=5, captions_per_video=2)
    records = getattr(corpus, kind)
    for i, value in ((6 if kind == "texts" else 3, np.nan), (1, np.inf), (4, -np.inf)):
        array = records[i].tokens if kind == "videos" else records[i].features
        array.flat[-1] = value
    want = ("video 'v1' has non-finite token entries" if kind == "videos"
            else "text 'v0_t1' has non-finite features")
    with pytest.raises(CorpusError, match=f"^{want}$"):
        corpus.validate()


def test_corpus_validate_keeps_the_record_order_of_its_errors():
    # a non-finite record before a structural error is named first, and after it is not
    corpus = random_corpus(num_videos=4, captions_per_video=1)
    corpus.videos[1].tokens[0, 0] = np.nan
    late_dup = Corpus(corpus.videos + [corpus.videos[0]], corpus.texts, corpus.dims)
    with pytest.raises(CorpusError, match="^video 'v1' has non-finite token entries$"):
        late_dup.validate()
    early_dup = Corpus([corpus.videos[0]] + corpus.videos, corpus.texts, corpus.dims)
    with pytest.raises(CorpusError, match="^duplicate video id 'v0'$"):
        early_dup.validate()
    corpus.videos[3].tokens = np.zeros((2, 8))  # a record of another shape
    with pytest.raises(CorpusError, match="^video 'v1' has non-finite token entries$"):
        corpus.validate()
    corpus.videos[1].tokens[0, 0] = 0.0
    with pytest.raises(CorpusError, match=r"^video 'v3' tokens \(2, 8\) != \(5, 8\)$"):
        corpus.validate()


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def test_synth_counts_and_label_range():
    corpus = synth_corpus(SynthConfig(num_videos=4, captions_per_video=3, events_per_video=2))
    assert corpus.num_videos == 4 and corpus.num_texts == 12
    assert all(t.event_label in (0, 1) for t in corpus.texts)
    corpus.validate()


def test_synth_zero_noise_single_event_degenerates():
    cfg = SynthConfig(
        num_videos=2,
        captions_per_video=2,
        events_per_video=1,
        token_noise=0.0,
        caption_noise=0.0,
    )
    corpus = synth_corpus(cfg)
    for video in corpus.videos:
        body = video.tokens[1:]
        np.testing.assert_array_equal(body, np.broadcast_to(body[0], body.shape))
        np.testing.assert_allclose(video.tokens[0], body[0], rtol=0, atol=1e-12)
    for video in corpus.videos:
        caps = [corpus.texts[i].features for i in corpus.texts_of(video.video_id)]
        np.testing.assert_array_equal(caps[0], caps[1])


def test_synth_determinism_bit_identical():
    cfg = SynthConfig(num_videos=3, seed=11)
    a, b = synth_corpus(cfg), synth_corpus(cfg)
    for va, vb in zip(a.videos, b.videos):
        np.testing.assert_array_equal(va.tokens, vb.tokens)
    for ta, tb in zip(a.texts, b.texts):
        np.testing.assert_array_equal(ta.features, tb.features)
        assert ta.event_label == tb.event_label


def test_synth_seed_changes_content():
    a = synth_corpus(SynthConfig(num_videos=2, seed=0))
    b = synth_corpus(SynthConfig(num_videos=2, seed=1))
    assert not np.array_equal(a.videos[0].tokens, b.videos[0].tokens)


def test_synth_ambiguity_matches_brute_force_oracle():
    # multi-event corpora should usually have a caption pair less alike
    # within a video than the average across videos
    corpus = synth_corpus(SynthConfig(seed=0))
    feats = np.stack([t.features for t in corpus.texts])
    feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    owners = [t.video_id for t in corpus.texts]
    sims = feats @ feats.T
    inter = [
        sims[i, j]
        for i in range(len(owners))
        for j in range(i + 1, len(owners))
        if owners[i] != owners[j]
    ]
    mean_inter = float(np.mean(inter))
    below = 0
    for video in corpus.videos:
        idx = corpus.texts_of(video.video_id)
        pair_mins = min(
            sims[a, b] for ai, a in enumerate(idx) for b in idx[ai + 1 :]
        )
        below += pair_mins < mean_inter
    fraction = below / corpus.num_videos
    assert fraction > 0.5


def test_synth_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(num_videos=0)
    with pytest.raises(ValidationError):
        SynthConfig(tokens_per_video=3, events_per_video=3)  # needs events+1 tokens
    with pytest.raises(ValidationError):
        SynthConfig(token_noise=-0.1)


# ---------------------------------------------------------------------------
# batch sampler
# ---------------------------------------------------------------------------


def test_two_full_batches_from_ten_videos():
    corpus = random_corpus(num_videos=10, captions_per_video=2)
    batches = make_batches(corpus, 4, RngStream(0, stream=1))
    assert len(batches) == 2
    for batch in batches:
        assert len(set(batch.video_ids)) == 4
        assert batch.tokens.shape[0] == 4 and batch.text_features.shape[0] == 4


def test_full_corpus_batch_contains_every_video_once():
    corpus = random_corpus(num_videos=6, captions_per_video=2)
    (batch,) = make_batches(corpus, 6, RngStream(0, stream=1))
    assert sorted(batch.video_ids) == sorted(v.video_id for v in corpus.videos)


def test_batch_size_above_corpus_size_rejected():
    corpus = random_corpus(num_videos=3)
    with pytest.raises(ValidationError) as exc:
        make_batches(corpus, 4, RngStream(0))
    assert "4" in str(exc.value) and "3" in str(exc.value)


def test_batch_videos_unique_across_many_epochs():
    corpus = random_corpus(num_videos=13, captions_per_video=3)
    rng = RngStream(5, stream=1)
    seen = 0
    while seen < 1000:
        for batch in make_batches(corpus, 4, rng):
            assert len(set(batch.video_ids)) == 4
            seen += 1
    assert seen >= 1000


def test_sampled_caption_matches_its_video():
    corpus = random_corpus(num_videos=8, captions_per_video=3)
    text_owner = {t.text_id: t.video_id for t in corpus.texts}
    for batch in make_batches(corpus, 8, RngStream(2, stream=1)):
        for vid, tid in zip(batch.video_ids, batch.text_ids):
            assert text_owner[tid] == vid


def test_caption_sampling_close_to_uniform_over_100_epochs():
    # frozen sampler seed 10: worst per-caption deviation 0.0333 (40-seed scan)
    corpus = synth_corpus(SynthConfig(num_videos=2, captions_per_video=3, seed=0))
    counts = {t.text_id: 0 for t in corpus.texts}
    rng = RngStream(10, stream=1)
    for _ in range(100):
        for batch in make_batches(corpus, 2, rng):
            for tid in batch.text_ids:
                counts[tid] += 1
    for text in corpus.texts:
        assert abs(counts[text.text_id] / 100.0 - 1.0 / 3.0) <= 0.05


def test_batches_deterministic_given_stream():
    corpus = random_corpus(num_videos=9, captions_per_video=2)
    a = make_batches(corpus, 3, RngStream(7, stream=1))
    b = make_batches(corpus, 3, RngStream(7, stream=1))
    assert [x.video_ids for x in a] == [y.video_ids for y in b]
    assert [x.text_ids for x in a] == [y.text_ids for y in b]
