"""Corpus model, blob format, synthetic generator, and batch sampler."""

import hashlib
import json
import os
import sys
from collections import defaultdict

import numpy as np
import pytest

from protomatch import diagnostics
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
from protomatch.diagnostics import intra_inter_stats
from protomatch.errors import (
    BlobSizeError,
    CorpusError,
    DanglingReferenceError,
    MissingBlobError,
    ValidationError,
)
from protomatch.metrics import evaluate
from protomatch.numerics import RngStream
from protomatch.trainer import TrainConfig, train

from conftest import make_head, random_corpus


def ragged_corpus(num_videos: int, seed: int = 0) -> Corpus:
    """1-3 captions a video, the captions in a shuffled order."""
    rng = RngStream(seed, stream=8)
    counts = 1 + rng.integers(3, num_videos)
    videos = [VideoRecord(f"v{v}", rng.normal((3, 4))) for v in range(num_videos)]
    texts = [
        TextRecord(f"v{v}_t{c}", f"v{v}", rng.normal(5), event_label=c)
        for v in range(num_videos) for c in range(counts[v])
    ]
    return Corpus(videos, [texts[i] for i in rng.permutation(len(texts))], (3, 4, 5))


def editable_records(corpus: Corpus) -> tuple[list[VideoRecord], list[TextRecord]]:
    """The corpus's records with writable copies of their arrays, to edit before a build."""
    return (
        [v._replace(tokens=v.tokens.copy()) for v in corpus.videos],
        [t._replace(features=t.features.copy()) for t in corpus.texts],
    )


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
    # the corpus is checked when it is built, so the save never starts
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    with pytest.raises(CorpusError) as exc:  # v1 left textless
        save_corpus(Corpus(corpus.videos, corpus.texts[:1], corpus.dims), tmp_path / "m.jsonl")
    assert "v1" in str(exc.value)
    assert not any(tmp_path.iterdir())


def test_value_beyond_float32_range_rejected_on_save(tmp_path):
    # the first such record is named, videos before texts, before any file is written
    corpus = random_corpus(num_videos=3, captions_per_video=2)
    videos, texts = editable_records(corpus)
    texts[1].features[0] = 1e39
    texts[4].features[2] = -1e39
    with pytest.raises(CorpusError, match="^text 'v0_t1' holds a value beyond float32 range$"):
        save_corpus(Corpus(videos, texts, corpus.dims), tmp_path / "manifest.jsonl")
    videos[2].tokens[3, 4] = 4e38
    with pytest.raises(CorpusError, match="^video 'v2' holds a value beyond float32 range$"):
        save_corpus(Corpus(videos, texts, corpus.dims), tmp_path / "manifest.jsonl")
    assert not any(tmp_path.iterdir())


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
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": [1.0], "event_label": [1]}',
         "key 'event_label' must be a non-negative integer, got [1]"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": [1' + "0" * 400 + "]}",
         "'features' must be a list of numbers"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": [0.5, 1e39]}',
         "manifest.jsonl:7: text record 't9' key 'features' must be a list of numbers in float32"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": [0.5, NaN]}',
         "manifest.jsonl:7: text record 't9' key 'features' must be a list of numbers in float32"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": [-Infinity, 0.5]}',
         "manifest.jsonl:7: text record 't9' key 'features' must be a list of numbers in float32"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": [0.5, 1e400]}',
         "manifest.jsonl:7: text record 't9' key 'features' must be a list of numbers in float32"),
        ('{"kind": "text", "id": "t9", "video_id": "v0", "features": ["0.5", "1.0"]}',
         "manifest.jsonl:7: text record 't9' key 'features' must be a list of numbers in float32"),
        ('{"kind": "text", "id": "t9", "video_id": "v0"}',
         "manifest.jsonl:7: text record 't9' has neither features nor blob"),
        ('{"kind": "audio", "id": "a9"}', "manifest.jsonl:7: unknown record kind 'audio'"),
        ('{"id": "t9", "video_id": "v0", "features": [1.0]}',
         "manifest.jsonl:7: unknown record kind None"),
        # an unhashable kind gets the same message, not a TypeError from a dict lookup
        ('{"kind": ["video"], "id": "v9"}', "manifest.jsonl:7: unknown record kind ['video']"),
    ],
    ids=["not_an_object", "string_features", "numeric_blob_path", "numeric_id", "list_label",
         "features_beyond_float", "features_beyond_float32", "nan_features",
         "negative_infinity_features", "features_beyond_float64", "numeric_string_features",
         "no_features", "unknown_kind", "no_kind", "list_kind"],
)
def test_ill_typed_manifest_record_raises_corpus_error(tmp_path, line, needle):
    corpus = random_corpus(num_videos=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    manifest.write_text(manifest.read_text() + line + "\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(manifest)
    assert needle in str(exc.value)


def test_boolean_caption_features_are_refused(tmp_path):
    # json.loads makes true and false bools, which a float32 cast reads as 1 and 0
    corpus = random_corpus(num_videos=2, captions_per_video=1, text_dim=3)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    lines[3] = json.dumps({**json.loads(lines[3]), "features": [True, False, 1.5]})
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(manifest)
    assert str(exc.value) == (
        f"{manifest}:4: text record 'v1_t0' key 'features' must be a list of numbers in "
        "float32 range"
    )


def test_blank_manifest_lines_are_skipped(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    plain = load_corpus(manifest)
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n" + "\n  \t\n".join(lines) + "\n\n")
    loaded = load_corpus(manifest)
    for name in ("dims", "video_ids", "text_ids", "event_labels"):
        assert getattr(loaded, name) == getattr(plain, name)
    for name in ("tokens", "features", "text_video", "caption_order", "caption_starts"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(plain, name))


def test_videos_without_tokens_are_refused(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    for i in (0, 1):
        video = json.loads(lines[i])
        (tmp_path / video["blob"]).write_bytes(b"")
        lines[i] = json.dumps({**video, "rows": 0})
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="^corpus needs at least one token per video$"):
        load_corpus(manifest)


def test_text_blob_of_a_partial_float_raises_size_error(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    text = json.loads(lines[3])
    blob = tmp_path / "blobs" / "text.bin"
    blob.write_bytes(np.asarray(text.pop("features"), BLOB_DTYPE).tobytes() + b"\0")
    lines[3] = json.dumps({**text, "blob": "blobs/text.bin"})
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(BlobSizeError) as exc:
        load_corpus(manifest)
    assert str(exc.value) == f"record 'v1_t0': blob {blob} holds 29 bytes, not a multiple of 4"


def test_blob_that_shrinks_while_read_raises_size_error(tmp_path, monkeypatch):
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    readv = os.readv  # the read comes up short of the size fstat gave
    monkeypatch.setattr(os, "readv", lambda fd, buffers: readv(fd, buffers) - 4)
    blob = tmp_path / "blobs" / "video_00000.bin"
    with pytest.raises(BlobSizeError) as exc:
        load_corpus(manifest)
    assert str(exc.value) == f"record 'v0': blob {blob} changed while read"


@pytest.mark.parametrize("kind, missing", [("text", "video"), ("video", "text")])
def test_manifest_without_records_of_a_kind_raises_corpus_error(tmp_path, kind, missing):
    corpus = random_corpus(num_videos=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    kept = [line for line in manifest.read_text().splitlines() if json.loads(line)["kind"] == kind]
    manifest.write_text("\n".join(kept) + "\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(manifest)
    assert str(exc.value) == f"manifest {manifest} contains no {missing} records"


def test_load_errors_come_in_manifest_line_order(tmp_path):
    # a line that fails to parse is named after the blobs of the lines before
    # it are read, and before any blob after it
    corpus = random_corpus(num_videos=3, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    (tmp_path / "blobs" / "video_00001.bin").unlink()  # line 2's blob
    bad_features = json.dumps({**json.loads(lines[4]), "features": "ten"})  # line 5
    for edited, error, needle in (
        ({4: "{not json"}, MissingBlobError, "video_00001.bin does not exist"),
        ({4: bad_features}, MissingBlobError, "video_00001.bin does not exist"),
        ({0: "{not json"}, CorpusError, "manifest.jsonl:1: malformed JSON"),
        ({0: lines[4], 4: lines[0]}, MissingBlobError, "video_00001.bin does not exist"),
        ({0: bad_features, 4: lines[0]}, CorpusError, "manifest.jsonl:1: text record"),
        ({3: bad_features, 4: "{not json"}, MissingBlobError, "video_00001.bin does not exist"),
    ):
        manifest.write_text("\n".join(edited.get(i, line) for i, line in enumerate(lines)) + "\n")
        with pytest.raises(error, match=needle):
            load_corpus(manifest)


def test_load_names_a_record_of_another_shape_as_validate_does(tmp_path):
    corpus = random_corpus(num_videos=3, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    video = json.loads(lines[2])
    (tmp_path / video["blob"]).write_bytes(np.zeros((2, 8), BLOB_DTYPE).tobytes())
    lines[2] = json.dumps({**video, "rows": 2})
    text = json.loads(lines[4])
    lines[4] = json.dumps({**text, "features": text["features"][:-1]})
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"^video 'v2' tokens \(2, 8\) != \(5, 8\)$"):
        load_corpus(manifest)
    lines[2] = json.dumps(video)
    (tmp_path / video["blob"]).write_bytes(corpus.videos[2].tokens.astype(BLOB_DTYPE).tobytes())
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"^text 'v1_t0' features \(6,\) != \(7,\)$"):
        load_corpus(manifest)


def test_text_features_load_from_a_blob(tmp_path):
    corpus = random_corpus(num_videos=2, captions_per_video=2)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    lines = manifest.read_text().splitlines()
    text = json.loads(lines[3])
    features = np.asarray(text.pop("features"), BLOB_DTYPE)
    (tmp_path / "blobs" / "text.bin").write_bytes(features.tobytes())
    lines[3] = json.dumps({**text, "blob": "blobs/text.bin"})
    manifest.write_text("\n".join(lines) + "\n")
    loaded = load_corpus(manifest)
    np.testing.assert_array_equal(loaded.texts[1].features, features.astype(np.float64))
    for a, b in zip(loaded.texts, corpus.texts):
        np.testing.assert_array_equal(a.features, b.features.astype(BLOB_DTYPE))


@pytest.mark.parametrize("kind", ["directory", "fifo", "trailing_slash"])
def test_blob_paths_resolve_as_path_is_file_does(tmp_path, kind):
    # a directory or a FIFO is no blob file, and a trailing slash is dropped
    corpus = random_corpus(num_videos=2, captions_per_video=1)
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(corpus, manifest)
    blob = tmp_path / "blobs" / "video_00001.bin"
    if kind == "trailing_slash":
        manifest.write_text(manifest.read_text().replace("video_00001.bin", "video_00001.bin/"))
        loaded = load_corpus(manifest).videos[1].tokens
        np.testing.assert_array_equal(loaded, corpus.videos[1].tokens.astype(BLOB_DTYPE))
        return
    blob.unlink()
    if kind == "directory":
        blob.mkdir()
    elif hasattr(os, "mkfifo"):
        os.mkfifo(blob)  # opened for reading, a FIFO with no writer would block
    else:
        pytest.skip("no FIFOs on this platform")
    with pytest.raises(MissingBlobError, match="video_00001.bin does not exist"):
        load_corpus(manifest)


def test_corpus_from_records_and_its_reload_report_the_same(tmp_path, monkeypatch):
    # at storage precision, so that the reload holds the same values
    ragged = ragged_corpus(40, seed=2)
    records = Corpus(
        [VideoRecord(v.video_id, v.tokens.astype(BLOB_DTYPE).astype(np.float64))
         for v in ragged.videos],
        [TextRecord(t.text_id, t.video_id, t.features.astype(BLOB_DTYPE).astype(np.float64),
                    t.event_label) for t in ragged.texts],
        ragged.dims,
    )
    save_corpus(records, tmp_path / "manifest.jsonl")
    loaded = load_corpus(tmp_path / "manifest.jsonl")
    head = make_head(token_dim=4, text_dim=5, embed_dim=6)
    assert evaluate(records, head).to_json_dict() == evaluate(loaded, head).to_json_dict()
    monkeypatch.setattr(diagnostics, "DEFAULT_PAIR_CAP", 300)
    for params in (None, head):
        a, b = (intra_inter_stats(c, params=params, seed=3) for c in (records, loaded))
        np.testing.assert_array_equal(a.inter_hist, b.inter_hist)
        assert (a.min_intra, a.mean_inter, a.fraction_below) == (
            b.min_intra, b.mean_inter, b.fraction_below
        )


def test_a_corpus_without_videos_is_refused():
    # downstream reductions over zero videos would fail outside the error taxonomy
    good = random_corpus(num_videos=1)
    for texts in ((), good.texts):
        with pytest.raises(CorpusError, match="^corpus needs at least one video$"):
            Corpus([], texts, good.dims)


def test_corpus_validate_catches_duplicates_and_nonfinite():
    good = random_corpus(num_videos=2, captions_per_video=1)
    with pytest.raises(CorpusError):
        Corpus(good.videos + good.videos[:1], good.texts, good.dims)
    with pytest.raises(CorpusError, match="^duplicate text id 'v1_t0'$"):
        Corpus(good.videos, good.texts + good.texts[1:], good.dims)
    videos, texts = editable_records(good)
    videos[0].tokens[0, 0] = np.nan
    with pytest.raises(CorpusError):
        Corpus(videos, texts, good.dims)


@pytest.mark.parametrize("kind", ["videos", "texts"])
def test_corpus_validate_names_the_first_non_finite_record(kind):
    corpus = random_corpus(num_videos=5, captions_per_video=2)
    videos, texts = editable_records(corpus)
    records = videos if kind == "videos" else texts
    for i, value in ((6 if kind == "texts" else 3, np.nan), (1, np.inf), (4, -np.inf)):
        array = records[i].tokens if kind == "videos" else records[i].features
        array.flat[-1] = value
    want = ("video 'v1' has non-finite token entries" if kind == "videos"
            else "text 'v0_t1' has non-finite features")
    with pytest.raises(CorpusError, match=f"^{want}$"):
        Corpus(videos, texts, corpus.dims)


def test_corpus_validate_keeps_the_record_order_of_its_errors():
    # a non-finite record before a structural error is named first, and after it is not
    corpus = random_corpus(num_videos=4, captions_per_video=1)
    videos, texts = editable_records(corpus)
    videos[1].tokens[0, 0] = np.nan
    with pytest.raises(CorpusError, match="^video 'v1' has non-finite token entries$"):
        Corpus(videos + [videos[0]], texts, corpus.dims)
    with pytest.raises(CorpusError, match="^duplicate video id 'v0'$"):
        Corpus([videos[0]] + videos, texts, corpus.dims)
    videos[3] = videos[3]._replace(tokens=np.zeros((2, 8)))  # a record of another shape
    with pytest.raises(CorpusError, match="^video 'v1' has non-finite token entries$"):
        Corpus(videos, texts, corpus.dims)
    videos[1].tokens[0, 0] = 0.0
    with pytest.raises(CorpusError, match=r"^video 'v3' tokens \(2, 8\) != \(5, 8\)$"):
        Corpus(videos, texts, corpus.dims)


def test_corpus_validate_names_a_changed_record_as_the_walk_does():
    corpus = random_corpus(num_videos=3, captions_per_video=1)
    with pytest.raises(CorpusError, match="^duplicate video id 'v0'$"):
        Corpus(corpus.videos + corpus.videos[:1], corpus.texts, corpus.dims)
    texts = list(corpus.texts)
    texts[1] = texts[1]._replace(video_id="v7")
    with pytest.raises(DanglingReferenceError, match="^text 'v1_t0' references unknown video"):
        Corpus(corpus.videos, texts, corpus.dims)


# Edits to a built corpus's records that break no rule the record walk checks.
RECORD_EDITS = {
    "replaced_array": lambda c: setattr(c.texts[1], "features", c.texts[1].features.copy()),
    "appended_video": lambda c: (
        c.videos.append(VideoRecord("v9", np.zeros((5, 8)))),
        c.texts.append(TextRecord("v9_t0", "v9", np.zeros(7))),
    ),
    "appended_text": lambda c: c.texts.append(TextRecord("v0_t9", "v0", np.zeros(7))),
    "removed_text": lambda c: c.texts.pop(),
    "moved_caption": lambda c: setattr(c.texts[0], "video_id", "v2"),
    "swapped_video_ids": lambda c: (
        setattr(c.videos[1], "video_id", "v2"), setattr(c.videos[2], "video_id", "v1")
    ),
    "relabelled_caption": lambda c: setattr(c.texts[2], "event_label", 1),
}


@pytest.mark.parametrize("edit", RECORD_EDITS.values(), ids=RECORD_EDITS.keys())
def test_corpus_validate_raises_once_its_records_change(edit):
    # a built corpus's records are immutable, so the edit raises and the corpus keeps
    # what it held when it was checked
    corpus = random_corpus(num_videos=3, captions_per_video=2)
    videos, texts = corpus.videos, corpus.texts
    with pytest.raises(AttributeError):
        edit(corpus)
    assert corpus.videos == videos and corpus.texts == texts
    assert [t.video_id for t in corpus.texts] == ["v0", "v0", "v1", "v1", "v2", "v2"]
    assert corpus.video_ids == ("v0", "v1", "v2") and corpus.num_texts == 6


def test_loaded_records_are_views_of_the_corpus_columns(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(random_corpus(num_videos=3), manifest)
    loaded = load_corpus(manifest)
    for i, video in enumerate(loaded.videos):
        assert np.shares_memory(video.tokens, loaded.tokens)
        np.testing.assert_array_equal(video.tokens, loaded.tokens[i])
    for i, text in enumerate(loaded.texts):
        assert np.shares_memory(text.features, loaded.features)
        np.testing.assert_array_equal(text.features, loaded.features[i])
    # the views are read-only, so no write through a record reaches the columns
    tokens, features = loaded.tokens.copy(), loaded.features.copy()
    with pytest.raises(ValueError, match="read-only"):
        loaded.videos[1].tokens[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        loaded.texts[2].features[3] = 8.0
    np.testing.assert_array_equal(loaded.tokens, tokens)
    np.testing.assert_array_equal(loaded.features, features)


# Edits to a built corpus's id and label columns, each of which must raise.
COLUMN_EDITS = (
    lambda c: c.video_ids.append("v9"),
    lambda c: c.text_ids.append("v0_t9"),
    lambda c: c.event_labels.append(1),
)


def test_a_built_corpus_is_read_only(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(random_corpus(num_videos=3), manifest)
    loaded = load_corpus(manifest)
    for edit in COLUMN_EDITS:
        with pytest.raises(AttributeError):
            edit(loaded)
    # array writes to a column raise
    arrays = (loaded.tokens, loaded.features, loaded.text_video, loaded.caption_order,
              loaded.caption_starts)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 7
    # the columns are copies, so a write to the caller's input changes nothing
    videos, texts = editable_records(loaded)
    corpus = Corpus(videos, texts, loaded.dims)
    videos[1].tokens[0, 0] = 7.0
    texts[2].features[3] = 8.0
    assert corpus.tokens.tobytes() == loaded.tokens.tobytes()
    assert corpus.features.tobytes() == loaded.features.tobytes()
    # a prefix of the records builds a corpus, as the benchmark's prefix_corpus does
    prefix = Corpus(loaded.videos[:2], [t for t in loaded.texts if t.video_id != "v2"], loaded.dims)
    assert (prefix.video_ids, prefix.num_texts) == (("v0", "v1"), 4)
    np.testing.assert_array_equal(prefix.tokens, loaded.tokens[:2])


def count_record_builds(monkeypatch) -> dict[str, int]:
    """Count the VideoRecord and TextRecord calls made under each package name."""
    counts = {"VideoRecord": 0, "TextRecord": 0}

    def counting(cls):
        def build(*args, **kwargs):
            counts[cls.__name__] += 1
            return cls(*args, **kwargs)

        return build

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "protomatch":
            for cls in (VideoRecord, TextRecord):
                if getattr(module, cls.__name__, None) is cls:
                    monkeypatch.setattr(module, cls.__name__, counting(cls))
    return counts


def test_load_train_and_evaluate_build_no_records(tmp_path, monkeypatch):
    manifest = tmp_path / "manifest.jsonl"
    save_corpus(synth_corpus(SynthConfig(num_videos=16, seed=2)), manifest)
    counts = count_record_builds(monkeypatch)
    corpus = load_corpus(manifest)
    make_batches(corpus, 4, RngStream(0))
    params, _ = train(corpus, TrainConfig(n_prototypes=2, embed_dim=8, batch_size=4, epochs=2,
                                          warmup_epochs=1))
    evaluate(corpus, params)
    intra_inter_stats(corpus, params=params, seed=0)
    assert counts == {"VideoRecord": 0, "TextRecord": 0}
    # the counters do see the records once something reads them
    assert (len(corpus.videos), len(corpus.texts)) == (16, 48)
    assert counts == {"VideoRecord": 16, "TextRecord": 48}


def test_records_are_built_once_from_the_columns():
    corpus = ragged_corpus(6, seed=4)
    videos, texts = corpus.videos, corpus.texts
    assert corpus.videos is videos and corpus.texts is texts
    with pytest.raises(AttributeError):
        corpus.videos = ()
    assert [v.video_id for v in videos] == list(corpus.video_ids)
    for t, text in enumerate(texts):
        assert text.text_id == corpus.text_ids[t]
        assert text.video_id == corpus.video_ids[corpus.text_video[t]]
        assert text.event_label == corpus.event_labels[t]
        assert text.features.tobytes() == corpus.features[t].tobytes()


def test_save_of_a_loaded_corpus_writes_pinned_bytes(tmp_path):
    # captions out of video order, some without an event label; the digest
    # is of the files the record-walking writer wrote for this corpus
    ragged = ragged_corpus(5, seed=6)
    texts = [t._replace(event_label=None) if i % 3 else t for i, t in enumerate(ragged.texts)]
    save_corpus(Corpus(ragged.videos, texts, ragged.dims), tmp_path / "a" / "manifest.jsonl")
    save_corpus(load_corpus(tmp_path / "a" / "manifest.jsonl"), tmp_path / "b" / "manifest.jsonl")
    files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.*"))
    digest = hashlib.sha256()
    for name in files:
        data = (tmp_path / "b" / name).read_bytes()
        assert data == (tmp_path / "a" / name).read_bytes(), name
        digest.update(str(name).encode() + b"\0" + data)
    assert len(files) == 6
    assert digest.hexdigest() == "d6276f290f425e96a782d6983bb987cd2949e12dfcc297d2f5153ba514050f44"


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def test_synth_counts_and_label_range():
    corpus = synth_corpus(SynthConfig(num_videos=4, captions_per_video=3, events_per_video=2))
    assert corpus.num_videos == 4 and corpus.num_texts == 12
    assert all(t.event_label in (0, 1) for t in corpus.texts)


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


def batch_video_ids(corpus: Corpus, batch) -> list[str]:
    return [corpus.video_ids[v] for v in batch.videos]


def batch_text_ids(corpus: Corpus, batch) -> list[str]:
    return [corpus.text_ids[t] for t in batch.texts]


def test_two_full_batches_from_ten_videos():
    corpus = random_corpus(num_videos=10, captions_per_video=2)
    batches = make_batches(corpus, 4, RngStream(0, stream=1))
    assert len(batches) == 2
    for batch in batches:
        assert len(set(batch_video_ids(corpus, batch))) == 4
        assert batch.tokens.shape[0] == 4 and batch.text_features.shape[0] == 4


def test_full_corpus_batch_contains_every_video_once():
    corpus = random_corpus(num_videos=6, captions_per_video=2)
    (batch,) = make_batches(corpus, 6, RngStream(0, stream=1))
    assert sorted(batch_video_ids(corpus, batch)) == sorted(v.video_id for v in corpus.videos)


def test_batch_size_above_corpus_size_rejected():
    corpus = random_corpus(num_videos=3)
    with pytest.raises(ValidationError) as exc:
        make_batches(corpus, 4, RngStream(0))
    assert "4" in str(exc.value) and "3" in str(exc.value)


def test_batch_size_below_one_rejected():
    corpus = random_corpus(num_videos=3)
    with pytest.raises(ValidationError, match="^batch size must be >= 1, got 0$"):
        make_batches(corpus, 0, RngStream(0))


def test_batch_videos_unique_across_many_epochs():
    corpus = random_corpus(num_videos=13, captions_per_video=3)
    rng = RngStream(5, stream=1)
    seen = 0
    while seen < 1000:
        for batch in make_batches(corpus, 4, rng):
            assert len(set(batch_video_ids(corpus, batch))) == 4
            seen += 1
    assert seen >= 1000


def test_sampled_caption_matches_its_video():
    corpus = random_corpus(num_videos=8, captions_per_video=3)
    text_owner = {t.text_id: t.video_id for t in corpus.texts}
    for batch in make_batches(corpus, 8, RngStream(2, stream=1)):
        for vid, tid in zip(batch_video_ids(corpus, batch), batch_text_ids(corpus, batch)):
            assert text_owner[tid] == vid


def test_caption_sampling_close_to_uniform_over_100_epochs():
    # frozen sampler seed 10: worst per-caption deviation 0.0333 (40-seed scan)
    corpus = synth_corpus(SynthConfig(num_videos=2, captions_per_video=3, seed=0))
    counts = {t.text_id: 0 for t in corpus.texts}
    rng = RngStream(10, stream=1)
    for _ in range(100):
        for batch in make_batches(corpus, 2, rng):
            for tid in batch_text_ids(corpus, batch):
                counts[tid] += 1
    for text in corpus.texts:
        assert abs(counts[text.text_id] / 100.0 - 1.0 / 3.0) <= 0.05


def test_batches_deterministic_given_stream():
    corpus = random_corpus(num_videos=9, captions_per_video=2)
    a = make_batches(corpus, 3, RngStream(7, stream=1))
    b = make_batches(corpus, 3, RngStream(7, stream=1))
    assert [batch_video_ids(corpus, x) for x in a] == [batch_video_ids(corpus, y) for y in b]
    assert [batch_text_ids(corpus, x) for x in a] == [batch_text_ids(corpus, y) for y in b]


def per_video_batches(corpus: Corpus, batch_size: int, rng: RngStream) -> list[tuple]:
    """The epoch of make_batches from one caption draw per video, in batch order."""
    captions = defaultdict(list)
    for i, text in enumerate(corpus.texts):
        captions[text.video_id].append(i)
    order = rng.permutation(corpus.num_videos)
    batches = []
    for start in range(0, corpus.num_videos - batch_size + 1, batch_size):
        videos = [corpus.videos[i] for i in order[start : start + batch_size]]
        texts = []
        for video in videos:
            mine = captions[video.video_id]
            texts.append(corpus.texts[mine[rng.integers(len(mine))]])
        batches.append((
            [v.video_id for v in videos], [t.text_id for t in texts],
            np.stack([v.tokens for v in videos]), np.stack([t.features for t in texts]),
        ))
    return batches


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_bound_draw_matches_one_draw_per_video(seed):
    # 1000 videos at batch 64 leave 40 over each epoch, whose captions are not drawn
    corpus = ragged_corpus(1000, seed=seed)
    rng, oracle_rng = RngStream(seed, stream=1), RngStream(seed, stream=1)
    for _ in range(3):
        batches = make_batches(corpus, 64, rng)
        want = per_video_batches(corpus, 64, oracle_rng)
        assert len(batches) == len(want) == 15
        for batch, (video_ids, text_ids, tokens, features) in zip(batches, want):
            assert batch_video_ids(corpus, batch) == video_ids
            assert batch_text_ids(corpus, batch) == text_ids
            assert batch.tokens.tobytes() == tokens.tobytes()
            assert batch.text_features.tobytes() == features.tobytes()
    np.testing.assert_equal(rng.state, oracle_rng.state)
