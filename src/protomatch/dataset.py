"""Corpus model, on-disk format, synthetic corpus generator, batch sampler.

On-disk layout: a JSON-lines manifest with one record per line, plus raw
binary blobs for token matrices.  Blobs are IEEE-754 single precision,
little-endian, row-major, exactly rows*cols*4 bytes.  In memory a corpus is
float64 columns: every video's tokens in one array, every caption's
features in another; storage is float32.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BlobSizeError,
    CorpusError,
    DanglingReferenceError,
    MissingBlobError,
    ValidationError,
)
from .numerics import RngStream

BLOB_DTYPE = np.dtype("<f4")


class VideoRecord(NamedTuple):
    """One video's token features; row 0 is the class (summary) token."""

    video_id: str
    tokens: np.ndarray  # (n_tokens, token_dim) float64


class TextRecord(NamedTuple):
    """One caption: its feature vector and the id of the video it describes."""

    text_id: str
    video_id: str
    features: np.ndarray  # (text_dim,) float64
    event_label: int | None = None  # synthetic corpora only


def _raise_first_bad_record(videos, texts, dims: tuple) -> None:
    """Raise CorpusError for the first bad record, in record order."""
    n_tokens, token_dim, text_dim = dims
    token_shape, video_ids, text_ids = (n_tokens, token_dim), set(), set()
    for video_id, tokens in videos:
        if video_id in video_ids:
            raise CorpusError(f"duplicate video id '{video_id}'")
        video_ids.add(video_id)
        if tokens.shape != token_shape:
            raise CorpusError(f"video '{video_id}' tokens {tokens.shape} != {token_shape}")
        if not np.isfinite(tokens).all():
            raise CorpusError(f"video '{video_id}' has non-finite token entries")
    for text_id, video_id, features, _ in texts:
        if text_id in text_ids:
            raise CorpusError(f"duplicate text id '{text_id}'")
        text_ids.add(text_id)
        if video_id not in video_ids:
            raise DanglingReferenceError(f"text '{text_id}' references unknown video '{video_id}'")
        if features.shape != (text_dim,):
            raise CorpusError(f"text '{text_id}' features {features.shape} != {(text_dim,)}")
        if not np.isfinite(features).all():
            raise CorpusError(f"text '{text_id}' has non-finite features")
    captioned = {video_id for _, video_id, _, _ in texts}
    for video_id, _ in videos:
        if video_id not in captioned:
            raise CorpusError(f"video '{video_id}' has no text description")


class Corpus:
    """Videos and their captions, checked once and held in read-only columns.

    videos and texts are records, or plain tuples of the same fields in
    the same order.  num_videos is V and num_texts T.  tokens (V, n_tokens,
    token_dim) and features (T, text_dim) are float64 copies of the
    records' arrays; video_ids, text_ids and event_labels are tuples.
    text_video[t] is caption t's video index.  Video v's captions, in
    corpus order, are caption_order[caption_starts[v]:caption_starts[v + 1]].
    A corpus without videos, or the first bad record in record order,
    raises CorpusError.
    """

    def __init__(self, videos: Sequence[VideoRecord], texts: Sequence[TextRecord], dims: tuple):
        n_tokens, token_dim, text_dim = self.dims = dims
        if n_tokens < 1:
            raise CorpusError("corpus needs at least one token per video")
        if not videos:
            raise CorpusError("corpus needs at least one video")
        self.num_videos, self.num_texts = len(videos), len(texts)
        self.video_ids, token_arrays = zip(*videos)
        text_columns = zip(*texts) if texts else [()] * 4
        self.text_ids, owners, feature_arrays, self.event_labels = text_columns
        if any(a.shape != (n_tokens, token_dim) for a in token_arrays) or any(
            a.shape != (text_dim,) for a in feature_arrays
        ):
            _raise_first_bad_record(videos, texts, dims)
        self.tokens = np.array(token_arrays, np.float64).reshape(len(videos), n_tokens, token_dim)
        self.features = np.array(feature_arrays, np.float64).reshape(len(texts), text_dim)
        self._index = {video_id: v for v, video_id in enumerate(self.video_ids)}
        self.text_video = np.array([self._index.get(v, -1) for v in owners], np.intp)
        self.caption_starts = np.cumsum(np.bincount(self.text_video + 1, minlength=len(videos) + 1))
        if not (
            len(self._index) == self.num_videos
            and len(set(self.text_ids)) == self.num_texts
            and self.caption_starts[0] == 0  # no caption of an unknown video (-1)
            and np.diff(self.caption_starts).all()  # every video has a caption
            and np.isfinite(self.tokens).all()
            and np.isfinite(self.features).all()
        ):
            _raise_first_bad_record(videos, texts, dims)
        self.caption_order = np.argsort(self.text_video, kind="stable")
        for column in self.tokens, self.features, self.text_video, self.caption_order:
            column.flags.writeable = False
        self.caption_starts.flags.writeable = False
        self._videos: tuple[VideoRecord, ...] | None = None
        self._texts: tuple[TextRecord, ...] | None = None

    @property
    def videos(self) -> tuple[VideoRecord, ...]:
        """A record per video, its tokens a view of its row; built on first access."""
        if self._videos is None:
            self._videos = tuple(map(VideoRecord, self.video_ids, self.tokens))
        return self._videos

    @property
    def texts(self) -> tuple[TextRecord, ...]:
        """A record per caption, its features a view of its row; built on first access."""
        if self._texts is None:
            owners = [self.video_ids[v] for v in self.text_video.tolist()]
            self._texts = tuple(
                map(TextRecord, self.text_ids, owners, self.features, self.event_labels)
            )
        return self._texts

    def texts_of(self, video_id: str) -> list[int]:
        """Indices into .texts of the captions describing video_id."""
        v = self._index[video_id]
        return self.caption_order[self.caption_starts[v] : self.caption_starts[v + 1]].tolist()


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the ambiguous synthetic corpus.

    Each video holds ``events_per_video`` latent event centers.  Tokens are
    event centers mapped into token space (round-robin assignment, so every
    event has token support); each caption describes exactly one event.
    """

    num_videos: int = 64
    captions_per_video: int = 3
    events_per_video: int = 3
    latent_dim: int = 8
    tokens_per_video: int = 10  # includes the class token at row 0
    token_dim: int = 16
    text_dim: int = 12
    token_noise: float = 0.02
    caption_noise: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        ints = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "int"}
        if any(c < 1 for name, c in ints.items() if name != "seed"):  # the others are counts
            raise ValidationError(f"all synthetic corpus counts must be >= 1, got {self}")
        if self.tokens_per_video < self.events_per_video + 1:
            raise ValidationError(
                f"tokens_per_video ({self.tokens_per_video}) must be >= "
                f"events_per_video + 1 ({self.events_per_video + 1})"
            )
        if self.token_noise < 0 or self.caption_noise < 0:
            raise ValidationError("noise levels must be non-negative")


def synth_corpus(cfg: SynthConfig) -> Corpus:
    """Generate a deterministic corpus with per-video multi-event structure."""
    rng = RngStream(cfg.seed)
    # Shared random linear maps from latent space into token and text space.
    token_map = rng.normal((cfg.latent_dim, cfg.token_dim)) / np.sqrt(cfg.latent_dim)
    text_map = rng.normal((cfg.latent_dim, cfg.text_dim)) / np.sqrt(cfg.latent_dim)

    videos, texts = [], []
    for v in range(cfg.num_videos):
        centers = rng.normal((cfg.events_per_video, cfg.latent_dim))
        tokens = np.empty((cfg.tokens_per_video, cfg.token_dim))
        for j in range(1, cfg.tokens_per_video):
            event = (j - 1) % cfg.events_per_video
            tokens[j] = centers[event] @ token_map + cfg.token_noise * rng.normal(cfg.token_dim)
        tokens[0] = tokens[1:].mean(axis=0) + cfg.token_noise * rng.normal(cfg.token_dim)
        video_id = f"v{v}"
        videos.append(VideoRecord(video_id, tokens))
        for c in range(cfg.captions_per_video):
            event = rng.integers(cfg.events_per_video)
            feats = centers[event] @ text_map + cfg.caption_noise * rng.normal(cfg.text_dim)
            texts.append(TextRecord(f"v{v}_t{c}", video_id, feats, event_label=event))

    return Corpus(videos, texts, (cfg.tokens_per_video, cfg.token_dim, cfg.text_dim))


# The errnos for which Path.is_file reports no file instead of raising.
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _read_blob(path: Path, owner: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A record's blob as float32 values: a video's of its (rows, cols) shape, a text's 1-D.

    One open, fstat and read; a FIFO is refused, not waited on.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        if isinstance(exc, OSError) and exc.errno not in _NO_FILE:
            raise
        fd = None
    try:
        info = None if fd is None else os.fstat(fd)
        if info is None or not stat.S_ISREG(info.st_mode):
            raise MissingBlobError(f"record '{owner}': blob file {path} does not exist")
        size, unit = info.st_size, BLOB_DTYPE.itemsize
        if shape is not None and size != shape[0] * shape[1] * unit:
            raise BlobSizeError(
                f"record '{owner}': blob {path} holds {size} bytes, "
                f"expected {shape[0]}x{shape[1]}x4 = {shape[0] * shape[1] * unit}"
            )
        if size % unit != 0:
            raise BlobSizeError(
                f"record '{owner}': blob {path} holds {size} bytes, not a multiple of 4"
            )
        values = np.empty(size // unit, BLOB_DTYPE)
        if os.readv(fd, [values]) != size:
            raise BlobSizeError(f"record '{owner}': blob {path} changed while read")
        return values if shape is None else values.reshape(shape)
    finally:
        if fd is not None:
            os.close(fd)


def save_corpus(corpus: Corpus, manifest_path: str | Path) -> None:
    """Write a manifest plus blobs; load_corpus inverts this bit-exactly.

    A value beyond float32 range raises CorpusError, naming its record, before any file is written.
    """
    with np.errstate(over="ignore"):  # the corpus is finite, so an inf is an overflow
        tokens, features = corpus.tokens.astype(BLOB_DTYPE), corpus.features.astype(BLOB_DTYPE)
    for kind, ids, rows in ("video", corpus.video_ids, tokens), ("text", corpus.text_ids, features):
        for record_id, row in zip(ids, rows):
            if not np.isfinite(row).all():
                raise CorpusError(f"{kind} '{record_id}' holds a value beyond float32 range")
    manifest_path = Path(manifest_path)
    (manifest_path.parent / "blobs").mkdir(parents=True, exist_ok=True)
    n_tokens, token_dim, _ = corpus.dims
    lines = []
    for i, (video_id, video_tokens) in enumerate(zip(corpus.video_ids, tokens)):
        rel = f"blobs/video_{i:05d}.bin"
        (manifest_path.parent / rel).write_bytes(video_tokens.tobytes())
        rec = {"kind": "video", "id": video_id, "blob": rel, "rows": n_tokens, "cols": token_dim}
        lines.append(json.dumps(rec))
    for text_id, v, feats, label in zip(
        corpus.text_ids, corpus.text_video.tolist(), features, corpus.event_labels
    ):
        video_id = corpus.video_ids[v]
        rec = {"kind": "text", "id": text_id, "video_id": video_id, "features": feats.tolist()}
        if label is not None:
            rec["event_label"] = label
        lines.append(json.dumps(rec))
    manifest_path.write_text("\n".join(lines) + "\n")


# Keys each record kind must carry, with the JSON type of each value;
# every integer here is a count and must also be non-negative.
_REQUIRED_KEYS = {
    "video": (("id", str), ("blob", str), ("rows", int), ("cols", int)),
    "text": (("id", str), ("video_id", str)),
}
_TYPE_NAMES = {str: "a string", int: "a non-negative integer"}


def _check_record(rec: dict, kind: str, source: str, lineno: int, keys=None) -> None:
    for key, want in keys or _REQUIRED_KEYS[kind]:
        value = rec.get(key)
        if type(value) is not want or (want is int and value < 0):
            record = f"{source}:{lineno}: {kind} record {rec.get('id')!r}"
            if key not in rec:
                raise CorpusError(f"{record} lacks key '{key}'")
            raise CorpusError(f"{record} key '{key}' must be {_TYPE_NAMES[want]}, got {value!r}")


def _text_features(rec: dict, source: str, lineno: int) -> np.ndarray:
    try:  # under np.errstate(over="raise"), a number beyond float32 range raises
        feats = np.asarray(rec["features"], dtype=np.float32)
        # json.loads makes NaN, -Infinity and 1e400 non-finite floats; past the
        # cast each finite value is within float32 range, so the sum cannot
        # overflow, and it is ~10x cheaper than np.isfinite on a short list.
        # The cast and the sum take true and false as 1 and 0.
        if not math.isfinite(sum(rec["features"])) or bool in map(type, rec["features"]):
            feats = None
    except (TypeError, ValueError, OverflowError, FloatingPointError):
        feats = None
    if feats is None or feats.ndim != 1:
        raise CorpusError(
            f"{source}:{lineno}: text record {rec['id']!r} key 'features' "
            "must be a list of numbers in float32 range"
        )
    return feats


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Materialize a corpus from a JSON-lines manifest; validates everything.

    Errors come in manifest line order, then in Corpus's record order.
    Blobs and features are read as float32; the corpus converts all tokens
    and all features to its float64 columns in one pass each.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingBlobError(f"manifest {manifest_path} does not exist")
    base, source = manifest_path.parent, str(manifest_path)

    videos, texts = [], []
    with np.errstate(over="raise"):  # a feature beyond float32 range, named by its line
        for lineno, line in enumerate(manifest_path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{manifest_path}:{lineno}: malformed JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise CorpusError(f"{source}:{lineno}: expected a JSON object, got {line!r}")
            kind = rec.get("kind")
            if kind not in ("video", "text"):  # a list kind is unhashable: no dict lookup
                raise CorpusError(f"{source}:{lineno}: unknown record kind {kind!r}")
            _check_record(rec, kind, source, lineno)
            if kind == "video":
                tokens = _read_blob(base / rec["blob"], rec["id"], (rec["rows"], rec["cols"]))
                videos.append((rec["id"], tokens))
            else:
                if "event_label" in rec:  # optional, and a count when present
                    _check_record(rec, kind, source, lineno, (("event_label", int),))
                if "features" in rec:
                    feats = _text_features(rec, source, lineno)
                elif "blob" in rec:
                    _check_record(rec, kind, source, lineno, (("blob", str),))
                    feats = _read_blob(base / rec["blob"], rec["id"])
                else:
                    raise CorpusError(f"{source}:{lineno}: text record {rec['id']!r} "
                                      "has neither features nor blob")
                texts.append((rec["id"], rec["video_id"], feats, rec.get("event_label")))

    if not videos:
        raise CorpusError(f"manifest {manifest_path} contains no video records")
    if not texts:
        raise CorpusError(f"manifest {manifest_path} contains no text records")
    return Corpus(videos, texts, (*videos[0][1].shape, texts[0][2].shape[0]))


@dataclass(eq=False)
class Batch:
    """A training batch: distinct videos, one sampled caption each."""

    videos: np.ndarray  # (batch,) indices into the corpus's videos
    texts: np.ndarray  # (batch,) indices into the corpus's captions, one per video
    tokens: np.ndarray  # (batch, n_tokens, token_dim)
    text_features: np.ndarray  # (batch, text_dim)


def make_batches(corpus: Corpus, batch_size: int, rng: RngStream) -> list[Batch]:
    """One epoch of batches: videos permuted, each paired with one caption.

    Every batch holds ``batch_size`` distinct videos; leftover videos that do
    not fill a batch are dropped for this epoch.  The caption draws are one
    call with an array of bounds, which takes the same values from the
    stream as one draw per video in batch order.
    """
    m = corpus.num_videos
    if batch_size > m:
        raise ValidationError(f"batch size {batch_size} exceeds corpus size {m}")
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    n_batches = m // batch_size
    videos = rng.permutation(m)[: n_batches * batch_size].reshape(n_batches, batch_size)
    picks = rng.integers(np.diff(corpus.caption_starts)[videos])
    texts = corpus.caption_order[corpus.caption_starts[videos] + picks]
    return list(map(Batch, videos, texts, corpus.tokens[videos], corpus.features[texts]))
