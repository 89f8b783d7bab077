"""Corpus model, on-disk format, synthetic corpus generator, batch sampler.

On-disk layout: a JSON-lines manifest with one record per line, plus raw
binary blobs for token matrices.  Blobs are IEEE-754 single precision,
little-endian, row-major, exactly rows*cols*4 bytes.  In memory everything
is float64; storage is float32.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(eq=False)
class VideoRecord:
    """One video's token features; row 0 is the class (summary) token."""

    video_id: str
    tokens: np.ndarray  # (n_tokens, token_dim) float64


@dataclass(eq=False)
class TextRecord:
    """One caption: its feature vector and the id of the video it describes."""

    text_id: str
    video_id: str
    features: np.ndarray  # (text_dim,) float64
    event_label: int | None = None  # synthetic corpora only


@dataclass(eq=False)
class Corpus:
    videos: list[VideoRecord]
    texts: list[TextRecord]
    dims: tuple[int, int, int]  # (n_tokens, token_dim, text_dim)
    _texts_by_video: dict[str, list[int]] | None = field(default=None, repr=False)

    @property
    def num_videos(self) -> int:
        return len(self.videos)

    @property
    def num_texts(self) -> int:
        return len(self.texts)

    def texts_of(self, video_id: str) -> list[int]:
        """Indices into .texts of the captions describing video_id."""
        if self._texts_by_video is None:
            by_video: dict[str, list[int]] = {v.video_id: [] for v in self.videos}
            for i, t in enumerate(self.texts):
                by_video[t.video_id].append(i)
            self._texts_by_video = by_video
        return self._texts_by_video[video_id]

    def validate(self) -> None:
        n_tokens, token_dim, text_dim = self.dims
        if n_tokens < 1:
            raise CorpusError("corpus needs at least one token per video")
        # one finiteness pass over all records, whatever their shapes; the
        # record walk checks each one only after it fails, to name the first
        arrays = [v.tokens for v in self.videos] + [t.features for t in self.texts]
        check_finite = bool(arrays) and not np.isfinite(np.concatenate(arrays, axis=None)).all()
        video_ids = set()
        for v in self.videos:
            if v.video_id in video_ids:
                raise CorpusError(f"duplicate video id '{v.video_id}'")
            video_ids.add(v.video_id)
            if v.tokens.shape != (n_tokens, token_dim):
                raise CorpusError(
                    f"video '{v.video_id}' tokens {v.tokens.shape} != {(n_tokens, token_dim)}"
                )
            if check_finite and not np.isfinite(v.tokens).all():
                raise CorpusError(f"video '{v.video_id}' has non-finite token entries")
        text_ids = set()
        for t in self.texts:
            if t.text_id in text_ids:
                raise CorpusError(f"duplicate text id '{t.text_id}'")
            text_ids.add(t.text_id)
            if t.video_id not in video_ids:
                raise DanglingReferenceError(
                    f"text '{t.text_id}' references unknown video '{t.video_id}'"
                )
            if t.features.shape != (text_dim,):
                raise CorpusError(
                    f"text '{t.text_id}' features {t.features.shape} != {(text_dim,)}"
                )
            if check_finite and not np.isfinite(t.features).all():
                raise CorpusError(f"text '{t.text_id}' has non-finite features")
        captioned = {t.video_id for t in self.texts}
        for v in self.videos:
            if v.video_id not in captioned:
                raise CorpusError(f"video '{v.video_id}' has no text description")


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
        counts = (
            self.num_videos,
            self.captions_per_video,
            self.events_per_video,
            self.latent_dim,
            self.tokens_per_video,
            self.token_dim,
            self.text_dim,
        )
        if any(c < 1 for c in counts):
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

    videos: list[VideoRecord] = []
    texts: list[TextRecord] = []
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

    corpus = Corpus(videos, texts, (cfg.tokens_per_video, cfg.token_dim, cfg.text_dim))
    corpus.validate()
    return corpus


def _write_blob(path: Path, array: np.ndarray) -> None:
    path.write_bytes(np.ascontiguousarray(array, dtype=BLOB_DTYPE).tobytes())


def _read_blob(path: Path, rows: int, cols: int, owner: str) -> np.ndarray:
    if not path.is_file():
        raise MissingBlobError(f"record '{owner}': blob file {path} does not exist")
    data = path.read_bytes()
    expected = rows * cols * BLOB_DTYPE.itemsize
    if len(data) != expected:
        raise BlobSizeError(
            f"record '{owner}': blob {path} holds {len(data)} bytes, "
            f"expected {rows}x{cols}x4 = {expected}"
        )
    return np.frombuffer(data, dtype=BLOB_DTYPE).astype(np.float64).reshape(rows, cols)


def save_corpus(corpus: Corpus, manifest_path: str | Path) -> None:
    """Write a manifest plus blobs; load_corpus inverts this bit-exactly."""
    corpus.validate()
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    blob_dir = manifest_path.parent / "blobs"
    blob_dir.mkdir(exist_ok=True)

    lines = []
    for i, v in enumerate(corpus.videos):
        rel = f"blobs/video_{i:05d}.bin"
        _write_blob(manifest_path.parent / rel, v.tokens)
        lines.append(
            json.dumps(
                {
                    "kind": "video",
                    "id": v.video_id,
                    "blob": rel,
                    "rows": v.tokens.shape[0],
                    "cols": v.tokens.shape[1],
                }
            )
        )
    for t in corpus.texts:
        rec = {
            "kind": "text",
            "id": t.text_id,
            "video_id": t.video_id,
            "features": [float(x) for x in t.features.astype(np.float32)],
        }
        if t.event_label is not None:
            rec["event_label"] = t.event_label
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
    try:
        feats = np.asarray(rec["features"], dtype=np.float32).astype(np.float64)
    except (TypeError, ValueError):
        feats = None
    if feats is None or feats.ndim != 1:
        raise CorpusError(
            f"{source}:{lineno}: text record {rec['id']!r} key 'features' must be a list of numbers"
        )
    return feats


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Materialize a corpus from a JSON-lines manifest; validates everything."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingBlobError(f"manifest {manifest_path} does not exist")
    base = manifest_path.parent

    source = str(manifest_path)
    videos: list[VideoRecord] = []
    texts: list[TextRecord] = []
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
        if kind == "video":
            _check_record(rec, kind, source, lineno)
            tokens = _read_blob(base / rec["blob"], rec["rows"], rec["cols"], rec["id"])
            videos.append(VideoRecord(rec["id"], tokens))
        elif kind == "text":
            _check_record(rec, kind, source, lineno)
            if "features" in rec:
                feats = _text_features(rec, source, lineno)
            elif "blob" in rec:
                _check_record(rec, kind, source, lineno, (("blob", str),))
                raw = base / rec["blob"]
                if not raw.is_file():
                    raise MissingBlobError(f"record '{rec['id']}': blob file {raw} does not exist")
                data = raw.read_bytes()
                if len(data) % BLOB_DTYPE.itemsize != 0:
                    raise BlobSizeError(
                        f"record '{rec['id']}': blob {raw} holds {len(data)} bytes, "
                        f"not a multiple of 4"
                    )
                feats = np.frombuffer(data, dtype=BLOB_DTYPE).astype(np.float64)
            else:
                raise CorpusError(f"text record '{rec.get('id')}' has neither features nor blob")
            texts.append(TextRecord(rec["id"], rec["video_id"], feats, rec.get("event_label")))
        else:
            raise CorpusError(f"{manifest_path}:{lineno}: unknown record kind {kind!r}")

    if not videos:
        raise CorpusError(f"manifest {manifest_path} contains no video records")
    if not texts:
        raise CorpusError(f"manifest {manifest_path} contains no text records")
    dims = (videos[0].tokens.shape[0], videos[0].tokens.shape[1], texts[0].features.shape[0])
    corpus = Corpus(videos, texts, dims)
    corpus.validate()
    return corpus


@dataclass(eq=False)
class Batch:
    """A training batch: distinct videos, one sampled caption each."""

    video_ids: list[str]
    text_ids: list[str]
    tokens: np.ndarray  # (batch, n_tokens, token_dim)
    text_features: np.ndarray  # (batch, text_dim)


def make_batches(corpus: Corpus, batch_size: int, rng: RngStream) -> list[Batch]:
    """One epoch of batches: videos permuted, each paired with one caption.

    Every batch holds ``batch_size`` distinct videos; leftover videos that do
    not fill a batch are dropped for this epoch.
    """
    m = corpus.num_videos
    if batch_size > m:
        raise ValidationError(f"batch size {batch_size} exceeds corpus size {m}")
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    order = rng.permutation(m)
    batches = []
    for start in range(0, m - batch_size + 1, batch_size):
        chunk = order[start : start + batch_size]
        vids, tids, toks, feats = [], [], [], []
        for vi in chunk:
            video = corpus.videos[vi]
            captions = corpus.texts_of(video.video_id)
            text = corpus.texts[captions[rng.integers(len(captions))]]
            vids.append(video.video_id)
            tids.append(text.text_id)
            toks.append(video.tokens)
            feats.append(text.features)
        batches.append(Batch(vids, tids, np.stack(toks), np.stack(feats)))
    return batches
