"""Training loop: batches, objective, hand-written VJPs, Adam, checkpoints.

One training step embeds a batch of L videos and their L sampled captions,
builds the L x L max-over-prototypes score matrix, evaluates the symmetric
contrastive loss plus the weighted mask-variance regularizer, accumulates
all parameter gradients, and applies one bias-corrected Adam update at the
scheduled learning rate.  Everything downstream of (corpus, config, seed)
is deterministic, and checkpoints restore enough state (parameters, Adam
moments, sampler RNG) that a resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Batch, Corpus, make_batches
from .errors import CheckpointError, NumericError, ValidationError
from .losses import (
    ContrastiveForward,
    LossBreakdown,
    LossConfig,
    VarianceForward,
    contrastive_loss,
    contrastive_vjp,
    mask_std,
    total_loss,
    variance_loss,
    variance_vjp,
)
from .matching import SimilarityMatrix, prototype_scores, similarity_matrix, similarity_vjp
from .numerics import (
    AdamState,
    ParamTensor,
    RngStream,
    adam_step,
    check_seed,
    finite_diff_check,
    lr_at,
)
from .prototypes import (
    PARAM_ORDER,
    HeadCache,
    HeadParameters,
    TextCache,
    has_learned_masks,
    head_backward,
    head_forward,
    init_head,
    text_backward,
    text_forward,
)

TRAIN_VARIANTS = ("mask", "part", "baseline")

CHECKPOINT_MAGIC = b"PMCK"
CHECKPOINT_VERSION = 1
# The three flat vectors of a checkpoint, each one blob per tensor in
# PARAM_ORDER; the header repeats that order as blob_order for readers.
_SECTIONS = ("values", "first moments", "second moments")
_HEADER_KEYS = ("epoch", "adam_step", "rng_state", "config", "shapes", "blob_order")


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the corpus itself.

    variant "baseline" is the single-vector head: it runs the exact mask
    code path with zero learned prototypes, so only the class token remains.
    """

    n_prototypes: int = 3
    embed_dim: int = 256
    batch_size: int = 64
    epochs: int = 50
    warmup_epochs: float = 5
    peak_lr: float = 3e-5
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    variant: str = "mask"
    checkpoint_every: int = 10

    def __post_init__(self) -> None:
        if self.variant not in TRAIN_VARIANTS:
            raise ValidationError(
                f"unknown variant {self.variant!r}, expected one of {TRAIN_VARIANTS}"
            )
        self._check_at_least(n_prototypes=0)
        if self.variant == "part" and self.n_prototypes < 1:
            raise ValidationError("the part variant needs at least one prototype")
        self._check_at_least(embed_dim=1, batch_size=1, epochs=0, warmup_epochs=0)
        if self.epochs > 0 and self.warmup_epochs > self.epochs:
            raise ValidationError(
                f"warmup_epochs ({self.warmup_epochs}) must not exceed epochs ({self.epochs})"
            )
        self._check_at_least(peak_lr=0, checkpoint_every=1)
        check_seed(self.seed)  # RngStream's refusal, before a run writes anything

    def _check_at_least(self, **lows) -> None:
        """Raise ValidationError for the first of these fields below its bound."""
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def effective_prototypes(self) -> int:
        return 0 if self.variant == "baseline" else self.n_prototypes

    @property
    def head_variant(self) -> str:
        return "part" if self.variant == "part" else "mask"


@dataclass(eq=False)
class StepLog:
    step: int
    epoch: int
    lr: float
    contrastive: float
    variance: float
    total: float


@dataclass(eq=False)
class StepWorkspace:
    """Arrays that one training run's steps reuse for their large intermediates.

    The kernels of a step write into them through numpy ``out=`` arguments
    instead of allocating afresh: freed arrays of this size go back to the
    OS, and each new step would fault them in again.  The arithmetic is
    unchanged, so a step gives the same bits with or without a workspace.
    The backward reuses what the forward leaves dead: similarity_vjp's
    one-hot weights go into the stripe-product block, and each
    normalization backward writes over the similarity gradient it reads,
    with the embedded rows as its scratch.  Sized for one batch shape; it
    belongs to one run and one thread, and no array a public function
    returns points into it.
    """

    video: tuple[np.ndarray, np.ndarray]  # head_forward out: projected, embedded (L, K+1, D)
    text: tuple[np.ndarray, np.ndarray]  # text_forward out: projected, embedded (L, D)
    block: np.ndarray  # similarity_matrix stripe products (K+1, L, L), then similarity_vjp weights
    grads: tuple[np.ndarray, np.ndarray]  # similarity_vjp out: (L, D) texts, (L, K+1, D) videos

    @classmethod
    def for_config(cls, cfg: TrainConfig) -> "StepWorkspace":
        """Workspace for the batches of a run with this config.

        The arrays are views of one allocation, so the end of a run frees
        one block instead of leaving a dozen holes between live heap
        chunks; in one process such holes raised a later evaluation's
        peak RSS by 26 MiB.
        """
        batch_size, n_rows = cfg.batch_size, cfg.effective_prototypes + 1
        video, text = (batch_size, n_rows, cfg.embed_dim), (batch_size, cfg.embed_dim)
        # the fields' views in order, each on whole 64-byte lines
        shapes = (video, video, text, text, (n_rows, batch_size, batch_size), text, video)
        starts = np.cumsum([0] + [-(-math.prod(s) // 8) * 8 for s in shapes])
        storage = np.empty(starts[-1])
        v = [storage[a : a + math.prod(s)].reshape(s) for s, a in zip(shapes, starts)]
        return cls((v[0], v[1]), (v[2], v[3]), v[4], (v[5], v[6]))


@dataclass(eq=False)
class _ObjectiveForward:
    """The forward half of the objective: losses plus what the VJPs need."""

    breakdown: LossBreakdown
    sim: SimilarityMatrix
    head_cache: HeadCache
    text_cache: TextCache
    contrastive: ContrastiveForward
    variance: VarianceForward | None  # None without a variance term


def _objective_forward(
    tokens: np.ndarray,
    text_features: np.ndarray,
    params: HeadParameters,
    loss_cfg: LossConfig,
    head_variant: str = "mask",
    workspace: StepWorkspace | None = None,
    winners: bool = False,
) -> _ObjectiveForward:
    """Forward half of batch_objective for one batch; computes no gradient.

    The variance regularizer applies to a mask head with at least one
    learned prototype; the part head has no masks and the baseline head's
    masks are empty, so their variance term is 0 by definition.  Raises
    NumericError when a projected row's squared norm is not finite: the
    row would normalize to NaN or, once the norm overflows, to a silent
    zero row.  Private so that a tracer wrapping the public functions
    still sees the layer calls of a training step directly under
    batch_objective.

    Also takes a stack of points: tokens (P, L, B, token_dim), text
    (P, L, text_dim) and a head whose tensors carry a leading axis too,
    each of length P or 1.  The breakdown then holds P losses, each with the
    bits of the unstacked call.  A workspace applies to an unstacked point
    only.  The winning prototypes, which only the backward reads, are kept
    in sim when winners is set.
    """
    ws = workspace
    with np.errstate(over="ignore", invalid="ignore"):  # the sq_norms check names an overflow
        head_cache = head_forward(tokens, params, head_variant, out=ws and ws.video)
        text_cache = text_forward(text_features, params, out=ws and ws.text)
    for side, cache in (("video", head_cache), ("text", text_cache)):
        if not np.isfinite(cache.sq_norms).all():
            raise NumericError(f"the head gives non-finite {side} embeddings")
    sim = similarity_matrix(text_cache.embedded, head_cache.embedded, winners, ws and ws.block)

    contrastive = contrastive_loss(sim.scores, loss_cfg.temperature)
    variance = None
    if has_learned_masks(params, head_variant):
        variance = variance_loss(head_cache.masks, loss_cfg)
    breakdown = total_loss(contrastive.value, 0.0 if variance is None else variance.value, loss_cfg)
    return _ObjectiveForward(breakdown, sim, head_cache, text_cache, contrastive, variance)


def batch_objective(
    tokens: np.ndarray,
    text_features: np.ndarray,
    params: HeadParameters,
    loss_cfg: LossConfig,
    head_variant: str = "mask",
    want_input_grads: bool = False,
    workspace: StepWorkspace | None = None,
) -> tuple[LossBreakdown, SimilarityMatrix, tuple[np.ndarray, np.ndarray] | None]:
    """Forward + full backward for one batch; grads accumulate into params.

    Returns (losses, in-batch similarity matrix, input grads or None).  A
    workspace sized for the batch holds the intermediates; the same bits
    come out without one.
    """
    ws = workspace
    fwd = _objective_forward(tokens, text_features, params, loss_cfg, head_variant, ws, True)
    grad_text_emb, grad_video_emb = similarity_vjp(
        contrastive_vjp(fwd.contrastive),
        fwd.text_cache.embedded,
        fwd.head_cache.embedded,
        fwd.sim.winners,
        out=ws and ws.grads,
        weights=ws and ws.block,
    )
    # with a workspace, each normalization backward runs in place over its
    # gradient, with the embedded rows, which nothing reads again, as scratch
    grad_text_in = text_backward(
        text_features, params, fwd.text_cache, grad_text_emb, want_input_grads,
        scratch=ws and (grad_text_emb, fwd.text_cache.embedded),
    )
    extra = None
    if fwd.variance is not None:
        extra = loss_cfg.variance_weight * variance_vjp(fwd.variance)
    grad_tokens = head_backward(
        tokens, params, fwd.head_cache, grad_video_emb, extra, want_input_grads,
        scratch=ws and (grad_video_emb, fwd.head_cache.embedded),
    )
    inputs = (grad_tokens, grad_text_in) if want_input_grads else None
    return fwd.breakdown, fwd.sim, inputs


def train_step(
    batch: Batch,
    params: HeadParameters,
    adam: AdamState,
    cfg: TrainConfig,
    lr: float,
    workspace: StepWorkspace | None = None,
) -> LossBreakdown:
    """One optimizer step on one batch; zeroes and repopulates all grads.

    A workspace sized for the batch holds the step's intermediates; the
    same bits come out without one.
    """
    params.grads.fill(0.0)
    breakdown, _, _ = batch_objective(
        batch.tokens, batch.text_features, params, cfg.loss, cfg.head_variant,
        workspace=workspace,
    )
    adam_step(params.values, params.grads, adam, lr)
    return breakdown


def validate_setup(corpus: Corpus, cfg: TrainConfig) -> None:
    """Config-versus-corpus checks, run before any artifact is written."""
    if cfg.batch_size > corpus.num_videos:
        raise ValidationError(
            f"batch size {cfg.batch_size} exceeds corpus size {corpus.num_videos}"
        )
    n_tokens = corpus.dims[0]
    if cfg.variant == "part" and cfg.n_prototypes > n_tokens - 1:
        raise ValidationError(
            f"part variant needs n_prototypes ({cfg.n_prototypes}) <= "
            f"non-class tokens ({n_tokens - 1})"
        )


def train(
    corpus: Corpus,
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[HeadParameters, list[StepLog]]:
    """Full training run; returns final parameters and the per-step log.

    When out_dir is given, checkpoints go to out_dir/checkpoints/ every
    cfg.checkpoint_every epochs plus a final one.  Resuming from a
    checkpoint continues the interrupted run bit-exactly; a checkpoint
    saved under another config raises ValidationError naming the first
    field that differs.
    """
    validate_setup(corpus, cfg)
    _, token_dim, text_dim = corpus.dims

    init_rng = RngStream(cfg.seed, stream=0)
    sampler_rng = RngStream(cfg.seed, stream=1)
    params = init_head(cfg.effective_prototypes, token_dim, text_dim, cfg.embed_dim, init_rng)
    adam = AdamState.init(params.tensors())
    start_epoch = 0
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if state.config != cfg:  # a different run's state would train on silently or crash
            saved, given = (
                {**dataclasses.asdict(c), **dataclasses.asdict(c.loss)} for c in (state.config, cfg)
            )
            key = next(k for k in given if k != "loss" and saved[k] != given[k])
            raise ValidationError(
                f"checkpoint {resume_from} was saved with {key} = {saved[key]!r}, "
                f"this run has {given[key]!r}"
            )
        params, adam, start_epoch = state.params, state.adam, state.epoch
        sampler_rng.set_state(state.rng_state)

    steps_per_epoch = corpus.num_videos // cfg.batch_size
    ckpt_dir = None
    if out_dir is not None:
        ckpt_dir = Path(out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    workspace = StepWorkspace.for_config(cfg)
    history: list[StepLog] = []
    step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, cfg.epochs):
        for batch in make_batches(corpus, cfg.batch_size, sampler_rng):
            lr = lr_at(step / steps_per_epoch, cfg.warmup_epochs, cfg.peak_lr, cfg.epochs)
            try:
                breakdown = train_step(batch, params, adam, cfg, lr, workspace)
            except NumericError as exc:
                raise NumericError(f"training step {step} (epoch {epoch}): {exc}") from exc
            history.append(
                StepLog(step, epoch, lr, breakdown.contrastive, breakdown.variance, breakdown.total)
            )
            step += 1
        done = epoch + 1
        if ckpt_dir is not None and (done % cfg.checkpoint_every == 0 or done == cfg.epochs):
            state = CheckpointState(params, adam, done, sampler_rng.state, cfg)
            save_checkpoint(state, ckpt_dir / f"epoch_{done:04d}.bin")
    return params, history


def write_history_csv(history: list[StepLog], path: str | Path) -> None:
    """Per-step training log; full-precision floats so reruns are byte-equal."""
    columns = [f.name for f in dataclasses.fields(StepLog)]
    lines = [",".join(columns)]
    for row in history:
        lines.append(",".join(repr(getattr(row, name)) for name in columns))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checkpointing.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CheckpointState:
    """Everything needed to continue a run as if it had never stopped."""

    params: HeadParameters
    adam: AdamState
    epoch: int  # completed epochs
    rng_state: dict  # batch sampler stream state
    config: TrainConfig


def _rng_state_to_json(value):
    if isinstance(value, dict):
        return {k: _rng_state_to_json(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return {"__array__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _rng_state_from_json(value):
    if isinstance(value, dict):
        if "__array__" in value:
            return np.asarray(value["__array__"], dtype=value["dtype"])
        return {k: _rng_state_from_json(v) for k, v in value.items()}
    return value


def save_checkpoint(state: CheckpointState, path: str | Path) -> None:
    """Versioned binary: magic, version, JSON header, float64 little-endian blobs.

    Parameters and Adam moments are stored at full float64 so a resumed run
    continues bit-exactly.  The file appears whole or not at all, and once
    this returns it survives a power loss: the data is flushed to disk
    before the rename and the directory entry after it.
    """
    header = {
        "epoch": state.epoch,
        "adam_step": state.adam.step,
        "rng_state": _rng_state_to_json(state.rng_state),
        "config": dataclasses.asdict(state.config),
        "shapes": {name: list(t.value.shape) for name, t in state.params.tensors().items()},
        "blob_order": list(PARAM_ORDER),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # written beside the target and renamed over it, so a crash mid-write
    # leaves the previous checkpoint, if any, whole
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for vector in (state.params.values, state.adam.first, state.adam.second):
                fh.write(np.ascontiguousarray(vector, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _config_from_header(path: Path, config) -> TrainConfig:
    """The header's config object as a TrainConfig, or a CheckpointError."""
    if not isinstance(config, dict) or not isinstance(config.get("loss"), dict):
        raise CheckpointError(f"{path} header config is not an object with a loss object")
    # a missing key would silently take its default
    for where, cls, given in (
        ("config", TrainConfig, config),
        ("loss", LossConfig, config["loss"]),
    ):
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in given]
        if missing:
            raise CheckpointError(f"{path} header {where} lacks key(s) {', '.join(missing)}")
    try:
        return TrainConfig(**{**config, "loss": LossConfig(**config["loss"])})
    except (TypeError, ValidationError) as exc:  # unknown key, ill-typed or bad value
        raise CheckpointError(f"{path} header config is invalid: {exc}") from exc


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Inverse of save_checkpoint.

    Raises CheckpointError naming the path for a bad magic or version, a
    truncated or padded file, a header missing a key or holding a value a
    resumed run could not use, and a non-finite parameter or Adam moment.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 16 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", data[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {version}, this reader handles {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack("<Q", data[8:16])
    if len(data) < 16 + header_len:
        raise CheckpointError(f"{path} is truncated inside the header")
    try:
        header = json.loads(data[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path} has a corrupt header (not a JSON object)")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"{path} header lacks key(s) {', '.join(missing)}")

    order, shapes = header["blob_order"], header["shapes"]
    if order != list(PARAM_ORDER):
        raise CheckpointError(
            f"{path} header blob_order {order!r} is not {list(PARAM_ORDER)!r}"
        )
    if not isinstance(shapes, dict):
        raise CheckpointError(f"{path} header shapes is not an object")
    for name in PARAM_ORDER:
        if name not in shapes:
            raise CheckpointError(f"{path} header shapes lack tensor '{name}'")
        shape = shapes[name]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(
                f"{path} header shape of '{name}' is {shape!r}, "
                "not a list of non-negative integers"
            )
    config = _config_from_header(path, header["config"])
    # -1 where a tensor has the wrong rank, which no valid shape matches
    token_dim = shapes["vproj_w"][0] if len(shapes["vproj_w"]) == 2 else -1
    text_dim = shapes["tproj_w"][0] if len(shapes["tproj_w"]) == 2 else -1
    k, embed_dim = config.effective_prototypes, config.embed_dim
    expected = {"mask_w": [token_dim, k], "mask_b": [k],
                "vproj_w": [token_dim, embed_dim], "tproj_w": [text_dim, embed_dim]}
    if any(shapes[name] != expected[name] for name in PARAM_ORDER):
        raise CheckpointError(
            f"{path} header shapes {shapes!r} do not fit a head of {k} prototypes "
            f"and embed_dim {embed_dim}, as its config gives"
        )
    for key in ("epoch", "adam_step"):
        if type(header[key]) is not int or header[key] < 0:
            raise CheckpointError(
                f"{path} header {key} is {header[key]!r}, not a non-negative integer"
            )
    try:
        rng_state = _rng_state_from_json(header["rng_state"])
        RngStream(0).set_state(rng_state)
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
        raise CheckpointError(
            f"{path} header rng_state is not a sampler state ({type(exc).__name__}: {exc})"
        ) from exc

    # the body is the three vectors back to back, each one blob per tensor
    sizes = [math.prod(shapes[name]) for name in PARAM_ORDER]
    start, body = 16 + header_len, 8 * len(_SECTIONS) * sum(sizes)
    floats = np.frombuffer(data, "<f8", count=min(len(data) - start, body) // 8, offset=start)
    offset = 0
    for section in _SECTIONS:
        for name, size in zip(PARAM_ORDER, sizes):
            if floats.size < offset + size:
                raise CheckpointError(f"{path} is truncated inside blob '{name}'")
            if not np.isfinite(floats[offset : offset + size]).all():
                raise CheckpointError(f"{path} has non-finite {section} of '{name}'")
            offset += size
    if len(data) > start + body:
        raise CheckpointError(f"{path} has {len(data) - start - body} trailing bytes")

    values, first, second = floats.astype(np.float64).reshape(len(_SECTIONS), sum(sizes))
    params = HeadParameters.from_vector(values, shapes)
    adam = AdamState(first, second, step=header["adam_step"])
    return CheckpointState(params, adam, header["epoch"], rng_state, config)


# ---------------------------------------------------------------------------
# Full-objective finite-difference check (also driven by the CLI).
# ---------------------------------------------------------------------------


# The point objective_finite_diff draws: a batch of 4 videos of 9 tokens of
# dim 8 with 7-dim captions, through a head of 2 learned prototypes into a
# 6-dim joint space.  Small enough that central differences over every
# coordinate of every tensor stay fast.
GRADCHECK_DRAW = {
    "batch": 4, "n_tokens": 9, "token_dim": 8, "text_dim": 7, "n_prototypes": 2, "embed_dim": 6
}
# How far a draw must sit from every kink, and how many draws to try.
KINK_MARGIN = 1e-3
MAX_DRAWS = 64


def objective_finite_diff(seed: int, loss_cfg: LossConfig | None = None) -> float:
    """Finite-difference check of the whole objective at one random point.

    Checks the gradient of the total loss (max-matching + contrastive +
    variance) with respect to every parameter tensor AND the token/text
    inputs, at a point of the GRADCHECK_DRAW sizes.  The objective is
    piecewise smooth, so draws falling within KINK_MARGIN of a relu kink, a
    prototype-max tie, or a variance hinge boundary are resampled (finite
    differences are meaningless there).
    The analytic gradient comes from one batch_objective call at the drawn
    point; the perturbed points run only the forward half, a chunk of them
    per call on a stack of heads.  Returns the max relative error over all
    coordinates.
    """
    cfg = loss_cfg if loss_cfg is not None else LossConfig()
    d = GRADCHECK_DRAW
    for attempt in range(MAX_DRAWS):
        rng = RngStream(seed, stream=attempt + 2)
        tokens = rng.normal((d["batch"], d["n_tokens"], d["token_dim"]))
        text = rng.normal((d["batch"], d["text_dim"]))
        params = init_head(d["n_prototypes"], d["token_dim"], d["text_dim"], d["embed_dim"], rng)
        if _near_nonsmooth_point(tokens, text, params, cfg):
            continue

        _, _, inputs = batch_objective(tokens, text, params, cfg, want_input_grads=True)
        values = {name: t.value for name, t in params.tensors().items()}
        grads = {name: t.grad for name, t in params.tensors().items()}
        values["tokens"], values["text"] = tokens, text
        grads["tokens"], grads["text"] = inputs

        def loss_fn(values: dict[str, np.ndarray]) -> np.ndarray:
            stacked = HeadParameters(**{name: ParamTensor(values[name]) for name in PARAM_ORDER})
            return _objective_forward(values["tokens"], values["text"], stacked, cfg).breakdown.total

        return finite_diff_check(loss_fn, values, grads)
    raise NumericError(
        f"could not draw a point {KINK_MARGIN} away from all kinks in {MAX_DRAWS} tries"
    )


def _near_nonsmooth_point(
    tokens: np.ndarray,
    text: np.ndarray,
    params: HeadParameters,
    cfg: LossConfig,
) -> bool:
    """True if the objective is within KINK_MARGIN of any non-differentiable spot."""
    cache = head_forward(tokens, params)
    if np.abs(cache.acts).min() < KINK_MARGIN:  # relu kink
        return True
    text_emb = text_forward(text, params).embedded
    per_proto = prototype_scores(text_emb, cache.embedded)
    if per_proto.shape[2] >= 2:  # prototype-max tie
        top2 = np.sort(per_proto, axis=2)[:, :, -2:]
        if (top2[:, :, 1] - top2[:, :, 0]).min() < KINK_MARGIN:
            return True
    if has_learned_masks(params, "mask"):  # variance hinge boundary
        _, std = mask_std(cache.masks, cfg)
        if np.abs(cfg.std_target - std).min() < KINK_MARGIN:
            return True
    return False
