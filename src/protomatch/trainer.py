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
from .losses import LossBreakdown, LossConfig, contrastive_loss, total_loss, variance_loss
from .matching import SimilarityMatrix, prototype_scores, similarity_matrix, similarity_vjp
from .numerics import (
    AdamState,
    LrSchedule,
    ParamTensor,
    RngStream,
    adam_step,
    finite_diff_check,
    lr_at,
)
from .prototypes import (
    HeadParameters,
    head_backward,
    head_forward,
    init_head,
    text_backward,
    text_forward,
)

TRAIN_VARIANTS = ("mask", "part", "baseline")

CHECKPOINT_MAGIC = b"PMCK"
CHECKPOINT_VERSION = 1
# Fixed blob order inside a checkpoint; the header repeats it for readers.
PARAM_ORDER = ("mask_w", "mask_b", "vproj_w", "tproj_w")
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
        if self.n_prototypes < 0:
            raise ValidationError(f"n_prototypes must be >= 0, got {self.n_prototypes}")
        if self.variant == "part" and self.n_prototypes < 1:
            raise ValidationError("the part variant needs at least one prototype")
        if self.embed_dim < 1:
            raise ValidationError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.warmup_epochs < 0:
            raise ValidationError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.epochs > 0 and self.warmup_epochs > self.epochs:
            raise ValidationError(
                f"warmup_epochs ({self.warmup_epochs}) must not exceed epochs ({self.epochs})"
            )
        if self.peak_lr < 0:
            raise ValidationError(f"peak_lr must be >= 0, got {self.peak_lr}")
        if self.checkpoint_every < 1:
            raise ValidationError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

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


def batch_objective(
    tokens: np.ndarray,
    text_features: np.ndarray,
    params: HeadParameters,
    loss_cfg: LossConfig,
    head_variant: str = "mask",
    want_input_grads: bool = False,
) -> tuple[LossBreakdown, SimilarityMatrix, tuple[np.ndarray, np.ndarray] | None]:
    """Forward + full backward for one batch; grads accumulate into params.

    Returns (losses, in-batch similarity matrix, input grads or None).  The
    variance regularizer applies to the mask variant only; the part variant
    has no masks, so its variance term is 0 by definition.
    """
    head_cache = head_forward(tokens, params, head_variant)
    text_cache = text_forward(text_features, params)
    sim = similarity_matrix(text_cache.embedded, head_cache.embedded)

    contrastive, grad_scores = contrastive_loss(sim.scores, loss_cfg.temperature)
    if head_variant == "mask":
        variance, grad_masks = variance_loss(head_cache.masks, loss_cfg)
    else:
        variance, grad_masks = 0.0, None
    breakdown = total_loss(contrastive, variance, loss_cfg)

    grad_text_emb, grad_video_emb = similarity_vjp(
        grad_scores, text_cache.embedded, head_cache.embedded, sim.winners
    )
    grad_text_in = text_backward(
        text_features, params, text_cache, grad_text_emb, want_input_grads
    )
    extra = None
    if grad_masks is not None and params.n_prototypes > 0:
        extra = loss_cfg.variance_weight * grad_masks
    grad_tokens = head_backward(
        tokens, params, head_cache, grad_video_emb, extra, want_input_grads
    )
    inputs = (grad_tokens, grad_text_in) if want_input_grads else None
    return breakdown, sim, inputs


def train_step(
    batch: Batch,
    params: HeadParameters,
    adam: AdamState,
    cfg: TrainConfig,
    lr: float,
) -> LossBreakdown:
    """One optimizer step on one batch; zeroes and repopulates all grads."""
    params.zero_grads()
    breakdown, _, _ = batch_objective(
        batch.tokens, batch.text_features, params, cfg.loss, cfg.head_variant
    )
    adam_step(params.tensors(), adam, lr)
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
    checkpoint continues the interrupted run bit-exactly.
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
        params, adam, start_epoch = state.params, state.adam, state.epoch
        sampler_rng.set_state(state.rng_state)

    steps_per_epoch = corpus.num_videos // cfg.batch_size
    schedule = None
    if cfg.epochs > 0:
        schedule = LrSchedule(cfg.warmup_epochs, cfg.peak_lr, cfg.epochs, steps_per_epoch)
    ckpt_dir = None
    if out_dir is not None:
        ckpt_dir = Path(out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    history: list[StepLog] = []
    step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, cfg.epochs):
        for batch in make_batches(corpus, cfg.batch_size, sampler_rng):
            lr = lr_at(step / steps_per_epoch, schedule)
            try:
                breakdown = train_step(batch, params, adam, cfg, lr)
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
    lines = ["step,epoch,lr,contrastive,variance,total"]
    for row in history:
        lines.append(
            f"{row.step},{row.epoch},{row.lr!r},{row.contrastive!r},"
            f"{row.variance!r},{row.total!r}"
        )
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
    continues bit-exactly.  The file appears whole or not at all.
    """
    tensors = state.params.tensors()
    header = {
        "epoch": state.epoch,
        "adam_step": state.adam.step,
        "rng_state": _rng_state_to_json(state.rng_state),
        "config": dataclasses.asdict(state.config),
        "shapes": {name: list(tensors[name].value.shape) for name in PARAM_ORDER},
        "blob_order": list(PARAM_ORDER),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = []
    for name in PARAM_ORDER:
        blobs.append(np.ascontiguousarray(tensors[name].value, dtype="<f8").tobytes())
    for moments in (state.adam.first, state.adam.second):
        for name in PARAM_ORDER:
            blobs.append(np.ascontiguousarray(moments[name], dtype="<f8").tobytes())
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
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _config_from_header(path: Path, config) -> TrainConfig:
    """The header's config object as a TrainConfig, or a CheckpointError."""
    if not isinstance(config, dict) or not isinstance(config.get("loss"), dict):
        raise CheckpointError(f"{path} header config is not an object with a loss object")
    try:
        return TrainConfig(**{**config, "loss": LossConfig(**config["loss"])})
    except (TypeError, ValidationError) as exc:  # unknown key, ill-typed or bad value
        raise CheckpointError(f"{path} header config is invalid: {exc}") from exc


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Inverse of save_checkpoint; explicit errors on version or truncation."""
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
    if (
        not isinstance(order, list)
        or len(order) != len(PARAM_ORDER)
        or any(name not in order for name in PARAM_ORDER)
    ):
        raise CheckpointError(
            f"{path} header blob_order {order!r} does not list the tensors "
            f"{', '.join(PARAM_ORDER)} once each"
        )
    if not isinstance(shapes, dict):
        raise CheckpointError(f"{path} header shapes is not an object")
    for name in order:
        if name not in shapes:
            raise CheckpointError(f"{path} header shapes lack tensor '{name}'")
        shape = shapes[name]
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise CheckpointError(
                f"{path} header shape of '{name}' is {shape!r}, "
                "not a list of non-negative integers"
            )
    config = _config_from_header(path, header["config"])

    offset = 16 + header_len
    arrays: list[np.ndarray] = []
    for _section in range(3):  # values, first moments, second moments
        for name in order:
            shape = tuple(shapes[name])
            nbytes = math.prod(shape) * 8
            if len(data) < offset + nbytes:
                raise CheckpointError(f"{path} is truncated inside blob '{name}'")
            arrays.append(
                np.frombuffer(data[offset : offset + nbytes], dtype="<f8")
                .astype(np.float64)
                .reshape(shape)
            )
            offset += nbytes
    if offset != len(data):
        raise CheckpointError(f"{path} has {len(data) - offset} trailing bytes")

    n = len(order)
    params = HeadParameters(**{name: ParamTensor(arrays[i]) for i, name in enumerate(order)})
    adam = AdamState(
        first={name: arrays[n + i] for i, name in enumerate(order)},
        second={name: arrays[2 * n + i] for i, name in enumerate(order)},
        step=header["adam_step"],
    )
    return CheckpointState(params, adam, header["epoch"], _rng_state_from_json(header["rng_state"]), config)


# ---------------------------------------------------------------------------
# Full-objective finite-difference check (also driven by the CLI).
# ---------------------------------------------------------------------------


def objective_finite_diff(
    seed: int,
    batch: int = 4,
    n_tokens: int = 9,
    token_dim: int = 8,
    n_prototypes: int = 2,
    embed_dim: int = 6,
    text_dim: int = 7,
    loss_cfg: LossConfig | None = None,
    step: float = 1e-5,
    kink_margin: float = 1e-3,
    max_tries: int = 64,
) -> float:
    """Finite-difference check of the whole objective at one random point.

    Checks the gradient of the total loss (max-matching + contrastive +
    variance) with respect to every parameter tensor AND the token/text
    inputs.  The objective is piecewise smooth, so draws falling within
    kink_margin of a relu kink, a prototype-max tie, or a variance hinge
    boundary are resampled (finite differences are meaningless there).
    Returns the max relative error over all coordinates.
    """
    cfg = loss_cfg if loss_cfg is not None else LossConfig()
    for attempt in range(max_tries):
        rng = RngStream(seed, stream=attempt + 2)
        tokens = rng.normal((batch, n_tokens, token_dim))
        text = rng.normal((batch, text_dim))
        params = init_head(n_prototypes, token_dim, text_dim, embed_dim, rng)
        if _near_nonsmooth_point(tokens, text, params, cfg, kink_margin):
            continue

        def fn(values: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
            p = HeadParameters(
                mask_w=ParamTensor(values["mask_w"]),
                mask_b=ParamTensor(values["mask_b"]),
                vproj_w=ParamTensor(values["vproj_w"]),
                tproj_w=ParamTensor(values["tproj_w"]),
            )
            breakdown, _, inputs = batch_objective(
                values["tokens"], values["text"], p, cfg, want_input_grads=True
            )
            grads = {name: t.grad for name, t in p.tensors().items()}
            grads["tokens"], grads["text"] = inputs
            return breakdown.total, grads

        values = {name: t.value for name, t in params.tensors().items()}
        values["tokens"], values["text"] = tokens, text
        return finite_diff_check(fn, values, step)
    raise NumericError(
        f"could not draw a point {kink_margin} away from all kinks in {max_tries} tries"
    )


def _near_nonsmooth_point(
    tokens: np.ndarray,
    text: np.ndarray,
    params: HeadParameters,
    cfg: LossConfig,
    margin: float,
) -> bool:
    """True if the objective is within margin of any non-differentiable spot."""
    cache = head_forward(tokens, params)
    if np.abs(cache.acts).min() < margin:  # relu kink
        return True
    text_emb = text_forward(text, params).embedded
    per_proto = prototype_scores(text_emb, cache.embedded)
    if per_proto.shape[2] >= 2:  # prototype-max tie
        top2 = np.sort(per_proto, axis=2)[:, :, -2:]
        if (top2[:, :, 1] - top2[:, :, 0]).min() < margin:
            return True
    if params.n_prototypes > 0:  # variance hinge boundary
        pooled = tokens.shape[0] * params.n_prototypes
        mean = cache.masks.mean(axis=(0, 2), keepdims=True)
        var = ((cache.masks - mean) ** 2).sum(axis=(0, 2)) / pooled
        if np.abs(cfg.std_target - np.sqrt(var + cfg.variance_floor)).min() < margin:
            return True
    return False
