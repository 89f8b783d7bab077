"""Multi-prototype video head: masks, aggregation, projection, and backward.

A video arrives as B token features (row 0 is the class/summary token).
K soft masks over the tokens are predicted by a linear layer + relu; each
mask aggregates all B tokens into one prototype vector.  The class token is
appended as prototype K, so the head always emits K+1 prototypes, which are
then linearly projected into the joint embedding space and row-normalized.
Text features take a separate linear projection into the same space.

All gradients here are hand-written vector-Jacobian products accumulated
into views of the head's one flat gradient vector (see HeadParameters);
there is no autodiff anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericError, ShapeError, ValidationError
from .numerics import (
    ParamTensor,
    RngStream,
    l2_normalize_rows_vjp,
    l2_normalize_rows_with_norms,
    relu,
    relu_vjp,
)

VARIANTS = ("mask", "part")
# The order of the tensors in the flat vectors, and so in a checkpoint.
PARAM_ORDER = ("mask_w", "mask_b", "vproj_w", "tproj_w")


@dataclass(eq=False)
class HeadParameters:
    """All trainable tensors of the retrieval head.

    Built by from_vector, its values and gradients are each one flat
    float64 vector in PARAM_ORDER, and its tensors are views into them.
    The forward kernels also take a stack of heads, with no gradients or
    flat vectors: every tensor may carry leading axes that broadcast
    against each other and the inputs', and the dims are read from the
    trailing axes.
    """

    mask_w: ParamTensor  # (..., token_dim, n_prototypes)
    mask_b: ParamTensor  # (..., n_prototypes)
    vproj_w: ParamTensor  # (..., token_dim, embed_dim)
    tproj_w: ParamTensor  # (..., text_dim, embed_dim)
    values: np.ndarray | None = None
    grads: np.ndarray | None = None

    @classmethod
    def from_vector(cls, values: np.ndarray, shapes: Mapping[str, Sequence[int]]) -> HeadParameters:
        """The head whose tensors are back-to-back views of values, with zero gradients."""
        sizes = [math.prod(shapes[name]) for name in PARAM_ORDER]
        if values.shape != (sum(sizes),):
            raise ShapeError(f"parameter vector {values.shape} does not hold {sum(sizes)} values")
        grads, tensors, start = np.zeros_like(values), {}, 0
        for name, size in zip(PARAM_ORDER, sizes):
            part, shape = slice(start, start + size), tuple(shapes[name])
            tensors[name] = ParamTensor(values[part].reshape(shape), grads[part].reshape(shape))
            start += size
        return cls(**tensors, values=values, grads=grads)

    @property
    def n_prototypes(self) -> int:
        return self.mask_w.value.shape[-1]

    @property
    def token_dim(self) -> int:
        return self.vproj_w.value.shape[-2]

    @property
    def text_dim(self) -> int:
        return self.tproj_w.value.shape[-2]

    @property
    def embed_dim(self) -> int:
        return self.vproj_w.value.shape[-1]

    def tensors(self) -> dict[str, ParamTensor]:
        return {name: getattr(self, name) for name in PARAM_ORDER}


def init_head(
    n_prototypes: int,
    token_dim: int,
    text_dim: int,
    embed_dim: int,
    rng: RngStream,
) -> HeadParameters:
    """Glorot-uniform weights; mask bias starts at +0.1 so masks begin live."""
    if n_prototypes < 0:
        raise ValidationError(f"n_prototypes must be >= 0, got {n_prototypes}")
    if min(token_dim, text_dim, embed_dim) < 1:
        raise ValidationError(
            f"dims must be >= 1, got token={token_dim} text={text_dim} embed={embed_dim}"
        )

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out)) if fan_in + fan_out else 0.0
        return rng.uniform(-bound, bound, (fan_in, fan_out))

    tensors = {
        "mask_w": glorot(token_dim, n_prototypes),
        "mask_b": np.full(n_prototypes, 0.1),
        "vproj_w": glorot(token_dim, embed_dim),
        "tproj_w": glorot(text_dim, embed_dim),
    }
    values = np.concatenate([tensors[name].ravel() for name in PARAM_ORDER])
    return HeadParameters.from_vector(values, {name: t.shape for name, t in tensors.items()})


# ---------------------------------------------------------------------------
# Batched forward/backward over a stack of L videos.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HeadCache:
    """Forward intermediates kept for the backward pass; a part head has no masks."""

    acts: np.ndarray | None  # (..., L, B, K); None for the part variant
    masks: np.ndarray | None  # (..., L, B, K); None for the part variant
    protos: np.ndarray  # (..., L, K+1, token_dim)
    projected: np.ndarray  # (..., L, K+1, embed_dim)
    embedded: np.ndarray  # (..., L, K+1, embed_dim), unit rows
    sq_norms: np.ndarray  # (..., L, K+1), each projected row's squared norm


def head_forward(
    tokens: np.ndarray,
    params: HeadParameters,
    variant: str = "mask",
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> HeadCache:
    """Embed a (..., L, B, token_dim) stack of videos into (..., L, K+1, embed_dim).

    The part variant mean-pools the B-1 non-class tokens of each video in
    K contiguous chunks laid out by _part_bounds.  Either variant appends
    the class token as the final prototype.  Leading axes of the tokens
    and of a stack of heads broadcast; each (L, B, token_dim) slice gives
    the same bits as an unstacked call.  out, if given, is a pair of
    (..., L, K+1, embed_dim) arrays that receive the projected and the
    embedded prototypes.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown head variant {variant!r}, expected one of {VARIANTS}")
    if tokens.ndim < 3 or tokens.shape[-1] != params.token_dim:
        raise ShapeError(
            f"token stack {tokens.shape} does not conform with head token_dim {params.token_dim}"
        )
    if variant == "mask":
        # the weights gain a video axis, so every product is one (B, token_dim) gemm
        acts = tokens @ params.mask_w.value[..., None, :, :]
        acts = acts + params.mask_b.value[..., None, None, :]
        masks = relu(acts)
        learned = masks.swapaxes(-1, -2) @ tokens
        cls = np.broadcast_to(tokens[..., 0:1, :], learned.shape[:-2] + (1, tokens.shape[-1]))
        protos = np.concatenate([learned, cls], axis=-2)
    else:
        n_body, n_parts = tokens.shape[-2] - 1, params.n_prototypes
        if not 1 <= n_parts <= n_body:
            raise ValidationError(
                f"n_parts must be in [1, {n_body}] for {tokens.shape[-2]} tokens, got {n_parts}"
            )
        acts = masks = None
        bounds = _part_bounds(n_body, n_parts)
        parts = [tokens[..., 1 + lo : 1 + hi, :].mean(axis=-2) for lo, hi in bounds]
        protos = np.stack(parts + [tokens[..., 0, :]], axis=-2)
    projected_out, embedded_out = (None, None) if out is None else out
    projected = np.matmul(protos, params.vproj_w.value[..., None, :, :], out=projected_out)
    embedded, sq_norms = l2_normalize_rows_with_norms(projected, embedded_out)
    return HeadCache(acts, masks, protos, projected, embedded, sq_norms)


def head_backward(
    tokens: np.ndarray,
    params: HeadParameters,
    cache: HeadCache,
    grad_embedded: np.ndarray,
    extra_mask_grad: np.ndarray | None = None,
    want_input_grads: bool = False,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray | None:
    """Accumulate parameter gradients for the batched head forward.

    grad_embedded is d(loss)/d(embedded prototypes), shape (L, K+1, embed_dim).
    extra_mask_grad, if given, is an additional d(loss)/d(masks) term (the
    mask regularizer contributes one) and is added before the relu backward.
    scratch, if given, is a pair of (L, K+1, embed_dim) arrays for the
    normalization backward's output and temporaries.
    Returns d(loss)/d(tokens) when want_input_grads is set, else None.
    """
    if grad_embedded.shape != cache.embedded.shape:
        raise ShapeError(
            f"grad {grad_embedded.shape} does not conform with embedded {cache.embedded.shape}"
        )
    n_videos, n_tokens, token_dim = tokens.shape
    k = params.n_prototypes
    vjp_out, vjp_scratch = (None, None) if scratch is None else scratch
    grad_projected = l2_normalize_rows_vjp(
        cache.projected, cache.sq_norms, grad_embedded, out=vjp_out, scratch=vjp_scratch
    )

    # the weight gradients sum over videos and rows in one gemm each; the sizes
    # are explicit since a K=0 head has zero-size arrays, which reshape(-1, 0)
    # cannot infer
    rows = n_videos * (k + 1)
    params.vproj_w.grad += (
        cache.protos.reshape(rows, token_dim).T @ grad_projected.reshape(rows, params.embed_dim)
    )
    grad_protos = grad_projected @ params.vproj_w.value.T  # (L, K+1, token_dim)
    grad_learned = grad_protos[:, :k, :]
    grad_class = grad_protos[:, k, :]  # (L, token_dim)

    grad_tokens = None
    if cache.masks is not None:
        grad_masks = tokens @ grad_learned.swapaxes(-1, -2)
        if extra_mask_grad is not None:
            grad_masks = grad_masks + extra_mask_grad
        grad_acts = relu_vjp(cache.acts, grad_masks)
        flat = n_videos * n_tokens
        params.mask_w.grad += tokens.reshape(flat, token_dim).T @ grad_acts.reshape(flat, k)
        params.mask_b.grad += grad_acts.sum(axis=(0, 1))
        if want_input_grads:
            grad_tokens = cache.masks @ grad_learned
            grad_tokens += grad_acts @ params.mask_w.value.T
            grad_tokens[:, 0, :] += grad_class
    else:
        if extra_mask_grad is not None:
            raise ValidationError("the part variant has no masks to receive a mask gradient")
        if want_input_grads:
            grad_tokens = np.zeros_like(tokens)
            bounds = _part_bounds(tokens.shape[1] - 1, k)
            for part, (lo, hi) in enumerate(bounds):
                grad_tokens[:, 1 + lo : 1 + hi, :] += grad_learned[:, part : part + 1, :] / (hi - lo)
            grad_tokens[:, 0, :] += grad_class
    return grad_tokens


def _part_bounds(n_body: int, n_parts: int) -> list[tuple[int, int]]:
    """Half-open ranges cutting n_body items into n_parts contiguous chunks.

    Chunk sizes differ by at most one and earlier chunks take the extra
    item, the layout of np.array_split.
    """
    size, extra = divmod(n_body, n_parts)
    return [(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra)) for i in range(n_parts)]


@dataclass(eq=False)
class TextCache:
    projected: np.ndarray  # (..., L, embed_dim)
    embedded: np.ndarray  # (..., L, embed_dim), unit rows
    sq_norms: np.ndarray  # (..., L), each projected row's squared norm


def text_forward(
    features: np.ndarray,
    params: HeadParameters,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> TextCache:
    """Embed a (..., L, text_dim) stack of caption features into unit vectors.

    Leading axes broadcast against a stack of heads, as in head_forward.
    out, if given, is a pair of (..., L, embed_dim) arrays that receive the
    projected and the embedded captions.
    """
    if features.ndim < 2 or features.shape[-1] != params.text_dim:
        raise ShapeError(
            f"text stack {features.shape} does not conform with head text_dim {params.text_dim}"
        )
    projected_out, embedded_out = (None, None) if out is None else out
    projected = np.matmul(features, params.tproj_w.value, out=projected_out)
    return TextCache(projected, *l2_normalize_rows_with_norms(projected, embedded_out))


def text_backward(
    features: np.ndarray,
    params: HeadParameters,
    cache: TextCache,
    grad_embedded: np.ndarray,
    want_input_grads: bool = False,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray | None:
    """Accumulate the text projection gradient; optionally return input grads.

    scratch, if given, is a pair of (L, embed_dim) arrays for the
    normalization backward's output and temporaries.
    """
    vjp_out, vjp_scratch = (None, None) if scratch is None else scratch
    grad_projected = l2_normalize_rows_vjp(
        cache.projected, cache.sq_norms, grad_embedded, out=vjp_out, scratch=vjp_scratch
    )
    params.tproj_w.grad += features.T @ grad_projected
    return grad_projected @ params.tproj_w.value.T if want_input_grads else None


def embed_videos(
    token_stacks: np.ndarray, params: HeadParameters, variant: str = "mask"
) -> np.ndarray:
    """Forward-only: (V, B, token_dim) -> (V, K+1, embed_dim).

    Raises NumericError, in place of overflow warnings, when a projected
    row's squared norm is not finite: its embedding is then NaN or, once
    the norm overflows, a silent zero row.  A NaN score is never strictly
    above another, so ranking them would put every ground truth first.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cache = head_forward(token_stacks, params, variant)
    if not np.isfinite(cache.sq_norms).all():
        raise NumericError("the head gives non-finite video embeddings; nothing to rank")
    return cache.embedded


def embed_texts(features: np.ndarray, params: HeadParameters) -> np.ndarray:
    """Forward-only: (T, text_dim) -> (T, embed_dim) unit rows.

    Raises NumericError when a projected row's squared norm is not finite,
    as embed_videos does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cache = text_forward(features, params)
    if not np.isfinite(cache.sq_norms).all():
        raise NumericError("the head gives non-finite text embeddings; nothing to rank")
    return cache.embedded

