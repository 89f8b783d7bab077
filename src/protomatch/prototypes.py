"""Multi-prototype video head: masks, aggregation, projection, and backward.

A video arrives as B token features (row 0 is the class/summary token).
K soft masks over the tokens are predicted by a linear layer + relu; each
mask aggregates all B tokens into one prototype vector.  The class token is
appended as prototype K, so the head always emits K+1 prototypes, which are
then linearly projected into the joint embedding space and row-normalized.
Text features take a separate linear projection into the same space.

All gradients here are hand-written vector-Jacobian products accumulated
into ParamTensor.grad; there is no autodiff anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import (
    ParamTensor,
    RngStream,
    l2_normalize_rows,
    l2_normalize_rows_vjp,
    relu,
    relu_vjp,
)

VARIANTS = ("mask", "part")


@dataclass(eq=False)
class HeadParameters:
    """All trainable tensors of the retrieval head."""

    mask_w: ParamTensor  # (token_dim, n_prototypes)
    mask_b: ParamTensor  # (n_prototypes,)
    vproj_w: ParamTensor  # (token_dim, embed_dim)
    tproj_w: ParamTensor  # (text_dim, embed_dim)

    @property
    def n_prototypes(self) -> int:
        return self.mask_w.value.shape[1]

    @property
    def token_dim(self) -> int:
        return self.vproj_w.value.shape[0]

    @property
    def text_dim(self) -> int:
        return self.tproj_w.value.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.vproj_w.value.shape[1]

    def tensors(self) -> dict[str, ParamTensor]:
        return {
            "mask_w": self.mask_w,
            "mask_b": self.mask_b,
            "vproj_w": self.vproj_w,
            "tproj_w": self.tproj_w,
        }

    def zero_grads(self) -> None:
        for p in self.tensors().values():
            p.zero_grad()


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

    return HeadParameters(
        mask_w=ParamTensor(glorot(token_dim, n_prototypes)),
        mask_b=ParamTensor(np.full(n_prototypes, 0.1)),
        vproj_w=ParamTensor(glorot(token_dim, embed_dim)),
        tproj_w=ParamTensor(glorot(text_dim, embed_dim)),
    )


# ---------------------------------------------------------------------------
# Single-video ops: the masks the heatmap exporter reads, and the part
# variant's pooling, which head_forward applies to each video in turn.
# ---------------------------------------------------------------------------


def compute_masks(tokens: np.ndarray, params: HeadParameters) -> tuple[np.ndarray, np.ndarray]:
    """Mask pre-activations and relu masks for one video.  Both (B, K)."""
    if tokens.ndim != 2 or tokens.shape[1] != params.token_dim:
        raise ShapeError(f"tokens {tokens.shape} do not conform with mask_w {params.mask_w.value.shape}")
    acts = tokens @ params.mask_w.value + params.mask_b.value
    return acts, relu(acts)


def part_prototypes(tokens: np.ndarray, n_parts: int) -> np.ndarray:
    """Mean-pool contiguous chunks of the non-class tokens: (n_parts+1, dim).

    The B-1 non-class tokens are split in order into n_parts chunks whose
    sizes differ by at most one (earlier chunks take the extra token).  The
    class token is appended as the final row, matching the masked layout.
    """
    n_body = tokens.shape[0] - 1
    if not 1 <= n_parts <= n_body:
        raise ValidationError(
            f"n_parts must be in [1, {n_body}] for {tokens.shape[0]} tokens, got {n_parts}"
        )
    chunks = np.array_split(tokens[1:], n_parts)
    return np.vstack([np.stack([c.mean(axis=0) for c in chunks]), tokens[0:1]])


# ---------------------------------------------------------------------------
# Batched forward/backward over a stack of L videos.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HeadCache:
    """Forward intermediates kept for the backward pass."""

    variant: str
    acts: np.ndarray | None  # (L, B, K); None for the part variant
    masks: np.ndarray | None  # (L, B, K); None for the part variant
    protos: np.ndarray  # (L, K+1, token_dim)
    projected: np.ndarray  # (L, K+1, embed_dim)
    embedded: np.ndarray  # (L, K+1, embed_dim), unit rows


def head_forward(tokens: np.ndarray, params: HeadParameters, variant: str = "mask") -> HeadCache:
    """Embed a (L, B, token_dim) stack of videos into (L, K+1, embed_dim)."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown head variant {variant!r}, expected one of {VARIANTS}")
    if tokens.ndim != 3 or tokens.shape[2] != params.token_dim:
        raise ShapeError(
            f"token stack {tokens.shape} does not conform with head token_dim {params.token_dim}"
        )
    length = tokens.shape[0]
    if variant == "mask":
        acts = tokens @ params.mask_w.value + params.mask_b.value
        masks = relu(acts)
        learned = np.einsum("lbk,lbd->lkd", masks, tokens)
        protos = np.concatenate([learned, tokens[:, 0:1, :]], axis=1)
    else:
        acts = masks = None
        protos = np.stack([part_prototypes(tokens[i], params.n_prototypes) for i in range(length)])
    projected = protos @ params.vproj_w.value
    flat = projected.reshape(-1, params.embed_dim)
    embedded = l2_normalize_rows(flat).reshape(projected.shape)
    return HeadCache(variant, acts, masks, protos, projected, embedded)


def head_backward(
    tokens: np.ndarray,
    params: HeadParameters,
    cache: HeadCache,
    grad_embedded: np.ndarray,
    extra_mask_grad: np.ndarray | None = None,
    want_input_grads: bool = False,
) -> np.ndarray | None:
    """Accumulate parameter gradients for the batched head forward.

    grad_embedded is d(loss)/d(embedded prototypes), shape (L, K+1, embed_dim).
    extra_mask_grad, if given, is an additional d(loss)/d(masks) term (the
    mask regularizer contributes one) and is added before the relu backward.
    Returns d(loss)/d(tokens) when want_input_grads is set, else None.
    """
    if grad_embedded.shape != cache.embedded.shape:
        raise ShapeError(
            f"grad {grad_embedded.shape} does not conform with embedded {cache.embedded.shape}"
        )
    k = params.n_prototypes
    embed_dim = params.embed_dim
    flat_projected = cache.projected.reshape(-1, embed_dim)
    grad_projected = l2_normalize_rows_vjp(
        flat_projected, grad_embedded.reshape(-1, embed_dim)
    ).reshape(cache.projected.shape)

    params.vproj_w.grad += np.einsum("lkd,lke->de", cache.protos, grad_projected)
    grad_protos = grad_projected @ params.vproj_w.value.T  # (L, K+1, token_dim)
    grad_learned = grad_protos[:, :k, :]
    grad_class = grad_protos[:, k, :]  # (L, token_dim)

    grad_tokens = None
    if cache.variant == "mask":
        grad_masks = np.einsum("lkd,lbd->lbk", grad_learned, tokens)
        if extra_mask_grad is not None:
            grad_masks = grad_masks + extra_mask_grad
        grad_acts = relu_vjp(cache.acts, grad_masks)
        params.mask_w.grad += np.einsum("lbd,lbk->dk", tokens, grad_acts)
        params.mask_b.grad += grad_acts.sum(axis=(0, 1))
        if want_input_grads:
            grad_tokens = np.einsum("lbk,lkd->lbd", cache.masks, grad_learned)
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
    """Half-open index ranges np.array_split uses for n_body items."""
    sizes = [n_body // n_parts + (1 if i < n_body % n_parts else 0) for i in range(n_parts)]
    bounds, lo = [], 0
    for s in sizes:
        bounds.append((lo, lo + s))
        lo += s
    return bounds


@dataclass(eq=False)
class TextCache:
    projected: np.ndarray  # (L, embed_dim)
    embedded: np.ndarray  # (L, embed_dim), unit rows


def text_forward(features: np.ndarray, params: HeadParameters) -> TextCache:
    """Embed a (L, text_dim) stack of caption features into unit vectors."""
    if features.ndim != 2 or features.shape[1] != params.text_dim:
        raise ShapeError(
            f"text stack {features.shape} does not conform with head text_dim {params.text_dim}"
        )
    projected = features @ params.tproj_w.value
    return TextCache(projected, l2_normalize_rows(projected))


def text_backward(
    features: np.ndarray,
    params: HeadParameters,
    cache: TextCache,
    grad_embedded: np.ndarray,
    want_input_grads: bool = False,
) -> np.ndarray | None:
    """Accumulate the text projection gradient; optionally return input grads."""
    grad_projected = l2_normalize_rows_vjp(cache.projected, grad_embedded)
    params.tproj_w.grad += features.T @ grad_projected
    return grad_projected @ params.tproj_w.value.T if want_input_grads else None


def embed_videos(
    token_stacks: np.ndarray, params: HeadParameters, variant: str = "mask"
) -> np.ndarray:
    """Forward-only convenience: (V, B, token_dim) -> (V, K+1, embed_dim)."""
    return head_forward(token_stacks, params, variant).embedded


def embed_texts(features: np.ndarray, params: HeadParameters) -> np.ndarray:
    """Forward-only convenience: (T, text_dim) -> (T, embed_dim) unit rows."""
    return text_forward(features, params).embedded
