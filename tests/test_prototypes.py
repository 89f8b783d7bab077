"""Mask generation, prototype aggregation, projection, and the head VJP."""

import numpy as np
import pytest

from protomatch.errors import ShapeError, ValidationError
from protomatch.numerics import (
    ParamTensor,
    RngStream,
    finite_diff_check,
    l2_normalize_rows,
    relu,
)
from protomatch.prototypes import (
    HeadParameters,
    embed_videos,
    head_backward,
    head_forward,
    init_head,
    text_backward,
    text_forward,
)

from conftest import make_head


def zeroed_head(n_prototypes=2, token_dim=4, text_dim=3, embed_dim=4) -> HeadParameters:
    head = make_head(n_prototypes, token_dim, text_dim, embed_dim)
    head.mask_w.value[:] = 0.0
    head.mask_b.value[:] = 0.0
    return head


def part_pooling_oracle(tokens: np.ndarray, n_parts: int) -> np.ndarray:
    """One video's part prototypes, (n_parts+1, dim), pooled by np.array_split.

    The B-1 non-class tokens split in order into n_parts chunks whose sizes
    differ by at most one (earlier chunks take the extra token); each chunk
    is mean-pooled and the class token is appended as the final row.
    """
    chunks = np.array_split(tokens[1:], n_parts)
    return np.vstack([np.stack([c.mean(axis=0) for c in chunks]), tokens[0:1]])


# ---------------------------------------------------------------------------
# masks, read from head_forward on one video
# ---------------------------------------------------------------------------


def test_zero_mask_parameters_give_zero_masks():
    head = zeroed_head()
    masks = head_forward(RngStream(0).normal((5, 4))[None], head).masks[0]
    assert not masks.any()


def test_bias_only_masks_are_constant_per_column():
    head = zeroed_head()
    head.mask_b.value[:] = [2.0, 3.0]
    masks = head_forward(RngStream(0).normal((5, 4))[None], head).masks[0]
    np.testing.assert_array_equal(masks, np.tile([2.0, 3.0], (5, 1)))


def test_masks_equal_linear_then_relu_composition():
    head = make_head(3, 6, 5, 4, seed=2)
    tokens = RngStream(3).normal((7, 6))
    cache = head_forward(tokens[None], head)
    expected_acts = tokens @ head.mask_w.value + head.mask_b.value
    np.testing.assert_array_equal(cache.acts[0], expected_acts)
    np.testing.assert_array_equal(cache.masks[0], relu(expected_acts))


def test_masks_always_non_negative():
    for seed in range(10):
        head = make_head(seed=seed)
        masks = head_forward(RngStream(seed).normal((9, 8))[None], head).masks[0]
        assert (masks >= 0.0).all()


def test_mask_forward_shape_mismatch():
    with pytest.raises(ShapeError):
        head_forward(np.zeros((1, 5, 3)), make_head(token_dim=8))


# ---------------------------------------------------------------------------
# mask aggregation, through head_forward on one video
# ---------------------------------------------------------------------------


def mask_head(mask_w, mask_b, text_dim=3, embed_dim=4) -> HeadParameters:
    """A head whose masks are relu(tokens @ mask_w + mask_b) for given values."""
    mask_w = np.asarray(mask_w, dtype=np.float64)
    head = make_head(mask_w.shape[1], mask_w.shape[0], text_dim, embed_dim)
    head.mask_w.value[:] = mask_w
    head.mask_b.value[:] = mask_b
    return head


def test_one_hot_mask_selects_single_token():
    tokens = np.array([[0.5, 0.2, -0.1], [0.3, -0.4, 0.7], [2.0, 1.0, 0.5], [-0.6, 0.8, 0.1]])
    cache = head_forward(tokens[None], mask_head([[1.0], [0.0], [0.0]], [-1.0]))
    np.testing.assert_array_equal(cache.masks[0], [[0.0], [0.0], [1.0], [0.0]])
    np.testing.assert_array_equal(cache.protos[0, 0], tokens[2])
    np.testing.assert_array_equal(cache.protos[0, 1], tokens[0])


def test_weighted_sum_direct_evaluation():
    tokens = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    cache = head_forward(tokens[None], mask_head([[0.5], [-0.5]], [0.5]))
    np.testing.assert_array_equal(cache.masks[0], [[1.0], [0.0], [0.5]])
    np.testing.assert_array_equal(cache.protos[0, 0], [2.0, 1.0])


def test_zero_mask_keeps_class_row():
    tokens = RngStream(4).normal((5, 3))
    protos = head_forward(tokens[None], mask_head(np.zeros((3, 2)), 0.0)).protos[0]
    assert not protos[:2].any()
    np.testing.assert_array_equal(protos[2], tokens[0])


def test_prototype_count_is_k_plus_one_for_all_k():
    tokens = RngStream(5).normal((6, 4))
    for k in range(4):
        head = make_head(k, 4, 3, 4)
        assert head_forward(tokens[None], head).protos.shape == (1, k + 1, 4)
        if k >= 1:
            assert head_forward(tokens[None], head, "part").protos.shape == (1, k + 1, 4)


def test_aggregation_linear_in_masks_on_learned_rows():
    tokens = RngStream(7).normal((5, 4))
    w1, w2 = RngStream(8).normal((4, 2)), RngStream(9).normal((4, 2))
    # a bias far above every activation keeps relu the identity, so the
    # masks of (w1 + w2, b1 + b2) are the sum of the two heads' masks
    b1, b2 = np.array([20.0, 30.0]), np.array([25.0, 15.0])
    combined = head_forward(tokens[None], mask_head(w1 + w2, b1 + b2))
    first = head_forward(tokens[None], mask_head(w1, b1))
    second = head_forward(tokens[None], mask_head(w2, b2))
    np.testing.assert_allclose(combined.masks, first.masks + second.masks, rtol=0, atol=1e-12)
    separate = first.protos[0, :2] + second.protos[0, :2]
    np.testing.assert_allclose(combined.protos[0, :2], separate, rtol=0, atol=1e-12)


def test_class_token_participates_in_weighted_sum():
    tokens = RngStream(10).normal((3, 2))
    protos = head_forward(tokens[None], mask_head(np.zeros((2, 1)), 1.0)).protos[0]
    np.testing.assert_allclose(protos[0], tokens.sum(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# part variant
# ---------------------------------------------------------------------------


def part_protos(tokens: np.ndarray, n_parts: int) -> np.ndarray:
    """One video's part prototypes from head_forward."""
    head = make_head(n_parts, tokens.shape[1], 3, 4)
    return head_forward(tokens[None], head, variant="part").protos[0]


def test_part_even_split_pair_means():
    tokens = RngStream(11).normal((5, 3))
    protos = part_protos(tokens, 2)
    np.testing.assert_allclose(protos[0], tokens[1:3].mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(protos[1], tokens[3:5].mean(axis=0), atol=1e-15)
    np.testing.assert_array_equal(protos[2], tokens[0])


def test_part_single_chunk_is_body_mean():
    tokens = RngStream(12).normal((6, 3))
    protos = part_protos(tokens, 1)
    np.testing.assert_allclose(protos[0], tokens[1:].mean(axis=0), atol=1e-15)


def test_part_uneven_split_sizes_three_two_two():
    tokens = RngStream(13).normal((8, 3))
    protos = part_protos(tokens, 3)
    bounds = [(1, 4), (4, 6), (6, 8)]  # earlier chunks take the extra token
    for row, (lo, hi) in enumerate(bounds):
        np.testing.assert_allclose(protos[row], tokens[lo:hi].mean(axis=0), atol=1e-15)


def test_part_count_beyond_body_rejected():
    # K must lie in [1, B-1]: K = 0 is refused as well
    for k in (4, 0):
        message = rf"^n_parts must be in \[1, 3\] for 4 tokens, got {k}$"
        with pytest.raises(ValidationError, match=message):
            part_protos(RngStream(0).normal((4, 3)), k)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def part_layout(protos: np.ndarray) -> np.ndarray:
    """Tokens from which the part variant with K = len(protos) - 1 rebuilds
    exactly protos: the class row first, then one token per part."""
    return np.vstack([protos[-1:], protos[:-1]])[None]


def test_embed_prototypes_three_four_five_with_identity_projection():
    head = zeroed_head(1, 2, 3, 2)
    head.vproj_w.value[:] = np.eye(2)
    tokens = part_layout(np.array([[3.0, 4.0], [0.0, 1.0]]))
    embedded = head_forward(tokens, head, variant="part").embedded
    np.testing.assert_allclose(embedded[0, 0], [0.6, 0.8], atol=1e-11)


def test_embed_zero_prototype_row_stays_zero():
    head = make_head(1, 2, 3, 2)
    embedded = head_forward(np.zeros((1, 3, 2)), head).embedded
    np.testing.assert_array_equal(embedded, 0.0)


def test_embed_text_identity_projection():
    head = zeroed_head(1, 3, 2, 2)
    head.tproj_w.value[:] = np.eye(2)
    embedded = text_forward(np.array([[0.0, 5.0]]), head).embedded
    np.testing.assert_allclose(embedded[0], [0.0, 1.0], atol=1e-11)


def test_embed_zero_text_is_zero():
    head = make_head()
    np.testing.assert_array_equal(text_forward(np.zeros((1, 7)), head).embedded, np.zeros((1, 6)))


def test_embedding_matches_oracle_composition():
    head = make_head(2, 5, 4, 3, seed=6)
    protos = RngStream(14).normal((3, 5))
    embedded = head_forward(part_layout(protos), head, variant="part").embedded
    np.testing.assert_array_equal(
        embedded[0], l2_normalize_rows(protos @ head.vproj_w.value)
    )


def test_embedded_row_norms_unit_or_zero():
    for seed in range(10):
        head = make_head(seed=seed)
        tokens = RngStream(seed).normal((4, 9, 8))
        embedded = head_forward(tokens, head).embedded
        norms = np.linalg.norm(embedded, axis=2).ravel()
        assert np.all((norms == 0.0) | ((norms >= 1.0 - 1e-9) & (norms <= 1.0)))


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_shapes_and_bias_value():
    head = init_head(3, 8, 7, 6, RngStream(0))
    assert head.mask_w.value.shape == (8, 3)
    assert head.vproj_w.value.shape == (8, 6)
    assert head.tproj_w.value.shape == (7, 6)
    np.testing.assert_array_equal(head.mask_b.value, 0.1)
    assert (head.n_prototypes, head.token_dim, head.text_dim, head.embed_dim) == (3, 8, 7, 6)


def test_init_weights_within_glorot_bounds():
    head = init_head(3, 8, 7, 6, RngStream(1))
    for name, fan_in, fan_out in (("mask_w", 8, 3), ("vproj_w", 8, 6), ("tproj_w", 7, 6)):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        values = head.tensors()[name].value
        assert np.abs(values).max() <= bound


def test_init_rejects_negative_prototype_count():
    with pytest.raises(ValidationError):
        init_head(-1, 8, 7, 6, RngStream(0))


# ---------------------------------------------------------------------------
# batched forward equals per-video path; K=0 reduction
# ---------------------------------------------------------------------------


def test_batched_forward_matches_per_video_composition():
    head = make_head(2, 8, 7, 6, seed=3)
    tokens = RngStream(15).normal((3, 9, 8))
    cache = head_forward(tokens, head)
    for v in range(3):
        masks = relu(tokens[v] @ head.mask_w.value + head.mask_b.value)
        protos = np.vstack([masks.T @ tokens[v], tokens[v, 0:1]])
        embedded = l2_normalize_rows(protos @ head.vproj_w.value)
        np.testing.assert_allclose(cache.embedded[v], embedded, rtol=0, atol=1e-12)


def stacked_head(heads: list[HeadParameters]) -> HeadParameters:
    names = heads[0].tensors()
    return HeadParameters(
        **{name: ParamTensor(np.stack([h.tensors()[name].value for h in heads])) for name in names}
    )


@pytest.mark.parametrize("variant", ["mask", "part"])
@pytest.mark.parametrize("stack_tokens", [True, False])
def test_stacked_forward_matches_unstacked_calls_bitwise(variant, stack_tokens):
    heads = [make_head(3, 8, 7, 6, seed=s) for s in range(4)]
    stacked = stacked_head(heads)
    assert (stacked.n_prototypes, stacked.token_dim, stacked.text_dim, stacked.embed_dim) == (
        3, 8, 7, 6,
    )
    rng = RngStream(21)
    tokens = rng.normal((4 if stack_tokens else 1, 5, 9, 8))
    text = rng.normal((4 if stack_tokens else 1, 5, 7))
    cache = head_forward(tokens, stacked, variant)
    text_cache = text_forward(text, stacked)
    assert cache.embedded.shape == (4, 5, 4, 6) and text_cache.embedded.shape == (4, 5, 6)
    for p, head in enumerate(heads):
        row = p if stack_tokens else 0
        one = head_forward(tokens[row], head, variant)
        for field in ("acts", "masks", "protos", "projected", "embedded"):
            want, got = getattr(one, field), getattr(cache, field)
            if want is None:
                assert got is None
            else:  # the part variant's protos read no head: one for all heads
                assert got[p if len(got) > 1 else 0].tobytes() == want.tobytes()
        one_text = text_forward(text[row], head)
        assert text_cache.embedded[p].tobytes() == one_text.embedded.tobytes()


def test_k0_head_is_normalized_projected_class_token():
    head = make_head(0, 8, 7, 6, seed=4)
    tokens = RngStream(16).normal((2, 9, 8))
    embedded = embed_videos(tokens, head)
    assert embedded.shape == (2, 1, 6)
    # oracle uses the same per-video matmul arrangement so equality is bitwise
    direct = np.stack(
        [l2_normalize_rows(tokens[v, 0:1, :] @ head.vproj_w.value)[0] for v in range(2)]
    )
    np.testing.assert_array_equal(embedded[:, 0, :], direct)


def test_part_variant_forward_matches_array_split_pooling():
    # every K in [1, B-1] on random shapes and scales, so uneven splits,
    # K=1 and K=B-1 all occur; the pooled prototypes must match bitwise
    rng = np.random.default_rng(17)
    for _ in range(60):
        length, n_tokens, dim = (int(n) for n in rng.integers((1, 2, 1), (6, 20, 40)))
        tokens = rng.standard_normal((length, n_tokens, dim)) * 10.0 ** rng.uniform(-3, 3)
        for k in range(1, n_tokens):
            head = make_head(k, dim, 3, 5, seed=k)
            cache = head_forward(tokens, head, variant="part")
            for v in range(length):
                protos = part_pooling_oracle(tokens[v], k)
                np.testing.assert_array_equal(cache.protos[v], protos)
                embedded = l2_normalize_rows(protos @ head.vproj_w.value)
                np.testing.assert_allclose(cache.embedded[v], embedded, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# VJPs through the whole head
# ---------------------------------------------------------------------------


def head_loss_check(
    variant: str, seed: int, with_extra: bool = False, n_prototypes: int = 2
) -> float:
    rng = RngStream(seed)
    tokens0 = rng.normal((3, 7, 5))
    # upstream gradient on embedded prototypes
    probe = rng.normal((3, n_prototypes + 1, 4))
    extra = np.abs(rng.normal((3, 7, n_prototypes))) if with_extra else None
    base = make_head(n_prototypes, 5, 6, 4, seed=seed + 50)

    def fn(values):
        head = HeadParameters(
            mask_w=ParamTensor(values["mask_w"]),
            mask_b=ParamTensor(values["mask_b"]),
            vproj_w=ParamTensor(values["vproj_w"]),
            tproj_w=ParamTensor(values["tproj_w"]),
        )
        cache = head_forward(values["tokens"], head, variant)
        loss = float((cache.embedded * probe).sum())
        if extra is not None:
            loss += float((cache.masks * extra).sum())
        grad_tokens = head_backward(
            values["tokens"], head, cache, probe,
            extra_mask_grad=extra, want_input_grads=True,
        )
        grads = {name: t.grad for name, t in head.tensors().items()}
        grads["tokens"] = grad_tokens
        return loss, grads

    values = {name: t.value.copy() for name, t in base.tensors().items()}
    values["tokens"] = tokens0
    return finite_diff_check(fn, values)


def test_head_vjp_matches_finite_differences():
    for seed in range(5):
        assert head_loss_check("mask", seed) < 1e-5


def test_head_vjp_with_extra_mask_gradient_term():
    for seed in range(3):
        assert head_loss_check("mask", seed, with_extra=True) < 1e-5


def test_part_head_vjp_matches_finite_differences():
    for seed in range(3):
        assert head_loss_check("part", seed) < 1e-5


@pytest.mark.parametrize("variant, n_prototypes", [("mask", 0), ("part", 1), ("part", 6)])
def test_baseline_and_part_head_vjps_match_finite_differences(variant, n_prototypes):
    # K=0 is the baseline head, whose mask tensors have zero size; a part
    # head with 6 parts of 6 body tokens pools one token per part
    for seed in range(3):
        assert head_loss_check(variant, seed, n_prototypes=n_prototypes) < 1e-5


def test_baseline_head_backward_keeps_zero_size_mask_gradients():
    head = make_head(0, 5, 6, 4)
    rng = RngStream(4)
    tokens = rng.normal((3, 7, 5))
    cache = head_forward(tokens, head)
    grad_tokens = head_backward(
        tokens, head, cache, rng.normal(cache.embedded.shape), want_input_grads=True
    )
    assert head.mask_w.grad.shape == (5, 0) and head.mask_b.grad.shape == (0,)
    assert grad_tokens.shape == tokens.shape
    np.testing.assert_array_equal(grad_tokens[:, 1:], 0.0)  # only the class token is read
    assert np.abs(head.vproj_w.grad).sum() > 0


def test_part_backward_rejects_mask_gradient():
    head = make_head(2, 5, 6, 4)
    tokens = RngStream(0).normal((2, 7, 5))
    cache = head_forward(tokens, head, variant="part")
    with pytest.raises(ValidationError):
        head_backward(tokens, head, cache, np.zeros_like(cache.embedded),
                      extra_mask_grad=np.zeros((2, 7, 2)))


def test_text_vjp_matches_finite_differences():
    for seed in range(5):
        rng = RngStream(seed)
        feats0 = rng.normal((4, 6))
        probe = rng.normal((4, 3))
        base = make_head(1, 5, 6, 3, seed=seed + 80)

        def fn(values):
            head = HeadParameters(
                mask_w=ParamTensor(values["mask_w"]),
                mask_b=ParamTensor(values["mask_b"]),
                vproj_w=ParamTensor(values["vproj_w"]),
                tproj_w=ParamTensor(values["tproj_w"]),
            )
            cache = text_forward(values["feats"], head)
            grad_feats = text_backward(
                values["feats"], head, cache, probe, want_input_grads=True
            )
            grads = {name: t.grad for name, t in head.tensors().items()}
            grads["feats"] = grad_feats
            return float((cache.embedded * probe).sum()), grads

        values = {name: t.value.copy() for name, t in base.tensors().items()}
        values["feats"] = feats0
        assert finite_diff_check(fn, values) < 1e-5
