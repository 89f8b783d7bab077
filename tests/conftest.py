"""Shared builders for the test suite."""

import numpy as np
import pytest

from protomatch.dataset import Corpus, TextRecord, VideoRecord
from protomatch.numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, RngStream
from protomatch.prototypes import PARAM_ORDER, HeadParameters, init_head


def make_head(
    n_prototypes: int = 2,
    token_dim: int = 8,
    text_dim: int = 7,
    embed_dim: int = 6,
    seed: int = 0,
) -> HeadParameters:
    return init_head(n_prototypes, token_dim, text_dim, embed_dim, RngStream(seed))


def trainable_head(values) -> HeadParameters:
    """A head holding copies of the arrays values names in PARAM_ORDER, gradients zero."""
    flat = np.concatenate([np.ravel(values[name]) for name in PARAM_ORDER])
    return HeadParameters.from_vector(flat, {name: np.shape(values[name]) for name in PARAM_ORDER})


def random_corpus(
    num_videos: int = 3,
    captions_per_video: int = 2,
    n_tokens: int = 5,
    token_dim: int = 8,
    text_dim: int = 7,
    seed: int = 0,
) -> Corpus:
    """Handmade corpus with Gaussian features and labeled captions."""
    rng = RngStream(seed, stream=9)
    videos, texts = [], []
    for v in range(num_videos):
        videos.append(VideoRecord(f"v{v}", rng.normal((n_tokens, token_dim))))
        for c in range(captions_per_video):
            texts.append(
                TextRecord(f"v{v}_t{c}", f"v{v}", rng.normal((text_dim,)), event_label=c)
            )
    return Corpus(videos, texts, (n_tokens, token_dim, text_dim))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def per_row(loss):
    """finite_diff_check's stacked loss from a scalar loss of one point.

    Calls loss once per probe row: row r's point holds row r of each
    array whose stack has several rows and the one row of every other.
    The serial oracle that batched losses are checked against.
    """

    def stacked(values):
        rows = max(len(v) for v in values.values())
        points = ({k: v[r if len(v) > 1 else 0] for k, v in values.items()} for r in range(rows))
        return np.array([loss(point) for point in points], dtype=np.float64)

    return stacked


def adam_oracle(values, grads, first, second, step, lr):
    """Adam as a loop over named tensors: dicts of arrays, updated in place.

    The per-tensor update that adam_step's one pass over flat vectors is
    checked against bit for bit.
    """
    for name, g in grads.items():
        m, v = first[name], second[name]
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1**step)
        v_hat = v / (1.0 - ADAM_BETA2**step)
        values[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def tensor_views(vector, head: HeadParameters) -> dict[str, np.ndarray]:
    """Each tensor's slice of a flat vector laid out like head's values.

    The tensors sit back to back in the order head.tensors() lists them,
    each row-major; an Adam moment vector has this layout too.
    """
    views, start = {}, 0
    for name, tensor in head.tensors().items():
        views[name] = vector[start : start + tensor.value.size].reshape(tensor.value.shape)
        start += tensor.value.size
    assert start == vector.size
    return views


@pytest.fixture
def head() -> HeadParameters:
    return make_head()


# One line per acceptance check, filled in by test_acceptance.py and echoed
# after the run so the measured numbers survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
