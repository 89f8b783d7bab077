"""Dense float64 kernels with hand-wired vector-Jacobian products (VJPs).

Every forward function here has a matching ``*_vjp`` that maps an upstream
gradient to input/parameter gradients; correctness is enforced by the
central-difference checker at the bottom.  The checker computes the
gradient once and batches the perturbed points: each tensor's probes go to
a loss callable in chunks, as stacks along a leading probe axis, so a loss
that broadcasts over that axis (the full objective does) runs them forward
only, a chunk per call.  All kernels are pure functions
over immutable inputs and safe to call concurrently; only ``adam_step``
mutates state and must be serialized by the caller.  A kernel that takes
``out=`` (or ``scratch=``) arrays writes its result (or temporaries) into
them instead of allocating, as numpy's ``out=`` does; such a workspace
belongs to the caller that passes it and must not be shared across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

NORM_GUARD = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# central-difference half-width of finite_diff_check
FD_STEP = 1e-5


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(0.0, x)


def relu_vjp(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0."""
    return grad_out * (x > 0)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each pair of rows, (...,), with no product array."""
    return np.einsum("...d,...d->...", a, b)


def _scale_rows(m: np.ndarray, factors: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Each row of m times its factor, bitwise a broadcasting multiply.

    einsum's loop took 3/4 of np.multiply's time at (256, 256) by (256, 1).
    """
    return np.einsum("...d,...->...d", m, factors, out=out)


def l2_normalize_rows(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale each row by 1 / (its Euclidean norm + NORM_GUARD); zero rows stay zero.

    out, if given, is an array of m's shape that receives the result.
    """
    return _scale_rows(m, 1.0 / (np.sqrt(_row_dots(m, m)) + NORM_GUARD), out)


def l2_normalize_rows_vjp(
    m: np.ndarray,
    grad_out: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Backward of row normalization y = x / (||x|| + NORM_GUARD).

    Rows with norm at or below the guard are treated as dead: their
    gradient is 0 (the true Jacobian there is I/guard, which would amplify
    noise by 1e12).  With inv = 1 / (||x|| + guard), the gradient is
    g * inv - x * coef, coef = (x . g) * inv**2 / ||x||, from one pass of
    per-row factors that are zero for dead rows.  out, if given, receives
    the gradient, and scratch, if given, holds the temporary; both have
    m's shape.
    """
    norms = np.sqrt(_row_dots(m, m))
    live = norms > NORM_GUARD
    inv = 1.0 / (norms + NORM_GUARD)
    # in this order no product overflows, for a huge row or one near the guard
    coef = _row_dots(m, grad_out) * inv * inv / np.where(live, norms, 1.0)
    inv *= live
    coef *= live
    grad = _scale_rows(grad_out, inv, out)
    grad -= _scale_rows(m, coef, scratch)
    return grad


@dataclass(eq=False)
class ParamTensor:
    """A trainable array paired with its accumulated gradient."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


@dataclass(eq=False)
class AdamState:
    """First/second moment per parameter plus the shared step counter."""

    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: Mapping[str, ParamTensor]) -> "AdamState":
        return cls(
            first={k: np.zeros_like(p.value) for k, p in params.items()},
            second={k: np.zeros_like(p.value) for k, p in params.items()},
        )


def adam_step(params: Mapping[str, ParamTensor], state: AdamState, lr: float) -> None:
    """Bias-corrected adaptive-moment update, applied in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        m = state.first[name]
        v = state.second[name]
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup from 0 to peak_lr, then cosine decay to 0."""

    warmup_epochs: float
    peak_lr: float
    total_epochs: float
    steps_per_epoch: int = 1

    def __post_init__(self) -> None:
        if self.total_epochs < self.warmup_epochs or self.warmup_epochs < 0:
            raise ValidationError(
                f"schedule needs 0 <= warmup ({self.warmup_epochs}) <= total ({self.total_epochs})"
            )
        if self.peak_lr < 0 or self.steps_per_epoch < 1:
            raise ValidationError("peak_lr must be >= 0 and steps_per_epoch >= 1")


def lr_at(epoch_fraction: float, sched: LrSchedule) -> float:
    """Learning rate at a (possibly fractional) epoch position."""
    if epoch_fraction < 0 or epoch_fraction > sched.total_epochs:
        raise ValidationError(
            f"epoch position {epoch_fraction} outside [0, {sched.total_epochs}]"
        )
    if epoch_fraction < sched.warmup_epochs:
        return sched.peak_lr * epoch_fraction / sched.warmup_epochs
    decay_span = sched.total_epochs - sched.warmup_epochs
    if decay_span == 0:
        return sched.peak_lr
    t = (epoch_fraction - sched.warmup_epochs) / decay_span
    return sched.peak_lr * 0.5 * (1.0 + math.cos(math.pi * t))


class RngStream:
    """Counter-based deterministic random stream (Philox under the hood).

    The same (seed, stream) pair yields a bit-identical draw sequence on
    every platform.  State round-trips through ``state``/``set_state`` for
    exact checkpoint resume.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not 0 <= seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.stream = stream
        # 128-bit Philox key: low word = seed, high word = stream id.
        self._bitgen = np.random.Philox(key=seed + (stream << 64))
        self._gen = np.random.Generator(self._bitgen)

    def normal(self, shape: int | tuple[int, ...] = ()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape: int | tuple[int, ...] = ()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, upper: int, shape: int | tuple[int, ...] | None = None) -> np.ndarray | int:
        out = self._gen.integers(0, upper, size=shape)
        return int(out) if shape is None else out

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    @property
    def state(self) -> dict:
        return self._bitgen.state

    def set_state(self, state: dict) -> None:
        self._bitgen.state = state


# Probes per loss_fn call.  Over one probe per call, the gradcheck suite's
# process peak RSS rose by 4.0 MiB with each tensor's 2 * n probes in one
# call, 0.7 MiB with chunks of 128 and 0.2 MiB with chunks of 64, all three
# at about the same speed (2 CPUs, numpy 2.4.6).
PROBE_CHUNK = 64


def _probe_rows(
    fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
) -> Callable[[dict[str, np.ndarray]], np.ndarray]:
    """A loss_fn that calls fn once per probe row of a chunk."""

    def probe(values: dict[str, np.ndarray]) -> np.ndarray:
        rows = max(len(v) for v in values.values())
        points = ({k: v[r if len(v) > 1 else 0] for k, v in values.items()} for r in range(rows))
        return np.array([fn(point)[0] for point in points], dtype=np.float64)

    return probe


def finite_diff_check(
    fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    loss_fn: Callable[[dict[str, np.ndarray]], np.ndarray] | None = None,
) -> float:
    """Compare fn's analytic gradient against central differences.

    ``fn`` maps a dict of arrays to (scalar loss, gradient dict of the same
    shapes); it is called once, at the unperturbed point.  The 2 * n
    perturbed points are batched: for each tensor, chunks of up to
    PROBE_CHUNK probes go to ``loss_fn`` in one call.  Every array of the
    dict it gets has a leading probe axis, of length m for the perturbed
    tensor, whose row r has one coordinate set to orig + FD_STEP or
    orig - FD_STEP, and of length 1 for every other array; it returns the m
    losses, each what ``fn`` would give at that row's point, so the probes
    run the forward only.  Without ``loss_fn``, ``fn`` is called once per
    row.  The arrays in ``params`` are never written.  Returns the maximum
    over all coordinates of |analytic - numeric| / max(1, |analytic|,
    |numeric|); a NaN analytic gradient makes it NaN.
    """
    loss0, grads = fn(params)
    if not math.isfinite(loss0):
        raise NumericError(f"loss is non-finite at the unperturbed point: {loss0}")
    probe = loss_fn if loss_fn is not None else _probe_rows(fn)
    unperturbed = {name: value[None] for name, value in params.items()}
    worst = 0.0
    for name, base in params.items():
        analytic = grads[name]
        if analytic.shape != base.shape:
            raise ShapeError(
                f"gradient for '{name}' has shape {analytic.shape}, expected {base.shape}"
            )
        flat = base.reshape(-1)
        # probe 2i moves coordinate i up by FD_STEP, probe 2i + 1 moves it down
        losses = np.empty(2 * flat.size)
        for start in range(0, losses.size, PROBE_CHUNK):
            rows = np.arange(start, min(start + PROBE_CHUNK, losses.size))
            coords = rows // 2
            chunk = np.repeat(flat[None], rows.size, axis=0)
            chunk[np.arange(rows.size), coords] = np.where(
                rows % 2 == 0, flat[coords] + FD_STEP, flat[coords] - FD_STEP
            )
            perturbed = {**unperturbed, name: chunk.reshape(rows.size, *base.shape)}
            losses[start : start + rows.size] = probe(perturbed)
        up, down = losses[0::2], losses[1::2]
        finite = np.isfinite(up) & np.isfinite(down)
        if not finite.all():
            idx = tuple(int(i) for i in np.unravel_index(np.argmin(finite), base.shape))
            raise NumericError(f"non-finite loss while perturbing '{name}' coordinate {idx}")
        numeric = (up - down) / (2.0 * FD_STEP)
        a = analytic.reshape(-1).astype(np.float64)
        err = np.abs(a - numeric) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(numeric))
        worst = float(np.max(err, initial=worst))  # a NaN stays NaN
    return worst
