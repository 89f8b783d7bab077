"""Dense float64 kernels with hand-wired vector-Jacobian products (VJPs).

Every forward function here has a matching ``*_vjp`` that maps an upstream
gradient to input/parameter gradients; correctness is enforced by the
central-difference checker at the bottom.  All kernels are pure functions
over immutable inputs and safe to call concurrently; only ``adam_step``
mutates state and must be serialized by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

NORM_GUARD = 1e-12


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(0.0, x)


def relu_vjp(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0."""
    return grad_out * (x > 0)


def l2_normalize_rows(m: np.ndarray, guard: float = NORM_GUARD) -> np.ndarray:
    """Divide each row by (its Euclidean norm + guard); zero rows stay zero."""
    if guard <= 0:
        raise ValidationError(f"normalization guard must be positive, got {guard}")
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return m / (norms + guard)


def l2_normalize_rows_vjp(
    m: np.ndarray, grad_out: np.ndarray, guard: float = NORM_GUARD
) -> np.ndarray:
    """Backward of row normalization y = x / (||x|| + guard).

    Rows with norm below the guard are treated as dead: their gradient is 0
    (the true Jacobian there is I/guard, which would amplify noise by 1e12).
    """
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    safe = np.where(norms > guard, norms, 1.0)
    denom = norms + guard
    dots = (m * grad_out).sum(axis=-1, keepdims=True)
    grad = grad_out / denom - m * (dots / (denom * denom * safe))
    return np.where(norms > guard, grad, 0.0)


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


def adam_step(
    params: Mapping[str, ParamTensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected adaptive-moment update, applied in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        m = state.first[name]
        v = state.second[name]
        m[:] = beta1 * m + (1.0 - beta1) * g
        v[:] = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


def finite_diff_check(
    fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    step: float = 1e-5,
) -> float:
    """Compare fn's analytic gradient against central differences.

    ``fn`` maps a dict of arrays to (scalar loss, gradient dict of the same
    shapes).  Returns the maximum over all coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    loss0, grads = fn(params)
    if not math.isfinite(loss0):
        raise NumericError(f"loss is non-finite at the unperturbed point: {loss0}")
    worst = 0.0
    for name, base in params.items():
        analytic = grads[name]
        if analytic.shape != base.shape:
            raise ShapeError(
                f"gradient for '{name}' has shape {analytic.shape}, expected {base.shape}"
            )
        for idx in np.ndindex(base.shape):
            orig = base[idx]
            base[idx] = orig + step
            up, _ = fn(params)
            base[idx] = orig - step
            down, _ = fn(params)
            base[idx] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError(f"non-finite loss while perturbing '{name}' coordinate {idx}")
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
