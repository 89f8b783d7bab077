"""Dense float64 kernels with hand-wired vector-Jacobian products (VJPs).

Every forward function here has a matching ``*_vjp`` that maps an upstream
gradient to input/parameter gradients; correctness is enforced by the
central-difference checker at the bottom.  The checker takes the
caller's analytic gradients and a loss callable over stacks of points:
each tensor's probes go to it in chunks, along a leading probe axis, so a
loss over kernels that broadcast over that axis (the full objective and
the kernels it is built from) runs them forward only, a chunk per call.
All kernels are pure functions over immutable inputs and safe to call
concurrently; only ``adam_step``, which updates flat parameter and moment
vectors in place, mutates state and must be serialized by the caller.  A
kernel that takes ``out=`` (or ``scratch=``) arrays writes its result (or
temporaries) into them instead of allocating, as numpy's ``out=`` does;
such a workspace belongs to its caller and must not be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row by 1 / (its Euclidean norm + NORM_GUARD); zero rows stay zero."""
    return l2_normalize_rows_with_norms(m)[0]


def l2_normalize_rows_with_norms(
    m: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """l2_normalize_rows' result and the squared row norms, (...,), that the VJP takes.

    out, if given, is an array of m's shape that receives the result.
    """
    sq_norms = _row_dots(m, m)
    return _scale_rows(m, 1.0 / (np.sqrt(sq_norms) + NORM_GUARD), out), sq_norms


def l2_normalize_rows_vjp(
    m: np.ndarray,
    sq_norms: np.ndarray,
    grad_out: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Backward of row normalization y = x / (||x|| + NORM_GUARD).

    sq_norms holds each row's squared norm, (...,), as the forward computed
    it.  Rows with norm at or below the guard are treated as dead: their
    gradient is 0 (the true Jacobian there is I/guard, which would amplify
    noise by 1e12).  With inv = 1 / (||x|| + guard), the gradient is
    g * inv - x * coef, coef = (x . g) * inv**2 / ||x||, from one pass of
    per-row factors that are zero for dead rows.  out, if given, receives
    the gradient and may be grad_out itself, which is then overwritten;
    scratch, if given, holds the temporary and overlaps none of the other
    arrays.  Both have m's shape.
    """
    norms = np.sqrt(sq_norms)
    live = norms > NORM_GUARD
    inv = 1.0 / (norms + NORM_GUARD)
    # in this order no product overflows, for a huge row or one near the guard
    coef = _row_dots(m, grad_out) * inv * inv / np.where(live, norms, 1.0)
    inv *= live
    coef *= live
    # grad_out is read whole before out is written, so out may be grad_out
    scaled = _scale_rows(grad_out, inv, scratch)
    grad = _scale_rows(m, coef, out)
    return np.subtract(scaled, grad, out=grad)


@dataclass(eq=False)
class ParamTensor:
    """A trainable array and its gradient; a stack of probe points has none."""

    value: np.ndarray
    grad: np.ndarray | None = None


@dataclass(eq=False)
class AdamState:
    """Adam's moments, each laid out as the flat parameter vector, and its step.

    The update's two temporaries are allocated once, here, so a step allocates nothing.
    """

    first: np.ndarray
    second: np.ndarray
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.first), np.empty_like(self.first))

    @classmethod
    def init(cls, params: Mapping[str, ParamTensor]) -> "AdamState":
        size = sum(p.value.size for p in params.values())
        return cls(np.zeros(size), np.zeros(size))


def adam_step(values: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """Bias-corrected adaptive-moment update of a flat parameter vector, in place.

    The ufuncs keep the operation order of the per-element formula
    values -= lr * m_hat / (sqrt(v_hat) + eps), so they give its bits.
    """
    state.step += 1
    t = state.step
    m, v = state.first, state.second
    a, b = state.scratch
    # m = b1 * m + (1 - b1) * g, then v = b2 * v + (1 - b2) * (g * g)
    np.add(np.multiply(m, ADAM_BETA1, out=m), np.multiply(grads, 1.0 - ADAM_BETA1, out=a), out=m)
    np.multiply(np.multiply(grads, grads, out=a), 1.0 - ADAM_BETA2, out=a)
    np.add(np.multiply(v, ADAM_BETA2, out=v), a, out=v)
    np.multiply(np.divide(m, 1.0 - ADAM_BETA1**t, out=a), lr, out=a)  # lr * m_hat
    np.add(np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=b), out=b), ADAM_EPS, out=b)
    np.subtract(values, np.divide(a, b, out=a), out=values)


def lr_at(epoch_fraction: float, warmup_epochs: float, peak_lr: float, epochs: float) -> float:
    """Learning rate at a (possibly fractional) epoch position of a run of epochs.

    Linear warmup from 0 to peak_lr, then cosine decay to 0; TrainConfig
    checks 0 <= warmup_epochs <= epochs and peak_lr >= 0.
    """
    if epoch_fraction < 0 or epoch_fraction > epochs:
        raise ValidationError(f"epoch position {epoch_fraction} outside [0, {epochs}]")
    if epoch_fraction < warmup_epochs:
        return peak_lr * epoch_fraction / warmup_epochs
    decay_span = epochs - warmup_epochs
    if decay_span == 0:
        return peak_lr
    t = (epoch_fraction - warmup_epochs) / decay_span
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * t))


# RngStream's seeds are 64-bit unsigned integers, the low word of a Philox key.
SEED_BOUND = 2**64


def check_seed(seed: int) -> None:
    """Raise ValidationError for a seed RngStream cannot take."""
    if not 0 <= seed < SEED_BOUND:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")


def check_finite_floats(config) -> None:
    """Raise ValidationError for the first float field of a config dataclass that is NaN or inf."""
    for f in fields(config):
        if f.type == "float" and not math.isfinite(getattr(config, f.name)):
            raise ValidationError(f"{f.name} must be finite, got {getattr(config, f.name)!r}")


class RngStream:
    """Counter-based deterministic random stream (Philox under the hood).

    The same (seed, stream) pair yields a bit-identical draw sequence on
    every platform.  State round-trips through ``state``/``set_state`` for
    exact checkpoint resume.
    """

    def __init__(self, seed: int, stream: int = 0):
        check_seed(seed)
        self.seed = seed
        self.stream = stream
        # 128-bit Philox key: low word = seed, high word = stream id.
        self._bitgen = np.random.Philox(key=seed + (stream << 64))
        self._gen = np.random.Generator(self._bitgen)

    def normal(self, shape: int | tuple[int, ...] = ()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape: int | tuple[int, ...] = ()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(
        self, upper: int | np.ndarray, shape: int | tuple[int, ...] | None = None
    ) -> np.ndarray | int:
        """Draws from [0, upper); an array of bounds draws one value for each."""
        out = self._gen.integers(0, upper, size=shape)
        return out if isinstance(out, np.ndarray) else int(out)

    def permutation(self, n: int) -> np.ndarray:
        """Generator.permutation(n)'s draws and values, in int32 where n fits.

        int32 halves the bytes but shuffles ~15-20 % slower, because
        numpy's shuffle specializes only 8-byte items: at n = 4.7 M, 207
        against 179 ms, median of 8 interleaved runs (2 CPUs, numpy 2.4.6).
        """
        out = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
        self._gen.shuffle(out)
        return out

    @property
    def state(self) -> dict:
        return self._bitgen.state

    def set_state(self, state: dict) -> None:
        self._bitgen.state = state


# Probes per loss_fn call.  Over one probe per call, the gradcheck suite's
# process peak RSS rose by 4.0 MiB with each tensor's 2 * n probes in one
# call, 0.7 MiB with chunks of 128 and 0.2 MiB with chunks of 64.  A call
# of the objective at the gradcheck draw costs 0.15-0.32 ms for one probe
# and 5-10 us more per added probe (timeit), so chunks of 128, 10 calls
# per objective check instead of 16, ran the suite ~14 % faster than
# chunks of 64 (2 CPUs, numpy 2.4.6).
PROBE_CHUNK = 128


def finite_diff_check(
    loss_fn: Callable[[dict[str, np.ndarray]], np.ndarray],
    point: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> float:
    """Compare analytic gradients against central differences of loss_fn.

    ``grads`` holds the caller's gradient of the loss at ``point``, one
    array of the same shape per entry.  ``loss_fn`` takes stacks: every
    array of the dict it gets has a leading probe axis, of length m for
    the perturbed tensor, whose row r has one coordinate set to
    orig + FD_STEP or orig - FD_STEP, and of length 1 for every other
    array; it returns the m losses, one per row's point.  It is called
    once on the length-1 stacks of the unperturbed point, whose loss must
    be finite, then for each tensor with chunks of up to PROBE_CHUNK of
    its 2 * n probes.  The arrays in ``point`` are never written.  Returns
    the maximum over all coordinates of |analytic - numeric| / max(1,
    |analytic|, |numeric|); a NaN analytic gradient makes it NaN.
    """
    unperturbed = {name: value[None] for name, value in point.items()}
    loss0 = float(loss_fn(unperturbed)[0])
    if not math.isfinite(loss0):
        raise NumericError(f"loss is non-finite at the unperturbed point: {loss0}")
    worst = 0.0
    for name, base in point.items():
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
            losses[start : start + rows.size] = loss_fn(perturbed)
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
