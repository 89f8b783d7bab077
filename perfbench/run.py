"""Benchmark of protomatch: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train --seed 3 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  A run builds the workload's inputs from the seed, sets
up ``Workload.setup_reps`` times (each with one warm-up call), then repeats the
workload's iteration until ``--seconds`` have passed, checking every output.
It prints one line per metric, then a JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Only the workload's operation
(``Workload.op``) is wrapped, with a clock.  ``--trace 1`` reports per-layer
metrics: set-up and the last part of the measuring time run with every
public function of every layer wrapped in a span (see tracer.py); the first
part runs with the clock only, which gives the tracing overhead.  Functions
a workload never calls report 0.  All scratch files live under
``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import SpanTable, Tracer, patched, peak_rss_mb, unpatched_check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# Share of the measuring time a traced run spends with the clock only.
TRACE_BASELINE_SHARE = 0.25

END_TO_END = (
    ("setup_s", "s"),  # median of Workload.setup_reps set-ups
    ("op_ms_p50", "ms"),  # median duration of one call of Workload.op
    ("work_per_s", "1/s"),  # median over iterations of units of work per second
    ("peak_rss_mb", "MiB"),  # peak resident set at the end of the run
    ("op_peak_rss_mb", "MiB"),  # peak resident set when the first op returned
)

# Layer functions with a `.calls` metric: every one some workload calls
# in its timed iterations.
CALLED = (
    "cli.run_gradcheck_suite",
    "dataset.make_batches",
    "diagnostics.intra_inter_stats",
    "losses.contrastive_loss",
    "losses.total_loss",
    "losses.variance_loss",
    "matching.similarity_matrix",
    "matching.similarity_vjp",
    "metrics.evaluate",
    "metrics.median_rank",
    "metrics.rank_of",
    "metrics.ranks_from_scores",
    "metrics.recall_at_k",
    "metrics.sum_recalls",
    "numerics.adam_step",
    "numerics.finite_diff_check",
    "numerics.l2_normalize_rows",
    "numerics.l2_normalize_rows_vjp",
    "numerics.lr_at",
    "numerics.relu",
    "numerics.relu_vjp",
    "prototypes.embed_texts",
    "prototypes.embed_videos",
    "prototypes.head_backward",
    "prototypes.head_forward",
    "prototypes.init_head",
    "prototypes.text_backward",
    "prototypes.text_forward",
    "trainer.batch_objective",
    "trainer.objective_finite_diff",
    "trainer.save_checkpoint",
    "trainer.train",
    "trainer.train_step",
    "trainer.validate_setup",
)


@dataclass
class Loop:
    """What one measuring loop did."""

    attempted: int
    failed: int
    work: list[int]  # units of work done by each iteration
    wall_s: list[float]  # wall time of each iteration


class LayerStats:
    """Per-layer metrics from a traced loop and the clock-only loop before it."""

    def __init__(self, table, op: str, iterations: int, baseline_op_ns, similarity_shape):
        self.t = table
        self.op = op
        self.iterations = iterations
        self.baseline_op_ns = baseline_op_ns
        self.similarity_shape = similarity_shape

    def _median(self, values) -> float:
        return float(statistics.median(values)) if len(values) else 0.0

    def call(self, name: str, scale: float) -> float:
        return self._median(self.t.duration[self.t.calls_spans(name)]) * scale

    def self_time(self, name: str, scale: float) -> float:
        return self._median(self.t.self_time[self.t.calls_spans(name)]) * scale

    def calls(self, name: str) -> float:
        count = self.t.spans(name).size
        return count // self.iterations if count % self.iterations == 0 else count / self.iterations

    def share(self, name: str) -> float:
        op_total = self.t.duration[self.t.spans(self.op)].sum()
        return float(self.t.duration[self.t.spans(name)].sum() / op_total) if op_total else 0.0

    def similarity_gflop(self) -> float:
        t, v, k1, d = self.similarity_shape
        return 2.0 * t * v * k1 * d / 1e9

    def similarity_mib(self) -> float:
        t, v, k1, _ = self.similarity_shape
        return t * v * k1 * 8 / 2**20

    def overhead_ms(self) -> float:
        return (self.call(self.op, 1.0) - self._median(self.baseline_op_ns)) / 1e6

    def accounted_share(self) -> float:
        """Sum over functions of their median self time per op, over the median op.

        Each op's self times add up to its duration, so this is near 1 when
        the per-function medians describe a typical op.
        """
        per_op = self.t.per_op_self(self.op)
        if not per_op.size:
            return 0.0
        return float(sum(statistics.median(col) for col in per_op.T) / self.call(self.op, 1.0))


def _ms(name: str) -> Callable[[LayerStats], float]:
    return lambda s: s.call(name, 1e-6)


def _s(name: str) -> Callable[[LayerStats], float]:
    return lambda s: s.call(name, 1e-9)


PER_LAYER: tuple[tuple[str, str, Callable[[LayerStats], float]], ...] = (
    ("matching.similarity_vjp_ms", "ms", _ms("matching.similarity_vjp")),
    ("matching.similarity_matrix_ms", "ms", _ms("matching.similarity_matrix")),
    ("prototypes.head_forward_ms", "ms", _ms("prototypes.head_forward")),
    ("prototypes.head_backward_ms", "ms", _ms("prototypes.head_backward")),
    ("prototypes.text_forward_ms", "ms", _ms("prototypes.text_forward")),
    ("prototypes.text_backward_ms", "ms", _ms("prototypes.text_backward")),
    ("losses.contrastive_loss_ms", "ms", _ms("losses.contrastive_loss")),
    ("losses.variance_loss_ms", "ms", _ms("losses.variance_loss")),
    ("numerics.adam_step_ms", "ms", _ms("numerics.adam_step")),
    ("trainer.train_step_self_ms", "ms", lambda s: s.self_time("trainer.train_step", 1e-6)),
    ("matching.similarity_vjp_share", "ratio", lambda s: s.share("matching.similarity_vjp")),
    ("dataset.make_batches_ms", "ms", _ms("dataset.make_batches")),
    ("trainer.save_checkpoint_ms", "ms", _ms("trainer.save_checkpoint")),
    ("dataset.load_corpus_s", "s", _s("dataset.load_corpus")),
    ("trainer.load_checkpoint_s", "s", _s("trainer.load_checkpoint")),
    ("metrics.evaluate_s", "s", _s("metrics.evaluate")),
    ("metrics.ranks_from_scores_s", "s", _s("metrics.ranks_from_scores")),
    ("diagnostics.intra_inter_stats_s", "s", _s("diagnostics.intra_inter_stats")),
    ("matching.similarity_matrix.gflop_computed", "GFLOP", LayerStats.similarity_gflop),
    ("matching.similarity_matrix.mb_computed", "MiB", LayerStats.similarity_mib),
    ("trainer.batch_objective_us", "us", lambda s: s.call("trainer.batch_objective", 1e-3)),
    ("numerics.finite_diff_check_self_s", "s",
     lambda s: s.self_time("numerics.finite_diff_check", 1e-9)),
    ("trace.op_overhead_ms", "ms", LayerStats.overhead_ms),
) + tuple((f"{name}.calls", "count", (lambda s, n=name: s.calls(n))) for name in CALLED)


def machine() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy has loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def measure(workload, tracer, seconds: float, only) -> Loop:
    """Repeat the workload's iteration under `tracer` until `seconds` have passed."""
    loop = Loop(0, 0, [], [])
    with patched(tracer, only=only):
        start = time.perf_counter()
        while True:
            tracer.current_iteration = len(loop.wall_s)
            t0 = time.perf_counter()
            outcome = workload.iterate()
            loop.wall_s.append(time.perf_counter() - t0)
            loop.attempted += outcome.attempted
            loop.failed += outcome.failed
            loop.work.append(outcome.work)
            if time.perf_counter() - start >= seconds:
                break
        tracer.current_iteration = -1
    return loop


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list]:
    """Returns the result object and the report lines (name, value, unit)."""
    from workloads import WORKLOADS  # imports protomatch, so only once src/ is on the path

    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    tracer = Tracer()
    setup_s = []
    with patched(tracer, only=None if trace else ()):
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
    unpatched_check()

    clock = Tracer()
    baseline_seconds = seconds * TRACE_BASELINE_SHARE if trace else seconds
    loops = [measure(workload, clock, baseline_seconds, only=[workload.op])]
    unpatched_check()
    clock_table = SpanTable(clock)
    op_ns = clock_table.duration[clock_table.spans(workload.op)]
    if trace:
        remaining = max(seconds - sum(loops[0].wall_s), 0.0)
        loops.append(measure(workload, tracer, remaining, only=None))
        unpatched_check()
        stats = LayerStats(SpanTable(tracer), workload.op, len(loops[1].wall_s), op_ns,
                           workload.similarity_shape)
        metrics = {n: (fn(stats), unit) for n, unit, fn in PER_LAYER}
        lines = [("trace.op_accounted_share", stats.accounted_share(), "ratio")]
    else:
        loop = loops[0]
        values = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": float(np.median(op_ns)) / 1e6,
            "work_per_s": statistics.median(w / t for w, t in zip(loop.work, loop.wall_s)),
            "peak_rss_mb": peak_rss_mb(),
            "op_peak_rss_mb": clock.first_end_rss[workload.op],
        }
        metrics = {n: (values[n], unit) for n, unit in END_TO_END}
        lines = workload.named_metrics(op_ns / 1e6)
        lines.append(("op_samples", op_ns.size, "count"))
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "protomatch" / "__init__.py").is_file():
        print(f"perfbench: no protomatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import protomatch

    if Path(protomatch.__file__).resolve().parent != SRC / "protomatch":
        print(f"perfbench: imported protomatch from {protomatch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import INPUT_SEEDS

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result, lines = run(args.workload, args.seed % INPUT_SEEDS, args.seconds,
                            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    for key, value in machine().items():
        print(f"machine.{key} {value}")
    for name, value, unit in lines:
        print(f"{name} {value} {unit}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
