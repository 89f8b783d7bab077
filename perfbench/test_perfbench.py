"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from protomatch import losses, metrics, prototypes, trainer  # noqa: E402
from protomatch.numerics import RngStream  # noqa: E402


class TinyTrain(workloads.Train):
    videos = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = trainer.TrainConfig(
            n_prototypes=2, embed_dim=8, batch_size=4, epochs=2, warmup_epochs=1,
            seed=seed, checkpoint_every=1,
        )
        _, history = trainer.train(workloads.train_corpus(seed, self.videos), self.cfg)
        self.reference = history[-1].total


class TinyEval(workloads.Eval):
    videos = 24
    head_videos = 12
    warm_videos = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.head_cfg = trainer.TrainConfig(
            n_prototypes=3, embed_dim=8, batch_size=4, epochs=10, warmup_epochs=1,
            peak_lr=5e-3, seed=seed, checkpoint_every=10,
        )


def tiny_objective_inputs():
    rng = RngStream(0)
    params = prototypes.init_head(2, 5, 4, 6, rng)
    return rng.normal((3, 4, 5)), rng.normal((3, 4)), params, losses.LossConfig()


def test_spans_nest_and_self_times_are_non_negative():
    inputs = tiny_objective_inputs()
    t = tracer.Tracer()
    with tracer.patched(t):
        trainer.batch_objective(*inputs)
    table = tracer.SpanTable(t)
    start = np.frombuffer(t.start, dtype=np.int64)
    end = np.frombuffer(t.end, dtype=np.int64)
    root = table.spans("trainer.batch_objective", timed=False)
    assert root.size == 1 and table.parent[root[0]] == -1
    assert table.last[root[0]] == len(t)  # every other span is a descendant
    for i in range(1, len(t)):
        p = table.parent[i]
        assert 0 <= p < i
        assert start[p] <= start[i] <= end[i] <= end[p]
        assert table.last[i] <= table.last[p]
    names = {table.names[table.name_id[i]] for i in range(len(t)) if table.parent[i] == root[0]}
    assert {"prototypes.head_forward", "matching.similarity_vjp", "losses.contrastive_loss"} <= names
    assert (table.self_time >= 0).all()
    assert table.self_time.sum() == pytest.approx(table.duration[root[0]])


def test_patched_names_are_restored_even_on_error():
    originals = (trainer.similarity_vjp, metrics.similarity_matrix, metrics.ranks_from_scores)
    with pytest.raises(ZeroDivisionError):
        with tracer.patched(tracer.Tracer()):
            assert trainer.similarity_vjp is not originals[0]
            assert metrics.similarity_matrix is not originals[1]
            1 / 0
    assert (trainer.similarity_vjp, metrics.similarity_matrix, metrics.ranks_from_scores) == originals
    tracer.unpatched_check()


def test_patched_only_wraps_the_named_function():
    inputs = tiny_objective_inputs()
    t = tracer.Tracer()
    with tracer.patched(t, only=["trainer.batch_objective"]):
        trainer.batch_objective(*inputs)
    assert t.names == ["trainer.batch_objective"] and len(t) == 1


def test_train_wrong_reference_counts_as_failure(tmp_path):
    w = TinyTrain(1, tmp_path)
    w.prepare()
    w.setup()
    assert w.iterate().failed == 0
    assert w.iterate().failed == 0
    w.reference *= 1 + 1e-3
    assert w.iterate().failed == 1


def test_eval_oracle_matches_and_wrong_reference_fails(tmp_path):
    w = TinyEval(2, tmp_path)
    w.prepare()
    w.setup()
    lo, hi = w.bounds.sum_r
    assert lo == hi  # no near ties: the oracle pins the exact value
    outcome = w.iterate()
    assert outcome.failed == 0 and w.sum_r == lo
    w.bounds.sum_r = (lo + 0.5, hi + 0.5)
    assert w.iterate().failed == 1


def test_gradcheck_entry_above_tolerance_fails(tmp_path, monkeypatch):
    w = workloads.Gradcheck(0, tmp_path)
    monkeypatch.setattr(workloads.cli, "GRADCHECK_SEEDS", 1)
    assert w.iterate().failed == 0
    monkeypatch.setattr(workloads.cli, "GRADCHECK_TOLERANCE", 0.0)
    assert w.iterate().failed == 5


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(tmp_path, monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "train", TinyTrain)
    result, lines = run.run("train", 1, 0.3, trace, tmp_path)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [entry[0] for entry in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trainer.train_step.calls"] == 8  # 2 epochs of 16 videos at batch 4
        assert values["trainer.train.calls"] == 1
        assert values["metrics.evaluate.calls"] == 0
        # One batch of 4 captions against 4 videos, 3 prototypes each, in 8 dims.
        assert values["matching.similarity_matrix.gflop_computed"] == 2 * 4 * 4 * 3 * 8 / 1e9
        # The per-function medians of self time add up to the median step.
        assert dict((n, v) for n, v, _ in lines)["trace.op_accounted_share"] == pytest.approx(
            1.0, abs=0.25
        )
    else:
        assert all(v > 0 for v in values.values())
    tracer.unpatched_check()


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
