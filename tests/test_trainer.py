"""Training loop, determinism, checkpoint persistence, and the full objective."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from protomatch import trainer as trainer_module
from protomatch.dataset import SynthConfig, make_batches, synth_corpus
from protomatch.errors import CheckpointError, NumericError, ShapeError, ValidationError
from protomatch.losses import LossConfig, mask_std
from protomatch.numerics import (
    SEED_BOUND,
    AdamState,
    RngStream,
    adam_step,
    finite_diff_check,
    lr_at,
)
from protomatch.prototypes import HeadParameters, init_head
from protomatch.trainer import (
    CHECKPOINT_VERSION,
    PARAM_ORDER,
    CheckpointState,
    StepWorkspace,
    TrainConfig,
    batch_objective,
    load_checkpoint,
    objective_finite_diff,
    save_checkpoint,
    train,
    train_step,
    validate_setup,
    write_history_csv,
)

from conftest import adam_oracle, per_row, random_corpus, tensor_views, trainable_head


def small_cfg(**overrides) -> TrainConfig:
    base = dict(
        n_prototypes=2,
        embed_dim=8,
        batch_size=4,
        epochs=3,
        warmup_epochs=1,
        peak_lr=1e-3,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def schedule_fields(cfg: TrainConfig) -> tuple[float, float, int]:
    return cfg.warmup_epochs, cfg.peak_lr, cfg.epochs


def params_snapshot(params) -> dict[str, np.ndarray]:
    return {name: t.value.copy() for name, t in params.tensors().items()}


def assert_params_equal(params, snapshot):
    for name, t in params.tensors().items():
        np.testing.assert_array_equal(t.value, snapshot[name])


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------


def test_defaults_match_reference_recipe():
    cfg = TrainConfig()
    assert (cfg.n_prototypes, cfg.embed_dim, cfg.batch_size) == (3, 256, 64)
    assert (cfg.epochs, cfg.warmup_epochs, cfg.peak_lr) == (50, 5, 3e-5)
    assert (cfg.loss.temperature, cfg.loss.std_target) == (0.05, 0.75)
    assert (cfg.loss.variance_floor, cfg.loss.variance_weight) == (1e-4, 5.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        small_cfg(variant="unknown")
    with pytest.raises(ValidationError):
        small_cfg(epochs=2, warmup_epochs=3)
    with pytest.raises(ValidationError):
        small_cfg(warmup_epochs=-1)
    with pytest.raises(ValidationError):
        small_cfg(peak_lr=-1e-3)
    with pytest.raises(ValidationError):
        small_cfg(batch_size=0)
    with pytest.raises(ValidationError):
        small_cfg(n_prototypes=-1)


def test_part_variant_needs_a_prototype():
    with pytest.raises(ValidationError) as exc:
        TrainConfig(variant="part", n_prototypes=0)
    assert str(exc.value) == "the part variant needs at least one prototype"


def test_config_refuses_the_seeds_the_random_stream_refuses():
    # refused when the config is built, before a run writes anything
    for seed in -1, SEED_BOUND:
        with pytest.raises(ValidationError) as exc:
            small_cfg(seed=seed)
        with pytest.raises(ValidationError) as stream_exc:
            RngStream(seed)
        assert str(exc.value) == str(stream_exc.value)
        assert str(exc.value) == f"seed must be a 64-bit unsigned integer, got {seed}"
    assert small_cfg(seed=SEED_BOUND - 1).seed == 2**64 - 1


def test_baseline_variant_means_zero_prototypes():
    cfg = small_cfg(variant="baseline", n_prototypes=3)
    assert cfg.effective_prototypes == 0
    assert cfg.head_variant == "mask"
    assert small_cfg(variant="part").head_variant == "part"


def test_setup_validation_names_both_batch_numbers():
    corpus = random_corpus(num_videos=3)
    with pytest.raises(ValidationError) as exc:
        validate_setup(corpus, small_cfg(batch_size=5))
    assert "5" in str(exc.value) and "3" in str(exc.value)


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------


def make_one_batch(seed=0, num_videos=8):
    corpus = synth_corpus(SynthConfig(num_videos=num_videos, seed=seed))
    return next(iter(make_batches(corpus, num_videos, RngStream(seed, stream=1)))), corpus


def fresh_state(cfg, corpus, seed=0):
    _, token_dim, text_dim = corpus.dims
    params = init_head(
        cfg.effective_prototypes, token_dim, text_dim, cfg.embed_dim, RngStream(seed, stream=0)
    )
    return params, AdamState.init(params.tensors())


def test_zero_lr_step_reports_loss_but_changes_nothing():
    batch, corpus = make_one_batch()
    cfg = small_cfg(batch_size=8)
    params, adam = fresh_state(cfg, corpus)
    before = params_snapshot(params)
    breakdown = train_step(batch, params, adam, cfg, lr=0.0)
    assert np.isfinite(breakdown.total)
    assert breakdown.total == pytest.approx(
        breakdown.contrastive + cfg.loss.variance_weight * breakdown.variance
    )
    assert_params_equal(params, before)
    assert adam.step == 1  # the optimizer still advanced its counter


def test_repeated_steps_on_one_batch_converge():
    # frozen seed 0: 100% strictly decreasing, final/initial 0.0595 (8-seed scan)
    batch, corpus = make_one_batch(seed=0)
    cfg = small_cfg(batch_size=8, embed_dim=16)
    params, adam = fresh_state(cfg, corpus)
    totals = [train_step(batch, params, adam, cfg, lr=1e-3).total for _ in range(200)]
    drops = sum(b < a for a, b in zip(totals, totals[1:]))
    assert drops / (len(totals) - 1) >= 0.95
    assert totals[-1] < 0.25 * totals[0]


def test_baseline_and_k0_mask_produce_identical_trajectories():
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=1))
    runs = {}
    for variant in ("baseline", "mask"):
        cfg = small_cfg(
            batch_size=8,
            epochs=4,
            variant=variant,
            n_prototypes=0 if variant == "mask" else 3,
            loss=LossConfig(variance_weight=0.0),
        )
        params, history = train(corpus, cfg)
        runs[variant] = (params_snapshot(params), [h.total for h in history])
    base_params, base_hist = runs["baseline"]
    mask_params, mask_hist = runs["mask"]
    assert base_hist == mask_hist  # bit-identical loss trajectories
    for name in base_params:
        np.testing.assert_array_equal(base_params[name], mask_params[name])


def test_gradients_reach_mask_params_even_when_class_token_wins():
    # class tokens and texts share an axis the body tokens never touch, so
    # the class prototype wins every match; with the variance weight on,
    # mask parameters must still receive gradient through the regularizer
    rng = RngStream(2)
    k, dim, batch, n_tokens = 2, 4, 4, 5
    tokens = np.zeros((batch, n_tokens, dim))
    for v in range(batch):
        tokens[v, 0] = [1.0 + 0.01 * v, 0.0, 0.0, 0.0]
        tokens[v, 1:, 1:] = np.abs(rng.normal((n_tokens - 1, dim - 1))) + 0.1
    texts = np.tile([1.0, 0.0, 0.0, 0.0], (batch, 1))
    params = init_head(k, dim, dim, dim, RngStream(3, stream=0))
    params.mask_w.value[:] = 0.01 * rng.normal((dim, k))
    params.mask_b.value[:] = 0.1  # acts stay positive, masks alive but uneven
    params.vproj_w.value[:] = np.eye(dim)
    params.tproj_w.value[:] = np.eye(dim)

    params.grads.fill(0.0)
    _, sim, _ = batch_objective(tokens, texts, params, LossConfig())
    assert np.all(sim.winners == k)  # class prototype everywhere
    assert np.abs(params.mask_w.grad).max() > 0.0
    assert np.abs(params.mask_b.grad).max() > 0.0


def test_non_finite_loss_aborts_naming_component():
    batch, corpus = make_one_batch(seed=3)
    batch.tokens[0, 1, 0] = np.nan
    cfg = small_cfg(batch_size=8)
    params, adam = fresh_state(cfg, corpus)
    with pytest.raises(NumericError):
        train_step(batch, params, adam, cfg, lr=1e-3)


@pytest.mark.filterwarnings("error")  # the overflow is reported as the error, not as warnings
@pytest.mark.parametrize("tensor, side", [("vproj_w", "video"), ("tproj_w", "text")])
def test_step_on_a_head_whose_norms_overflow_raises(tensor, side):
    # squared norms of about 1e320 overflow, and the rows would normalize to
    # zero rows that train on silently with a zero gradient
    batch, corpus = make_one_batch(seed=2)
    cfg = small_cfg(batch_size=8)
    params, adam = fresh_state(cfg, corpus)
    getattr(params, tensor).value[:] *= 1e160
    before = params_snapshot(params)
    with pytest.raises(NumericError, match=f"non-finite {side} embeddings"):
        train_step(batch, params, adam, cfg, lr=1e-3)
    assert_params_equal(params, before)
    assert adam.step == 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initialized_params_untouched():
    corpus = synth_corpus(SynthConfig(num_videos=6, seed=4))
    cfg = small_cfg(batch_size=6, epochs=0, warmup_epochs=0)
    params, history = train(corpus, cfg)
    assert history == []
    _, token_dim, text_dim = corpus.dims
    reference = init_head(2, token_dim, text_dim, cfg.embed_dim, RngStream(0, stream=0))
    assert_params_equal(params, params_snapshot(reference))


def test_identical_seeds_give_bit_identical_history_files(tmp_path):
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=5))
    cfg = small_cfg(batch_size=4, epochs=3)
    for name in ("a", "b"):
        _, history = train(corpus, cfg)
        write_history_csv(history, tmp_path / f"{name}.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_different_seed_changes_history():
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=5))
    _, h0 = train(corpus, small_cfg(batch_size=4, epochs=2, seed=0))
    _, h1 = train(corpus, small_cfg(batch_size=4, epochs=2, seed=1))
    assert [s.total for s in h0] != [s.total for s in h1]


def test_lr_trace_matches_schedule_exactly():
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=6))
    cfg = small_cfg(batch_size=4, epochs=4, warmup_epochs=2)
    _, history = train(corpus, cfg)
    steps_per_epoch = 2
    assert len(history) == cfg.epochs * steps_per_epoch
    for row in history:
        assert row.lr == lr_at(row.step / steps_per_epoch, *schedule_fields(cfg))
        assert row.epoch == row.step // steps_per_epoch


def test_history_csv_format(tmp_path):
    corpus = synth_corpus(SynthConfig(num_videos=4, seed=7))
    _, history = train(corpus, small_cfg(batch_size=4, epochs=1))
    path = tmp_path / "log.csv"
    write_history_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,epoch,lr,contrastive,variance,total"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[5]) == history[0].total  # repr round-trips exactly


# ---------------------------------------------------------------------------
# step workspace
# ---------------------------------------------------------------------------


def train_without_workspace(corpus, cfg):
    """train()'s loop as a plain loop of allocating train_step calls."""
    _, token_dim, text_dim = corpus.dims
    params = init_head(
        cfg.effective_prototypes, token_dim, text_dim, cfg.embed_dim, RngStream(cfg.seed, stream=0)
    )
    adam = AdamState.init(params.tensors())
    sampler = RngStream(cfg.seed, stream=1)
    steps_per_epoch = corpus.num_videos // cfg.batch_size
    history = []
    for epoch in range(cfg.epochs):
        for batch in make_batches(corpus, cfg.batch_size, sampler):
            lr = lr_at(len(history) / steps_per_epoch, *schedule_fields(cfg))
            b = train_step(batch, params, adam, cfg, lr, workspace=None)
            history.append((len(history), epoch, lr, b.contrastive, b.variance, b.total))
    return params, adam, history


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("variant", ["mask", "part", "baseline"])
def test_train_with_workspace_matches_allocating_steps_bitwise(tmp_path, variant, seed):
    corpus = synth_corpus(SynthConfig(num_videos=24, seed=seed))
    cfg = small_cfg(n_prototypes=3, embed_dim=16, batch_size=8, epochs=3, peak_lr=5e-3,
                    seed=seed, variant=variant)
    params, history = train(corpus, cfg, out_dir=tmp_path)
    adam = load_checkpoint(tmp_path / "checkpoints" / "epoch_0003.bin").adam
    want_params, want_adam, want_history = train_without_workspace(corpus, cfg)
    got = [(h.step, h.epoch, h.lr, h.contrastive, h.variance, h.total) for h in history]
    assert repr(got) == repr(want_history)
    for name in PARAM_ORDER:
        assert params.tensors()[name].value.tobytes() == want_params.tensors()[name].value.tobytes()
    for got, want in ((adam.first, want_adam.first), (adam.second, want_adam.second)):
        for name, moment in tensor_views(got, params).items():
            assert moment.tobytes() == tensor_views(want, want_params)[name].tobytes()
    assert adam.step == want_adam.step


def returned_arrays(result):
    _, sim, inputs = result
    return [sim.scores, sim.winners, *inputs]


def test_batch_objective_returns_fresh_arrays_with_or_without_workspace():
    batch, corpus = make_one_batch(seed=3)
    cfg = small_cfg(batch_size=8)
    params, _ = fresh_state(cfg, corpus)
    args = (batch.tokens, batch.text_features, params, cfg.loss)
    first = returned_arrays(batch_objective(*args, want_input_grads=True))
    second = returned_arrays(batch_objective(*args, want_input_grads=True))
    assert not any(np.shares_memory(a, b) for a in first for b in second)

    workspace = StepWorkspace.for_config(cfg)
    buffers = []
    for field in dataclasses.fields(workspace):
        value = getattr(workspace, field.name)
        buffers.extend(value if isinstance(value, tuple) else [value])
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(buffers, 2))
    for _ in range(2):
        returned = returned_arrays(
            batch_objective(*args, want_input_grads=True, workspace=workspace)
        )
        assert not any(np.shares_memory(a, b) for a in returned for b in buffers)
        for got, want in zip(returned, first):
            assert got.tobytes() == want.tobytes()


def test_workspace_at_the_train_shape_is_one_block_of_2_mib():
    # batch 64, K=3, D=256: the forwards' outputs, the stripe block and the
    # similarity gradients; the backward reuses them and adds nothing
    cfg = small_cfg(n_prototypes=3, embed_dim=256, batch_size=64)
    workspace = StepWorkspace.for_config(cfg)
    views = []
    for field in dataclasses.fields(workspace):
        value = getattr(workspace, field.name)
        views.extend(value if isinstance(value, tuple) else [value])
    storage = views[0].base
    assert all(view.base is storage for view in views)
    assert storage.nbytes == sum(view.nbytes for view in views) == 2 * 2**20


def test_warm_train_step_transient_memory_fits_the_workspace_budget():
    # default synthetic dims at the train benchmark's shape; without the
    # workspace one step's transient arrays peak at 3.08 MiB, with its
    # 2 MiB at 0.33 (tracemalloc, numpy 2.4.6)
    corpus = synth_corpus(SynthConfig(num_videos=64, seed=4))
    cfg = small_cfg(n_prototypes=3, embed_dim=256, batch_size=64)
    params, adam = fresh_state(cfg, corpus)
    (batch,) = make_batches(corpus, cfg.batch_size, RngStream(4, stream=1))
    workspace = StepWorkspace.for_config(cfg)
    for _ in range(2):
        train_step(batch, params, adam, cfg, 1e-5, workspace)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_step(batch, params, adam, cfg, 1e-5, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / 2**20 <= 1.25


# ---------------------------------------------------------------------------
# flat parameter vectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant, n_prototypes", [("mask", 3), ("baseline", 3), ("part", 2)])
def test_flat_adam_matches_the_per_tensor_oracle_bitwise(variant, n_prototypes):
    # the baseline head's mask tensors have zero size; the part head's get
    # zero gradients, so they must not move
    batch, corpus = make_one_batch(seed=6)
    cfg = small_cfg(n_prototypes=n_prototypes, batch_size=8, variant=variant)
    params, adam = fresh_state(cfg, corpus, seed=6)
    initial, values = params_snapshot(params), params_snapshot(params)
    first = {name: np.zeros_like(v) for name, v in values.items()}
    second = {name: np.zeros_like(v) for name, v in values.items()}
    for step in range(1, 7):
        params.grads.fill(0.0)
        batch_objective(batch.tokens, batch.text_features, params, cfg.loss, cfg.head_variant)
        grads = {name: t.grad.copy() for name, t in params.tensors().items()}
        adam_oracle(values, grads, first, second, step, 1e-2)
        adam_step(params.values, params.grads, adam, 1e-2)
        assert adam.step == step
        for name, t in params.tensors().items():
            assert t.value.tobytes() == values[name].tobytes(), (name, step)
            assert tensor_views(adam.first, params)[name].tobytes() == first[name].tobytes()
            assert tensor_views(adam.second, params)[name].tobytes() == second[name].tobytes()
    for name, t in params.tensors().items():
        moved = not np.array_equal(t.value, initial[name])
        assert moved == (t.value.size > 0 and (variant != "part" or name in ("vproj_w", "tproj_w")))


def assert_tensors_view_the_vectors(params, adam):
    assert params.values.shape == params.grads.shape == adam.first.shape == adam.second.shape
    vectors = (params.values, params.grads, adam.first, adam.second)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(vectors, 2))
    for name, t in params.tensors().items():
        assert np.shares_memory(t.value, params.values), name
        assert np.shares_memory(t.grad, params.grads), name
        assert np.shares_memory(tensor_views(adam.first, params)[name], adam.first), name
        assert t.value.tobytes() == tensor_views(params.values, params)[name].tobytes(), name


def test_tensors_are_views_of_one_vector_each_after_init_steps_and_reload(tmp_path):
    batch, corpus = make_one_batch(seed=2)
    cfg = small_cfg(n_prototypes=3, batch_size=8, epochs=2)
    params, adam = fresh_state(cfg, corpus)
    assert_tensors_view_the_vectors(params, adam)
    vectors = (params.values, params.grads, adam.first, adam.second)
    for _ in range(2):
        train_step(batch, params, adam, cfg, 1e-2)
    # a step writes through the views into the same vectors
    assert all(a is b for a, b in zip(vectors, (params.values, params.grads, adam.first, adam.second)))
    assert_tensors_view_the_vectors(params, adam)
    path = tmp_path / "flat.bin"
    save_checkpoint(CheckpointState(params, adam, 2, RngStream(0).state, cfg), path)
    state = load_checkpoint(path)
    assert_tensors_view_the_vectors(state.params, state.adam)
    assert not state.params.grads.any()
    for got, want in ((state.params.values, params.values), (state.adam.first, adam.first),
                      (state.adam.second, adam.second)):
        assert got.tobytes() == want.tobytes()


def test_head_from_a_vector_of_the_wrong_length_is_refused():
    head = init_head(2, 5, 4, 3, RngStream(0))
    shapes = {name: t.value.shape for name, t in head.tensors().items()}
    with pytest.raises(ShapeError, match="does not hold 39 values"):
        HeadParameters.from_vector(np.zeros(36), shapes)


def test_probe_losses_run_on_heads_without_gradients(monkeypatch):
    heads = []
    objective_forward = trainer_module._objective_forward

    def recording(tokens, text, params, *args, **kwargs):
        heads.append(params)
        return objective_forward(tokens, text, params, *args, **kwargs)

    monkeypatch.setattr(trainer_module, "_objective_forward", recording)
    objective_finite_diff(seed=0)
    analytic, *probes = heads  # batch_objective's call at the drawn point comes first
    assert analytic.grads is not None and len(probes) > 1
    for stack in probes:
        assert stack.values is None and stack.grads is None
        assert all(t.grad is None for t in stack.tensors().values())


def test_probes_compute_no_loss_gradient(monkeypatch):
    # the loss VJPs run only inside the one batch_objective call at the drawn point
    analytic, ran = [], []
    batch_objective_ = trainer_module.batch_objective

    def at_the_drawn_point(*args, **kwargs):
        analytic.append(True)
        try:
            return batch_objective_(*args, **kwargs)
        finally:
            analytic.pop()

    def guarded(name):
        vjp = getattr(trainer_module, name)

        def run(fwd):
            if not analytic:
                raise AssertionError(f"a probe ran {name}")
            ran.append(name)
            return vjp(fwd)

        return run

    monkeypatch.setattr(trainer_module, "batch_objective", at_the_drawn_point)
    for name in ("contrastive_vjp", "variance_vjp"):
        monkeypatch.setattr(trainer_module, name, guarded(name))
    assert objective_finite_diff(seed=0) < 1e-5
    assert sorted(ran) == ["contrastive_vjp", "variance_vjp"]


def test_only_the_analytic_point_runs_the_winner_pass(monkeypatch):
    # the probe stacks read losses only, so their scoring skips the winners
    asked = []
    similarity_matrix = trainer_module.similarity_matrix

    def recording(text, video, winners=True, buffer=None):
        asked.append(winners)
        return similarity_matrix(text, video, winners, buffer)

    monkeypatch.setattr(trainer_module, "similarity_matrix", recording)
    objective_finite_diff(seed=0)
    analytic, *probes = asked
    assert analytic is True and len(probes) > 1 and not any(probes)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def run_with_checkpoints(tmp_path, epochs, checkpoint_every=2, seed=0):
    corpus = synth_corpus(SynthConfig(num_videos=8, seed=8))
    cfg = small_cfg(batch_size=4, epochs=epochs, checkpoint_every=checkpoint_every, seed=seed)
    out = tmp_path / f"run_e{epochs}"
    params, history = train(corpus, cfg, out_dir=out)
    return corpus, cfg, out, params, history


def test_checkpoint_roundtrip_identity(tmp_path):
    corpus, cfg, out, params, _ = run_with_checkpoints(tmp_path, epochs=2)
    state = load_checkpoint(out / "checkpoints" / "epoch_0002.bin")
    assert state.epoch == 2
    assert state.config == cfg
    assert_params_equal(state.params, params_snapshot(params))
    resaved = tmp_path / "resaved.bin"
    save_checkpoint(state, resaved)
    assert resaved.read_bytes() == (out / "checkpoints" / "epoch_0002.bin").read_bytes()


def test_resume_reproduces_uninterrupted_run_bit_exactly(tmp_path):
    corpus, cfg, out, full_params, full_history = run_with_checkpoints(tmp_path, epochs=4)
    mid = out / "checkpoints" / "epoch_0002.bin"
    resumed_params, resumed_history = train(corpus, cfg, resume_from=mid)
    assert_params_equal(resumed_params, params_snapshot(full_params))
    tail = [h.total for h in full_history[len(full_history) - len(resumed_history) :]]
    assert [h.total for h in resumed_history] == tail


def test_resume_refuses_a_checkpoint_of_another_config(tmp_path):
    # another loss would train on silently; another head shape would fail
    # inside a matmul with numpy's bare ValueError
    corpus, cfg, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    mid = out / "checkpoints" / "epoch_0002.bin"
    for change, message in (
        ({"loss": LossConfig(temperature=0.5)}, "temperature = 0.05, this run has 0.5"),
        ({"n_prototypes": cfg.n_prototypes + 1}, f"n_prototypes = {cfg.n_prototypes}, "),
    ):
        pattern = f"^checkpoint .*epoch_0002.bin was saved with {message}"
        with pytest.raises(ValidationError, match=pattern):
            train(corpus, dataclasses.replace(cfg, **change), resume_from=mid)


def test_checkpoint_wrong_version_rejected(tmp_path):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    path = out / "checkpoints" / "epoch_0002.bin"
    data = bytearray(path.read_bytes())
    data[4] = CHECKPOINT_VERSION + 1
    bad = tmp_path / "bad_version.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert str(CHECKPOINT_VERSION + 1) in str(exc.value)


def test_checkpoint_truncation_and_garbage_rejected(tmp_path):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    path = out / "checkpoints" / "epoch_0002.bin"
    data = path.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)
    padded = tmp_path / "padded.bin"
    padded.write_bytes(data + b"\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(padded)
    not_ckpt = tmp_path / "not.bin"
    not_ckpt.write_bytes(b"nope")
    with pytest.raises(CheckpointError):
        load_checkpoint(not_ckpt)


def pinned_checkpoint(path):
    """A checkpoint whose bytes take elementwise float ops only, no BLAS.

    An init_head head after three Adam steps on RngStream gradients, so
    the file is the same on every build and numpy version that keeps
    Philox's streams.
    """
    cfg = TrainConfig(n_prototypes=3, embed_dim=6, batch_size=4, epochs=2, warmup_epochs=1, seed=11)
    params = init_head(3, 5, 4, 6, RngStream(11))
    adam = AdamState.init(params.tensors())
    draws = RngStream(11, stream=7)
    for lr in (1e-2, 5e-3, 2e-3):
        for t in params.tensors().values():
            t.grad[...] = draws.normal(t.grad.shape)
        adam_step(params.values, params.grads, adam, lr)
    save_checkpoint(CheckpointState(params, adam, 2, RngStream(11, stream=1).state, cfg), path)
    return path


def test_checkpoint_bytes_are_pinned(tmp_path):
    # recorded when the values and moments were twelve per-tensor arrays:
    # the file format and every byte must survive changes to the layout
    data = pinned_checkpoint(tmp_path / "pinned.bin").read_bytes()
    assert len(data) == 2453
    assert hashlib.sha256(data).hexdigest() == (
        "10ce445fbfdef1e7614191087013af3a1c62644e48914f317a6543bb7a9c5714"
    )


def blob_walk_error(body: bytes, shapes: dict) -> str | None:
    """The body's error message from a walk over its twelve blobs in file order.

    Each blob is checked for being whole, then for finite numbers; the
    first failure is named.  The oracle for load_checkpoint's one pass.
    """
    offset = 0
    for section in ("values", "first moments", "second moments"):
        for name in PARAM_ORDER:
            nbytes = 8 * math.prod(shapes[name])
            if len(body) < offset + nbytes:
                return f"is truncated inside blob '{name}'"
            if not np.isfinite(np.frombuffer(body[offset : offset + nbytes], "<f8")).all():
                return f"has non-finite {section} of '{name}'"
            offset += nbytes
    return f"has {len(body) - offset} trailing bytes" if len(body) > offset else None


@pytest.mark.parametrize("n_prototypes", [0, 3])
def test_checkpoint_body_errors_match_a_walk_over_the_blobs(tmp_path, n_prototypes):
    # K=0 puts zero-size blobs at each vector's start, between whole blobs
    params = init_head(n_prototypes, 2, 3, 2, RngStream(5))
    adam = AdamState.init(params.tensors())
    adam.first[:], adam.second[:] = 0.5, 0.25
    cfg = small_cfg(n_prototypes=n_prototypes, embed_dim=2)
    path = tmp_path / "body.bin"
    save_checkpoint(CheckpointState(params, adam, 1, RngStream(0).state, cfg), path)
    data = path.read_bytes()
    start = 16 + struct.unpack("<Q", data[8:16])[0]
    head, body = data[:start], data[start:]
    shapes = {name: t.value.shape for name, t in params.tensors().items()}
    floats = len(body) // 8
    rng = np.random.default_rng(n_prototypes)
    cases = [body[:cut] for cut in range(len(body))] + [body + b"\0" * 3, body + b"\0" * 16]
    for i in range(floats):  # a NaN or inf at each float, whole or cut after a later byte
        for bad, cut in ((np.nan, len(body)), (np.inf, int(rng.integers(8 * i, len(body))))):
            mutated = bytearray(body)
            mutated[8 * i : 8 * i + 8] = np.float64(bad).tobytes()
            cases.append(bytes(mutated[:cut]))
    for case in cases:
        path.write_bytes(head + case)
        want = blob_walk_error(case, shapes)
        if want is None:
            assert load_checkpoint(path).params.values.tobytes() == params.values.tobytes()
            continue
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path} {want}"


def with_header(data: bytes, header_bytes: bytes) -> bytes:
    """The checkpoint bytes with the JSON header replaced (length fixed up)."""
    (old_len,) = struct.unpack("<Q", data[8:16])
    return data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + data[16 + old_len :]


def test_checkpoint_header_not_utf8_rejected(tmp_path):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    data = bytearray((out / "checkpoints" / "epoch_0002.bin").read_bytes())
    data[20] = 0xFF
    bad = tmp_path / "not_utf8.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert "not_utf8.bin" in str(exc.value)


def test_checkpoint_header_not_json_rejected(tmp_path):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    data = (out / "checkpoints" / "epoch_0002.bin").read_bytes()
    bad = tmp_path / "not_json.bin"
    bad.write_bytes(with_header(data, b"{not json"))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert "not_json.bin" in str(exc.value)


def test_checkpoint_header_of_another_json_type_rejected(tmp_path):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    data = (out / "checkpoints" / "epoch_0002.bin").read_bytes()
    bad = tmp_path / "list_header.bin"
    bad.write_bytes(with_header(data, b"[]"))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert str(exc.value) == f"{bad} has a corrupt header (not a JSON object)"


@pytest.mark.parametrize(
    "key", ["blob_order", "shapes", "adam_step", "config", "epoch", "rng_state"]
)
def test_checkpoint_header_missing_key_rejected(tmp_path, key):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    data = (out / "checkpoints" / "epoch_0002.bin").read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + header_len])
    del header[key]
    bad = tmp_path / "no_key.bin"
    bad.write_bytes(with_header(data, json.dumps(header).encode("utf-8")))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert "no_key.bin" in str(exc.value) and key in str(exc.value)


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda header: header["config"].update(bogus_knob=1), "bogus_knob"),
        (lambda header: header["shapes"].pop("vproj_w"), "lack tensor 'vproj_w'"),
        (lambda header: header["shapes"].update(mask_w=[-1, 3]), "'mask_w' is [-1, 3]"),
        (lambda header: header["shapes"].update(mask_w=[2.5, 3]), "'mask_w' is [2.5, 3]"),
        (lambda header: header.update(shapes=[]), "shapes is not an object"),
        (lambda header: header["blob_order"].__setitem__(1, "mask_w"), "blob_order"),
        (lambda header: header.update(blob_order=["mask_b", "mask_w", "vproj_w", "tproj_w"]),
         "blob_order"),
        (lambda header: header.update(config=[]), "config is not an object"),
        (lambda header: header["config"].update(variant="nope"), "unknown variant 'nope'"),
        (lambda header: header.update(epoch=-1), "epoch is -1, not a non-negative integer"),
        (lambda header: header.update(epoch=True), "epoch is True, not a non-negative integer"),
        (lambda header: header.update(epoch=2.0), "epoch is 2.0, not a non-negative integer"),
        (lambda header: header.update(adam_step="4"), "adam_step is '4', not a non-negative"),
        (lambda header: header.update(adam_step=-3), "adam_step is -3, not a non-negative"),
        (lambda header: header.update(adam_step=None), "adam_step is None, not a non-negative"),
        (lambda header: header.update(rng_state="x"), "rng_state is not a sampler state"),
        (lambda header: header["rng_state"].update(bit_generator="PCG64"), "rng_state is not a"),
        (lambda header: header["rng_state"].pop("state"), "rng_state is not a sampler state"),
        (lambda header: header["rng_state"]["state"]["counter"].update(dtype="bogus"),
         "rng_state is not a sampler state"),
        (lambda header: header["config"].pop("seed"), "header config lacks key(s) seed"),
        (lambda header: header["config"]["loss"].pop("temperature"),
         "header loss lacks key(s) temperature"),
        (lambda header: header["shapes"].update(mask_w=[32]),  # as many floats as [16, 2]
         "do not fit a head of 2 prototypes and embed_dim 8"),
        (lambda header: header["config"].update(embed_dim=9),
         "do not fit a head of 2 prototypes and embed_dim 9"),
    ],
    ids=[
        "unknown_config_key",
        "shape_missing",
        "negative_shape",
        "non_integer_shape",
        "shapes_not_object",
        "blob_order_repeats",
        "blob_order_permuted",
        "config_not_object",
        "config_value_invalid",
        "epoch_negative",
        "epoch_bool",
        "epoch_float",
        "adam_step_string",
        "adam_step_negative",
        "adam_step_null",
        "rng_state_not_object",
        "rng_state_other_generator",
        "rng_state_missing_state",
        "rng_state_bad_dtype",
        "config_key_missing",
        "loss_key_missing",
        "shape_of_wrong_rank",
        "config_unlike_shapes",
    ],
)
def test_checkpoint_header_wrong_value_rejected(tmp_path, edit, needle):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    data = (out / "checkpoints" / "epoch_0002.bin").read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + header_len])
    edit(header)
    bad = tmp_path / "bad_value.bin"
    bad.write_bytes(with_header(data, json.dumps(header).encode("utf-8")))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert "bad_value.bin" in str(exc.value) and needle in str(exc.value)


@pytest.mark.parametrize("section", ["values", "first moments", "second moments"])
def test_checkpoint_non_finite_tensor_rejected(tmp_path, section):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    state = load_checkpoint(out / "checkpoints" / "epoch_0002.bin")
    tensor = {
        "values": state.params.vproj_w.value,
        "first moments": tensor_views(state.adam.first, state.params)["vproj_w"],
        "second moments": tensor_views(state.adam.second, state.params)["vproj_w"],
    }[section]
    tensor[1, 2] = np.nan if section == "values" else np.inf
    bad = tmp_path / "non_finite.bin"
    save_checkpoint(state, bad)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(bad)
    assert str(exc.value) == f"{bad} has non-finite {section} of 'vproj_w'"


def test_interrupted_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    path = out / "checkpoints" / "epoch_0002.bin"
    before = path.read_bytes()
    state = load_checkpoint(path)
    state.epoch = 3

    class FailsOnThirdBlob:
        """A file whose write raises partway through the blobs."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 7:  # magic, version, length, header, values, first moments
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(
        trainer_module, "open", lambda file, mode: FailsOnThirdBlob(open(file, mode)),
        raising=False,
    )
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(state, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).epoch == 2
    assert sorted(p.name for p in path.parent.iterdir()) == ["epoch_0002.bin"]


def test_checkpoint_is_synced_before_the_rename_and_its_directory_after(tmp_path, monkeypatch):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=2)
    state = load_checkpoint(out / "checkpoints" / "epoch_0002.bin")
    path = tmp_path / "synced" / "epoch_0002.bin"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        kind = "directory" if stat.S_ISDIR(info.st_mode) else "file"
        events.append((f"fsync {kind}", info.st_ino, info.st_size if kind == "file" else None))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, None))
        real_replace(src, dst)

    monkeypatch.setattr(trainer_module.os, "fsync", fsync)
    monkeypatch.setattr(trainer_module.os, "replace", replace)
    save_checkpoint(state, path)
    monkeypatch.undo()
    written = os.stat(path)
    assert events == [
        ("fsync file", written.st_ino, written.st_size),  # every byte flushed before the sync
        ("replace", written.st_ino, None),
        ("fsync directory", os.stat(path.parent).st_ino, None),
    ]


def test_checkpoint_cadence_and_final_always_written(tmp_path):
    _, _, out, _, _ = run_with_checkpoints(tmp_path, epochs=5, checkpoint_every=2)
    names = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert names == ["epoch_0002.bin", "epoch_0004.bin", "epoch_0005.bin"]


# ---------------------------------------------------------------------------
# full-objective gradient check
# ---------------------------------------------------------------------------


def test_full_objective_gradient_single_seed():
    assert objective_finite_diff(seed=0) < 1e-5


def gradcheck_point(seed: int):
    """(tokens, text, head) objective_finite_diff checks at seed: its first draw clear of kinks."""
    cfg, d = LossConfig(), trainer_module.GRADCHECK_DRAW
    for attempt in range(trainer_module.MAX_DRAWS):
        rng = RngStream(seed, stream=attempt + 2)
        tokens = rng.normal((d["batch"], d["n_tokens"], d["token_dim"]))
        text = rng.normal((d["batch"], d["text_dim"]))
        params = init_head(d["n_prototypes"], d["token_dim"], d["text_dim"], d["embed_dim"], rng)
        if not trainer_module._near_nonsmooth_point(tokens, text, params, cfg):
            return tokens, text, params
    raise AssertionError(f"seed {seed}: no smooth point in {trainer_module.MAX_DRAWS} tries")


def full_objective_finite_diff(seed: int) -> float:
    """objective_finite_diff's check with the full objective at every probe.

    Draws the same points of the same sizes and runs forward and backward,
    with fresh parameter tensors, at the unperturbed point and at each of
    the 2 * n perturbed ones.
    """
    cfg = LossConfig()
    tokens, text, params = gradcheck_point(seed)

    def full_objective(values):
        p = trainable_head(values)
        breakdown, _, inputs = batch_objective(
            values["tokens"], values["text"], p, cfg, want_input_grads=True
        )
        grads = {name: t.grad for name, t in p.tensors().items()}
        grads["tokens"], grads["text"] = inputs
        return breakdown.total, grads

    values = {name: t.value for name, t in params.tensors().items()}
    values["tokens"], values["text"] = tokens, text
    _, grads = full_objective(values)
    return finite_diff_check(per_row(lambda point: full_objective(point)[0]), values, grads)


# With a margin this small only an exact kink counts, so a True names the kink made.
EXACT_KINK = 1e-300


def test_equal_mask_columns_sit_on_a_prototype_tie(monkeypatch):
    tokens, text, params = gradcheck_point(0)
    monkeypatch.setattr(trainer_module, "KINK_MARGIN", EXACT_KINK)
    assert not trainer_module._near_nonsmooth_point(tokens, text, params, LossConfig())
    # column 1's activations take column 0's values, so no relu kink comes closer
    params.mask_w.value[:, 1] = params.mask_w.value[:, 0]
    params.mask_b.value[1] = params.mask_b.value[0]
    assert trainer_module._near_nonsmooth_point(tokens, text, params, LossConfig())


def test_a_std_target_at_a_tokens_mask_std_sits_on_the_hinge(monkeypatch):
    tokens, text, params = gradcheck_point(0)
    _, std = mask_std(trainer_module.head_forward(tokens, params).masks, LossConfig())
    monkeypatch.setattr(trainer_module, "KINK_MARGIN", EXACT_KINK)
    assert not trainer_module._near_nonsmooth_point(tokens, text, params, LossConfig())
    cfg = LossConfig(std_target=float(std[3]))
    assert trainer_module._near_nonsmooth_point(tokens, text, params, cfg)


def test_objective_check_without_a_smooth_draw_raises(monkeypatch):
    monkeypatch.setattr(trainer_module, "KINK_MARGIN", 10.0)  # every relu is nearer its kink
    with pytest.raises(NumericError) as exc:
        objective_finite_diff(0)
    assert str(exc.value) == "could not draw a point 10.0 away from all kinks in 64 tries"


def test_forward_only_probes_match_full_objective_oracle():
    probed = [objective_finite_diff(seed) for seed in range(20)]
    assert probed == [full_objective_finite_diff(seed) for seed in range(20)]


def serial_probes(values: dict, cfg: LossConfig, step: float = 1e-5) -> list:
    """(point, total loss) of every finite-difference probe, one at a time.

    Tensor by tensor, coordinate by coordinate, up then down: each point is
    a fresh copy with one coordinate moved, run through the full objective
    on fresh parameter tensors.
    """
    probes = []
    for name, base in values.items():
        for idx in np.ndindex(base.shape):
            for moved in (base[idx] + step, base[idx] - step):
                point = {k: v.copy() for k, v in values.items()}
                point[name][idx] = moved
                p = trainable_head(point)
                breakdown, _, _ = batch_objective(point["tokens"], point["text"], p, cfg)
                probes.append((point, breakdown.total))
    return probes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_probes_match_serial_probes_bitwise(monkeypatch, seed):
    checked, chunks = {}, []

    def recording(loss_fn, values, grads):
        def recorded(stack):
            losses = loss_fn(stack)
            chunks.append((stack, losses))
            return losses

        checked["values"] = {k: v.copy() for k, v in values.items()}
        return finite_diff_check(recorded, values, grads)

    monkeypatch.setattr(trainer_module, "finite_diff_check", recording)
    objective_finite_diff(seed)
    # the first call is the unperturbed point, as stacks of one
    unperturbed, loss0 = chunks.pop(0)
    values = checked["values"]
    for name, value in values.items():
        assert unperturbed[name].shape == (1, *value.shape)
        assert unperturbed[name].tobytes() == value.tobytes()
    p = trainable_head(values)
    breakdown, _, _ = batch_objective(values["tokens"], values["text"], p, LossConfig())
    assert loss0.tobytes() == np.float64(breakdown.total).tobytes()
    batched = []
    for stack, losses in chunks:
        assert losses.shape == (max(len(v) for v in stack.values()),)
        for r, loss in enumerate(losses):
            batched.append(({k: v[r if len(v) > 1 else 0] for k, v in stack.items()}, loss))
    serial = serial_probes(checked["values"], LossConfig())
    assert len(batched) == len(serial) == 2 * sum(v.size for v in checked["values"].values())
    for (point, loss), (want_point, want_loss) in zip(batched, serial):
        for name, value in want_point.items():
            assert point[name].tobytes() == value.tobytes()
        assert loss.tobytes() == np.float64(want_loss).tobytes()


@pytest.mark.parametrize("variant", ["mask", "part", "baseline"])
def test_objective_forward_total_equals_batch_objective(variant):
    batch, corpus = make_one_batch(seed=5)
    cfg = small_cfg(batch_size=8, variant=variant)
    params, _ = fresh_state(cfg, corpus)
    fwd = trainer_module._objective_forward(
        batch.tokens, batch.text_features, params, cfg.loss, cfg.head_variant
    )
    for t in params.tensors().values():
        assert not t.grad.any()  # the forward half touches no gradient
    breakdown, _, _ = batch_objective(
        batch.tokens, batch.text_features, params, cfg.loss, cfg.head_variant
    )
    assert fwd.breakdown == breakdown  # total, contrastive and variance, bitwise


def test_part_variant_objective_has_no_variance_term():
    batch, corpus = make_one_batch(seed=9)
    cfg = small_cfg(batch_size=8, variant="part")
    params, _ = fresh_state(cfg, corpus)
    params.grads.fill(0.0)
    breakdown, _, _ = batch_objective(
        batch.tokens, batch.text_features, params, cfg.loss, head_variant="part"
    )
    assert breakdown.variance == 0.0
    assert breakdown.total == breakdown.contrastive
