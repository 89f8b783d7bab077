"""Training loop, determinism, checkpoint persistence, and the full objective."""

import dataclasses
import itertools
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from protomatch import trainer as trainer_module
from protomatch.dataset import SynthConfig, make_batches, synth_corpus
from protomatch.errors import CheckpointError, NumericError, ValidationError
from protomatch.losses import LossConfig
from protomatch.numerics import (
    AdamState,
    LrSchedule,
    ParamTensor,
    RngStream,
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

from conftest import per_row, random_corpus


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
        small_cfg(batch_size=0)
    with pytest.raises(ValidationError):
        small_cfg(n_prototypes=-1)


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

    params.zero_grads()
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
    sched = LrSchedule(cfg.warmup_epochs, cfg.peak_lr, cfg.epochs, steps_per_epoch)
    assert len(history) == cfg.epochs * steps_per_epoch
    for row in history:
        assert row.lr == lr_at(row.step / steps_per_epoch, sched)
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
    schedule = LrSchedule(cfg.warmup_epochs, cfg.peak_lr, cfg.epochs, steps_per_epoch)
    history = []
    for epoch in range(cfg.epochs):
        for batch in make_batches(corpus, cfg.batch_size, sampler):
            lr = lr_at(len(history) / steps_per_epoch, schedule)
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
        assert adam.first[name].tobytes() == want_adam.first[name].tobytes()
        assert adam.second[name].tobytes() == want_adam.second[name].tobytes()
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


def test_warm_train_step_transient_memory_fits_the_workspace_budget():
    # default synthetic dims at the train benchmark's shape; without the
    # workspace one step's transient arrays peak at 3.14 MiB, with it 0.32
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
        "first moments": state.adam.first["vproj_w"],
        "second moments": state.adam.second["vproj_w"],
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
            if self.writes == 7:  # magic, version, length, header, two blobs
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


def full_objective_finite_diff(seed: int) -> float:
    """objective_finite_diff's check with the full objective at every probe.

    Draws the same points of the same sizes and runs forward and backward,
    with fresh parameter tensors, at the unperturbed point and at each of
    the 2 * n perturbed ones.
    """
    cfg, d = LossConfig(), trainer_module.GRADCHECK_DRAW
    for attempt in range(trainer_module.MAX_DRAWS):
        rng = RngStream(seed, stream=attempt + 2)
        tokens = rng.normal((d["batch"], d["n_tokens"], d["token_dim"]))
        text = rng.normal((d["batch"], d["text_dim"]))
        params = init_head(d["n_prototypes"], d["token_dim"], d["text_dim"], d["embed_dim"], rng)
        if trainer_module._near_nonsmooth_point(tokens, text, params, cfg):
            continue

        def full_objective(values):
            p = HeadParameters(**{name: ParamTensor(values[name]) for name in PARAM_ORDER})
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
    raise AssertionError(f"seed {seed}: no smooth point in {trainer_module.MAX_DRAWS} tries")


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
                p = HeadParameters(**{n: ParamTensor(point[n]) for n in PARAM_ORDER})
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
    p = HeadParameters(**{n: ParamTensor(values[n]) for n in PARAM_ORDER})
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
    params.zero_grads()
    breakdown, _, _ = batch_objective(
        batch.tokens, batch.text_features, params, cfg.loss, head_variant="part"
    )
    assert breakdown.variance == 0.0
    assert breakdown.total == breakdown.contrastive
