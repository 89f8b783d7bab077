"""Command-line surface: config handling, run layout, exit codes, pipeline."""

import errno
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import protomatch
from protomatch.cli import (
    _FIELD_TYPES,
    RunConfig,
    build_run_config,
    config_lines,
    main,
    parse_config_file,
    run_directory,
)
from protomatch.dataset import load_corpus
from protomatch.errors import ConfigError
from protomatch.trainer import load_checkpoint, save_checkpoint

from conftest import write_zero_width_manifest


SMALL_CORPUS = [
    "num_videos = 8",
    "captions_per_video = 2",
    "tokens_per_video = 6",
    "token_dim = 10",
    "text_dim = 8",
]
SMALL_TRAIN = [
    "n_prototypes = 2",
    "embed_dim = 8",
    "batch_size = 4",
    "epochs = 2",
    "warmup_epochs = 1",
    "peak_lr = 0.001",
]


def write_config(tmp_path, lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def synth_small(tmp_path, seed=0):
    cfg = write_config(tmp_path, SMALL_CORPUS)
    out = tmp_path / "runs"
    assert main(["synth", "--config", str(cfg), "--seed", str(seed), "--out-dir", str(out)]) == 0
    manifests = list(out.glob("*/corpus/manifest.jsonl"))
    assert len(manifests) == 1
    return cfg, out, manifests[0]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_file_parsing_with_comments(tmp_path):
    path = write_config(tmp_path, ["# a comment", "epochs = 7", "", "peak_lr = 0.002  # inline"])
    values = parse_config_file(path)
    assert values == {"epochs": "7", "peak_lr": "0.002"}


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, ["learning_rate = 0.1"])
    code = main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "r")])
    assert code == 1


def test_malformed_line_reports_location(tmp_path):
    path = write_config(tmp_path, ["epochs 7"])
    with pytest.raises(ConfigError) as exc:
        parse_config_file(path)
    assert "1" in str(exc.value)


def test_override_precedence_file_then_set_then_seed(tmp_path):
    import argparse

    cfg_path = write_config(tmp_path, ["epochs = 7", "seed = 3"])
    args = argparse.Namespace(
        config=str(cfg_path), set=["epochs=9"], seed=11, out_dir="unused"
    )
    cfg = build_run_config(args)
    assert cfg.epochs == 9  # --set beats the file
    assert cfg.seed == 11  # --seed beats both
    assert cfg.batch_size == RunConfig().batch_size  # defaults fill the rest


def test_bad_set_syntax_rejected():
    import argparse

    args = argparse.Namespace(config=None, set=["epochs:9"], seed=None, out_dir="x")
    with pytest.raises(ConfigError):
        build_run_config(args)


def test_type_coercion_errors_name_the_key():
    import argparse

    args = argparse.Namespace(config=None, set=["epochs=soon"], seed=None, out_dir="x")
    with pytest.raises(ConfigError) as exc:
        build_run_config(args)
    assert "epochs" in str(exc.value)


def test_run_directory_depends_on_config_and_seed(tmp_path):
    a = RunConfig()
    b = RunConfig(epochs=a.epochs + 1)
    assert run_directory(a, tmp_path) != run_directory(b, tmp_path)
    c = RunConfig(seed=a.seed + 1)
    dir_a, dir_c = run_directory(a, tmp_path), run_directory(c, tmp_path)
    assert dir_a != dir_c
    assert dir_a.name.endswith("-seed0") and dir_c.name.endswith("-seed1")


def test_config_keys_types_and_digests_are_pinned(tmp_path):
    assert _FIELD_TYPES == {
        "num_videos": "int", "captions_per_video": "int", "events_per_video": "int",
        "latent_dim": "int", "tokens_per_video": "int", "token_dim": "int",
        "text_dim": "int", "token_noise": "float", "caption_noise": "float",
        "seed": "int", "n_prototypes": "int", "embed_dim": "int", "batch_size": "int",
        "epochs": "int", "warmup_epochs": "float", "peak_lr": "float", "variant": "str",
        "checkpoint_every": "int", "std_target": "float", "variance_floor": "float",
        "variance_weight": "float", "temperature": "float",
    }
    # run directories are named by these digests; the README quotes the second
    assert run_directory(RunConfig(), tmp_path).name == "6f0e8beb66-seed0"
    assert run_directory(RunConfig(num_videos=16), tmp_path).name == "312219676f-seed0"
    assert "warmup_epochs = 5.0\n" in config_lines(RunConfig())


def test_config_echo_reproduces_effective_config(tmp_path):
    cfg_file, out, _ = synth_small(tmp_path)
    (run_dir,) = out.iterdir()
    echoed = (run_dir / "config.echo").read_text()
    args_cfg = build_run_config(
        __import__("argparse").Namespace(
            config=str(cfg_file), set=None, seed=0, out_dir=str(out)
        )
    )
    assert echoed == config_lines(args_cfg)


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------


def test_synth_train_eval_pipeline(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    code = main(
        ["train", "--config", str(train_cfg), "--corpus", str(manifest),
         "--out-dir", str(out / "train")]
    )
    assert code == 0
    (train_dir,) = (out / "train").iterdir()
    assert (train_dir / "train_log.csv").exists()
    assert (train_dir / "report.json").exists()
    assert (train_dir / "report.txt").exists()
    checkpoints = sorted((train_dir / "checkpoints").iterdir())
    assert checkpoints, "training must leave at least the final checkpoint"

    code = main(
        ["eval", "--config", str(train_cfg), "--corpus", str(manifest),
         "--checkpoint", str(checkpoints[-1]), "--out-dir", str(out / "eval")]
    )
    assert code == 0
    (eval_dir,) = (out / "eval").iterdir()
    eval_report = json.loads((eval_dir / "report.json").read_text())
    train_report = json.loads((train_dir / "report.json").read_text())
    assert eval_report == train_report  # same parameters, same corpus
    assert "SumR" in capsys.readouterr().out


def main_in_fresh_interpreter(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a new Python process, as a user would."""
    script = "import sys; from protomatch.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(protomatch.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def test_rerun_with_same_config_is_byte_identical(tmp_path):
    # the second run starts in a fresh interpreter, so bits that depend on
    # the process's state (heap layout, what ran before) would show here
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    for variant in ("mask", "part", "baseline"):
        payloads = []
        for attempt in ("a", "b"):
            dest = out / f"train_{variant}_{attempt}"
            argv = ["train", "--config", str(train_cfg), "--set", f"variant={variant}",
                    "--set", "checkpoint_every=1",
                    "--corpus", str(manifest), "--out-dir", str(dest)]
            if attempt == "a":
                assert main(argv) == 0
            else:
                assert main_in_fresh_interpreter(argv).returncode == 0
            (run_dir,) = dest.iterdir()
            files = sorted(p for p in run_dir.rglob("*") if p.is_file())
            payloads.append({str(p.relative_to(run_dir)): p.read_bytes() for p in files})
        names = set(payloads[0])
        assert {"train_log.csv", "report.json", "report.txt"} <= names
        assert sum(name.startswith("checkpoints") for name in names) >= 2, variant
        assert payloads[0] == payloads[1], variant


def test_baseline_train_writes_nothing_to_stderr(tmp_path):
    # a fresh interpreter, where a warning reaches stderr as it does for a
    # user instead of pytest's warning capture
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    argv = ["train", "--config", str(train_cfg), "--set", "variant=baseline",
            "--corpus", str(manifest), "--out-dir", str(out / "train")]
    done = main_in_fresh_interpreter(argv)
    assert (done.returncode, done.stderr) == (0, "")


def test_feature_beyond_float32_range_exits_1_in_one_line(tmp_path):
    # a fresh interpreter, where numpy's overflow warning would reach stderr
    _, out, manifest = synth_small(tmp_path)
    lines = manifest.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if '"kind": "text"' in line) + 2
    rec = json.loads(lines[lineno - 1])
    rec["features"][1] = 1e39
    lines[lineno - 1] = json.dumps(rec)
    manifest.write_text("\n".join(lines) + "\n")
    done = main_in_fresh_interpreter(["diagnose", "--corpus", str(manifest),
                                      "--out-dir", str(out / "diag")])
    assert (done.returncode, done.stderr) == (1, (
        f"error: {manifest}:{lineno}: text record {rec['id']!r} key 'features' "
        "must be a list of numbers in float32 range\n"
    ))
    assert not (out / "diag").exists()


def test_diagnose_and_heatmap_artifacts(tmp_path):
    _, out, manifest = synth_small(tmp_path)
    assert main(["diagnose", "--corpus", str(manifest), "--out-dir", str(out / "diag")]) == 0
    (diag_dir,) = (out / "diag").iterdir()
    for name in ("inter_hist.csv", "min_intra.csv", "summary.json"):
        assert (diag_dir / name).exists()
    summary = json.loads((diag_dir / "summary.json").read_text())
    assert 0.0 <= summary["fraction_below"] <= 1.0

    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    ckpt = sorted((train_dir / "checkpoints").iterdir())[-1]
    assert main(["heatmap", "--corpus", str(manifest), "--checkpoint", str(ckpt),
                 "--video-id", "v3", "--out-dir", str(out / "heat")]) == 0
    (heat_dir,) = (out / "heat").iterdir()
    assert (heat_dir / "heatmap_v3.csv").exists()
    assert (heat_dir / "heatmap_v3_normalized.csv").exists()


def test_diagnose_with_checkpoint_is_byte_identical_across_runs(tmp_path):
    _, out, small_manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(small_manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    ckpt = sorted((train_dir / "checkpoints").iterdir())[-1]
    # 500 videos of 3 captions: 1 122 750 cross-video pairs, more than the
    # 1 M that diagnose samples
    big_cfg = write_config(tmp_path, SMALL_CORPUS + ["num_videos = 500",
                                                     "captions_per_video = 3"], name="big.cfg")
    assert main(["synth", "--config", str(big_cfg), "--out-dir", str(tmp_path / "big")]) == 0
    (manifest,) = (tmp_path / "big").glob("*/corpus/manifest.jsonl")
    runs = []
    for attempt in ("first", "second"):
        assert main(["diagnose", "--corpus", str(manifest), "--checkpoint", str(ckpt),
                     "--out-dir", str(tmp_path / attempt)]) == 0
        (diag_dir,) = (tmp_path / attempt).iterdir()
        runs.append({name: (diag_dir / name).read_bytes()
                     for name in ("inter_hist.csv", "min_intra.csv", "summary.json")})
    assert runs[0] == runs[1]
    counts = [int(line.split(b",")[2]) for line in runs[0]["inter_hist.csv"].splitlines()[1:]]
    assert sum(counts) == 1_000_000


def test_checkpoint_header_keeps_float_warmup_default(tmp_path):
    _, out, manifest = synth_small(tmp_path)
    no_warmup = [line for line in SMALL_TRAIN if not line.startswith("warmup_epochs")]
    train_cfg = write_config(tmp_path, SMALL_CORPUS + no_warmup + ["epochs = 5"], name="t.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    data = sorted((train_dir / "checkpoints").iterdir())[-1].read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    warmup = json.loads(data[16 : 16 + header_len])["config"]["warmup_epochs"]
    assert type(warmup) is float and warmup == 5.0  # serialized as 5.0, not 5


def test_gradcheck_command_passes(tmp_path, capsys):
    assert main(["gradcheck", "--out-dir", str(tmp_path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "max rel err" in l]
    assert len(lines) >= 5
    assert all("PASS" in l for l in lines)


def test_gradcheck_failure_exits_2(tmp_path, capsys, monkeypatch):
    # every relative error is at or above a zero tolerance
    monkeypatch.setattr(protomatch.cli, "GRADCHECK_TOLERANCE", 0.0)
    assert main(["gradcheck", "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert all("FAIL" in line for line in lines[:-1]) and len(lines) >= 6
    assert lines[-1] == f"{len(lines) - 1} gradient check(s) at or above 0.0"
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
def test_gradcheck_with_overflowing_temperature_exits_1(tmp_path, capsys):
    code = main(["gradcheck", "--set", "temperature=1e-310", "--out-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "temperature" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("temperature", ["1.2e-308", "2.3e-308"])
def test_gradcheck_with_loss_overflowing_temperature_exits_2(tmp_path, capsys, temperature):
    # above the config bound, but the loss's logit spans overflow
    code = main(["gradcheck", "--set", f"temperature={temperature}", "--out-dir", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "non-finite" in captured.err
    assert "RuntimeWarning" not in captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["mask", "part", "baseline"])
def test_train_whose_head_overflows_exits_2_naming_the_step(tmp_path, capsys, variant):
    # one Adam step at lr 1e160 moves each projection weight by about 1e160,
    # so the next step's projected rows overflow; a part head used to train
    # on them as zero rows to the end of the run, and a mask head's forward
    # used to print numpy's overflow RuntimeWarning before the error line
    _, out, manifest = synth_small(tmp_path)
    cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN + [
        "warmup_epochs = 0", "peak_lr = 1e160", f"variant = {variant}"
    ], name="train.cfg")
    capsys.readouterr()
    code = main(["train", "--config", str(cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "t")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "numeric error: training step 1 (epoch 0): the head gives non-finite video embeddings\n"
    )
    (run_dir,) = (out / "t").iterdir()
    assert not any((run_dir / "checkpoints").iterdir())


def test_batch_size_beyond_corpus_exits_1_naming_both(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    cfg = write_config(tmp_path, SMALL_CORPUS + ["batch_size = 12"], name="big.cfg")
    code = main(["train", "--config", str(cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "t")])
    assert code == 1
    err = capsys.readouterr().err
    assert "12" in err and "8" in err
    assert not (out / "t").exists()  # validation failed before any writes


def test_part_prototypes_beyond_non_class_tokens_exit_1(tmp_path, capsys):
    # SMALL_CORPUS videos have 6 tokens, so at most 5 parts
    _, out, manifest = synth_small(tmp_path)
    cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    capsys.readouterr()
    code = main(["train", "--config", str(cfg), "--set", "variant=part",
                 "--set", "n_prototypes=6", "--corpus", str(manifest),
                 "--out-dir", str(out / "t")])
    assert code == 1
    assert_one_line_error(capsys, "part variant needs n_prototypes (6) <= non-class tokens (5)")
    assert not (out / "t").exists()


def test_missing_config_file_exits_1_naming_path(tmp_path, capsys):
    code = main(["synth", "--config", str(tmp_path / "absent.cfg"),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert_one_line_error(capsys, "config file", "absent.cfg", "does not exist")
    assert not (tmp_path / "r").exists()


def test_missing_corpus_exits_1_naming_path(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_unwritable_out_dir_exits_3(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where a directory must go")
    code = main(["synth", "--out-dir", str(blocked)])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_unreadable_blob_exits_3(tmp_path, capsys, monkeypatch):
    # a superuser reads a file whatever its mode, so the open itself is made to refuse
    _, out, manifest = synth_small(tmp_path)
    blob = manifest.parent / "blobs" / "video_00000.bin"
    real_open = os.open

    def refusing_open(path, flags, *args, **kwargs):
        if Path(path) == blob:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing_open)
    capsys.readouterr()
    code = main(["train", "--corpus", str(manifest), "--out-dir", str(out / "t")])
    assert code == 3
    assert capsys.readouterr().err == f"i/o error: [Errno 13] Permission denied: '{blob}'\n"
    assert not (out / "t").exists()


def test_seed_beyond_64_bits_exits_1_leaving_no_run_directory(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    capsys.readouterr()
    code = main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--seed", str(2**64), "--out-dir", str(out / "t")])
    assert code == 1
    assert_one_line_error(capsys, "seed must be a 64-bit unsigned integer, got 18446744073709551616")
    assert not (out / "t").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["synth", "train", "eval", "gradcheck", "diagnose", "heatmap"])
def test_every_command_refuses_a_seed_outside_64_bits(eval_inputs, tmp_path, capsys, command, seed):
    # eval, diagnose and heatmap draw nothing from the seed on this corpus,
    # so the config check is what refuses it for them
    manifest, checkpoint = eval_inputs
    head = ["--corpus", str(manifest), "--checkpoint", str(checkpoint)]
    inputs = {
        "train": ["--corpus", str(manifest)],
        "eval": head,
        "diagnose": head,
        "heatmap": [*head, "--video-id", "v0"],
    }
    capsys.readouterr()
    code = main([command, *inputs.get(command, []), "--seed", str(seed),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert_one_line_error(capsys, f"seed must be a 64-bit unsigned integer, got {seed}")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "pair", ["peak_lr=nan", "warmup_epochs=nan", "temperature=nan", "variance_weight=-inf",
             "token_noise=inf"],
)
def test_train_refuses_a_non_finite_config_value(eval_inputs, tmp_path, capsys, pair):
    manifest, _ = eval_inputs
    capsys.readouterr()
    code = main(["train", "--corpus", str(manifest), "--set", pair,
                 "--out-dir", str(tmp_path / "r")])
    assert code == 1
    name, _, value = pair.partition("=")
    assert_one_line_error(capsys, f"{name} must be finite, got {float(value)!r}")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["synth", "eval", "gradcheck", "diagnose", "heatmap"])
def test_every_command_refuses_a_nan_config_value(eval_inputs, tmp_path, capsys, command):
    # as with the seed, a command that reads no learning rate refuses one all the same
    manifest, checkpoint = eval_inputs
    head = ["--corpus", str(manifest), "--checkpoint", str(checkpoint)]
    inputs = {"eval": head, "diagnose": head, "heatmap": [*head, "--video-id", "v0"]}
    capsys.readouterr()
    code = main([command, *inputs.get(command, []), "--set", "peak_lr=nan",
                 "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert_one_line_error(capsys, "peak_lr must be finite, got nan")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["train", "diagnose"])
def test_a_zero_width_corpus_exits_1_leaving_no_run_directory(tmp_path, capsys, command):
    manifest = write_zero_width_manifest(tmp_path)
    capsys.readouterr()
    code = main([command, "--corpus", str(manifest), "--set", "batch_size=2",
                 "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert_one_line_error(capsys, "corpus widths must be >= 1, got token=0 text=0")
    assert not (tmp_path / "r").exists()


def test_unknown_video_id_exits_1(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    ckpt = sorted((train_dir / "checkpoints").iterdir())[-1]
    code = main(["heatmap", "--corpus", str(manifest), "--checkpoint", str(ckpt),
                 "--video-id", "v99", "--out-dir", str(out / "h")])
    assert code == 1
    assert "v99" in capsys.readouterr().err


def assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err, err


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda rec: rec.pop("rows"), "lacks key 'rows'"),
        (lambda rec: rec.update(rows="ten"), "'rows' must be a non-negative integer"),
        (lambda rec: rec.update(cols=-4), "'cols' must be a non-negative integer"),
    ],
    ids=["missing_key", "string_count", "negative_count"],
)
def test_bad_manifest_record_exits_1_naming_record_and_key(tmp_path, capsys, mutation, needle):
    _, out, manifest = synth_small(tmp_path)
    lines = manifest.read_text().splitlines()
    rec = json.loads(lines[0])
    mutation(rec)
    lines[0] = json.dumps(rec)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["eval", "--corpus", str(manifest), "--checkpoint", str(tmp_path / "unused.bin"),
                 "--out-dir", str(out / "e")])
    assert code == 1
    assert_one_line_error(capsys, "manifest.jsonl:1", "'v0'", needle)
    assert not (out / "e").exists()


def test_corrupt_checkpoint_header_exits_1(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    data = bytearray(sorted((train_dir / "checkpoints").iterdir())[-1].read_bytes())
    data[20] = 0xFF
    bad = tmp_path / "corrupt.bin"
    bad.write_bytes(bytes(data))
    capsys.readouterr()
    code = main(["eval", "--corpus", str(manifest), "--checkpoint", str(bad),
                 "--out-dir", str(out / "e")])
    assert code == 1
    assert_one_line_error(capsys, "corrupt.bin", "corrupt header")


def test_checkpoint_with_unknown_config_key_exits_1(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    data = sorted((train_dir / "checkpoints").iterdir())[-1].read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + header_len])
    header["config"]["bogus_knob"] = 1
    header_bytes = json.dumps(header).encode("utf-8")
    bad = tmp_path / "unknown_key.bin"
    bad.write_bytes(data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
                    + data[16 + header_len :])
    capsys.readouterr()
    code = main(["eval", "--corpus", str(manifest), "--checkpoint", str(bad),
                 "--out-dir", str(out / "e")])
    assert code == 1
    assert_one_line_error(capsys, "unknown_key.bin", "bogus_knob")


@pytest.mark.parametrize(
    "value, code, prefix, needle",
    [(float("nan"), 1, "error: ", "bad_head.bin has non-finite values of 'vproj_w'"),
     (1e308, 2, "numeric error: ", "non-finite video embeddings")],
    ids=["nan_parameter", "overflowing_parameter"],
)
def test_eval_of_non_finite_head_exits_with_one_line(tmp_path, capsys, value, code, prefix,
                                                     needle):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    state = load_checkpoint(sorted((train_dir / "checkpoints").iterdir())[-1])
    state.params.vproj_w.value[:] = value
    bad = tmp_path / "bad_head.bin"
    save_checkpoint(state, bad)
    capsys.readouterr()
    code_seen = main(["eval", "--corpus", str(manifest), "--checkpoint", str(bad),
                      "--out-dir", str(out / "e")])
    err = capsys.readouterr().err
    assert code_seen == code
    assert err.startswith(prefix) and err.count("\n") == 1 and needle in err, err


@pytest.mark.parametrize(
    "command, corpus_change, needle",
    [("eval", "token_dim = 12", "(8, 6, 12) does not conform with head token_dim 10"),
     ("eval", "text_dim = 9", "(16, 9) does not conform with head text_dim 8"),
     ("diagnose", "text_dim = 9", "(16, 9) does not conform with head text_dim 8"),
     ("heatmap", "token_dim = 12", "(1, 6, 12) does not conform with head token_dim 10")],
    ids=["eval_token_dim", "eval_text_dim", "diagnose_text_dim", "heatmap_token_dim"],
)
def test_checkpoint_dims_unlike_the_corpus_exit_1(tmp_path, capsys, command, corpus_change,
                                                  needle):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    ckpt = sorted((train_dir / "checkpoints").iterdir())[-1]
    other_cfg = write_config(tmp_path, SMALL_CORPUS + [corpus_change], name="other.cfg")
    assert main(["synth", "--config", str(other_cfg), "--out-dir", str(out / "other")]) == 0
    (other,) = (out / "other").glob("*/corpus/manifest.jsonl")
    args = [command, "--corpus", str(other), "--checkpoint", str(ckpt),
            "--out-dir", str(out / "cmd")]
    if command == "heatmap":
        args += ["--video-id", "v3"]
    capsys.readouterr()
    assert main(args) == 1
    assert_one_line_error(capsys, needle)
    assert not (out / "cmd").exists()


def test_diagnose_of_overflowing_head_exits_2(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    state = load_checkpoint(sorted((train_dir / "checkpoints").iterdir())[-1])
    state.params.tproj_w.value[:] = 1e308
    bad = tmp_path / "overflowing.bin"
    save_checkpoint(state, bad)
    capsys.readouterr()
    code = main(["diagnose", "--corpus", str(manifest), "--checkpoint", str(bad),
                 "--out-dir", str(out / "d")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "numeric error: the head gives non-finite text embeddings; nothing to rank\n"
    assert not (out / "d").exists()


@pytest.mark.filterwarnings("error")  # the overflow gives no warning to turn into an error
def test_eval_of_head_whose_norms_overflow_exits_2(tmp_path, capsys):
    # the projections stay finite, but their squared norms overflow, so the
    # rows would normalize to zeros and every caption would rank first
    _, out, manifest = synth_small(tmp_path)
    state = _trained_checkpoint_state(tmp_path, out, manifest)
    state.params.tproj_w.value *= 1e160
    bad = tmp_path / "overflowing.bin"
    save_checkpoint(state, bad)
    capsys.readouterr()
    code = main(["eval", "--corpus", str(manifest), "--checkpoint", str(bad),
                 "--out-dir", str(out / "e")])
    assert code == 2
    assert capsys.readouterr().err == (
        "numeric error: the head gives non-finite text embeddings; nothing to rank\n"
    )
    assert not (out / "e").exists()


def assert_heatmap_refused(tmp_path, capsys, setting, head):
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--set", setting,
                 "--corpus", str(manifest), "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    ckpt = sorted((train_dir / "checkpoints").iterdir())[-1]
    capsys.readouterr()
    code = main(["heatmap", "--corpus", str(manifest), "--checkpoint", str(ckpt),
                 "--video-id", "v3", "--out-dir", str(out / "heat")])
    assert code == 1
    assert_one_line_error(capsys, f"has a {head}, which learns no masks to export")
    assert not (out / "heat").exists()


def test_heatmap_refuses_part_checkpoint(tmp_path, capsys):
    assert_heatmap_refused(tmp_path, capsys, "variant=part", "part head")


def test_heatmap_refuses_baseline_checkpoint(tmp_path, capsys):
    # a baseline head has no learned prototypes, so its masks are empty
    assert_heatmap_refused(tmp_path, capsys, "variant=baseline", "baseline head")


def test_heatmap_refuses_mask_checkpoint_with_no_prototypes(tmp_path, capsys):
    # a baseline head in all but name: its masks are empty too
    assert_heatmap_refused(tmp_path, capsys, "n_prototypes=0", "head with no prototypes")


def _trained_checkpoint_state(tmp_path, out, manifest):
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    return load_checkpoint(sorted((train_dir / "checkpoints").iterdir())[-1])


@pytest.mark.filterwarnings("error")  # the unused projection's overflow stays silent
def test_heatmap_ignores_overflowing_projection(tmp_path):
    _, out, manifest = synth_small(tmp_path)
    state = _trained_checkpoint_state(tmp_path, out, manifest)
    exported = []
    for name, vproj in (("finite", state.params.vproj_w.value.copy()), ("overflowing", 1e308)):
        state.params.vproj_w.value[:] = vproj
        ckpt = tmp_path / f"{name}.bin"
        save_checkpoint(state, ckpt)
        assert main(["heatmap", "--corpus", str(manifest), "--checkpoint", str(ckpt),
                     "--video-id", "v3", "--out-dir", str(out / name)]) == 0
        (heat_dir,) = (out / name).iterdir()
        exported.append([(heat_dir / f).read_bytes()
                         for f in ("heatmap_v3.csv", "heatmap_v3_normalized.csv")])
    assert exported[0] == exported[1]


def test_heatmap_of_overflowing_masks_exits_2(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    state = _trained_checkpoint_state(tmp_path, out, manifest)
    (video,) = [v for v in load_corpus(manifest).videos if v.video_id == "v3"]
    # the last token's activation is 1e308 times its L1 norm in every column: +inf
    state.params.mask_w.value[:] = 1e308 * np.sign(video.tokens[-1])[:, None]
    bad = tmp_path / "overflowing.bin"
    save_checkpoint(state, bad)
    capsys.readouterr()
    code = main(["heatmap", "--corpus", str(manifest), "--checkpoint", str(bad),
                 "--video-id", "v3", "--out-dir", str(out / "heat")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "numeric error: the head gives non-finite masks for video 'v3'\n"
    assert not (out / "heat").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_blowup_exits_2(tmp_path, capsys):
    _, out, manifest = synth_small(tmp_path)
    cfg = write_config(
        tmp_path,
        SMALL_CORPUS + SMALL_TRAIN[:-1] + ["peak_lr = 1e280"],  # detonates the update
        name="blowup.cfg",
    )
    code = main(["train", "--config", str(cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "boom")])
    assert code == 2
    err = capsys.readouterr().err
    assert "step" in err


def test_bad_flag_exits_1(capsys):
    assert main(["train", "--no-such-flag"]) == 1


# ---------------------------------------------------------------------------
# seeded fuzz of the files eval reads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A small corpus and the checkpoint a short run writes for it."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    _, out, manifest = synth_small(tmp_path)
    train_cfg = write_config(tmp_path, SMALL_CORPUS + SMALL_TRAIN, name="train.cfg")
    assert main(["train", "--config", str(train_cfg), "--corpus", str(manifest),
                 "--out-dir", str(out / "train")]) == 0
    (train_dir,) = (out / "train").iterdir()
    checkpoint = sorted((train_dir / "checkpoints").iterdir())[-1]
    return manifest, checkpoint


def flip(data: bytes, byte: int, bit: int) -> bytes:
    mutated = bytearray(data)
    mutated[byte] ^= 1 << bit
    return bytes(mutated)


def split_checkpoint(data: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16 : 16 + header_len]), data[16 + header_len :]


def join_checkpoint(data: bytes, header: dict, blobs: bytes) -> bytes:
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return data[:8] + struct.pack("<Q", len(encoded)) + encoded + blobs


def key_paths(tree, prefix=()):
    """The path of every key of every object nested in a JSON value."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))


def without_key(tree: dict, path: tuple) -> dict:
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return tree


def checkpoint_mutations(data: bytes, rng: np.random.Generator):
    """(name, mutated bytes, whether it may still load) for a checkpoint."""
    header, blobs = split_checkpoint(data)
    header_end = len(data) - len(blobs)
    for cut in rng.choice(len(data), 24, replace=False):
        yield f"truncated to {cut} bytes", data[:cut], False
    for byte in range(16):  # magic, version, header length: every bit
        for bit in range(8):
            yield f"prefix byte {byte} bit {bit} flipped", flip(data, byte, bit), False
    for byte in rng.choice(np.arange(16, header_end), 120, replace=False):
        bit = int(rng.integers(8))
        mutated = flip(data, byte, bit)
        # a digit that becomes another digit, or a space ending the number,
        # leaves a well-formed header: only a checksum could tell
        number = chr(data[byte]).isdigit() and chr(mutated[byte]) in "0123456789 "
        yield f"header byte {byte} bit {bit} flipped", mutated, number
    for path in key_paths(header):
        yield f"header key {'/'.join(path)} deleted", \
            join_checkpoint(data, without_key(header, path), blobs), False
    for byte in rng.choice(np.arange(header_end, len(data)), 60, replace=False):
        bit = int(rng.integers(8))
        yield f"blob byte {byte} bit {bit} flipped", flip(data, byte, bit), True


# keys a manifest record must carry; a text's event_label is optional
REQUIRED_RECORD_KEYS = {"video": ("kind", "id", "blob", "rows", "cols"),
                        "text": ("kind", "id", "video_id", "features")}


def manifest_mutations(text: str, rng: np.random.Generator):
    """(name, mutated text) for a manifest; none of them may load."""
    # a cut at either end of a line can leave a smaller corpus that is whole
    inside_lines = [cut for cut in range(len(text))
                    if text[cut] != "\n" and (cut == 0 or text[cut - 1] != "\n")]
    for cut in rng.choice(inside_lines, 24, replace=False):
        yield f"truncated to {cut} characters", text[:cut]
    lines = text.splitlines()
    for lineno, line in enumerate(lines):
        record = json.loads(line)
        for key in REQUIRED_RECORD_KEYS[record["kind"]]:
            edited = json.dumps(without_key(record, (key,)))
            yield f"line {lineno + 1} key {key} deleted", \
                "\n".join(lines[:lineno] + [edited] + lines[lineno + 1 :]) + "\n"


def run_eval(capsys, manifest, checkpoint, out_dir):
    capsys.readouterr()
    code = main(["eval", "--corpus", str(manifest), "--checkpoint", str(checkpoint),
                 "--out-dir", str(out_dir)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_checkpoints_exit_1_in_one_line_or_load(eval_inputs, tmp_path, capsys, seed):
    manifest, checkpoint = eval_inputs
    data = checkpoint.read_bytes()
    bad = tmp_path / "mutated.bin"
    loaded = 0
    for name, mutated, may_load in checkpoint_mutations(data, np.random.default_rng(seed)):
        bad.write_bytes(mutated)
        code, err = run_eval(capsys, manifest, bad, tmp_path / "out")
        # a checkpoint that loads may still hold a head whose embeddings
        # overflow, which is a numeric error
        allowed = {0: "", 1: "error: ", 2: "numeric error: "} if may_load else {1: "error: "}
        assert code in allowed, (name, code, err)
        if code:
            assert err.startswith(allowed[code]) and err.count("\n") == 1, (name, err)
        loaded += code == 0
    assert loaded > 0  # some blob flips only move a float


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_manifests_exit_1_in_one_line(eval_inputs, tmp_path, capsys, seed):
    manifest, checkpoint = eval_inputs
    bad = manifest.with_name("mutated.jsonl")  # beside the blobs it names
    try:
        for name, mutated in manifest_mutations(manifest.read_text(), np.random.default_rng(seed)):
            bad.write_text(mutated)
            code, err = run_eval(capsys, bad, checkpoint, tmp_path / "out")
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (name, err)
    finally:
        bad.unlink(missing_ok=True)
