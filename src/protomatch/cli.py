"""Command-line entry point tying corpus, training, eval, and diagnostics together.

Commands: synth, train, eval, gradcheck, diagnose, heatmap.  Every command
takes the same flat configuration (defaults < config file < --set overrides
< --seed) and writes its artifacts under a run directory named by the hash
of the effective configuration plus the seed, so identical invocations land
in identical places with byte-identical outputs.

Exit codes: 0 success, 1 validation or configuration error, 2 numeric
failure (non-finite loss, gradient check above tolerance), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from .dataset import SynthConfig, VideoRecord, load_corpus, save_corpus, synth_corpus
from .diagnostics import export_mask_heatmaps, intra_inter_stats, write_ambiguity_csvs
from .errors import ConfigError, NumericError, ValidationError
from .losses import LossConfig, contrastive_loss, contrastive_vjp, variance_loss, variance_vjp
from .matching import similarity_matrix, similarity_vjp
from .metrics import evaluate, write_report
from .numerics import (
    RngStream,
    check_seed,
    finite_diff_check,
    l2_normalize_rows,
    l2_normalize_rows_vjp,
    l2_normalize_rows_with_norms,
)
from .prototypes import has_learned_masks
from .trainer import (
    TrainConfig,
    load_checkpoint,
    objective_finite_diff,
    train,
    validate_setup,
    write_history_csv,
)

GRADCHECK_TOLERANCE = 1e-5
GRADCHECK_SEEDS = 20


# Every tunable is declared once, on the package's config dataclasses: the
# corpus, then training (less its nested loss and the seed the corpus
# already declares), then the objective.
_FIELDS = [
    *dataclasses.fields(SynthConfig),
    *(f for f in dataclasses.fields(TrainConfig) if f.name not in ("loss", "seed")),
    *dataclasses.fields(LossConfig),
]
_FIELD_TYPES = {f.name: f.type for f in _FIELDS}


def _coerce(key: str, raw):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' expects {kind}, got {raw!r}") from exc


# Defaults pass through _coerce like any configured value, so TrainConfig's
# int warmup_epochs = 5 is 5.0 here and config_lines renders it as a float.
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(f.name, f.type, dataclasses.field(default=_coerce(f.name, f.default))) for f in _FIELDS],
    frozen=True,
    namespace={
        "__doc__": "Flat key-value view of every tunable in the package.",
        "__module__": __name__,
    },
)


def _project(cfg: RunConfig, cls, **extra):
    """The config dataclass cls, filled from the same-named fields of cfg."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in extra]
    return cls(**{name: getattr(cfg, name) for name in names}, **extra)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Plain `key = value` lines; blank lines and # comments ignored."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then --set pairs, then --seed.

    A seed RngStream would refuse raises its ValidationError before any
    command reads a corpus or writes a file, whether or not it draws from
    the seed.
    """
    values: dict[str, object] = {}

    def apply(key: str, raw: str) -> None:
        if key not in _FIELD_TYPES:
            raise ConfigError(
                f"unknown config key '{key}' (known: {', '.join(sorted(_FIELD_TYPES))})"
            )
        values[key] = _coerce(key, raw)

    if args.config is not None:
        for key, raw in parse_config_file(args.config).items():
            apply(key, raw)
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        apply(key.strip(), raw.strip())
    if args.seed is not None:
        values["seed"] = args.seed
    cfg = RunConfig(**values)
    check_seed(cfg.seed)
    return cfg


def config_lines(cfg: RunConfig) -> str:
    parts = []
    for key in sorted(_FIELD_TYPES):
        value = getattr(cfg, key)
        parts.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(parts) + "\n"


def run_directory(cfg: RunConfig, out_dir: str | Path) -> Path:
    digest = hashlib.sha256(config_lines(cfg).encode("utf-8")).hexdigest()[:10]
    return Path(out_dir) / f"{digest}-seed{cfg.seed}"


def _prepare_run_dir(cfg: RunConfig, args: argparse.Namespace) -> Path:
    run_dir = run_directory(cfg, args.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.echo").write_text(config_lines(cfg))
    return run_dir


# ---------------------------------------------------------------------------
# Commands.  Each validates everything it needs before writing anything.
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    corpus = synth_corpus(_project(cfg, SynthConfig))
    run_dir = _prepare_run_dir(cfg, args)
    manifest = run_dir / "corpus" / "manifest.jsonl"
    save_corpus(corpus, manifest)
    print(f"wrote {corpus.num_videos} videos / {corpus.num_texts} texts to {manifest}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    corpus = load_corpus(args.corpus)
    train_cfg = _project(cfg, TrainConfig, loss=_project(cfg, LossConfig))
    validate_setup(corpus, train_cfg)
    run_dir = _prepare_run_dir(cfg, args)

    params, history = train(corpus, train_cfg, out_dir=run_dir)
    write_history_csv(history, run_dir / "train_log.csv")
    report = evaluate(corpus, params, variant=train_cfg.head_variant)
    write_report(report, run_dir / "report.json", run_dir / "report.txt")
    if history:
        last = history[-1]
        print(f"final step {last.step}: total {last.total:.6f} "
              f"(contrastive {last.contrastive:.6f}, variance {last.variance:.6f})")
    print(report.to_text_table())
    print(f"artifacts in {run_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    corpus = load_corpus(args.corpus)
    state = load_checkpoint(args.checkpoint)
    report = evaluate(corpus, state.params, variant=state.config.head_variant)
    run_dir = _prepare_run_dir(cfg, args)
    write_report(report, run_dir / "report.json", run_dir / "report.txt")
    print(report.to_text_table())
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    failures = 0
    for name, err in run_gradcheck_suite(cfg.seed, _project(cfg, LossConfig)):
        status = "PASS" if err < GRADCHECK_TOLERANCE else "FAIL"
        failures += status == "FAIL"
        print(f"{name}: max rel err {err:.3e} {status}")
    if failures:
        print(f"{failures} gradient check(s) at or above {GRADCHECK_TOLERANCE}")
        return 2
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    corpus = load_corpus(args.corpus)
    params = None
    if args.checkpoint is not None:
        params = load_checkpoint(args.checkpoint).params
    stats = intra_inter_stats(corpus, params=params, seed=cfg.seed)
    run_dir = _prepare_run_dir(cfg, args)
    write_ambiguity_csvs(stats, run_dir)
    print(f"mean inter-video caption similarity {stats.mean_inter:.4f}")
    print(f"fraction of videos with min intra below it {stats.fraction_below:.4f}")
    print(f"artifacts in {run_dir}")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    corpus = load_corpus(args.corpus)
    state = load_checkpoint(args.checkpoint)
    if not has_learned_masks(state.params, state.config.head_variant):
        # a baseline head, or a mask head with no prototypes, has empty masks
        variant = state.config.variant
        head = "head with no prototypes" if variant == "mask" else f"{variant} head"
        raise ValidationError(
            f"checkpoint {args.checkpoint} has a {head}, which learns no masks to export"
        )
    if args.video_id not in corpus.video_ids:
        raise ValidationError(f"video id {args.video_id!r} not present in {args.corpus}")
    video = VideoRecord(args.video_id, corpus.tokens[corpus.video_ids.index(args.video_id)])
    # the export computes the masks before it writes, so a head that does
    # not fit the corpus leaves no run directory
    path = run_directory(cfg, args.out_dir) / f"heatmap_{args.video_id}.csv"
    export_mask_heatmaps(video, state.params, path)
    _prepare_run_dir(cfg, args)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Gradient-check suite: per-kernel checks plus the full objective.
# ---------------------------------------------------------------------------


def run_gradcheck_suite(seed: int, loss_cfg: LossConfig) -> list[tuple[str, float]]:
    """(name, max relative error) for every check, full objective last."""
    results = [
        ("row_normalize", _check_row_normalize(seed)),
        ("variance_loss", _check_variance_loss(seed, loss_cfg)),
        ("contrastive_loss", _check_contrastive_loss(seed, loss_cfg)),
        ("max_matching", _check_max_matching(seed)),
    ]
    worst = 0.0
    for objective_seed in range(GRADCHECK_SEEDS):
        worst = max(worst, objective_finite_diff(objective_seed, loss_cfg=loss_cfg))
    results.append(("full_objective", worst))
    return results


def _check_row_normalize(seed: int) -> float:
    rng = RngStream(seed, stream=101)
    weights = rng.normal((5, 7))
    m = rng.normal((5, 7))

    def loss(values):
        return (l2_normalize_rows(values["m"]) * weights).sum(axis=(-2, -1))

    grad = l2_normalize_rows_vjp(m, l2_normalize_rows_with_norms(m)[1], weights)
    return finite_diff_check(loss, {"m": m}, {"m": grad})


def _check_variance_loss(seed: int, cfg: LossConfig) -> float:
    rng = RngStream(seed, stream=102)
    masks = np.abs(rng.normal((3, 6, 2)))  # in the relu image, away from hinge w.h.p.

    def loss(values):
        return variance_loss(values["masks"], cfg).value

    grad = variance_vjp(variance_loss(masks, cfg))
    return finite_diff_check(loss, {"masks": masks}, {"masks": grad})


def _check_contrastive_loss(seed: int, cfg: LossConfig) -> float:
    rng = RngStream(seed, stream=103)
    scores = rng.normal((5, 5))

    def loss(values):
        return contrastive_loss(values["scores"], cfg.temperature).value

    grad = contrastive_vjp(contrastive_loss(scores, cfg.temperature))
    return finite_diff_check(loss, {"scores": scores}, {"scores": grad})


def _check_max_matching(seed: int) -> float:
    rng = RngStream(seed, stream=104)
    weights = rng.normal((4, 3))
    text, video = rng.normal((4, 6)), rng.normal((3, 3, 6))

    def loss(values):
        scores = similarity_matrix(values["text"], values["video"], winners=False).scores
        return (scores * weights).sum(axis=(-2, -1))

    winners = similarity_matrix(text, video).winners
    grad_text, grad_video = similarity_vjp(weights, text, video, winners)
    return finite_diff_check(
        loss, {"text": text, "video": video}, {"text": grad_text, "video": grad_video}
    )


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to a config error."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="protomatch",
                     description="multi-prototype text-video retrieval workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="plain-text config file of key = value lines")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out-dir", default="runs", help="parent of run directories")
        p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "generate and save a synthetic corpus")
    p = command("train", cmd_train, "train a head on a corpus")
    p.add_argument("--corpus", required=True, help="corpus manifest path")
    p = command("eval", cmd_eval, "evaluate a checkpoint on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    command("gradcheck", cmd_gradcheck, "finite-difference check of every gradient path")
    p = command("diagnose", cmd_diagnose, "caption ambiguity statistics for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", help="use this head's text projection instead of raw features")
    p = command("heatmap", cmd_heatmap, "export mask heatmap CSVs for one video")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video-id", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:  # includes config, corpus, checkpoint errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
