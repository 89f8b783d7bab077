"""Train the multi-prototype head against the single-vector baseline.

The synthetic corpus packs several latent events into every video while
each caption describes only one of them, so a single video embedding has
to average the events away. Multiple prototypes let different captions
match different parts of the same video; this script measures how much
that is worth on retrieval metrics under identical training budgets.
"""

import time

from protomatch.dataset import SynthConfig, synth_corpus
from protomatch.diagnostics import matching_purity
from protomatch.metrics import evaluate
from protomatch.trainer import TrainConfig, train

# ---------------------------------------------------------------------------
# Corpus: 64 videos x 3 captions, 3 latent events per video.
# ---------------------------------------------------------------------------

corpus = synth_corpus(SynthConfig(seed=0))
print(f"corpus: {corpus.num_videos} videos, {corpus.num_texts} captions")

# ---------------------------------------------------------------------------
# Two runs differing only in the head: 3 learned prototypes vs none.
# ---------------------------------------------------------------------------

reports = {}
for variant in ("mask", "baseline"):
    cfg = TrainConfig(
        n_prototypes=3,
        embed_dim=32,
        batch_size=16,
        epochs=80,
        warmup_epochs=5,
        peak_lr=5e-3,
        seed=0,
        variant=variant,
    )
    start = time.perf_counter()
    params, history = train(corpus, cfg)
    elapsed = time.perf_counter() - start
    report = evaluate(corpus, params, variant=cfg.head_variant)
    reports[variant] = report
    print()
    print(f"--- {variant} head ({cfg.effective_prototypes} learned prototypes, "
          f"{elapsed:.1f}s, final loss {history[-1].total:.3f}) ---")
    print(report.to_text_table())
    if variant == "mask":
        purity = matching_purity(corpus, params)
        print(f"caption-to-prototype purity vs latent events: {purity:.3f}")

# ---------------------------------------------------------------------------
# Headline comparison.
# ---------------------------------------------------------------------------

mask_r1 = reports["mask"].directions["text_to_video"].r_at[1]
base_r1 = reports["baseline"].directions["text_to_video"].r_at[1]
print()
print(f"text-to-video R@1: {mask_r1:.1f} with prototypes vs {base_r1:.1f} without "
      f"(margin {mask_r1 - base_r1:+.1f} points)")
