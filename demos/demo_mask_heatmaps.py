"""Visualize what each learned prototype attends to, token by token.

After training, each prototype is a relu-masked weighted sum of the
video's tokens. Dumping the mask matrix of one video as a heatmap CSV
shows whether the prototypes specialized on different token groups, and
the caption-to-prototype match shows who actually uses them.
"""

from pathlib import Path

import numpy as np

from protomatch.dataset import SynthConfig, VideoRecord, synth_corpus
from protomatch.diagnostics import export_mask_heatmaps
from protomatch.matching import similarity_matrix
from protomatch.prototypes import embed_texts, embed_videos
from protomatch.trainer import TrainConfig, train

OUT_DIR = Path("demo_runs/heatmaps")
VIDEO = 0  # its three captions happen to cover all three latent events

corpus = synth_corpus(SynthConfig(seed=0))
cfg = TrainConfig(
    n_prototypes=3, embed_dim=32, batch_size=16, epochs=80,
    warmup_epochs=5, peak_lr=5e-3, seed=0,
)
params, _ = train(corpus, cfg)

# ---------------------------------------------------------------------------
# Mask heatmap of one video: rows are prototypes, columns are tokens.
# ---------------------------------------------------------------------------

video = VideoRecord(corpus.video_ids[VIDEO], corpus.tokens[VIDEO])
export_mask_heatmaps(video, params, OUT_DIR / f"heatmap_{video.video_id}.csv")
print(f"wrote heatmap_{video.video_id}.csv and heatmap_{video.video_id}_normalized.csv "
      f"under {OUT_DIR}")

normalized = np.genfromtxt(
    OUT_DIR / f"heatmap_{video.video_id}_normalized.csv", delimiter=",", skip_header=1
)[:, 1:]
print()
print(f"normalized mask profiles for {video.video_id} (token 0 is the class token):")
for k, row in enumerate(normalized):
    cells = " ".join(f"{v:.2f}" for v in row)
    note = f"peak at token {int(row.argmax())}" if row.any() else "all zero for this video"
    print(f"  prototype {k}: {cells}  ({note})")

# ---------------------------------------------------------------------------
# Which prototype serves which caption of this video.
# ---------------------------------------------------------------------------

video_embedded = embed_videos(corpus.tokens, params)
text_embedded = embed_texts(corpus.features, params)
sim = similarity_matrix(text_embedded, video_embedded)

print()
print("captions of this video and the prototype each one matched:")
for ti in corpus.texts_of(video.video_id):
    winner = int(sim.winners[ti, VIDEO])
    name = "class token" if winner == params.n_prototypes else f"prototype {winner}"
    print(f"  {corpus.text_ids[ti]} (event {corpus.event_labels[ti]}): {name} "
          f"(score {sim.scores[ti, VIDEO]:.3f})")
