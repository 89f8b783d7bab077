"""Multi-prototype text-video retrieval head with a full training workbench.

Videos arrive as precomputed token features; the head summarizes each video
into several prototype vectors via learned soft masks over the tokens, and a
text query matches a video through its most similar prototype.  Training is
symmetric contrastive with a mask-variance regularizer; every gradient is a
hand-written VJP verified by finite differences.
"""

from .dataset import (
    Batch,
    Corpus,
    SynthConfig,
    TextRecord,
    VideoRecord,
    load_corpus,
    make_batches,
    save_corpus,
    synth_corpus,
)
from .diagnostics import (
    AmbiguityStats,
    export_mask_heatmaps,
    intra_inter_stats,
    matching_purity,
    prototype_diversity,
    write_ambiguity_csvs,
)
from .errors import (
    BlobSizeError,
    CheckpointError,
    ConfigError,
    CorpusError,
    DanglingReferenceError,
    MissingBlobError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .losses import (
    ContrastiveForward,
    LossBreakdown,
    LossConfig,
    VarianceForward,
    contrastive_loss,
    contrastive_vjp,
    total_loss,
    variance_loss,
    variance_vjp,
)
from .matching import (
    SimilarityMatrix,
    prototype_scores,
    similarity_matrix,
    similarity_vjp,
)
from .metrics import (
    DirectionReport,
    RetrievalReport,
    evaluate,
    median_rank,
    recall_at_k,
    sum_recalls,
)
from .numerics import (
    AdamState,
    ParamTensor,
    RngStream,
    adam_step,
    finite_diff_check,
    l2_normalize_rows,
    lr_at,
)
from .prototypes import (
    HeadParameters,
    embed_texts,
    embed_videos,
    head_backward,
    head_forward,
    init_head,
    text_backward,
    text_forward,
)
from .trainer import (
    CheckpointState,
    StepLog,
    TrainConfig,
    batch_objective,
    load_checkpoint,
    objective_finite_diff,
    save_checkpoint,
    train,
    train_step,
)

__version__ = "0.1.0"
