"""cogcn: cosine-similarity graph convolutional networks for utterance
classification, built on plain numpy with hand-derived gradients.

Pipeline: frame-level feature matrices -> cosine-similarity (or temporal)
graphs -> degree-normalized message passing with skip connections -> mean
readout -> softmax head, trained with Adam and evaluated speaker-held-out.
"""

__version__ = "0.1.0"

from .features import (
    DataError,
    Dataset,
    StandardizeStats,
    SynthSpec,
    Utterance,
    apply_standardizer,
    fit_standardizer,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from .graph import (
    Graph,
    build_cosine_graph,
    build_temporal_graph,
    cosine_similarity_matrix,
    export_dot,
    export_graph_json,
    graph_to_json_dict,
    norm_coefficients,
)
from .model import (
    Checkpoint,
    ForwardCache,
    ModelConfig,
    ModelParams,
    forward_arrays,
    init_params,
    load_checkpoint,
    param_count,
    param_layout,
    sample_dropout_mask,
    save_checkpoint,
    softmax,
)
from .training import (
    AdamState,
    CVResult,
    EpochStats,
    FoldResult,
    Metrics,
    PreparedGraph,
    TrainConfig,
    adam_step,
    backward,
    best_epoch,
    cross_entropy_from_logits,
    evaluate,
    init_adam_state,
    loso_cv,
    metrics_from_confusion,
    prepare_graphs,
    run_fold,
    train,
    write_history_csv,
    write_metrics_json,
)
from .gradcheck import (
    GradcheckInstance,
    GradcheckReport,
    finite_difference_grads,
    max_relative_error,
    run_gradcheck,
)
