"""Online spatial-temporal graph-signal reconstruction under noise.

A trainable graph-spectral filter denoises partially observed node
signals; missing nodes are filled by a pluggable text-completion
predictor fed with natural-language renderings of each node's
spatiotemporal context. Includes adaptive-filter baselines and an
evaluation harness.
"""
from .graphs import Graph, GftBasis, build_graph, gft, knn_graph, laplacian, neighbors
from .metrics import RunReport, aggregate, emit_report, rmse
from .predictors import (
    PredictionResult,
    PredictorConfig,
    TransportError,
    mock_predict,
    predict_batch,
    remote_complete,
)
from .prompts import (
    CompletionParseError,
    NodeTask,
    PromptPair,
    build_task,
    parse_completion,
    render_system_prompt,
    render_user_prompt,
)
from .runner import RunConfig, execute_run, init_estimate, replay_from_checkpoint
from .signals import (
    Observation,
    ObservationModel,
    TimeVaryingSignal,
    load_signal_csv,
    observe,
    sample_mask,
    split,
)
from .spectral import (
    BandOperator,
    FilterDivergenceError,
    SpectralFilter,
    TrainConfig,
    denoise,
    filter_operator,
    graph_convolve,
    mae,
    train_filter,
)

__version__ = "0.1.0"
