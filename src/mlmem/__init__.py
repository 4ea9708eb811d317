"""Layered conversational memory: bounded consolidation, gated retrieval, drift control."""

from .embedding import EmbedderConfig, EmbeddingServiceError, cosine, embed
from .engine import (
    EngineConfig,
    EngineRunError,
    Responder,
    StepOutput,
    TemplateResponder,
    answer,
    initial_state,
    policy_config,
    run,
    step,
)
from .harness import (
    EvalReport,
    Persona,
    Probe,
    Scenario,
    ablate,
    evaluate,
    generate_scenario,
    objective_handle,
)
from .memory import (
    EpisodicMemory,
    EntityNode,
    FactTriple,
    MemoryState,
    SemanticGraph,
    Session,
    SummaryRecord,
    Utterance,
    WorkingMemory,
    extract_facts,
    merge_semantic,
    summarize,
    update_episodic,
    update_working,
)
from .retention import (
    DriftReport,
    ObjectiveValue,
    TuneResult,
    cumulative_retention_loss,
    drift,
    grid_csv,
    objective,
    tune,
)
from .retrieval import (
    FusedState,
    GatingWeights,
    Query,
    RetrievalResult,
    RetrievedItem,
    entropy,
    fuse,
    gate,
    layer_representation,
    make_query,
    retrieve,
    softmax_weights,
)
from .snapshot import (
    config_to_dict,
    dumps_state,
    loads_config,
    loads_report,
    loads_state,
    read_sessions_jsonl,
    write_sessions_jsonl,
)

__version__ = "0.1.0"
