"""LLM-suggested prosody adjustments for controllable speech synthesis.

The pipeline: compute speaker statistics from raw phone-level features,
prompt a completion backend for per-utterance and per-word adjustment values,
map those onto clamped modification coefficients, and apply them to
normalized feature files.
"""

from .errors import BackendError, DataError, LlmOutputError, LlmProsodyError
from .features import (
    PhoneFeature,
    SpeakerStats,
    UtteranceFeatures,
    Word,
    compute_speaker_stats,
    denorm_energy,
    denorm_f0,
    make_utterance,
    parse_features,
    parse_speaker_stats,
    renorm_energy,
    renorm_f0,
    serialize_features,
    serialize_speaker_stats,
    tokenize_words,
)
from .llm import (
    Attempt,
    BackendConfig,
    HttpBackend,
    MockBackend,
    RepairPolicy,
    complete,
    mock_complete,
    suggest_batch,
    suggest_with_repair,
)
from .mapping import (
    LlmScaleSuggestion,
    MappingConfig,
    ModificationPlan,
    PitchBounds,
    WordCoefficients,
    WordSuggestion,
    build_plan,
    compute_pitch_bounds,
    map_global_scale,
    map_local_scale,
    map_pitch,
    parse_plan,
    serialize_plan,
)
from .modifier import apply_plan
from .prompting import Exemplar, Mode, PromptSpec, build_prompt, default_exemplars
from .response import (
    DiagnosticKind,
    ParseDiagnostic,
    ParseResult,
    parse_response,
    serialize_suggestion,
)

__version__ = "0.1.0"
