"""LLM-suggested prosody adjustments for controllable speech synthesis.

The pipeline: compute speaker statistics from raw phone-level features,
prompt a completion backend for per-utterance and per-word adjustment values,
map those onto clamped modification coefficients, and apply them to
normalized feature files.

``import llmprosody`` loads no module of the package.  Each name in
``__all__``, and each module defining one, is imported on first access (PEP 562)
and not stored here, so ``llmprosody.<name>`` is always its home module's object.
"""

import importlib

_HOMES = {
    "BackendConfig": "config",
    "RepairPolicy": "config",
    "BackendError": "errors",
    "DataError": "errors",
    "LlmOutputError": "errors",
    "LlmProsodyError": "errors",
    "PhoneFeature": "features",
    "SpeakerStats": "features",
    "UtteranceFeatures": "features",
    "Word": "features",
    "compute_speaker_stats": "features",
    "denorm_energy": "features",
    "denorm_f0": "features",
    "make_utterance": "features",
    "parse_features": "features",
    "parse_speaker_stats": "features",
    "renorm_energy": "features",
    "renorm_f0": "features",
    "serialize_features": "features",
    "serialize_speaker_stats": "features",
    "tokenize_words": "features",
    "Attempt": "llm",
    "HttpBackend": "llm",
    "MockBackend": "llm",
    "complete": "llm",
    "mock_complete": "llm",
    "plan_utterance": "llm",
    "suggest_batch": "llm",
    "suggest_with_repair": "llm",
    "LlmScaleSuggestion": "mapping",
    "MappingConfig": "mapping",
    "ModificationPlan": "mapping",
    "PitchBounds": "mapping",
    "WordCoefficients": "mapping",
    "WordSuggestion": "mapping",
    "build_plan": "mapping",
    "compute_pitch_bounds": "mapping",
    "map_global_scale": "mapping",
    "map_local_scale": "mapping",
    "map_pitch": "mapping",
    "parse_plan": "mapping",
    "serialize_plan": "mapping",
    "apply_plan": "modifier",
    "Exemplar": "prompting",
    "Mode": "prompting",
    "PromptSpec": "prompting",
    "build_prompt": "prompting",
    "default_exemplars": "prompting",
    "DiagnosticKind": "response",
    "ParseDiagnostic": "response",
    "ParseResult": "response",
    "parse_response": "response",
    "serialize_suggestion": "response",
}
_SUBMODULES = set(_HOMES.values())

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
