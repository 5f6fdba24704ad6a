import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import llmprosody

SRC_DIR = str(Path(__file__).parents[1] / "src")

# The names the package exported when its __init__ imported every module eagerly.
EXPORTS = {
    "config": ["BackendConfig", "RepairPolicy"],
    "errors": ["BackendError", "DataError", "LlmOutputError", "LlmProsodyError"],
    "features": [
        "PhoneFeature", "SpeakerStats", "UtteranceFeatures", "Word", "compute_speaker_stats",
        "denorm_energy", "denorm_f0", "make_utterance", "parse_features", "parse_speaker_stats",
        "renorm_energy", "renorm_f0", "serialize_features", "serialize_speaker_stats",
        "tokenize_words",
    ],
    "llm": [
        "Attempt", "HttpBackend", "MockBackend", "complete", "mock_complete", "plan_utterance",
        "suggest_batch", "suggest_with_repair",
    ],
    "mapping": [
        "LlmScaleSuggestion", "MappingConfig", "ModificationPlan", "PitchBounds",
        "WordCoefficients", "WordSuggestion", "build_plan", "compute_pitch_bounds",
        "map_global_scale", "map_local_scale", "map_pitch", "parse_plan", "serialize_plan",
    ],
    "modifier": ["apply_plan"],
    "prompting": ["Exemplar", "Mode", "PromptSpec", "build_prompt", "default_exemplars"],
    "response": [
        "DiagnosticKind", "ParseDiagnostic", "ParseResult", "parse_response",
        "serialize_suggestion",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestLazyPackage:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_home_module_object(self, module, name):
        home = importlib.import_module(f"llmprosody.{module}")
        assert getattr(llmprosody, name) is getattr(home, name)

    def test_all_lists_the_exported_names(self):
        assert sorted(llmprosody.__all__) == sorted(name for _, name in NAMES)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            llmprosody.no_such_name

    def test_patched_function_is_what_the_package_returns(self, monkeypatch):
        from llmprosody import mapping

        def replacement(*args):
            return None

        assert llmprosody.build_plan is mapping.build_plan
        monkeypatch.setattr(mapping, "build_plan", replacement)
        assert llmprosody.build_plan is replacement

    def test_import_loads_no_submodule_until_one_is_named(self):
        code = (
            "import sys, llmprosody\n"
            "print(sorted(m for m in sys.modules if m.startswith('llmprosody')))\n"
            "print(llmprosody.modifier.denorm_f0.__module__, llmprosody.llm.__name__)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC_DIR}, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "['llmprosody']\nllmprosody.features llmprosody.llm\n"


class TestErrorClasses:
    def test_only_the_categories_and_the_attempts_carriers(self):
        # a failure raises its category with a message naming the check; a subclass
        # exists only to carry data, here the attempts of a retried call or repair loop
        from llmprosody.errors import LlmProsodyError

        modules = [info.name for info in pkgutil.iter_modules(llmprosody.__path__) if info.name != "__main__"]
        defined = {
            f"{module}.{name}"
            for module in modules
            for name, value in vars(importlib.import_module(f"llmprosody.{module}")).items()
            if isinstance(value, type) and issubclass(value, LlmProsodyError)
            and value.__module__ == f"llmprosody.{module}"
        }
        assert defined == {
            "errors.LlmProsodyError", "errors.DataError", "errors.LlmOutputError", "errors.BackendError",
            "llm.RateLimited", "llm.NetworkError", "llm.RepairExhausted",
        }
