"""The package's value types are slotted frozen dataclasses with value semantics.

Slots drop the per-instance ``__dict__``; everything a caller does with a value
(``dataclasses.replace``, ``==``, hashing, pickling, deep copies) must work as
it does on a frozen dataclass without slots.
"""

import copy
import dataclasses
import importlib
import pickle
from pathlib import Path

import pytest

from llmprosody.config import BackendConfig
from llmprosody.evaluation import (
    MosSummary,
    PreferenceRecord,
    PreferenceShare,
    PreferenceSummary,
    RatingRecord,
    TTestResult,
)
from llmprosody.features import parse_features, parse_speaker_stats, tokenize_words
from llmprosody.llm import HttpBackend, MockBackend, suggest_with_repair
from llmprosody.mapping import build_plan, compute_pitch_bounds
from llmprosody.prompting import Mode, PromptSpec
from llmprosody.response import parse_response

DATA_DIR = Path(__file__).parent / "data"

MODULES = ("config", "evaluation", "features", "llm", "mapping", "prompting", "response")

# cli reads the first three's field defaults from the class; Exemplar's
# cached_property needs an instance __dict__
UNSLOTTED = {"BackendConfig", "RepairPolicy", "MappingConfig", "Exemplar"}


def _utterance():
    return parse_features((DATA_DIR / "norm_utterance.tsv").read_text(encoding="utf-8"))[0]


def _samples() -> dict[str, object]:
    """One real instance of every slotted value type, keyed by class name."""
    utterance = _utterance()
    stats = parse_speaker_stats((DATA_DIR / "stats.tsv").read_text(encoding="utf-8"))
    spec = PromptSpec(mode=Mode.NEUTRAL, target_text=utterance.text)
    suggestion, attempts = suggest_with_repair(spec, MockBackend(seed=7))
    plan = build_plan(suggestion, utterance, stats)
    broken = parse_response("REASONING: none\nGLOBAL: nonsense\n", utterance.words)
    share = PreferenceShare(system="A", wins=3, fraction=0.75, percent=75.0)
    return {
        "RatingRecord": RatingRecord("s1", "A", "r1", 4),
        "PreferenceRecord": PreferenceRecord("set1", "r1", "A", ("A", "B", "C")),
        "MosSummary": MosSummary(mean=3.5, ci_halfwidth=0.2, n=10, display="3.5±0.2", confidence=0.95),
        "TTestResult": TTestResult(t=1.5, p=0.2, df=9),
        "PreferenceShare": share,
        "PreferenceSummary": PreferenceSummary(shares=(share,), total=4),
        "Word": utterance.words[0],
        "PhoneFeature": utterance.phones[1],
        "UtteranceFeatures": utterance,
        "SpeakerStats": stats,
        "HttpBackend": HttpBackend(BackendConfig()),
        "MockBackend": MockBackend(seed=7),
        "Attempt": attempts[0],
        "WordSuggestion": suggestion.words[0],
        "LlmScaleSuggestion": suggestion,
        "PitchBounds": compute_pitch_bounds(utterance, stats),
        "WordCoefficients": plan.words[0],
        "ModificationPlan": plan,
        "PromptSpec": spec,
        "ParseDiagnostic": broken.diagnostics[0],
        "ParseResult": broken,
    }


SAMPLES = _samples()


def test_every_package_dataclass_but_four_is_slotted():
    slotted, unslotted = set(), set()
    for name in MODULES:
        module = importlib.import_module(f"llmprosody.{name}")
        for value in vars(module).values():
            if dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
                (slotted if "__slots__" in value.__dict__ else unslotted).add(value.__name__)
    assert unslotted == UNSLOTTED
    assert slotted == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestSlottedValue:
    def test_no_instance_dict(self, name):
        assert not hasattr(SAMPLES[name], "__dict__")

    def test_assignment_refused(self, name):
        value = SAMPLES[name]
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        # a name that is no field cannot be added either; the frozen __setattr__
        # of a slotted class raises TypeError for it (FrozenInstanceError unslotted)
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.not_a_field = 1
        assert not hasattr(value, "not_a_field")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, first)

    def test_replace_equality_and_hash(self, name):
        value = SAMPLES[name]
        again = dataclasses.replace(value)
        assert again is not value
        assert again == value and hash(again) == hash(value)
        rebuilt = type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))
        assert rebuilt == value and hash(rebuilt) == hash(value)

    def test_pickle_and_deepcopy_round_trip(self, name):
        value = SAMPLES[name]
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and hash(copied) == hash(value)


def test_clamp_notes_stay_out_of_equality_and_hash():
    plan = SAMPLES["ModificationPlan"]
    noted = dataclasses.replace(plan, clamp_notes=("word 0 pitch 7.0 clamped to 5.0",))
    assert noted == plan and hash(noted) == hash(plan)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_parsed_utterance_survives_pickle_and_deepcopy(protocol):
    utterance = _utterance()
    for copied in (pickle.loads(pickle.dumps(utterance, protocol)), copy.deepcopy(utterance)):
        assert copied == utterance and hash(copied) == hash(utterance)
        assert copied.words == tokenize_words(copied.text)
        assert [dataclasses.astuple(ph) for ph in copied.phones] == [
            dataclasses.astuple(ph) for ph in utterance.phones
        ]
