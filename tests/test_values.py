"""The package's value types are ``collections.namedtuple`` subclasses with value semantics.

A value is a tuple of its fields: it equals the plain tuple of them, and
``_replace``, ``_fields``, ``==``, hashing, pickling and deep copies work as on
any namedtuple.  Assigning or deleting any attribute raises ``AttributeError``.
The classes that check their fields check them however a value is made.
"""

import copy
import importlib
import pickle
from pathlib import Path

import pytest

from llmprosody.config import BackendConfig, RepairPolicy
from llmprosody.errors import DataError
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
from llmprosody.mapping import MappingConfig, build_plan, compute_pitch_bounds
from llmprosody.prompting import Mode, PromptSpec, default_exemplars
from llmprosody.response import parse_response

DATA_DIR = Path(__file__).parent / "data"

MODULES = ("config", "evaluation", "features", "llm", "mapping", "prompting", "response")

# distinct valid fields, none a default, for each class that checks its fields (other classes take object())
CHECKED_FIELDS = {
    "BackendConfig": ("http://localhost:1/v1", "m", "KEY", 0.5, 10.0, 2, 4),
    "RepairPolicy": (5,),
    "MappingConfig": (0.25,),
    "SpeakerStats": (0.1, 0.2, 0.3, 0.4, 100.0, 300.0),
    "PitchBounds": (-1.0, 2.0),
    "RatingRecord": ("s1", "A", "r1", 4),
    "PreferenceRecord": ("set1", "r1", "A", ("A", "B", "C")),
}

# one field change each check refuses
BAD_FIELDS = {
    "BackendConfig": {"max_retries": -1},
    "RepairPolicy": {"max_attempts": 0},
    "MappingConfig": {"local_pitch_cap_fraction": 2.0},
    "SpeakerStats": {"sigma_logf0": 0.0},
    "PitchBounds": {"p_min_hz": 1.0},
    "RatingRecord": {"score": 6},
    "PreferenceRecord": {"chosen_system": "Z"},
}


def _utterance():
    return parse_features((DATA_DIR / "norm_utterance.tsv").read_text(encoding="utf-8"))[0]


def _samples() -> dict[str, object]:
    """One real instance of every value type, keyed by class name."""
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
        "BackendConfig": BackendConfig(),
        "RepairPolicy": RepairPolicy(),
        "HttpBackend": HttpBackend(BackendConfig()),
        "MockBackend": MockBackend(seed=7),
        "Attempt": attempts[0],
        "WordSuggestion": suggestion.words[0],
        "LlmScaleSuggestion": suggestion,
        "PitchBounds": compute_pitch_bounds(utterance, stats),
        "MappingConfig": MappingConfig(),
        "WordCoefficients": plan.words[0],
        "ModificationPlan": plan,
        "Exemplar": default_exemplars()[0],
        "PromptSpec": spec,
        "ParseDiagnostic": broken.diagnostics[0],
        "ParseResult": broken,
    }


SAMPLES = _samples()

OWN_METHODS = {"__eq__", "__ne__", "__hash__", "__setattr__", "__delattr__"}


def test_every_package_value_type_is_a_slotted_namedtuple():
    value_types = set()
    for name in MODULES:
        module = importlib.import_module(f"llmprosody.{name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and issubclass(value, tuple):
                assert hasattr(value, "_fields") and value.__dict__["__slots__"] == (), value
                # equality, hash and immutability are the namedtuple's own
                assert not OWN_METHODS & set(value.__dict__), value
                value_types.add(value.__name__)
    assert value_types == set(SAMPLES)
    assert len(SAMPLES) == 25


ALL = pytest.mark.parametrize("name", sorted(SAMPLES))


class TestSlottedValue:
    """Every value type."""

    @ALL
    def test_no_instance_dict(self, name):
        assert not hasattr(SAMPLES[name], "__dict__")

    @ALL
    def test_assignment_refused(self, name):
        value = SAMPLES[name]
        first = value._fields[0]
        before = tuple(value)
        with pytest.raises(AttributeError):
            setattr(value, first, getattr(value, first))
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert not hasattr(value, "not_a_field")
        with pytest.raises(AttributeError):
            delattr(value, first)
        assert tuple(value) == before

    @ALL
    def test_each_field_reads_back_at_its_name_and_index(self, name):
        cls = type(SAMPLES[name])
        fields = CHECKED_FIELDS.get(name) or tuple(object() for _ in cls._fields)
        value = cls(**dict(zip(cls._fields, fields)))
        for index, field in enumerate(cls._fields):
            assert getattr(value, field) is fields[index]
            assert value[index] is fields[index]

    @ALL
    def test_replace_equality_and_hash(self, name):
        value = SAMPLES[name]
        again = value._replace()
        assert again is not value and type(again) is type(value)
        assert again == value and hash(again) == hash(value)
        rebuilt = type(value)(*value)
        assert rebuilt == value and hash(rebuilt) == hash(value)
        assert value == tuple(value) == value._make(tuple(value))

    @ALL
    def test_pickle_and_deepcopy_round_trip(self, name):
        value = SAMPLES[name]
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)


@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
def test_every_way_of_making_a_value_runs_its_checks(name):
    value = SAMPLES[name]
    cls, bad = type(value), BAD_FIELDS[name]
    fields = {**value._asdict(), **bad}
    with pytest.raises(DataError):
        cls(**fields)
    with pytest.raises(DataError):
        cls(*fields.values())
    with pytest.raises(DataError):
        value._replace(**bad)
    with pytest.raises(DataError):
        cls._make(fields.values())
    # a value that skipped its checks does not survive a copy
    unchecked = tuple.__new__(cls, fields.values())
    with pytest.raises(DataError):
        pickle.loads(pickle.dumps(unchecked))
    with pytest.raises(DataError):
        copy.deepcopy(unchecked)


def test_clamp_notes_is_a_class_constant_not_a_field():
    plan = SAMPLES["ModificationPlan"]
    assert type(plan)._fields == ("g_dur", "g_pitch_hz", "g_energy", "words", "bounds")
    assert plan.clamp_notes == type(plan).clamp_notes == ()
    with pytest.raises(TypeError):
        type(plan)(*plan, clamp_notes=())
    assert plan._replace(g_dur=plan.g_dur + 0.5) != plan


def test_prompt_spec_exemplars_default_when_left_out_or_none():
    spec = SAMPLES["PromptSpec"]
    assert spec.exemplars == default_exemplars()
    assert PromptSpec(Mode.NEUTRAL, "hi", None, None).exemplars == default_exemplars()


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_parsed_utterance_survives_pickle_and_deepcopy(protocol):
    utterance = _utterance()
    for copied in (pickle.loads(pickle.dumps(utterance, protocol)), copy.deepcopy(utterance)):
        assert copied == utterance and hash(copied) == hash(utterance)
        assert copied.words == tokenize_words(copied.text)
        assert [tuple(ph) for ph in copied.phones] == [tuple(ph) for ph in utterance.phones]
