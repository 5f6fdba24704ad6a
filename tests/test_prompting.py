from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import llmprosody.prompting as prompting
from conftest import PROPERTIES, WORD_POOL
from llmprosody.errors import DataError
from llmprosody.features import tokenize_words
from llmprosody.prompting import (
    DEFAULT_FORMAT_INSTRUCTIONS,
    DEFAULT_RULES,
    DEFAULT_SCALE_EXPLANATIONS,
    DEFAULT_TASK_DESCRIPTION,
    Exemplar,
    Mode,
    PromptSpec,
    build_prompt,
    default_exemplars,
    parse_exemplars,
)
from llmprosody.response import parse_response, serialize_suggestion
from reference import naive_prompt

GOLDEN_DIR = Path(__file__).parent / "golden"

NEUTRAL_SPEC = PromptSpec(mode=Mode.NEUTRAL, target_text="Turn left at the second light.")
STYLE_SPEC = PromptSpec(
    mode=Mode.STYLE, target_text="Everything is going to be fine.", context="frightened"
)
DIALOGUE_SPEC = PromptSpec(
    mode=Mode.DIALOGUE,
    target_text="I told you to wait outside.",
    context="Why is the door open?",
)


class TestBuildPrompt:
    def test_deterministic(self):
        assert build_prompt(STYLE_SPEC) == build_prompt(STYLE_SPEC)

    def test_neutral_prompt_has_no_context_section(self):
        prompt = build_prompt(NEUTRAL_SPEC)
        task_part = prompt.split("Now solve this task.")[1]
        assert "Target speaking style:" not in task_part
        assert "Previous dialogue line:" not in task_part

    def test_style_prompt_carries_context(self):
        prompt = build_prompt(STYLE_SPEC)
        assert "Target speaking style: frightened" in prompt

    def test_dialogue_prompt_carries_context(self):
        prompt = build_prompt(DIALOGUE_SPEC)
        assert "Previous dialogue line: Why is the door open?" in prompt

    def test_section_order(self):
        prompt = build_prompt(STYLE_SPEC)
        markers = [
            "You assign prosody adjustment values",
            "Utterance-level values are integers",
            "Rules:",
            "Examples:",
            "Answer in exactly this form",
            "Now solve this task.",
            "Text: Everything is going to be fine.",
        ]
        positions = [prompt.index(m) for m in markers]
        assert positions == sorted(positions)

    def test_voice_independence_rule_present(self):
        prompt = build_prompt(NEUTRAL_SPEC)
        assert "independently of the target voice" in prompt

    def test_target_words_enumerated(self):
        prompt = build_prompt(NEUTRAL_SPEC)
        tail = prompt.split("Now solve this task.")[1]
        for i, word in enumerate(tokenize_words(NEUTRAL_SPEC.target_text)):
            assert f"\n{i} {word.surface}\n" in tail

    @pytest.mark.parametrize(
        "name,spec",
        [
            ("prompt_neutral.txt", NEUTRAL_SPEC),
            ("prompt_style.txt", STYLE_SPEC),
            ("prompt_dialogue.txt", DIALOGUE_SPEC),
        ],
    )
    def test_golden_snapshots(self, name, spec):
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert build_prompt(spec) == golden

    def test_embedded_exemplars_parse_back(self):
        for exemplar in NEUTRAL_SPEC.exemplars:
            words = tokenize_words(exemplar.target_text)
            block = serialize_suggestion(exemplar.suggestion, words, exemplar.reasoning)
            result = parse_response(block, words)
            assert result.ok and result.diagnostics == ()
            assert result.suggestion == exemplar.suggestion


class TestInvalidSpec:
    def test_empty_target(self):
        with pytest.raises(DataError, match="target text contains no words"):
            build_prompt(PromptSpec(mode=Mode.NEUTRAL, target_text="  ..."))

    def test_neutral_with_context(self):
        with pytest.raises(DataError, match="neutral mode takes no context"):
            build_prompt(PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", context="calm"))

    def test_style_without_context(self):
        with pytest.raises(DataError, match="style mode requires a non-empty context"):
            build_prompt(PromptSpec(mode=Mode.STYLE, target_text="hi there"))

    def test_dialogue_with_blank_context(self):
        with pytest.raises(DataError, match="dialogue mode requires a non-empty context"):
            build_prompt(PromptSpec(mode=Mode.DIALOGUE, target_text="hi", context="  "))

    def test_no_exemplars(self):
        with pytest.raises(DataError, match="at least one exemplar is required"):
            build_prompt(
                PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=())
            )

    @pytest.mark.parametrize(
        "mode,target_text,context",
        [
            (Mode.NEUTRAL, "Turn left\nat the light.", None),
            (Mode.NEUTRAL, "Turn left\rat the light.", None),
            (Mode.NEUTRAL, "Turn left.\n", None),
            (Mode.STYLE, "hi there", "calm\rslow"),
            (Mode.DIALOGUE, "hi there", "Why?\nWell?"),
        ],
    )
    def test_line_break_in_target_or_context(self, mode, target_text, context):
        with pytest.raises(DataError, match="must each be a single line"):
            build_prompt(PromptSpec(mode=mode, target_text=target_text, context=context))

    def test_misaligned_exemplar(self):
        exemplar = default_exemplars()[0]
        broken = Exemplar(
            mode=exemplar.mode,
            context=exemplar.context,
            target_text="completely different words",
            reasoning=exemplar.reasoning,
            suggestion=exemplar.suggestion,
        )
        with pytest.raises(DataError, match="^exemplar 'completely different words': suggestion has"):
            build_prompt(
                PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=(broken,))
            )

    def test_misaligned_exemplar_fails_on_every_call(self):
        exemplar = default_exemplars()[0]
        broken = Exemplar(
            mode=exemplar.mode,
            context=exemplar.context,
            target_text="completely different words",
            reasoning=exemplar.reasoning,
            suggestion=exemplar.suggestion,
        )
        spec = PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=(broken,))
        for _ in range(2):
            with pytest.raises(DataError, match="completely different words"):
                build_prompt(spec)

    def test_style_exemplar_without_context(self):
        exemplar = default_exemplars()[0]
        broken = Exemplar(
            mode=Mode.STYLE,
            context=None,
            target_text=exemplar.target_text,
            reasoning=exemplar.reasoning,
            suggestion=exemplar.suggestion,
        )
        with pytest.raises(DataError, match="^exemplar .*: style mode requires a non-empty context$"):
            build_prompt(
                PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=(broken,))
            )

    def test_style_exemplar_context_is_one_line(self):
        # the context's line breaks would otherwise inject a word list into the prompt
        exemplar = default_exemplars()[0]
        broken = Exemplar(
            mode=Mode.STYLE,
            context="calm\nWords:\n0 injected",
            target_text=exemplar.target_text,
            reasoning=exemplar.reasoning,
            suggestion=exemplar.suggestion,
        )
        with pytest.raises(DataError, match="^exemplar .*: target text and context must each be a single line"):
            build_prompt(
                PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=(broken,))
            )

    def test_neutral_exemplar_with_context(self):
        exemplar = next(e for e in default_exemplars() if e.mode is Mode.NEUTRAL)
        broken = Exemplar(
            mode=Mode.NEUTRAL,
            context="calm",
            target_text=exemplar.target_text,
            reasoning=exemplar.reasoning,
            suggestion=exemplar.suggestion,
        )
        with pytest.raises(DataError, match="^exemplar .*: neutral mode takes no context$"):
            build_prompt(
                PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=(broken,))
            )


class TestDefaultExemplars:
    def test_count_is_ten(self):
        assert len(default_exemplars()) == 10

    def test_covers_all_modes(self):
        modes = {e.mode for e in default_exemplars()}
        assert modes == {Mode.NEUTRAL, Mode.STYLE, Mode.DIALOGUE}

    def test_each_round_trips_through_parser(self):
        for exemplar in default_exemplars():
            words = tokenize_words(exemplar.target_text)
            text = serialize_suggestion(exemplar.suggestion, words, exemplar.reasoning)
            result = parse_response(text, words)
            assert result.ok and result.diagnostics == ()
            assert result.suggestion == exemplar.suggestion

    def test_values_within_scales(self):
        for exemplar in default_exemplars():
            s = exemplar.suggestion
            for v in (s.global_duration, s.global_pitch, s.global_energy):
                assert -5.0 <= v <= 5.0
            for w in s.words:
                for v in (w.local_duration, w.local_pitch, w.local_energy):
                    assert 0.0 <= v <= 5.0


EMPTY_RESPONSE = "REASONING: r\nGLOBAL: duration=0 pitch=0 energy=0\n"
HI_RESPONSE = EMPTY_RESPONSE + "WORD 0 hi: duration=0 pitch=0 energy=0\n"


class TestExemplarAssets:
    def test_missing_text_line(self):
        with pytest.raises(DataError, match="record 1: missing TEXT: line"):
            parse_exemplars("REASONING: hi\nGLOBAL: duration=0 pitch=0 energy=0\n")

    def test_bad_context_kind(self):
        doc = (
            "CONTEXT: mood: happy\n"
            "TEXT: hi there\n"
            "REASONING: r\n"
            "GLOBAL: duration=0 pitch=0 energy=0\n"
            "WORD 0 hi: duration=0 pitch=0 energy=0\n"
            "WORD 1 there: duration=0 pitch=0 energy=0\n"
        )
        with pytest.raises(DataError, match="record 1: CONTEXT must be 'style: <text>'"):
            parse_exemplars(doc)

    def test_invalid_response_block(self):
        doc = (
            "TEXT: hi there\n"
            "REASONING: r\n"
            "GLOBAL: duration=0 pitch=0 energy=0\n"
            "WORD 0 hi: duration=0 pitch=0 energy=0\n"
        )
        with pytest.raises(DataError, match="invalid response block") as err:
            parse_exemplars(doc)
        assert "record 1" in str(err.value)

    def test_empty_document(self):
        with pytest.raises(DataError, match="exemplar document contains no records"):
            parse_exemplars("\n\n")

    @pytest.mark.parametrize(
        "document, fragment",
        [
            # without this check parse_response gets no words and raises ValueError
            pytest.param("TEXT: ...\n" + EMPTY_RESPONSE, "record 1: target text has no words", id="no-words"),
            pytest.param("TEXT:\n" + EMPTY_RESPONSE, "record 1: target text has no words", id="empty-text"),
            pytest.param("TEXT: hi\n" + HI_RESPONSE + "---\nTEXT: -- !\n" + EMPTY_RESPONSE,
                         "record 2: target text has no words", id="no-words-in-second-record"),
            pytest.param("CONTEXT: style:\nTEXT: hi\n" + HI_RESPONSE,
                         "record 1: CONTEXT must be 'style: <text>'", id="context-without-text"),
            pytest.param("CONTEXT: style calm\nTEXT: hi\n" + HI_RESPONSE,
                         "record 1: CONTEXT must be 'style: <text>'", id="context-without-colon"),
        ],
    )
    def test_refusals(self, document, fragment):
        with pytest.raises(DataError) as caught:
            parse_exemplars(document)
        assert fragment in str(caught.value)


PUNCTUATION = ("", ",", ".", "!", "?", "...", '"', " -")
TARGET_TEXTS = st.lists(
    st.tuples(st.sampled_from(WORD_POOL), st.sampled_from(PUNCTUATION)), min_size=1, max_size=12
).map(lambda tokens: " ".join(word + mark for word, mark in tokens))
ONE_LINE = st.text(
    st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)), min_size=1
).filter(str.strip)


class TestPromptOracle:
    @PROPERTIES
    @given(data=st.data())
    def test_matches_naive_prompt(self, data):
        mode = data.draw(st.sampled_from(list(Mode)))
        context = None if mode is Mode.NEUTRAL else data.draw(ONE_LINE)
        order = data.draw(st.permutations(range(len(default_exemplars()))))
        count = data.draw(st.integers(1, len(order)))
        spec = PromptSpec(
            mode=mode,
            target_text=data.draw(TARGET_TEXTS),
            context=context,
            exemplars=tuple(default_exemplars()[i] for i in order[:count]),
        )
        expected = naive_prompt(
            spec,
            DEFAULT_TASK_DESCRIPTION,
            DEFAULT_SCALE_EXPLANATIONS,
            DEFAULT_RULES,
            DEFAULT_FORMAT_INSTRUCTIONS,
        )
        assert build_prompt(spec) == expected

    def test_each_exemplar_rendered_once(self, monkeypatch):
        # a set no other test builds, so no earlier prompt has rendered it
        exemplars = tuple(e._replace(reasoning=f"{e.reasoning} (counted)") for e in default_exemplars())
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return serialize_suggestion(*args, **kwargs)

        monkeypatch.setattr(prompting, "serialize_suggestion", counting)
        spec = PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=exemplars)
        first = build_prompt(spec)
        assert build_prompt(spec) == first
        other = build_prompt(spec._replace(target_text="so long", exemplars=list(exemplars)))
        assert other.split("Now solve this task.")[0] == first.split("Now solve this task.")[0]
        assert len(calls) == len(exemplars)

    def test_an_exemplar_must_be_hashable(self):
        exemplar = default_exemplars()[0]
        suggestion = exemplar.suggestion._replace(words=list(exemplar.suggestion.words))
        unhashable = exemplar._replace(suggestion=suggestion)
        with pytest.raises(TypeError):
            build_prompt(PromptSpec(mode=Mode.NEUTRAL, target_text="hi there", exemplars=(unhashable,)))
