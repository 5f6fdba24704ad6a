import pytest
from hypothesis import assume, example, given, strategies as st

from llmprosody.errors import DataError
from llmprosody.features import tokenize_words
from llmprosody.mapping import LlmScaleSuggestion, WordSuggestion, check_suggestion_words
from llmprosody.response import (
    DiagnosticKind,
    parse_response,
    serialize_suggestion,
)

from conftest import PROPERTIES, WORD_POOL, random_stats, random_suggestion, random_utterance
from reference import reference_parse_response

THREE_WORDS = tokenize_words("Turn left now.")

VALID = """\
REASONING: Emphasise the direction.
GLOBAL: duration=0 pitch=1 energy=0
WORD 0 Turn: duration=0 pitch=0 energy=0
WORD 1 left: duration=2 pitch=3 energy=1
WORD 2 now: duration=0 pitch=1 energy=0
"""


def kinds(result):
    return [d.kind for d in result.diagnostics]


class TestParseValid:
    def test_three_words(self):
        result = parse_response(VALID, THREE_WORDS)
        assert result.ok
        assert result.diagnostics == ()
        s = result.suggestion
        assert s.global_pitch == 1.0
        assert [w.key for w in s.words] == ["turn", "left", "now"]
        assert s.words[1].local_duration == 2.0
        assert result.reasoning == "Emphasise the direction."

    def test_whitespace_tolerance(self):
        loose = (
            "REASONING:   ok\n"
            "\n"
            "  GLOBAL :  duration=0   pitch=1  energy=0  \n"
            "  WORD  0  Turn :  duration=0 pitch=0  energy=0\n"
            "WORD 1 left: duration=2 pitch=3 energy=1\n"
            "WORD 2 now: duration=0 pitch=1 energy=0\n"
        )
        result = parse_response(loose, THREE_WORDS)
        assert result.ok and result.diagnostics == ()

    def test_multiline_reasoning_retained(self):
        text = VALID.replace(
            "REASONING: Emphasise the direction.",
            "REASONING: First thought.\nSecond thought.",
        )
        result = parse_response(text, THREE_WORDS)
        assert result.ok
        assert result.reasoning == "First thought.\nSecond thought."

    def test_echo_matching_is_case_and_punctuation_insensitive(self):
        text = VALID.replace("WORD 1 left:", "WORD 1 LEFT,:").replace(
            "WORD 2 now:", 'WORD 2 "now":'
        )
        result = parse_response(text, THREE_WORDS)
        assert result.ok and result.diagnostics == ()

    def test_decimal_values_accepted(self):
        text = VALID.replace("pitch=3", "pitch=3.5")
        result = parse_response(text, THREE_WORDS)
        assert result.ok
        assert result.suggestion.words[1].local_pitch == 3.5


class TestParseClamping:
    def test_local_value_nine_clamped(self):
        text = VALID.replace("duration=2 pitch=3 energy=1", "duration=9 pitch=3 energy=1")
        result = parse_response(text, THREE_WORDS)
        assert result.ok
        assert result.suggestion.words[1].local_duration == 5.0
        assert kinds(result) == [DiagnosticKind.VALUE_OUT_OF_RANGE]
        assert result.diagnostics[0].clamped
        assert result.diagnostics[0].line_number == 4

    def test_global_below_range_clamped(self):
        text = VALID.replace("GLOBAL: duration=0", "GLOBAL: duration=-12")
        result = parse_response(text, THREE_WORDS)
        assert result.ok
        assert result.suggestion.global_duration == -5.0

    def test_negative_local_clamped_to_zero(self):
        text = VALID.replace("WORD 0 Turn: duration=0", "WORD 0 Turn: duration=-2")
        result = parse_response(text, THREE_WORDS)
        assert result.ok
        assert result.suggestion.words[0].local_duration == 0.0


class TestParseStructuralErrors:
    def test_skipped_word_names_missing_index(self):
        text = VALID.replace("WORD 1 left: duration=2 pitch=3 energy=1\n", "")
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        mismatches = [d for d in result.diagnostics if d.kind is DiagnosticKind.WORD_COUNT_MISMATCH]
        assert mismatches and "1" in mismatches[0].detail

    def test_skipped_word_is_named_once(self):
        text = VALID.replace("WORD 1 left: duration=2 pitch=3 energy=1\n", "")
        result = parse_response(text, THREE_WORDS)
        assert [str(d) for d in result.diagnostics] == [
            "line 4: WordCountMismatch: expected word index 1 next, got 2"
        ]

    def test_truncated_response_reports_missing(self):
        text = "\n".join(VALID.split("\n")[:4]) + "\n"
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        assert DiagnosticKind.WORD_COUNT_MISMATCH in kinds(result)

    def test_invented_word_rejected(self):
        text = VALID.replace("WORD 1 left:", "WORD 1 right:")
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        assert DiagnosticKind.WORD_IDENTITY_MISMATCH in kinds(result)

    def test_extra_word_rejected(self):
        text = VALID + "WORD 3 there: duration=0 pitch=0 energy=0\n"
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        assert DiagnosticKind.WORD_COUNT_MISMATCH in kinds(result)

    def test_duplicate_index_rejected(self):
        text = VALID + "WORD 2 now: duration=1 pitch=0 energy=0\n"
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        assert DiagnosticKind.DUPLICATE_WORD_INDEX in kinds(result)

    def test_reordered_words_rejected(self):
        lines = VALID.strip().split("\n")
        reordered = "\n".join([lines[0], lines[1], lines[3], lines[2], lines[4]]) + "\n"
        result = parse_response(reordered, THREE_WORDS)
        assert not result.ok

    def test_non_numeric_value(self):
        text = VALID.replace("pitch=3", "pitch=loud")
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        bad = [d for d in result.diagnostics if d.kind is DiagnosticKind.VALUE_NOT_NUMERIC]
        assert bad and bad[0].line_number == 4

    def test_missing_global(self):
        text = VALID.replace("GLOBAL: duration=0 pitch=1 energy=0\n", "")
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        assert DiagnosticKind.MISSING_GLOBAL in kinds(result)

    def test_junk_line_after_global(self):
        text = VALID + "and that is all\n"
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        junk = [d for d in result.diagnostics if d.kind is DiagnosticKind.UNPARSEABLE_LINE]
        assert junk and junk[0].line_number == 6

    def test_multiple_independent_errors_all_reported(self):
        text = (
            "REASONING: messy\n"
            "GLOBAL: duration=0 pitch=bad energy=0\n"
            "WORD 0 Turn: duration=0 pitch=0 energy=0\n"
            "WORD 2 now: duration=what pitch=1 energy=0\n"
        )
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        got = kinds(result)
        assert DiagnosticKind.VALUE_NOT_NUMERIC in got
        assert DiagnosticKind.WORD_COUNT_MISMATCH in got
        assert len([k for k in got if k is DiagnosticKind.VALUE_NOT_NUMERIC]) == 2
        lines = {d.line_number for d in result.diagnostics}
        assert {2, 4} <= lines

    def test_never_raises_on_garbage(self, rng):
        alphabet = "ab:=5 _\nWORDGLOBALREASONING{}[]"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
            result = parse_response(text, THREE_WORDS)
            assert result.ok == (result.suggestion is not None)
            if not result.ok:
                assert result.fatal_diagnostics

    def test_empty_expected_words_is_a_usage_error(self):
        with pytest.raises(ValueError):
            parse_response(VALID, ())


class TestParseNonFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "slot, line_number", [("GLOBAL: duration=0", 2), ("WORD 1 left: duration=2", 4)]
    )
    def test_non_finite_value_is_fatal_not_clamped(self, value, slot, line_number):
        text = VALID.replace(slot, slot.rsplit("=", 1)[0] + "=" + value)
        result = parse_response(text, THREE_WORDS)
        assert not result.ok
        bad = [d for d in result.fatal_diagnostics if d.kind is DiagnosticKind.VALUE_NOT_NUMERIC]
        assert [d.line_number for d in bad] == [line_number]
        assert not any(d.clamped for d in result.diagnostics)


class TestParseAsciiOnly:
    # float() and \\d read these, but the grammar's numbers are ASCII digits with no digit-group underscores
    @pytest.mark.parametrize("value", ["1_0", "\uff11.\uff12", "\u0663"], ids=["underscore", "fullwidth", "arabic-indic"])
    def test_value_outside_the_grammar_is_not_numeric(self, value):
        result = parse_response(VALID.replace("duration=2", f"duration={value}"), THREE_WORDS)
        assert not result.ok
        assert [str(d) for d in result.diagnostics] == [
            f"line 4: ValueNotNumeric: word 1 duration value {value!r} is not a number"
        ]

    def test_non_ascii_word_index_is_unparseable(self):
        result = parse_response(VALID.replace("WORD 0 Turn", "WORD \u0660 Turn"), THREE_WORDS)
        assert not result.ok
        assert kinds(result)[0] is DiagnosticKind.UNPARSEABLE_LINE
        assert result.diagnostics[0].line_number == 3


WORD_LISTS = st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=8).map(
    lambda tokens: tokenize_words(" ".join(tokens))
)
ONE_LINE = st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=40)
VALUE_TEXT = st.one_of(st.floats().map(repr), st.integers(-9, 9).map(str), ONE_LINE)
GRAMMAR_LINES = st.one_of(
    ONE_LINE,
    st.builds("REASONING: {}".format, ONE_LINE),
    st.builds("GLOBAL: duration={} pitch={} energy={}".format, VALUE_TEXT, VALUE_TEXT, VALUE_TEXT),
    st.builds(
        "WORD {} {}: duration={} pitch={} energy={}".format,
        st.integers(0, 9), st.sampled_from(WORD_POOL), VALUE_TEXT, VALUE_TEXT, VALUE_TEXT,
    ),
)


class TestParseProperties:
    @PROPERTIES
    @given(
        text=st.one_of(st.text(), st.lists(GRAMMAR_LINES, max_size=12).map("\n".join)),
        words=WORD_LISTS,
    )
    @example(  # an index too long for int() must not escape as ValueError
        text="REASONING:\nGLOBAL: duration=0 pitch=0 energy=0\nWORD " + "1" * 5000
        + " the: duration=0 pitch=0 energy=0\n",
        words=tokenize_words("the"),
    )
    def test_never_raises(self, text, words):
        result = parse_response(text, words)
        assert result.ok == (result.suggestion is not None)
        assert result.ok or result.fatal_diagnostics
        assert not result.fatal_diagnostics or not result.ok

    @PROPERTIES
    @given(data=st.data())
    def test_serialize_round_trip(self, data):
        words = data.draw(WORD_LISTS)
        g = st.floats(-5.0, 5.0)
        lo = st.floats(0.0, 5.0)
        suggestion = LlmScaleSuggestion(
            data.draw(g), data.draw(g), data.draw(g),
            words=tuple(
                WordSuggestion(w.key, data.draw(lo), data.draw(lo), data.draw(lo))
                for w in words
            ),
        )
        reasoning = data.draw(ONE_LINE)
        result = parse_response(serialize_suggestion(suggestion, words, reasoning), words)
        assert result.ok and result.diagnostics == ()
        assert result.suggestion == suggestion
        assert result.reasoning == reasoning

    @PROPERTIES
    @given(text=st.text(), data=st.data())
    def test_every_aligned_suggestion_round_trips(self, text, data):
        # surfaces are whatever the tokenizer gives; a word's number in the answer is its position
        words = tokenize_words(text)
        assume(words)
        g, lo = st.floats(-5.0, 5.0), st.floats(0.0, 5.0)
        suggestion = LlmScaleSuggestion(
            data.draw(g), data.draw(g), data.draw(g),
            words=tuple(WordSuggestion(w.key, data.draw(lo), data.draw(lo), data.draw(lo)) for w in words),
        )
        check_suggestion_words(suggestion, words)
        result = parse_response(serialize_suggestion(suggestion, words), words)
        assert result.fatal_diagnostics == ()
        assert result.suggestion == suggestion


# values that are numbers in range, out of range, non-finite or not numbers at all
ODD_VALUE = st.one_of(
    VALUE_TEXT,
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "5.0000001", "-0.0", "loud", "3,5", "0x1"]),
)


@st.composite
def mixed_responses(draw):
    """Responses mixing valid lines with every kind of line the parser must diagnose."""
    words = draw(WORD_LISTS)
    index = st.integers(0, len(words) + 2)
    word_line = st.builds(
        "WORD {} {}: duration={} pitch={} energy={}".format,
        index,
        st.one_of(st.sampled_from([w.surface for w in words]), st.sampled_from(WORD_POOL)),
        ODD_VALUE, ODD_VALUE, ODD_VALUE,
    )
    valid = VALID.split("\n")
    line = st.one_of(
        st.sampled_from(["", "  ", "\t"]),
        ONE_LINE,
        st.sampled_from(valid),
        st.builds("REASONING: {}".format, ONE_LINE),
        st.builds("GLOBAL: duration={} pitch={} energy={}".format, ODD_VALUE, ODD_VALUE, ODD_VALUE),
        word_line,
        st.integers(0, len(words) - 1).map(
            lambda i: f"WORD {i} {words[i].surface}: duration=1 pitch=2 energy=3"
        ),
    )
    return "\n".join(draw(st.lists(line, max_size=14))), words


def plain(result):
    s = result.suggestion
    suggestion = None if s is None else (
        s.global_duration, s.global_pitch, s.global_energy,
        tuple((i, w.key, w.local_duration, w.local_pitch, w.local_energy) for i, w in enumerate(s.words)),
    )
    diagnostics = tuple((d.kind.value, d.line_number, d.detail) for d in result.diagnostics)
    return suggestion, result.reasoning, diagnostics


class TestParseMatchesReference:
    @PROPERTIES
    @given(case=st.one_of(
        mixed_responses(),
        st.tuples(st.lists(GRAMMAR_LINES, max_size=12).map("\n".join), WORD_LISTS),
    ))
    @example(case=(VALID, THREE_WORDS))
    @example(case=("\n\nGLOBAL: duration=0 pitch=1 energy=0\nREASONING: late\n", THREE_WORDS))
    @example(
        case=("WORD 5 now: duration=0 pitch=0 energy=0\nGLOBAL: duration=0 pitch=0 energy=0", THREE_WORDS)
    )
    def test_same_result_as_reference(self, case):
        text, words = case
        assert plain(parse_response(text, words)) == reference_parse_response(text, words)


class TestSerializeSuggestion:
    def test_identity_suggestion_line_layout(self):
        words = tokenize_words("a b")
        suggestion = LlmScaleSuggestion(
            0.0, 0.0, 0.0,
            words=(WordSuggestion("a", 0.0, 0.0, 0.0), WordSuggestion("b", 0.0, 0.0, 0.0)),
        )
        text = serialize_suggestion(suggestion, words)
        assert text == (
            "REASONING:\n"
            "GLOBAL: duration=0 pitch=0 energy=0\n"
            "WORD 0 a: duration=0 pitch=0 energy=0\n"
            "WORD 1 b: duration=0 pitch=0 energy=0\n"
        )

    def test_round_trip_random_suggestions(self, rng):
        for case in range(300):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            suggestion = random_suggestion(rng, utterance)
            text = serialize_suggestion(suggestion, utterance.words, reasoning="r")
            result = parse_response(text, utterance.words)
            assert result.ok and result.diagnostics == ()
            assert result.suggestion == suggestion

    def test_empty_word_list_rejected(self):
        suggestion = LlmScaleSuggestion(0.0, 0.0, 0.0, words=())
        with pytest.raises(DataError, match="a suggestion requires at least one word"):
            serialize_suggestion(suggestion, ())

    def test_misaligned_words_rejected(self):
        words = tokenize_words("a b")
        suggestion = LlmScaleSuggestion(
            0.0, 0.0, 0.0,
            words=(WordSuggestion("a", 0.0, 0.0, 0.0), WordSuggestion("c", 0.0, 0.0, 0.0)),
        )
        with pytest.raises(DataError, match="word 1: suggestion says 'c', target text says 'b'"):
            serialize_suggestion(suggestion, words)

    def test_reasoning_embedded(self):
        words = tokenize_words("a")
        suggestion = LlmScaleSuggestion(
            0.0, 0.0, 0.0, words=(WordSuggestion("a", 0.0, 0.0, 0.0),)
        )
        text = serialize_suggestion(suggestion, words, reasoning="why not")
        assert text.startswith("REASONING: why not\n")
        assert parse_response(text, words).reasoning == "why not"
