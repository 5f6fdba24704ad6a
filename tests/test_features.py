import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from llmprosody.features import (
    DegenerateStats,
    FeatureFormatError,
    InvariantViolation,
    PhoneFeature,
    SpeakerStats,
    Word,
    compute_speaker_stats,
    make_utterance,
    parse_features,
    parse_speaker_stats,
    serialize_features,
    serialize_speaker_stats,
    tokenize_words,
)

from conftest import (
    PHONE_LABELS,
    PROPERTIES,
    WORD_POOL,
    make_stats,
    random_raw_utterance,
    random_stats,
    random_utterance,
)
from reference import direct_mean, direct_percentile, direct_sample_std

WELL_FORMED = """\
#feature-file\tv1
#utterance\tu1\tspk1\tnorm\tHello world
HH\t0\t0.080000\t-\t0.250000\t0\t0
AH\t0\t0.060000\t0.350000\t0.500000\t1\t0
sp\t-\t0.200000\t-\t-0.100000\t0\t1
W\t1\t0.070000\t-0.100000\t0.300000\t1\t0
D\t1\t0.050000\t-\t0.200000\t0\t0
#utterance\tu2\tspk1\tnorm\tAgain
AH\t0\t0.090000\t0.100000\t0.400000\t1\t0
"""


class TestParseFeatures:
    def test_well_formed_two_utterances(self):
        utterances = parse_features(WELL_FORMED)
        assert len(utterances) == 2
        first = utterances[0]
        assert first.id == "u1"
        assert first.speaker_id == "spk1"
        assert first.text == "Hello world"
        assert [w.surface for w in first.words] == ["Hello", "world"]
        assert len(first.phones) == 5
        assert first.phones[1].f0 == pytest.approx(0.35)
        assert first.phones[2].pause and first.phones[2].word_index is None
        assert utterances[1].id == "u2"

    def test_voiced_phone_without_f0_names_utterance_and_line(self):
        bad = WELL_FORMED.replace(
            "AH\t0\t0.060000\t0.350000\t0.500000\t1\t0",
            "AH\t0\t0.060000\t-\t0.500000\t1\t0",
        )
        with pytest.raises(InvariantViolation) as err:
            parse_features(bad)
        assert "u1" in str(err.value)
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("sp\t-\t0.200000", "sp\t0\t0.200000", "line 5"),  # pause with a word index
            ("W\t1\t", "W\t7\t", "line 6"),  # word index out of range
            ("D\t1\t0.050000", "D\t1\t0.000000", "line 7"),  # zero duration
        ],
    )
    def test_phone_invariant_names_utterance_and_line(self, old, new, line):
        with pytest.raises(InvariantViolation) as err:
            parse_features(WELL_FORMED.replace(old, new))
        assert "utterance u1 " + line in str(err.value)

    def test_malformed_row_reports_line(self):
        bad = WELL_FORMED.replace("AH\t0\t0.090000\t0.100000\t0.400000\t1\t0",
                                  "AH\t0\t0.090000\t0.100000")
        with pytest.raises(FeatureFormatError) as err:
            parse_features(bad)
        assert "line 9" in str(err.value)

    def test_non_numeric_duration(self):
        bad = WELL_FORMED.replace("0.080000", "zero")
        with pytest.raises(FeatureFormatError) as err:
            parse_features(bad)
        assert "line 3" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(FeatureFormatError):
            parse_features(WELL_FORMED.split("\n", 1)[1])

    def test_bad_variant(self):
        with pytest.raises(FeatureFormatError):
            parse_features(WELL_FORMED.replace("\tnorm\t", "\tweird\t"))

    def test_word_index_out_of_range(self):
        bad = WELL_FORMED.replace("W\t1\t", "W\t7\t")
        with pytest.raises(InvariantViolation) as err:
            parse_features(bad)
        assert "u1" in str(err.value)

    def test_unvoiced_with_f0_rejected(self):
        bad = WELL_FORMED.replace(
            "D\t1\t0.050000\t-\t0.200000\t0\t0",
            "D\t1\t0.050000\t0.100000\t0.200000\t0\t0",
        )
        with pytest.raises(InvariantViolation):
            parse_features(bad)

    def test_pause_with_word_index_rejected(self):
        bad = WELL_FORMED.replace(
            "sp\t-\t0.200000\t-\t-0.100000\t0\t1",
            "sp\t0\t0.200000\t-\t-0.100000\t0\t1",
        )
        with pytest.raises(InvariantViolation):
            parse_features(bad)

    def test_unreferenced_word_rejected(self):
        doc = (
            "#feature-file\tv1\n"
            "#utterance\tu1\tspk1\tnorm\tHello world\n"
            "AH\t0\t0.060000\t0.350000\t0.500000\t1\t0\n"
        )
        with pytest.raises(InvariantViolation) as err:
            parse_features(doc)
        assert "[1]" in str(err.value)

    def test_decreasing_word_index_rejected(self):
        doc = (
            "#feature-file\tv1\n"
            "#utterance\tu1\tspk1\tnorm\tHello world\n"
            "W\t1\t0.070000\t-0.100000\t0.300000\t1\t0\n"
            "AH\t0\t0.060000\t0.350000\t0.500000\t1\t0\n"
        )
        with pytest.raises(InvariantViolation):
            parse_features(doc)


class TestSerializeFeatures:
    def test_empty_list_is_header_only(self):
        assert serialize_features([]) == "#feature-file\tv1\n"

    def test_single_phone_utterance(self):
        utterance = make_utterance(
            "u1", "spk1", "Hi",
            [PhoneFeature("AY", 0, 0.1, 0.25, 0.5, True, False)],
            normalized=True,
        )
        doc = serialize_features([utterance])
        lines = doc.split("\n")
        assert lines[0] == "#feature-file\tv1"
        assert lines[1] == "#utterance\tu1\tspk1\tnorm\tHi"
        assert lines[2] == "AY\t0\t0.100000\t0.250000\t0.500000\t1\t0"
        assert lines[3] == ""

    def test_parse_then_serialize_is_canonical(self):
        assert serialize_features(parse_features(WELL_FORMED)) == WELL_FORMED

    def test_value_round_trip_random_utterances(self, rng):
        for case in range(200):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            doc = serialize_features([utterance])
            assert parse_features(doc) == [utterance]

    def test_multi_utterance_round_trip(self, rng):
        stats = random_stats(rng)
        batch = [random_utterance(rng, stats, utterance_id=f"u{i}") for i in range(5)]
        assert parse_features(serialize_features(batch)) == batch


    def test_duration_below_resolution_refused(self):
        phone = PhoneFeature("AA1", 0, 4e-7, None, 0.0, voiced=False, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [phone], normalized=True)
        with pytest.raises(InvariantViolation, match="rounds to 0.000000"):
            serialize_features([utterance])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", ["f0", "energy"])
    def test_non_finite_f0_or_energy_refused(self, slot, value):
        phone = PhoneFeature("AA1", 0, 0.1, 0.2, 0.3, voiced=True, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [replace(phone, **{slot: value})], normalized=True)
        with pytest.raises(InvariantViolation, match="non-finite F0 or energy"):
            serialize_features([utterance])


class TestTokenizeWords:
    def test_punctuation_stripped(self):
        assert tokenize_words("Hello, world!") == (
            Word("Hello", "hello"),
            Word("world", "world"),
        )

    def test_empty_text(self):
        assert tokenize_words("") == ()

    def test_word_internal_apostrophe_kept(self):
        assert tokenize_words("it's FINE.") == (
            Word("it's", "it's"),
            Word("FINE", "fine"),
        )

    def test_pure_punctuation_dropped(self):
        assert tokenize_words("wait - no ...") == (Word("wait", "wait"), Word("no", "no"))

    def test_uppercase_gives_same_keys(self, rng):
        from conftest import random_text

        for _ in range(50):
            text = random_text(rng, rng.randint(1, 8))
            keys = [w.key for w in tokenize_words(text)]
            upper_keys = [w.key for w in tokenize_words(text.upper())]
            assert keys == upper_keys


def _corpus_with_durations(rng, durations):
    return [
        random_raw_utterance(rng, f"u{i}", total_duration_s=d)
        for i, d in enumerate(durations)
    ]


class TestComputeSpeakerStats:
    def test_matches_direct_formulas(self, rng):
        corpus = _corpus_with_durations(rng, [2.0, 3.0, 1.8])
        stats = compute_speaker_stats(corpus)
        logf0 = [ph.f0 for u in corpus for ph in u.phones if ph.voiced]
        loge = [ph.energy for u in corpus for ph in u.phones if not ph.pause]
        hz = [math.exp(v) for v in logf0]
        assert stats.mu_logf0 == pytest.approx(direct_mean(logf0), abs=1e-12)
        assert stats.sigma_logf0 == pytest.approx(direct_sample_std(logf0), abs=1e-12)
        assert stats.mu_loge == pytest.approx(direct_mean(loge), abs=1e-12)
        assert stats.sigma_loge == pytest.approx(direct_sample_std(loge), abs=1e-12)
        assert stats.f0_min_hz == pytest.approx(direct_percentile(hz, 5), abs=1e-9)
        assert stats.f0_max_hz == pytest.approx(direct_percentile(hz, 95), abs=1e-9)

    def test_short_utterance_excluded(self, rng):
        base = _corpus_with_durations(rng, [2.0, 2.5, 3.0])
        short = random_raw_utterance(rng, "short", total_duration_s=1.4)
        assert compute_speaker_stats(base + [short]) == compute_speaker_stats(base)

    def test_boundary_duration_included(self, rng):
        base = _corpus_with_durations(rng, [2.0, 2.5])
        boundary = random_raw_utterance(rng, "b", total_duration_s=1.5)
        # total re-serializes with 6-decimal rounding, keep a safe margin
        assert boundary.total_duration_s() >= 1.5 - 1e-6
        with_boundary = compute_speaker_stats(base + [boundary], min_duration_s=1.4999)
        assert with_boundary != compute_speaker_stats(base, min_duration_s=1.4999)

    def test_filtering_monotonicity(self, rng):
        for _ in range(20):
            base = _corpus_with_durations(rng, [rng.uniform(1.6, 4.0) for _ in range(3)])
            short = random_raw_utterance(rng, "s", total_duration_s=rng.uniform(0.3, 1.45))
            assert compute_speaker_stats(base + [short]) == compute_speaker_stats(base)

    def test_identical_voiced_f0_degenerate(self):
        phones = [
            PhoneFeature("AA", 0, 1.0, math.log(200.0), 0.5, True, False),
            PhoneFeature("IY", 0, 1.0, math.log(200.0), 0.7, True, False),
        ]
        corpus = [make_utterance("u1", "spk1", "hi", phones, normalized=False)]
        with pytest.raises(DegenerateStats):
            compute_speaker_stats(corpus)

    def test_too_few_voiced_degenerate(self):
        phones = [
            PhoneFeature("AA", 0, 1.0, math.log(200.0), 0.5, True, False),
            PhoneFeature("T", 0, 1.0, None, 0.7, False, False),
        ]
        corpus = [make_utterance("u1", "spk1", "hi", phones, normalized=False)]
        with pytest.raises(DegenerateStats):
            compute_speaker_stats(corpus)

    def test_rejects_normalized_input(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        with pytest.raises(Exception) as err:
            compute_speaker_stats([utterance])
        assert "raw" in str(err.value)

    def test_percentile_ordering_property(self, rng):
        for _ in range(20):
            corpus = _corpus_with_durations(rng, [rng.uniform(1.6, 4.0) for _ in range(4)])
            stats = compute_speaker_stats(corpus)
            assert stats.f0_min_hz < stats.f0_max_hz


class TestSpeakerStatsFile:
    def test_round_trip(self):
        stats = make_stats()
        assert parse_speaker_stats(serialize_speaker_stats(stats)) == stats

    def test_canonical_layout(self):
        doc = serialize_speaker_stats(make_stats(mu_hz=math.e, sigma_logf0=0.25))
        lines = doc.strip().split("\n")
        assert lines[0] == "mu_logf0\t1.0"
        assert lines[1] == "sigma_logf0\t0.25"
        assert len(lines) == 6

    def test_missing_key(self):
        doc = serialize_speaker_stats(make_stats())
        truncated = "\n".join(doc.strip().split("\n")[:-1]) + "\n"
        with pytest.raises(FeatureFormatError) as err:
            parse_speaker_stats(truncated)
        assert "f0_max_hz" in str(err.value)

    def test_invalid_sigma(self):
        doc = serialize_speaker_stats(make_stats()).replace("0.25", "0.0")
        with pytest.raises(InvariantViolation):
            parse_speaker_stats(doc)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def feature_documents(draw):
    """A valid feature document whose numbers are written with any number of digits."""
    lines = ["#feature-file\tv1"]
    for u in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=5))
        variant = draw(st.sampled_from(["raw", "norm"]))
        lines.append(f"#utterance\tu{u}\tspk1\t{variant}\t{' '.join(words)}")
        for j in range(len(words)):
            for _ in range(draw(st.integers(1, 3))):
                voiced = draw(st.booleans())
                f0 = repr(draw(FINITE)) if voiced else "-"
                label = draw(st.sampled_from(PHONE_LABELS))
                row = [label, str(j), repr(draw(POSITIVE)), f0, repr(draw(FINITE))]
                lines.append("\t".join(row + ["1" if voiced else "0", "0"]))
            if draw(st.booleans()):
                lines.append(f"sp\t-\t{draw(POSITIVE)!r}\t-\t{draw(FINITE)!r}\t0\t1")
    return "\n".join(lines) + "\n"


class TestFormatProperties:
    @PROPERTIES
    @given(
        mu_logf0=FINITE,
        sigma_logf0=POSITIVE,
        mu_loge=FINITE,
        sigma_loge=POSITIVE,
        f0_range=st.lists(POSITIVE, min_size=2, max_size=2, unique=True).map(sorted),
    )
    def test_stats_round_trip(self, mu_logf0, sigma_logf0, mu_loge, sigma_loge, f0_range):
        stats = SpeakerStats(mu_logf0, sigma_logf0, mu_loge, sigma_loge, *f0_range)
        assert parse_speaker_stats(serialize_speaker_stats(stats)) == stats

    @PROPERTIES
    @given(document=feature_documents())
    def test_feature_document_fixed_point_after_one_pass(self, document):
        utterances = parse_features(document)
        try:
            canonical = serialize_features(utterances)
        except InvariantViolation as exc:
            # a duration under 0.5 us would be written as 0.000000, which parse refuses
            assert "rounds to 0.000000" in str(exc)
            assert any(ph.duration_s < 1e-6 for u in utterances for ph in u.phones)
            return
        again = parse_features(canonical)
        assert serialize_features(again) == canonical
        assert again == parse_features(serialize_features(again))
