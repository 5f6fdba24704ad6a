import contextlib
import gc
import json
import math
import os
import random
import string
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from llmprosody import features
from llmprosody.errors import DataError
from llmprosody.features import (
    PhoneFeature,
    SpeakerStats,
    Word,
    compute_speaker_stats,
    make_utterance,
    mean,
    percentile,
    sample_std,
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
from reference import (
    direct_mean, direct_percentile, direct_sample_std, naive_parse_features, naive_serialize_features,
)

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
        with pytest.raises(DataError, match="voiced flag inconsistent with F0 presence") as err:
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
        kind = {"line 5": "must be unvoiced", "line 6": "out of range", "line 7": "duration must be > 0"}[line]
        with pytest.raises(DataError, match=kind) as err:
            parse_features(WELL_FORMED.replace(old, new))
        assert "utterance u1 " + line in str(err.value)

    def test_malformed_row_reports_line(self):
        bad = WELL_FORMED.replace("AH\t0\t0.090000\t0.100000\t0.400000\t1\t0",
                                  "AH\t0\t0.090000\t0.100000")
        with pytest.raises(DataError, match="expected 7 tab-separated fields") as err:
            parse_features(bad)
        assert "line 9" in str(err.value)

    def test_non_numeric_duration(self):
        bad = WELL_FORMED.replace("0.080000", "zero")
        with pytest.raises(DataError, match="duration 'zero' is not a number") as err:
            parse_features(bad)
        assert "line 3" in str(err.value)

    def test_repeated_utterance_id_reports_line(self):
        with pytest.raises(DataError, match="^line 8: duplicate utterance id 'u1'$"):
            parse_features(WELL_FORMED.replace("#utterance\tu2", "#utterance\tu1"))

    def test_missing_header(self):
        with pytest.raises(DataError, match="expected feature-file header"):
            parse_features(WELL_FORMED.split("\n", 1)[1])

    def test_bad_variant(self):
        with pytest.raises(DataError, match="variant must be 'raw' or 'norm'"):
            parse_features(WELL_FORMED.replace("\tnorm\t", "\tweird\t"))

    def test_word_index_out_of_range(self):
        bad = WELL_FORMED.replace("W\t1\t", "W\t7\t")
        with pytest.raises(DataError, match="word index 7 out of range") as err:
            parse_features(bad)
        assert "u1" in str(err.value)

    def test_unvoiced_with_f0_rejected(self):
        bad = WELL_FORMED.replace(
            "D\t1\t0.050000\t-\t0.200000\t0\t0",
            "D\t1\t0.050000\t0.100000\t0.200000\t0\t0",
        )
        with pytest.raises(DataError, match="voiced flag inconsistent with F0 presence"):
            parse_features(bad)

    def test_pause_with_word_index_rejected(self):
        bad = WELL_FORMED.replace(
            "sp\t-\t0.200000\t-\t-0.100000\t0\t1",
            "sp\t0\t0.200000\t-\t-0.100000\t0\t1",
        )
        with pytest.raises(DataError, match="must be unvoiced with no word index"):
            parse_features(bad)

    def test_unreferenced_word_rejected(self):
        doc = (
            "#feature-file\tv1\n"
            "#utterance\tu1\tspk1\tnorm\tHello world\n"
            "AH\t0\t0.060000\t0.350000\t0.500000\t1\t0\n"
        )
        with pytest.raises(DataError, match="are not referenced by any phone") as err:
            parse_features(doc)
        assert "[1]" in str(err.value)

    def test_decreasing_word_index_rejected(self):
        doc = (
            "#feature-file\tv1\n"
            "#utterance\tu1\tspk1\tnorm\tHello world\n"
            "W\t1\t0.070000\t-0.100000\t0.300000\t1\t0\n"
            "AH\t0\t0.060000\t0.350000\t0.500000\t1\t0\n"
        )
        with pytest.raises(DataError, match="word indices must be non-decreasing"):
            parse_features(doc)


    @pytest.mark.parametrize(
        "document, fragment",
        [
            pytest.param(WELL_FORMED.replace("#utterance\tu2\tspk1\tnorm\tAgain", "#utterance\tu2\tspk1\tnorm"),
                         "line 8: malformed utterance header", id="header-fields"),
            pytest.param(WELL_FORMED.replace("#utterance\tu2", "#utterances\tu2"),
                         "line 8: malformed utterance header", id="header-tag"),
            pytest.param("#feature-file\tv1\nAH\t0\t0.090000\t0.100000\t0.400000\t1\t0\n",
                         "line 2: phone row before any utterance header", id="row-before-header"),
            pytest.param(WELL_FORMED.replace("0.350000\t0.500000\t1\t0", "0.350000\t0.500000\t2\t0"),
                         "line 4: voiced/pause flags must be 0 or 1", id="voiced-flag"),
            pytest.param(WELL_FORMED.replace("0.350000\t0.500000\t1\t0", "0.350000\t0.500000\t1\tyes"),
                         "line 4: voiced/pause flags must be 0 or 1", id="pause-flag"),
            pytest.param(WELL_FORMED.replace("AH\t0\t0.060000", "AH\tone\t0.060000"),
                         "line 4: word index 'one' is not an integer", id="word-index-not-integer"),
            pytest.param(WELL_FORMED.replace("AH\t0\t0.060000", "AH\t-1\t0.060000"),
                         "utterance u1 line 4: word index -1 out of range (W=2)", id="word-index-negative"),
            pytest.param(WELL_FORMED + "#utterance\tu3\tspk1\tnorm\tSilence\n", "utterance u3: has no phones",
                         id="no-phones"),
            pytest.param("", "line 1: empty document (missing feature-file header)", id="empty"),
            pytest.param("\n \n", "line 1: empty document (missing feature-file header)", id="blank"),
        ],
    )
    def test_refusals(self, document, fragment):
        with pytest.raises(DataError) as caught:
            parse_features(document)
        assert fragment in str(caught.value)

    # with more than one number at fault, the refusal names the first in reading order: duration, energy, F0
    @pytest.mark.parametrize(
        "row, message",
        [
            ("AH\t0\tx\tinf\ty\t1\t0", "line 4: duration 'x' is not a number"),
            ("AH\t0\tnan\tx\ty\t1\t0", "line 4: duration must be finite, got 'nan'"),
            ("AH\t0\t0.1\tx\tinf\t1\t0", "line 4: energy must be finite, got 'inf'"),
            ("AH\t0\t0.1\tnan\ty\t1\t0", "line 4: energy 'y' is not a number"),
        ],
    )
    def test_first_number_at_fault_is_named(self, row, message):
        with pytest.raises(DataError) as caught:
            parse_features(WELL_FORMED.replace("AH\t0\t0.060000\t0.350000\t0.500000\t1\t0", row))
        assert str(caught.value) == message


def corpus_document(n):
    """The test utterance (tests/data/norm_utterance.tsv) ``n`` times, with the ids u0 .. u<n-1>."""
    header, body = (Path(__file__).parent / "data" / "norm_utterance.tsv").read_text(encoding="utf-8").split("\n", 1)
    return header + "\n" + "".join(body.replace("\tu1\t", f"\tu{k}\t", 1) for k in range(n))


@contextlib.contextmanager
def collections():
    """The generation of each collection that starts in the block, in order."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()  # no young object is left over, so no collection is due as the block starts
    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)


class TestParseCollector:
    """parse_features pauses the cyclic collector and closes with one young collection of its own."""

    def test_a_corpus_parse_runs_one_young_collection(self):
        document = corpus_document(1000)
        assert gc.isenabled()
        with collections() as seen:
            utterances = parse_features(document)
        assert seen == [0]
        assert gc.isenabled()
        assert [u.id for u in utterances] == [f"u{k}" for k in range(1000)]

    def test_a_refusal_mid_document_turns_the_collector_back_on(self):
        lines = corpus_document(1000).split("\n")
        middle = len(lines) // 2
        lines[middle] = "AH\t0\t0.1"
        with collections() as seen, pytest.raises(DataError) as caught:
            parse_features("\n".join(lines))
        assert str(caught.value) == f"line {middle + 1}: expected 7 tab-separated fields, got 3"
        assert seen == [0]
        assert gc.isenabled()

    def test_a_caller_with_the_collector_off_sees_no_collection(self):
        document = corpus_document(1000)
        gc.disable()
        try:
            with collections() as seen:
                parse_features(document)
            assert seen == []
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_threads_parsing_at_once_get_the_serial_result(self):
        document = corpus_document(300)
        serial = parse_features(document)
        results = {}

        def parse(k):
            results[k] = [parse_features(document) for _ in range(3)]

        threads = [threading.Thread(target=parse, args=(k,)) for k in range(4)]  # more threads than CPUs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {k: [serial] * 3 for k in range(4)}
        assert gc.isenabled()


class TestValidateUtterance:
    @pytest.mark.parametrize(
        "changes, fragment",
        [
            pytest.param({"id": ""}, "utterance id '' must be non-empty without whitespace", id="empty-id"),
            pytest.param({"id": "u 1"}, "utterance id 'u 1' must be non-empty without whitespace", id="spaced-id"),
            pytest.param({"speaker_id": ""}, "utterance u1: speaker id '' must be non-empty without whitespace",
                         id="empty-speaker"),
            pytest.param({"speaker_id": "spk\t1"}, "speaker id 'spk\\t1' must be non-empty without whitespace",
                         id="spaced-speaker"),
            pytest.param({"id": " u1"}, "utterance id ' u1' must be non-empty without whitespace", id="leading-space"),
            pytest.param({"id": "u1\u3000"}, "utterance id 'u1\\u3000' must be non-empty without whitespace",
                         id="trailing-ideographic-space"),
            pytest.param({"speaker_id": "\x1c"}, "speaker id '\\x1c' must be non-empty without whitespace",
                         id="separator-speaker"),
            pytest.param({"text": "Hello\tworld"}, "utterance u1: text must not contain tabs or newlines",
                         id="tab-in-text"),
            pytest.param({"text": "Hello\nworld"}, "utterance u1: text must not contain tabs or newlines",
                         id="newline-in-text"),
        ],
    )
    def test_refusals(self, changes, fragment):
        (utterance,) = parse_features(WELL_FORMED.split("#utterance\tu2")[0])
        with pytest.raises(DataError) as caught:
            make_utterance(
                changes.get("id", "u1"), changes.get("speaker_id", "spk1"), changes.get("text", "Hello world"),
                utterance.phones, normalized=True,
            )
        assert fragment in str(caught.value)

    def test_split_and_isspace_agree_on_every_code_point(self):
        # so make_utterance's ``uid.split() != [uid]`` refuses exactly an empty id and one with an isspace() character
        assert [c for c in map(chr, range(0x110000)) if (c.split() == []) != c.isspace()] == []

    def test_no_phones_refused(self):
        with pytest.raises(DataError) as caught:
            make_utterance("u1", "s", "", [], True)
        assert str(caught.value) == "utterance u1: has no phones"
        # the first check, as the reader names it before any other fault of the utterance
        with pytest.raises(DataError) as caught:
            make_utterance("u 1", "", "a\tb", (), False)
        assert str(caught.value) == "utterance u 1: has no phones"


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

    def test_repeated_id_refused(self):
        (utterance,) = parse_features(WELL_FORMED.split("#utterance\tu2")[0])
        with pytest.raises(DataError) as refused:
            serialize_features([utterance, utterance])
        assert str(refused.value) == "duplicate utterance id 'u1'"

    def test_duration_below_resolution_refused(self):
        phone = PhoneFeature("AA1", 0, 4e-7, None, 0.0, voiced=False, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [phone], normalized=True)
        with pytest.raises(DataError, match="rounds to 0.000000"):
            serialize_features([utterance])

    # a duration the reader would refuse: inf, nan or negative as written
    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.1, -1e-9])
    def test_duration_the_reader_refuses_is_refused(self, value):
        phone = PhoneFeature("AA1", 0, 0.1, None, 0.0, voiced=False, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [phone], normalized=True)
        utterance = utterance._replace(phones=(phone._replace(duration_s=value),))
        with pytest.raises(DataError, match="duration -?[0-9a-z.]+ is not finite and positive"):
            serialize_features([utterance])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", ["f0", "energy"])
    def test_non_finite_f0_or_energy_refused(self, slot, value):
        phone = PhoneFeature("AA1", 0, 0.1, 0.2, 0.3, voiced=True, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [phone._replace(**{slot: value})], normalized=True)
        with pytest.raises(DataError, match="non-finite F0 or energy"):
            serialize_features([utterance])

    # make_utterance takes these labels, but written out they split the row or the line, or read as a header
    @pytest.mark.parametrize("label", ["A\tB", "A\nB", "#utterance", "#utterance\tx"])
    def test_label_the_reader_refuses_is_refused(self, label):
        phone = PhoneFeature(label, 0, 0.1, None, 0.0, voiced=False, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [phone], normalized=True)
        with pytest.raises(DataError) as refused:
            serialize_features([utterance])
        assert str(refused.value) == f"utterance u1: phone label {label!r} would not read back as one phone row"

    @pytest.mark.parametrize("label", ["", "#", "#utteranc", "x#utterance", "A B", "ə:", "A\rB"])
    def test_other_labels_round_trip(self, label):
        phone = PhoneFeature(label, 0, 0.1, None, 0.0, voiced=False, pause=False)
        utterance = make_utterance("u1", "spk1", "hi", [phone], normalized=True)
        assert parse_features(serialize_features([utterance])) == [utterance]


# more distinct texts than the tokenization memo holds, among them punctuation-only, whitespace-only and
# non-ASCII ones
MEMO_TEXTS = tuple(f"{WORD_POOL[i % len(WORD_POOL)]}, take {i}." for i in range(40)) + (
    "", "   ", "\t \u3000", "...", "— … ¿¡",
    "«Ça va?» — oui.", "naïve café", "ΑΒΓ δεζ", "中文 字", "it's FINE.",
)


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

    def test_each_ascii_and_common_unicode_mark_is_stripped(self):
        for mark in string.punctuation + "“”‘’«»—–…¿¡":
            assert tokenize_words(f"{mark}{mark}wait{mark} {mark}") == (Word("wait", "wait"),), mark

    def test_uppercase_gives_same_keys(self, rng):
        from conftest import random_text

        for _ in range(50):
            text = random_text(rng, rng.randint(1, 8))
            keys = [w.key for w in tokenize_words(text)]
            upper_keys = [w.key for w in tokenize_words(text.upper())]
            assert keys == upper_keys

    def test_a_repeated_text_gets_the_same_tuple(self):
        tokenize_words.cache_clear()
        first = tokenize_words("Hello, world!")
        assert tokenize_words("Hello, world!") is first
        assert tokenize_words.cache_info().hits == 1

    def test_the_memo_holds_the_packaged_exemplars_and_a_target(self):
        from llmprosody.prompting import default_exemplars

        assert tokenize_words.cache_info().maxsize > len(default_exemplars()) + 1
        assert len(set(MEMO_TEXTS)) > tokenize_words.cache_info().maxsize  # the property below evicts

    @PROPERTIES
    @given(texts=st.lists(st.one_of(st.sampled_from(MEMO_TEXTS), st.text(max_size=12)), min_size=1, max_size=120))
    def test_the_memo_gives_what_a_fresh_tokenization_gives(self, texts):
        tokenize_words.cache_clear()
        for text in texts:
            words = tokenize_words(text)
            assert type(words) is tuple and all(type(word) is Word for word in words)
            assert words == tokenize_words.__wrapped__(text)
        assert tokenize_words.cache_info().currsize <= tokenize_words.cache_info().maxsize


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
        with pytest.raises(DataError, match="zero variance in log-F0 or log-energy"):
            compute_speaker_stats(corpus)

    def test_too_few_voiced_degenerate(self):
        phones = [
            PhoneFeature("AA", 0, 1.0, math.log(200.0), 0.5, True, False),
            PhoneFeature("T", 0, 1.0, None, 0.7, False, False),
        ]
        corpus = [make_utterance("u1", "spk1", "hi", phones, normalized=False)]
        with pytest.raises(DataError, match="need at least 2 voiced phones"):
            compute_speaker_stats(corpus)

    @pytest.mark.parametrize("percentiles", [(95.0, 5.0), (50.0, 50.0), (-1.0, 95.0), (5.0, 101.0)])
    def test_percentiles_out_of_order_are_refused(self, rng, percentiles):
        corpus = _corpus_with_durations(rng, [2.0, 3.0])
        with pytest.raises(DataError) as err:
            compute_speaker_stats(corpus, range_percentiles=percentiles)
        assert str(err.value) == f"percentiles must satisfy 0 <= low < high <= 100, got {percentiles}"
        assert err.value.exit_code == 2

    def test_degenerate_f0_range(self):
        # the F0 varies, but both percentiles fall on the repeated value exp(0) = 1 Hz
        phones = [
            PhoneFeature("AA", 0, 1.0, 0.0, 0.5, True, False),
            PhoneFeature("IY", 0, 1.0, 0.0, 0.7, True, False),
            PhoneFeature("EH", 0, 1.0, 0.1, 0.6, True, False),
        ]
        corpus = [make_utterance("u1", "spk1", "hi", phones, normalized=False)]
        with pytest.raises(DataError) as err:
            compute_speaker_stats(corpus, range_percentiles=(10.0, 50.0))
        assert str(err.value) == "degenerate F0 range: percentiles give [1.0, 1.0]"
        assert err.value.exit_code == 2

    def test_overflowing_statistics_are_refused(self):
        # the log-energies' sum overflows, so their mean and deviation would be inf
        phones = [
            PhoneFeature("AA", 0, 1.0, 5.0, 1e308, True, False),
            PhoneFeature("IY", 1, 1.0, 5.3, 1e308, True, False),
            PhoneFeature("EH", 2, 1.0, 5.1, -1.0, True, False),
        ]
        corpus = [make_utterance("u1", "spk1", "a b c", phones, normalized=False)]
        with pytest.raises(DataError) as err:
            compute_speaker_stats(corpus)
        assert str(err.value) == "mu_loge must be finite, got inf"

    def test_rejects_normalized_input(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        with pytest.raises(Exception) as err:
            compute_speaker_stats([utterance])
        assert "raw" in str(err.value)

    def test_f0_range_is_the_same_on_every_cpu(self):
        # numpy's AVX-512 exp put f0_max_hz at 300.7241161031119 for this corpus; math.exp
        # gives numpy's result on CPUs without AVX-512
        rng = random.Random(12)
        corpus = [random_raw_utterance(rng, f"u{i}", total_duration_s=rng.uniform(1.6, 4.0), n_words=4)
                  for i in range(5)]
        stats = compute_speaker_stats(corpus)
        assert (stats.f0_min_hz, stats.f0_max_hz) == (120.05295276567982, 300.72411610311195)

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
        with pytest.raises(DataError, match="stats file is missing keys") as err:
            parse_speaker_stats(truncated)
        assert "f0_max_hz" in str(err.value)

    def test_invalid_sigma(self):
        doc = serialize_speaker_stats(make_stats()).replace("0.25", "0.0")
        with pytest.raises(DataError, match="sigma_logf0 must be > 0"):
            parse_speaker_stats(doc)

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            pytest.param(lambda doc: doc.replace("sigma_logf0\t", "sigma_logf0 "),
                         "line 2: expected key<TAB>value", id="no-tab"),
            pytest.param(lambda doc: doc.replace("sigma_logf0\t0.25", "sigma_logf0\t0.25\t0.5"),
                         "line 2: expected key<TAB>value", id="three-fields"),
            pytest.param(lambda doc: doc + "pitch\t1.0\n", "line 7: unknown stats key 'pitch'", id="unknown-key"),
            pytest.param(lambda doc: doc + doc.split("\n")[0] + "\n", "line 7: duplicate stats key 'mu_logf0'",
                         id="duplicate-key"),
            pytest.param(lambda doc: doc.replace("sigma_loge\t0.5", "sigma_loge\t-0.5"),
                         "sigma_loge must be > 0, got -0.5", id="sigma-loge"),
            pytest.param(lambda doc: doc.replace("f0_min_hz\t100.0", "f0_min_hz\t300.0"),
                         "F0 range must satisfy 0 < min < max, got [300.0, 300.0]", id="empty-f0-range"),
            pytest.param(lambda doc: doc.replace("f0_min_hz\t100.0", "f0_min_hz\t0.0"),
                         "F0 range must satisfy 0 < min < max, got [0.0, 300.0]", id="zero-f0-min"),
        ],
    )
    def test_refusals(self, edit, fragment):
        doc = edit(serialize_speaker_stats(make_stats()))
        with pytest.raises(DataError) as caught:
            parse_speaker_stats(doc)
        assert fragment in str(caught.value)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# the named finite values of the readers: the signed zero, subnormals, and 1e308 and its upper neighbour, whose six
# decimals take 309 digits; for a duration, also both sides of 5e-7, below which six decimals round to zero, and of
# the writer's 1e-6 value check
EDGE_FINITE = st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310, 1e308, math.nextafter(1e308, math.inf), -1e308])
EDGE_POSITIVE = st.sampled_from(
    [5e-324, 2.5e-310, 1e308, math.nextafter(1e308, math.inf), *_neighbours(5e-7), *_neighbours(1e-6)]
)


def edge_drawer(draw):
    """``rare(edges, plain)``: a value of ``edges`` once in ``odds`` draws, else of ``plain``.  ``odds`` is drawn
    once per example: 0 (never an edge), 12 or 3."""
    odds = draw(st.sampled_from([0, 12, 3]))

    def rare(edges, plain):
        return draw(edges) if odds and draw(st.integers(1, odds)) == 1 else draw(plain)

    return rare


@st.composite
def feature_documents(draw):
    """A valid feature document whose numbers are written with any number of digits; some are named edges."""
    rare = edge_drawer(draw)

    def finite():
        return repr(rare(EDGE_FINITE, FINITE))

    def duration():
        return repr(rare(EDGE_POSITIVE, POSITIVE))

    lines = ["#feature-file\tv1"]
    for u in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=5))
        variant = draw(st.sampled_from(["raw", "norm"]))
        lines.append(f"#utterance\tu{u}\tspk1\t{variant}\t{' '.join(words)}")
        for j in range(len(words)):
            for _ in range(draw(st.integers(1, 3))):
                voiced = draw(st.booleans())
                f0 = finite() if voiced else "-"
                label = draw(st.sampled_from(PHONE_LABELS))
                row = [label, str(j), duration(), f0, finite()]
                lines.append("\t".join(row + ["1" if voiced else "0", "0"]))
            if draw(st.booleans()):
                lines.append(f"sp\t-\t{duration()}\t-\t{finite()}\t0\t1")
    return "\n".join(lines) + "\n"


# what float() refuses, what it reads as not finite, flags other than 0/1, and word indices of any kind
NOT_NUMBERS = st.sampled_from(["", "x", "-", "1.2.3", "0x1", "1e", "--1", "1,5", "½"])
NOT_FINITE = st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e999", "-1e999"])
BAD_FLAGS = st.sampled_from(["", "2", "01", "-1", "true", " 1", "1.0"])
WORD_INDICES = st.sampled_from(["x", "1.5", "", "-", "٣"]) | st.integers(-3, 8).map(str)


@st.composite
def corrupted_feature_documents(draw):
    """A feature_documents() document with at most one field of one phone row corrupted."""
    lines = draw(feature_documents()).split("\n")
    kind = draw(st.sampled_from(["none", "not a number", "not finite", "flag", "word index", "field count"]))
    if kind == "none":
        return "\n".join(lines)
    k = draw(st.sampled_from([k for k, line in enumerate(lines) if line and not line.startswith("#")]))
    fields = lines[k].split("\t")
    if kind in ("not a number", "not finite"):  # duration, F0 or energy
        fields[draw(st.sampled_from([2, 3, 4]))] = draw(NOT_NUMBERS if kind == "not a number" else NOT_FINITE)
    elif kind == "flag":
        fields[draw(st.sampled_from([5, 6]))] = draw(BAD_FLAGS)
    elif kind == "word index":
        fields[1] = draw(WORD_INDICES)
    else:
        fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
    lines[k] = "\t".join(fields)
    return "\n".join(lines)


NO_WHITESPACE = st.text(min_size=1).filter(lambda s: not any(c.isspace() for c in s))


@st.composite
def made_utterances(draw):
    """Utterances from make_utterance, with any id, label, text and number it takes; ids may repeat."""
    utterances = []
    for _ in range(draw(st.integers(1, 3))):
        uid = draw(st.sampled_from(["u1", "u2"]) | NO_WHITESPACE)
        text = draw(st.text().filter(lambda t: "\t" not in t and "\n" not in t) | st.sampled_from(WORD_POOL))
        phones = []
        for j in [None] * draw(st.integers(0, 1)) + list(range(len(tokenize_words(text)))):
            pause = j is None and draw(st.booleans())
            voiced = not pause and draw(st.booleans())
            phones.append(PhoneFeature(
                draw(st.text()), j, draw(st.floats(min_value=0.0, exclude_min=True)),
                draw(st.floats()) if voiced else None, draw(st.floats()), voiced, pause,
            ))
        if not phones:
            phones.append(PhoneFeature(draw(st.text()), None, 0.5, None, 0.0, False, True))
        utterances.append(make_utterance(uid, draw(NO_WHITESPACE), text, phones, draw(st.booleans())))
    return utterances


def at_six_decimals(utterance):
    """``utterance`` with each number as the feature file writes it: 6 decimals."""
    def six(x):
        return None if x is None else float(f"{x:.6f}")
    return utterance._replace(phones=tuple(
        ph._replace(duration_s=six(ph.duration_s), f0=six(ph.f0), energy=six(ph.energy)) for ph in utterance.phones
    ))


class TestFormatProperties:
    @PROPERTIES
    @given(document=corrupted_feature_documents())
    def test_reader_gives_the_naive_readers_phones_or_refusal(self, document):
        expected = naive_parse_features(document)
        try:
            utterances = parse_features(document)
        except DataError as exc:
            assert str(exc) == expected
        else:
            assert [(u.id, u.speaker_id, u.text, u.normalized, u.phones) for u in utterances] == expected

    @PROPERTIES
    @given(utterances=made_utterances())
    def test_written_utterances_read_back_at_six_decimals(self, utterances):
        """The writer refuses the utterances, or the reader gives them back at the file's precision."""
        try:
            document = serialize_features(utterances)
        except DataError:
            return
        assert parse_features(document) == [at_six_decimals(u) for u in utterances]

    @PROPERTIES
    @given(
        mu_logf0=EDGE_FINITE | FINITE,
        sigma_logf0=EDGE_POSITIVE | POSITIVE,
        mu_loge=EDGE_FINITE | FINITE,
        sigma_loge=EDGE_POSITIVE | POSITIVE,
        f0_range=st.lists(EDGE_POSITIVE | POSITIVE, min_size=2, max_size=2, unique=True).map(sorted),
    )
    def test_stats_round_trip(self, mu_logf0, sigma_logf0, mu_loge, sigma_loge, f0_range):
        stats = SpeakerStats(mu_logf0, sigma_logf0, mu_loge, sigma_loge, *f0_range)
        again = parse_speaker_stats(serialize_speaker_stats(stats))
        assert list(map(repr, again)) == list(map(repr, stats))  # -0.0 too

    @PROPERTIES
    @given(document=feature_documents())
    def test_feature_document_fixed_point_after_one_pass(self, document):
        utterances = parse_features(document)
        try:
            canonical = serialize_features(utterances)
        except DataError as exc:
            # a duration under 0.5 us would be written as 0.000000, which parse refuses
            assert "rounds to 0.000000" in str(exc)
            assert any(ph.duration_s < 1e-6 for u in utterances for ph in u.phones)
            return
        again = parse_features(canonical)
        assert serialize_features(again) == canonical
        assert again == parse_features(serialize_features(again))

    @PROPERTIES
    @given(seed=st.integers(0, 2**32 - 1), index=st.just(-1) | st.integers(max_value=-1))
    def test_negative_word_index_is_refused_by_the_validator(self, seed, index):
        rng = random.Random(seed)
        utterance = random_utterance(rng, random_stats(rng))
        k = rng.choice([k for k, ph in enumerate(utterance.phones) if ph.word_index is not None])
        phones = list(utterance.phones)
        phones[k] = phones[k]._replace(word_index=index)
        message = f"word index {index} out of range (W={len(utterance.words)})"
        with pytest.raises(DataError) as caught:
            make_utterance(utterance.id, utterance.speaker_id, utterance.text, phones, normalized=True)
        assert str(caught.value) == f"utterance u1: {message}"
        # the writer writes such a phone; the reader refuses it with the same message, naming its line
        document = serialize_features([utterance._replace(phones=tuple(phones))])
        with pytest.raises(DataError) as caught:
            parse_features(document)
        assert str(caught.value) == f"utterance u1 line {k + 3}: {message}"


# the named values of a duration, F0 or energy: both sides of 5e-7, below which six decimals round to zero, and
# of the writer's 1e-6 value check; the signed zeros, subnormals, the infinities, nan and a 309-digit number
EDGE_NUMBERS = st.sampled_from(
    [*_neighbours(5e-7), *_neighbours(1e-6), 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, math.inf, -math.inf, math.nan, 1e308]
)
# labels the value check passes (alphanumeric), and labels it leaves to the full row check: ones that read back,
# ones holding a tab or a newline, and ones starting with the utterance tag
LABELS = st.one_of(
    st.sampled_from(PHONE_LABELS),
    st.text(string.ascii_letters + string.digits + "éΩ٣", min_size=1, max_size=4),
    st.sampled_from(["", "#", "ə:", "A B", "A\rB", "x#utterance", "#utteranc", "sp-1"]),
    st.tuples(st.text(max_size=3), st.sampled_from("\t\n"), st.text(max_size=3)).map("".join),
    st.text(max_size=4).map("#utterance".__add__),
)


@st.composite
def writer_inputs(draw):
    """Utterances built with tuple.__new__, so they may hold what make_utterance refuses; ids may repeat."""
    new = tuple.__new__
    rare = edge_drawer(draw)

    def number(plain):
        return rare(EDGE_NUMBERS | st.floats(), plain)

    utterances = []
    for _ in range(draw(st.integers(0, 3))):
        phones = []
        for _ in range(draw(st.integers(0, 5))):
            f0 = None if draw(st.booleans()) else number(st.floats(-4.0, 4.0))
            label = rare(LABELS, st.sampled_from(PHONE_LABELS))
            word_index = draw(st.none() | st.integers(0, 9))
            phones.append(new(PhoneFeature, (
                label, word_index, number(st.floats(1e-6, 2.0)), f0, number(st.floats(-4.0, 4.0)),
                draw(st.booleans()), draw(st.booleans()),
            )))
        uid = draw(st.sampled_from(["u1", "u2"]) | st.text(max_size=3))
        utterances.append(new(features.UtteranceFeatures, (
            uid, draw(st.sampled_from(["spk1", ""])), draw(st.text(max_size=8)), (), tuple(phones), draw(st.booleans()),
        )))
    return utterances


def written(writer, utterances):
    """The document ``writer`` writes, or the message of its refusal."""
    try:
        return writer(utterances)
    except DataError as exc:
        return f"refused: {exc}"


# module-level functions, not methods: the second calls the first, and a property must run on one executor
@PROPERTIES
@given(utterances=writer_inputs())
def test_the_writer_gives_the_naive_writers_bytes_or_refusal(utterances):
    assert written(features.serialize_features, utterances) == written(naive_serialize_features, utterances)


def test_the_writer_property_reaches_the_value_check_and_both_ends_of_the_full_row_check(monkeypatch):
    seen = Counter()
    check_row, serialize = features._check_row, features.serialize_features

    def counted_check_row(*row):
        seen["full row check"] += 1
        check_row(*row)
        seen["written after the full row check"] += 1

    def counted_serialize(utterances):
        before = seen["written after the full row check"]
        document = serialize(utterances)
        rows = document.count("\n") - 1 - len(utterances)
        seen["written after the value check alone"] += rows - (seen["written after the full row check"] - before)
        seen["documents"] += 1
        return document

    monkeypatch.setattr(features, "_check_row", counted_check_row)
    monkeypatch.setattr(features, "serialize_features", counted_serialize)
    test_the_writer_gives_the_naive_writers_bytes_or_refusal()
    refused = seen["full row check"] - seen["written after the full row check"]
    assert refused > 0 and seen["written after the full row check"] > 0
    assert seen["written after the value check alone"] > 0


# numpy with its AVX-512 code paths off, where its exp equals math.exp.  numpy 2.4 names the
# group X86_V4 and ignores the older AVX512* names, which earlier releases use.
NUMPY_WITHOUT_AVX512 = (
    "X86_V4,AVX512F,AVX512CD,AVX512_KNL,AVX512_KNM,AVX512_SKX,AVX512_CLX,AVX512_CNL,AVX512_ICL,AVX512_SPR"
)


def run_numpy(script, cases):
    """Run ``script`` in one numpy process without AVX-512, with ``cases`` as JSON on stdin; return its JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(cases),
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": NUMPY_WITHOUT_AVX512},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def drawn(strategy):
    """The examples Hypothesis draws from ``strategy``, collected so that one numpy run checks them all."""
    examples = []

    @PROPERTIES
    @given(strategy)
    def record(example):
        examples.append(example)

    record()
    return examples


# both sides of numpy's pairwise-sum thresholds (8 values, blocks of 128) and of its 8192-value buffer
SIZES = st.one_of(st.integers(2, 300), st.sampled_from([7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 20000]))


@st.composite
def samples(draw):
    n = draw(SIZES)
    if n <= 64 and draw(st.booleans()):
        return draw(st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    center = draw(st.sampled_from([0.0, 5.3, -300.0, 1e9]))
    scale = draw(st.sampled_from([1e-6, 0.3, 40.0]))
    return [center + scale * rng.gauss(0.0, 1.0) for _ in range(n)]


@st.composite
def raw_columns(draw):
    """Voiced log-F0 and all log-energies of a raw corpus, and the range percentiles."""
    n = draw(SIZES)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    logf0 = [round(math.log(rng.uniform(60.0, 500.0)), 6) for _ in range(n)]
    if draw(st.booleans()):
        logf0[rng.randrange(n)] = 800.0  # exp overflows: inf in numpy, as in the statistics
    loge = [round(math.log(rng.uniform(0.05, 20.0)), 6) for _ in range(n + rng.randrange(n))]
    low = draw(st.sampled_from([5.0, 1.0]) | st.floats(0.0, 50.0, exclude_max=True))
    high = draw(st.sampled_from([95.0, 99.0, 100.0]) | st.floats(50.0, 100.0))
    return logf0, loge, low, high


MOMENTS_BY_NUMPY = """
import json, sys
import numpy as np
json.dump([[float(np.mean(v)), float(np.std(v, ddof=1)), [float(p) for p in np.percentile(v, qs)]]
           for v, qs in json.load(sys.stdin)], sys.stdout)
"""

# the statistics of compute_speaker_stats, computed with numpy
STATS_BY_NUMPY = """
import json, sys
import numpy as np
out = []
for logf0, loge, low, high in json.load(sys.stdin):
    f0_range = np.percentile(np.exp(logf0), [low, high])
    out.append([float(np.mean(logf0)), float(np.std(logf0, ddof=1)), float(np.mean(loge)),
                float(np.std(loge, ddof=1))] + [float(v) for v in f0_range])
json.dump(out, sys.stdout)
"""


class TestNumpyAgreement:
    def test_mean_std_and_percentile_equal_numpy_bit_for_bit(self):
        cases = drawn(st.tuples(samples(), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3)))
        for (values, qs), (m, sd, ps) in zip(cases, run_numpy(MOMENTS_BY_NUMPY, cases)):
            assert repr(mean(values)) == repr(m), len(values)
            assert repr(sample_std(values)) == repr(sd), len(values)
            # zeros of either sign tie in a sort, so the sign of a zero percentile is not compared
            ascending = sorted(values)
            assert [percentile(ascending, q) for q in qs] == ps, len(values)

    def test_speaker_stats_equal_numpy_bit_for_bit(self):
        cases = drawn(raw_columns())
        for (logf0, loge, low, high), expected in zip(cases, run_numpy(STATS_BY_NUMPY, cases)):
            phones = [PhoneFeature("AA", 0, 1.0, f0, e, True, False) for f0, e in zip(logf0, loge)]
            phones += [PhoneFeature("T", 0, 1.0, None, e, False, False) for e in loge[len(logf0):]]
            corpus = [make_utterance("u1", "spk1", "hi", phones, normalized=False)]
            f0_min, f0_max = expected[4:]
            if not f0_min < f0_max:  # an inf at the top of the range interpolates to nan
                with pytest.raises(DataError, match="degenerate F0 range"):
                    compute_speaker_stats(corpus, range_percentiles=(low, high))
                continue
            if f0_max == math.inf:  # the range ends at an inf itself, which SpeakerStats refuses
                with pytest.raises(DataError, match="^f0_max_hz must be finite, got inf$"):
                    compute_speaker_stats(corpus, range_percentiles=(low, high))
                continue
            stats = compute_speaker_stats(corpus, range_percentiles=(low, high))
            got = [stats.mu_logf0, stats.sigma_logf0, stats.mu_loge, stats.sigma_loge,
                   stats.f0_min_hz, stats.f0_max_hz]
            assert list(map(repr, got)) == list(map(repr, expected)), (len(logf0), low, high)
