import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from llmprosody.errors import DataError
from llmprosody.features import PhoneFeature, denorm_f0, make_utterance, tokenize_words
from llmprosody.mapping import (
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
    validate_plan,
)

from conftest import (
    PROPERTIES,
    identity_suggestion,
    make_stats,
    random_raw_utterance,
    random_stats,
    random_suggestion,
    random_utterance,
)
from reference import naive_parse_plan


def utterance_at_hz(hz_values, stats, text=None):
    """Normalized utterance with one voiced phone per given linear-Hz F0."""
    words = text or " ".join(f"w{i}" for i in range(len(hz_values)))
    phones = [
        PhoneFeature(
            label=f"P{i}",
            word_index=i,
            duration_s=0.1,
            f0=(math.log(hz) - stats.mu_logf0) / stats.sigma_logf0,
            energy=0.5,
            voiced=True,
            pause=False,
        )
        for i, hz in enumerate(hz_values)
    ]
    return make_utterance("u1", "spk1", words, phones, normalized=True)


class TestComputePitchBounds:
    def test_example_values(self):
        stats = make_stats(f0_min_hz=100.0, f0_max_hz=300.0)
        utterance = utterance_at_hz([150.0, 200.0], stats)
        bounds = compute_pitch_bounds(utterance, stats)
        assert bounds.p_min_hz == pytest.approx(-50.0, abs=1e-9)
        assert bounds.p_max_hz == pytest.approx(100.0, abs=1e-9)

    def test_utterance_at_speaker_max(self):
        stats = make_stats(f0_min_hz=100.0, f0_max_hz=300.0)
        utterance = utterance_at_hz([200.0, 300.0], stats)
        bounds = compute_pitch_bounds(utterance, stats)
        # at the boundary only normalization round-trip noise remains
        assert 0.0 <= bounds.p_max_hz < 1e-9
        assert bounds.p_min_hz == pytest.approx(-100.0, abs=1e-9)

    def test_utterance_above_speaker_max_clamps_to_zero(self):
        stats = make_stats(f0_min_hz=100.0, f0_max_hz=300.0)
        utterance = utterance_at_hz([200.0, 320.0], stats)
        bounds = compute_pitch_bounds(utterance, stats)
        assert bounds.p_max_hz == 0.0

    def test_no_voiced_phones(self):
        stats = make_stats()
        phones = [PhoneFeature("T", 0, 0.1, None, 0.5, False, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        with pytest.raises(DataError, match="has no voiced phones"):
            compute_pitch_bounds(utterance, stats)

    def test_raw_utterance_is_refused(self, rng):
        utterance = random_raw_utterance(rng, "u1", total_duration_s=2.0)
        with pytest.raises(DataError) as err:
            compute_pitch_bounds(utterance, make_stats())
        assert str(err.value) == "utterance u1: pitch bounds require normalized features"
        assert err.value.exit_code == 2

    def test_zero_shift_always_admissible(self, rng):
        for _ in range(50):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats)
            bounds = compute_pitch_bounds(utterance, stats)
            assert bounds.p_min_hz <= 0.0 <= bounds.p_max_hz

    def test_grid_of_shifts_keeps_range(self, rng):
        for _ in range(50):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats)
            bounds = compute_pitch_bounds(utterance, stats)
            voiced_hz = [
                denorm_f0(ph.f0, stats) for ph in utterance.phones if ph.voiced
            ]
            for step in range(21):
                shift = bounds.p_min_hz + (bounds.p_max_hz - bounds.p_min_hz) * step / 20
                for hz in voiced_hz:
                    shifted = hz + shift
                    assert stats.f0_min_hz - 1e-9 <= shifted <= stats.f0_max_hz + 1e-9


class TestScaleMaps:
    def test_global_endpoints_exact(self):
        assert map_global_scale(-5.0) == 0.5
        assert map_global_scale(0.0) == 1.0
        assert map_global_scale(5.0) == 2.0

    def test_global_upper_midpoint(self):
        assert map_global_scale(2.5) == 1.5

    def test_local_endpoints_exact(self):
        assert map_local_scale(0.0) == 1.0
        assert map_local_scale(5.0) == 2.0

    def test_local_linear_formula(self):
        assert map_local_scale(2.0) == 1.4

    def test_both_monotone_and_continuous(self, rng):
        previous_g, previous_l = None, None
        for step in range(201):
            v = -5.0 + step * 0.05
            g = map_global_scale(v)
            assert 0.5 <= g <= 2.0
            if previous_g is not None:
                assert g >= previous_g
            previous_g = g
        for step in range(101):
            v = step * 0.05
            l = map_local_scale(v)
            assert 1.0 <= l <= 2.0
            if previous_l is not None:
                assert l >= previous_l
            previous_l = l
        # identity at zero from both sides
        assert map_global_scale(-1e-12) == pytest.approx(1.0, abs=1e-12)
        assert map_global_scale(1e-12) == pytest.approx(1.0, abs=1e-12)


class TestMapPitch:
    def test_identity(self):
        bounds = PitchBounds(-50.0, 100.0)
        assert map_pitch(0.0, 0.0, bounds) == (0.0, 0.0)

    def test_clamp_at_upper_bound(self):
        bounds = PitchBounds(-50.0, 100.0)
        g, pi = map_pitch(5.0, 5.0, bounds, MappingConfig(local_pitch_cap_fraction=0.5))
        assert g == 100.0
        assert pi == 0.0

    def test_negative_global_maps_to_p_min(self):
        bounds = PitchBounds(-50.0, 100.0)
        g, pi = map_pitch(-5.0, 0.0, bounds)
        assert g == pytest.approx(-50.0)
        assert pi == 0.0

    def test_local_cap(self):
        bounds = PitchBounds(-50.0, 100.0)
        g, pi = map_pitch(0.0, 5.0, bounds, MappingConfig(local_pitch_cap_fraction=0.5))
        assert g == 0.0
        assert pi == pytest.approx(50.0)

    def test_constraint_always_holds(self, rng):
        for _ in range(1000):
            p_max = rng.uniform(0.0, 150.0)
            p_min = rng.uniform(-150.0, 0.0)
            bounds = PitchBounds(p_min, p_max)
            config = MappingConfig(local_pitch_cap_fraction=rng.random())
            g, pi = map_pitch(rng.uniform(-5, 5), rng.uniform(0, 5), bounds, config)
            assert pi >= 0.0
            assert bounds.p_min_hz <= g + pi <= bounds.p_max_hz

    def test_float_guard_is_needed(self):
        # g = 2.12, and 2.12 + (10.6 - 2.12) rounds up to 10.600000000000001:
        # cutting the local shift to the exact headroom alone breaks the bound
        bounds = PitchBounds(-10.0, 10.6)
        g_naive = (1.0 / 5.0) * bounds.p_max_hz
        assert g_naive + (bounds.p_max_hz - g_naive) > bounds.p_max_hz
        g, pi = map_pitch(1.0, 5.0, bounds, MappingConfig(local_pitch_cap_fraction=1.0))
        assert g == g_naive
        assert pi < bounds.p_max_hz - g
        assert g + pi <= bounds.p_max_hz


    @pytest.mark.parametrize(
        "v_global, v_local, message",
        [
            (-6.0, 0.0, "global pitch -6.0 is not in [-5, 5]"),
            (-math.inf, 0.0, "global pitch -inf is not in [-5, 5]"),
            (math.nan, 0.0, "global pitch nan is not in [-5, 5]"),
            (0.0, -1.0, "local pitch -1.0 is not in [0, 5]"),
            (0.0, 5.5, "local pitch 5.5 is not in [0, 5]"),
            (0.0, math.inf, "local pitch inf is not in [0, 5]"),
            (0.0, math.nan, "local pitch nan is not in [0, 5]"),
        ],
    )
    def test_value_off_its_scale_is_refused(self, v_global, v_local, message):
        with pytest.raises(DataError) as err:
            map_pitch(v_global, v_local, PitchBounds(-10.0, 10.0))
        assert str(err.value) == message
        assert err.value.exit_code == 2

    @pytest.mark.parametrize("v_global", ["6.0", "inf"])
    def test_global_above_the_scale_is_refused_not_looped(self, v_global):
        # the shift alone would exceed p_max, which no cut of the local shift can mend:
        # run in a fresh interpreter, so that a call that never returns fails on the timeout
        code = (
            "import sys\n"
            "from llmprosody.errors import DataError\n"
            "from llmprosody.mapping import PitchBounds, map_pitch\n"
            "try:\n"
            "    map_pitch(float(sys.argv[1]), 0.0, PitchBounds(-10.0, 10.0))\n"
            "except DataError as exc:\n"
            "    print(exc, exc.exit_code)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code, v_global],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert completed.stdout == f"global pitch {float(v_global)!r} is not in [-5, 5] 2\n"


class TestMappingConfig:
    @pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
    def test_cap_fraction_outside_unit_range_is_refused(self, fraction):
        with pytest.raises(DataError) as err:
            MappingConfig(local_pitch_cap_fraction=fraction)
        assert str(err.value) == f"local_pitch_cap_fraction must be in [0, 1], got {fraction}"
        assert err.value.exit_code == 2


class TestBuildPlan:
    def test_all_zero_suggestion_gives_identity_plan(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        plan = build_plan(identity_suggestion(utterance), utterance, stats)
        assert plan.g_dur == 1.0
        assert plan.g_energy == 1.0
        assert plan.g_pitch_hz == 0.0
        assert plan.clamp_notes == ()
        for word in plan.words:
            assert word.delta == 1.0 and word.epsilon == 1.0 and word.pi_hz == 0.0

    def test_out_of_range_global_clamps_and_reports(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        suggestion = identity_suggestion(utterance)
        suggestion = type(suggestion)(
            global_duration=7.0,
            global_pitch=0.0,
            global_energy=0.0,
            words=suggestion.words,
        )
        plan = build_plan(suggestion, utterance, stats)
        assert plan.g_dur == 2.0

    def test_out_of_range_word_value_clamps_and_reports(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats, n_words=3)
        suggestion = identity_suggestion(utterance)
        third = suggestion.words[2]
        words = suggestion.words[:2] + (type(third)(third.key, 0.0, 7.0, -1.5),)
        plan = build_plan(type(suggestion)(0.0, 0.0, 0.0, words=words), utterance, stats)
        # pitch 7.0 is clamped to 5.0 and energy -1.5 to 0.0
        clamped = suggestion.words[:2] + (type(third)(third.key, 0.0, 5.0, 0.0),)
        assert plan == build_plan(type(suggestion)(0.0, 0.0, 0.0, words=clamped), utterance, stats)
        assert plan.words[2].epsilon == 1.0

    def test_plan_ranges_hold_for_wild_suggestions(self, rng):
        for case in range(300):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            suggestion = random_suggestion(rng, utterance, wild=True)
            plan = build_plan(suggestion, utterance, stats)
            validate_plan(plan)  # raises on any range violation
            assert 0.5 <= plan.g_dur <= 2.0
            assert 0.5 <= plan.g_energy <= 2.0
            for word in plan.words:
                assert 1.0 <= word.delta <= 2.0
                assert 1.0 <= word.epsilon <= 2.0
                assert plan.bounds.p_min_hz <= plan.g_pitch_hz + word.pi_hz <= plan.bounds.p_max_hz

    def test_word_count_mismatch(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats, n_words=3)
        suggestion = identity_suggestion(utterance)
        truncated = type(suggestion)(0.0, 0.0, 0.0, words=suggestion.words[:-1])
        with pytest.raises(DataError, match="suggestion has 2 words, target text has 3"):
            build_plan(truncated, utterance, stats)

    def test_word_key_mismatch(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats, n_words=3)
        suggestion = identity_suggestion(utterance)
        words = list(suggestion.words)
        words[0] = type(words[0])("nonsuch", 0.0, 0.0, 0.0)
        with pytest.raises(DataError, match="suggestion says 'nonsuch', target text says"):
            build_plan(type(suggestion)(0.0, 0.0, 0.0, words=tuple(words)), utterance, stats)

    def test_utterance_without_words_is_refused(self):
        stats = make_stats()
        phones = [PhoneFeature("AA", None, 0.1, 0.0, 0.5, True, False)]
        utterance = make_utterance("u1", "spk1", "...", phones, normalized=True)
        with pytest.raises(DataError) as err:
            build_plan(LlmScaleSuggestion(0.0, 0.0, 0.0, words=()), utterance, stats)
        assert str(err.value) == "a suggestion requires at least one word"
        assert err.value.exit_code == 2

    @pytest.mark.parametrize("where", ["global", "word"])
    def test_non_finite_suggestion_raises(self, rng, where):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        base = identity_suggestion(utterance)
        if where == "global":
            suggestion = type(base)(math.nan, 0.0, 0.0, words=base.words)
        else:
            first = type(base.words[0])(base.words[0].key, 0.0, math.nan, 0.0)
            suggestion = type(base)(0.0, 0.0, 0.0, words=(first,) + base.words[1:])
        with pytest.raises(DataError):
            build_plan(suggestion, utterance, stats)

    @PROPERTIES
    @given(
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(
            st.one_of(st.floats(), st.floats(-6.0, 6.0)), min_size=3 + 3 * 8, max_size=3 + 3 * 8
        ),
    )
    def test_plan_is_valid_or_refused(self, seed, values):
        rng = random.Random(seed)
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats)
        n = len(utterance.words)
        suggestion = type(identity_suggestion(utterance))(
            *values[:3],
            words=tuple(
                WordSuggestion(word.key, *values[3 + 3 * i:6 + 3 * i])
                for i, word in enumerate(utterance.words)
            ),
        )
        used = values[:3 + 3 * n]
        try:
            plan = build_plan(suggestion, utterance, stats)
        except DataError:
            assert not all(math.isfinite(v) for v in used)
            return
        assert all(math.isfinite(v) for v in used)
        validate_plan(plan)

    def test_clamp_ordering_matches_endpoint(self, rng):
        # a wild value and the scale endpoint map to the same coefficient
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        base = identity_suggestion(utterance)
        wild = type(base)(100.0, 0.0, 0.0, words=base.words)
        capped = type(base)(5.0, 0.0, 0.0, words=base.words)
        assert build_plan(wild, utterance, stats).g_dur == build_plan(capped, utterance, stats).g_dur


PLAN_GLOBAL = "GLOBAL\t1.0\t0.0\t1.0"
PLAN_WORD = "WORD\t0\they\t1.0\t0.0\t1.0"
PLAN_BOUNDS = "BOUNDS\t-50.0\t50.0"


class TestPlanFile:
    def test_round_trip_exact(self, rng):
        for case in range(100):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            plan = build_plan(random_suggestion(rng, utterance, wild=True), utterance, stats)
            assert parse_plan(serialize_plan(plan)) == plan

    @PROPERTIES
    @given(
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(
            st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=3 + 3 * 8,
            max_size=3 + 3 * 8,
        ),
    )
    def test_round_trip_property(self, seed, values):
        rng = random.Random(seed)
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats)
        suggestion = type(identity_suggestion(utterance))(
            *values[:3],
            words=tuple(
                WordSuggestion(word.key, *values[3 + 3 * i:6 + 3 * i])
                for i, word in enumerate(utterance.words)
            ),
        )
        plan = build_plan(suggestion, utterance, stats)
        assert parse_plan(serialize_plan(plan)) == plan

    @PROPERTIES
    @given(text=st.text(), data=st.data())
    def test_every_valid_plan_round_trips(self, text, data):
        # surfaces are whatever the tokenizer gives; a word's number in the file is its position
        words = tokenize_words(text)
        assume(words)
        p_min = data.draw(st.floats(-1e6, 0.0))
        p_max = data.draw(st.floats(0.0, 1e6))
        g_pitch_hz = data.draw(st.floats(p_min, p_max))
        scale, local = st.floats(0.5, 2.0), st.floats(1.0, 2.0)
        plan = ModificationPlan(
            g_dur=data.draw(scale),
            g_pitch_hz=g_pitch_hz,
            g_energy=data.draw(scale),
            words=tuple(
                WordCoefficients(
                    w.surface, data.draw(local), data.draw(st.floats(0.0, p_max - g_pitch_hz)), data.draw(local)
                )
                for w in words
            ),
            bounds=PitchBounds(p_min, p_max),
        )
        try:
            validate_plan(plan)
        except DataError:  # a rounded sum past p_max
            assume(False)
        assert parse_plan(serialize_plan(plan)) == plan

    @PROPERTIES
    @given(
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        value=st.sampled_from(["", "x", "-", "1.2.3", "1e", "inf", "-inf", "nan", "1e999", "٣"])
        | st.floats(allow_nan=False, allow_infinity=False).map(repr)
        | st.integers(-3, 9).map(str),
    )
    def test_reader_gives_the_naive_readers_plan_or_refusal(self, seed, data, value):
        # a written plan with at most one value replaced: a GLOBAL or BOUNDS value, or a WORD index or value
        rng = random.Random(seed)
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats)
        lines = serialize_plan(build_plan(random_suggestion(rng, utterance, wild=True), utterance, stats)).split("\n")
        k = data.draw(st.sampled_from(range(len(lines) - 1)))
        fields = lines[k].split("\t")
        slots = {"GLOBAL": [1, 2, 3], "WORD": [1, 3, 4, 5], "BOUNDS": [1, 2]}[fields[0]]
        if data.draw(st.booleans()):
            fields[data.draw(st.sampled_from(slots))] = value
        lines[k] = "\t".join(fields)
        document = "\n".join(lines)
        expected = naive_parse_plan(document)
        try:
            plan = parse_plan(document)
        except DataError as exc:
            assert str(exc) == expected
        else:
            assert plan == expected

    def test_layout(self):
        stats = make_stats()
        utterance = utterance_at_hz([200.0], stats, text="hey")
        plan = build_plan(identity_suggestion(utterance), utterance, stats)
        lines = serialize_plan(plan).strip().split("\n")
        assert lines[0].startswith("GLOBAL\t1.0\t0.0\t1.0")
        assert lines[1].startswith("WORD\t0\they\t1.0\t0.0\t1.0")
        assert lines[2].startswith("BOUNDS\t")

    def test_rejects_out_of_range_plan(self):
        doc = (
            "GLOBAL\t3.0\t0.0\t1.0\n"
            "WORD\t0\they\t1.0\t0.0\t1.0\n"
            "BOUNDS\t-50.0\t50.0\n"
        )
        with pytest.raises(DataError, match=r"g_dur 3.0 outside \[0.5, 2\]"):
            parse_plan(doc)

    def test_rejects_pitch_constraint_violation(self):
        doc = (
            "GLOBAL\t1.0\t40.0\t1.0\n"
            "WORD\t0\they\t1.0\t20.0\t1.0\n"
            "BOUNDS\t-50.0\t50.0\n"
        )
        with pytest.raises(DataError, match="pitch shift 60.0 outside"):
            parse_plan(doc)

    # with more than one value at fault, the refusal names the first on the line
    @pytest.mark.parametrize(
        "word_line, message",
        [
            ("WORD\t0\they\tx\tinf\ty", "line 2: delta 'x' is not a number"),
            ("WORD\t0\they\tnan\tx\t1.0", "line 2: delta must be finite, got 'nan'"),
            ("WORD\t0\they\t1.0\tx\tinf", "line 2: pi_hz 'x' is not a number"),
            ("WORD\t0\they\t1.0\t0.0\tinf", "line 2: epsilon must be finite, got 'inf'"),
        ],
    )
    def test_first_value_at_fault_is_named(self, word_line, message):
        with pytest.raises(DataError) as caught:
            parse_plan(f"GLOBAL\t1.0\t0.0\t1.0\n{word_line}\nBOUNDS\t-50.0\t50.0\n")
        assert str(caught.value) == message

    @pytest.mark.parametrize("bad", ["abc", "inf", "nan"])
    @pytest.mark.parametrize(
        "line_number, column, name",
        [(1, 1, "g_dur"), (1, 2, "g_pitch_hz"), (1, 3, "g_energy"),
         (2, 3, "delta"), (2, 4, "pi_hz"), (2, 5, "epsilon"),
         (3, 1, "p_min_hz"), (3, 2, "p_max_hz")],
    )
    def test_rejects_bad_number_naming_the_line(self, line_number, column, name, bad):
        lines = [
            ["GLOBAL", "1.0", "0.0", "1.0"],
            ["WORD", "0", "hey", "1.0", "0.0", "1.0"],
            ["BOUNDS", "-50.0", "50.0"],
        ]
        lines[line_number - 1][column] = bad
        doc = "".join("\t".join(fields) + "\n" for fields in lines)
        with pytest.raises(DataError, match="is not a number|must be finite") as caught:
            parse_plan(doc)
        message = str(caught.value)
        assert message.startswith(f"line {line_number}: {name} ")
        assert repr(bad) in message

    def test_rejects_missing_sections(self):
        with pytest.raises(DataError, match="plan document lacks a BOUNDS line"):
            parse_plan("GLOBAL\t1.0\t0.0\t1.0\n")

    @pytest.mark.parametrize(
        "lines, fragment",
        [
            pytest.param([PLAN_GLOBAL, PLAN_GLOBAL, PLAN_WORD, PLAN_BOUNDS], "line 2: duplicate GLOBAL line",
                         id="duplicate-global"),
            pytest.param([PLAN_GLOBAL, PLAN_WORD, PLAN_BOUNDS, PLAN_BOUNDS], "line 4: duplicate BOUNDS line",
                         id="duplicate-bounds"),
            pytest.param(["GLOBAL\t1.0\t0.0", PLAN_WORD, PLAN_BOUNDS], "line 1: GLOBAL needs 3 values",
                         id="global-fields"),
            pytest.param([PLAN_GLOBAL, "WORD\t0\they\t1.0\t0.0", PLAN_BOUNDS],
                         "line 2: WORD needs index, surface, 3 values", id="word-fields"),
            pytest.param([PLAN_GLOBAL, PLAN_WORD, "BOUNDS\t-50.0"], "line 3: BOUNDS needs 2 values",
                         id="bounds-fields"),
            pytest.param([PLAN_GLOBAL, "WORD\tzero\they\t1.0\t0.0\t1.0", PLAN_BOUNDS],
                         "line 2: word index 'zero'", id="word-index-not-integer"),
            pytest.param([PLAN_GLOBAL, "SHIFT\t1.0", PLAN_WORD, PLAN_BOUNDS], "line 2: unknown tag 'SHIFT'",
                         id="unknown-tag"),
            pytest.param([PLAN_WORD, PLAN_BOUNDS], "plan document lacks a GLOBAL line", id="no-global"),
            pytest.param([PLAN_GLOBAL, PLAN_BOUNDS], "plan document lacks WORD lines", id="no-word"),
            pytest.param([PLAN_GLOBAL, PLAN_WORD, "BOUNDS\t5.0\t10.0"],
                         "pitch bounds must satisfy p_min <= 0 <= p_max, got [5.0, 10.0]", id="bounds-above-zero"),
            pytest.param(["GLOBAL\t1.0\t0.0\t3.0", PLAN_WORD, PLAN_BOUNDS], "g_energy 3.0 outside [0.5, 2]",
                         id="g-energy"),
            pytest.param([PLAN_GLOBAL, "WORD\t0\they\t2.5\t0.0\t1.0", PLAN_BOUNDS],
                         "word 0: delta 2.5 outside [1, 2]", id="delta"),
            pytest.param([PLAN_GLOBAL, "WORD\t0\they\t1.0\t0.0\t0.5", PLAN_BOUNDS],
                         "word 0: epsilon 0.5 outside [1, 2]", id="epsilon"),
            pytest.param([PLAN_GLOBAL, "WORD\t0\they\t1.0\t-1.0\t1.0", PLAN_BOUNDS],
                         "word 0: pi_hz -1.0 must be >= 0", id="pi-hz"),
        ],
    )
    def test_refusals(self, lines, fragment):
        with pytest.raises(DataError) as caught:
            parse_plan("".join(line + "\n" for line in lines))
        assert fragment in str(caught.value)

    def test_rejects_out_of_order_words(self):
        doc = (
            "GLOBAL\t1.0\t0.0\t1.0\n"
            "WORD\t1\they\t1.0\t0.0\t1.0\n"
            "WORD\t0\tyo\t1.0\t0.0\t1.0\n"
            "BOUNDS\t-50.0\t50.0\n"
        )
        with pytest.raises(DataError, match=r"word index 1 out of order \(expected 0\)"):
            parse_plan(doc)
