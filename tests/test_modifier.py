import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from llmprosody.errors import DataError
from llmprosody.features import (
    PhoneFeature,
    denorm_energy,
    denorm_f0,
    make_utterance,
    parse_features,
    parse_speaker_stats,
    renorm_energy,
    renorm_f0,
    serialize_features,
    tokenize_words,
)
from llmprosody.llm import MockBackend, plan_utterance, suggest_with_repair
from llmprosody.mapping import (
    LlmScaleSuggestion,
    MappingConfig,
    ModificationPlan,
    WordCoefficients,
    WordSuggestion,
    build_plan,
    compute_pitch_bounds,
    parse_plan,
    serialize_plan,
)
from llmprosody.modifier import apply_plan
from llmprosody.prompting import Mode, PromptSpec

from conftest import (
    PROPERTIES,
    WORD_POOL,
    identity_suggestion,
    make_stats,
    random_stats,
    random_suggestion,
    random_utterance,
)
from reference import naive_apply_plan


def identity_plan(utterance, stats):
    return build_plan(identity_suggestion(utterance), utterance, stats)


def manual_plan(utterance, stats, g_dur=1.0, g_pitch=0.0, g_energy=1.0, delta=1.0, pi=0.0, epsilon=1.0):
    """Hand-set coefficients, with the BOUNDS apply_plan checks: those of ``utterance`` and ``stats``."""
    words = tuple(
        WordCoefficients(surface=w.surface, delta=delta, pi_hz=pi, epsilon=epsilon)
        for w in utterance.words
    )
    return ModificationPlan(
        g_dur=g_dur,
        g_pitch_hz=g_pitch,
        g_energy=g_energy,
        words=words,
        bounds=compute_pitch_bounds(utterance, stats),
    )


class TestNormalization:
    def test_denorm_at_mean(self):
        stats = make_stats(mu_hz=200.0, sigma_logf0=0.25)
        assert denorm_f0(0.0, stats) == pytest.approx(200.0, abs=1e-9)
        assert denorm_f0(0.0, stats) == math.exp(stats.mu_logf0)

    def test_denorm_one_sigma(self):
        stats = make_stats(mu_hz=200.0, sigma_logf0=0.25)
        assert denorm_f0(1.0, stats) == pytest.approx(200.0 * math.exp(0.25), abs=1e-9)

    def test_round_trip(self, rng):
        for _ in range(500):
            stats = random_stats(rng)
            x = rng.uniform(-4.0, 4.0)
            assert renorm_f0(denorm_f0(x, stats), stats) == pytest.approx(x, abs=1e-9)
            assert renorm_energy(denorm_energy(x, stats), stats) == pytest.approx(x, abs=1e-9)
            hz = rng.uniform(50.0, 500.0)
            assert denorm_f0(renorm_f0(hz, stats), stats) == pytest.approx(hz, rel=1e-12)

    def test_non_positive_inputs(self):
        stats = make_stats()
        with pytest.raises(DataError, match="F0 must be > 0 Hz, got 0.0"):
            renorm_f0(0.0, stats)
        with pytest.raises(DataError, match="F0 must be > 0 Hz, got -5.0"):
            renorm_f0(-5.0, stats)
        with pytest.raises(DataError, match="energy must be > 0, got 0.0"):
            renorm_energy(0.0, stats)

    def test_beyond_float_range_is_a_data_error(self):
        stats = make_stats()
        with pytest.raises(DataError, match="normalized F0 100000.0 is too large"):
            denorm_f0(100000.0, stats)
        with pytest.raises(DataError, match="normalized energy 1000000.0 is too large"):
            denorm_energy(1e6, stats)

    def test_energy_below_float_range_is_a_data_error(self):
        # exp(-1500 * 0.5 + 1.0) underflows to 0.0, which no energy can be
        with pytest.raises(DataError, match="normalized energy -1500.0 is too small to de-normalize"):
            denorm_energy(-1500.0, make_stats())

    def test_infinite_linear_value_is_a_data_error(self):
        stats = make_stats()
        with pytest.raises(DataError, match="F0 is too large to re-normalize"):
            renorm_f0(math.inf, stats)
        with pytest.raises(DataError, match="energy is too large to re-normalize"):
            renorm_energy(math.inf, stats)


class TestApplyPlanExamples:
    def test_duration_product(self):
        stats = make_stats()
        phones = [PhoneFeature("AA", 0, 0.10, 0.0, 0.5, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        plan = manual_plan(utterance, stats, g_dur=1.5, delta=1.2)
        out = apply_plan(utterance, stats, plan)
        assert out.phones[0].duration_s == pytest.approx(0.18, abs=1e-12)

    def test_pitch_shift_sum(self):
        stats = make_stats(f0_min_hz=100.0, f0_max_hz=300.0)
        f0_norm = (math.log(150.0) - stats.mu_logf0) / stats.sigma_logf0
        phones = [PhoneFeature("AA", 0, 0.10, f0_norm, 0.5, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        plan = manual_plan(utterance, stats, g_pitch=30.0, pi=10.0)
        out = apply_plan(utterance, stats, plan)
        assert denorm_f0(out.phones[0].f0, stats) == pytest.approx(190.0, abs=1e-9)

    def test_energy_scale(self):
        stats = make_stats()
        phones = [PhoneFeature("AA", 0, 0.10, 0.0, 0.4, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        plan = manual_plan(utterance, stats, g_energy=1.5, epsilon=1.2)
        out = apply_plan(utterance, stats, plan)
        expected = denorm_energy(0.4, stats) * 1.8
        assert denorm_energy(out.phones[0].energy, stats) == pytest.approx(expected, rel=1e-12)

    def test_huge_energy_is_a_data_error(self):
        phones = [PhoneFeature("AA", 0, 0.10, 0.0, 1e6, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        stats = make_stats()
        with pytest.raises(DataError, match="too large to de-normalize"):
            apply_plan(utterance, stats, manual_plan(utterance, stats))

    def test_energy_overflowing_when_scaled_is_a_data_error(self):
        # the energy case of test_cli::TestValuesBeyondFloatRange: 1416.392417
        # de-normalizes, then the plan of `plan --seed 0` scales it past the float range
        data = Path(__file__).parent / "data"
        document = (data / "norm_utterance.tsv").read_text(encoding="utf-8").replace(
            "ER\t0\t0.110000\t0.400000\t0.800000", "ER\t0\t0.110000\t0.400000\t1416.392417"
        )
        (utterance,) = parse_features(document)
        stats = parse_speaker_stats((data / "stats.tsv").read_text(encoding="utf-8"))
        spec = PromptSpec(Mode.NEUTRAL, utterance.text)
        suggestion, _ = suggest_with_repair(spec, MockBackend(seed=0))
        plan = build_plan(suggestion, utterance, stats)
        with pytest.raises(DataError, match="energy is too large to re-normalize"):
            apply_plan(utterance, stats, plan)

    def test_zero_plan_returns_an_equal_utterance(self):
        # a log/exp round trip on unmoved values would shift 11 F0 and 9 energy
        # values of the 21 phones by about 1e-15
        data = Path(__file__).parent / "data"
        (utterance,) = parse_features((data / "norm_utterance.tsv").read_text(encoding="utf-8"))
        stats = parse_speaker_stats((data / "stats.tsv").read_text(encoding="utf-8"))
        assert apply_plan(utterance, stats, identity_plan(utterance, stats)) == utterance

    def test_zero_plan_clamps_f0_outside_the_range(self):
        stats = make_stats(f0_min_hz=100.0, f0_max_hz=300.0)
        f0_norm = (math.log(90.0) - stats.mu_logf0) / stats.sigma_logf0
        phones = [PhoneFeature("AA", 0, 0.10, f0_norm, 0.5, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        out = apply_plan(utterance, stats, identity_plan(utterance, stats))
        assert denorm_f0(out.phones[0].f0, stats) == pytest.approx(100.0, rel=1e-12)

    def test_rejects_raw_features(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        raw = make_utterance("u1", "spk1", utterance.text, utterance.phones, normalized=False)
        plan = identity_plan(utterance, stats)
        with pytest.raises(DataError, match="^utterance u1: pitch bounds require normalized features$"):
            apply_plan(raw, stats, plan)

    def test_plan_shape_mismatch(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats, n_words=4)
        plan = identity_plan(utterance, stats)
        shorter = ModificationPlan(
            g_dur=plan.g_dur,
            g_pitch_hz=plan.g_pitch_hz,
            g_energy=plan.g_energy,
            words=plan.words[:-1],
            bounds=plan.bounds,
        )
        with pytest.raises(DataError, match="^plan is for words .* but utterance"):
            apply_plan(utterance, stats, shorter)

    def test_plan_for_other_words_rejected(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats, n_words=4)
        plan = identity_plan(utterance, stats)
        first = replace(plan.words[0], surface=plan.words[0].surface + "s")
        other = replace(plan, words=(first,) + plan.words[1:])
        with pytest.raises(DataError, match="^plan is for words .* but utterance"):
            apply_plan(utterance, stats, other)


def with_other_stats():
    """The CLI tests' utterance, its stats with f0_max_hz 300 -> 310, and the golden seed-7 plan built with 300."""
    tests = Path(__file__).parent
    (utterance,) = parse_features((tests / "data" / "norm_utterance.tsv").read_text(encoding="utf-8"))
    stats_document = (tests / "data" / "stats.tsv").read_text(encoding="utf-8")
    other_stats = parse_speaker_stats(stats_document.replace("f0_max_hz\t300.0", "f0_max_hz\t310.0"))
    assert other_stats.f0_max_hz == 310.0
    return utterance, other_stats, parse_plan((tests / "golden" / "cli_plan_seed7.tsv").read_text(encoding="utf-8"))


def with_word_index(index):
    """The CLI tests' utterance with phone 0 in word ``index``, its stats and the golden seed-7 plan.

    ``dataclasses.replace`` skips the checks of ``make_utterance``, as any caller building values may.
    """
    utterance, _, plan = with_other_stats()
    stats = parse_speaker_stats((Path(__file__).parent / "data" / "stats.tsv").read_text(encoding="utf-8"))
    phones = (replace(utterance.phones[0], word_index=index),) + utterance.phones[1:]
    return replace(utterance, phones=phones), stats, plan


class TestApplyToUtterance:
    """apply_plan applies a plan only to the utterance and stats it was built for."""

    def test_plan_built_with_other_stats_is_refused(self):
        utterance, other_stats, plan = with_other_stats()
        with pytest.raises(DataError, match="^plan BOUNDS do not match utterance 'u1' with these stats: "):
            apply_plan(utterance, other_stats, plan)

    def test_words_are_checked_before_bounds(self):
        utterance, other_stats, plan = with_other_stats()
        other = replace(plan, words=(replace(plan.words[0], surface="Walk"),) + plan.words[1:])
        with pytest.raises(DataError, match="^plan is for words "):
            apply_plan(utterance, other_stats, other)

    # as a list index, -1 is the last word (phone 0's 0.06 s would become 0.1152 s); 6 is one past it
    @pytest.mark.parametrize("index", [-1, 6, 100])
    def test_word_index_outside_the_plan_is_refused(self, index):
        utterance, stats, plan = with_word_index(index)
        message = f"^utterance u1 phone 0 'T': word index {index} out of range \\(W=6\\)$"
        with pytest.raises(DataError, match=message):
            apply_plan(utterance, stats, plan)

    @PROPERTIES
    @given(seed=st.integers(0, 2**32 - 1), cap=st.floats(0.0, 1.0))
    def test_same_bytes_as_build_plan_and_apply_plan(self, seed, cap):
        """plan_utterance, the plan file, apply_plan: the bytes of suggest, build_plan, apply_plan."""
        rng = random.Random(seed)
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats)
        spec = PromptSpec(Mode.NEUTRAL, utterance.text)
        backend = MockBackend(seed=seed)
        config = MappingConfig(local_pitch_cap_fraction=cap)
        plan, _ = plan_utterance(spec, utterance, stats, backend, mapping_config=config)
        got = serialize_features([apply_plan(utterance, stats, parse_plan(serialize_plan(plan)))])
        suggestion, _ = suggest_with_repair(spec, backend)
        expected = serialize_features([apply_plan(utterance, stats, build_plan(suggestion, utterance, stats, config))])
        assert got == expected


class TestApplyPlanInvariants:
    def test_identity_plan_is_identity(self, rng):
        for case in range(100):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            out = apply_plan(utterance, stats, identity_plan(utterance, stats))
            for before, after in zip(utterance.phones, out.phones):
                assert after.duration_s == before.duration_s
                if before.voiced:
                    assert after.f0 == pytest.approx(before.f0, abs=1e-9)
                    assert after.energy == pytest.approx(before.energy, abs=1e-9)
                else:
                    assert after.f0 is None
                    assert after.energy == before.energy

    def test_exclusions_are_bit_exact(self, rng):
        for case in range(50):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            plan = build_plan(random_suggestion(rng, utterance, wild=True), utterance, stats)
            out = apply_plan(utterance, stats, plan)
            assert len(out.phones) == len(utterance.phones)
            for before, after in zip(utterance.phones, out.phones):
                assert after.label == before.label
                assert after.word_index == before.word_index
                assert after.voiced == before.voiced
                assert after.pause == before.pause
                if before.pause:
                    assert after == before
                elif not before.voiced:
                    assert after.f0 is None
                    assert after.energy == before.energy

    def test_matches_naive_loop(self, rng):
        for case in range(300):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            plan = build_plan(random_suggestion(rng, utterance, wild=True), utterance, stats)
            expected = naive_apply_plan(utterance, stats, plan)
            got = apply_plan(utterance, stats, plan)
            for want, have in zip(expected.phones, got.phones):
                assert have.duration_s == pytest.approx(want.duration_s, abs=1e-9)
                if want.f0 is None:
                    assert have.f0 is None
                else:
                    assert have.f0 == pytest.approx(want.f0, abs=1e-9)
                assert have.energy == pytest.approx(want.energy, abs=1e-9)

    def test_range_safety(self, rng):
        for case in range(200):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
            plan = build_plan(random_suggestion(rng, utterance, wild=True), utterance, stats)
            out = apply_plan(utterance, stats, plan)
            for ph in out.phones:
                if ph.voiced:
                    hz = denorm_f0(ph.f0, stats)
                    assert stats.f0_min_hz - 1e-9 <= hz <= stats.f0_max_hz + 1e-9

    def test_duration_scaling_exactness(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        plan = build_plan(random_suggestion(rng, utterance), utterance, stats)
        out = apply_plan(utterance, stats, plan)
        for before, after in zip(utterance.phones, out.phones):
            if before.pause:
                continue
            coeff = plan.words[before.word_index]
            assert after.duration_s == before.duration_s * plan.g_dur * coeff.delta

    def test_order_preserved_under_uniform_local_pitch(self, rng):
        for _ in range(50):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats)
            g_pitch = rng.uniform(-8.0, 8.0)
            pi = rng.uniform(0.0, 5.0)
            shift = g_pitch + pi
            plan = manual_plan(utterance, stats, g_pitch=g_pitch, pi=pi)
            out = apply_plan(utterance, stats, plan)
            before_hz = [denorm_f0(ph.f0, stats) for ph in utterance.phones if ph.voiced]
            after_hz = [denorm_f0(ph.f0, stats) for ph in out.phones if ph.voiced]
            clamp_free = all(
                stats.f0_min_hz < hz + shift < stats.f0_max_hz for hz in before_hz
            )
            if clamp_free:
                ranks_before = sorted(range(len(before_hz)), key=before_hz.__getitem__)
                ranks_after = sorted(range(len(after_hz)), key=after_hz.__getitem__)
                assert ranks_before == ranks_after

    def test_duration_only_plans_compose(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats)
        plan_a = manual_plan(utterance, stats, g_dur=1.3, delta=1.1)
        combined = manual_plan(utterance, stats, g_dur=1.3 * 0.8, delta=1.1 * 1.5)
        intermediate = apply_plan(utterance, stats, plan_a)
        plan_b = manual_plan(intermediate, stats, g_dur=0.8, delta=1.5)
        two_step = apply_plan(intermediate, stats, plan_b)
        one_step = apply_plan(utterance, stats, combined)
        for a, b in zip(two_step.phones, one_step.phones):
            assert a.duration_s == pytest.approx(b.duration_s, rel=1e-12)


# normalized log values within a few sigma, or far from the mean (F0 outside the speaker's range)
NORMALIZED = st.floats(-1.0, 1.0) | st.floats(-12.0, 12.0)
# ... or past the float range of exp
NORMALIZED_WIDE = NORMALIZED | st.floats(-1e6, 1e6)
DURATIONS = st.floats(0.001, 2.0)
# suggestion values: mostly on the scales, sometimes anything a model could write
SUGGESTED = st.floats(-6.0, 6.0) | st.floats()


@st.composite
def chain_inputs(draw, wide=True):
    """Stats, a normalized utterance whose voiced phones may start outside the F0 range, a suggestion.

    With ``wide`` some utterances hold values past the float range of exp.
    """
    f0_min_hz = draw(st.floats(50.0, 200.0))
    f0_max_hz = f0_min_hz + draw(st.floats(1.0, 400.0))
    stats = make_stats(
        mu_hz=draw(st.floats(f0_min_hz, f0_max_hz)),
        sigma_logf0=draw(st.floats(0.05, 1.0)),
        mu_loge=draw(st.floats(-3.0, 3.0)),
        sigma_loge=draw(st.floats(0.05, 1.0)),
        f0_min_hz=f0_min_hz,
        f0_max_hz=f0_max_hz,
    )
    text = " ".join(draw(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=5)))
    words = tokenize_words(text)
    normalized = NORMALIZED_WIDE if draw(st.integers(0, 3)) == 0 and wide else NORMALIZED
    phones = []
    if draw(st.booleans()):
        phones.append(PhoneFeature("sil", None, draw(DURATIONS), None, draw(normalized), False, True))
    for j in range(len(words)):
        # the first phone is voiced, so that most utterances have pitch bounds
        for voiced in [j == 0 or draw(st.booleans())] + draw(st.lists(st.booleans(), max_size=2)):
            f0 = draw(normalized) if voiced else None
            phones.append(PhoneFeature("AA1", j, draw(DURATIONS), f0, draw(normalized), voiced, False))
        if draw(st.booleans()):
            phones.append(PhoneFeature("sp", None, draw(DURATIONS), None, draw(normalized), False, True))
    utterance = make_utterance("u1", "spk1", text, phones, normalized=True)
    suggestion = LlmScaleSuggestion(
        *(draw(SUGGESTED) for _ in range(3)),
        words=tuple(
            WordSuggestion(word.key, *(draw(SUGGESTED) for _ in range(3)))
            for word in words
        ),
    )
    return stats, utterance, suggestion


def pause_rows(document):
    return [line for line in document.split("\n") if line.endswith("\t0\t1")]


class TestEndToEndProperty:
    @PROPERTIES
    @given(chain_inputs())
    def test_plan_file_to_feature_file(self, inputs):
        """build, write and read a plan, apply it, write and read the result: DataError or the invariants."""
        stats, utterance, suggestion = inputs
        before = serialize_features([utterance])
        try:
            plan = parse_plan(serialize_plan(build_plan(suggestion, utterance, stats)))
            after = serialize_features([apply_plan(utterance, stats, plan)])
            modified = parse_features(after)[0]
        except DataError:
            return
        assert pause_rows(after) == pause_rows(before)
        # the file keeps 6 decimals of the normalized log-F0, so a read-back F0 is within
        # exp(5e-7 * sigma_logf0) of the range, and a few ulps more for the arithmetic
        margin = math.exp(5e-7 * stats.sigma_logf0) * (1 + 4 * math.ulp(1.0))
        for ph in modified.phones:
            if ph.voiced:
                hz = denorm_f0(ph.f0, stats)
                assert stats.f0_min_hz / margin <= hz <= stats.f0_max_hz * margin

    @PROPERTIES
    @given(chain_inputs(wide=False), st.data())
    def test_refuses_exactly_a_plan_for_other_words_or_bounds(self, inputs, data):
        """The plan file of build_plan is accepted; under another F0 range, only if the bounds are the same."""
        stats, utterance, suggestion = inputs
        try:
            plan = parse_plan(serialize_plan(build_plan(suggestion, utterance, stats)))
        except DataError:  # a non-finite suggested value
            return
        apply_plan(utterance, stats, plan)
        f0_min_hz = data.draw(st.just(stats.f0_min_hz) | st.floats(50.0, 300.0))
        f0_max_hz = data.draw(st.just(stats.f0_max_hz) | st.floats(50.0, 700.0))
        assume(f0_min_hz < f0_max_hz)
        other_stats = replace(stats, f0_min_hz=f0_min_hz, f0_max_hz=f0_max_hz)
        if compute_pitch_bounds(utterance, other_stats) == plan.bounds:
            apply_plan(utterance, other_stats, plan)
        else:
            with pytest.raises(DataError, match="^plan BOUNDS do not match utterance 'u1' with these stats: "):
                apply_plan(utterance, other_stats, plan)
        first = replace(plan.words[0], surface=plan.words[0].surface + "s")
        other = replace(plan, words=(first,) + plan.words[1:])
        with pytest.raises(DataError, match="^plan is for words "):
            apply_plan(utterance, other_stats, other)
