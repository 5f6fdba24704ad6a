import math
from dataclasses import replace

import pytest

from llmprosody.errors import DataError
from llmprosody.features import PhoneFeature, make_utterance
from llmprosody.mapping import (
    ModificationPlan,
    PitchBounds,
    WordCoefficients,
    build_plan,
)
from llmprosody.modifier import (
    NonPositiveEnergy,
    NonPositiveF0,
    PlanShapeMismatch,
    apply_plan,
    denorm_energy,
    denorm_f0,
    renorm_energy,
    renorm_f0,
)

from conftest import (
    identity_suggestion,
    make_stats,
    random_stats,
    random_suggestion,
    random_utterance,
)
from reference import naive_apply_plan


def identity_plan(utterance, stats):
    return build_plan(identity_suggestion(utterance), utterance, stats)


def manual_plan(utterance, g_dur=1.0, g_pitch=0.0, g_energy=1.0, delta=1.0, pi=0.0, epsilon=1.0):
    words = tuple(
        WordCoefficients(index=i, surface=w.surface, delta=delta, pi_hz=pi, epsilon=epsilon)
        for i, w in enumerate(utterance.words)
    )
    bound = abs(g_pitch) + abs(pi) + 1.0
    return ModificationPlan(
        g_dur=g_dur,
        g_pitch_hz=g_pitch,
        g_energy=g_energy,
        words=words,
        bounds=PitchBounds(-bound, bound),
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
        with pytest.raises(NonPositiveF0):
            renorm_f0(0.0, stats)
        with pytest.raises(NonPositiveF0):
            renorm_f0(-5.0, stats)
        with pytest.raises(NonPositiveEnergy):
            renorm_energy(0.0, stats)

    def test_beyond_float_range_is_a_data_error(self):
        stats = make_stats()
        with pytest.raises(DataError, match="normalized F0 100000.0 is too large"):
            denorm_f0(100000.0, stats)
        with pytest.raises(DataError, match="normalized energy 1000000.0 is too large"):
            denorm_energy(1e6, stats)


class TestApplyPlanExamples:
    def test_duration_product(self):
        stats = make_stats()
        phones = [PhoneFeature("AA", 0, 0.10, 0.0, 0.5, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        plan = manual_plan(utterance, g_dur=1.5, delta=1.2)
        out = apply_plan(utterance, stats, plan)
        assert out.phones[0].duration_s == pytest.approx(0.18, abs=1e-12)

    def test_pitch_shift_sum(self):
        stats = make_stats(f0_min_hz=100.0, f0_max_hz=300.0)
        f0_norm = (math.log(150.0) - stats.mu_logf0) / stats.sigma_logf0
        phones = [PhoneFeature("AA", 0, 0.10, f0_norm, 0.5, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        plan = manual_plan(utterance, g_pitch=30.0, pi=10.0)
        out = apply_plan(utterance, stats, plan)
        assert denorm_f0(out.phones[0].f0, stats) == pytest.approx(190.0, abs=1e-9)

    def test_energy_scale(self):
        stats = make_stats()
        phones = [PhoneFeature("AA", 0, 0.10, 0.0, 0.4, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        plan = manual_plan(utterance, g_energy=1.5, epsilon=1.2)
        out = apply_plan(utterance, stats, plan)
        expected = denorm_energy(0.4, stats) * 1.8
        assert denorm_energy(out.phones[0].energy, stats) == pytest.approx(expected, rel=1e-12)

    def test_huge_energy_is_a_data_error(self):
        phones = [PhoneFeature("AA", 0, 0.10, 0.0, 1e6, True, False)]
        utterance = make_utterance("u1", "spk1", "hi", phones, normalized=True)
        with pytest.raises(DataError, match="too large to de-normalize"):
            apply_plan(utterance, make_stats(), manual_plan(utterance))

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
        with pytest.raises(Exception):
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
        with pytest.raises(PlanShapeMismatch):
            apply_plan(utterance, stats, shorter)

    def test_plan_for_other_words_rejected(self, rng):
        stats = make_stats()
        utterance = random_utterance(rng, stats, n_words=4)
        plan = identity_plan(utterance, stats)
        first = replace(plan.words[0], surface=plan.words[0].surface + "s")
        other = replace(plan, words=(first,) + plan.words[1:])
        with pytest.raises(PlanShapeMismatch):
            apply_plan(utterance, stats, other)


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
            plan = manual_plan(utterance, g_pitch=g_pitch, pi=pi)
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
        plan_a = manual_plan(utterance, g_dur=1.3, delta=1.1)
        plan_b = manual_plan(utterance, g_dur=0.8, delta=1.5)
        combined = manual_plan(utterance, g_dur=1.3 * 0.8, delta=1.1 * 1.5)
        two_step = apply_plan(apply_plan(utterance, stats, plan_a), stats, plan_b)
        one_step = apply_plan(utterance, stats, combined)
        for a, b in zip(two_step.phones, one_step.phones):
            assert a.duration_s == pytest.approx(b.duration_s, rel=1e-12)
