"""Apply modification coefficients to normalized acoustic features.

Durations scale multiplicatively.  F0 and energy are stored as normalized
log values, so modification goes de-normalize -> adjust in linear units ->
re-normalize.  Unvoiced phones keep their F0/energy untouched and pause
phones are never modified at all; pitch results are clamped into the
speaker's natural F0 range.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import DataError
from .features import SpeakerStats, UtteranceFeatures, denorm_energy, denorm_f0, renorm_energy, renorm_f0
from .mapping import ModificationPlan


class PlanShapeMismatch(DataError):
    """The plan was built for other words than the utterance's."""


def apply_plan(
    utterance: UtteranceFeatures, stats: SpeakerStats, plan: ModificationPlan
) -> UtteranceFeatures:
    """Return a new utterance with the plan's coefficients applied.

    Per phone in word j: duration is multiplied by ``g_dur * delta_j`` (all
    non-pause phones); voiced phones additionally get linear energy scaled by
    ``g_energy * epsilon_j`` and linear F0 shifted by ``g_pitch_hz + pi_hz_j``
    then clamped into the speaker range.  Structure, labels, and flags are
    preserved exactly.  A plan built for other words is refused.
    """
    if not utterance.normalized:
        raise DataError(f"utterance {utterance.id}: apply_plan requires normalized features")
    plan_words = [w.surface for w in plan.words]
    utterance_words = [w.surface for w in utterance.words]
    if plan_words != utterance_words:
        raise PlanShapeMismatch(
            f"plan is for words {plan_words} but utterance {utterance.id} has {utterance_words}"
        )
    new_phones = []
    for ph in utterance.phones:
        if ph.pause:
            new_phones.append(ph)
            continue
        if ph.word_index is not None:
            coeff = plan.words[ph.word_index]
            delta, pi_hz, epsilon = coeff.delta, coeff.pi_hz, coeff.epsilon
        else:
            delta, pi_hz, epsilon = 1.0, 0.0, 1.0
        duration = ph.duration_s * plan.g_dur * delta
        f0 = ph.f0
        energy = ph.energy
        if ph.voiced:
            hz = denorm_f0(ph.f0, stats) + plan.g_pitch_hz + pi_hz
            hz = min(max(hz, stats.f0_min_hz), stats.f0_max_hz)
            f0 = renorm_f0(hz, stats)
            linear = denorm_energy(ph.energy, stats) * (plan.g_energy * epsilon)
            energy = renorm_energy(linear, stats)
        new_phones.append(replace(ph, duration_s=duration, f0=f0, energy=energy))
    return replace(utterance, phones=tuple(new_phones))
