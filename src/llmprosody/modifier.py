"""Apply modification coefficients to normalized acoustic features.

Durations scale multiplicatively.  F0 and energy are stored as normalized
log values, so modification goes de-normalize -> adjust in linear units ->
re-normalize.  Unvoiced phones keep their F0/energy untouched and pause
phones are never modified at all; pitch results are clamped into the
speaker's natural F0 range.  A value the plan leaves where it was keeps its
stored bits, so a zero plan returns an in-range utterance unchanged.  A plan
is only applied to the utterance and stats it was built for.
"""

from __future__ import annotations

import math

from .errors import DataError
from .features import (  # denorm_f0 too: the benchmark's F0-range check reads it from here
    PhoneFeature, SpeakerStats, UtteranceFeatures, denorm_energy, denorm_f0, renorm_energy, renorm_f0,
)
from .mapping import ModificationPlan, _voiced_hz_and_bounds


def apply_plan(
    utterance: UtteranceFeatures, stats: SpeakerStats, plan: ModificationPlan
) -> UtteranceFeatures:
    """Return a new utterance with the plan's coefficients applied.

    Per phone in word j: duration is multiplied by ``g_dur * delta_j`` (all
    non-pause phones); voiced phones additionally get linear energy scaled by
    ``g_energy * epsilon_j`` and linear F0 shifted by ``g_pitch_hz + pi_hz_j``
    then clamped into the speaker range.  An F0 whose shifted, clamped Hz
    equals its starting Hz, and an energy scaled by exactly 1, keep their
    stored values.  Structure, labels, and flags are preserved exactly.

    A plan built for other words is refused, then one whose ``BOUNDS`` are
    not :func:`~llmprosody.mapping.compute_pitch_bounds` of ``utterance`` and
    ``stats`` (which refuses raw features), then a phone whose word index is
    not a word of the plan.
    """
    plan_words = [w.surface for w in plan.words]
    utterance_words = [w.surface for w in utterance.words]
    if plan_words != utterance_words:
        raise DataError(f"plan is for words {plan_words} but utterance {utterance.id} has {utterance_words}")
    voiced_hz, bounds = _voiced_hz_and_bounds(utterance, stats)
    if plan.bounds != bounds:
        raise DataError(
            f"plan BOUNDS do not match utterance {utterance.id!r} with these stats: the plan has "
            f"BOUNDS {plan.bounds.p_min_hz!r} {plan.bounds.p_max_hz!r}, the stats give "
            f"BOUNDS {bounds.p_min_hz!r} {bounds.p_max_hz!r}"
        )
    exp, log, inf = math.exp, math.log, math.inf
    g_dur, g_pitch_hz, g_energy = plan.g_dur, plan.g_pitch_hz, plan.g_energy
    mu_f0, sigma_f0, mu_e, sigma_e, f0_min_hz, f0_max_hz = stats
    # per word: (delta, pi_hz, energy scale); a phone outside every word gets the neutral word values
    per_word = [(delta, pi_hz, g_energy * epsilon) for _, delta, pi_hz, epsilon in plan.words]
    n_words = len(per_word)
    no_word = (1.0, 0.0, g_energy)
    next_hz = iter(voiced_hz).__next__  # one Hz per voiced phone, in order
    new = tuple.__new__  # values without namedtuple's _make frame: the field counts are fixed here
    new_phones = []
    # the de- and re-normalisers of features word every refusal; their arithmetic is inlined where it cannot fail
    for k, ph in enumerate(utterance.phones):
        label, j, duration, f0, energy, voiced, pause = ph
        if voiced:
            hz0 = next_hz()
        if pause:
            new_phones.append(ph)
            continue
        if j is not None and not 0 <= j < n_words:  # an utterance that skipped make_utterance
            raise DataError(f"utterance {utterance.id} phone {k} {label!r}: word index {j} out of range (W={n_words})")
        delta, pi_hz, scale = no_word if j is None else per_word[j]
        duration = duration * g_dur * delta
        if voiced:
            hz = hz0 + g_pitch_hz + pi_hz
            hz = f0_min_hz if hz < f0_min_hz else f0_max_hz if hz > f0_max_hz else hz  # min(max(...)), nan kept
            if hz != hz0:  # an unmoved F0 keeps its stored value, with no log/exp round trip
                f0 = (log(hz) - mu_f0) / sigma_f0 if 0 < hz < inf else renorm_f0(hz, stats)
            try:  # an energy beyond the float range overflows, or gives 0: denorm_energy refuses both
                linear = exp(energy * sigma_e + mu_e) or denorm_energy(energy, stats)
            except OverflowError:
                linear = denorm_energy(energy, stats)
            if scale != 1.0:
                linear *= scale
                energy = (log(linear) - mu_e) / sigma_e if 0 < linear < inf else renorm_energy(linear, stats)
        new_phones.append(new(PhoneFeature, (label, j, duration, f0, energy, voiced, pause)))
    uid, speaker_id, text, words, _, normalized = utterance
    return new(UtteranceFeatures, (uid, speaker_id, text, words, tuple(new_phones), normalized))
