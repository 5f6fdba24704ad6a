"""Apply modification coefficients to normalized acoustic features.

Durations scale multiplicatively.  F0 and energy are stored as normalized
log values, so modification goes de-normalize -> adjust in linear units ->
re-normalize.  Unvoiced phones keep their F0/energy untouched and pause
phones are never modified at all; pitch results are clamped into the
speaker's natural F0 range.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import DataError
from .features import SpeakerStats, UtteranceFeatures

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .mapping import ModificationPlan


class NonPositiveF0(DataError):
    """Linear F0 must be strictly positive before taking the log."""


class NonPositiveEnergy(DataError):
    """Linear energy must be strictly positive before taking the log."""


class PlanShapeMismatch(DataError):
    """The plan was built for other words than the utterance's."""


def _exp(log_value: float, what: str, norm: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DataError(f"normalized {what} {norm} is too large to de-normalize") from None


def denorm_f0(f0_norm: float, stats: SpeakerStats) -> float:
    """Normalized log-F0 -> linear Hz."""
    return _exp(f0_norm * stats.sigma_logf0 + stats.mu_logf0, "F0", f0_norm)


def renorm_f0(hz: float, stats: SpeakerStats) -> float:
    """Linear Hz -> normalized log-F0."""
    if not hz > 0:
        raise NonPositiveF0(f"F0 must be > 0 Hz, got {hz}")
    if hz == math.inf:
        raise DataError("F0 is too large to re-normalize")
    return (math.log(hz) - stats.mu_logf0) / stats.sigma_logf0


def denorm_energy(energy_norm: float, stats: SpeakerStats) -> float:
    """Normalized log-energy -> linear energy."""
    return _exp(energy_norm * stats.sigma_loge + stats.mu_loge, "energy", energy_norm)


def renorm_energy(energy: float, stats: SpeakerStats) -> float:
    """Linear energy -> normalized log-energy."""
    if not energy > 0:
        raise NonPositiveEnergy(f"energy must be > 0, got {energy}")
    if energy == math.inf:
        raise DataError("energy is too large to re-normalize")
    return (math.log(energy) - stats.mu_loge) / stats.sigma_loge


def apply_plan(
    utterance: UtteranceFeatures, stats: SpeakerStats, plan: "ModificationPlan"
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
