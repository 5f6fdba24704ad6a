"""Convert LLM-scale suggestions into clamped modification coefficients.

The model is asked for easy integer scales: global values in [-5, 5] where 0
means "leave it alone", local per-word values in [0, 5] where 0 means "no
extra emphasis".  These are remapped piecewise-linearly onto the coefficient
ranges the synthesizer accepts: duration/energy scale factors in [0.5, 2]
globally and [1, 2] per word, and an F0 shift in Hz bounded per utterance so
the shifted contour stays inside the speaker's natural range.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import Checked, DataError
from .features import SpeakerStats, UtteranceFeatures, Word, denorm_f0, parse_finite

GLOBAL_SCALE = (-5.0, 5.0)
LOCAL_SCALE = (0.0, 5.0)


class WordSuggestion(namedtuple("WordSuggestion", "key local_duration local_pitch local_energy")):
    """The model's raw local values for one word, on the [0, 5] scale; its position is its word number."""

    __slots__ = ()
    key: str
    local_duration: float
    local_pitch: float
    local_energy: float


class LlmScaleSuggestion(namedtuple("LlmScaleSuggestion", "global_duration global_pitch global_energy words")):
    """Raw per-utterance and per-word values as suggested by the model.

    Values are nominally within [-5, 5] (global) and [0, 5] (local) but are
    not validated here; consumers clamp out-of-range values and report it.
    """

    __slots__ = ()
    global_duration: float
    global_pitch: float
    global_energy: float
    words: tuple[WordSuggestion, ...]


class PitchBounds(Checked, namedtuple("PitchBounds", "p_min_hz p_max_hz")):
    """Largest allowed downward/upward uniform F0 shifts for one utterance."""

    __slots__ = ()
    p_min_hz: float
    p_max_hz: float

    def _check(self) -> None:
        if not (self.p_min_hz <= 0.0 <= self.p_max_hz):
            raise DataError(
                f"pitch bounds must satisfy p_min <= 0 <= p_max, got "
                f"[{self.p_min_hz}, {self.p_max_hz}]"
            )


class MappingConfig(Checked, namedtuple("MappingConfig", "local_pitch_cap_fraction", defaults=(0.5,))):
    """Tunables for the suggestion-to-coefficient mapping.

    ``local_pitch_cap_fraction`` is the fraction of the utterance's upward
    pitch headroom a single word's shift may claim, so global and local
    shifts can coexist without constant clamping.
    """

    __slots__ = ()
    local_pitch_cap_fraction: float

    def _check(self) -> None:
        if not 0.0 <= self.local_pitch_cap_fraction <= 1.0:
            raise DataError(
                f"local_pitch_cap_fraction must be in [0, 1], got {self.local_pitch_cap_fraction}"
            )


class WordCoefficients(namedtuple("WordCoefficients", "surface delta pi_hz epsilon")):
    """One word's duration/energy scales and pitch shift; its position in the plan is its word number."""

    __slots__ = ()
    surface: str
    delta: float
    pi_hz: float
    epsilon: float


class ModificationPlan(namedtuple("ModificationPlan", "g_dur g_pitch_hz g_energy words bounds")):
    """Clamped coefficients ready for application.

    Invariants: g_dur/g_energy in [0.5, 2]; every delta/epsilon in [1, 2];
    g_pitch_hz + pi_hz within the bounds for every word.
    """

    __slots__ = ()
    g_dur: float
    g_pitch_hz: float
    g_energy: float
    words: tuple[WordCoefficients, ...]
    bounds: PitchBounds

    clamp_notes = ()  # not a field: perfbench/spans.py reads it until ROADMAP item 1 deletes both


def compute_pitch_bounds(utterance: UtteranceFeatures, stats: SpeakerStats) -> PitchBounds:
    """Per-utterance F0 shift bounds derived from the speaker's natural range.

    Any uniform shift within the bounds keeps every voiced phone inside
    [f0_min_hz, f0_max_hz], provided the utterance starts inside the range;
    the zero shift is always admissible.
    """
    return _voiced_hz_and_bounds(utterance, stats)[1]


def _voiced_hz_and_bounds(utterance: UtteranceFeatures, stats: SpeakerStats) -> tuple[list[float], PitchBounds]:
    """The linear Hz of each voiced phone, in order, and :func:`compute_pitch_bounds` of them."""
    if not utterance.normalized:
        raise DataError(f"utterance {utterance.id}: pitch bounds require normalized features")
    exp, sigma, mu = math.exp, stats.sigma_logf0, stats.mu_logf0
    try:
        hz = [exp(f0 * sigma + mu) for _, _, _, f0, _, voiced, _ in utterance.phones if voiced]  # denorm_f0's Hz
    except OverflowError:  # denorm_f0 words the refusal
        hz = [denorm_f0(ph.f0, stats) for ph in utterance.phones if ph.voiced]
    if not hz:
        raise DataError(f"utterance {utterance.id} has no voiced phones")
    p_min = min(0.0, stats.f0_min_hz - min(hz))
    p_max = max(0.0, stats.f0_max_hz - max(hz))
    return hz, PitchBounds(p_min_hz=p_min, p_max_hz=p_max)


def map_global_scale(v: float) -> float:
    """[-5, 5] -> [0.5, 2], piecewise linear with the identity (1.0) at 0."""
    if v <= 0:
        return 1.0 + 0.1 * v
    return 1.0 + 0.2 * v


def map_local_scale(v: float) -> float:
    """[0, 5] -> [1, 2], linear with the identity (1.0) at 0."""
    return 1.0 + v / 5.0


def map_pitch(
    v_global: float,
    v_local: float,
    bounds: PitchBounds,
    config: MappingConfig = MappingConfig(),
) -> tuple[float, float]:
    """Map raw pitch values to (g_pitch_hz, pi_hz) honoring the shift bounds.

    The global value maps onto [p_min, 0] for v <= 0 and [0, p_max] for
    v >= 0.  The local shift may reach ``cap * p_max`` and is reduced (never
    below 0) when the combined shift would exceed p_max.  Each value must lie
    on its scale: one off it, or not a number, raises :class:`DataError`
    (:func:`build_plan` clamps before it maps).
    """
    low, high = GLOBAL_SCALE
    if not low <= v_global <= high:
        raise DataError(f"global pitch {v_global!r} is not in [{low:g}, {high:g}]")
    low, high = LOCAL_SCALE
    if not low <= v_local <= high:
        raise DataError(f"local pitch {v_local!r} is not in [{low:g}, {high:g}]")
    if v_global <= 0:
        g = (-v_global / 5.0) * bounds.p_min_hz
    else:
        g = (v_global / 5.0) * bounds.p_max_hz
    pi = (v_local / 5.0) * config.local_pitch_cap_fraction * bounds.p_max_hz
    if g + pi > bounds.p_max_hz:
        pi = max(0.0, bounds.p_max_hz - g)
    while g + pi > bounds.p_max_hz:  # float guard for the exact constraint
        pi = math.nextafter(pi, -math.inf)
    return g, pi


def clamp_to_scale(value: float, scale: tuple[float, float], what: str) -> float:
    """``value`` clamped into ``scale``; a non-finite value is rejected, not clamped."""
    if not math.isfinite(value):
        raise DataError(f"{what} {value!r} is not a finite number")
    low, high = scale
    return min(max(value, low), high)


def check_suggestion_words(suggestion: LlmScaleSuggestion, words: tuple[Word, ...]) -> None:
    """Raise :class:`DataError` unless ``suggestion`` has one entry per word of ``words``, with its key."""
    if not words:
        raise DataError("a suggestion requires at least one word")
    if len(suggestion.words) != len(words):
        raise DataError(f"suggestion has {len(suggestion.words)} words, target text has {len(words)}")
    for position, (entry, word) in enumerate(zip(suggestion.words, words)):
        if entry.key != word.key:
            raise DataError(f"word {position}: suggestion says {entry.key!r}, target text says {word.key!r}")


def build_plan(
    suggestion: LlmScaleSuggestion,
    utterance: UtteranceFeatures,
    stats: SpeakerStats,
    config: MappingConfig = MappingConfig(),
) -> ModificationPlan:
    """Map a suggestion onto a valid :class:`ModificationPlan`.

    Suggestion values outside the nominal scales are clamped first, unrecorded
    (the parser's ``clamped`` diagnostics report them); a non-finite value
    raises :class:`DataError`.  The suggestion must fit the utterance's words
    (:func:`check_suggestion_words`).  The result is checked with
    :func:`validate_plan`.
    """
    check_suggestion_words(suggestion, utterance.words)

    def clamp(value: float, scale: tuple[float, float], name: str, index: int | None = None) -> float:
        low, high = scale
        if low <= value <= high:  # the common case: nothing to clamp, so no label to build
            return value
        what = f"global {name}" if index is None else f"word {index} {name}"
        return clamp_to_scale(value, scale, what)

    v_dur = clamp(suggestion.global_duration, GLOBAL_SCALE, "duration")
    v_pitch = clamp(suggestion.global_pitch, GLOBAL_SCALE, "pitch")
    v_energy = clamp(suggestion.global_energy, GLOBAL_SCALE, "energy")
    bounds = compute_pitch_bounds(utterance, stats)
    low, high = LOCAL_SCALE
    word_coeffs = []
    g_pitch_hz = 0.0
    for i, ((_, ld, lp, le), (surface, _)) in enumerate(zip(suggestion.words, utterance.words)):
        if not (low <= ld <= high and low <= lp <= high and low <= le <= high):
            ld = clamp(ld, LOCAL_SCALE, "duration", i)
            lp = clamp(lp, LOCAL_SCALE, "pitch", i)
            le = clamp(le, LOCAL_SCALE, "energy", i)
        g_pitch_hz, pi_hz = map_pitch(v_pitch, lp, bounds, config)
        word_coeffs.append(WordCoefficients._make((surface, map_local_scale(ld), pi_hz, map_local_scale(le))))
    plan = ModificationPlan(map_global_scale(v_dur), g_pitch_hz, map_global_scale(v_energy), tuple(word_coeffs), bounds)
    validate_plan(plan)
    return plan


def serialize_plan(plan: ModificationPlan) -> str:
    """Render a plan document; floats keep full precision for exact round trips."""
    lines = [f"GLOBAL\t{plan.g_dur!r}\t{plan.g_pitch_hz!r}\t{plan.g_energy!r}"]
    for i, word in enumerate(plan.words):
        lines.append(
            f"WORD\t{i}\t{word.surface}\t{word.delta!r}\t{word.pi_hz!r}\t{word.epsilon!r}"
        )
    lines.append(f"BOUNDS\t{plan.bounds.p_min_hz!r}\t{plan.bounds.p_max_hz!r}")
    return "\n".join(lines) + "\n"


def parse_plan(document: str) -> ModificationPlan:
    """Parse and validate a plan document (inverse of :func:`serialize_plan`)."""
    make_word = WordCoefficients._make
    isfinite = math.isfinite
    global_fields: tuple[float, float, float] | None = None
    bounds: PitchBounds | None = None
    words: list[WordCoefficients] = []
    for line_number, line in enumerate(document.split("\n"), start=1):
        if not line or line.isspace():
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "WORD":
            if len(fields) != 6:
                raise DataError(f"line {line_number}: WORD needs index, surface, 3 values")
            _, index_s, surface, delta_s, pi_hz_s, epsilon_s = fields
            try:
                index = int(index_s)
            except ValueError:
                raise DataError(f"line {line_number}: word index {index_s!r}") from None
            if index != len(words):
                raise DataError(
                    f"line {line_number}: word index {index} out of order (expected {len(words)})"
                )
            try:
                delta, pi_hz, epsilon = float(delta_s), float(pi_hz_s), float(epsilon_s)
                finite = isfinite(delta) and isfinite(pi_hz) and isfinite(epsilon)
            except ValueError:
                finite = False
            if not finite:  # parse_finite words the refusal of the first value at fault
                delta = parse_finite(delta_s, "delta", line_number)
                pi_hz = parse_finite(pi_hz_s, "pi_hz", line_number)
                epsilon = parse_finite(epsilon_s, "epsilon", line_number)
            words.append(make_word((surface, delta, pi_hz, epsilon)))
        elif tag == "GLOBAL":
            if global_fields is not None:
                raise DataError(f"line {line_number}: duplicate GLOBAL line")
            if len(fields) != 4:
                raise DataError(f"line {line_number}: GLOBAL needs 3 values")
            names = ("g_dur", "g_pitch_hz", "g_energy")
            global_fields = tuple(parse_finite(raw, name, line_number) for raw, name in zip(fields[1:], names))
        elif tag == "BOUNDS":
            if bounds is not None:
                raise DataError(f"line {line_number}: duplicate BOUNDS line")
            if len(fields) != 3:
                raise DataError(f"line {line_number}: BOUNDS needs 2 values")
            bounds = PitchBounds(
                p_min_hz=parse_finite(fields[1], "p_min_hz", line_number),
                p_max_hz=parse_finite(fields[2], "p_max_hz", line_number),
            )
        else:
            raise DataError(f"line {line_number}: unknown tag {tag!r}")
    if global_fields is None:
        raise DataError("plan document lacks a GLOBAL line")
    if bounds is None:
        raise DataError("plan document lacks a BOUNDS line")
    if not words:
        raise DataError("plan document lacks WORD lines")
    plan = ModificationPlan(*global_fields, tuple(words), bounds)
    validate_plan(plan)
    return plan


def validate_plan(plan: ModificationPlan) -> None:
    """Raise :class:`DataError` unless the plan meets every invariant."""
    g_dur, g_pitch_hz, g_energy, words, (p_min_hz, p_max_hz) = plan
    if not 0.5 <= g_dur <= 2.0:
        raise DataError(f"g_dur {g_dur} outside [0.5, 2]")
    if not 0.5 <= g_energy <= 2.0:
        raise DataError(f"g_energy {g_energy} outside [0.5, 2]")
    for i, (_, delta, pi_hz, epsilon) in enumerate(words):
        if not 1.0 <= delta <= 2.0:
            raise DataError(f"word {i}: delta {delta} outside [1, 2]")
        if not 1.0 <= epsilon <= 2.0:
            raise DataError(f"word {i}: epsilon {epsilon} outside [1, 2]")
        if pi_hz < 0:
            raise DataError(f"word {i}: pi_hz {pi_hz} must be >= 0")
        shift = g_pitch_hz + pi_hz
        if not p_min_hz <= shift <= p_max_hz:
            raise DataError(f"word {i}: pitch shift {shift} outside [{p_min_hz}, {p_max_hz}]")
