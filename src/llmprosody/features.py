"""Phone-level acoustic feature model, its file format, and corpus statistics.

Features arrive from an upstream aligner/pitch tracker as one row per phone
(duration in seconds, log-F0, log-energy) grouped into utterances.  The same
schema is used in two variants: ``raw`` files carry un-normalized log values
and feed :func:`compute_speaker_stats`; ``norm`` files carry speaker-normalized
values and feed the modification pipeline.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


class FeatureFormatError(DataError):
    """A feature or stats document does not follow the expected format."""


class InvariantViolation(DataError):
    """A structurally valid document describes inconsistent data."""


class DegenerateStats(DataError):
    """The corpus is too small or too uniform to yield usable statistics."""


FILE_HEADER = "#feature-file\tv1"
_UTTERANCE_TAG = "#utterance"
_ABSENT = "-"

# string.punctuation plus the common unicode marks LLMs and corpora emit
_PUNCT = string.punctuation + "“”‘’«»—–…¿¡"


@dataclass(frozen=True)
class Word:
    """A word token: punctuation-stripped surface plus its lowercase match key."""

    surface: str
    key: str


def match_key(token: str) -> str:
    """Lowercased, edge-punctuation-stripped form of a token (may be empty)."""
    return token.strip(_PUNCT).lower()


def tokenize_words(text: str) -> tuple[Word, ...]:
    """Split ``text`` on whitespace into matchable word tokens.

    Leading/trailing punctuation is stripped (word-internal characters such as
    apostrophes survive); tokens that are pure punctuation are dropped.  The
    match key is the lowercased surface, so casing and edge punctuation never
    break alignment between a word list and an LLM response.
    """
    words = []
    for token in text.split():
        core = token.strip(_PUNCT)
        if not core:
            continue
        words.append(Word(surface=core, key=core.lower()))
    return tuple(words)


@dataclass(frozen=True)
class PhoneFeature:
    """One aligned phone.

    ``f0`` and ``energy`` are log-scale values; whether they are
    speaker-normalized depends on the containing utterance's variant.
    ``f0`` is present exactly for voiced phones.  Pauses carry no word index
    and are never voiced.
    """

    label: str
    word_index: int | None
    duration_s: float
    f0: float | None
    energy: float
    voiced: bool
    pause: bool


@dataclass(frozen=True)
class UtteranceFeatures:
    """An utterance's text, word list, and aligned phone sequence."""

    id: str
    speaker_id: str
    text: str
    words: tuple[Word, ...]
    phones: tuple[PhoneFeature, ...]
    normalized: bool

    def total_duration_s(self) -> float:
        return sum(ph.duration_s for ph in self.phones)


@dataclass(frozen=True)
class SpeakerStats:
    """Normalization constants and the speaker's natural F0 range.

    ``mu``/``sigma`` pairs are mean and sample standard deviation of log-F0
    (voiced phones) and log-energy (non-pause phones).  ``f0_min_hz`` /
    ``f0_max_hz`` bound the speaker's natural range in linear Hz.
    """

    mu_logf0: float
    sigma_logf0: float
    mu_loge: float
    sigma_loge: float
    f0_min_hz: float
    f0_max_hz: float

    def __post_init__(self) -> None:
        if not self.sigma_logf0 > 0:
            raise InvariantViolation(f"sigma_logf0 must be > 0, got {self.sigma_logf0}")
        if not self.sigma_loge > 0:
            raise InvariantViolation(f"sigma_loge must be > 0, got {self.sigma_loge}")
        if not 0 < self.f0_min_hz < self.f0_max_hz:
            raise InvariantViolation(
                f"F0 range must satisfy 0 < min < max, got [{self.f0_min_hz}, {self.f0_max_hz}]"
            )


def validate_utterance(utterance: UtteranceFeatures, line_numbers: Sequence[int] | None = None) -> None:
    """Raise :class:`InvariantViolation` when the utterance is inconsistent.

    ``line_numbers``, when given, holds each phone's source line; messages
    about a phone then name that line.
    """
    uid = utterance.id
    if not uid or any(c.isspace() for c in uid):
        raise InvariantViolation(f"utterance id {uid!r} must be non-empty without whitespace")
    if not utterance.speaker_id or any(c.isspace() for c in utterance.speaker_id):
        raise InvariantViolation(
            f"utterance {uid}: speaker id {utterance.speaker_id!r} must be non-empty without whitespace"
        )
    if "\t" in utterance.text or "\n" in utterance.text:
        raise InvariantViolation(f"utterance {uid}: text must not contain tabs or newlines")
    if utterance.words != tokenize_words(utterance.text):
        raise InvariantViolation(f"utterance {uid}: word list does not match tokenized text")

    def where(k: int) -> str:
        return f"utterance {uid}" if line_numbers is None else f"utterance {uid} line {line_numbers[k]}"

    n_words = len(utterance.words)
    previous = -1
    referenced = set()
    for k, ph in enumerate(utterance.phones):
        if ph.pause and (ph.word_index is not None or ph.voiced):
            raise InvariantViolation(
                f"{where(k)}: pause phone {ph.label!r} must be unvoiced with no word index"
            )
        if ph.voiced != (ph.f0 is not None):
            raise InvariantViolation(
                f"{where(k)}: phone {ph.label!r} voiced flag inconsistent with F0 presence"
            )
        if not ph.duration_s > 0:
            raise InvariantViolation(
                f"{where(k)}: phone {ph.label!r} duration must be > 0, got {ph.duration_s}"
            )
        if ph.word_index is not None:
            if ph.word_index >= n_words:
                raise InvariantViolation(
                    f"{where(k)}: word index {ph.word_index} out of range (W={n_words})"
                )
            if ph.word_index < previous:
                raise InvariantViolation(
                    f"{where(k)}: word indices must be non-decreasing "
                    f"({ph.word_index} after {previous})"
                )
            previous = ph.word_index
            referenced.add(ph.word_index)
    missing = set(range(n_words)) - referenced
    if missing:
        raise InvariantViolation(
            f"utterance {uid}: words {sorted(missing)} are not referenced by any phone"
        )


def make_utterance(
    utterance_id: str,
    speaker_id: str,
    text: str,
    phones: tuple[PhoneFeature, ...] | list[PhoneFeature],
    normalized: bool,
    line_numbers: Sequence[int] | None = None,
) -> UtteranceFeatures:
    """Build a validated utterance, deriving the word list from ``text``."""
    utterance = UtteranceFeatures(
        id=utterance_id,
        speaker_id=speaker_id,
        text=text,
        words=tokenize_words(text),
        phones=tuple(phones),
        normalized=normalized,
    )
    validate_utterance(utterance, line_numbers)
    return utterance


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _parse_float(field: str, what: str, line_number: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise FeatureFormatError(f"line {line_number}: {what} {field!r} is not a number") from None
    if not math.isfinite(value):
        raise FeatureFormatError(f"line {line_number}: {what} must be finite, got {field!r}")
    return value


def serialize_features(utterances: list[UtteranceFeatures] | tuple[UtteranceFeatures, ...]) -> str:
    """Render utterances in the canonical feature-file form (inverse of parse)."""
    lines = [FILE_HEADER]
    for utterance in utterances:
        variant = "norm" if utterance.normalized else "raw"
        lines.append(
            f"{_UTTERANCE_TAG}\t{utterance.id}\t{utterance.speaker_id}\t{variant}\t{utterance.text}"
        )
        for ph in utterance.phones:
            word_index = _ABSENT if ph.word_index is None else str(ph.word_index)
            f0 = _ABSENT if ph.f0 is None else _fmt(ph.f0)
            duration = _fmt(ph.duration_s)
            if duration == "0.000000":  # written as zero, it could not be parsed back
                raise InvariantViolation(
                    f"utterance {utterance.id}: phone duration {ph.duration_s} rounds to 0.000000"
                )
            if not math.isfinite(ph.energy) or (ph.f0 is not None and not math.isfinite(ph.f0)):
                raise InvariantViolation(
                    f"utterance {utterance.id}: phone {ph.label!r} has a non-finite F0 or energy"
                )
            lines.append(
                "\t".join(
                    [
                        ph.label,
                        word_index,
                        duration,
                        f0,
                        _fmt(ph.energy),
                        "1" if ph.voiced else "0",
                        "1" if ph.pause else "0",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def parse_features(document: str) -> list[UtteranceFeatures]:
    """Parse a feature file into validated utterances.

    Format errors report the offending line number; invariant violations name
    the utterance (and line, where one applies).
    """
    lines = document.split("\n")
    header_seen = False
    utterances: list[UtteranceFeatures] = []
    current: dict | None = None

    def finish(block: dict) -> None:
        if not block["phones"]:
            raise InvariantViolation(f"utterance {block['utterance_id']}: has no phones")
        utterances.append(make_utterance(**block))

    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if not header_seen:
            if line != FILE_HEADER:
                raise FeatureFormatError(
                    f"line {line_number}: expected feature-file header, got {line!r}"
                )
            header_seen = True
            continue
        if line.startswith(_UTTERANCE_TAG):
            if current is not None:
                finish(current)
            fields = line.split("\t", 4)
            if len(fields) != 5 or fields[0] != _UTTERANCE_TAG:
                raise FeatureFormatError(f"line {line_number}: malformed utterance header")
            variant = fields[3]
            if variant not in ("raw", "norm"):
                raise FeatureFormatError(
                    f"line {line_number}: variant must be 'raw' or 'norm', got {variant!r}"
                )
            current = {
                "utterance_id": fields[1],
                "speaker_id": fields[2],
                "normalized": variant == "norm",
                "text": fields[4],
                "phones": [],
                "line_numbers": [],
            }
            continue
        if current is None:
            raise FeatureFormatError(f"line {line_number}: phone row before any utterance header")
        fields = line.split("\t")
        if len(fields) != 7:
            raise FeatureFormatError(
                f"line {line_number}: expected 7 tab-separated fields, got {len(fields)}"
            )
        label, word_index_s, duration_s, f0_s, energy_s, voiced_s, pause_s = fields
        if voiced_s not in ("0", "1") or pause_s not in ("0", "1"):
            raise FeatureFormatError(f"line {line_number}: voiced/pause flags must be 0 or 1")
        voiced = voiced_s == "1"
        pause = pause_s == "1"
        if word_index_s == _ABSENT:
            word_index = None
        else:
            try:
                word_index = int(word_index_s)
            except ValueError:
                raise FeatureFormatError(
                    f"line {line_number}: word index {word_index_s!r} is not an integer"
                ) from None
            if word_index < 0:
                raise FeatureFormatError(f"line {line_number}: word index must be >= 0")
        duration = _parse_float(duration_s, "duration", line_number)
        energy = _parse_float(energy_s, "energy", line_number)
        if f0_s == _ABSENT:
            f0 = None
        else:
            f0 = _parse_float(f0_s, "F0", line_number)
        current["phones"].append(
            PhoneFeature(
                label=label,
                word_index=word_index,
                duration_s=duration,
                f0=f0,
                energy=energy,
                voiced=voiced,
                pause=pause,
            )
        )
        current["line_numbers"].append(line_number)
    if not header_seen:
        raise FeatureFormatError("line 1: empty document (missing feature-file header)")
    if current is not None:
        finish(current)
    return utterances


_STATS_KEYS = ("mu_logf0", "sigma_logf0", "mu_loge", "sigma_loge", "f0_min_hz", "f0_max_hz")


def serialize_speaker_stats(stats: SpeakerStats) -> str:
    """Render stats as key/value lines; floats keep full precision."""
    return "".join(f"{key}\t{getattr(stats, key)!r}\n" for key in _STATS_KEYS)


def parse_speaker_stats(document: str) -> SpeakerStats:
    values: dict[str, float] = {}
    for line_number, line in enumerate(document.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise FeatureFormatError(f"line {line_number}: expected key<TAB>value")
        key, value_s = fields
        if key not in _STATS_KEYS:
            raise FeatureFormatError(f"line {line_number}: unknown stats key {key!r}")
        if key in values:
            raise FeatureFormatError(f"line {line_number}: duplicate stats key {key!r}")
        values[key] = _parse_float(value_s, key, line_number)
    missing = [key for key in _STATS_KEYS if key not in values]
    if missing:
        raise FeatureFormatError(f"stats file is missing keys: {', '.join(missing)}")
    return SpeakerStats(**values)


def compute_speaker_stats(
    utterances: list[UtteranceFeatures] | tuple[UtteranceFeatures, ...],
    min_duration_s: float = 1.5,
    range_percentiles: tuple[float, float] = (5.0, 95.0),
) -> SpeakerStats:
    """Corpus statistics over raw-variant utterances.

    Utterances with total duration below ``min_duration_s`` are excluded.
    F0 statistics use voiced phones; energy statistics use all non-pause
    phones.  The speaker's F0 range is the given percentiles of linear-Hz
    voiced F0.
    """
    low, high = range_percentiles
    if not 0 <= low < high <= 100:
        raise DataError(f"percentiles must satisfy 0 <= low < high <= 100, got {range_percentiles}")
    for utterance in utterances:
        if utterance.normalized:
            raise DataError(
                f"utterance {utterance.id}: statistics require raw features, got normalized"
            )
    kept = [u for u in utterances if u.total_duration_s() >= min_duration_s]
    logf0 = [ph.f0 for u in kept for ph in u.phones if ph.voiced]
    loge = [ph.energy for u in kept for ph in u.phones if not ph.pause]
    if len(logf0) < 2:
        raise DegenerateStats(
            f"need at least 2 voiced phones after filtering, got {len(logf0)}"
        )
    mu_logf0 = float(np.mean(logf0))
    sigma_logf0 = float(np.std(logf0, ddof=1))
    mu_loge = float(np.mean(loge))
    sigma_loge = float(np.std(loge, ddof=1))
    if sigma_logf0 == 0.0 or sigma_loge == 0.0:
        raise DegenerateStats("zero variance in log-F0 or log-energy")
    hz = np.exp(logf0)
    f0_min_hz, f0_max_hz = (float(v) for v in np.percentile(hz, [low, high]))
    if not f0_min_hz < f0_max_hz:
        raise DegenerateStats(
            f"degenerate F0 range: percentiles give [{f0_min_hz}, {f0_max_hz}]"
        )
    return SpeakerStats(
        mu_logf0=mu_logf0,
        sigma_logf0=sigma_logf0,
        mu_loge=mu_loge,
        sigma_loge=sigma_loge,
        f0_min_hz=f0_min_hz,
        f0_max_hz=f0_max_hz,
    )
