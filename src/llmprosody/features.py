"""Phone-level acoustic feature model, its file format, and corpus statistics.

Features arrive from an upstream aligner/pitch tracker as one row per phone
(duration in seconds, log-F0, log-energy) grouped into utterances.  The same
schema is used in two variants: ``raw`` files carry un-normalized log values
and feed :func:`compute_speaker_stats`; ``norm`` files carry speaker-normalized
values and feed the modification pipeline.
The module also owns the log-domain normalization with a speaker's
:class:`SpeakerStats`: ``denorm_*`` to linear units and ``renorm_*`` back.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache, reduce
from operator import add

from .errors import Checked, DataError


FILE_HEADER = "#feature-file\tv1"
_UTTERANCE_TAG = "#utterance"
_ABSENT = "-"

# string.punctuation, written out so that no process imports string for it, plus the common
# unicode marks LLMs and corpora emit
_PUNCT = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~" + "“”‘’«»—–…¿¡"


class Word(namedtuple("Word", "surface key")):
    """A word token: punctuation-stripped surface plus its lowercase match key."""

    __slots__ = ()
    surface: str
    key: str


def match_key(token: str) -> str:
    """Lowercased, edge-punctuation-stripped form of a token (may be empty)."""
    return token.strip(_PUNCT).lower()


# more texts than the packaged exemplar set plus one target: a CLI plan reads the ten examples between
# parsing its utterance and building its prompt, and its target text is then tokenized once
_TOKENIZE_MEMO_SIZE = 32


@lru_cache(maxsize=_TOKENIZE_MEMO_SIZE)
def tokenize_words(text: str) -> tuple[Word, ...]:
    """Split ``text`` on whitespace into matchable word tokens.

    Leading/trailing punctuation is stripped (word-internal characters such as
    apostrophes survive); tokens that are pure punctuation are dropped.  The
    match key is the lowercased surface, so casing and edge punctuation never
    break alignment between a word list and an LLM response.  The last texts
    are memoised: a repeated text gets the same immutable tuple, so the
    utterance, its prompt and its response check share one tokenization.
    """
    new = tuple.__new__  # a Word without namedtuple's _make frame: the field count is fixed here
    words = []
    for token in text.split():
        core = token.strip(_PUNCT)
        if core:
            words.append(new(Word, (core, core.lower())))
    return tuple(words)


class PhoneFeature(namedtuple("PhoneFeature", "label word_index duration_s f0 energy voiced pause")):
    """One aligned phone.

    ``f0`` and ``energy`` are log-scale values; whether they are
    speaker-normalized depends on the containing utterance's variant.
    ``f0`` is present exactly for voiced phones.  Pauses carry no word index
    and are never voiced.
    """

    __slots__ = ()
    label: str
    word_index: int | None
    duration_s: float
    f0: float | None
    energy: float
    voiced: bool
    pause: bool


class UtteranceFeatures(namedtuple("UtteranceFeatures", "id speaker_id text words phones normalized")):
    """An utterance's text, word list, and aligned phone sequence."""

    __slots__ = ()
    id: str
    speaker_id: str
    text: str
    words: tuple[Word, ...]
    phones: tuple[PhoneFeature, ...]
    normalized: bool

    def total_duration_s(self) -> float:
        return sum(ph.duration_s for ph in self.phones)


class SpeakerStats(Checked, namedtuple("SpeakerStats", "mu_logf0 sigma_logf0 mu_loge sigma_loge f0_min_hz f0_max_hz")):
    """Normalization constants and the speaker's natural F0 range.

    ``mu``/``sigma`` pairs are mean and sample standard deviation of log-F0
    (voiced phones) and log-energy (non-pause phones).  ``f0_min_hz`` /
    ``f0_max_hz`` bound the speaker's natural range in linear Hz.
    """

    __slots__ = ()
    mu_logf0: float
    sigma_logf0: float
    mu_loge: float
    sigma_loge: float
    f0_min_hz: float
    f0_max_hz: float

    def _check(self) -> None:
        if not self.sigma_logf0 > 0:
            raise DataError(f"sigma_logf0 must be > 0, got {self.sigma_logf0}")
        if not self.sigma_loge > 0:
            raise DataError(f"sigma_loge must be > 0, got {self.sigma_loge}")
        if not 0 < self.f0_min_hz < self.f0_max_hz:
            raise DataError(f"F0 range must satisfy 0 < min < max, got [{self.f0_min_hz}, {self.f0_max_hz}]")
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")


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
        raise DataError(f"F0 must be > 0 Hz, got {hz}")
    if hz == math.inf:
        raise DataError("F0 is too large to re-normalize")
    return (math.log(hz) - stats.mu_logf0) / stats.sigma_logf0


def denorm_energy(energy_norm: float, stats: SpeakerStats) -> float:
    """Normalized log-energy -> linear energy."""
    energy = _exp(energy_norm * stats.sigma_loge + stats.mu_loge, "energy", energy_norm)
    if energy == 0.0:
        raise DataError(f"normalized energy {energy_norm} is too small to de-normalize")
    return energy


def renorm_energy(energy: float, stats: SpeakerStats) -> float:
    """Linear energy -> normalized log-energy."""
    if not energy > 0:
        raise DataError(f"energy must be > 0, got {energy}")
    if energy == math.inf:
        raise DataError("energy is too large to re-normalize")
    return (math.log(energy) - stats.mu_loge) / stats.sigma_loge


def make_utterance(
    utterance_id: str,
    speaker_id: str,
    text: str,
    phones: tuple[PhoneFeature, ...] | list[PhoneFeature],
    normalized: bool,
    line_numbers: Sequence[int] | None = None,
) -> UtteranceFeatures:
    """Build a validated utterance, deriving the word list from ``text``.

    Raises :class:`DataError` when the utterance is inconsistent.
    ``line_numbers``, when given, holds each phone's source line, and messages
    about a phone name it.
    """
    uid = utterance_id
    phones = tuple(phones)
    if not phones:
        raise DataError(f"utterance {uid}: has no phones")
    if not uid or any(c.isspace() for c in uid):
        raise DataError(f"utterance id {uid!r} must be non-empty without whitespace")
    if not speaker_id or any(c.isspace() for c in speaker_id):
        raise DataError(
            f"utterance {uid}: speaker id {speaker_id!r} must be non-empty without whitespace"
        )
    if "\t" in text or "\n" in text:
        raise DataError(f"utterance {uid}: text must not contain tabs or newlines")
    words = tokenize_words(text)

    def where(k: int) -> str:
        return f"utterance {uid}" if line_numbers is None else f"utterance {uid} line {line_numbers[k]}"

    n_words = len(words)
    previous = -1
    referenced = set()  # indices are checked non-decreasing, so each is added once
    for k, (label, j, duration, f0, _, voiced, pause) in enumerate(phones):
        if pause and (j is not None or voiced):
            raise DataError(f"{where(k)}: pause phone {label!r} must be unvoiced with no word index")
        if voiced != (f0 is not None):
            raise DataError(f"{where(k)}: phone {label!r} voiced flag inconsistent with F0 presence")
        if not duration > 0:
            raise DataError(f"{where(k)}: phone {label!r} duration must be > 0, got {duration}")
        if j is not None:
            if not 0 <= j < n_words:
                raise DataError(f"{where(k)}: word index {j} out of range (W={n_words})")
            if j != previous:
                if j < previous:
                    raise DataError(f"{where(k)}: word indices must be non-decreasing ({j} after {previous})")
                previous = j
                referenced.add(j)
    if not referenced.issuperset(range(n_words)):
        missing = set(range(n_words)) - referenced
        raise DataError(f"utterance {uid}: words {sorted(missing)} are not referenced by any phone")
    return tuple.__new__(UtteranceFeatures, (uid, speaker_id, text, words, phones, normalized))


def parse_finite(field: str, what: str, line_number: int) -> float:
    """``field`` as a finite float, else :class:`DataError` naming the line."""
    try:
        value = float(field)
    except ValueError:
        raise DataError(f"line {line_number}: {what} {field!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_number}: {what} must be finite, got {field!r}")
    return value


def serialize_features(utterances: list[UtteranceFeatures] | tuple[UtteranceFeatures, ...]) -> str:
    """Render utterances in the canonical feature-file form (inverse of parse)."""
    isfinite = math.isfinite
    lines = [FILE_HEADER]
    ids = set()
    for utterance in utterances:
        uid = utterance.id
        if uid in ids:  # the reader refuses a repeated id
            raise DataError(f"duplicate utterance id {uid!r}")
        ids.add(uid)
        variant = "norm" if utterance.normalized else "raw"
        lines.append(f"{_UTTERANCE_TAG}\t{uid}\t{utterance.speaker_id}\t{variant}\t{utterance.text}")
        for label, word_index, duration_s, f0, energy, voiced, pause in utterance.phones:
            duration = f"{duration_s:.6f}"
            if duration == "0.000000":  # written as zero, it could not be parsed back
                raise DataError(f"utterance {uid}: phone duration {duration_s} rounds to 0.000000")
            if not duration[0].isdigit():  # nor could a negative one, inf or nan
                raise DataError(f"utterance {uid}: phone {label!r} duration {duration} is not finite and positive")
            # nor a label that splits its row or line, or reads as a header; most labels are alphanumeric
            if not label.isalnum() and ("\t" in label or "\n" in label or label.startswith(_UTTERANCE_TAG)):
                raise DataError(f"utterance {uid}: phone label {label!r} would not read back as one phone row")
            if not isfinite(energy) or (f0 is not None and not isfinite(f0)):
                raise DataError(f"utterance {uid}: phone {label!r} has a non-finite F0 or energy")
            f0_text = _ABSENT if f0 is None else f"{f0:.6f}"
            lines.append(
                f"{label}\t{_ABSENT if word_index is None else word_index}\t{duration}\t{f0_text}\t{energy:.6f}"
                f"\t{'1' if voiced else '0'}\t{'1' if pause else '0'}"
            )
    return "\n".join(lines) + "\n"


def parse_features(document: str) -> list[UtteranceFeatures]:
    """Parse a feature file into validated utterances.

    Format errors report the offending line number; invariant violations name
    the utterance (and line, where one applies).
    """
    new = tuple.__new__  # a PhoneFeature without namedtuple's _make frame: the field count is fixed here
    isfinite = math.isfinite
    utterances: list[UtteranceFeatures] = []
    ids: set[str] = set()
    current: tuple | None = None  # make_utterance's arguments for the open utterance
    numbered_lines = enumerate(document.split("\n"), start=1)
    for line_number, line in numbered_lines:  # the first line that is not blank must be the header
        if line and not line.isspace():
            if line != FILE_HEADER:
                raise DataError(f"line {line_number}: expected feature-file header, got {line!r}")
            break
    else:
        raise DataError("line 1: empty document (missing feature-file header)")
    for line_number, line in numbered_lines:
        if not line or line.isspace():
            continue
        if line.startswith(_UTTERANCE_TAG):
            if current is not None:
                utterances.append(make_utterance(*current))
            fields = line.split("\t", 4)
            if len(fields) != 5 or fields[0] != _UTTERANCE_TAG:
                raise DataError(f"line {line_number}: malformed utterance header")
            variant = fields[3]
            if variant not in ("raw", "norm"):
                raise DataError(f"line {line_number}: variant must be 'raw' or 'norm', got {variant!r}")
            if fields[1] in ids:
                raise DataError(f"line {line_number}: duplicate utterance id {fields[1]!r}")
            ids.add(fields[1])
            phones, line_numbers = [], []
            current = (fields[1], fields[2], fields[4], phones, variant == "norm", line_numbers)
            continue
        if current is None:
            raise DataError(f"line {line_number}: phone row before any utterance header")
        fields = line.split("\t")
        if len(fields) != 7:
            raise DataError(f"line {line_number}: expected 7 tab-separated fields, got {len(fields)}")
        label, word_index_s, duration_s, f0_s, energy_s, voiced_s, pause_s = fields
        if voiced_s not in ("0", "1") or pause_s not in ("0", "1"):
            raise DataError(f"line {line_number}: voiced/pause flags must be 0 or 1")
        if word_index_s == _ABSENT:
            word_index = None
        else:
            try:
                word_index = int(word_index_s)
            except ValueError:
                raise DataError(
                    f"line {line_number}: word index {word_index_s!r} is not an integer"
                ) from None
        try:
            duration = float(duration_s)
            energy = float(energy_s)
            f0 = None if f0_s == _ABSENT else float(f0_s)
            finite = isfinite(duration) and isfinite(energy) and (f0 is None or isfinite(f0))
        except ValueError:
            finite = False
        if not finite:  # parse_finite words the refusal of the first field at fault
            duration = parse_finite(duration_s, "duration", line_number)
            energy = parse_finite(energy_s, "energy", line_number)
            f0 = None if f0_s == _ABSENT else parse_finite(f0_s, "F0", line_number)
        phones.append(new(PhoneFeature, (label, word_index, duration, f0, energy, voiced_s == "1", pause_s == "1")))
        line_numbers.append(line_number)
    if current is not None:
        utterances.append(make_utterance(*current))
    return utterances


def serialize_speaker_stats(stats: SpeakerStats) -> str:
    """Render stats as key/value lines; floats keep full precision."""
    return "".join(f"{key}\t{value!r}\n" for key, value in zip(stats._fields, stats))


def parse_speaker_stats(document: str) -> SpeakerStats:
    values: dict[str, float] = {}
    for line_number, line in enumerate(document.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"line {line_number}: expected key<TAB>value")
        key, value_s = fields
        if key not in SpeakerStats._fields:
            raise DataError(f"line {line_number}: unknown stats key {key!r}")
        if key in values:
            raise DataError(f"line {line_number}: duplicate stats key {key!r}")
        values[key] = parse_finite(value_s, key, line_number)
    missing = [key for key in SpeakerStats._fields if key not in values]
    if missing:
        raise DataError(f"stats file is missing keys: {', '.join(missing)}")
    return SpeakerStats(**values)


def _pairwise_sum(values: Sequence[float], start: int, n: int) -> float:
    # numpy's pairwise summation of ``values[start:start + n]``, step for step: a plain
    # loop below 8 values; up to 128, eight strided accumulators combined as a tree and
    # then the tail; above that, halves split at a multiple of 8
    if n < 8:
        return reduce(add, values[start:start + n], 0.0)
    if n <= 128:
        end = start + n - n % 8
        r = [reduce(add, values[start + j:end:8]) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end:start + n], tree)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _sum(values: Sequence[float]) -> float:
    # numpy's reduction adds the pairwise sum to 0.0, which turns a sum of -0.0 into 0.0
    return 0.0 + _pairwise_sum(values, 0, len(values))


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty list, equal to ``numpy.mean`` bit for bit."""
    return _sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation of at least two values, equal to
    ``numpy.std(values, ddof=1)`` bit for bit."""
    m = mean(values)
    return math.sqrt(_sum([(v - m) * (v - m) for v in values]) / (len(values) - 1))


def percentile(ascending: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 100) of sorted values by linear interpolation,
    equal to ``numpy.percentile`` bit for bit."""
    index = (len(ascending) - 1) * (q / 100)
    if index < len(ascending) - 1:
        k = int(index)
        low, high, gamma = ascending[k], ascending[k + 1], index - k
    else:  # numpy interpolates the last value with itself
        low = high = ascending[-1]
        gamma = index + 1
    diff = high - low
    # numpy's two-sided lerp: from the nearer end, so that gamma 1 gives ``high`` exactly
    return high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma


# the largest x with a finite exp(x); numpy's exp gives inf above it, where math.exp raises
_LOG_MAX = math.log(sys.float_info.max)

# compute_speaker_stats' defaults, which the stats command's options take too
MIN_DURATION_S = 1.5
RANGE_PERCENTILES = (5.0, 95.0)


def compute_speaker_stats(
    utterances: list[UtteranceFeatures] | tuple[UtteranceFeatures, ...],
    min_duration_s: float = MIN_DURATION_S,
    range_percentiles: tuple[float, float] = RANGE_PERCENTILES,
) -> SpeakerStats:
    """Corpus statistics over raw-variant utterances.

    Utterances with total duration below ``min_duration_s`` are excluded.
    F0 statistics use voiced phones; energy statistics use all non-pause
    phones.  The speaker's F0 range is the given percentiles of linear-Hz
    voiced F0.  Linear Hz comes from ``math.exp``, so the range, and every
    plan's bounds built from it, are the same on every CPU.
    """
    low, high = range_percentiles
    if not 0 <= low < high <= 100:
        raise DataError(f"percentiles must satisfy 0 <= low < high <= 100, got {range_percentiles}")
    for utterance in utterances:
        if utterance.normalized:
            raise DataError(f"utterance {utterance.id}: statistics require raw features, got normalized")
    kept = [u for u in utterances if u.total_duration_s() >= min_duration_s]
    logf0 = [ph.f0 for u in kept for ph in u.phones if ph.voiced]
    loge = [ph.energy for u in kept for ph in u.phones if not ph.pause]
    if len(logf0) < 2:
        raise DataError(f"need at least 2 voiced phones after filtering, got {len(logf0)}")
    mu_logf0 = mean(logf0)
    sigma_logf0 = sample_std(logf0)
    mu_loge = mean(loge)
    sigma_loge = sample_std(loge)
    if sigma_logf0 == 0.0 or sigma_loge == 0.0:
        raise DataError("zero variance in log-F0 or log-energy")
    hz = sorted(math.exp(v) if v <= _LOG_MAX else math.inf for v in logf0)
    f0_min_hz, f0_max_hz = percentile(hz, low), percentile(hz, high)
    if not f0_min_hz < f0_max_hz:
        raise DataError(f"degenerate F0 range: percentiles give [{f0_min_hz}, {f0_max_hz}]")
    return SpeakerStats(
        mu_logf0=mu_logf0,
        sigma_logf0=sigma_logf0,
        mu_loge=mu_loge,
        sigma_loge=sigma_loge,
        f0_min_hz=f0_min_hz,
        f0_max_hz=f0_max_hz,
    )
