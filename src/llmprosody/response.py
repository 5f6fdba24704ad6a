"""The strict response grammar: validating parser and canonical serializer.

The grammar the model is taught, and the only thing the parser accepts:

    REASONING: <free text, one or more lines, up to the GLOBAL line>
    GLOBAL: duration=<v> pitch=<v> energy=<v>
    WORD <index> <word>: duration=<v> pitch=<v> energy=<v>

One WORD line per target word, in ascending index order, echoing the word.
Misaligned word lists (skipped, invented, duplicated, or reordered words) are
rejected with per-line diagnostics; out-of-range numeric values are clamped
and flagged rather than rejected.  Non-finite values (``nan``, ``inf``) are
not numbers on any scale: they are rejected like any other non-numeric value,
so the repair loop asks again.  Indices and values are written in ASCII: a
digit outside it, or a ``_`` between digits, is not a number here.

The parser reads the non-blank lines in one pass.  The first one must be the
REASONING: line; any other first line is reported and then read like the
lines after it.  Until the first GLOBAL or WORD line, every line is part of
the reasoning (a WORD line there is reported as a missing GLOBAL line and
then read as a WORD line).  After it, every line must be a WORD line.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum

from .errors import DataError
from .features import Word, match_key
from .mapping import (
    GLOBAL_SCALE, LOCAL_SCALE, LlmScaleSuggestion, WordSuggestion, check_suggestion_words, clamp_to_scale,
)


class DiagnosticKind(Enum):
    MISSING_GLOBAL = "MissingGlobal"
    WORD_COUNT_MISMATCH = "WordCountMismatch"
    WORD_IDENTITY_MISMATCH = "WordIdentityMismatch"
    VALUE_NOT_NUMERIC = "ValueNotNumeric"
    VALUE_OUT_OF_RANGE = "ValueOutOfRange"
    DUPLICATE_WORD_INDEX = "DuplicateWordIndex"
    UNPARSEABLE_LINE = "UnparseableLine"


class ParseDiagnostic(namedtuple("ParseDiagnostic", "kind line_number detail")):
    __slots__ = ()
    kind: DiagnosticKind
    line_number: int
    detail: str

    @property
    def clamped(self) -> bool:
        return self.kind is DiagnosticKind.VALUE_OUT_OF_RANGE

    @property
    def fatal(self) -> bool:
        # clamped values still yield a usable suggestion; everything else is structural
        return not self.clamped

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.kind.value}: {self.detail}"


class ParseResult(namedtuple("ParseResult", "suggestion reasoning diagnostics")):
    __slots__ = ()
    suggestion: LlmScaleSuggestion | None
    reasoning: str
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.suggestion is not None

    @property
    def fatal_diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.fatal)


_REASONING_RE = re.compile(r"^\s*REASONING\s*:\s?(.*)$")
_GLOBAL_RE = re.compile(
    r"^\s*GLOBAL\s*:\s*duration=(\S+)\s+pitch=(\S+)\s+energy=(\S+)\s*$"
)
# an index longer than 9 digits cannot name a word, and int() refuses very long ones; \d would
# also match non-ASCII digits
_WORD_RE = re.compile(
    r"^\s*WORD\s+([0-9]{1,9})\s+(\S+?)\s*:\s*duration=(\S+)\s+pitch=(\S+)\s+energy=(\S+)\s*$"
)


def parse_response(text: str, expected_words: tuple[Word, ...]) -> ParseResult:
    """Parse raw model output against the expected word list.

    Never raises on arbitrary text: structural problems are returned as fatal
    diagnostics (and ``suggestion`` is None); out-of-range finite values are
    clamped and flagged without failing the parse.  Diagnostics cover all
    independent errors, each with its line number.
    """
    if not expected_words:
        raise ValueError("expected_words must be non-empty")
    diagnostics: list[ParseDiagnostic] = []

    def report(kind: DiagnosticKind, line_number: int, detail: str) -> None:
        diagnostics.append(ParseDiagnostic(kind, line_number, detail))

    def read_values(
        raws: tuple[str, str, str], scale: tuple[float, float], line_number: int, index: int | None = None
    ) -> tuple[float | None, ...]:
        # the raw duration, pitch and energy of a GLOBAL (index None) or WORD line
        low, high = scale
        joined = "".join(raws)
        if joined.isascii() and "_" not in joined:  # the common case: three numbers on the scale
            try:
                duration, pitch, energy = float(raws[0]), float(raws[1]), float(raws[2])
            except ValueError:
                pass
            else:
                if low <= duration <= high and low <= pitch <= high and low <= energy <= high:
                    return duration, pitch, energy
        values: list[float | None] = []
        for name, raw in zip(("duration", "pitch", "energy"), raws):
            try:
                # float() also reads digit-group underscores and non-ASCII digits, which are not in the grammar
                value = float(raw) if raw.isascii() and "_" not in raw else math.nan
            except ValueError:
                value = math.nan  # refused below, like nan and inf
            if low <= value <= high:  # the common case: nothing to report, so no label to build
                values.append(value)
                continue
            label = f"GLOBAL {name}" if index is None else f"word {index} {name}"
            if not math.isfinite(value):
                report(DiagnosticKind.VALUE_NOT_NUMERIC, line_number, f"{label} value {raw!r} is not a number")
                values.append(None)
                continue
            clamped = clamp_to_scale(value, scale, label)
            detail = f"{label} value {value!r} outside [{low:g}, {high:g}]; clamped to {clamped:g}"
            report(DiagnosticKind.VALUE_OUT_OF_RANGE, line_number, detail)
            values.append(clamped)
        return tuple(values)

    reasoning_lines: list[str] = []
    global_values: tuple[float | None, ...] | None = None
    entries: dict[int, WordSuggestion] = {}
    mentioned: set[int] = set()
    # indices a WordCountMismatch already names as the one expected next
    already_named: set[int] = set()
    n_words = len(expected_words)
    expected_next = 0
    lines = text.split("\n")
    reasoning_first = True  # until the first line that is not blank, which should be the REASONING: line
    in_words = False  # set by the first GLOBAL or WORD line
    new = tuple.__new__  # a WordSuggestion without namedtuple's _make frame: read_values gives three values

    for line_number, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        if reasoning_first:
            reasoning_first = False
            first_m = _REASONING_RE.match(line)
            if first_m:
                reasoning_lines.append(first_m.group(1))
                continue
            # reported here, then read below as a reasoning, GLOBAL or WORD line
            report(DiagnosticKind.UNPARSEABLE_LINE, line_number, f"expected a REASONING: line first, got {line!r}")
        word_m = _WORD_RE.match(line)
        if not in_words:
            global_m = _GLOBAL_RE.match(line)
            if global_m:
                global_values = read_values(global_m.groups(), GLOBAL_SCALE, line_number)
                in_words = True
                continue
            if not word_m:
                reasoning_lines.append(line)
                continue
            report(DiagnosticKind.MISSING_GLOBAL, line_number, "WORD line before any GLOBAL line")
            in_words = True  # fall through and read the WORD line
        if not word_m:
            if _GLOBAL_RE.match(line):
                detail = "duplicate GLOBAL line"
            else:
                detail = f"line is neither a WORD line nor blank: {line!r}"
            report(DiagnosticKind.UNPARSEABLE_LINE, line_number, detail)
            continue
        index_text, surface, raw_duration, raw_pitch, raw_energy = word_m.groups()
        index = int(index_text)
        if index in mentioned:
            detail = f"word index {index} appears more than once"
            report(DiagnosticKind.DUPLICATE_WORD_INDEX, line_number, detail)
            continue
        mentioned.add(index)
        if index >= n_words:
            detail = f"unexpected word index {index}; the text has {n_words} words"
            report(DiagnosticKind.WORD_COUNT_MISMATCH, line_number, detail)
        else:
            if index != expected_next:
                already_named.add(expected_next)
                detail = f"expected word index {expected_next} next, got {index}"
                report(DiagnosticKind.WORD_COUNT_MISMATCH, line_number, detail)
            expected = expected_words[index]
            # a Word's key is match_key of its surface, so an echo of the surface itself matches
            if surface != expected.surface and match_key(surface) != expected.key:
                detail = f"word {index} should be {expected.surface!r}, response says {surface!r}"
                report(DiagnosticKind.WORD_IDENTITY_MISMATCH, line_number, detail)
            raws = (raw_duration, raw_pitch, raw_energy)
            duration, pitch, energy = read_values(raws, LOCAL_SCALE, line_number, index)
            if duration is not None and pitch is not None and energy is not None:
                entries[index] = new(WordSuggestion, (expected.key, duration, pitch, energy))
        if index >= expected_next:
            expected_next = index + 1

    if not in_words:  # neither a GLOBAL line nor a WORD line standing in for one
        report(DiagnosticKind.MISSING_GLOBAL, len(lines), "no GLOBAL line found")
    unreported = [i for i in range(n_words) if i not in mentioned and i not in already_named]
    if unreported and global_values is not None:
        detail = "missing word indices: " + ", ".join(str(i) for i in unreported)
        report(DiagnosticKind.WORD_COUNT_MISMATCH, len(lines), detail)
    suggestion = None
    if global_values is not None and len(entries) == n_words and not any(d.fatal for d in diagnostics):
        suggestion = LlmScaleSuggestion(*global_values, words=tuple(entries[i] for i in range(n_words)))
    return ParseResult(suggestion, "\n".join(reasoning_lines), tuple(diagnostics))


# the text of each integral value on a scale: every mock and packaged exemplar value is one
_GLOBAL_TEXTS = {float(v): str(v) for v in range(-5, 6)}
_LOCAL_TEXTS = {float(v): _GLOBAL_TEXTS[v] for v in range(6)}


def _value_text(value: float, scale: tuple[float, float], name: str, index: int | None = None) -> str:
    # integral values render as the prompt's integer scales ask, others exactly; one off its scale is refused
    number = float(value)
    low, high = scale
    if not low <= number <= high:
        label = f"GLOBAL {name}" if index is None else f"word {index} {name}"
        raise DataError(f"{label} value {value!r} is not a number in [{low:g}, {high:g}]")
    return str(int(number)) if number.is_integer() else repr(number)


def serialize_suggestion(
    suggestion: LlmScaleSuggestion,
    surface_words: tuple[Word, ...],
    reasoning: str = "",
) -> str:
    """Render a suggestion in the canonical grammar (inverse of parse).

    ``surface_words`` supplies the echoed word forms and must align with the
    suggestion's keys (:func:`~llmprosody.mapping.check_suggestion_words`).
    A reasoning line after the first that is blank or reads as a GLOBAL or
    WORD line, or a value that is not a number on its scale, raises
    :class:`DataError`: the parser would not read it back as written.
    """
    check_suggestion_words(suggestion, surface_words)
    for line in reasoning.split("\n")[1:] if "\n" in reasoning else ():  # each must read back as reasoning
        if not line.strip() or _GLOBAL_RE.match(line) or _WORD_RE.match(line):
            raise DataError(f"reasoning line {line!r} would not read back as reasoning")
    lines = [f"REASONING: {reasoning}" if reasoning else "REASONING:"]
    duration, pitch, energy, _ = suggestion
    get = _GLOBAL_TEXTS.get
    lines.append(
        f"GLOBAL: duration={get(duration) or _value_text(duration, GLOBAL_SCALE, 'duration')} "
        f"pitch={get(pitch) or _value_text(pitch, GLOBAL_SCALE, 'pitch')} "
        f"energy={get(energy) or _value_text(energy, GLOBAL_SCALE, 'energy')}"
    )
    get = _LOCAL_TEXTS.get
    for i, ((_, duration, pitch, energy), word) in enumerate(zip(suggestion.words, surface_words)):
        lines.append(
            f"WORD {i} {word.surface}: duration={get(duration) or _value_text(duration, LOCAL_SCALE, 'duration', i)} "
            f"pitch={get(pitch) or _value_text(pitch, LOCAL_SCALE, 'pitch', i)} "
            f"energy={get(energy) or _value_text(energy, LOCAL_SCALE, 'energy', i)}"
        )
    return "\n".join(lines) + "\n"
