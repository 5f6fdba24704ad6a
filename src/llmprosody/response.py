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
so the repair loop asks again.

The parser reads the non-blank lines in one pass.  The first one must be the
REASONING: line; any other first line is reported and then read like the
lines after it.  Until the first GLOBAL or WORD line, every line is part of
the reasoning (a WORD line there is reported as a missing GLOBAL line and
then read as a WORD line).  After it, every line must be a WORD line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import DataError
from .features import Word, match_key
from .mapping import GLOBAL_SCALE, LOCAL_SCALE, LlmScaleSuggestion, WordSuggestion, clamp_to_scale


class AlignmentMismatch(DataError):
    """Suggestion and word list do not describe the same words."""


class DiagnosticKind(Enum):
    MISSING_GLOBAL = "MissingGlobal"
    WORD_COUNT_MISMATCH = "WordCountMismatch"
    WORD_IDENTITY_MISMATCH = "WordIdentityMismatch"
    VALUE_NOT_NUMERIC = "ValueNotNumeric"
    VALUE_OUT_OF_RANGE = "ValueOutOfRange"
    DUPLICATE_WORD_INDEX = "DuplicateWordIndex"
    UNPARSEABLE_LINE = "UnparseableLine"


@dataclass(frozen=True)
class ParseDiagnostic:
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


@dataclass(frozen=True)
class ParseResult:
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
# an index longer than 9 digits cannot name a word, and int() refuses very long ones
_WORD_RE = re.compile(
    r"^\s*WORD\s+(\d{1,9})\s+(\S+?)\s*:\s*duration=(\S+)\s+pitch=(\S+)\s+energy=(\S+)\s*$"
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
        match: re.Match[str], scale: tuple[float, float], what: str, line_number: int
    ) -> tuple[float | None, ...]:
        # the duration, pitch and energy of a GLOBAL or WORD line are its last three groups
        low, high = scale
        values: list[float | None] = []
        for name, raw in zip(("duration", "pitch", "energy"), match.groups()[-3:]):
            label = f"{what} {name}"
            try:
                value = float(raw)
                clamped = clamp_to_scale(value, scale, label)
            except (ValueError, DataError):
                report(DiagnosticKind.VALUE_NOT_NUMERIC, line_number, f"{label} value {raw!r} is not a number")
                clamped = None
            else:
                if clamped != value:
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
    numbered = [(line_number, line) for line_number, line in enumerate(lines, start=1) if line.strip()]
    if numbered:
        first_number, first = numbered[0]
        first_m = _REASONING_RE.match(first)
        if first_m:
            reasoning_lines.append(first_m.group(1))
            del numbered[0]
        else:  # reported here, then read again below as a reasoning, GLOBAL or WORD line
            detail = f"expected a REASONING: line first, got {first!r}"
            report(DiagnosticKind.UNPARSEABLE_LINE, first_number, detail)
    in_words = False  # set by the first GLOBAL or WORD line

    for line_number, line in numbered:
        word_m = _WORD_RE.match(line)
        if not in_words:
            global_m = _GLOBAL_RE.match(line)
            if global_m:
                global_values = read_values(global_m, GLOBAL_SCALE, "GLOBAL", line_number)
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
        index = int(word_m.group(1))
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
            if match_key(word_m.group(2)) != expected.key:
                detail = f"word {index} should be {expected.surface!r}, response says {word_m.group(2)!r}"
                report(DiagnosticKind.WORD_IDENTITY_MISMATCH, line_number, detail)
            values = read_values(word_m, LOCAL_SCALE, f"word {index}", line_number)
            if None not in values:
                entries[index] = WordSuggestion(index, expected.key, *values)
        expected_next = max(expected_next, index + 1)

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


def _value_text(value: float) -> str:
    # integral values render without a trailing .0, matching the integer
    # scales the prompt asks for; repr keeps non-integral values exact
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def serialize_suggestion(
    suggestion: LlmScaleSuggestion,
    surface_words: tuple[Word, ...],
    reasoning: str = "",
) -> str:
    """Render a suggestion in the canonical grammar (inverse of parse).

    ``surface_words`` supplies the echoed word forms and must align with the
    suggestion's keys.
    """
    if not surface_words:
        raise AlignmentMismatch("a suggestion requires at least one word")
    if len(surface_words) != len(suggestion.words):
        raise AlignmentMismatch(
            f"suggestion has {len(suggestion.words)} words, word list has {len(surface_words)}"
        )
    for entry, word in zip(suggestion.words, surface_words):
        if entry.key != word.key:
            raise AlignmentMismatch(
                f"word {entry.index}: suggestion key {entry.key!r} != word key {word.key!r}"
            )
    lines = [f"REASONING: {reasoning}" if reasoning else "REASONING:"]
    lines.append(
        "GLOBAL: "
        f"duration={_value_text(suggestion.global_duration)} "
        f"pitch={_value_text(suggestion.global_pitch)} "
        f"energy={_value_text(suggestion.global_energy)}"
    )
    for entry, word in zip(suggestion.words, surface_words):
        lines.append(
            f"WORD {entry.index} {word.surface}: "
            f"duration={_value_text(entry.local_duration)} "
            f"pitch={_value_text(entry.local_pitch)} "
            f"energy={_value_text(entry.local_energy)}"
        )
    return "\n".join(lines) + "\n"
