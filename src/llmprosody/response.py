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


def _parse_value(
    raw: str,
    scale: tuple[float, float],
    what: str,
    line_number: int,
    diagnostics: list[ParseDiagnostic],
) -> float | None:
    try:
        value = float(raw)
        clamped = clamp_to_scale(value, scale, what)
    except (ValueError, DataError):
        diagnostics.append(
            ParseDiagnostic(
                DiagnosticKind.VALUE_NOT_NUMERIC, line_number, f"{what} value {raw!r} is not a number"
            )
        )
        return None
    if clamped != value:
        low, high = scale
        diagnostics.append(
            ParseDiagnostic(
                DiagnosticKind.VALUE_OUT_OF_RANGE,
                line_number,
                f"{what} value {value!r} outside [{low:g}, {high:g}]; clamped to {clamped:g}",
            )
        )
    return clamped


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
    reasoning_lines: list[str] = []
    global_values: tuple[float | None, float | None, float | None] | None = None
    entries: dict[int, WordSuggestion] = {}
    mentioned: set[int] = set()
    # indices a WordCountMismatch already names as the one expected next
    already_named: set[int] = set()
    n_words = len(expected_words)
    expected_next = 0
    state = "start"  # start -> reasoning -> words
    lines = text.split("\n")
    last_line_number = max(1, len(lines))

    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        global_m = _GLOBAL_RE.match(line)
        word_m = _WORD_RE.match(line)
        if state == "start":
            reasoning_m = _REASONING_RE.match(line)
            if reasoning_m:
                reasoning_lines.append(reasoning_m.group(1))
                state = "reasoning"
                continue
            diagnostics.append(
                ParseDiagnostic(
                    DiagnosticKind.UNPARSEABLE_LINE,
                    line_number,
                    f"expected a REASONING: line first, got {line!r}",
                )
            )
            state = "reasoning"  # recover: keep scanning for GLOBAL/WORD lines
        if state == "reasoning":
            if global_m:
                global_values = (
                    _parse_value(global_m.group(1), GLOBAL_SCALE, "GLOBAL duration", line_number, diagnostics),
                    _parse_value(global_m.group(2), GLOBAL_SCALE, "GLOBAL pitch", line_number, diagnostics),
                    _parse_value(global_m.group(3), GLOBAL_SCALE, "GLOBAL energy", line_number, diagnostics),
                )
                state = "words"
                continue
            if word_m:
                diagnostics.append(
                    ParseDiagnostic(
                        DiagnosticKind.MISSING_GLOBAL,
                        line_number,
                        "WORD line before any GLOBAL line",
                    )
                )
                state = "words"  # fall through and process the word line
            else:
                reasoning_lines.append(line)
                continue
        # state == "words"
        if word_m:
            index = int(word_m.group(1))
            echoed = word_m.group(2)
            if index in mentioned:
                diagnostics.append(
                    ParseDiagnostic(
                        DiagnosticKind.DUPLICATE_WORD_INDEX,
                        line_number,
                        f"word index {index} appears more than once",
                    )
                )
                continue
            mentioned.add(index)
            if index >= n_words:
                diagnostics.append(
                    ParseDiagnostic(
                        DiagnosticKind.WORD_COUNT_MISMATCH,
                        line_number,
                        f"unexpected word index {index}; the text has {n_words} words",
                    )
                )
                expected_next = max(expected_next, index + 1)
                continue
            if index != expected_next:
                already_named.add(expected_next)
                diagnostics.append(
                    ParseDiagnostic(
                        DiagnosticKind.WORD_COUNT_MISMATCH,
                        line_number,
                        f"expected word index {expected_next} next, got {index}",
                    )
                )
            expected = expected_words[index]
            if match_key(echoed) != expected.key:
                diagnostics.append(
                    ParseDiagnostic(
                        DiagnosticKind.WORD_IDENTITY_MISMATCH,
                        line_number,
                        f"word {index} should be {expected.surface!r}, response says {echoed!r}",
                    )
                )
            values = (
                _parse_value(word_m.group(3), LOCAL_SCALE, f"word {index} duration", line_number, diagnostics),
                _parse_value(word_m.group(4), LOCAL_SCALE, f"word {index} pitch", line_number, diagnostics),
                _parse_value(word_m.group(5), LOCAL_SCALE, f"word {index} energy", line_number, diagnostics),
            )
            if None not in values:
                entries[index] = WordSuggestion(
                    index=index,
                    key=expected.key,
                    local_duration=values[0],
                    local_pitch=values[1],
                    local_energy=values[2],
                )
            expected_next = max(expected_next, index + 1)
            continue
        if global_m:
            diagnostics.append(
                ParseDiagnostic(
                    DiagnosticKind.UNPARSEABLE_LINE, line_number, "duplicate GLOBAL line"
                )
            )
            continue
        diagnostics.append(
            ParseDiagnostic(
                DiagnosticKind.UNPARSEABLE_LINE,
                line_number,
                f"line is neither a WORD line nor blank: {line!r}",
            )
        )

    if global_values is None and not any(
        d.kind is DiagnosticKind.MISSING_GLOBAL for d in diagnostics
    ):
        diagnostics.append(
            ParseDiagnostic(
                DiagnosticKind.MISSING_GLOBAL, last_line_number, "no GLOBAL line found"
            )
        )
    unreported = [i for i in range(n_words) if i not in mentioned and i not in already_named]
    if unreported and global_values is not None:
        diagnostics.append(
            ParseDiagnostic(
                DiagnosticKind.WORD_COUNT_MISMATCH,
                last_line_number,
                "missing word indices: " + ", ".join(str(i) for i in unreported),
            )
        )

    reasoning = "\n".join(reasoning_lines)
    fatal = [d for d in diagnostics if d.fatal]
    suggestion = None
    if not fatal and global_values is not None and len(entries) == n_words:
        suggestion = LlmScaleSuggestion(
            global_duration=global_values[0],
            global_pitch=global_values[1],
            global_energy=global_values[2],
            words=tuple(entries[i] for i in range(n_words)),
        )
    return ParseResult(
        suggestion=suggestion, reasoning=reasoning, diagnostics=tuple(diagnostics)
    )


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
