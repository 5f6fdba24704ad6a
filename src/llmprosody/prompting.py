"""Assemble the full natural-language prompt sent to the completion backend.

A prompt is a fixed head (task description, value scales, rules), the worked
examples, the response-format instructions and one target block: the mode's
context, the target text with its words enumerated one per line, and
``Response:``.  Each example is the same block plus its canonical response,
checked and rendered once per exemplar set and reused by every prompt.
The enumeration, and the requirement that the response echo each index and
word, is what keeps the model from skipping or inventing words.

The prefix, everything before the target block, is found by the exemplar
set: the last tuple rendered is kept with its prefix and matched by
identity, so the common case hashes no exemplar; any other set goes through
a cache keyed on its value.  The target block holds no blank line, so the
last one before a prompt's word list is the one before ``Now solve this
task.``, and the bytes before it are the same in every prompt of one
exemplar set, repair prompts included: the mock backend
(:func:`llmprosody.llm.mock_complete`) keeps their SHA-256 state and resumes
each prompt's digest from a copy.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .errors import DataError
from .features import Word, tokenize_words
from .mapping import LlmScaleSuggestion
from .response import parse_response, serialize_suggestion


class Mode(str, Enum):
    NEUTRAL = "neutral"
    STYLE = "style"
    DIALOGUE = "dialogue"


class Exemplar(namedtuple("Exemplar", "mode context target_text reasoning suggestion")):
    """A worked example: optional context, target text, reasoning, values."""

    __slots__ = ()
    mode: Mode
    context: str | None
    target_text: str
    reasoning: str
    suggestion: LlmScaleSuggestion


DEFAULT_TASK_DESCRIPTION = """\
You assign prosody adjustment values to a sentence so that a speech
synthesizer can speak it appropriately. You set three values for the whole
utterance and three values for every word. You never hear any audio; decide
from the text and the given context alone."""

DEFAULT_SCALE_EXPLANATIONS = """\
Utterance-level values are integers from -5 to 5, where 0 means no change:
- duration: negative makes the whole utterance faster, positive slower.
- pitch: negative lowers the overall pitch, positive raises it.
- energy: negative makes the speech quieter, positive louder.
Word-level values are integers from 0 to 5, where 0 means no change:
- duration: stretches the word to give it weight.
- pitch: raises the word's pitch so it stands out.
- energy: makes the word louder than its neighbours."""

DEFAULT_RULES = (
    "Choose the values independently of the target voice; assume nothing about the speaker.",
    "Use 0 whenever no change is needed; most words need no change.",
    "Give exactly one WORD line for every listed word, in the listed order.",
    "Never skip a listed word and never add words that are not listed.",
    "Keep every value an integer inside its stated range.",
    "Emphasise words that carry new information or contrast; leave function words alone.",
)

DEFAULT_FORMAT_INSTRUCTIONS = """\
Answer in exactly this form and nothing else:
REASONING: <one or more lines explaining your choices>
GLOBAL: duration=<v> pitch=<v> energy=<v>
WORD <index> <word>: duration=<v> pitch=<v> energy=<v>
Write one WORD line per listed word, in ascending index order, repeating the
word after its index exactly as listed."""


_HEAD = "\n".join(
    [DEFAULT_TASK_DESCRIPTION, "", DEFAULT_SCALE_EXPLANATIONS, "", "Rules:"]
    + [f"{i}. {rule}" for i, rule in enumerate(DEFAULT_RULES, start=1)]
    + ["", "Examples:"]
)

_CONTEXT_LABELS = {Mode.STYLE: "Target speaking style", Mode.DIALOGUE: "Previous dialogue line"}
_WORDS_HEADER = "Words:"
# framed by newlines, a header line is found wherever it stands, first and last line included
_FRAMED_WORDS_HEADER = f"\n{_WORDS_HEADER}\n"
# the run of enumerated word lines that starts a text, and one line of it
_WORD_LINES_RE = re.compile(r"(?:\d+ \S+\n)*")
_WORD_LINE_RE = re.compile(r"\d+ (\S+)\n")


def _render_target(mode: Mode, context: str | None, text: str, words: tuple[Word, ...]) -> list[str]:
    """Context line (style and dialogue modes), text, enumerated words, ``Response:``."""
    lines = [f"{_CONTEXT_LABELS[mode]}: {context}"] if mode in _CONTEXT_LABELS else []
    lines += [f"Text: {text}", _WORDS_HEADER]
    lines += [f"{i} {word.surface}" for i, word in enumerate(words)]
    lines.append("Response:")
    return lines


def prompt_target_words(prompt: str) -> list[str]:
    """The surfaces of the last enumerated word list in ``prompt`` (inverse of :func:`_render_target`)."""
    _, header, block = f"\n{prompt}\n".rpartition(_FRAMED_WORDS_HEADER)
    if not header:
        raise DataError("prompt contains no enumerated word list")
    surfaces = _WORD_LINE_RE.findall(block, 0, _WORD_LINES_RE.match(block).end())
    if not surfaces:
        raise DataError("prompt's word list is empty")
    return surfaces


class PromptSpec(namedtuple("PromptSpec", "mode target_text context exemplars")):
    """Everything needed to build one prompt deterministically; ``exemplars=None`` is the packaged set."""

    __slots__ = ()
    mode: Mode
    target_text: str
    context: str | None
    exemplars: tuple[Exemplar, ...]

    def __new__(cls, mode, target_text, context=None, exemplars=None):
        exemplars = default_exemplars() if exemplars is None else exemplars
        return super().__new__(cls, mode, target_text, context, exemplars)


def _target_words(mode: Mode, context: str | None, text: str) -> tuple[Word, ...]:
    """The words of one target block, the prompt's or an example's, after checking its parts."""
    words = tokenize_words(text)
    if not words:
        raise DataError("target text contains no words")
    if any("\n" in s or "\r" in s for s in (text, context or "")):
        raise DataError("target text and context must each be a single line")
    if mode in _CONTEXT_LABELS:
        if not context or not context.strip():
            raise DataError(f"{mode.value} mode requires a non-empty context")
    elif context is not None:
        raise DataError("neutral mode takes no context")
    return words


def build_prompt(spec: PromptSpec) -> str:
    """Deterministic prompt text for ``spec`` (pure function, no environment reads)."""
    global _last_prefix
    words = _target_words(spec.mode, spec.context, spec.target_text)
    target = _render_target(spec.mode, spec.context, spec.target_text, words)
    kept, prefix = _last_prefix
    if spec.exemplars is not kept:
        prefix = _prefix(tuple(spec.exemplars))
        if type(spec.exemplars) is tuple:  # a list can change under the same identity
            _last_prefix = (spec.exemplars, prefix)  # one assignment: concurrent callers see a whole entry
    return "\n".join([prefix, *target, ""])


# the last tuple that rendered, kept alive so that no other object takes its identity, and its prefix:
# the lookup below hashes every exemplar, which costs as much as building a short prompt
_last_prefix: tuple = (object(), "")


# the CLI and every caller in the package use one exemplar set
@lru_cache(maxsize=8)
def _prefix(exemplars: tuple[Exemplar, ...]) -> str:
    """The prompt's lines before its target block: the head, each example checked and rendered, the format."""
    if not exemplars:
        raise DataError("at least one exemplar is required")
    parts = [_HEAD]
    for k, exemplar in enumerate(exemplars, start=1):
        mode, context, text = exemplar.mode, exemplar.context, exemplar.target_text
        try:
            words = _target_words(mode, context, text)
            response = serialize_suggestion(exemplar.suggestion, words, exemplar.reasoning)
        except DataError as exc:
            raise DataError(f"exemplar {text!r}: {exc}") from None
        parts += ["", f"Example {k}", *_render_target(mode, context, text, words), response.rstrip("\n")]
    parts += ["", DEFAULT_FORMAT_INSTRUCTIONS, "", "Now solve this task."]
    return "\n".join(parts)


_RECORD_SEPARATOR = "---"


def parse_exemplars(document: str) -> tuple[Exemplar, ...]:
    """Parse an exemplar asset document.

    Each record is an optional ``CONTEXT: style|dialogue: <text>`` line, a
    ``TEXT: <target>`` line, then a grammar-valid response block
    (REASONING/GLOBAL/WORD lines); records are separated by ``---`` lines.
    """
    exemplars: list[Exemplar] = []
    for number, lines in enumerate(_split_records(document), start=1):
        mode = Mode.NEUTRAL
        context: str | None = None
        if lines and lines[0].startswith("CONTEXT:"):
            value = lines.pop(0)[len("CONTEXT:"):].strip()
            kind, sep, text = value.partition(":")
            kind = kind.strip().lower()
            if not sep or kind not in ("style", "dialogue") or not text.strip():
                raise DataError(f"record {number}: CONTEXT must be 'style: <text>' or 'dialogue: <text>'")
            mode = Mode(kind)
            context = text.strip()
        if not lines or not lines[0].startswith("TEXT:"):
            raise DataError(f"record {number}: missing TEXT: line")
        target_text = lines.pop(0)[len("TEXT:"):].strip()
        words = tokenize_words(target_text)
        if not words:
            raise DataError(f"record {number}: target text has no words")
        result = parse_response("\n".join(lines), words)
        if not result.ok or result.diagnostics:
            problems = "; ".join(str(d) for d in result.diagnostics) or "no suggestion"
            raise DataError(f"record {number}: invalid response block ({problems})")
        exemplars.append(
            Exemplar(
                mode=mode,
                context=context,
                target_text=target_text,
                reasoning=result.reasoning,
                suggestion=result.suggestion,
            )
        )
    if not exemplars:
        raise DataError("exemplar document contains no records")
    return tuple(exemplars)


def _split_records(document: str) -> list[list[str]]:
    """The document's non-blank records, each without its leading blank lines."""
    records: list[list[str]] = [[]]
    for line in document.split("\n"):
        if line.strip() == _RECORD_SEPARATOR:
            records.append([])
        elif records[-1] or line.strip():
            records[-1].append(line)
    return [record for record in records if record]


@lru_cache(maxsize=1)
def default_exemplars() -> tuple[Exemplar, ...]:
    """The packaged set of ten worked examples covering all three modes."""
    with open(os.path.join(os.path.dirname(__file__), "assets", "exemplars.txt"), encoding="utf-8") as asset:
        return parse_exemplars(asset.read())
