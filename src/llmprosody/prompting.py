"""Assemble the full natural-language prompt sent to the completion backend.

A prompt is a fixed head (task description, value scales, rules), the worked
examples, the response-format instructions and one target block: the mode's
context, the target text with its words enumerated one per line, and
``Response:``.  Each example is the same block plus its canonical response,
checked and rendered once per :class:`Exemplar` and reused by every prompt.
The enumeration, and the requirement that the response echo each index and
word, is what keeps the model from skipping or inventing words.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache

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

    mode: Mode
    context: str | None
    target_text: str
    reasoning: str
    suggestion: LlmScaleSuggestion

    @cached_property
    def prompt_text(self) -> str:
        """This example's target block and canonical response, checked and rendered once."""
        try:
            words = _target_words(self.mode, self.context, self.target_text)
            response = serialize_suggestion(self.suggestion, words, self.reasoning)
        except DataError as exc:
            raise DataError(f"exemplar {self.target_text!r}: {exc}") from None
        block = _render_target(self.mode, self.context, self.target_text, words)
        return "\n".join(block + [response.rstrip("\n")])

    # no __slots__, so that prompt_text is cached in the instance __dict__; no attribute can be set
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: an Exemplar is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: an Exemplar is immutable")


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
_WORD_LINE_RE = re.compile(r"^(\d+) (\S+)$")


def _render_target(mode: Mode, context: str | None, text: str, words: tuple[Word, ...]) -> list[str]:
    """Context line (style and dialogue modes), text, enumerated words, ``Response:``."""
    lines = [f"{_CONTEXT_LABELS[mode]}: {context}"] if mode in _CONTEXT_LABELS else []
    lines += [f"Text: {text}", _WORDS_HEADER]
    lines += [f"{i} {word.surface}" for i, word in enumerate(words)]
    lines.append("Response:")
    return lines


def prompt_target_words(prompt: str) -> list[str]:
    """The surfaces of the last enumerated word list in ``prompt`` (inverse of :func:`_render_target`)."""
    framed = f"\n{prompt}\n"
    start = framed.rfind(_FRAMED_WORDS_HEADER)
    if start < 0:
        raise DataError("prompt contains no enumerated word list")
    surfaces = []
    for line in framed[start + len(_FRAMED_WORDS_HEADER):].split("\n"):
        m = _WORD_LINE_RE.match(line)
        if not m:
            break
        surfaces.append(m.group(2))
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
    words = _target_words(spec.mode, spec.context, spec.target_text)
    if not spec.exemplars:
        raise DataError("at least one exemplar is required")
    parts = [_HEAD]
    for k, exemplar in enumerate(spec.exemplars, start=1):
        parts += ["", f"Example {k}", exemplar.prompt_text]
    parts += ["", DEFAULT_FORMAT_INSTRUCTIONS, "", "Now solve this task."]
    parts += _render_target(spec.mode, spec.context, spec.target_text, words)
    return "\n".join(parts) + "\n"


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


def serialize_exemplars(exemplars: tuple[Exemplar, ...]) -> str:
    """Render exemplars in the asset format (inverse of :func:`parse_exemplars`)."""
    blocks = []
    for exemplar in exemplars:
        lines = []
        if exemplar.mode is not Mode.NEUTRAL:
            lines.append(f"CONTEXT: {exemplar.mode.value}: {exemplar.context}")
        lines.append(f"TEXT: {exemplar.target_text}")
        words = tokenize_words(exemplar.target_text)
        lines.append(
            serialize_suggestion(exemplar.suggestion, words, exemplar.reasoning).rstrip("\n")
        )
        blocks.append("\n".join(lines))
    return ("\n" + _RECORD_SEPARATOR + "\n").join(blocks) + "\n"


@lru_cache(maxsize=1)
def default_exemplars() -> tuple[Exemplar, ...]:
    """The packaged set of ten worked examples covering all three modes."""
    with open(os.path.join(os.path.dirname(__file__), "assets", "exemplars.txt"), encoding="utf-8") as asset:
        return parse_exemplars(asset.read())
