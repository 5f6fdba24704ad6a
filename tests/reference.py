"""Independent reference implementations used as test oracles.

These stay deliberately naive and self-contained (plain loops, inline math,
no imports from the modules they check) so a bug in the production code
cannot hide in a shared helper.
"""

import hashlib
import math
import random
import re
from collections import Counter

from llmprosody.features import Word, match_key, tokenize_words
from llmprosody.mapping import LlmScaleSuggestion, WordSuggestion


def naive_apply_plan(utterance, stats, plan):
    """Per-phone loop applying the modification rules directly."""
    out = []
    for ph in utterance.phones:
        if ph.pause:
            out.append(ph)
            continue
        if ph.word_index is None:
            delta, pi_hz, epsilon = 1.0, 0.0, 1.0
        else:
            w = plan.words[ph.word_index]
            delta, pi_hz, epsilon = w.delta, w.pi_hz, w.epsilon
        duration = ph.duration_s * plan.g_dur * delta
        f0 = ph.f0
        energy = ph.energy
        if ph.voiced:
            hz = math.exp(ph.f0 * stats.sigma_logf0 + stats.mu_logf0)
            hz = hz + plan.g_pitch_hz + pi_hz
            if hz < stats.f0_min_hz:
                hz = stats.f0_min_hz
            if hz > stats.f0_max_hz:
                hz = stats.f0_max_hz
            f0 = (math.log(hz) - stats.mu_logf0) / stats.sigma_logf0
            lin = math.exp(ph.energy * stats.sigma_loge + stats.mu_loge)
            lin = lin * plan.g_energy * epsilon
            energy = (math.log(lin) - stats.mu_loge) / stats.sigma_loge
        out.append(ph._replace(duration_s=duration, f0=f0, energy=energy))
    return utterance._replace(phones=tuple(out))


def direct_mean(values):
    return sum(values) / len(values)


def direct_sample_std(values):
    m = direct_mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def direct_percentile(values, q):
    """Linear-interpolation percentile (rank = (n - 1) * q / 100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tally_preferences(records):
    """Win counts per system via a plain Counter."""
    return Counter(r.chosen_system for r in records)


def naive_prompt(spec, task_description, scale_explanations, rules, format_instructions):
    """The prompt for ``spec``, every part (examples included) rendered afresh in one loop."""
    labels = {"style": "Target speaking style", "dialogue": "Previous dialogue line"}
    lines = [task_description, "", scale_explanations, "", "Rules:"]
    for i, rule in enumerate(rules, start=1):
        lines.append(f"{i}. {rule}")
    lines.append("")
    lines.append("Examples:")
    for k, exemplar in enumerate(spec.exemplars, start=1):
        words = tokenize_words(exemplar.target_text)
        lines.append("")
        lines.append(f"Example {k}")
        if exemplar.mode.value in labels:
            lines.append(f"{labels[exemplar.mode.value]}: {exemplar.context}")
        lines.append(f"Text: {exemplar.target_text}")
        lines.append("Words:")
        for i, word in enumerate(words):
            lines.append(f"{i} {word.surface}")
        lines.append("Response:")
        lines.extend(naive_response_lines(exemplar.suggestion, words, exemplar.reasoning))
    lines.append("")
    lines.append(format_instructions)
    lines.append("")
    lines.append("Now solve this task.")
    if spec.mode.value in labels:
        lines.append(f"{labels[spec.mode.value]}: {spec.context}")
    lines.append(f"Text: {spec.target_text}")
    lines.append("Words:")
    for i, word in enumerate(tokenize_words(spec.target_text)):
        lines.append(f"{i} {word.surface}")
    lines.append("Response:")
    return "\n".join(lines) + "\n"


def naive_value_text(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def naive_response_lines(suggestion, words, reasoning):
    """The canonical response lines for an aligned suggestion."""
    lines = [f"REASONING: {reasoning}" if reasoning else "REASONING:"]
    lines.append(
        f"GLOBAL: duration={naive_value_text(suggestion.global_duration)} "
        f"pitch={naive_value_text(suggestion.global_pitch)} "
        f"energy={naive_value_text(suggestion.global_energy)}"
    )
    for i, (entry, word) in enumerate(zip(suggestion.words, words)):
        lines.append(
            f"WORD {i} {word.surface}: "
            f"duration={naive_value_text(entry.local_duration)} "
            f"pitch={naive_value_text(entry.local_pitch)} "
            f"energy={naive_value_text(entry.local_energy)}"
        )
    return lines


def naive_mock_complete(prompt, seed):
    """``llm.mock_complete`` with ``randrange`` draws: three global values in [-5, 5], then three per word in [0, 5]."""
    lines = prompt.split("\n")
    surfaces = []
    for line in lines[max(i for i, line in enumerate(lines) if line == "Words:") + 1:]:
        m = re.match(r"^(\d+) (\S+)$", line)
        if not m:
            break
        surfaces.append(m.group(2))
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    draw = random.Random(f"{seed}:{digest}").randrange
    global_values = (float(draw(-5, 6)), float(draw(-5, 6)), float(draw(-5, 6)))
    words, entries = [], []
    for surface in surfaces:
        words.append(Word(surface, surface.lower()))
        entries.append(WordSuggestion(surface.lower(), float(draw(0, 6)), float(draw(0, 6)), float(draw(0, 6))))
    suggestion = LlmScaleSuggestion(*global_values, tuple(entries))
    reasoning = f"Deterministic mock suggestion for {len(words)} words (seed {seed})."
    return "\n".join(naive_response_lines(suggestion, words, reasoning)) + "\n"


_REASONING_RE = re.compile(r"^\s*REASONING\s*:\s?(.*)$")
_GLOBAL_RE = re.compile(r"^\s*GLOBAL\s*:\s*duration=(\S+)\s+pitch=(\S+)\s+energy=(\S+)\s*$")
_WORD_RE = re.compile(
    r"^\s*WORD\s+(\d{1,9})\s+(\S+?)\s*:\s*duration=(\S+)\s+pitch=(\S+)\s+energy=(\S+)\s*$"
)


def _reference_value(raw, low, high, what, line_number, diagnostics):
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        diagnostics.append(("ValueNotNumeric", line_number, f"{what} value {raw!r} is not a number"))
        return None
    clamped = min(max(value, low), high)
    if clamped != value:
        diagnostics.append(
            (
                "ValueOutOfRange",
                line_number,
                f"{what} value {value!r} outside [{low:g}, {high:g}]; clamped to {clamped:g}",
            )
        )
    return clamped


def reference_parse_response(text, expected_words):
    """The response parser as a three-state machine (start -> reasoning -> words).

    Returns plain values: ``(suggestion, reasoning, diagnostics)`` where
    ``suggestion`` is None or ``(global_duration, global_pitch, global_energy,
    ((index, key, duration, pitch, energy), ...))`` and each diagnostic is
    ``(kind, line_number, detail)``.
    """
    diagnostics = []
    reasoning_lines = []
    global_values = None
    entries = {}
    mentioned = set()
    already_named = set()
    n_words = len(expected_words)
    expected_next = 0
    state = "start"
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
                ("UnparseableLine", line_number, f"expected a REASONING: line first, got {line!r}")
            )
            state = "reasoning"
        if state == "reasoning":
            if global_m:
                global_values = tuple(
                    _reference_value(global_m.group(g), -5.0, 5.0, f"GLOBAL {name}", line_number, diagnostics)
                    for g, name in ((1, "duration"), (2, "pitch"), (3, "energy"))
                )
                state = "words"
                continue
            if word_m:
                diagnostics.append(("MissingGlobal", line_number, "WORD line before any GLOBAL line"))
                state = "words"
            else:
                reasoning_lines.append(line)
                continue
        if word_m:
            index = int(word_m.group(1))
            echoed = word_m.group(2)
            if index in mentioned:
                diagnostics.append(
                    ("DuplicateWordIndex", line_number, f"word index {index} appears more than once")
                )
                continue
            mentioned.add(index)
            if index >= n_words:
                diagnostics.append(
                    (
                        "WordCountMismatch",
                        line_number,
                        f"unexpected word index {index}; the text has {n_words} words",
                    )
                )
                expected_next = max(expected_next, index + 1)
                continue
            if index != expected_next:
                already_named.add(expected_next)
                diagnostics.append(
                    (
                        "WordCountMismatch",
                        line_number,
                        f"expected word index {expected_next} next, got {index}",
                    )
                )
            expected = expected_words[index]
            if match_key(echoed) != expected.key:
                diagnostics.append(
                    (
                        "WordIdentityMismatch",
                        line_number,
                        f"word {index} should be {expected.surface!r}, response says {echoed!r}",
                    )
                )
            values = tuple(
                _reference_value(word_m.group(g), 0.0, 5.0, f"word {index} {name}", line_number, diagnostics)
                for g, name in ((3, "duration"), (4, "pitch"), (5, "energy"))
            )
            if None not in values:
                entries[index] = (index, expected.key) + values
            expected_next = max(expected_next, index + 1)
            continue
        if global_m:
            diagnostics.append(("UnparseableLine", line_number, "duplicate GLOBAL line"))
            continue
        diagnostics.append(
            ("UnparseableLine", line_number, f"line is neither a WORD line nor blank: {line!r}")
        )

    if global_values is None and not any(d[0] == "MissingGlobal" for d in diagnostics):
        diagnostics.append(("MissingGlobal", last_line_number, "no GLOBAL line found"))
    unreported = [i for i in range(n_words) if i not in mentioned and i not in already_named]
    if unreported and global_values is not None:
        diagnostics.append(
            (
                "WordCountMismatch",
                last_line_number,
                "missing word indices: " + ", ".join(str(i) for i in unreported),
            )
        )
    fatal = [d for d in diagnostics if d[0] != "ValueOutOfRange"]
    suggestion = None
    if not fatal and global_values is not None and len(entries) == n_words:
        suggestion = global_values + (tuple(entries[i] for i in range(n_words)),)
    return suggestion, "\n".join(reasoning_lines), tuple(diagnostics)


# the tokenizer's edge punctuation: string.punctuation and common unicode marks
_PUNCT = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~" + "“”‘’«»—–…¿¡"


def _naive_finite(raw, what, line_number):
    """``(value, None)`` for a finite number, else ``(None, message)``."""
    try:
        value = float(raw)
    except ValueError:
        return None, f"line {line_number}: {what} {raw!r} is not a number"
    if value != value or value == math.inf or value == -math.inf:
        return None, f"line {line_number}: {what} must be finite, got {raw!r}"
    return value, None


def _naive_utterance_fault(uid, speaker, text, phones, line_numbers):
    """The message for the first fault of a finished utterance block, or None."""
    if not phones:
        return f"utterance {uid}: has no phones"
    if uid == "" or any(c.isspace() for c in uid):
        return f"utterance id {uid!r} must be non-empty without whitespace"
    if speaker == "" or any(c.isspace() for c in speaker):
        return f"utterance {uid}: speaker id {speaker!r} must be non-empty without whitespace"
    n_words = len([token for token in text.split() if token.strip(_PUNCT)])
    previous = -1
    for (label, word_index, duration, f0, _, voiced, pause), line_number in zip(phones, line_numbers):
        where = f"utterance {uid} line {line_number}"
        if pause and (word_index is not None or voiced):
            return f"{where}: pause phone {label!r} must be unvoiced with no word index"
        if voiced != (f0 is not None):
            return f"{where}: phone {label!r} voiced flag inconsistent with F0 presence"
        if not duration > 0:
            return f"{where}: phone {label!r} duration must be > 0, got {duration}"
        if word_index is not None:
            if word_index < 0 or word_index >= n_words:
                return f"{where}: word index {word_index} out of range (W={n_words})"
            if word_index < previous:
                return f"{where}: word indices must be non-decreasing ({word_index} after {previous})"
            previous = word_index
    missing = [i for i in range(n_words) if all(phone[1] != i for phone in phones)]
    if missing:
        return f"utterance {uid}: words {missing} are not referenced by any phone"
    return None


def naive_parse_features(document):
    """The feature-file reader as one plain loop.

    Returns a list of ``(id, speaker_id, text, normalized, phones)`` with each
    phone a plain 7-tuple, or the message of the first fault as a string.
    """
    utterances = []
    ids = set()
    header_seen = False
    block = None  # id, speaker, text, normalized, phones, line numbers
    for line_number, line in enumerate(document.split("\n"), start=1):
        if line.strip() == "":
            continue
        if not header_seen:
            if line != "#feature-file\tv1":
                return f"line {line_number}: expected feature-file header, got {line!r}"
            header_seen = True
            continue
        if line.startswith("#utterance"):
            if block is not None:
                fault = _naive_utterance_fault(block[0], block[1], block[2], block[4], block[5])
                if fault:
                    return fault
                utterances.append((block[0], block[1], block[2], block[3], tuple(block[4])))
            fields = line.split("\t", 4)
            if len(fields) != 5 or fields[0] != "#utterance":
                return f"line {line_number}: malformed utterance header"
            if fields[3] not in ("raw", "norm"):
                return f"line {line_number}: variant must be 'raw' or 'norm', got {fields[3]!r}"
            if fields[1] in ids:
                return f"line {line_number}: duplicate utterance id {fields[1]!r}"
            ids.add(fields[1])
            block = (fields[1], fields[2], fields[4], fields[3] == "norm", [], [])
            continue
        if block is None:
            return f"line {line_number}: phone row before any utterance header"
        fields = line.split("\t")
        if len(fields) != 7:
            return f"line {line_number}: expected 7 tab-separated fields, got {len(fields)}"
        if fields[5] not in ("0", "1") or fields[6] not in ("0", "1"):
            return f"line {line_number}: voiced/pause flags must be 0 or 1"
        word_index = None
        if fields[1] != "-":
            try:
                word_index = int(fields[1])
            except ValueError:
                return f"line {line_number}: word index {fields[1]!r} is not an integer"
        values = {}
        for what, raw in (("duration", fields[2]), ("energy", fields[4]), ("F0", fields[3])):
            if what == "F0" and raw == "-":
                values[what] = None
                continue
            values[what], fault = _naive_finite(raw, what, line_number)
            if fault:
                return fault
        phone = (fields[0], word_index, values["duration"], values["F0"], values["energy"],
                 fields[5] == "1", fields[6] == "1")
        block[4].append(phone)
        block[5].append(line_number)
    if not header_seen:
        return "line 1: empty document (missing feature-file header)"
    if block is not None:
        fault = _naive_utterance_fault(block[0], block[1], block[2], block[4], block[5])
        if fault:
            return fault
        utterances.append((block[0], block[1], block[2], block[3], tuple(block[4])))
    return utterances


def naive_parse_plan(document):
    """The plan reader as one plain loop.

    Returns ``(g_dur, g_pitch_hz, g_energy, words, (p_min_hz, p_max_hz))``
    with each word a plain ``(surface, delta, pi_hz, epsilon)``, or the
    message of the first fault as a string.
    """
    global_values = None
    bounds = None
    words = []
    for line_number, line in enumerate(document.split("\n"), start=1):
        if line.strip() == "":
            continue
        fields = line.split("\t")
        if fields[0] == "GLOBAL":
            if global_values is not None:
                return f"line {line_number}: duplicate GLOBAL line"
            if len(fields) != 4:
                return f"line {line_number}: GLOBAL needs 3 values"
            names = ("g_dur", "g_pitch_hz", "g_energy")
        elif fields[0] == "WORD":
            if len(fields) != 6:
                return f"line {line_number}: WORD needs index, surface, 3 values"
            try:
                index = int(fields[1])
            except ValueError:
                return f"line {line_number}: word index {fields[1]!r}"
            if index != len(words):
                return f"line {line_number}: word index {index} out of order (expected {len(words)})"
            names = (None, None, "delta", "pi_hz", "epsilon")
        elif fields[0] == "BOUNDS":
            if bounds is not None:
                return f"line {line_number}: duplicate BOUNDS line"
            if len(fields) != 3:
                return f"line {line_number}: BOUNDS needs 2 values"
            names = ("p_min_hz", "p_max_hz")
        else:
            return f"line {line_number}: unknown tag {fields[0]!r}"
        values = []
        for raw, name in zip(fields[1:], names):
            if name is not None:
                value, fault = _naive_finite(raw, name, line_number)
                if fault:
                    return fault
                values.append(value)
        if fields[0] == "GLOBAL":
            global_values = tuple(values)
        elif fields[0] == "WORD":
            words.append((fields[2],) + tuple(values))
        else:
            if not (values[0] <= 0.0 <= values[1]):
                return f"pitch bounds must satisfy p_min <= 0 <= p_max, got [{values[0]}, {values[1]}]"
            bounds = tuple(values)
    if global_values is None:
        return "plan document lacks a GLOBAL line"
    if bounds is None:
        return "plan document lacks a BOUNDS line"
    if not words:
        return "plan document lacks WORD lines"
    g_dur, g_pitch_hz, g_energy = global_values
    if not 0.5 <= g_dur <= 2.0:
        return f"g_dur {g_dur} outside [0.5, 2]"
    if not 0.5 <= g_energy <= 2.0:
        return f"g_energy {g_energy} outside [0.5, 2]"
    for i, (_, delta, pi_hz, epsilon) in enumerate(words):
        if not 1.0 <= delta <= 2.0:
            return f"word {i}: delta {delta} outside [1, 2]"
        if not 1.0 <= epsilon <= 2.0:
            return f"word {i}: epsilon {epsilon} outside [1, 2]"
        if pi_hz < 0:
            return f"word {i}: pi_hz {pi_hz} must be >= 0"
        shift = g_pitch_hz + pi_hz
        if not bounds[0] <= shift <= bounds[1]:
            return f"word {i}: pitch shift {shift} outside [{bounds[0]}, {bounds[1]}]"
    return g_dur, g_pitch_hz, g_energy, tuple(words), bounds


# the longest response body llm.complete reads (README "Imports and HTTP transport")
MAX_BODY_BYTES = 1 << 20
# an answer content that stands for a body one byte longer than MAX_BODY_BYTES, whatever its status
TOO_LONG = "<too long>"


def naive_complete(answers, max_retries):
    """``llm.complete``'s outcome against an endpoint giving ``answers`` in turn, as one plain loop.

    Each answer is ``(status, content)``.  A 200 carries ``content`` as the
    first choice's message content when it is a string or an int, and no
    ``choices`` at all when it is ``None``; other statuses carry ``{}``.  A
    content of ``TOO_LONG`` is a body over the cap, with any status.
    Returns ``(outcome, requests, sleeps, warnings)``: the outcome is the
    returned text, or ``(exception class name, message, .attempts)`` with
    ``None`` for an error that has no ``.attempts``.
    """
    requests = 0
    warnings = []
    last_status = None
    for attempt in range(1, max_retries + 2):
        status, content = answers[attempt - 1]
        requests += 1
        outcome = None
        if content == TOO_LONG:
            outcome = ("BackendError", f"response body is longer than {MAX_BODY_BYTES} bytes", None)
        elif status == 401 or status == 403:
            outcome = ("BackendError", f"endpoint rejected credentials (HTTP {status})", None)
        elif status == 429:
            warnings.append(f"completion attempt {attempt} rate limited")
        elif status >= 500:
            warnings.append(f"completion attempt {attempt} failed (server error (HTTP {status}))")
        elif status != 200:
            outcome = ("NetworkError", f"unexpected HTTP {status} from endpoint", attempt)
        elif content is None:
            outcome = ("BackendError", "could not extract completion text: KeyError", None)
        elif not isinstance(content, str):
            outcome = ("BackendError", "completion content is not a string", None)
        else:
            outcome = content
        if outcome is not None:
            return outcome, requests, requests - 1, warnings
        last_status = status
    attempts = max_retries + 1
    if last_status == 429:
        outcome = ("RateLimited", f"still rate limited after {attempts} attempts", attempts)
    else:
        message = f"gave up after {attempts} attempts; last failure: server error (HTTP {last_status})"
        outcome = ("NetworkError", message, attempts)
    return outcome, requests, requests - 1, warnings
