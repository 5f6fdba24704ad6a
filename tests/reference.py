"""Independent reference implementations used as test oracles.

These stay deliberately naive and self-contained (plain loops, inline math,
no imports from the modules they check) so a bug in the production code
cannot hide in a shared helper.
"""

import math
import re
from collections import Counter
from dataclasses import replace

from llmprosody.features import match_key, tokenize_words


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
        out.append(replace(ph, duration_s=duration, f0=f0, energy=energy))
    return replace(utterance, phones=tuple(out))


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
    for entry, word in zip(suggestion.words, words):
        lines.append(
            f"WORD {entry.index} {word.surface}: "
            f"duration={naive_value_text(entry.local_duration)} "
            f"pitch={naive_value_text(entry.local_pitch)} "
            f"energy={naive_value_text(entry.local_energy)}"
        )
    return lines


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
