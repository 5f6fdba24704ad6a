"""Independent reference implementations used as test oracles.

These stay deliberately naive and self-contained (plain loops, inline math,
no imports from the modules they check) so a bug in the production code
cannot hide in a shared helper.
"""

import math
from collections import Counter
from dataclasses import replace

from llmprosody.features import tokenize_words
from llmprosody.response import serialize_suggestion


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
        block = serialize_suggestion(exemplar.suggestion, words, exemplar.reasoning)
        lines.append(block.rstrip("\n"))
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
