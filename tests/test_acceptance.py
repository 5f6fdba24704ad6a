"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs with the mock backend; no network access is needed.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from llmprosody.evaluation import (
    mos_summary,
    paired_t_test,
    preference_summary,
)
from llmprosody.features import compute_speaker_stats, denorm_f0
from llmprosody.llm import MockBackend, RepairExhausted, RepairPolicy, suggest_with_repair
from llmprosody.mapping import build_plan, map_global_scale, map_local_scale
from llmprosody.modifier import apply_plan
from llmprosody.prompting import Mode, PromptSpec, build_prompt
from llmprosody.response import parse_response, serialize_suggestion

from conftest import (
    identity_suggestion,
    random_raw_utterance,
    random_stats,
    random_suggestion,
    random_utterance,
)
from reference import naive_apply_plan

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number: int, name: str, violations: list) -> None:
    status = "FAIL" if violations else "PASS"
    print(f"\nACCEPTANCE {number:02d} {name}: {status}")
    assert not violations, f"criterion {number}: {violations[:5]}"


def test_01_modifier_matches_naive_oracle():
    rng = random.Random(101)
    violations = []
    started = time.perf_counter()
    for case in range(1000):
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
        plan = build_plan(random_suggestion(rng, utterance, wild=True), utterance, stats)
        expected = naive_apply_plan(utterance, stats, plan)
        got = apply_plan(utterance, stats, plan)
        for want, have in zip(expected.phones, got.phones):
            if abs(have.duration_s - want.duration_s) > 1e-9:
                violations.append((case, "duration", want.duration_s, have.duration_s))
            if want.f0 is not None and abs(have.f0 - want.f0) > 1e-9:
                violations.append((case, "f0", want.f0, have.f0))
            if abs(have.energy - want.energy) > 1e-9:
                violations.append((case, "energy", want.energy, have.energy))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        violations.append(("runtime", elapsed))
    report(1, "Eq oracle equivalence (1000 pairs, <10s)", violations)


def test_02_identity_invariance():
    rng = random.Random(202)
    violations = []
    for case in range(100):
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
        plan = build_plan(identity_suggestion(utterance), utterance, stats)
        out = apply_plan(utterance, stats, plan)
        for before, after in zip(utterance.phones, out.phones):
            if after.duration_s != before.duration_s:
                violations.append((case, "duration not bit-equal"))
            if before.voiced:
                if abs(after.f0 - before.f0) > 1e-9:
                    violations.append((case, "f0", before.f0, after.f0))
                if abs(after.energy - before.energy) > 1e-9:
                    violations.append((case, "energy", before.energy, after.energy))
            else:
                if after.f0 is not None or after.energy != before.energy:
                    violations.append((case, "untouched field changed"))
            if before.pause and after != before:
                violations.append((case, "pause phone changed"))
    report(2, "identity plan leaves features unchanged", violations)


def test_03_range_safety():
    rng = random.Random(303)
    violations = []
    for case in range(1000):
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
        suggestion = random_suggestion(rng, utterance, wild=True)
        plan = build_plan(suggestion, utterance, stats)
        if not 0.5 <= plan.g_dur <= 2.0:
            violations.append((case, "g_dur", plan.g_dur, plan.clamp_notes))
        if not 0.5 <= plan.g_energy <= 2.0:
            violations.append((case, "g_energy", plan.g_energy))
        for word in plan.words:
            if not 1.0 <= word.delta <= 2.0:
                violations.append((case, "delta", word.delta))
            if not 1.0 <= word.epsilon <= 2.0:
                violations.append((case, "epsilon", word.epsilon))
            shift = plan.g_pitch_hz + word.pi_hz
            if not plan.bounds.p_min_hz <= shift <= plan.bounds.p_max_hz:
                violations.append((case, "pitch shift", shift, plan.bounds))
        out = apply_plan(utterance, stats, plan)
        for ph in out.phones:
            if ph.voiced:
                hz = denorm_f0(ph.f0, stats)
                if not stats.f0_min_hz - 1e-9 <= hz <= stats.f0_max_hz + 1e-9:
                    violations.append((case, "modified f0 out of range", hz))
    report(3, "range safety under wild suggestions (1000 cases)", violations)


def test_04_mapping_endpoints():
    violations = []
    checks = [
        (map_global_scale(-5.0), 0.5),
        (map_global_scale(0.0), 1.0),
        (map_global_scale(5.0), 2.0),
        (map_local_scale(0.0), 1.0),
        (map_local_scale(5.0), 2.0),
    ]
    for got, want in checks:
        if got != want:
            violations.append((got, want))
    report(4, "mapping endpoints exact", violations)


def _mutate_skip(lines, rng):
    word_lines = [i for i, l in enumerate(lines) if l.startswith("WORD ")]
    pick = rng.choice(word_lines)
    skipped_index = int(lines[pick].split()[1])
    mutated = lines[:pick] + lines[pick + 1:]
    if pick < word_lines[-1]:
        detection_line = pick + 1  # 1-based: next word line moves up into place
    else:
        detection_line = len(mutated) + 1  # reported at end of input
    return mutated, "skip", detection_line, str(skipped_index)


def _mutate_invent(lines, rng):
    word_lines = [i for i, l in enumerate(lines) if l.startswith("WORD ")]
    pick = rng.choice(word_lines)
    parts = lines[pick].split(" ", 3)
    parts[2] = "zzzinvented" + parts[2]
    mutated = lines[:]
    mutated[pick] = " ".join(parts)
    return mutated, "invent", pick + 1, None


def _mutate_duplicate(lines, rng):
    word_lines = [i for i, l in enumerate(lines) if l.startswith("WORD ")]
    pick = rng.choice(word_lines)
    mutated = lines[: pick + 1] + [lines[pick]] + lines[pick + 1:]
    return mutated, "duplicate", pick + 2, None


def _mutate_non_numeric(lines, rng):
    word_lines = [i for i, l in enumerate(lines) if l.startswith("WORD ")]
    pick = rng.choice(word_lines)
    mutated = lines[:]
    mutated[pick] = mutated[pick].replace("duration=", "duration=loud", 1)
    return mutated, "non-numeric", pick + 1, None


def test_05_grammar_round_trip_and_mutations():
    rng = random.Random(505)
    violations = []
    for case in range(1000):
        stats = random_stats(rng)
        utterance = random_utterance(rng, stats, utterance_id=f"u{case}")
        suggestion = random_suggestion(rng, utterance)
        text = serialize_suggestion(suggestion, utterance.words, reasoning="check")
        result = parse_response(text, utterance.words)
        if not result.ok or result.diagnostics or result.suggestion != suggestion:
            violations.append((case, "round trip", result.diagnostics[:2]))
    mutators = [_mutate_skip, _mutate_invent, _mutate_duplicate, _mutate_non_numeric]
    for mutator in mutators:
        for case in range(50):
            stats = random_stats(rng)
            utterance = random_utterance(rng, stats, n_words=rng.randint(3, 8))
            suggestion = random_suggestion(rng, utterance)
            text = serialize_suggestion(suggestion, utterance.words, reasoning="check")
            lines = text.rstrip("\n").split("\n")
            mutated, kind, expected_line, mentions = mutator(lines, rng)
            result = parse_response("\n".join(mutated) + "\n", utterance.words)
            if result.ok:
                violations.append((kind, case, "accepted a mutated response"))
                continue
            hits = [d for d in result.fatal_diagnostics if d.line_number == expected_line]
            if mentions is not None:
                hits = [d for d in hits if mentions in d.detail]
            if not hits:
                violations.append(
                    (kind, case, "no line-accurate diagnostic",
                     expected_line, [str(d) for d in result.fatal_diagnostics])
                )
    report(5, "grammar round trip + 200-case mutation corpus", violations)


def test_06_repair_loop():
    violations = []
    spec = PromptSpec(mode=Mode.NEUTRAL, target_text="Turn left at the second light.")
    valid = MockBackend(seed=11)(build_prompt(spec))
    skipping = "\n".join(
        line for line in valid.strip().split("\n") if not line.startswith("WORD 2 ")
    ) + "\n"

    responses = [skipping, valid]
    scripted = lambda prompt: responses.pop(0)
    suggestion, attempts = suggest_with_repair(spec, scripted)
    if len(attempts) != 2:
        violations.append(("expected exactly 2 attempts", len(attempts)))
    if suggestion is None:
        violations.append("no suggestion returned")

    responses = [skipping]
    try:
        suggest_with_repair(spec, lambda prompt: responses.pop(0), RepairPolicy(max_attempts=1))
        violations.append("max_attempts=1 did not exhaust")
    except RepairExhausted as exc:
        if len(exc.attempts) != 1 or not exc.diagnostics:
            violations.append("exhaustion transcript incomplete")
    report(6, "repair loop recovers in exactly 2 attempts", violations)


def test_07_end_to_end_determinism(tmp_path):
    violations = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    plans, outputs = [], []
    for run in range(3):
        plan_path = tmp_path / f"plan{run}.tsv"
        out_path = tmp_path / f"out{run}.tsv"
        r1 = subprocess.run(
            [sys.executable, "-m", "llmprosody", "plan",
             "--features", str(DATA_DIR / "norm_utterance.tsv"),
             "--stats", str(DATA_DIR / "stats.tsv"),
             "--backend", "mock", "--seed", "7", "-o", str(plan_path)],
            capture_output=True, env=env,
        )
        r2 = subprocess.run(
            [sys.executable, "-m", "llmprosody", "apply",
             "--features", str(DATA_DIR / "norm_utterance.tsv"),
             "--stats", str(DATA_DIR / "stats.tsv"),
             "--plan", str(plan_path), "-o", str(out_path)],
            capture_output=True, env=env,
        )
        if r1.returncode != 0 or r2.returncode != 0:
            violations.append(("nonzero exit", r1.returncode, r2.returncode,
                               r1.stderr[-200:], r2.stderr[-200:]))
            continue
        plans.append(plan_path.read_bytes())
        outputs.append(out_path.read_bytes())
    if len(set(plans)) != 1 or len(set(outputs)) != 1:
        violations.append("runs differ from each other")
    if plans and plans[0] != (GOLDEN_DIR / "cli_plan_seed7.tsv").read_bytes():
        violations.append("plan differs from the frozen golden (restart instability)")
    if outputs and outputs[0] != (GOLDEN_DIR / "cli_modified_seed7.tsv").read_bytes():
        violations.append("modified features differ from the frozen golden")
    report(7, "plan+apply byte-identical across runs and restarts", violations)


def _preference_records(counts):
    from llmprosody.evaluation import PreferenceRecord

    records = []
    k = 0
    for system, wins in counts.items():
        for _ in range(wins):
            records.append(
                PreferenceRecord(f"set{k}", f"r{k % 8}", system,
                                 ("proposed", "baseline", "random"))
            )
            k += 1
    return records


def test_08_preference_arithmetic():
    violations = []
    summary = preference_summary(
        _preference_records({"proposed": 288, "baseline": 173, "random": 99})
    )
    got = {s.system: s.percent for s in summary.shares}
    if got != {"proposed": 51.4, "baseline": 30.9, "random": 17.7}:
        violations.append(("560 fixture", got))
    summary = preference_summary(
        _preference_records({"proposed": 232, "baseline": 149, "random": 99})
    )
    got = {s.system: s.percent for s in summary.shares}
    for system, target in (("proposed", 48.4), ("baseline", 31.0), ("random", 20.6)):
        if abs(got[system] - target) > 0.15:
            violations.append(("480 fixture", system, got[system], target))
    report(8, "preference percentages match the published arithmetic", violations)


def test_09_mos_and_t_test_arithmetic():
    from llmprosody.evaluation import RatingRecord

    violations = []
    scores = [3] * 22 + [4, 5]
    records = [RatingRecord(f"s{i}", "baseline", f"r{i % 8}", v) for i, v in enumerate(scores)]
    display = mos_summary(records)["baseline"].display
    if display != "3.1±0.2":
        violations.append(("mos display", display))
    a = [RatingRecord(f"s{i}", "A", "r1", v) for i, v in enumerate([5, 4, 4, 3, 5])]
    b = [RatingRecord(f"s{i}", "B", "r1", v) for i, v in enumerate([4, 4, 3, 3, 4])]
    result = paired_t_test(a, b)
    if round(result.t, 4) != 2.4495:
        violations.append(("t", result.t))
    if round(result.p, 4) != 0.0705:
        violations.append(("p", result.p))
    report(9, "MOS display and paired t-test reproduce precomputed values", violations)


def test_10_corpus_duration_filter():
    rng = random.Random(1010)
    violations = []
    base = [
        random_raw_utterance(rng, f"u{i}", total_duration_s=d, n_words=4)
        for i, d in enumerate([2.2, 1.9, 3.1])
    ]
    short = random_raw_utterance(rng, "short", total_duration_s=1.4, n_words=3)
    with_short = compute_speaker_stats(base + [short])
    without = compute_speaker_stats(base)
    if with_short != without:
        violations.append((with_short, without))
    report(10, "1.4s utterance excluded from statistics exactly", violations)
