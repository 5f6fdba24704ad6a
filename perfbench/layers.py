"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

The layers are the package's modules.  Every workload prints every metric
below; one that does not apply to the workload (a layer that does not run
there, the CLI's import time outside ``cli_session``, the stub's counters
outside ``http_stub``) reads 0 with a sample count of 0.
"""

from __future__ import annotations

from common import Metric
from spans import LAYERS, Summary

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
TARGETS = {
    "cli.import_ms": ("ms", "utt_ms.p50, setup_s on cli_session (cli_plan/apply/stats_ms); not cli_eval_ms"),
    "features.parse_us_per_utt": ("us", "utt_per_s on library_corpus (lib_apply_utt_per_s)"),
    "features.serialize_us_per_utt": ("us", "utt_per_s on library_corpus (lib_apply_utt_per_s)"),
    "features.compute_stats_ms": ("ms", "cli_stats_ms.p50 on cli_session, as a small share"),
    "prompting.build_prompt_us": ("us", "utt_per_s, utt_ms.p99 on library_corpus; no cli_* metric"),
    "prompting.prompt_kb": ("KiB", "utt_per_s, utt_ms.p99 on library_corpus"),
    "prompting.shared_prefix_share": ("share", "the property any prompt-caching claim cites"),
    "llm.suggest_us": ("us", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "llm.loop_self_us": ("us", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "llm.backend_calls": ("count", "utt_ms.p50, utt_ms.p99 on http_stub"),
    "llm.backend_ms": ("ms", "utt_ms.p50, utt_ms.p99 on http_stub"),
    "llm.attempts_per_utt": ("count", "utt_ms.p50, utt_ms.p99 on http_stub"),
    "llm.first_attempt_ok_share": ("share", "utt_ms.p50, utt_ms.p99 on http_stub"),
    "llm.http_retries": ("count", "utt_per_s on http_stub"),
    "llm.requests_per_connection": ("count", "utt_per_s on http_stub"),
    "response.parse_us": ("us", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "response.fatal_diags_per_utt": ("count", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "mapping.build_plan_us": ("us", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "mapping.serialize_plan_us": ("us", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "mapping.clamp_notes_per_plan": ("count", "utt_per_s on library_corpus (lib_plan_utt_per_s)"),
    "mapping.parse_plan_us": ("us", "utt_per_s on library_corpus (lib_apply_utt_per_s)"),
    "modifier.apply_plan_us": ("us", "utt_per_s on library_corpus (lib_apply_utt_per_s); not lib_plan_*"),
    "modifier.phones_per_call": ("count", "utt_per_s on library_corpus (lib_apply_utt_per_s)"),
    "evaluation.mos_ms": ("ms", "cli_eval_ms.p50 on cli_session, as a small share"),
    "evaluation.pref_ms": ("ms", "cli_eval_ms.p50 on cli_session, as a small share"),
    "stub.busy_share": ("share", "not a program layer: shows the stub does not limit http_stub"),
}
for _layer in LAYERS:
    TARGETS[f"{_layer}.self_us_per_utt"] = ("us", f"utt_ms.p50 wherever the {_layer} layer runs")
    TARGETS[f"{_layer}.calls_per_utt"] = ("count", f"utt_ms.p50 wherever the {_layer} layer runs")
TARGETS["trace.overhead_share"] = ("share", "traced over untraced utt_ms.p50, minus 1")

EXTERNAL = ("cli.import_ms", "llm.http_retries", "llm.requests_per_connection",
            "stub.busy_share", "trace.overhead_share")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Summary, n_utts: int, external: dict[str, tuple[float, int]]) -> list[Metric]:
    """Every per-layer metric from the spans in ``s``.

    ``n_utts`` is the number of utterances the traced run processed;
    ``external`` gives the metrics measured outside the spans as
    ``name -> (value, sample count)``.
    """
    c = s.counts
    suggest = "llm.suggest_with_repair"
    values: dict[str, tuple[float, int]] = {
        "features.parse_us_per_utt": (
            _ratio(s.total_ns["features.parse_features"], c["utterances_parsed"]) / 1e3,
            c["utterances_parsed"]),
        "features.serialize_us_per_utt": (
            _ratio(s.total_ns["features.serialize_features"], c["utterances_serialized"]) / 1e3,
            c["utterances_serialized"]),
        "features.compute_stats_ms": (
            s.mean_ns("features.compute_speaker_stats") / 1e6, s.calls["features.compute_speaker_stats"]),
        "prompting.build_prompt_us": (
            s.mean_ns("prompting.build_prompt") / 1e3, s.calls["prompting.build_prompt"]),
        "prompting.prompt_kb": (
            _ratio(s.prompts.total_chars, s.prompts.count) / 1024, s.prompts.count),
        "prompting.shared_prefix_share": (s.prompts.shared_share(), s.prompts.count),
        "llm.suggest_us": (s.mean_ns(suggest) / 1e3, s.calls[suggest]),
        "llm.loop_self_us": (
            _ratio(s.total_ns[suggest] - s.child_ns[suggest]["llm.backend"], s.calls[suggest]) / 1e3,
            s.calls[suggest]),
        "llm.backend_calls": (s.calls["llm.backend"], s.calls["llm.backend"]),
        "llm.backend_ms": (s.mean_ns("llm.backend") / 1e6, s.calls["llm.backend"]),
        "llm.attempts_per_utt": (
            _ratio(c["attempts"], c["utterances_suggested"]), c["utterances_suggested"]),
        "llm.first_attempt_ok_share": (
            _ratio(c["first_attempt_ok"], c["utterances_suggested"]), c["utterances_suggested"]),
        "response.parse_us": (
            s.mean_ns("response.parse_response") / 1e3, s.calls["response.parse_response"]),
        "response.fatal_diags_per_utt": (
            _ratio(c["fatal_diags"], c["utterances_suggested"]), c["utterances_suggested"]),
        "mapping.build_plan_us": (s.mean_ns("mapping.build_plan") / 1e3, s.calls["mapping.build_plan"]),
        "mapping.serialize_plan_us": (
            s.mean_ns("mapping.serialize_plan") / 1e3, s.calls["mapping.serialize_plan"]),
        "mapping.clamp_notes_per_plan": (_ratio(c["clamp_notes"], c["plans"]), c["plans"]),
        "mapping.parse_plan_us": (s.mean_ns("mapping.parse_plan") / 1e3, s.calls["mapping.parse_plan"]),
        "modifier.apply_plan_us": (
            s.mean_ns("modifier.apply_plan") / 1e3, s.calls["modifier.apply_plan"]),
        "modifier.phones_per_call": (
            _ratio(c["phones_applied"], s.calls["modifier.apply_plan"]), s.calls["modifier.apply_plan"]),
    }
    for kind, parse, summarise, render in (
        ("mos", "parse_ratings", "mos_summary", "format_mos_summary"),
        ("pref", "parse_preferences", "preference_summary", "format_preference_summary"),
    ):
        calls = s.calls[f"evaluation.{summarise}"]
        total = sum(s.total_ns[f"evaluation.{fn}"] for fn in (parse, summarise, render))
        values[f"evaluation.{kind}_ms"] = (_ratio(total, calls) / 1e6, calls)
    for layer in LAYERS:
        n = n_utts if s.layer_calls[layer] else 0
        values[f"{layer}.self_us_per_utt"] = (_ratio(s.layer_self_ns[layer], n) / 1e3, n)
        values[f"{layer}.calls_per_utt"] = (_ratio(s.layer_calls[layer], n), n)
    for name in EXTERNAL:
        values[name] = external.get(name, (0.0, 0))
    return [Metric(name, float(values[name][0]), unit, int(values[name][1]))
            for name, (unit, _) in TARGETS.items()]
