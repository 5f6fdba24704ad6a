"""Command-line entry point wiring the pipeline end to end.

Commands: ``stats`` (corpus statistics from raw features), ``prompt`` (print
the prompt that would be sent), ``plan`` (ask a backend for a suggestion and
write the mapped plan), ``apply`` (apply a plan to a feature file), and
``eval mos|pref|styles`` (listening-test aggregation).

Exit codes: 0 success, 2 input/data error, 3 model-output error after
repairs, 4 backend/transport error.  Data goes to standard output or the
paths given by flags; diagnostics go to standard error.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import click

from . import evaluation, features, llm, mapping, modifier, prompting
from .errors import BackendError, DataError, LlmOutputError

EXIT_DATA_ERROR = 2
EXIT_LLM_OUTPUT_ERROR = 3
EXIT_BACKEND_ERROR = 4


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BackendError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_BACKEND_ERROR)
        except LlmOutputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_LLM_OUTPUT_ERROR)
        except (DataError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)

    return wrapper


def _write_file(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` whole or not at all: write a file beside it, then rename."""
    temporary = Path(path).parent / f".{Path(path).name}.{os.getpid()}.tmp"
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_output(text: str, output: str) -> None:
    if output == "-":
        click.echo(text, nl=False)
    else:
        _write_file(output, text)


def _select_utterance(
    utterances: list[features.UtteranceFeatures], utterance_id: str | None
) -> features.UtteranceFeatures:
    if utterance_id is None:
        if len(utterances) != 1:
            raise DataError(
                f"file contains {len(utterances)} utterances; pick one with --utterance-id"
            )
        return utterances[0]
    for utterance in utterances:
        if utterance.id == utterance_id:
            return utterance
    raise DataError(f"no utterance with id {utterance_id!r}")


def _load_context(mode: str, style: str | None, previous_line: str | None) -> str | None:
    if mode == "style":
        if not style:
            raise click.UsageError("--mode style requires --style")
        if previous_line:
            raise click.UsageError("--previous-line is only valid with --mode dialogue")
        return style
    if mode == "dialogue":
        if not previous_line:
            raise click.UsageError("--mode dialogue requires --previous-line")
        if style:
            raise click.UsageError("--style is only valid with --mode style")
        return previous_line
    if style or previous_line:
        raise click.UsageError("--mode neutral takes neither --style nor --previous-line")
    return None


def _load_exemplars(path: str | None) -> tuple[prompting.Exemplar, ...]:
    if path is None:
        return prompting.default_exemplars()
    return prompting.parse_exemplars(Path(path).read_text(encoding="utf-8"))


def _mode_options(fn):
    fn = click.option(
        "--mode",
        type=click.Choice(["neutral", "style", "dialogue"]),
        default="neutral",
        show_default=True,
        help="What kind of context guides the suggestion.",
    )(fn)
    fn = click.option("--style", default=None, help="Target speaking style (style mode).")(fn)
    fn = click.option(
        "--previous-line", default=None, help="Previous dialogue line (dialogue mode)."
    )(fn)
    fn = click.option(
        "--exemplars",
        "exemplars_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Exemplar asset file replacing the built-in examples.",
    )(fn)
    return fn


@click.group()
@click.version_option(package_name="llmprosody")
def main() -> None:
    """Turn natural-language context into prosody modifications."""


@main.command()
@click.argument("raw_features", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", default="-", show_default=True, help="Stats file path, or - for stdout.")
@click.option("--min-duration-s", default=1.5, show_default=True, help="Exclude shorter utterances.")
@click.option("--percentile-low", default=5.0, show_default=True)
@click.option("--percentile-high", default=95.0, show_default=True)
@_handle_errors
def stats(raw_features, output, min_duration_s, percentile_low, percentile_high) -> None:
    """Compute speaker statistics from raw feature files."""
    utterances: list[features.UtteranceFeatures] = []
    for path in raw_features:
        utterances.extend(features.parse_features(Path(path).read_text(encoding="utf-8")))
    result = features.compute_speaker_stats(
        utterances,
        min_duration_s=min_duration_s,
        range_percentiles=(percentile_low, percentile_high),
    )
    _write_output(features.serialize_speaker_stats(result), output)


@main.command("prompt")
@_mode_options
@click.option("--text", required=True, help="Target text to annotate.")
@_handle_errors
def prompt_cmd(mode, style, previous_line, exemplars_path, text) -> None:
    """Print the prompt that would be sent to the model."""
    context = _load_context(mode, style, previous_line)
    spec = prompting.PromptSpec(
        mode=prompting.Mode(mode),
        target_text=text,
        context=context,
        exemplars=_load_exemplars(exemplars_path),
    )
    click.echo(prompting.build_prompt(spec), nl=False)


def _format_transcript(attempts: list[llm.Attempt]) -> str:
    lines = [f"attempts\t{len(attempts)}"]
    for number, attempt in enumerate(attempts, start=1):
        lines.append(f"== attempt {number} ==")
        lines.append("-- prompt --")
        lines.append(attempt.prompt.rstrip("\n"))
        lines.append("-- response --")
        lines.append(attempt.response.rstrip("\n"))
        lines.append("-- diagnostics --")
        if attempt.diagnostics:
            lines.extend(str(d) for d in attempt.diagnostics)
        else:
            lines.append("(none)")
    return "\n".join(lines) + "\n"


@main.command("plan")
@_mode_options
@click.option("--text", default=None, help="Target text; defaults to the utterance's text.")
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--stats", "stats_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--utterance-id", default=None, help="Which utterance to plan for.")
@click.option("--backend", type=click.Choice(["mock", "http"]), default="mock", show_default=True)
@click.option("--seed", default=0, show_default=True, help="Seed for the mock backend.")
@click.option("--base-url", default=llm.BackendConfig.base_url, show_default=True)
@click.option("--model", default=llm.BackendConfig.model_name, show_default=True)
@click.option("--api-key-env", default=llm.BackendConfig.api_key_env, show_default=True,
              help="Environment variable holding the API key (http backend).")
@click.option("--temperature", default=llm.BackendConfig.temperature, show_default=True)
@click.option("--timeout-s", default=llm.BackendConfig.timeout_s, show_default=True)
@click.option("--max-retries", default=llm.BackendConfig.max_retries, show_default=True)
@click.option("--max-attempts", default=llm.RepairPolicy.max_attempts, show_default=True,
              help="Suggest/parse/repair rounds.")
@click.option("--pitch-cap", default=mapping.MappingConfig.local_pitch_cap_fraction, show_default=True,
              help="Fraction of the upward pitch headroom one word may claim.")
@click.option("-o", "--output", default="-", show_default=True, help="Plan file path, or - for stdout.")
@click.option("--transcript", "transcript_path", default=None, type=click.Path(dir_okay=False),
              help="Where to write the attempt transcript.")
@_handle_errors
def plan_cmd(
    mode, style, previous_line, exemplars_path, text, features_path, stats_path,
    utterance_id, backend, seed, base_url, model, api_key_env, temperature,
    timeout_s, max_retries, max_attempts, pitch_cap, output, transcript_path,
) -> None:
    """Ask a backend for a suggestion and write the mapped modification plan."""
    context = _load_context(mode, style, previous_line)
    utterances = features.parse_features(Path(features_path).read_text(encoding="utf-8"))
    utterance = _select_utterance(utterances, utterance_id)
    stats_obj = features.parse_speaker_stats(Path(stats_path).read_text(encoding="utf-8"))
    target_text = text if text is not None else utterance.text
    target_words = features.tokenize_words(target_text)
    if tuple(w.key for w in target_words) != tuple(w.key for w in utterance.words):
        raise DataError(
            f"--text words do not match utterance {utterance.id!r}'s words"
        )
    spec = prompting.PromptSpec(
        mode=prompting.Mode(mode),
        target_text=target_text,
        context=context,
        exemplars=_load_exemplars(exemplars_path),
    )
    if backend == "mock":
        backend_fn = llm.MockBackend(seed=seed)
    else:
        backend_fn = llm.HttpBackend(
            llm.BackendConfig(
                base_url=base_url,
                model_name=model,
                api_key_env=api_key_env,
                temperature=temperature,
                timeout_s=timeout_s,
                max_retries=max_retries,
            )
        )
    policy = llm.RepairPolicy(max_attempts=max_attempts)
    try:
        suggestion, attempts = llm.suggest_with_repair(spec, backend_fn, policy)
    except llm.RepairExhausted as exc:
        if transcript_path:
            _write_file(transcript_path, _format_transcript(exc.attempts))
        raise
    plan = mapping.build_plan(
        suggestion, utterance, stats_obj, mapping.MappingConfig(local_pitch_cap_fraction=pitch_cap)
    )
    for note in plan.clamp_notes:
        click.echo(f"clamped: {note}", err=True)
    _write_output(mapping.serialize_plan(plan), output)
    if transcript_path:
        _write_file(transcript_path, _format_transcript(attempts))


@main.command("apply")
@click.option("--features", "features_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--stats", "stats_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--utterance-id", default=None, help="Which utterance to modify.")
@click.option("-o", "--output", default="-", show_default=True,
              help="Modified feature file path, or - for stdout.")
@_handle_errors
def apply_cmd(features_path, stats_path, plan_path, utterance_id, output) -> None:
    """Apply a modification plan to a normalized feature file."""
    utterances = features.parse_features(Path(features_path).read_text(encoding="utf-8"))
    utterance = _select_utterance(utterances, utterance_id)
    stats_obj = features.parse_speaker_stats(Path(stats_path).read_text(encoding="utf-8"))
    plan = mapping.parse_plan(Path(plan_path).read_text(encoding="utf-8"))
    modified = modifier.apply_plan(utterance, stats_obj, plan)
    _write_output(features.serialize_features([modified]), output)


@main.group("eval")
def eval_group() -> None:
    """Aggregate listening-test data."""


@eval_group.command("mos")
@click.argument("ratings_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--confidence", default=0.95, show_default=True)
@_handle_errors
def eval_mos(ratings_file, confidence) -> None:
    """MOS mean and t-based confidence interval per system."""
    records = evaluation.parse_ratings(Path(ratings_file).read_text(encoding="utf-8"))
    summaries = evaluation.mos_summary(records, confidence=confidence)
    click.echo(evaluation.format_mos_summary(summaries, confidence=confidence), nl=False)


@eval_group.command("pref")
@click.argument("preferences_file", type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def eval_pref(preferences_file) -> None:
    """Three-way preference percentages."""
    records = evaluation.parse_preferences(Path(preferences_file).read_text(encoding="utf-8"))
    summary = evaluation.preference_summary(records)
    click.echo(evaluation.format_preference_summary(summary), nl=False)


@eval_group.command("styles")
@click.argument("preferences_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--labels", "labels_file", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Tab-separated set_id/style mapping.")
@_handle_errors
def eval_styles(preferences_file, labels_file) -> None:
    """Preference percentages broken down by style label."""
    records = evaluation.parse_preferences(Path(preferences_file).read_text(encoding="utf-8"))
    labels = evaluation.parse_style_labels(Path(labels_file).read_text(encoding="utf-8"))
    breakdown = evaluation.style_breakdown(records, labels)
    click.echo(evaluation.format_style_breakdown(breakdown), nl=False)


if __name__ == "__main__":
    main()
