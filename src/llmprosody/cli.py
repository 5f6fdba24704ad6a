"""Command-line entry point wiring the pipeline end to end.

Commands: ``stats`` (corpus statistics from raw features), ``prompt`` (print
the prompt that would be sent), ``plan`` (ask a backend for a suggestion and
write the mapped plan), ``apply`` (apply a plan to a feature file), and
``eval mos|pref|styles`` (listening-test aggregation).

Exit codes: 0 success, else the ``exit_code`` of the error's category: 2
input/data error (an ``OSError`` too), 3 model-output error after repairs, 4
backend/transport error.  Data goes to standard output or the paths given by
flags; diagnostics go to standard error.

Each command imports the package modules it runs, and no other.  Importing
this module (all that ``--help`` and ``stats`` need) loads the package's
``config``, ``errors``, ``features`` and ``mapping``; ``apply`` adds
``modifier``, ``prompt`` adds ``prompting`` and ``response``, ``plan`` adds
``llm``, ``prompting`` and ``response``, and ``eval`` adds ``evaluation``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import __version__, config, features, mapping
from .errors import BackendError, DataError, LlmOutputError


def _write_file(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` whole or not at all: write a file beside it, then rename."""
    temporary = Path(path).parent / f".{Path(path).name}.{os.getpid()}.tmp"
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the path the user gave, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_output(text: str, output: str) -> None:
    if output == "-":
        click.echo(text, nl=False)
    else:
        _write_file(output, text)


def _load_utterance(
    features_path: str, utterance_id: str | None, stats_path: str
) -> tuple[features.UtteranceFeatures, features.SpeakerStats]:
    """The utterance that ``plan`` or ``apply`` works on, and the speaker stats."""
    utterances = features.parse_features(Path(features_path).read_text(encoding="utf-8"))
    if utterance_id is None:
        if len(utterances) != 1:
            raise DataError(
                f"file contains {len(utterances)} utterances; pick one with --utterance-id"
            )
        [utterance] = utterances
    else:
        utterance = next((u for u in utterances if u.id == utterance_id), None)
        if utterance is None:
            raise DataError(f"no utterance with id {utterance_id!r}")
    return utterance, features.parse_speaker_stats(Path(stats_path).read_text(encoding="utf-8"))


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


def _prompt_spec(mode: str, context: str | None, text: str, exemplars_path: str | None):
    """The ``PromptSpec`` of ``prompt`` and ``plan``: the built-in examples, or those of the file."""
    from . import prompting

    if exemplars_path is None:
        exemplars = prompting.default_exemplars()
    else:
        exemplars = prompting.parse_exemplars(Path(exemplars_path).read_text(encoding="utf-8"))
    return prompting.PromptSpec(
        mode=prompting.Mode(mode), target_text=text, context=context, exemplars=exemplars)


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


class _Main(click.Group):
    """The command group: an error of a package category, or an ``OSError``, exits with its code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DataError, LlmOutputError, BackendError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(getattr(exc, "exit_code", DataError.exit_code))


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Turn natural-language context into prosody modifications."""


@main.command()
@click.argument("raw_features", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", default="-", show_default=True, help="Stats file path, or - for stdout.")
@click.option("--min-duration-s", default=1.5, show_default=True, help="Exclude shorter utterances.")
@click.option("--percentile-low", default=5.0, show_default=True)
@click.option("--percentile-high", default=95.0, show_default=True)
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
def prompt_cmd(mode, style, previous_line, exemplars_path, text) -> None:
    """Print the prompt that would be sent to the model."""
    from . import prompting

    spec = _prompt_spec(mode, _load_context(mode, style, previous_line), text, exemplars_path)
    click.echo(prompting.build_prompt(spec), nl=False)


def _format_transcript(attempts: list) -> str:
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
@click.option("--base-url", default=config.BackendConfig.base_url, show_default=True)
@click.option("--model", default=config.BackendConfig.model_name, show_default=True)
@click.option("--api-key-env", default=config.BackendConfig.api_key_env, show_default=True,
              help="Environment variable holding the API key (http backend).")
@click.option("--temperature", default=config.BackendConfig.temperature, show_default=True)
@click.option("--timeout-s", default=config.BackendConfig.timeout_s, show_default=True)
@click.option("--max-retries", default=config.BackendConfig.max_retries, show_default=True)
@click.option("--max-attempts", default=config.RepairPolicy.max_attempts, show_default=True,
              help="Suggest/parse/repair rounds.")
@click.option("--pitch-cap", default=mapping.MappingConfig.local_pitch_cap_fraction, show_default=True,
              help="Fraction of the upward pitch headroom one word may claim.")
@click.option("-o", "--output", default="-", show_default=True, help="Plan file path, or - for stdout.")
@click.option("--transcript", "transcript_path", default=None, type=click.Path(dir_okay=False),
              help="Where to write the attempt transcript.")
def plan_cmd(
    mode, style, previous_line, exemplars_path, text, features_path, stats_path,
    utterance_id, backend, seed, base_url, model, api_key_env, temperature,
    timeout_s, max_retries, max_attempts, pitch_cap, output, transcript_path,
) -> None:
    """Ask a backend for a suggestion and write the mapped modification plan."""
    from . import llm

    context = _load_context(mode, style, previous_line)
    utterance, stats_obj = _load_utterance(features_path, utterance_id, stats_path)
    spec = _prompt_spec(mode, context, text if text is not None else utterance.text, exemplars_path)
    if backend == "mock":
        backend_fn = llm.MockBackend(seed=seed)
    else:
        backend_fn = llm.HttpBackend(
            config.BackendConfig(
                base_url=base_url,
                model_name=model,
                api_key_env=api_key_env,
                temperature=temperature,
                timeout_s=timeout_s,
                max_retries=max_retries,
            )
        )
    policy = config.RepairPolicy(max_attempts=max_attempts)
    mapping_config = mapping.MappingConfig(local_pitch_cap_fraction=pitch_cap)
    try:
        plan, attempts = llm.plan_utterance(spec, utterance, stats_obj, backend_fn, policy, mapping_config)
    except llm.RepairExhausted as exc:
        if transcript_path:
            _write_file(transcript_path, _format_transcript(exc.attempts))
        raise
    # the parser clamped out-of-range model values before build_plan, so they are its diagnostics
    for diagnostic in attempts[-1].diagnostics:
        if diagnostic.clamped:
            click.echo(f"clamped: {diagnostic}", err=True)
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
def apply_cmd(features_path, stats_path, plan_path, utterance_id, output) -> None:
    """Apply a modification plan to a normalized feature file."""
    from . import modifier

    utterance, stats_obj = _load_utterance(features_path, utterance_id, stats_path)
    plan = mapping.parse_plan(Path(plan_path).read_text(encoding="utf-8"))
    modified = modifier.apply_plan(utterance, stats_obj, plan)
    _write_output(features.serialize_features([modified]), output)


@main.group("eval")
def eval_group() -> None:
    """Aggregate listening-test data."""


@eval_group.command("mos")
@click.argument("ratings_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--confidence", default=0.95, show_default=True)
def eval_mos(ratings_file, confidence) -> None:
    """MOS mean and t-based confidence interval per system."""
    from . import evaluation

    records = evaluation.parse_ratings(Path(ratings_file).read_text(encoding="utf-8"))
    summaries = evaluation.mos_summary(records, confidence=confidence)
    click.echo(evaluation.format_mos_summary(summaries), nl=False)


@eval_group.command("pref")
@click.argument("preferences_file", type=click.Path(exists=True, dir_okay=False))
def eval_pref(preferences_file) -> None:
    """Three-way preference percentages."""
    from . import evaluation

    records = evaluation.parse_preferences(Path(preferences_file).read_text(encoding="utf-8"))
    summary = evaluation.preference_summary(records)
    click.echo(evaluation.format_preference_summary(summary), nl=False)


@eval_group.command("styles")
@click.argument("preferences_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--labels", "labels_file", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Tab-separated set_id/style mapping.")
def eval_styles(preferences_file, labels_file) -> None:
    """Preference percentages broken down by style label."""
    from . import evaluation

    records = evaluation.parse_preferences(Path(preferences_file).read_text(encoding="utf-8"))
    labels = evaluation.parse_style_labels(Path(labels_file).read_text(encoding="utf-8"))
    breakdown = evaluation.style_breakdown(records, labels)
    click.echo(evaluation.format_style_breakdown(breakdown), nl=False)


if __name__ == "__main__":
    main()
