"""Command-line entry point wiring the pipeline end to end.

Commands: ``stats`` (corpus statistics from raw features), ``prompt`` (print
the prompt that would be sent), ``plan`` (ask a backend for a suggestion and
write the mapped plan), ``apply`` (apply a plan to a feature file), and
``eval mos|pref|styles`` (listening-test aggregation).

Exit codes: 0 success, else the ``exit_code`` of the error's category: 2
input/data error (an ``OSError`` too), 3 model-output error after repairs, 4
backend/transport error.  A usage error (an unknown option, a bad value, a
path option naming a missing file or a directory) exits 2 too, before the
command does any work.  Data goes to standard output or the paths given by
flags; diagnostics go to standard error.

The parser is the standard library's ``argparse``, so the package has no
runtime dependency.  Each command imports the package modules it runs, and
no other.  Importing this module (all that ``--help`` and ``stats`` need)
loads the package's ``config``, ``errors``, ``features`` and ``mapping``;
``apply`` adds ``modifier``, ``prompt`` adds ``prompting`` and ``response``,
``plan`` adds ``llm``, ``prompting`` and ``response``, and ``eval`` adds
``evaluation``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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
        sys.stdout.write(text)
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


def _load_context(options: argparse.Namespace) -> str | None:
    """The context ``--mode`` takes; a ``--style`` or ``--previous-line`` it does not take is a usage error."""
    mode, style, previous_line = options.mode, options.style, options.previous_line
    usage_error = options.parser.error
    if mode == "style":
        if not style:
            usage_error("--mode style requires --style")
        if previous_line:
            usage_error("--previous-line is only valid with --mode dialogue")
        return style
    if mode == "dialogue":
        if not previous_line:
            usage_error("--mode dialogue requires --previous-line")
        if style:
            usage_error("--style is only valid with --mode style")
        return previous_line
    if style or previous_line:
        usage_error("--mode neutral takes neither --style nor --previous-line")
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


def stats(options: argparse.Namespace) -> None:
    """Compute speaker statistics from raw feature files."""
    utterances: list[features.UtteranceFeatures] = []
    for path in options.raw_features:
        utterances.extend(features.parse_features(Path(path).read_text(encoding="utf-8")))
    result = features.compute_speaker_stats(
        utterances,
        min_duration_s=options.min_duration_s,
        range_percentiles=(options.percentile_low, options.percentile_high),
    )
    _write_output(features.serialize_speaker_stats(result), options.output)


def prompt_cmd(options: argparse.Namespace) -> None:
    """Print the prompt that would be sent to the model."""
    from . import prompting

    context = _load_context(options)
    spec = _prompt_spec(options.mode, context, options.text, options.exemplars_path)
    sys.stdout.write(prompting.build_prompt(spec))


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


def plan_cmd(options: argparse.Namespace) -> None:
    """Ask a backend for a suggestion and write the mapped modification plan."""
    from . import llm

    context = _load_context(options)
    utterance, stats_obj = _load_utterance(options.features_path, options.utterance_id, options.stats_path)
    text = options.text if options.text is not None else utterance.text
    spec = _prompt_spec(options.mode, context, text, options.exemplars_path)
    if options.backend == "mock":
        backend_fn = llm.MockBackend(seed=options.seed)
    else:
        backend_fn = llm.HttpBackend(
            config.BackendConfig(
                base_url=options.base_url,
                model_name=options.model,
                api_key_env=options.api_key_env,
                temperature=options.temperature,
                timeout_s=options.timeout_s,
                max_retries=options.max_retries,
            )
        )
    policy = config.RepairPolicy(max_attempts=options.max_attempts)
    mapping_config = mapping.MappingConfig(local_pitch_cap_fraction=options.pitch_cap)
    transcript_path = options.transcript_path
    try:
        plan, attempts = llm.plan_utterance(spec, utterance, stats_obj, backend_fn, policy, mapping_config)
    except llm.RepairExhausted as exc:
        if transcript_path:
            _write_file(transcript_path, _format_transcript(exc.attempts))
        raise
    # the parser clamped out-of-range model values before build_plan, so they are its diagnostics
    for diagnostic in attempts[-1].diagnostics:
        if diagnostic.clamped:
            print(f"clamped: {diagnostic}", file=sys.stderr)
    _write_output(mapping.serialize_plan(plan), options.output)
    if transcript_path:
        _write_file(transcript_path, _format_transcript(attempts))


def apply_cmd(options: argparse.Namespace) -> None:
    """Apply a modification plan to a normalized feature file."""
    from . import modifier

    utterance, stats_obj = _load_utterance(options.features_path, options.utterance_id, options.stats_path)
    plan = mapping.parse_plan(Path(options.plan_path).read_text(encoding="utf-8"))
    modified = modifier.apply_plan(utterance, stats_obj, plan)
    _write_output(features.serialize_features([modified]), options.output)


def eval_mos(options: argparse.Namespace) -> None:
    """MOS mean and t-based confidence interval per system."""
    from . import evaluation

    records = evaluation.parse_ratings(Path(options.ratings_file).read_text(encoding="utf-8"))
    summaries = evaluation.mos_summary(records, confidence=options.confidence)
    sys.stdout.write(evaluation.format_mos_summary(summaries))


def eval_pref(options: argparse.Namespace) -> None:
    """Three-way preference percentages."""
    from . import evaluation

    records = evaluation.parse_preferences(Path(options.preferences_file).read_text(encoding="utf-8"))
    summary = evaluation.preference_summary(records)
    sys.stdout.write(evaluation.format_preference_summary(summary))


def eval_styles(options: argparse.Namespace) -> None:
    """Preference percentages broken down by style label."""
    from . import evaluation

    records = evaluation.parse_preferences(Path(options.preferences_file).read_text(encoding="utf-8"))
    labels = evaluation.parse_style_labels(Path(options.labels_file).read_text(encoding="utf-8"))
    breakdown = evaluation.style_breakdown(records, labels)
    sys.stdout.write(evaluation.format_style_breakdown(breakdown))


def _input_file(path: str) -> str:
    """A file a command reads: a missing one or a directory is refused while parsing, before any work."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File {path!r} does not exist.")
    return _not_a_directory(path)


def _not_a_directory(path: str) -> str:
    """A file path; ``--transcript`` is written after the plan, so it is checked while parsing."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} is a directory.")
    return path


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Help that names an option's default after its help text, unless the default is none."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser(prog: str = "llmprosody") -> argparse.ArgumentParser:
    """The parser of every command; a command's namespace holds ``run``, its function, and ``parser``."""
    settings = {"formatter_class": _HelpFormatter, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog=prog, description="Turn natural-language context into prosody modifications.", **settings)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, run) -> argparse.ArgumentParser:
        sub = group.add_parser(name, help=run.__doc__, description=run.__doc__, **settings)
        sub.set_defaults(run=run, parser=sub)
        return sub

    def mode_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--mode", choices=["neutral", "style", "dialogue"], default="neutral",
                         help="What kind of context guides the suggestion.")
        sub.add_argument("--style", help="Target speaking style (style mode).")
        sub.add_argument("--previous-line", help="Previous dialogue line (dialogue mode).")
        sub.add_argument("--exemplars", dest="exemplars_path", type=_input_file, metavar="PATH",
                         help="Exemplar asset file replacing the built-in examples.")

    def utterance_options(sub: argparse.ArgumentParser, which: str, output: str) -> None:
        sub.add_argument("--features", dest="features_path", required=True, type=_input_file, metavar="PATH")
        sub.add_argument("--stats", dest="stats_path", required=True, type=_input_file, metavar="PATH")
        sub.add_argument("--utterance-id", help=f"Which utterance to {which}.")
        sub.add_argument("-o", "--output", default="-", help=f"{output} file path, or - for stdout.")

    sub = command(commands, "stats", stats)
    sub.add_argument("raw_features", nargs="+", type=_input_file)
    sub.add_argument("-o", "--output", default="-", help="Stats file path, or - for stdout.")
    sub.add_argument("--min-duration-s", type=float, default=1.5, help="Exclude shorter utterances.")
    sub.add_argument("--percentile-low", type=float, default=5.0)
    sub.add_argument("--percentile-high", type=float, default=95.0)

    sub = command(commands, "prompt", prompt_cmd)
    mode_options(sub)
    sub.add_argument("--text", required=True, help="Target text to annotate.")

    sub = command(commands, "plan", plan_cmd)
    mode_options(sub)
    sub.add_argument("--text", help="Target text; defaults to the utterance's text.")
    utterance_options(sub, "plan for", "Plan")
    sub.add_argument("--backend", choices=["mock", "http"], default="mock")
    sub.add_argument("--seed", type=int, default=0, help="Seed for the mock backend.")
    backend_config = config.BackendConfig()
    sub.add_argument("--base-url", default=backend_config.base_url)
    sub.add_argument("--model", default=backend_config.model_name)
    sub.add_argument("--api-key-env", default=backend_config.api_key_env,
                     help="Environment variable holding the API key (http backend).")
    sub.add_argument("--temperature", type=float, default=backend_config.temperature)
    sub.add_argument("--timeout-s", type=float, default=backend_config.timeout_s)
    sub.add_argument("--max-retries", type=int, default=backend_config.max_retries)
    sub.add_argument("--max-attempts", type=int, default=config.RepairPolicy().max_attempts,
                     help="Suggest/parse/repair rounds.")
    sub.add_argument("--pitch-cap", type=float, default=mapping.MappingConfig().local_pitch_cap_fraction,
                     help="Fraction of the upward pitch headroom one word may claim.")
    sub.add_argument("--transcript", dest="transcript_path", type=_not_a_directory, metavar="PATH",
                     help="Where to write the attempt transcript.")

    sub = command(commands, "apply", apply_cmd)
    utterance_options(sub, "modify", "Modified feature")
    sub.add_argument("--plan", dest="plan_path", required=True, type=_input_file, metavar="PATH")

    evaluations = commands.add_parser(
        "eval", help="Aggregate listening-test data.", description="Aggregate listening-test data.",
        **settings).add_subparsers(dest="command", required=True)
    sub = command(evaluations, "mos", eval_mos)
    sub.add_argument("ratings_file", type=_input_file)
    sub.add_argument("--confidence", type=float, default=0.95)
    sub = command(evaluations, "pref", eval_pref)
    sub.add_argument("preferences_file", type=_input_file)
    sub = command(evaluations, "styles", eval_styles)
    sub.add_argument("preferences_file", type=_input_file)
    sub.add_argument("--labels", dest="labels_file", required=True, type=_input_file, metavar="PATH",
                     help="Tab-separated set_id/style mapping.")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command of ``args`` (by default ``sys.argv[1:]``).

    An error of a package category, or an ``OSError``, prints ``error: <message>``
    and exits with its code; a usage error exits 2 with the command's usage.
    """
    options = build_parser(prog_name or "llmprosody").parse_args(args)
    try:
        options.run(options)
    except (DataError, LlmOutputError, BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(getattr(exc, "exit_code", DataError.exit_code))


if __name__ == "__main__":
    main()
