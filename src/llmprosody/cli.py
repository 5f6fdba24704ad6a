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

One table, ``_COMMANDS``, owns every command's arguments, and two parsers
read it.  ``_accept`` takes a plainly well-formed line, the kind that scripts
and pipelines run, and gives the namespace that argparse would give.  Any
other line goes to the standard library's ``argparse`` (``build_parser``),
which alone prints help, ``--version`` and usage errors, so ``plan`` and
``apply`` on a valid line never load ``argparse``, ``gettext`` or ``locale``.
The package has no runtime dependency.  Each command imports the package
modules it runs, and no other.  Importing this module (all that ``--help``
and ``stats`` need) loads the package's ``config``, ``errors``, ``features``
and ``mapping``; ``apply`` adds ``modifier``, ``prompt`` adds ``prompting``
and ``response``, ``plan`` adds ``llm``, ``prompting`` and ``response``, and
``eval`` adds ``evaluation``.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from . import __version__, config, features, mapping
from .errors import BackendError, DataError, LlmOutputError


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``: a regular file (or a new one) is replaced whole or not at all.

    The text goes to a file beside the target, which is then renamed over it;
    through a symbolic link, the target is the file it names.  A FIFO, a
    device or any other file that is not regular cannot be replaced, so it is
    written directly.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # a new path, or one the rename below reports on
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    stem = os.path.join(directory, f".{name}.{os.getpid()}")
    temporary = None  # the file this call created, once it has
    try:
        n = 0
        while temporary is None:  # a name that another file holds is left to that file
            try:
                handle = open(f"{stem}.{n}.tmp" if n else f"{stem}.tmp", "x", encoding="utf-8")
                temporary = handle.name
            except FileExistsError:
                n += 1
        with handle:
            handle.write(text)
        os.replace(temporary, target)
    except BaseException as exc:
        if temporary is not None:
            try:
                os.remove(temporary)
            except FileNotFoundError:
                pass
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
    utterances = features.parse_features(_read(features_path))
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
    return utterance, features.parse_speaker_stats(_read(stats_path))


class _UsageError(Exception):
    """A usage error found after parsing; ``main`` has argparse print it with the command's usage."""


def _load_context(options) -> str | None:
    """The context ``--mode`` takes; a ``--style`` or ``--previous-line`` it does not take is a usage error."""
    mode, style, previous_line = options.mode, options.style, options.previous_line
    if mode == "style":
        if not style:
            raise _UsageError("--mode style requires --style")
        if previous_line:
            raise _UsageError("--previous-line is only valid with --mode dialogue")
        return style
    if mode == "dialogue":
        if not previous_line:
            raise _UsageError("--mode dialogue requires --previous-line")
        if style:
            raise _UsageError("--style is only valid with --mode style")
        return previous_line
    if style or previous_line:
        raise _UsageError("--mode neutral takes neither --style nor --previous-line")
    return None


def _prompt_spec(mode: str, context: str | None, text: str, exemplars_path: str | None):
    """The ``PromptSpec`` of ``prompt`` and ``plan``: the built-in examples, or those of the file."""
    from . import prompting

    if exemplars_path is None:
        exemplars = prompting.default_exemplars()
    else:
        exemplars = prompting.parse_exemplars(_read(exemplars_path))
    return prompting.PromptSpec(
        mode=prompting.Mode(mode), target_text=text, context=context, exemplars=exemplars)


def stats(options) -> None:
    """Compute speaker statistics from raw feature files."""
    utterances: list[features.UtteranceFeatures] = []
    read_from: dict[str, str] = {}  # each utterance id, and the file that holds it
    for path in options.raw_features:
        for utterance in features.parse_features(_read(path)):
            if utterance.id in read_from:
                raise DataError(f"{path}: utterance id {utterance.id!r} is already in {read_from[utterance.id]}")
            read_from[utterance.id] = path
            utterances.append(utterance)
    result = features.compute_speaker_stats(
        utterances,
        min_duration_s=options.min_duration_s,
        range_percentiles=(options.percentile_low, options.percentile_high),
    )
    _write_output(features.serialize_speaker_stats(result), options.output)


def prompt_cmd(options) -> None:
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


def plan_cmd(options) -> None:
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


def apply_cmd(options) -> None:
    """Apply a modification plan to a normalized feature file."""
    from . import modifier

    utterance, stats_obj = _load_utterance(options.features_path, options.utterance_id, options.stats_path)
    plan = mapping.parse_plan(_read(options.plan_path))
    modified = modifier.apply_plan(utterance, stats_obj, plan)
    _write_output(features.serialize_features([modified]), options.output)


def eval_mos(options) -> None:
    """MOS mean and t-based confidence interval per system."""
    from . import evaluation

    records = evaluation.parse_ratings(_read(options.ratings_file))
    summaries = evaluation.mos_summary(records, confidence=options.confidence)
    sys.stdout.write(evaluation.format_mos_summary(summaries))


def eval_pref(options) -> None:
    """Three-way preference percentages."""
    from . import evaluation

    records = evaluation.parse_preferences(_read(options.preferences_file))
    summary = evaluation.preference_summary(records)
    sys.stdout.write(evaluation.format_preference_summary(summary))


def eval_styles(options) -> None:
    """Preference percentages broken down by style label."""
    from . import evaluation

    records = evaluation.parse_preferences(_read(options.preferences_file))
    labels = evaluation.parse_style_labels(_read(options.labels_file))
    breakdown = evaluation.style_breakdown(records, labels)
    sys.stdout.write(evaluation.format_style_breakdown(breakdown))


def _refusal(message: str) -> Exception:
    """The error argparse prints as a usage error; only a refused line loads argparse."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _input_file(path: str) -> str:
    """A file a command reads: a missing one or a directory is refused while parsing, before any work."""
    if not os.path.exists(path):
        raise _refusal(f"File {path!r} does not exist.")
    return _not_a_directory(path)


def _not_a_directory(path: str) -> str:
    """A file path; ``--transcript`` is written after the plan, so it is checked while parsing."""
    if os.path.isdir(path):
        raise _refusal(f"File {path!r} is a directory.")
    return path


_MODE_OPTIONS = (
    (("--mode",), {"choices": ["neutral", "style", "dialogue"], "default": "neutral",
                   "help": "What kind of context guides the suggestion."}),
    (("--style",), {"help": "Target speaking style (style mode)."}),
    (("--previous-line",), {"help": "Previous dialogue line (dialogue mode)."}),
    (("--exemplars",), {"dest": "exemplars_path", "type": _input_file, "metavar": "PATH",
                        "help": "Exemplar asset file replacing the built-in examples."}),
)


def _utterance_options(which: str, output: str) -> tuple:
    return (
        (("--features",), {"dest": "features_path", "required": True, "type": _input_file, "metavar": "PATH"}),
        (("--stats",), {"dest": "stats_path", "required": True, "type": _input_file, "metavar": "PATH"}),
        (("--utterance-id",), {"help": f"Which utterance to {which}."}),
        (("-o", "--output"), {"default": "-", "help": f"{output} file path, or - for stdout."}),
    )


_BACKEND_CONFIG = config.BackendConfig()

# Every command, by the words that name it: its function and its arguments.  An argument is its
# flags (or its name, for a positional) and the keywords of argparse's ``add_argument``, which
# build_parser passes on as they are and _accept reads.  A command has at most one positional.
_COMMANDS = {
    ("stats",): (stats, (
        (("raw_features",), {"nargs": "+", "type": _input_file}),
        (("-o", "--output"), {"default": "-", "help": "Stats file path, or - for stdout."}),
        (("--min-duration-s",), {"type": float, "default": features.MIN_DURATION_S,
                                 "help": "Exclude shorter utterances."}),
        (("--percentile-low",), {"type": float, "default": features.RANGE_PERCENTILES[0]}),
        (("--percentile-high",), {"type": float, "default": features.RANGE_PERCENTILES[1]}),
    )),
    ("prompt",): (prompt_cmd, (
        *_MODE_OPTIONS,
        (("--text",), {"required": True, "help": "Target text to annotate."}),
    )),
    ("plan",): (plan_cmd, (
        *_MODE_OPTIONS,
        (("--text",), {"help": "Target text; defaults to the utterance's text."}),
        *_utterance_options("plan for", "Plan"),
        (("--backend",), {"choices": ["mock", "http"], "default": "mock"}),
        (("--seed",), {"type": int, "default": 0, "help": "Seed for the mock backend."}),
        (("--base-url",), {"default": _BACKEND_CONFIG.base_url}),
        (("--model",), {"default": _BACKEND_CONFIG.model_name}),
        (("--api-key-env",), {"default": _BACKEND_CONFIG.api_key_env,
                              "help": "Environment variable holding the API key (http backend)."}),
        (("--temperature",), {"type": float, "default": _BACKEND_CONFIG.temperature}),
        (("--timeout-s",), {"type": float, "default": _BACKEND_CONFIG.timeout_s}),
        (("--max-retries",), {"type": int, "default": _BACKEND_CONFIG.max_retries}),
        (("--max-attempts",), {"type": int, "default": config.RepairPolicy().max_attempts,
                               "help": "Suggest/parse/repair rounds."}),
        (("--pitch-cap",), {"type": float, "default": mapping.MappingConfig().local_pitch_cap_fraction,
                            "help": "Fraction of the upward pitch headroom one word may claim."}),
        (("--transcript",), {"dest": "transcript_path", "type": _not_a_directory, "metavar": "PATH",
                             "help": "Where to write the attempt transcript."}),
    )),
    ("apply",): (apply_cmd, (
        *_utterance_options("modify", "Modified feature"),
        (("--plan",), {"dest": "plan_path", "required": True, "type": _input_file, "metavar": "PATH"}),
    )),
    ("eval", "mos"): (eval_mos, (
        (("ratings_file",), {"type": _input_file}),
        # a literal: reading evaluation's default would load that module in every process
        (("--confidence",), {"type": float, "default": 0.95}),
    )),
    ("eval", "pref"): (eval_pref, (
        (("preferences_file",), {"type": _input_file}),
    )),
    ("eval", "styles"): (eval_styles, (
        (("preferences_file",), {"type": _input_file}),
        (("--labels",), {"dest": "labels_file", "required": True, "type": _input_file, "metavar": "PATH",
                         "help": "Tab-separated set_id/style mapping."}),
    )),
}
_EVAL_HELP = "Aggregate listening-test data."


def _dest(flags: tuple[str, ...], keywords: dict) -> str:
    """The namespace attribute argparse stores an argument under."""
    if "dest" in keywords:
        return keywords["dest"]
    long_flags = [flag for flag in flags if flag.startswith("--")]
    return (long_flags or list(flags))[0].lstrip("-").replace("-", "_")


def build_parser(prog: str = "llmprosody"):
    """The argparse parser of ``_COMMANDS``; a command's namespace holds ``run``, its function, and ``parser``."""
    import argparse

    class HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
        """Help that names an option's default after its help text, unless the default is none."""

        def _get_help_string(self, action: argparse.Action) -> str | None:
            return action.help if action.default is None else super()._get_help_string(action)

    settings = {"formatter_class": HelpFormatter, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog=prog, description="Turn natural-language context into prosody modifications.", **settings)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (run, arguments) in _COMMANDS.items():
        if words[:-1] not in groups:  # eval, whose subcommands are commands
            groups[words[:-1]] = groups[()].add_parser(
                words[0], help=_EVAL_HELP, description=_EVAL_HELP, **settings,
            ).add_subparsers(dest="command", required=True)
        sub = groups[words[:-1]].add_parser(words[-1], help=run.__doc__, description=run.__doc__, **settings)
        sub.set_defaults(run=run, parser=sub)
        for flags, keywords in arguments:
            sub.add_argument(*flags, **keywords)
    return parser


def _accept(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give a plainly well-formed ``argv``, less ``parser``; else None.

    It takes ``CMD [SUB]``, then one run of positionals and options written
    ``--long VALUE``, ``--long=VALUE`` or ``-o VALUE``, each given once, with
    every required option, values that convert and are among the choices,
    and path checks that pass.  It declines the rest, for argparse to parse:
    help, ``--version``, ``--``, an unknown or abbreviated name, a short
    option glued to its value, and a value that starts with ``-`` but is not
    ``-``.  It never prints and never exits.
    """
    words = tuple(argv[:2]) if argv[:1] == ["eval"] else tuple(argv[:1])
    if words not in _COMMANDS:
        return None
    run, arguments = _COMMANDS[words]
    by_flag = {flag: argument for argument in arguments for flag in argument[0] if flag[0] == "-"}
    given: dict[tuple[str, ...], str] = {}
    positionals: list[str] = []
    options_after_positionals = False
    rest = iter(argv[len(words):])
    for word in rest:
        if word[:1] != "-" or word == "-":
            if options_after_positionals:  # argparse takes one run of positionals
                return None
            positionals.append(word)
            continue
        options_after_positionals = bool(positionals)
        flag, equals, value = word.partition("=")
        if flag not in by_flag or (equals and not flag.startswith("--")) or by_flag[flag][0] in given:
            return None
        if not equals:
            value = next(rest, None)
            if value is None:
                return None
        if value[:1] == "-" and value != "-":
            return None
        given[by_flag[flag][0]] = value
    values = {"command": words[-1], "run": run}
    for flags, keywords in arguments:
        if flags[0][0] != "-":
            if not positionals or (len(positionals) > 1 and keywords.get("nargs") != "+"):
                return None
            raw, positionals = positionals, []
        elif flags in given:
            raw = [given[flags]]
        elif keywords.get("required"):
            return None
        else:
            values[_dest(flags, keywords)] = keywords.get("default")
            continue
        converted = []
        for text in raw:
            try:
                value = keywords.get("type", str)(text)
            except Exception:  # argparse refuses it as well (ValueError, ArgumentTypeError) and says why
                return None
            if value not in keywords.get("choices", [value]):
                return None
            converted.append(value)
        values[_dest(flags, keywords)] = converted if keywords.get("nargs") == "+" else converted[0]
    if positionals:  # given to a command that takes none
        return None
    return SimpleNamespace(**values)


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command of ``args`` (by default ``sys.argv[1:]``).

    An error of a package category, or an ``OSError``, prints ``error: <message>``
    and exits with its code; a usage error exits 2 with the command's usage.
    """
    argv = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "llmprosody"
    options = _accept(argv)
    if options is None:
        options = build_parser(prog).parse_args(argv)
    try:
        options.run(options)
    except _UsageError as exc:
        # argparse prints it, under the usage of the command that ran
        build_parser(prog).parse_args(argv).parser.error(str(exc))
    except (DataError, LlmOutputError, BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(getattr(exc, "exit_code", DataError.exit_code))


if __name__ == "__main__":
    main()
