import contextlib
import inspect
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import PROPERTIES
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from llmprosody import features, llm, mapping, prompting
from llmprosody.cli import _COMMANDS, _accept, build_parser, main
from llmprosody.errors import BackendError, DataError, LlmOutputError
from llmprosody.evaluation import (
    PREFERENCES_HEADER,
    RATINGS_HEADER,
    STYLE_LABELS_HEADER,
    format_mos_summary,
    format_preference_summary,
    format_style_breakdown,
    mos_summary,
    parse_preferences,
    parse_ratings,
    parse_style_labels,
    preference_summary,
    style_breakdown,
)
from llmprosody.features import (
    compute_speaker_stats,
    parse_features,
    parse_speaker_stats,
    serialize_speaker_stats,
)

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

NORM = str(DATA_DIR / "norm_utterance.tsv")
STATS = str(DATA_DIR / "stats.tsv")
RAW = str(DATA_DIR / "raw_corpus.tsv")
RAW_WITH_SHORT = str(DATA_DIR / "raw_corpus_with_short.tsv")


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class Runner:
    """Runs the CLI in this process on captured standard output and error."""

    def invoke(self, command, args) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                command(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
            except Exception as exc:  # an unmapped error, as an uncaught one would end the process
                exit_code, exception = 1, exc
        return Result(exit_code, stdout.getvalue(), stderr.getvalue(), exception)


@pytest.fixture
def runner():
    return Runner()


def write_preferences(path, counts, systems=("proposed", "baseline", "random")):
    lines = [PREFERENCES_HEADER]
    k = 0
    for system, wins in counts.items():
        for _ in range(wins):
            lines.append(f"set{k}\trater{k % 8}\t{system}\t" + ",".join(systems))
            k += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_eval_inputs(directory):
    """``ratings.tsv``, ``prefs.tsv`` and ``labels.tsv`` in ``directory``, as the eval commands read them."""
    ratings = [RATINGS_HEADER] + [f"s{i}\tbaseline\tr{i}\t{3 + i % 2}" for i in range(4)]
    (directory / "ratings.tsv").write_text("\n".join(ratings) + "\n", encoding="utf-8")
    write_preferences(directory / "prefs.tsv", {"proposed": 2, "baseline": 1, "random": 1})
    (directory / "labels.tsv").write_text(
        STYLE_LABELS_HEADER + "".join(f"\nset{k}\tcalm" for k in range(4)) + "\n", encoding="utf-8")


@pytest.fixture
def backend_calls(monkeypatch):
    """The prompts the mock backend is sent; it answers as ``MockBackend`` does."""
    calls = []

    class CountingBackend:
        def __init__(self, seed):
            self.seed = seed

        def __call__(self, prompt):
            calls.append(prompt)
            return llm.mock_complete(prompt, self.seed)

    monkeypatch.setattr(llm, "MockBackend", CountingBackend)
    return calls


class TestVersion:
    def test_version_comes_from_package_metadata(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    def test_version_needs_no_package_metadata(self, tmp_path):
        shutil.copytree(Path(__file__).parents[1] / "src" / "llmprosody", tmp_path / "llmprosody")
        completed = subprocess.run(
            [sys.executable, "-m", "llmprosody", "--version"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "0.1.0" in completed.stdout

    def test_version_line_is_the_same_under_python_m(self, runner):
        completed = subprocess.run(
            [sys.executable, "-m", "llmprosody", "--version"],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "llmprosody, version 0.1.0\n"
        assert runner.invoke(main, ["--version"]).stdout == completed.stdout


class TestUsage:
    @pytest.mark.parametrize("args", [[], ["eval"]], ids=["bare", "eval"])
    def test_a_missing_command_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(" ".join(["usage: llmprosody", *args, "[-h]"]))
        assert result.stderr.endswith(": error: the following arguments are required: command\n")


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (DataError("bad input"), 2),
            (OSError(5, "Input/output error"), 2),
            (LlmOutputError("bad answer"), 3),
            (llm.RepairExhausted("bad answers", attempts=[]), 3),
            (BackendError("no route"), 4),
            (llm.RateLimited("slow down", attempts=2), 4),
            (llm.NetworkError("gone", attempts=1), 4),
        ],
    )
    def test_every_command_maps_the_error_categories(self, runner, monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error

        # raised from the library under a command that states no mapping of its own
        monkeypatch.setattr(features, "parse_features", fail)
        result = runner.invoke(main, ["stats", RAW])
        assert result.exit_code == code
        assert result.stderr == f"error: {error}\n"

    def test_other_errors_are_not_mapped(self, runner, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setattr(features, "parse_features", fail)
        result = runner.invoke(main, ["stats", RAW])
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)


# what `stats` printed for both raw corpora when it computed with numpy (2.4.6, AVX-512
# paths off); the standard-library statistics keep these bytes on every CPU
RAW_CORPUS_STATS = (
    "mu_logf0\t5.383941806451614\n"
    "sigma_logf0\t0.2967515698740188\n"
    "mu_loge\t0.5140683999999999\n"
    "sigma_loge\t0.7505958625197953\n"
    "f0_min_hz\t122.21456424022642\n"
    "f0_max_hz\t306.5106275604977\n"
)


class TestStatsCommand:
    @pytest.mark.parametrize("corpus", [RAW, RAW_WITH_SHORT], ids=["raw", "with_short"])
    def test_prints_the_pinned_bytes(self, runner, tmp_path, corpus):
        out = tmp_path / "stats.tsv"
        result = runner.invoke(main, ["stats", corpus, "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text(encoding="utf-8") == RAW_CORPUS_STATS

    def test_writes_parseable_stats(self, runner, tmp_path):
        out = tmp_path / "stats.tsv"
        result = runner.invoke(main, ["stats", RAW, "-o", str(out)])
        assert result.exit_code == 0, result.output
        stats = parse_speaker_stats(out.read_text())
        assert 0 < stats.f0_min_hz < stats.f0_max_hz

    def test_short_utterances_do_not_change_output(self, runner, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        assert runner.invoke(main, ["stats", RAW, "-o", str(a)]).exit_code == 0
        assert runner.invoke(main, ["stats", RAW_WITH_SHORT, "-o", str(b)]).exit_code == 0
        assert a.read_text() == b.read_text()

    def test_degenerate_corpus_exits_2(self, runner, tmp_path):
        doc = (
            "#feature-file\tv1\n"
            "#utterance\tu1\tspk1\traw\thi\n"
            "AA\t0\t2.000000\t5.298317\t0.500000\t1\t0\n"
            "IY\t0\t2.000000\t5.298317\t0.700000\t1\t0\n"
        )
        bad = tmp_path / "bad.tsv"
        bad.write_text(doc)
        result = runner.invoke(main, ["stats", str(bad)])
        assert result.exit_code == 2

    def test_overflowing_statistics_exit_2_without_output(self, runner, tmp_path):
        # the log-energies' sum overflows: a stats file of inf would be refused by plan and apply
        doc = (
            "#feature-file\tv1\n"
            "#utterance\tu1\tspk1\traw\ta b c\n"
            "AA\t0\t1.0\t5.0\t1e308\t1\t0\n"
            "IY\t1\t1.0\t5.3\t1e308\t1\t0\n"
            "EH\t2\t1.0\t5.1\t-1.0\t1\t0\n"
        )
        raw = tmp_path / "raw.tsv"
        raw.write_text(doc)
        out = tmp_path / "stats.tsv"
        result = runner.invoke(main, ["stats", str(raw), "-o", str(out)])
        assert result.exit_code == 2
        assert result.stderr == "error: mu_loge must be finite, got inf\n"
        assert not out.exists()

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["stats", "no-such-file.tsv"])
        assert result.exit_code == 2

    def test_a_file_holding_the_temporary_name_is_left_alone(self, runner, tmp_path):
        # a leftover of a killed run whose pid this process now has, or anyone's file
        directory = Path(os.path.realpath(tmp_path))
        foreign = directory / f".out.tsv.{os.getpid()}.tmp"
        foreign.write_bytes(b"not the CLI's\n")
        out = directory / "out.tsv"
        result = runner.invoke(main, ["stats", RAW, "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert foreign.read_bytes() == b"not the CLI's\n"
        stats = compute_speaker_stats(parse_features(Path(RAW).read_text(encoding="utf-8")))
        assert out.read_text(encoding="utf-8") == serialize_speaker_stats(stats)
        assert sorted(path.name for path in directory.iterdir()) == [foreign.name, out.name]


class TestPromptCommand:
    def test_neutral_matches_golden(self, runner):
        result = runner.invoke(
            main, ["prompt", "--mode", "neutral", "--text", "Turn left at the second light."]
        )
        assert result.exit_code == 0
        assert result.output == (GOLDEN_DIR / "prompt_neutral.txt").read_text()

    def test_prints_the_prompt_the_model_is_sent(self, runner):
        # escape sequences in the text reach the model as they are, so the printed prompt keeps them
        text = "Say \x1b[31mred\x1b[0m now."
        result = runner.invoke(main, ["prompt", "--text", text])
        assert result.exit_code == 0
        spec = prompting.PromptSpec(prompting.Mode.NEUTRAL, text, None, prompting.default_exemplars())
        assert result.stdout == prompting.build_prompt(spec)

    def test_deterministic_across_invocations(self, runner):
        args = ["prompt", "--mode", "style", "--style", "calm", "--text", "Hello there."]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_invalid_mode_context_combo_exits_2(self, runner):
        result = runner.invoke(
            main, ["prompt", "--mode", "neutral", "--style", "calm", "--text", "Hi there."]
        )
        assert result.exit_code == 2
        result = runner.invoke(main, ["prompt", "--mode", "style", "--text", "Hi there."])
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["prompt", "--mode", "dialogue", "--style", "calm",
             "--previous-line", "Hm?", "--text", "Hi there."],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--mode", "style", "--text", "Hi there."], "--mode style requires --style"),
            (["--mode", "style", "--style", "calm", "--previous-line", "Hm?", "--text", "Hi there."],
             "--previous-line is only valid with --mode dialogue"),
            (["--mode", "dialogue", "--text", "Hi there."], "--mode dialogue requires --previous-line"),
            (["--mode", "dialogue", "--previous-line", "Hm?", "--style", "calm", "--text", "Hi there."],
             "--style is only valid with --mode style"),
            (["--previous-line", "Hm?", "--text", "Hi there."],
             "--mode neutral takes neither --style nor --previous-line"),
        ],
        ids=["style-without-style", "style-with-line", "dialogue-without-line", "dialogue-with-style",
             "neutral-with-line"],
    )
    @pytest.mark.parametrize("command", ["prompt", "plan"])
    def test_mode_and_context_mismatch_is_a_usage_error(self, runner, command, args, message):
        if command == "plan":
            args = [*args, "--features", NORM, "--stats", STATS]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2
        assert result.stderr.endswith(f" {command}: error: {message}\n")
        assert result.stdout == ""

    def test_exemplar_text_without_words_exits_2(self, runner, tmp_path):
        exemplars = tmp_path / "exemplars.txt"
        exemplars.write_text("TEXT: ...\nREASONING: r\nGLOBAL: duration=0 pitch=0 energy=0\n", encoding="utf-8")
        result = runner.invoke(main, ["prompt", "--exemplars", str(exemplars), "--text", "Hi there."])
        assert result.exit_code == 2
        assert result.stderr == "error: record 1: target text has no words\n"

    def test_empty_text_exits_2(self, runner):
        result = runner.invoke(main, ["prompt", "--mode", "neutral", "--text", "..."])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "neutral", "--text", "a\nb"],
            ["--mode", "neutral", "--text", "Turn left.\r"],
            ["--mode", "style", "--style", "calm\rslow", "--text", "Hi there."],
            ["--mode", "dialogue", "--previous-line", "Hm?\nWell?", "--text", "Hi there."],
        ],
    )
    def test_multi_line_text_or_context_exits_2(self, runner, args):
        result = runner.invoke(main, ["prompt", *args])
        assert result.exit_code == 2


def speaker_stats_defaults():
    """``compute_speaker_stats``' defaults, each under the name of the ``stats`` option that sets it."""
    parameters = inspect.signature(features.compute_speaker_stats).parameters
    low, high = parameters["range_percentiles"].default
    return SimpleNamespace(
        min_duration_s=parameters["min_duration_s"].default, percentile_low=low, percentile_high=high)


class TestPlanCommand:
    def test_mock_plan_matches_golden(self, runner, tmp_path):
        plan = tmp_path / "plan.tsv"
        transcript = tmp_path / "transcript.txt"
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--seed", "7", "-o", str(plan), "--transcript", str(transcript)],
        )
        assert result.exit_code == 0, result.output
        assert plan.read_bytes() == (GOLDEN_DIR / "cli_plan_seed7.tsv").read_bytes()
        assert transcript.read_bytes() == (GOLDEN_DIR / "cli_transcript_seed7.txt").read_bytes()

    def test_http_without_key_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("LLMPROSODY_MISSING_KEY", raising=False)
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "http",
             "--api-key-env", "LLMPROSODY_MISSING_KEY", "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_http_with_non_finite_temperature_exits_2(self, runner, tmp_path, monkeypatch, temperature):
        # refused while the backend is configured, before the missing key is noticed
        monkeypatch.delenv("LLMPROSODY_MISSING_KEY", raising=False)
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "http",
             "--api-key-env", "LLMPROSODY_MISSING_KEY", "--temperature", temperature,
             "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2, result.output
        assert f"temperature must be a finite number >= 0, got {temperature}" in result.output
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("timeout", ["inf", "1e10"])
    def test_http_with_timeout_sockets_cannot_take_exits_2(self, runner, tmp_path, monkeypatch, timeout):
        # a socket raises OverflowError on it, so the command refuses it before any request
        monkeypatch.delenv("LLMPROSODY_MISSING_KEY", raising=False)
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "http",
             "--api-key-env", "LLMPROSODY_MISSING_KEY", "--timeout-s", timeout,
             "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2, result.output
        assert f"timeout_s must be at most {threading.TIMEOUT_MAX}, got {float(timeout)}" in result.output
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("option", ["-o", "--transcript"])
    def test_failed_write_names_the_given_path(self, runner, tmp_path, option):
        target = tmp_path / "missing" / "out.txt"
        result = runner.invoke(
            main, ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", option, str(target)]
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["-o", "--transcript"])
    def test_a_symlink_stays_and_the_file_it_names_is_replaced(self, runner, tmp_path, option):
        real, links = tmp_path / "real", tmp_path / "links"
        real.mkdir()
        links.mkdir()
        target = real / "target.txt"
        target.write_bytes(b"old bytes\n")
        link = links / "link.txt"
        link.symlink_to(target)
        result = runner.invoke(main, golden_plan_writing(tmp_path, option, link))
        assert result.exit_code == 0, result.output
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (GOLDEN_DIR / GOLDEN_OF[option]).read_bytes()
        # the temporary file went beside the target, and was renamed
        assert [path.name for path in real.iterdir()] == ["target.txt"]
        assert [path.name for path in links.iterdir()] == ["link.txt"]

    @pytest.mark.parametrize("option", ["-o", "--transcript"])
    def test_a_fifo_stays_and_is_written_through(self, runner, tmp_path, option):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        result = runner.invoke(main, golden_plan_writing(tmp_path, option, fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert result.exit_code == 0, result.output
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert received == [(GOLDEN_DIR / GOLDEN_OF[option]).read_bytes()]

    def test_text_word_mismatch_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--text", "Completely different words here.",
             "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2
        assert result.stderr == "error: target text words do not match utterance 'u1''s words\n"

    @pytest.mark.parametrize(
        "args", [["--text", "Completely different words here."], ["--pitch-cap", "2"]], ids=["text", "pitch-cap"]
    )
    def test_refused_before_the_backend_is_called(self, runner, tmp_path, backend_calls, args):
        result = runner.invoke(
            main, ["plan", "--features", NORM, "--stats", STATS, *args, "-o", str(tmp_path / "p.tsv")]
        )
        assert result.exit_code == 2
        assert backend_calls == []
        assert not (tmp_path / "p.tsv").exists()

    def test_bad_pitch_cap_is_refused_before_the_http_backend_needs_a_key(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("LLMPROSODY_TEST_KEY", raising=False)
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "http",
             "--api-key-env", "LLMPROSODY_TEST_KEY", "--pitch-cap", "2", "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2
        assert result.stderr == "error: local_pitch_cap_fraction must be in [0, 1], got 2.0\n"

    def test_matching_text_with_different_case_is_fine(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--text", "turn LEFT at the second light!",
             "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 0, result.output

    def test_repair_exhaustion_exits_3(self, runner, tmp_path, monkeypatch):
        class BrokenBackend:
            def __init__(self, seed):
                self.seed = seed

            def __call__(self, prompt):
                return "GLOBAL: nope\n"

        monkeypatch.setattr(llm, "MockBackend", BrokenBackend)
        transcript = tmp_path / "transcript.txt"
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--max-attempts", "2", "-o", str(tmp_path / "p.tsv"),
             "--transcript", str(transcript)],
        )
        assert result.exit_code == 3
        assert transcript.exists()
        assert "attempts\t2" in transcript.read_text()

    def test_clamped_model_values_are_reported(self, runner, tmp_path, monkeypatch):
        class PitchBackend:
            pitch = "9"

            def __init__(self, seed):
                self.seed = seed

            def __call__(self, prompt):
                answer = llm.mock_complete(prompt, self.seed)
                new_global = f"GLOBAL: duration=0 pitch={self.pitch} energy=0"
                return re.sub("^GLOBAL: .*$", new_global, answer, flags=re.M)

        monkeypatch.setattr(llm, "MockBackend", PitchBackend)
        args = ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock"]
        clamped = runner.invoke(main, args + ["-o", str(tmp_path / "pitch9.tsv")])
        PitchBackend.pitch = "5"
        in_range = runner.invoke(main, args + ["-o", str(tmp_path / "pitch5.tsv")])
        assert clamped.exit_code == 0 and in_range.exit_code == 0
        # the plan goes to a file, so the output is what the command wrote to stderr
        expected = "clamped: line 2: ValueOutOfRange: GLOBAL pitch value 9.0 outside [-5, 5]; clamped to 5\n"
        assert clamped.output == expected
        assert in_range.output == ""
        assert (tmp_path / "pitch9.tsv").read_bytes() == (tmp_path / "pitch5.tsv").read_bytes()

    def test_failed_rename_keeps_old_output(self, runner, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        plan = tmp_path / "existing.tsv"
        plan.write_bytes(b"old plan bytes\n")
        monkeypatch.setattr(os, "replace", refuse)
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "-o", str(plan)],
        )
        assert result.exit_code == 2
        assert plan.read_bytes() == b"old plan bytes\n"
        assert [path.name for path in tmp_path.iterdir()] == ["existing.tsv"]

    @pytest.mark.parametrize(
        "option, owner, field",
        [
            ("base_url", llm.BackendConfig, "base_url"),
            ("model", llm.BackendConfig, "model_name"),
            ("api_key_env", llm.BackendConfig, "api_key_env"),
            ("temperature", llm.BackendConfig, "temperature"),
            ("timeout_s", llm.BackendConfig, "timeout_s"),
            ("max_retries", llm.BackendConfig, "max_retries"),
            ("max_attempts", llm.RepairPolicy, "max_attempts"),
            ("pitch_cap", mapping.MappingConfig, "local_pitch_cap_fraction"),
            ("min_duration_s", speaker_stats_defaults, "min_duration_s"),
            ("percentile_low", speaker_stats_defaults, "percentile_low"),
            ("percentile_high", speaker_stats_defaults, "percentile_high"),
        ],
    )
    def test_default_is_the_library_default(self, option, owner, field):
        plan = ["plan", "--features", NORM, "--stats", STATS]
        options = build_parser().parse_args(["stats", RAW] if owner is speaker_stats_defaults else plan)
        assert getattr(options, option) == getattr(owner(), field)


GOLDEN_OF = {"-o": "cli_plan_seed7.tsv", "--transcript": "cli_transcript_seed7.txt"}


def golden_plan_writing(tmp_path, option, path):
    """The seed-7 golden ``plan``, with ``option`` (``-o`` or ``--transcript``) naming ``path``."""
    outputs = {"-o": str(tmp_path / "plan.tsv"), "--transcript": str(tmp_path / "transcript.txt"), option: str(path)}
    return ["plan", "--features", NORM, "--stats", STATS, "--seed", "7",
            "-o", outputs["-o"], "--transcript", outputs["--transcript"]]


def with_er_phone(tmp_path, f0="0.400000", energy="0.800000", duration="0.110000"):
    """The test utterance with new duration, F0 and energy values for its voiced phone ER."""
    path = tmp_path / "features.tsv"
    old = "ER\t0\t0.110000\t0.400000\t0.800000"
    path.write_text(Path(NORM).read_text().replace(old, f"ER\t0\t{duration}\t{f0}\t{energy}"))
    return str(path)


class TestValuesBeyondFloatRange:
    def test_huge_f0_plan_exits_2(self, runner, tmp_path):
        out = tmp_path / "plan.tsv"
        result = runner.invoke(
            main,
            ["plan", "--features", with_er_phone(tmp_path, f0="100000.0"), "--stats", STATS,
             "-o", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    # 1e6 overflows when de-normalized; 1416.392417 de-normalizes, then overflows when scaled
    @pytest.mark.parametrize("energy", ["1000000.0", "1416.392417"])
    def test_huge_energy_apply_exits_2(self, runner, tmp_path, energy):
        features = with_er_phone(tmp_path, energy=energy)
        plan = tmp_path / "plan.tsv"
        result = runner.invoke(
            main,
            ["plan", "--features", features, "--stats", STATS, "--seed", "0", "-o", str(plan)],
        )
        assert result.exit_code == 0, result.output
        out = tmp_path / "out.tsv"
        result = runner.invoke(
            main,
            ["apply", "--features", features, "--stats", STATS, "--plan", str(plan), "-o", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_huge_duration_apply_exits_2(self, runner, tmp_path):
        # 1e308 parses, and the golden plan's duration scales take it beyond the float range
        features = with_er_phone(tmp_path, duration="1e308")
        out = tmp_path / "out.tsv"
        result = runner.invoke(
            main,
            ["apply", "--features", features, "--stats", STATS,
             "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "phone 'ER' duration inf is not finite and positive" in result.output
        assert not out.exists()

    def test_tiny_energy_apply_exits_2_naming_the_value(self, runner, tmp_path):
        # -1500.0 de-normalizes to exp(-749.0), which underflows to 0.0
        features = with_er_phone(tmp_path, energy="-1500.0")
        plan = tmp_path / "plan.tsv"
        result = runner.invoke(
            main,
            ["plan", "--features", features, "--stats", STATS, "--seed", "0", "-o", str(plan)],
        )
        assert result.exit_code == 0, result.output
        out = tmp_path / "out.tsv"
        result = runner.invoke(
            main,
            ["apply", "--features", features, "--stats", STATS, "--plan", str(plan), "-o", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "normalized energy -1500.0 is too small to de-normalize" in result.output
        assert not out.exists()


class TestApplyCommand:
    def test_apply_matches_golden(self, runner, tmp_path):
        out = tmp_path / "out.tsv"
        result = runner.invoke(
            main,
            ["apply", "--features", NORM, "--stats", STATS,
             "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (GOLDEN_DIR / "cli_modified_seed7.tsv").read_bytes()

    def test_identity_plan_reproduces_input(self, runner, tmp_path):
        plan = tmp_path / "identity.tsv"
        plan.write_text(
            "GLOBAL\t1.0\t0.0\t1.0\n"
            + "".join(
                f"WORD\t{i}\t{w}\t1.0\t0.0\t1.0\n"
                for i, w in enumerate(["Turn", "left", "at", "the", "second", "light"])
            )
            + "BOUNDS\t-80.96748360719192\t49.5354567616273\n"
        )
        out = tmp_path / "out.tsv"
        result = runner.invoke(
            main,
            ["apply", "--features", NORM, "--stats", STATS, "--plan", str(plan),
             "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert out.read_text() == Path(NORM).read_text()

    def test_shape_mismatch_exits_2(self, runner, tmp_path):
        plan = tmp_path / "short.tsv"
        plan.write_text(
            "GLOBAL\t1.0\t0.0\t1.0\n"
            "WORD\t0\tw0\t1.0\t0.0\t1.0\n"
            "BOUNDS\t-10.0\t10.0\n"
        )
        result = runner.invoke(
            main, ["apply", "--features", NORM, "--stats", STATS, "--plan", str(plan)]
        )
        assert result.exit_code == 2

    def test_plan_for_another_utterance_exits_2(self, runner, tmp_path):
        other = tmp_path / "other.tsv"
        text = Path(NORM).read_text()
        other.write_text(text.replace("Turn left at the second light.", "Walk right by the third door."))
        result = runner.invoke(
            main,
            ["apply", "--features", str(other), "--stats", STATS,
             "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv")],
        )
        assert result.exit_code == 2
        assert "'Turn'" in result.output

    def test_plan_built_with_other_stats_exits_2(self, runner, tmp_path):
        plan = tmp_path / "plan.tsv"
        result = runner.invoke(
            main, ["plan", "--features", NORM, "--stats", STATS, "--seed", "7", "-o", str(plan)]
        )
        assert result.exit_code == 0, result.output
        other_stats = tmp_path / "other_stats.tsv"
        other_stats.write_text(Path(STATS).read_text().replace("f0_max_hz\t300.0", "f0_max_hz\t310.0"))
        assert parse_speaker_stats(other_stats.read_text()).f0_max_hz == 310.0
        out = tmp_path / "out.tsv"
        result = runner.invoke(
            main,
            ["apply", "--features", NORM, "--stats", str(other_stats), "--plan", str(plan),
             "-o", str(out)],
        )
        assert result.exit_code == 2
        assert "BOUNDS" in result.output
        assert not out.exists()

    def test_missing_plan_file_exits_2(self, runner):
        result = runner.invoke(
            main, ["apply", "--features", NORM, "--stats", STATS, "--plan", "nope.tsv"]
        )
        assert result.exit_code == 2


# Each path option and argument, with the arguments around it.  PATH is the path under
# test; OUT, PREFS and LABELS are an output file and the files of write_eval_inputs.
PATH_CASES = {
    "stats": ["stats", RAW, "PATH", "-o", "OUT"],
    "prompt --exemplars": ["prompt", "--exemplars", "PATH", "--text", "Hi there."],
    "plan --features": ["plan", "--features", "PATH", "--stats", STATS, "-o", "OUT"],
    "plan --stats": ["plan", "--features", NORM, "--stats", "PATH", "-o", "OUT"],
    "plan --exemplars": ["plan", "--features", NORM, "--stats", STATS, "--exemplars", "PATH", "-o", "OUT"],
    "apply --features": ["apply", "--features", "PATH", "--stats", STATS,
                         "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", "OUT"],
    "apply --stats": ["apply", "--features", NORM, "--stats", "PATH",
                      "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", "OUT"],
    "apply --plan": ["apply", "--features", NORM, "--stats", STATS, "--plan", "PATH", "-o", "OUT"],
    "eval mos": ["eval", "mos", "PATH"],
    "eval pref": ["eval", "pref", "PATH"],
    "eval styles": ["eval", "styles", "PATH", "--labels", "LABELS"],
    "eval styles --labels": ["eval", "styles", "PREFS", "--labels", "PATH"],
    "plan --transcript": ["plan", "--features", NORM, "--stats", STATS, "-o", "OUT", "--transcript", "PATH"],
}


class TestPathRefusals:
    @pytest.mark.parametrize(
        "case, kind",
        [(case, kind) for case in PATH_CASES for kind in ("missing", "directory")
         # the transcript is written, not read, so only a directory is refused
         if kind == "directory" or case != "plan --transcript"],
    )
    def test_refused_before_the_backend_and_any_output(self, runner, tmp_path, backend_calls, case, kind):
        write_eval_inputs(tmp_path)
        path, out = tmp_path / "named", tmp_path / "out.tsv"
        if kind == "directory":
            path.mkdir()
        names = {"PATH": path, "OUT": out, "PREFS": tmp_path / "prefs.tsv", "LABELS": tmp_path / "labels.tsv"}
        result = runner.invoke(main, [str(names.get(arg, arg)) for arg in PATH_CASES[case]])
        assert result.exit_code == 2
        assert result.stdout == ""
        reason = "does not exist" if kind == "missing" else "is a directory"
        assert result.stderr.endswith(f": File {str(path)!r} {reason}.\n")
        assert backend_calls == []
        assert not out.exists()


def comparable(options):
    """A namespace's attributes but ``parser``, as reprs: ``nan`` equals ``nan`` there."""
    return {name: repr(value) for name, value in vars(options).items() if name != "parser"}


def parsed_by_argparse(argv):
    """What argparse makes of ``argv`` (see ``comparable``), or None for a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return comparable(build_parser().parse_args(argv))
        except SystemExit:
            return None


# A flag of some command, a misspelled one, or one that argparse alone handles.
NEAR_MISS_FLAGS = sorted(
    {flag for _, arguments in _COMMANDS.values() for flags, _ in arguments for flag in flags if flag[0] == "-"}
    | {"-h", "--help", "--version", "--", "-", "--feat", "--Features", "--output-", "-O", "-x", "---mode"}
)


@st.composite
def command_lines(draw, existing, missing, directory):
    """A line for one command: each argument given as often as it must be, with a value of its kind, in
    any order.  In some lines an argument is left out or repeated, a value is odd (a missing path, a
    directory, ``-``, a negative number, ``-Hi.``), or a near-miss flag or word comes along."""
    words = draw(st.sampled_from([*_COMMANDS] * 3 + [("eval",), ("eval", "mo"), ("plans",), ()]))
    flaws = draw(st.sampled_from([0, 0, 1, 3]))  # in tenths

    def often(likely, unlikely):
        return unlikely if draw(st.integers(0, 9)) < flaws else likely

    odd = st.sampled_from(["Hi", "", "-", "3", "nan", "-3", "-0.5", "-Hi.", "--text", existing, missing, directory])
    kinds = {
        int: st.integers(0, 99).map(str),
        float: st.floats(0, 2).map(str),
        None: st.sampled_from(["Hi", "in a hurry", "Did you hear that?", "a=b", ""]),
    }
    chunks = []
    for flags, keywords in _COMMANDS.get(words, (None, ()))[1]:
        kind = keywords.get("type")
        good = st.sampled_from(keywords["choices"]) if "choices" in keywords \
            else kinds[kind] if kind in kinds else st.just(existing)
        if flags[0][0] != "-":
            size = 3 if keywords.get("nargs") == "+" else often(1, 2)
            chunks.append([draw(often(good, odd)) for _ in range(draw(st.integers(often(1, 0), size)))])
            continue
        for _ in range(often(1, 0) if keywords.get("required") else often(draw(st.integers(0, 1)), 2)):
            flag, value = draw(st.sampled_from(flags)), draw(often(good, odd))
            chunks.append([f"{flag}={value}"] if flag.startswith("--") and draw(st.booleans()) else [flag, value])
    if draw(st.integers(0, 9)) < flaws:
        chunks.append([draw(st.one_of(st.sampled_from(NEAR_MISS_FLAGS), odd))])
    return [*words, *[word for chunk in draw(st.permutations(chunks)) for word in chunk]]


@pytest.fixture
def parse_paths(tmp_path):
    """An existing file, a missing one and a directory, as the path options are given them."""
    (tmp_path / "existing.tsv").write_text("x\n", encoding="utf-8")
    (tmp_path / "directory").mkdir()
    return str(tmp_path / "existing.tsv"), str(tmp_path / "missing.tsv"), str(tmp_path / "directory")


# an option as the last word, with no value; a positional given to a command that takes none
DECLINED_USAGE_ERRORS = (
    ["plan", "--features", NORM, "--stats", STATS, "--seed"],
    ["apply", "stray", "--features", NORM, "--stats", STATS, "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv")],
)


class TestAcceptor:
    """``_accept`` parses plainly well-formed lines without argparse; argparse decides every other one."""

    @settings(PROPERTIES, max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_an_accepted_line_is_parsed_as_argparse_parses_it(self, parse_paths, data):
        argv = data.draw(command_lines(*parse_paths))
        accepted = _accept(argv)
        if accepted is not None:
            assert parsed_by_argparse(argv) == comparable(accepted)

    def test_every_line_the_benchmark_runs_is_accepted(self, tmp_path):
        """The lines of ``perfbench/workloads.py``'s ``cli_session``: plan in each mode, apply, stats and eval."""
        write_eval_inputs(tmp_path)
        out, plan = str(tmp_path / "out.tsv"), str(GOLDEN_DIR / "cli_plan_seed7.tsv")
        single = ["--features", NORM, "--stats", STATS]
        lines = [
            ["stats", RAW, "-o", out],
            *(["plan", *single, "--backend", "mock", "--seed", "1", *mode, "-o", out] for mode in (
                ["--mode", "neutral"], ["--mode", "style", "--style", "in a hurry"],
                ["--mode", "dialogue", "--previous-line", "Did you hear that?"])),
            ["plan", *single, "--backend", "mock", "--seed", "7", "-o", out, "--transcript", str(tmp_path / "t.txt")],
            ["apply", *single, "--plan", plan, "-o", out],
            ["eval", "mos", str(tmp_path / "ratings.tsv")],
            ["eval", "pref", str(tmp_path / "prefs.tsv")],
        ]
        for argv in lines:
            accepted = _accept(argv)
            assert accepted is not None, argv
            assert comparable(accepted) == parsed_by_argparse(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["--help"], ["--version"], ["eval"], ["eval", "mos"],
            ["stats", RAW, "-h"], ["stats", RAW, "--", RAW],
            ["stats", RAW, "-o", "a.tsv", RAW],  # positionals split by an option
            ["stats", RAW, "-oa.tsv"], ["stats", RAW, "-o=a.tsv"],  # a short option glued to its value
            ["stats", RAW, "--out", "a.tsv"],  # argparse refuses abbreviations here
            ["stats", RAW, "-o", "a.tsv", "--output", "b.tsv"],  # a repeated option
            ["plan", "--features", NORM, "--stats", STATS, "--seed", "-3"],
            ["prompt", "--text=-Hi."], ["prompt", "--text", "-Hi."],
            ["prompt", "--text", "Hi.", "--mode", "loud"], ["plan", "--features", NORM],
            ["eval", "mos", "missing.tsv"], ["eval", "mos", RAW, RAW], ["apply", RAW],
            *DECLINED_USAGE_ERRORS,
        ],
    )
    def test_declines_what_argparse_must_decide(self, argv):
        assert _accept(argv) is None

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            (DECLINED_USAGE_ERRORS[0], "usage: llmprosody plan [-h]",
             "llmprosody plan: error: argument --seed: expected one argument"),
            (DECLINED_USAGE_ERRORS[1], "usage: llmprosody [-h]", "llmprosody: error: unrecognized arguments: stray"),
        ],
        ids=["option-without-value", "positional-to-a-command-with-none"],
    )
    def test_argparse_refuses_what_it_is_left(self, runner, argv, usage, message):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(usage)
        assert result.stderr.endswith(f"\n{message}\n")


class TestEvalCommand:
    def test_pref_prints_table_two_numbers(self, runner, tmp_path):
        prefs = tmp_path / "prefs.tsv"
        write_preferences(prefs, {"proposed": 288, "baseline": 173, "random": 99})
        result = runner.invoke(main, ["eval", "pref", str(prefs)])
        assert result.exit_code == 0
        assert "proposed.percent\t51.4" in result.output
        assert "baseline.percent\t30.9" in result.output
        assert "random.percent\t17.7" in result.output

    def test_pref_order_invariant(self, runner, tmp_path, rng):
        prefs = tmp_path / "prefs.tsv"
        write_preferences(prefs, {"proposed": 30, "baseline": 20, "random": 10})
        lines = prefs.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        rng.shuffle(rows)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("\n".join([header] + rows) + "\n")
        a = runner.invoke(main, ["eval", "pref", str(prefs)])
        b = runner.invoke(main, ["eval", "pref", str(shuffled)])
        assert a.output == b.output

    def test_mos_prints_display(self, runner, tmp_path):
        ratings = tmp_path / "ratings.tsv"
        rows = [RATINGS_HEADER]
        scores = [3] * 22 + [4, 5]
        rows.extend(f"s{i}\tbaseline\tr{i % 8}\t{v}" for i, v in enumerate(scores))
        ratings.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["eval", "mos", str(ratings)])
        assert result.exit_code == 0
        assert "baseline.display\t3.1±0.2" in result.output

    def test_styles_breakdown(self, runner, tmp_path):
        prefs = tmp_path / "prefs.tsv"
        write_preferences(prefs, {"proposed": 4, "baseline": 2, "random": 2})
        labels = tmp_path / "labels.tsv"
        rows = [STYLE_LABELS_HEADER]
        rows.extend(f"set{k}\t{'angry' if k < 5 else 'calm'}" for k in range(8))
        labels.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["eval", "styles", str(prefs), "--labels", str(labels)])
        assert result.exit_code == 0
        assert "angry.total\t5" in result.output
        assert "calm.total\t3" in result.output

    def test_mos_confidence_whose_quantile_is_infinite_exits_2(self, runner, tmp_path):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text(f"{RATINGS_HEADER}\ns1\tbaseline\tr1\t3\ns2\tbaseline\tr1\t4\n")
        result = runner.invoke(main, ["eval", "mos", str(ratings), "--confidence", "0.9999999999999999"])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: confidence 0.9999999999999999 is too close to 1: 0.5 + confidence / 2 rounds to 1\n"
        )

    def test_empty_ratings_file_exits_2(self, runner, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        result = runner.invoke(main, ["eval", "mos", str(empty)])
        assert result.exit_code == 2

    def test_header_only_preferences_exits_2(self, runner, tmp_path):
        doc = tmp_path / "prefs.tsv"
        doc.write_text(PREFERENCES_HEADER + "\n")
        result = runner.invoke(main, ["eval", "pref", str(doc)])
        assert result.exit_code == 2

    def test_styles_of_header_only_preferences_exits_2(self, runner, tmp_path):
        doc = tmp_path / "prefs.tsv"
        doc.write_text(PREFERENCES_HEADER + "\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text(f"{STYLE_LABELS_HEADER}\nset0\tcalm\n")
        result = runner.invoke(main, ["eval", "styles", str(doc), "--labels", str(labels)])
        assert result.exit_code == 2
        assert result.stderr == "error: no preference records\n"


class TestUtteranceSelection:
    def test_multi_utterance_file_requires_id(self, runner, tmp_path):
        doc = Path(NORM).read_text()
        body = doc.split("\n", 1)[1]
        two = doc + body.replace("#utterance\tu1", "#utterance\tu2", 1)
        multi = tmp_path / "multi.tsv"
        multi.write_text(two)
        result = runner.invoke(
            main, ["plan", "--features", str(multi), "--stats", STATS, "--backend", "mock"]
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["plan", "--features", str(multi), "--stats", STATS, "--backend", "mock",
             "--utterance-id", "u2", "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 0, result.output

    def test_repeated_id_exits_2_with_no_output_file(self, runner, tmp_path):
        doc = Path(NORM).read_text()
        body = doc.split("\n", 1)[1].replace("Turn left at the second light.", "Go right at the third door.")
        repeated = tmp_path / "repeated.tsv"
        repeated.write_text(doc + body)
        out = tmp_path / "p.tsv"
        result = runner.invoke(
            main,
            ["plan", "--features", str(repeated), "--stats", STATS, "--backend", "mock", "--seed", "7",
             "--utterance-id", "u1", "-o", str(out)],
        )
        assert result.exit_code == 2
        assert "line 24: duplicate utterance id 'u1'" in result.stderr
        assert not out.exists()

    def test_stats_refuses_an_id_that_an_earlier_file_holds(self, runner, tmp_path):
        """stats reads its files as one corpus: a repeated id would count an utterance twice."""
        out = tmp_path / "stats.tsv"
        for first, second in [(RAW, RAW), (RAW, RAW_WITH_SHORT)]:
            result = runner.invoke(main, ["stats", first, second, "-o", str(out)])
            assert result.exit_code == 2
            assert result.stderr == f"error: {second}: utterance id 'u0' is already in {first}\n"
            assert not out.exists()
        # split into two files with their own ids, the corpus gives its own stats
        header, body = Path(RAW).read_text(encoding="utf-8").split("\n", 1)
        cut = body.index("#utterance\tu2\t")
        halves = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for half, text in zip(halves, [body[:cut], body[cut:]]):
            half.write_text(f"{header}\n{text}", encoding="utf-8")
        result = runner.invoke(main, ["stats", *map(str, halves), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text(encoding="utf-8") == RAW_CORPUS_STATS

    def test_unknown_id_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--utterance-id", "zzz", "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2


# Run in a fresh interpreter: import the package, run the CLI on the arguments
# after the first (if any), then write the names of all loaded modules to the
# file named by the first.
REPORT_MODULES = """
import sys
import llmprosody
try:
    if sys.argv[2:]:
        from llmprosody.cli import main
        main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as report:
        report.write("\\n".join(sys.modules))
"""

HEAVY = {"numpy", "requests", "scipy"}
SRC_DIR = str(Path(__file__).parents[1] / "src")


class _MockCompletionHandler(BaseHTTPRequestHandler):
    """A chat/completions endpoint that answers like the mock backend with seed 7."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = llm.mock_complete(request["messages"][0]["content"], 7)
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_completion_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MockCompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


def run_fresh(tmp_path, args, env=None, flags=(), exit_code=0):
    """Run the CLI on ``args`` in a fresh interpreter; return the process and its top-level modules.

    ``env`` adds to or overrides the environment, ``PYTHONPATH`` included; ``flags`` go to the
    interpreter, and the process must exit with ``exit_code``.
    """
    report = tmp_path / "modules.txt"
    completed = subprocess.run(
        [sys.executable, *flags, "-c", REPORT_MODULES, str(report), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC_DIR, **(env or {})},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == exit_code, completed.stderr
    names = report.read_text(encoding="utf-8").split("\n")
    return completed, {name.partition(".")[0] for name in names}


class TestImportsOnDemand:
    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["--help"],
            ["prompt", "--text", "Turn left at the second light."],
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", "-o", "plan.tsv"],
            ["apply", "--features", NORM, "--stats", STATS,
             "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", "out.tsv"],
            ["stats", RAW, "-o", "stats.tsv"],
        ],
        ids=["import", "help", "prompt", "plan", "apply", "stats"],
    )
    def test_pipeline_loads_no_numpy_scipy_or_requests(self, tmp_path, args):
        _, loaded = run_fresh(tmp_path, args)
        assert loaded & HEAVY == set()

    def test_http_plan_needs_only_the_declared_dependencies(self, tmp_path, mock_completion_server):
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "requests.py").write_text('raise ImportError("requests is not installed")\n')
        _, loaded = run_fresh(
            tmp_path,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "http",
             "--base-url", mock_completion_server, "--api-key-env", "LLMPROSODY_TEST_KEY",
             "-o", "plan.tsv"],
            env={"PYTHONPATH": os.pathsep.join([str(blocked), SRC_DIR]), "LLMPROSODY_TEST_KEY": "k"},
        )
        assert (tmp_path / "plan.tsv").read_bytes() == (GOLDEN_DIR / "cli_plan_seed7.tsv").read_bytes()
        assert loaded & HEAVY == set()

    @pytest.mark.parametrize("command", ["stats", "mos", "pref", "styles"])
    def test_stats_and_eval_need_only_the_declared_dependencies(self, tmp_path, command):
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        for name in ("numpy", "scipy"):
            (blocked / f"{name}.py").write_text(f'raise ImportError("{name} is not installed")\n')
        ratings = [RATINGS_HEADER] + [f"s{i}\t{system}\tr{i % 4}\t{1 + (i * i + len(system)) % 5}"
                                      for system in ("baseline", "proposed") for i in range(9)]
        (tmp_path / "ratings.tsv").write_text("\n".join(ratings) + "\n", encoding="utf-8")
        write_preferences(tmp_path / "prefs.tsv", {"proposed": 5, "baseline": 3, "random": 2})
        (tmp_path / "labels.tsv").write_text(
            STYLE_LABELS_HEADER + "".join(f"\nset{k}\t{'calm' if k % 3 else 'angry'}" for k in range(10)) + "\n",
            encoding="utf-8")
        read = {name: (tmp_path / name).read_text(encoding="utf-8")
                for name in ("ratings.tsv", "prefs.tsv", "labels.tsv")}
        args, stdout, written = {
            "stats": (["stats", RAW, "-o", "stats.tsv"], "", serialize_speaker_stats(
                compute_speaker_stats(parse_features(Path(RAW).read_text(encoding="utf-8"))))),
            "mos": (["eval", "mos", "ratings.tsv"],
                    format_mos_summary(mos_summary(parse_ratings(read["ratings.tsv"]))), None),
            "pref": (["eval", "pref", "prefs.tsv"],
                     format_preference_summary(preference_summary(parse_preferences(read["prefs.tsv"]))), None),
            "styles": (["eval", "styles", "prefs.tsv", "--labels", "labels.tsv"],
                       format_style_breakdown(style_breakdown(parse_preferences(read["prefs.tsv"]),
                                                              parse_style_labels(read["labels.tsv"]))), None),
        }[command]
        completed, loaded = run_fresh(
            tmp_path, args, env={"PYTHONPATH": os.pathsep.join([str(blocked), SRC_DIR])})
        assert completed.stdout == stdout
        if written is not None:
            assert (tmp_path / "stats.tsv").read_text(encoding="utf-8") == written
        assert loaded & HEAVY == set()

    def test_eval_pref_loads_none_of_them(self, tmp_path):
        write_preferences(tmp_path / "prefs.tsv", {"proposed": 3, "baseline": 2, "random": 1})
        _, loaded = run_fresh(tmp_path, ["eval", "pref", "prefs.tsv"])
        assert loaded & HEAVY == set()
        assert "decimal" in loaded

    @pytest.mark.parametrize(
        "args",
        [
            ["stats", RAW, "-o", "stats.tsv"],
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", "-o", "plan.tsv"],
            ["apply", "--features", NORM, "--stats", STATS,
             "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", "out.tsv"],
        ],
        ids=["stats", "plan", "apply"],
    )
    def test_only_eval_loads_decimal(self, tmp_path, args):
        _, loaded = run_fresh(tmp_path, args)
        assert "decimal" not in loaded

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["--help"],
            ["prompt", "--text", "Turn left at the second light."],
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", "-o", "plan.tsv"],
            ["apply", "--features", NORM, "--stats", STATS,
             "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", "out.tsv"],
            ["stats", RAW, "-o", "stats.tsv"],
            ["eval", "mos", "ratings.tsv"],
            ["eval", "pref", "prefs.tsv"],
            ["eval", "styles", "prefs.tsv", "--labels", "labels.tsv"],
        ],
        ids=["import", "help", "prompt", "plan", "apply", "stats", "mos", "pref", "styles"],
    )
    def test_no_command_needs_click(self, tmp_path, args):
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "click.py").write_text('raise ImportError("click is not installed")\n')
        write_eval_inputs(tmp_path)
        _, loaded = run_fresh(tmp_path, args, env={"PYTHONPATH": os.pathsep.join([str(blocked), SRC_DIR])})
        assert "click" not in loaded

    def test_eval_mos_prints_the_library_summary(self, tmp_path):
        rows = [RATINGS_HEADER]
        for system, scores in {"baseline": [3, 4, 2, 5, 3], "proposed": [4, 5, 4, 3, 5]}.items():
            rows.extend(f"s{i}\t{system}\tr{i % 3}\t{score}" for i, score in enumerate(scores))
        document = "\n".join(rows) + "\n"
        (tmp_path / "ratings.tsv").write_text(document, encoding="utf-8")
        completed, loaded = run_fresh(tmp_path, ["eval", "mos", "ratings.tsv"])
        assert completed.stdout == format_mos_summary(mos_summary(parse_ratings(document)))
        assert loaded & HEAVY == set()


CLI_MODULES = {f"llmprosody.{name}" for name in ["cli", "config", "errors", "features", "mapping"]}
LLM_LAYERS = {"llmprosody.llm", "llmprosody.prompting", "llmprosody.response"}
# the value types are namedtuples, so no command loads dataclasses or, through it, inspect
DATACLASSES = {"dataclasses", "inspect"}
# argparse and what its messages load; only help, --version and a line _accept declines need them
ARGPARSE = {"argparse", "gettext", "locale"}
MOCK_PLAN = ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", "-o", "plan.tsv"]
APPLY = ["apply", "--features", NORM, "--stats", STATS, "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"),
         "-o", "out.tsv"]


def loaded_modules(tmp_path, args, **run_options):
    """Run the CLI on ``args`` in a fresh interpreter; return the full names of its loaded modules."""
    run_fresh(tmp_path, args, **run_options)
    return set((tmp_path / "modules.txt").read_text(encoding="utf-8").split("\n"))


def package_modules(names):
    return {name for name in names if name.startswith("llmprosody.")}


class TestPackageModulesPerCommand:
    @pytest.mark.parametrize(
        "args, extra",
        [
            (["--help"], set()),
            (["stats", RAW, "-o", "stats.tsv"], set()),
            (["apply", "--features", NORM, "--stats", STATS,
              "--plan", str(GOLDEN_DIR / "cli_plan_seed7.tsv"), "-o", "out.tsv"], {"llmprosody.modifier"}),
        ],
        ids=["help", "stats", "apply"],
    )
    def test_loads_no_llm_prompt_or_response_layer(self, tmp_path, args, extra):
        loaded = loaded_modules(tmp_path, args)
        assert package_modules(loaded) == CLI_MODULES | extra
        assert loaded & DATACLASSES == set()

    def test_prompt_loads_prompting_and_response_only(self, tmp_path):
        loaded = loaded_modules(tmp_path, ["prompt", "--text", "Turn left at the second light."])
        assert package_modules(loaded) == CLI_MODULES | {"llmprosody.prompting", "llmprosody.response"}

    def test_mock_plan_loads_llm_layers_but_no_thread_pool(self, tmp_path):
        loaded = loaded_modules(
            tmp_path,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", "-o", "plan.tsv"],
        )
        assert package_modules(loaded) == CLI_MODULES | LLM_LAYERS
        assert loaded & ({"concurrent.futures"} | DATACLASSES) == set()

    def test_mock_plan_loads_no_logging(self, tmp_path):
        loaded = loaded_modules(
            tmp_path,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock", "-o", "plan.tsv"],
        )
        assert "logging" not in loaded

    @pytest.mark.parametrize(
        "args",
        [["mos", "ratings.tsv"], ["pref", "prefs.tsv"], ["styles", "prefs.tsv", "--labels", "labels.tsv"]],
        ids=["mos", "pref", "styles"],
    )
    def test_eval_loads_evaluation(self, tmp_path, args):
        write_eval_inputs(tmp_path)
        loaded = loaded_modules(tmp_path, ["eval", *args])
        assert package_modules(loaded) == CLI_MODULES | {"llmprosody.evaluation"}
        assert loaded & DATACLASSES == set()

    @pytest.mark.parametrize("args", [MOCK_PLAN, APPLY], ids=["plan", "apply"])
    def test_a_valid_plan_or_apply_loads_no_argparse(self, tmp_path, args):
        assert loaded_modules(tmp_path, args) & ARGPARSE == set()

    @pytest.mark.parametrize(
        "args, exit_code",
        [(["--help"], 0), (["plan", "--features", "missing.tsv", "--stats", STATS], 2),
         (["plan", "--features", NORM, "--stats", STATS, "--mode", "style"], 2)],
        ids=["help", "usage-error", "mode-mismatch"],
    )
    def test_help_and_usage_errors_still_load_argparse(self, tmp_path, args, exit_code):
        assert "argparse" in loaded_modules(tmp_path, args, exit_code=exit_code)

    def test_mock_plan_on_a_clean_interpreter_loads_no_stdlib_it_does_not_use(self, tmp_path):
        # without site, which on some interpreters preloads these modules for every program
        loaded = loaded_modules(tmp_path, MOCK_PLAN, flags=["-S"])
        assert "llmprosody.llm" in loaded
        assert loaded & ({"string", "typing", "importlib.resources", "threading", "pathlib"} | ARGPARSE) == set()
