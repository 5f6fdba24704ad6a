import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from llmprosody import llm, mapping
from llmprosody.cli import main, plan_cmd
from llmprosody.evaluation import (
    PREFERENCES_HEADER,
    RATINGS_HEADER,
    STYLE_LABELS_HEADER,
)
from llmprosody.features import parse_speaker_stats

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

NORM = str(DATA_DIR / "norm_utterance.tsv")
STATS = str(DATA_DIR / "stats.tsv")
RAW = str(DATA_DIR / "raw_corpus.tsv")
RAW_WITH_SHORT = str(DATA_DIR / "raw_corpus_with_short.tsv")


@pytest.fixture
def runner():
    return CliRunner()


def write_preferences(path, counts, systems=("proposed", "baseline", "random")):
    lines = [PREFERENCES_HEADER]
    k = 0
    for system, wins in counts.items():
        for _ in range(wins):
            lines.append(f"set{k}\trater{k % 8}\t{system}\t" + ",".join(systems))
            k += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestVersion:
    def test_version_comes_from_package_metadata(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output


class TestStatsCommand:
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

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["stats", "no-such-file.tsv"])
        assert result.exit_code == 2


class TestPromptCommand:
    def test_neutral_matches_golden(self, runner):
        result = runner.invoke(
            main, ["prompt", "--mode", "neutral", "--text", "Turn left at the second light."]
        )
        assert result.exit_code == 0
        assert result.output == (GOLDEN_DIR / "prompt_neutral.txt").read_text()

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

    def test_text_word_mismatch_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--text", "Completely different words here.",
             "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2

    def test_matching_text_with_different_case_is_fine(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--text", "turn LEFT at the second light!",
             "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 0, result.output

    def test_repair_exhaustion_exits_3(self, runner, tmp_path, monkeypatch):
        import llmprosody.cli as cli_module

        class BrokenBackend:
            def __init__(self, seed):
                self.seed = seed

            def __call__(self, prompt):
                return "GLOBAL: nope\n"

        monkeypatch.setattr(cli_module.llm, "MockBackend", BrokenBackend)
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
        ],
    )
    def test_default_is_the_library_default(self, option, owner, field):
        [param] = [p for p in plan_cmd.params if p.name == option]
        assert param.default == getattr(owner(), field)


def with_er_phone(tmp_path, f0="0.400000", energy="0.800000"):
    """The test utterance with new F0 and energy values for its voiced phone ER."""
    path = tmp_path / "features.tsv"
    old = "ER\t0\t0.110000\t0.400000\t0.800000"
    path.write_text(Path(NORM).read_text().replace(old, f"ER\t0\t0.110000\t{f0}\t{energy}"))
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
            + "BOUNDS\t-10.0\t10.0\n"
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

    def test_missing_plan_file_exits_2(self, runner):
        result = runner.invoke(
            main, ["apply", "--features", NORM, "--stats", STATS, "--plan", "nope.tsv"]
        )
        assert result.exit_code == 2


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

    def test_unknown_id_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["plan", "--features", NORM, "--stats", STATS, "--backend", "mock",
             "--utterance-id", "zzz", "-o", str(tmp_path / "p.tsv")],
        )
        assert result.exit_code == 2
