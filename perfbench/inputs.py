"""Seeded input generator for the benchmark.

Everything the program under test reads is written here, from the benchmark
seed alone: the same seed gives the same bytes.  The generator knows the file
formats but does not import the package, so the inputs never depend on the
code being measured.

Files written into the output directory:

- ``raw_corpus.tsv``: raw-variant utterances that feed ``stats``;
- ``stats.tsv``: a speaker-stats file;
- ``corpus_norm.tsv``: normalized utterances consistent with ``stats.tsv``,
  with a long tail of word counts and some voiced phones outside the
  speaker's F0 range;
- ``utt/<id>.tsv``: the first ``n_single`` utterances, one per file, for the
  per-utterance CLI;
- ``jobs.tsv``: the prompt mode and context of every normalized utterance;
- ``ratings.tsv`` and ``preferences.tsv``: listening-test files for ``eval``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

FEATURE_HEADER = "#feature-file\tv1"
RATINGS_HEADER = "stimulus_id\tsystem_id\trater_id\tscore"
PREFERENCES_HEADER = "set_id\trater_id\tchosen_system\tsystems_in_set"
SYSTEMS = ("proposed", "baseline", "random")
MODES = ("neutral", "style", "dialogue")

WORD_POOL = (
    "the", "quick", "brown", "fox", "jumps", "over", "a", "lazy", "dog", "hello",
    "world", "again", "now", "it's", "fine", "really", "stop", "turn", "left",
    "tomorrow", "quietly", "never", "ducks", "meeting", "moved", "to", "friday",
    "please", "close", "door", "you", "said", "he", "stole", "money", "we",
    "can't", "wait", "for", "train", "station", "remember", "light", "second",
    "morning", "coffee", "keep", "voice", "down", "listen", "carefully", "this",
    "is", "not", "what", "I", "expected", "from", "them", "at", "all",
)
PHONE_LABELS = ("AA1", "IY0", "EH1", "AY1", "T", "K", "N", "S", "L", "R", "M", "DH")
STYLES = (
    "frightened", "in a hurry", "calm and soothing", "angry", "whispering",
    "cheerful", "sad", "sarcastic",
)
PREVIOUS_LINES = (
    "Keep your voice down.", "Did you hear that?", "Where were you last night?",
    "I can't believe you did that.", "Are we there yet?", "That was amazing!",
    "Who told you that?", "We need to leave right now.",
)
MAX_WORDS = 64
OUT_OF_RANGE_SHARE = 0.06


@dataclass(frozen=True)
class Job:
    """One utterance to plan: its id, its prompt mode and the mode's context."""

    utterance_id: str
    mode: str
    context: str | None

    def cli_args(self) -> list[str]:
        """The ``plan`` options that select this job's mode and context."""
        if self.mode == "style":
            return ["--mode", "style", "--style", self.context]
        if self.mode == "dialogue":
            return ["--mode", "dialogue", "--previous-line", self.context]
        return ["--mode", "neutral"]


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus what the checks need to know."""

    raw_corpus: Path
    stats: Path
    corpus: Path
    ratings: Path
    preferences: Path
    single: tuple[Path, ...]
    job_list: tuple[Job, ...]
    out_of_range_phones: int

    def single_path(self, index: int) -> Path:
        return self.single[index % len(self.single)]


def _word_counts(rng: random.Random, n: int) -> list[int]:
    """Word counts with a long tail: most utterances have 3-20 words, a few run
    up to MAX_WORDS.  The counts are the quantiles of one Pareto distribution,
    shuffled, so every seed gets the same mix and only its order and the words
    themselves change; the work in a corpus then does not depend on the seed."""
    counts = [min(MAX_WORDS, 1 + int(2.5 * (1.0 - (i + 0.5) / n) ** (-1 / 1.2))) for i in range(n)]
    rng.shuffle(counts)
    return counts


def _text(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(WORD_POOL) for _ in range(n_words)]
    words[0] = words[0][0].upper() + words[0][1:]
    for k in range(n_words - 1):
        if rng.random() < 0.08:
            words[k] += ","
    words[-1] += rng.choice(".?!")
    return " ".join(words)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _phone_row(label, word_index, duration, f0, energy, voiced, pause) -> str:
    return "\t".join(
        [
            label,
            "-" if word_index is None else str(word_index),
            _fmt(duration),
            "-" if f0 is None else _fmt(f0),
            _fmt(energy),
            "1" if voiced else "0",
            "1" if pause else "0",
        ]
    )


@dataclass(frozen=True)
class _Speaker:
    mu_logf0: float
    sigma_logf0: float
    mu_loge: float
    sigma_loge: float
    f0_min_hz: float
    f0_max_hz: float

    def document(self) -> str:
        keys = ("mu_logf0", "sigma_logf0", "mu_loge", "sigma_loge", "f0_min_hz", "f0_max_hz")
        return "".join(f"{key}\t{getattr(self, key)!r}\n" for key in keys)

    def norm_f0(self, hz: float) -> float:
        return round((math.log(hz) - self.mu_logf0) / self.sigma_logf0, 6)


def _speaker(rng: random.Random) -> _Speaker:
    return _Speaker(
        mu_logf0=math.log(rng.uniform(150.0, 250.0)),
        sigma_logf0=rng.uniform(0.15, 0.4),
        mu_loge=rng.uniform(-1.0, 2.0),
        sigma_loge=rng.uniform(0.2, 0.8),
        f0_min_hz=rng.uniform(70.0, 120.0),
        f0_max_hz=rng.uniform(280.0, 400.0),
    )


def _norm_block(
    rng: random.Random, speaker: _Speaker, utterance_id: str, n_words: int, force: str | None
) -> tuple[str, int]:
    """One normalized utterance block and its count of out-of-range voiced phones.

    ``force`` ("low" or "high") puts the first phone outside the F0 range, so
    every corpus has such phones whatever the seed.
    """
    rows = [f"#utterance\t{utterance_id}\tspk1\tnorm\t{_text(rng, n_words)}"]
    outside = 0
    for j in range(n_words):
        for k in range(rng.randint(1, 4)):
            first = j == 0 and k == 0
            voiced = first or rng.random() < 0.65
            f0 = None
            if voiced:
                side = force if first and force else None
                if side is None and rng.random() < OUT_OF_RANGE_SHARE:
                    side = rng.choice(("low", "high"))
                if side == "low":
                    hz = speaker.f0_min_hz * rng.uniform(0.75, 0.97)
                elif side == "high":
                    hz = speaker.f0_max_hz * rng.uniform(1.03, 1.2)
                else:
                    hz = rng.uniform(speaker.f0_min_hz + 2.0, speaker.f0_max_hz - 2.0)
                outside += side is not None
                f0 = speaker.norm_f0(hz)
            rows.append(
                _phone_row(
                    rng.choice(PHONE_LABELS), j, rng.uniform(0.02, 0.4), f0,
                    rng.uniform(-3.0, 3.0), voiced, False,
                )
            )
        if j < n_words - 1 and rng.random() < 0.2:
            rows.append(_phone_row("sp", None, rng.uniform(0.05, 0.5), None,
                                   rng.uniform(-3.0, 0.0), False, True))
    return "\n".join(rows), outside


def _raw_block(rng: random.Random, utterance_id: str, n_words: int) -> str:
    rows = [f"#utterance\t{utterance_id}\tspk1\traw\t{_text(rng, n_words)}"]
    n_phones = rng.randint(n_words, n_words * 3)
    # about one utterance in five falls under the 1.5 s cut of ``stats``
    share = rng.uniform(0.8, 4.0) / n_phones
    for i in range(n_phones):
        voiced = i < 2 or rng.random() < 0.7
        rows.append(
            _phone_row(
                rng.choice(PHONE_LABELS), min(i * n_words // n_phones, n_words - 1), share,
                math.log(rng.uniform(110.0, 320.0)) if voiced else None,
                math.log(rng.uniform(0.2, 5.0)), voiced, False,
            )
        )
    return "\n".join(rows)


def _ratings(rng: random.Random) -> str:
    means = {"proposed": 3.9, "baseline": 3.4, "random": 2.6}
    rows = [RATINGS_HEADER]
    for stimulus in range(120):
        for system in SYSTEMS:
            for rater in range(8):
                score = min(5, max(1, round(rng.gauss(means[system], 0.9))))
                rows.append(f"s{stimulus}\t{system}\tr{rater}\t{score}")
    return "\n".join(rows) + "\n"


def _preferences(rng: random.Random) -> str:
    rows = [PREFERENCES_HEADER]
    weights = (0.5, 0.3, 0.2)
    for set_index in range(600):
        chosen = rng.choices(SYSTEMS, weights)[0]
        rows.append(f"set{set_index}\tr{set_index % 16}\t{chosen}\t{','.join(SYSTEMS)}")
    return "\n".join(rows) + "\n"


def _jobs(rng: random.Random, ids: list[str]) -> list[Job]:
    jobs = []
    for i, utterance_id in enumerate(ids):
        mode = MODES[i % len(MODES)]
        context = None
        if mode == "style":
            context = rng.choice(STYLES)
        elif mode == "dialogue":
            context = rng.choice(PREVIOUS_LINES)
        jobs.append(Job(utterance_id, mode, context))
    return jobs


def generate(
    seed: int,
    out_dir: Path,
    n_utterances: int = 1000,
    n_raw: int = 300,
    n_single: int = 32,
) -> Inputs:
    """Write every input file for ``seed`` into ``out_dir`` and describe them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:{seed}")
    speaker = _speaker(rng)

    raw = [FEATURE_HEADER] + [
        _raw_block(rng, f"raw{i:04d}", min(20, n_words))
        for i, n_words in enumerate(_word_counts(rng, n_raw))
    ]
    (out_dir / "raw_corpus.tsv").write_text("\n".join(raw) + "\n", encoding="utf-8")
    (out_dir / "stats.tsv").write_text(speaker.document(), encoding="utf-8")

    ids = [f"utt{i:05d}" for i in range(n_utterances)]
    blocks = []
    outside = 0
    for i, (utterance_id, n_words) in enumerate(zip(ids, _word_counts(rng, n_utterances))):
        force = ("low", "high")[i] if i < 2 else None
        block, n_out = _norm_block(rng, speaker, utterance_id, n_words, force)
        blocks.append(block)
        outside += n_out
    (out_dir / "corpus_norm.tsv").write_text(
        "\n".join([FEATURE_HEADER] + blocks) + "\n", encoding="utf-8"
    )
    single_dir = out_dir / "utt"
    single_dir.mkdir(exist_ok=True)
    single = []
    for utterance_id, block in zip(ids[:n_single], blocks):
        path = single_dir / f"{utterance_id}.tsv"
        path.write_text(f"{FEATURE_HEADER}\n{block}\n", encoding="utf-8")
        single.append(path)

    jobs = _jobs(rng, ids)
    (out_dir / "jobs.tsv").write_text(
        "".join(f"{j.utterance_id}\t{j.mode}\t{j.context or '-'}\n" for j in jobs),
        encoding="utf-8",
    )
    (out_dir / "ratings.tsv").write_text(_ratings(rng), encoding="utf-8")
    (out_dir / "preferences.tsv").write_text(_preferences(rng), encoding="utf-8")
    return Inputs(
        raw_corpus=out_dir / "raw_corpus.tsv",
        stats=out_dir / "stats.tsv",
        corpus=out_dir / "corpus_norm.tsv",
        ratings=out_dir / "ratings.tsv",
        preferences=out_dir / "preferences.tsv",
        single=tuple(single),
        job_list=tuple(jobs),
        out_of_range_phones=outside,
    )
