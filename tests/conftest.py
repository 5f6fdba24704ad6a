"""Shared deterministic generators for property-style tests.

All randomness flows through explicitly seeded ``random.Random`` instances so
every test is reproducible.  Generated utterances are self-consistent: voiced
F0 values de-normalize into the speaker's natural range, so identity plans
are clamp-free.
"""

import math
import random

import pytest
from hypothesis import settings

from llmprosody.features import (
    PhoneFeature,
    SpeakerStats,
    UtteranceFeatures,
    make_utterance,
    tokenize_words,
)
from llmprosody.mapping import LlmScaleSuggestion, WordSuggestion

WORD_POOL = (
    "the", "quick", "brown", "fox", "jumps", "over", "a", "lazy", "dog",
    "Hello", "world", "again", "now", "it's", "FINE", "really", "stop",
    "turn", "left", "tomorrow", "quietly", "never", "ducks",
)

PHONE_LABELS = ("AA1", "IY0", "EH1", "T", "K", "N", "S", "L", "R", "M")

# property tests draw the same examples on every run, like the seeded generators
PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def make_stats(
    mu_hz: float = 200.0,
    sigma_logf0: float = 0.25,
    mu_loge: float = 1.0,
    sigma_loge: float = 0.5,
    f0_min_hz: float = 100.0,
    f0_max_hz: float = 300.0,
) -> SpeakerStats:
    return SpeakerStats(
        mu_logf0=math.log(mu_hz),
        sigma_logf0=sigma_logf0,
        mu_loge=mu_loge,
        sigma_loge=sigma_loge,
        f0_min_hz=f0_min_hz,
        f0_max_hz=f0_max_hz,
    )


def random_stats(rng: random.Random) -> SpeakerStats:
    f0_min = rng.uniform(70.0, 120.0)
    f0_max = rng.uniform(280.0, 400.0)
    return make_stats(
        mu_hz=rng.uniform(150.0, 250.0),
        sigma_logf0=rng.uniform(0.15, 0.4),
        mu_loge=rng.uniform(-1.0, 2.0),
        sigma_loge=rng.uniform(0.2, 0.8),
        f0_min_hz=f0_min,
        f0_max_hz=f0_max,
    )


def random_text(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(WORD_POOL) for _ in range(n_words))


def random_utterance(
    rng: random.Random,
    stats: SpeakerStats,
    utterance_id: str = "u1",
    n_words: int | None = None,
    pause_probability: float = 0.2,
) -> UtteranceFeatures:
    """A normalized utterance whose voiced F0 stays inside the speaker range."""
    if n_words is None:
        n_words = rng.randint(2, 8)
    text = random_text(rng, n_words)
    n_tokens = len(tokenize_words(text))
    phones: list[PhoneFeature] = []
    for j in range(n_tokens):
        n_phones = rng.randint(1, 4)
        for k in range(n_phones):
            # keep at least one voiced phone in the utterance
            voiced = rng.random() < 0.65 or (j == 0 and k == 0)
            if voiced:
                hz = rng.uniform(stats.f0_min_hz + 2.0, stats.f0_max_hz - 2.0)
                f0 = round((math.log(hz) - stats.mu_logf0) / stats.sigma_logf0, 6)
            else:
                f0 = None
            phones.append(
                PhoneFeature(
                    label=rng.choice(PHONE_LABELS),
                    word_index=j,
                    duration_s=round(rng.uniform(0.02, 0.4), 6),
                    f0=f0,
                    energy=round(rng.uniform(-3.0, 3.0), 6),
                    voiced=voiced,
                    pause=False,
                )
            )
        if j < n_tokens - 1 and rng.random() < pause_probability:
            phones.append(
                PhoneFeature(
                    label="sp",
                    word_index=None,
                    duration_s=round(rng.uniform(0.05, 0.5), 6),
                    f0=None,
                    energy=round(rng.uniform(-3.0, 0.0), 6),
                    voiced=False,
                    pause=True,
                )
            )
    return make_utterance(utterance_id, "spk1", text, phones, normalized=True)


def random_raw_utterance(
    rng: random.Random,
    utterance_id: str,
    total_duration_s: float,
    n_words: int = 3,
) -> UtteranceFeatures:
    """A raw-variant utterance with the requested total duration."""
    text = random_text(rng, n_words)
    n_tokens = len(tokenize_words(text))
    n_phones = max(n_tokens, rng.randint(n_tokens, n_tokens * 3))
    share = total_duration_s / n_phones
    phones = []
    for i in range(n_phones):
        j = min(i * n_tokens // n_phones, n_tokens - 1)
        voiced = rng.random() < 0.7 or i < 2
        f0 = round(math.log(rng.uniform(110.0, 320.0)), 6) if voiced else None
        phones.append(
            PhoneFeature(
                label=rng.choice(PHONE_LABELS),
                word_index=j,
                duration_s=round(share, 6),
                f0=f0,
                energy=round(math.log(rng.uniform(0.2, 5.0)), 6),
                voiced=voiced,
                pause=False,
            )
        )
    return make_utterance(utterance_id, "spk1", text, phones, normalized=False)


def random_suggestion(
    rng: random.Random,
    utterance: UtteranceFeatures,
    wild: bool = False,
) -> LlmScaleSuggestion:
    """A suggestion aligned with the utterance; ``wild`` allows values up to +/-100."""

    def gval() -> float:
        if wild and rng.random() < 0.3:
            return round(rng.uniform(-100.0, 100.0), 3)
        return round(rng.uniform(-5.0, 5.0), 3)

    def lval() -> float:
        if wild and rng.random() < 0.3:
            return round(rng.uniform(-100.0, 100.0), 3)
        return round(rng.uniform(0.0, 5.0), 3)

    return LlmScaleSuggestion(
        global_duration=gval(),
        global_pitch=gval(),
        global_energy=gval(),
        words=tuple(
            WordSuggestion(
                key=word.key,
                local_duration=lval(),
                local_pitch=lval(),
                local_energy=lval(),
            )
            for word in utterance.words
        ),
    )


def identity_suggestion(utterance: UtteranceFeatures) -> LlmScaleSuggestion:
    return LlmScaleSuggestion(
        global_duration=0.0,
        global_pitch=0.0,
        global_energy=0.0,
        words=tuple(
            WordSuggestion(word.key, 0.0, 0.0, 0.0)
            for word in utterance.words
        ),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240501)
