"""Completion backends and the suggest -> parse -> repair loop.

A backend is any callable taking a prompt string and returning the raw
completion text.  :class:`HttpBackend` talks to a chat/completions-style
JSON endpoint (model name, message list, temperature in the request; the
first choice's message content in the response).  :class:`MockBackend` is a
deterministic stand-in that needs no network and lets the whole pipeline run
reproducibly from a seed.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import requests

from .errors import BackendError, DataError, LlmOutputError
from .features import Word, tokenize_words
from .mapping import LlmScaleSuggestion, WordSuggestion
from .prompting import PromptSpec, build_prompt
from .response import ParseDiagnostic, parse_response, serialize_suggestion

logger = logging.getLogger(__name__)

_BACKOFF_BASE_S = 0.5


class AuthError(BackendError):
    """Missing or rejected API credentials; never retried."""


class RateLimited(BackendError):
    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class NetworkError(BackendError):
    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class MalformedApiResponse(BackendError):
    """The endpoint answered 200 but not in the expected shape."""


class UnrecognizedPrompt(DataError):
    """The mock backend could not find an enumerated word list in the prompt."""


class RepairExhausted(LlmOutputError):
    def __init__(self, message: str, attempts: list["Attempt"]):
        super().__init__(message)
        self.attempts = attempts

    @property
    def diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for attempt in self.attempts for d in attempt.diagnostics)


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for a chat/completions-compatible endpoint.

    The API key is read from the environment variable named by
    ``api_key_env`` and sent as a bearer token; it is never logged and never
    included in error messages.
    """

    base_url: str = "https://api.openai.com/v1"
    model_name: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    timeout_s: float = 30.0
    max_retries: int = 3
    max_parallel: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise DataError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.timeout_s > 0:
            raise DataError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_parallel < 1:
            raise DataError(f"max_parallel must be >= 1, got {self.max_parallel}")
        if self.temperature < 0:
            raise DataError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class RepairPolicy:
    """How many completions to request before giving up, and what to say."""

    max_attempts: int = 3
    repair_instruction_template: ClassVar[str] = (
        "\n\nYour previous answer was rejected for these reasons:\n"
        "{diagnostics}\n"
        "Answer again. Follow the response format exactly: one REASONING line, "
        "one GLOBAL line, then one WORD line for every listed word in the "
        "listed order. Do not skip, reorder, or invent words."
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DataError(f"max_attempts must be >= 1, got {self.max_attempts}")


def complete(
    prompt: str,
    config: BackendConfig,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Request one completion, retrying transient failures.

    Timeouts, connection errors, HTTP 429, and 5xx responses are retried up
    to ``config.max_retries`` times with exponential backoff and jitter.
    Auth failures are raised immediately.
    """
    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise AuthError(
            f"no API key found in environment variable {config.api_key_env!r}"
        )
    url = config.base_url.rstrip("/") + "/chat/completions"
    body = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    attempts = 0
    last_transient = ""
    rate_limited = False
    while attempts <= config.max_retries:
        if attempts > 0:
            delay = _BACKOFF_BASE_S * (2 ** (attempts - 1))
            sleep(delay + random.uniform(0, delay / 2))
        attempts += 1
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=config.timeout_s)
        except requests.exceptions.RequestException as exc:
            rate_limited = False
            last_transient = f"request failed: {type(exc).__name__}"
            logger.warning("completion attempt %d failed (%s)", attempts, last_transient)
            continue
        if resp.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
        if resp.status_code == 429:
            rate_limited = True
            last_transient = "rate limited (HTTP 429)"
            logger.warning("completion attempt %d rate limited", attempts)
            continue
        if resp.status_code >= 500:
            rate_limited = False
            last_transient = f"server error (HTTP {resp.status_code})"
            logger.warning("completion attempt %d failed (%s)", attempts, last_transient)
            continue
        if resp.status_code != 200:
            raise NetworkError(
                f"unexpected HTTP {resp.status_code} from endpoint", attempts=attempts
            )
        try:
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedApiResponse(
                f"could not extract completion text: {type(exc).__name__}"
            ) from None
        if not isinstance(content, str):
            raise MalformedApiResponse("completion content is not a string")
        return content
    if rate_limited:
        raise RateLimited(
            f"still rate limited after {attempts} attempts", attempts=attempts
        )
    raise NetworkError(
        f"gave up after {attempts} attempts; last failure: {last_transient}",
        attempts=attempts,
    )


@dataclass(frozen=True)
class HttpBackend:
    config: BackendConfig

    def __call__(self, prompt: str) -> str:
        return complete(prompt, self.config)


_WORD_LIST_HEADER = "Words:"
_WORD_LINE_RE = re.compile(r"^(\d+) (\S+)$")


def _extract_target_words(prompt: str) -> list[str]:
    """Pull the last enumerated word list out of a built prompt."""
    lines = prompt.split("\n")
    starts = [i for i, line in enumerate(lines) if line == _WORD_LIST_HEADER]
    if not starts:
        raise UnrecognizedPrompt("prompt contains no enumerated word list")
    surfaces = []
    for line in lines[starts[-1] + 1:]:
        m = _WORD_LINE_RE.match(line)
        if not m:
            break
        surfaces.append(m.group(2))
    if not surfaces:
        raise UnrecognizedPrompt("prompt's word list is empty")
    return surfaces


def mock_complete(prompt: str, seed: int) -> str:
    """Deterministic grammar-valid response for any built prompt.

    The output is a pure function of (prompt, seed): the word list is read
    from the prompt and values are drawn from a seeded generator, so the same
    inputs give byte-identical output in any process.
    """
    surfaces = _extract_target_words(prompt)
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    rng = random.Random(f"{seed}:{digest}")
    words = tuple(Word(surface=s, key=s.lower()) for s in surfaces)
    suggestion = LlmScaleSuggestion(
        global_duration=float(rng.randint(-5, 5)),
        global_pitch=float(rng.randint(-5, 5)),
        global_energy=float(rng.randint(-5, 5)),
        words=tuple(
            WordSuggestion(
                index=i,
                key=word.key,
                local_duration=float(rng.randint(0, 5)),
                local_pitch=float(rng.randint(0, 5)),
                local_energy=float(rng.randint(0, 5)),
            )
            for i, word in enumerate(words)
        ),
    )
    reasoning = (
        f"Deterministic mock suggestion for {len(words)} words (seed {seed})."
    )
    return serialize_suggestion(suggestion, words, reasoning)


@dataclass(frozen=True)
class MockBackend:
    seed: int = 0

    def __call__(self, prompt: str) -> str:
        return mock_complete(prompt, self.seed)


@dataclass(frozen=True)
class Attempt:
    """One round of the repair loop: what was sent, what came back, what failed."""

    prompt: str
    response: str
    diagnostics: tuple[ParseDiagnostic, ...]


def suggest_with_repair(
    spec: PromptSpec,
    backend: Callable[[str], str],
    policy: RepairPolicy = RepairPolicy(),
) -> tuple[LlmScaleSuggestion, list[Attempt]]:
    """Run the prompt, parse the response, and retry with diagnostics on failure.

    Returns the first successfully parsed suggestion plus the full attempt
    transcript.  Raises :class:`RepairExhausted` (carrying the transcript and
    all diagnostics) when ``policy.max_attempts`` parses all fail.
    """
    base_prompt = build_prompt(spec)
    expected_words = tokenize_words(spec.target_text)
    prompt = base_prompt
    attempts: list[Attempt] = []
    for _ in range(policy.max_attempts):
        raw = backend(prompt)
        result = parse_response(raw, expected_words)
        attempts.append(Attempt(prompt=prompt, response=raw, diagnostics=result.diagnostics))
        if result.ok:
            return result.suggestion, attempts
        diagnostics_text = "\n".join(str(d) for d in result.fatal_diagnostics)
        prompt = base_prompt + policy.repair_instruction_template.format(
            diagnostics=diagnostics_text
        )
    raise RepairExhausted(
        f"no parseable response after {len(attempts)} attempts", attempts=attempts
    )


def suggest_batch(
    specs: Sequence[PromptSpec],
    backend: Callable[[str], str],
    policy: RepairPolicy = RepairPolicy(),
    max_parallel: int = 1,
) -> list[tuple[LlmScaleSuggestion, list[Attempt]]]:
    """Run :func:`suggest_with_repair` for several specs with bounded parallelism."""
    if max_parallel < 1:
        raise DataError(f"max_parallel must be >= 1, got {max_parallel}")
    if max_parallel == 1 or len(specs) <= 1:
        return [suggest_with_repair(spec, backend, policy) for spec in specs]
    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        futures = [pool.submit(suggest_with_repair, spec, backend, policy) for spec in specs]
        return [f.result() for f in futures]
