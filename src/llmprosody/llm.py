"""Completion backends and the suggest -> parse -> repair loop.

A backend is any callable taking a prompt string and returning the raw
completion text.  :class:`HttpBackend` talks to a chat/completions-style
JSON endpoint (model name, message list, temperature in the request; the
first choice's message content in the response).  :class:`MockBackend` is a
deterministic stand-in that needs no network and lets the whole pipeline run
reproducibly from a seed.  :func:`complete` uses the standard library's
``urllib.request``, so HTTP needs no third-party package.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .config import BackendConfig, RepairPolicy
from .errors import BackendError, DataError, LlmOutputError
from .features import Word, tokenize_words
from .mapping import LlmScaleSuggestion, WordSuggestion
from .prompting import PromptSpec, build_prompt
from .response import ParseDiagnostic, parse_response, serialize_suggestion

logger = logging.getLogger(__name__)

_BACKOFF_BASE_S = 0.5


class RateLimited(BackendError):
    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class NetworkError(BackendError):
    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class RepairExhausted(LlmOutputError):
    def __init__(self, message: str, attempts: list["Attempt"]):
        super().__init__(message)
        self.attempts = attempts

    @property
    def diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for attempt in self.attempts for d in attempt.diagnostics)


def complete(
    prompt: str,
    config: BackendConfig,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Request one completion, retrying transient failures.

    Timeouts, connection errors, HTTP 429, and 5xx responses are retried up
    to ``config.max_retries`` times with exponential backoff and jitter.
    Auth failures are raised immediately.  The transport modules are imported
    here, on first call, so commands that never call this do not load them.
    """
    import http.client
    import json
    import urllib.error
    import urllib.request

    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise BackendError(f"no API key found in environment variable {config.api_key_env!r}")
    url = config.base_url.rstrip("/") + "/chat/completions"
    body = json.dumps({
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
    }).encode("utf-8")
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    attempts = 0
    last_transient = ""
    rate_limited = False
    while attempts <= config.max_retries:
        if attempts > 0:
            delay = _BACKOFF_BASE_S * (2 ** (attempts - 1))
            sleep(delay + random.uniform(0, delay / 2))
        attempts += 1
        # A new Request per attempt: a proxy handler rewrites its host in place.
        request = urllib.request.Request(url, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=config.timeout_s) as resp:
                status, payload = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            rate_limited = False
            last_transient = f"request failed: {type(exc).__name__}"
            logger.warning("completion attempt %d failed (%s)", attempts, last_transient)
            continue
        if status in (401, 403):
            raise BackendError(f"endpoint rejected credentials (HTTP {status})")
        if status == 429:
            rate_limited = True
            last_transient = "rate limited (HTTP 429)"
            logger.warning("completion attempt %d rate limited", attempts)
            continue
        if status >= 500:
            rate_limited = False
            last_transient = f"server error (HTTP {status})"
            logger.warning("completion attempt %d failed (%s)", attempts, last_transient)
            continue
        if status != 200:
            raise NetworkError(f"unexpected HTTP {status} from endpoint", attempts=attempts)
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"could not extract completion text: {type(exc).__name__}") from None
        if not isinstance(content, str):
            raise BackendError("completion content is not a string")
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
        raise DataError("prompt contains no enumerated word list")
    surfaces = []
    for line in lines[starts[-1] + 1:]:
        m = _WORD_LINE_RE.match(line)
        if not m:
            break
        surfaces.append(m.group(2))
    if not surfaces:
        raise DataError("prompt's word list is empty")
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
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        futures = [pool.submit(suggest_with_repair, spec, backend, policy) for spec in specs]
        return [f.result() for f in futures]
