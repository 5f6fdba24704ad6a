"""Completion backends, the suggest -> parse -> repair loop, and the plan step of one utterance.

A backend is any callable taking a prompt string and returning the raw
completion text.  :class:`HttpBackend` talks to a chat/completions-style
JSON endpoint (model name, message list, temperature in the request; the
first choice's message content in the response).  :class:`MockBackend` is a
deterministic stand-in that needs no network and lets the whole pipeline run
reproducibly from a seed.  :func:`complete` uses the standard library's
``http.client`` over kept-alive connections pooled per host across calls and
threads, so HTTP needs no third-party package.
"""

from __future__ import annotations

import _thread
import hashlib
import os
import random
import time
from collections import namedtuple
from collections.abc import Callable, Sequence

from .config import BackendConfig, RepairPolicy
from .errors import BackendError, DataError, LlmOutputError
from .features import SpeakerStats, UtteranceFeatures, Word, tokenize_words
from .mapping import (
    LlmScaleSuggestion, MappingConfig, ModificationPlan, WordSuggestion, build_plan, compute_pitch_bounds,
)
from .prompting import PromptSpec, build_prompt, prompt_target_words
from .response import ParseDiagnostic, parse_response, serialize_suggestion

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
    Auth failures are raised immediately, and so is any other status,
    redirects included: none is followed.  Each attempt takes a kept-alive
    connection from the process-wide pool, or opens one, and returns it once
    the whole response is read.  Each retried failure is logged as a warning
    on the ``llmprosody.llm`` logger.  The transport modules and ``logging``
    are imported here, on first call, so commands that never call this do not
    load them.
    """
    import http.client
    import json
    import logging
    import urllib.parse
    import urllib.request

    logger = logging.getLogger(__name__)

    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise BackendError(f"no API key found in environment variable {config.api_key_env!r}")
    url = urllib.parse.urlsplit(config.base_url.rstrip("/") + "/chat/completions")
    if url.scheme not in ("http", "https"):
        raise BackendError(f"base URL must use http or https, got {url.scheme!r}")
    path = url.path + (f"?{url.query}" if url.query else "")
    body = json.dumps({
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
    }).encode("utf-8")
    headers = {
        "Authorization": f"Bearer {api_key}",
        "Content-Type": "application/json",
        "User-Agent": f"Python-urllib/{urllib.request.__version__}",
    }
    attempts = 0
    last_transient = ""
    rate_limited = False
    while attempts <= config.max_retries:
        if attempts > 0:
            delay = _BACKOFF_BASE_S * (2 ** (attempts - 1))
            sleep(delay + random.uniform(0, delay / 2))
        attempts += 1
        conn = None
        try:
            route = _POOL.take(url.scheme, url.netloc, config.timeout_s)
            conn, prefix, proxy_headers = route
            conn.request("POST", prefix + path, body, {**headers, **proxy_headers})
            with conn.getresponse() as resp:
                status, payload = resp.status, resp.read()
        except BaseException as exc:
            if conn is not None:
                conn.close()
            if not isinstance(exc, (OSError, http.client.HTTPException)):
                raise
            rate_limited = False
            last_transient = f"request failed: {type(exc).__name__}"
            logger.warning("completion attempt %d failed (%s)", attempts, last_transient)
            continue
        # a response without keep-alive has closed the connection already
        if conn.sock is not None:
            _POOL.give_back(url.scheme, url.netloc, route)
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


class _ConnectionPool:
    """Idle kept-alive connections shared by every thread, keyed by scheme and host:port.

    A connection serves one request at a time: :meth:`take` removes it from
    the pool and :meth:`give_back` returns it once its response is read.  It
    travels as a route, ``(connection, path prefix, extra headers)``: through
    an HTTP proxy a request names the absolute URL (``"http://host:port"`` +
    path) and carries the proxy's ``Proxy-Authorization``; otherwise both
    are empty.
    """

    def __init__(self) -> None:
        self._lock = _thread.allocate_lock()  # threading.Lock, without importing threading
        self._idle: dict[tuple[str, str], list[tuple]] = {}
        self._ssl_context = None

    def take(self, scheme: str, netloc: str, timeout: float) -> tuple:
        """An idle connection whose peer has not closed it, else a new one."""
        while True:
            with self._lock:
                idle = self._idle.get((scheme, netloc))
                route = idle.pop() if idle else None
            if route is None:
                return self._open(scheme, netloc, timeout)
            conn = route[0]
            if not _is_dropped(conn.sock):
                conn.timeout = timeout
                conn.sock.settimeout(timeout)
                return route
            conn.close()

    def give_back(self, scheme: str, netloc: str, route: tuple) -> None:
        with self._lock:
            self._idle.setdefault((scheme, netloc), []).append(route)

    def close_idle(self) -> None:
        """Close and forget every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for routes in idle.values():
            for conn, _, _ in routes:
                conn.close()

    def _open(self, scheme: str, netloc: str, timeout: float) -> tuple:
        """A new connection, through the proxy that the environment names now, if any."""
        import http.client
        import urllib.request

        proxy = urllib.request.getproxies().get(scheme)
        if proxy and urllib.request.proxy_bypass(netloc):
            proxy = None
        proxy_netloc, proxy_headers = _parse_proxy(proxy) if proxy else (None, {})
        if scheme == "http":
            if proxy_netloc is None:
                return http.client.HTTPConnection(netloc, timeout=timeout), "", {}
            conn = http.client.HTTPConnection(proxy_netloc, timeout=timeout)
            return conn, f"http://{netloc}", proxy_headers
        conn = http.client.HTTPSConnection(
            proxy_netloc or netloc, timeout=timeout, context=self._context()
        )
        if proxy_netloc is not None:
            conn.set_tunnel(netloc, headers=proxy_headers)
        return conn, "", {}

    def _context(self):
        """The one TLS context of the process: system CA store, hostname checked."""
        with self._lock:
            if self._ssl_context is None:
                import ssl

                context = ssl.create_default_context()
                context.set_alpn_protocols(["http/1.1"])
                self._ssl_context = context
            return self._ssl_context


_POOL = _ConnectionPool()


def _is_dropped(sock) -> bool:
    """Whether an idle socket is readable: its peer closed it, or sent data no request asked for."""
    import select

    if not hasattr(select, "poll"):  # Windows
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _parse_proxy(proxy: str) -> tuple[str, dict[str, str]]:
    """``host:port`` of a proxy URL, and the Basic auth header its credentials ask for."""
    import base64
    import urllib.parse

    parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
    userinfo, _, host_port = parts.netloc.rpartition("@")
    user, _, password = userinfo.partition(":")
    if not (user and password):
        return host_port, {}
    credentials = f"{urllib.parse.unquote(user)}:{urllib.parse.unquote(password)}"
    token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
    return host_port, {"Proxy-Authorization": f"Basic {token}"}


class HttpBackend(namedtuple("HttpBackend", "config")):
    __slots__ = ()
    config: BackendConfig

    def __call__(self, prompt: str) -> str:
        return complete(prompt, self.config)


def mock_complete(prompt: str, seed: int) -> str:
    """Deterministic grammar-valid response for any built prompt.

    The output is a pure function of (prompt, seed): the word list is read
    from the prompt and values are drawn from a seeded generator, so the same
    inputs give byte-identical output in any process.
    """
    surfaces = prompt_target_words(prompt)
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    draw = random.Random(f"{seed}:{digest}").randrange  # randrange(a, b + 1) draws as randint(a, b)
    make_word, make_entry = Word._make, WordSuggestion._make
    global_values = (float(draw(-5, 6)), float(draw(-5, 6)), float(draw(-5, 6)))
    words, entries = [], []
    for surface in surfaces:
        key = surface.lower()
        words.append(make_word((surface, key)))
        entries.append(make_entry((key, float(draw(0, 6)), float(draw(0, 6)), float(draw(0, 6)))))
    suggestion = LlmScaleSuggestion(*global_values, tuple(entries))
    reasoning = f"Deterministic mock suggestion for {len(words)} words (seed {seed})."
    return serialize_suggestion(suggestion, tuple(words), reasoning)


class MockBackend(namedtuple("MockBackend", "seed", defaults=(0,))):
    __slots__ = ()
    seed: int

    def __call__(self, prompt: str) -> str:
        return mock_complete(prompt, self.seed)


class Attempt(namedtuple("Attempt", "prompt response diagnostics")):
    """One round of the repair loop: what was sent, what came back, what failed."""

    __slots__ = ()
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


def plan_utterance(
    spec: PromptSpec,
    utterance: UtteranceFeatures,
    stats: SpeakerStats,
    backend: Callable[[str], str],
    policy: RepairPolicy = RepairPolicy(),
    mapping_config: MappingConfig = MappingConfig(),
) -> tuple[ModificationPlan, list[Attempt]]:
    """The plan for one utterance: :func:`suggest_with_repair`, then :func:`build_plan`.

    The target text must have the utterance's words (case and edge
    punctuation aside), and the utterance must have pitch bounds
    (normalized features, a voiced phone); both are checked before the
    backend is called.  Returns the plan and the attempt transcript.
    """
    if tuple(w.key for w in tokenize_words(spec.target_text)) != tuple(w.key for w in utterance.words):
        raise DataError(f"target text words do not match utterance {utterance.id!r}'s words")
    compute_pitch_bounds(utterance, stats)  # build_plan needs them: refuse now, not after a paid completion
    suggestion, attempts = suggest_with_repair(spec, backend, policy)
    return build_plan(suggestion, utterance, stats, mapping_config), attempts


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
