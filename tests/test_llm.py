import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from llmprosody.errors import BackendError, DataError
from llmprosody.features import tokenize_words
from llmprosody.llm import (
    BackendConfig,
    HttpBackend,
    MockBackend,
    NetworkError,
    RateLimited,
    RepairExhausted,
    RepairPolicy,
    complete,
    mock_complete,
    suggest_batch,
    suggest_with_repair,
)
from llmprosody.prompting import Mode, PromptSpec, build_prompt
from llmprosody.response import parse_response

GOLDEN_DIR = Path(__file__).parent / "golden"

SPEC = PromptSpec(mode=Mode.NEUTRAL, target_text="Turn left at the second light.")
SPEC_WORDS = tokenize_words(SPEC.target_text)


class TestMockComplete:
    def test_stable_golden_output(self):
        prompt = build_prompt(SPEC)
        got = mock_complete(prompt, seed=7)
        golden = (GOLDEN_DIR / "mock_response_seed7.txt").read_text(encoding="utf-8")
        assert got == golden

    def test_deterministic(self):
        prompt = build_prompt(SPEC)
        assert mock_complete(prompt, seed=3) == mock_complete(prompt, seed=3)

    def test_always_parses_cleanly(self, rng):
        for seed in range(50):
            spec = PromptSpec(
                mode=Mode.STYLE,
                target_text="Please close the door quietly tonight.",
                context="calm",
            )
            out = mock_complete(build_prompt(spec), seed=seed)
            result = parse_response(out, tokenize_words(spec.target_text))
            assert result.ok and result.diagnostics == ()

    def test_seed_changes_values_not_structure(self):
        prompt = build_prompt(SPEC)
        a = mock_complete(prompt, seed=1)
        b = mock_complete(prompt, seed=2)
        assert a != b
        structure = lambda text: [line.split(":")[0] for line in text.strip().split("\n")]
        assert structure(a) == structure(b)

    def test_prompt_without_word_list(self):
        with pytest.raises(DataError, match="prompt contains no enumerated word list"):
            mock_complete("annotate this text please", seed=0)


class ScriptedBackend:
    """Returns canned responses in order; records the prompts it saw."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def __call__(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return self.responses.pop(0)


def _valid_response() -> str:
    return mock_complete(build_prompt(SPEC), seed=11)


def _word_skipping_response() -> str:
    lines = _valid_response().strip().split("\n")
    return "\n".join(line for line in lines if not line.startswith("WORD 2 ")) + "\n"


class TestSuggestWithRepair:
    def test_first_try_success(self):
        backend = ScriptedBackend([_valid_response()])
        suggestion, attempts = suggest_with_repair(SPEC, backend)
        assert len(attempts) == 1
        assert attempts[0].prompt == build_prompt(SPEC)
        assert attempts[0].diagnostics == ()
        assert [w.key for w in suggestion.words] == [w.key for w in SPEC_WORDS]

    def test_word_skip_then_valid_takes_two_attempts(self):
        backend = ScriptedBackend([_word_skipping_response(), _valid_response()])
        suggestion, attempts = suggest_with_repair(SPEC, backend)
        assert len(attempts) == 2
        assert attempts[0].diagnostics
        assert attempts[1].diagnostics == ()
        # repair prompt = original prompt + diagnostics appended
        assert attempts[1].prompt.startswith(build_prompt(SPEC))
        assert "rejected" in attempts[1].prompt
        assert suggestion is not None

    def test_max_attempts_one_exhausts(self):
        backend = ScriptedBackend([_word_skipping_response()])
        with pytest.raises(RepairExhausted) as err:
            suggest_with_repair(SPEC, backend, RepairPolicy(max_attempts=1))
        assert len(err.value.attempts) == 1
        assert err.value.diagnostics

    def test_policy_validation(self):
        with pytest.raises(Exception):
            RepairPolicy(max_attempts=0)

    @pytest.mark.parametrize("max_parallel", [1, 2, 4])
    def test_batch_matches_sequential(self, max_parallel):
        specs = [
            PromptSpec(mode=Mode.NEUTRAL, target_text=f"word number {i} here") for i in range(6)
        ]
        backend = MockBackend(seed=5)
        sequential = [suggest_with_repair(s, backend) for s in specs]
        parallel = suggest_batch(specs, backend, max_parallel=max_parallel)
        assert [s for s, _ in parallel] == [s for s, _ in sequential]


class _ScriptedHandler(BaseHTTPRequestHandler):
    # each entry: (status:int, body:bytes) ; server.script is mutated in place
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        self.server.requests.append(
            {
                "path": self.path,
                "body": json.loads(raw) if raw else None,
                "authorization": self.headers.get("Authorization"),
            }
        )
        status, body = self.server.script.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _ok_body(content="fine") -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


@pytest.fixture
def fake_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _config(server, **overrides) -> BackendConfig:
    values = dict(
        base_url=f"http://127.0.0.1:{server.server_port}/v1",
        model_name="test-model",
        api_key_env="LLMPROSODY_TEST_KEY",
        temperature=0.0,
        timeout_s=5.0,
        max_retries=3,
    )
    values.update(overrides)
    return BackendConfig(**values)


NO_SLEEP = lambda seconds: None


class TestComplete:
    def test_missing_key_fails_before_any_request(self, fake_server, monkeypatch):
        monkeypatch.delenv("LLMPROSODY_TEST_KEY", raising=False)
        with pytest.raises(BackendError, match="no API key found in environment variable"):
            complete("hello", _config(fake_server), sleep=NO_SLEEP)
        assert fake_server.requests == []

    def test_success_carries_wire_format(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "sk-secret-123")
        fake_server.script.append((200, _ok_body("the completion")))
        out = complete("a prompt", _config(fake_server), sleep=NO_SLEEP)
        assert out == "the completion"
        request = fake_server.requests[0]
        assert request["path"] == "/v1/chat/completions"
        assert request["authorization"] == "Bearer sk-secret-123"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["temperature"] == 0.0
        assert request["body"]["messages"] == [{"role": "user", "content": "a prompt"}]

    def test_two_transient_failures_then_success(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.extend([(500, b"{}"), (503, b"{}"), (200, _ok_body())])
        out = complete("p", _config(fake_server), sleep=NO_SLEEP)
        assert out == "fine"
        assert len(fake_server.requests) == 3

    def test_rate_limit_exhausts_with_attempt_count(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.extend([(429, b"{}")] * 3)
        with pytest.raises(RateLimited) as err:
            complete("p", _config(fake_server, max_retries=2), sleep=NO_SLEEP)
        assert err.value.attempts == 3
        assert len(fake_server.requests) == 3

    def test_server_errors_exhaust_to_network_error(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.extend([(500, b"{}")] * 2)
        with pytest.raises(NetworkError) as err:
            complete("p", _config(fake_server, max_retries=1), sleep=NO_SLEEP)
        assert err.value.attempts == 2

    def test_auth_rejection_is_immediate(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.append((401, b"{}"))
        with pytest.raises(BackendError, match=r"endpoint rejected credentials \(HTTP 401\)"):
            complete("p", _config(fake_server), sleep=NO_SLEEP)
        assert len(fake_server.requests) == 1

    def test_malformed_payload(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.append((200, b'{"unexpected": true}'))
        with pytest.raises(BackendError, match="could not extract completion text: KeyError"):
            complete("p", _config(fake_server), sleep=NO_SLEEP)

    def test_connection_refused_becomes_network_error(self, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        config = BackendConfig(
            base_url="http://127.0.0.1:9/v1",
            api_key_env="LLMPROSODY_TEST_KEY",
            timeout_s=0.3,
            max_retries=1,
        )
        with pytest.raises(NetworkError):
            complete("p", config, sleep=NO_SLEEP)

    def test_key_never_appears_in_errors(self, fake_server, monkeypatch):
        secret = "sk-NEVER-LOG-ME"
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", secret)
        fake_server.script.extend([(500, b"{}")] * 2)
        with pytest.raises(NetworkError) as err:
            complete("p", _config(fake_server, max_retries=1), sleep=NO_SLEEP)
        assert secret not in str(err.value)

    def test_backoff_delays_grow(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.extend([(500, b"{}"), (500, b"{}"), (200, _ok_body())])
        delays = []
        complete("p", _config(fake_server), sleep=delays.append)
        assert len(delays) == 2
        assert 0.5 <= delays[0] <= 0.75  # base + jitter up to half the base
        assert 1.0 <= delays[1] <= 1.5
        assert delays[1] > delays[0] * 1.3

    def test_http_backend_end_to_end_with_repair(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        fake_server.script.append((200, _ok_body(_word_skipping_response())))
        fake_server.script.append((200, _ok_body(_valid_response())))
        backend = HttpBackend(_config(fake_server))
        suggestion, attempts = suggest_with_repair(SPEC, backend)
        assert len(attempts) == 2
        assert suggestion is not None
        # the key never leaks into the transcript
        for attempt in attempts:
            assert "k" != attempt.prompt and "Bearer" not in attempt.prompt

    def test_proxy_variables_are_honoured(self, fake_server, monkeypatch):
        monkeypatch.setenv("LLMPROSODY_TEST_KEY", "k")
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{fake_server.server_port}")
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        fake_server.script.append((200, _ok_body()))
        # urlopen reads the proxy variables once, when it builds its default
        # opener; drop the cached one before and after so they are read here
        urllib.request.install_opener(None)
        try:
            config = _config(fake_server, base_url="http://llm.example.invalid/v1")
            assert complete("p", config, sleep=NO_SLEEP) == "fine"
        finally:
            urllib.request.install_opener(None)
        assert fake_server.requests[0]["path"] == "http://llm.example.invalid/v1/chat/completions"

    def test_config_validation(self):
        with pytest.raises(Exception):
            BackendConfig(max_retries=-1)
        with pytest.raises(Exception):
            BackendConfig(timeout_s=0)
        with pytest.raises(Exception):
            BackendConfig(max_parallel=0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature_refused(self, temperature):
        # JSON has no NaN or Infinity, so the request body could not carry it
        with pytest.raises(DataError, match=f"temperature must be a finite number >= 0, got {temperature}"):
            BackendConfig(temperature=temperature)
