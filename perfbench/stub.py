"""Loopback chat/completions stub for the ``http_stub`` workload.

Run as ``python stub.py --seed N`` with the package importable; it binds an
ephemeral port on 127.0.0.1 and prints ``PORT <n>`` on its first line of
standard output.

Each answer is what the mock backend gives for the request's prompt, with the
repair instructions cut off, so every repaired suggestion equals the mock
suggestion for that utterance.  On top of that the stub plays back a seeded
schedule:

- a share of first-attempt answers, chosen by hashing the prompt, is broken by
  skipping, reordering or inventing a WORD line, which drives the repair loop;
- a fixed count of requests, chosen by their sequence number since the last
  reset, is answered with HTTP 503 or 429, which drives the backoff.  The
  count is fixed, not a rate, because every retry sleeps at least 0.5 s.

Every answer waits until a fixed service delay after the request arrived.
Headers and body go out in one write on a ``TCP_NODELAY`` socket: with
separate writes, Nagle's algorithm and delayed ACKs would make a kept-alive
connection slower than a fresh one and penalise connection reuse.

``GET /stats`` returns the counters as JSON; ``POST /reset`` zeroes them and
restarts the fault schedule.  The stub stops when its standard input reaches
end of file, so it never outlives the process that started it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BROKEN_PER_MILLE = 150
FAULTS = (503, 503, 429, 429)
FAULT_SPACING = 400
DELAY_S = 0.003
BREAKS = ("skip", "reorder", "invent")


def fault_schedule(seed: int, spacing: int = FAULT_SPACING) -> dict[int, int]:
    """Request sequence number (1-based, since reset) -> HTTP status to serve."""
    rng = random.Random(f"perfbench-faults:{seed}")
    statuses = list(FAULTS)
    rng.shuffle(statuses)
    return {
        spacing // 4 + k * spacing + rng.randrange(spacing // 8): status
        for k, status in enumerate(statuses)
    }


def _digest(seed: int, purpose: str, prompt: str) -> int:
    data = f"{seed}:{purpose}:".encode("utf-8") + prompt.encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def break_kind(seed: int, base_prompt: str) -> str | None:
    """How the first answer to ``base_prompt`` is broken, or None if it is not."""
    if _digest(seed, "break", base_prompt) % 1000 >= BROKEN_PER_MILLE:
        return None
    return BREAKS[_digest(seed, "kind", base_prompt) % len(BREAKS)]


def corrupt(answer: str, kind: str, seed: int, base_prompt: str) -> str:
    """``answer`` with one WORD line skipped, swapped with its successor or invented."""
    lines = answer.rstrip("\n").split("\n")
    first_word = next(i for i, line in enumerate(lines) if line.startswith("WORD "))
    n_words = len(lines) - first_word
    pick = first_word + _digest(seed, "line", base_prompt) % n_words
    if kind == "skip":
        del lines[pick]
    elif kind == "reorder":
        pick = min(pick, len(lines) - 2)
        lines[pick], lines[pick + 1] = lines[pick + 1], lines[pick]
    else:
        lines.append(f"WORD {n_words} invented: duration=1 pitch=1 energy=1")
    return "\n".join(lines) + "\n"


class StubState:
    """Counters and the fault schedule, shared by the handler threads."""

    def __init__(
        self, seed: int, delay_s: float, spacing: int, answer, repair_marker: str
    ) -> None:
        self.seed = seed
        self.delay_s = delay_s
        self.spacing = spacing
        self.answer = answer
        self.repair_marker = repair_marker
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.schedule = fault_schedule(self.seed, self.spacing)
            self.requests = 0
            self.connections = 0
            self.faults = {str(status): 0 for status in set(FAULTS)}
            self.fault_sequence: list[int] = []
            self.broken = {kind: 0 for kind in BREAKS}
            self.repair_requests = 0
            self.busy_ns = 0
            self.started_ns = time.perf_counter_ns()

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "faults": dict(self.faults),
                "fault_sequence": list(self.fault_sequence),
                "schedule": {str(k): v for k, v in sorted(self.schedule.items())},
                "broken": dict(self.broken),
                "repair_requests": self.repair_requests,
                "busy_ns": self.busy_ns,
                "elapsed_ns": time.perf_counter_ns() - self.started_ns,
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "perfbench-stub"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.carried_chat = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.state.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        arrived = time.perf_counter()
        state: StubState = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path == "/reset":
            state.reset()
            self._send(200, {"ok": True})
            return
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        prompt = json.loads(body)["messages"][0]["content"]
        base, marker, _ = prompt.partition(state.repair_marker)
        with state.lock:
            state.requests += 1
            sequence = state.requests
            if not self.carried_chat:
                state.connections += 1
            status = state.schedule.get(sequence, 200)
        self.carried_chat = True
        if status != 200:
            payload = {"error": {"message": f"scripted HTTP {status}"}}
        else:
            answer = state.answer(base, state.seed)
            kind = None if marker else break_kind(state.seed, base)
            if kind is not None:
                answer = corrupt(answer, kind, state.seed, base)
            payload = {"choices": [{"index": 0, "message": {"role": "assistant", "content": answer}}]}
        ready = time.perf_counter()
        with state.lock:
            state.busy_ns += int((ready - arrived) * 1e9)
            if status != 200:
                state.faults[str(status)] += 1
                state.fault_sequence.append(sequence)
            elif marker:
                state.repair_requests += 1
            elif kind is not None:
                state.broken[kind] += 1
        remaining = state.delay_s - (time.perf_counter() - arrived)
        if remaining > 0:
            time.sleep(remaining)
        self._send(status, payload)


def repair_marker() -> str:
    """The start of the repair instructions that follow a rejected answer."""
    from llmprosody import llm

    return llm.RepairPolicy().repair_instruction_template.split("{diagnostics}")[0]


def make_server(state: StubState) -> ThreadingHTTPServer:
    """A server on an ephemeral loopback port that answers from ``state``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.state = state
    return server


def _stop_at_eof(server: ThreadingHTTPServer) -> None:
    sys.stdin.read()
    server.shutdown()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    from llmprosody import llm

    state = StubState(args.seed, DELAY_S, FAULT_SPACING, llm.mock_complete, repair_marker())
    server = make_server(state)
    print(f"PORT {server.server_address[1]}", flush=True)
    threading.Thread(target=_stop_at_eof, args=(server,), daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
