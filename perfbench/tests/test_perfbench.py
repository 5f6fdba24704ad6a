"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench/tests``."""

import http.client
import json
import math
import random
import subprocess
import sys
import threading

import pytest

import inputs
import stub
from common import BENCH, ROOT
from layers import TARGETS
from spans import Summary

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        first = inputs.generate(7, tmp_path / "a", n_utterances=200, n_raw=50, n_single=4)
        inputs.generate(7, tmp_path / "b", n_utterances=200, n_raw=50, n_single=4)
        a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
        assert a == b
        assert len(a) == 6 + 4
        assert first.out_of_range_phones > 0

    def test_other_seed_other_inputs_same_mix(self, tmp_path):
        inputs.generate(7, tmp_path / "a", n_utterances=200, n_raw=50, n_single=4)
        inputs.generate(8, tmp_path / "b", n_utterances=200, n_raw=50, n_single=4)
        a = (tmp_path / "a" / "corpus_norm.tsv").read_text()
        b = (tmp_path / "b" / "corpus_norm.tsv").read_text()
        assert a != b
        assert (sorted(inputs._word_counts(random.Random(1), 200))
                == sorted(inputs._word_counts(random.Random(2), 200)))

    def test_package_accepts_the_inputs(self, tmp_path):
        from llmprosody import evaluation, features

        generated = inputs.generate(3, tmp_path, n_utterances=100, n_raw=50, n_single=2)
        corpus = features.parse_features(generated.corpus.read_text())
        assert [u.id for u in corpus] == [j.utterance_id for j in generated.job_list]
        stats = features.parse_speaker_stats(generated.stats.read_text())
        features.compute_speaker_stats(features.parse_features(generated.raw_corpus.read_text()))
        evaluation.mos_summary(evaluation.parse_ratings(generated.ratings.read_text()))
        evaluation.preference_summary(evaluation.parse_preferences(generated.preferences.read_text()))
        hz = [math.exp(ph.f0 * stats.sigma_logf0 + stats.mu_logf0)
              for u in corpus for ph in u.phones if ph.voiced]
        assert min(hz) < stats.f0_min_hz and max(hz) > stats.f0_max_hz


@pytest.fixture
def stub_server():
    """The stub in-process, with a short delay and faults 16 requests apart."""
    from llmprosody import llm

    state = stub.StubState(5, 0.0005, 16, llm.mock_complete, stub.repair_marker())
    server = stub.make_server(state)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def _prompt(k: int) -> str:
    words = [f"w{k}x{i}" for i in range(3 + k % 4)]
    return "Words:\n" + "".join(f"{i} {w}\n" for i, w in enumerate(words)) + "Response:\n"


class TestStub:
    def test_serves_exactly_its_schedule(self, stub_server):
        from llmprosody import llm

        marker = stub.repair_marker()
        schedule = stub.fault_schedule(5, 16)
        n = 70
        conn = http.client.HTTPConnection("127.0.0.1", stub_server, timeout=10)
        broken = 0
        for sequence in range(1, n + 1):
            prompt = _prompt(sequence)
            if sequence % 5 == 0:
                prompt += marker + "line 1: UnparseableLine: x\n"
            body = json.dumps({"model": "m", "messages": [{"role": "user", "content": prompt}]})
            conn.request("POST", "/v1/chat/completions", body=body,
                          headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == schedule.get(sequence, 200)
            if response.status != 200:
                continue
            base = prompt.partition(marker)[0]
            expected = llm.mock_complete(base, 5)
            kind = None if sequence % 5 == 0 else stub.break_kind(5, base)
            if kind is not None:
                expected = stub.corrupt(expected, kind, 5, base)
                broken += 1
            assert payload["choices"][0]["message"]["content"] == expected
        conn.close()

        conn = http.client.HTTPConnection("127.0.0.1", stub_server, timeout=10)
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
        due = sorted(k for k in schedule if k <= n)
        assert stats["requests"] == n
        assert stats["connections"] == 1
        assert stats["fault_sequence"] == due
        assert sum(stats["faults"].values()) == len(due) == len(stub.FAULTS)
        assert sum(stats["broken"].values()) == broken > 0
        assert stats["repair_requests"] == n // 5 - sum(1 for k in due if k % 5 == 0)

    def test_broken_answers_fail_the_parser(self):
        from llmprosody import features, llm, response

        for kind in stub.BREAKS:
            for k in range(10):
                prompt = _prompt(k)
                words = features.tokenize_words(" ".join(line.split()[1] for line in prompt.split("\n")[1:-2]))
                answer = stub.corrupt(llm.mock_complete(prompt, 1), kind, 1, prompt)
                assert not response.parse_response(answer, words).ok


class TestMetricNames:
    def test_layer_targets_match_benchmark_json(self):
        assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
            (name, unit) for name, (unit, _) in TARGETS.items()
        ]

    @pytest.mark.parametrize("trace", [0, 1])
    def test_printed_metrics_match_benchmark_json(self, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "library_corpus",
             "--seed", "2", "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
        printed = {line.split()[1] for line in proc.stdout.split("\n")
                   if line.startswith(("e2e ", "layer "))}
        assert printed == {m["name"] for m in wanted} | (
            {m["name"] for m in BENCHMARK["end_to_end"]} if trace else set())


def test_self_time_subtracts_children():
    summary = Summary()
    # parent 0-100 with children 10-30 and 40-90, the second with a child 50-60
    summary.add_spans([
        (1, "llm.suggest_with_repair", 0, 100, 0, "u"),
        (2, "prompting.build_prompt", 10, 30, 1, "u"),
        (3, "llm.backend", 40, 90, 1, "u"),
        (4, "response.serialize_suggestion", 50, 60, 3, "u"),
    ])
    assert summary.layer_self_ns["llm"] == (100 - 20 - 50) + (50 - 10)
    assert summary.layer_self_ns["prompting"] == 20
    assert summary.layer_self_ns["response"] == 10
    assert summary.child_ns["llm.suggest_with_repair"]["llm.backend"] == 50
