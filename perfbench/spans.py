"""Spans around the public calls into each module of the package.

The benchmark does not change the program: it replaces the package's public
functions, in every module namespace that holds them, with wrappers that
record a span (id, name, start, end, parent, utterance id) and restores them
afterwards.  Spans stay in memory until :meth:`Tracer.dump`.

A span's layer is the first part of its name, which is the module name.  A
layer's self time is the duration of its spans minus the part covered by
their child spans; time in code that has no span of its own is charged to the
nearest enclosing span.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "features", "prompting", "llm", "response", "mapping", "modifier", "evaluation")

# suggest_batch is left out on purpose: it only waits on its worker threads,
# whose spans are roots of their own, so a span around it would charge that
# waiting to the llm layer as self time.
TRACED = {
    "features": (
        "parse_features", "serialize_features", "compute_speaker_stats",
        "parse_speaker_stats", "serialize_speaker_stats", "tokenize_words",
    ),
    "prompting": ("build_prompt", "default_exemplars"),
    "llm": ("suggest_with_repair", "complete", "mock_complete"),
    "response": ("parse_response", "serialize_suggestion"),
    "mapping": ("build_plan", "serialize_plan", "parse_plan"),
    "modifier": ("apply_plan",),
    "evaluation": (
        "parse_ratings", "mos_summary", "format_mos_summary",
        "parse_preferences", "preference_summary", "format_preference_summary",
    ),
}


class PromptStats:
    """Size of the prompts built and the prefix every one of them shares."""

    def __init__(self) -> None:
        self.count = 0
        self.total_chars = 0
        self.prefix: str | None = None

    def add(self, prompt: str) -> None:
        self.merge(1, len(prompt), prompt)

    def merge(self, count: int, total_chars: int, prefix: str | None) -> None:
        """Fold in ``count`` prompts of ``total_chars`` that all start with ``prefix``."""
        if prefix is None:
            return
        self.count += count
        self.total_chars += total_chars
        if self.prefix is None:
            self.prefix = prefix
        elif not prefix.startswith(self.prefix):
            self.prefix = os.path.commonprefix([self.prefix, prefix])

    def shared_share(self) -> float:
        if not self.total_chars:
            return 0.0
        return self.count * len(self.prefix) / self.total_chars

    def to_json(self) -> dict:
        return {"count": self.count, "total_chars": self.total_chars, "prefix": self.prefix}


def _observe(tracer: "Tracer", name: str, args: tuple, result) -> None:
    """Counts taken at the layer boundaries, next to the spans."""
    counts = tracer.counts
    if name == "prompting.build_prompt":
        tracer.prompts.add(result)
    elif name == "llm.suggest_with_repair":
        attempts = result[1]
        counts["utterances_suggested"] += 1
        counts["attempts"] += len(attempts)
        counts["first_attempt_ok"] += not any(d.fatal for d in attempts[0].diagnostics)
        counts["fatal_diags"] += sum(d.fatal for a in attempts for d in a.diagnostics)
    elif name == "features.parse_features":
        counts["utterances_parsed"] += len(result)
    elif name == "features.serialize_features":
        counts["utterances_serialized"] += len(args[0])
    elif name == "mapping.build_plan":
        counts["plans"] += 1
        counts["clamp_notes"] += len(result.clamp_notes)
    elif name == "modifier.apply_plan":
        counts["phones_applied"] += len(args[0].phones)


class Tracer:
    """Records spans around traced functions; one instance per measured run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, str | None]] = []
        self.counts: Counter = Counter()
        self.prompts = PromptStats()
        self.utterance_of: dict[int, str] = {}
        # worker threads of suggest_batch observe at once; counts and prompt
        # statistics are read-modify-write updates
        self.lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.utterance = None
        return local

    def set_utterance(self, utterance_id: str | None) -> None:
        """Tag the spans this thread records next with ``utterance_id``."""
        self._state().utterance = utterance_id

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``.

        The utterance id comes from the first argument when it was registered
        in :attr:`utterance_of`, else from the enclosing span.
        """
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            outer_utterance = local.utterance
            if args:
                local.utterance = tracer.utterance_of.get(id(args[0]), outer_utterance)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, local.utterance))
                local.utterance = outer_utterance
            with tracer.lock:
                _observe(tracer, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def instrument(self) -> None:
        """Wrap every traced function in every loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "llmprosody" or n.startswith("llmprosody."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"llmprosody.{layer}")
            if home is None:
                continue
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: Path, **meta) -> None:
        """Write the spans, counts and prompt statistics as one JSON document."""
        doc = {
            "meta": meta,
            "counts": dict(self.counts),
            "prompts": self.prompts.to_json(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


class Summary:
    """Per-function and per-layer totals over the spans of one or more tracers.

    Each source of spans comes with the median slowdown of the pass that
    recorded it (see ``common.Speed``); durations are divided by it, so that
    they read as times at the nominal speed, like the end-to-end metrics.  A
    slowdown of 1 keeps wall time, for spans that mostly wait.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.child_ns: defaultdict = defaultdict(Counter)
        self.layer_self_ns: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.prompts = PromptStats()

    def add_spans(self, spans, slowdown: float = 1.0) -> None:
        by_id = {}
        covered: Counter = Counter()
        for span_id, name, start, end, parent, _ in spans:
            by_id[span_id] = name
            if parent:
                covered[parent] += end - start
        for span_id, name, start, end, parent, _ in spans:
            duration = (end - start) / slowdown
            layer = name.split(".", 1)[0]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.layer_calls[layer] += 1
            self.layer_self_ns[layer] += duration - covered[span_id] / slowdown
            if parent and parent in by_id:
                self.child_ns[by_id[parent]][name] += duration

    def add_tracer(self, tracer: Tracer, slowdown: float) -> None:
        self.add_spans(tracer.spans, slowdown)
        self.counts.update(tracer.counts)
        self.prompts.merge(tracer.prompts.count, tracer.prompts.total_chars, tracer.prompts.prefix)

    def add_document(self, doc: dict, slowdown: float) -> None:
        self.add_spans([tuple(s) for s in doc["spans"]], slowdown)
        self.counts.update(doc["counts"])
        prompts = doc["prompts"]
        self.prompts.merge(prompts["count"], prompts["total_chars"], prompts["prefix"])

    def mean_ns(self, name: str) -> float:
        calls = self.calls[name]
        return self.total_ns[name] / calls if calls else 0.0
