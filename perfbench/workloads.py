"""The three closed-loop workloads, each driven from one process with at most
two operations in flight (the two cores of the machine the bounds were set on).

Each workload measures its end-to-end metrics with no spans installed.  With
``trace`` it then repeats the measurement with spans around the package's
public calls, reports the per-layer metrics from those spans, and reports the
tracing overhead as the gap between the two passes.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path

import inputs
import stub as stub_module
from common import (
    BENCH, GOLDEN, ROOT, TEST_DATA, Metric, Speed, Tally, child_env, import_package,
    load_pipeline, median, one_cpu, peak_rss_mb, percentile, process_speed, run_child,
)
from layers import layer_metrics
from spans import Summary, Tracer

SETUP_CODE = "import llmprosody; llmprosody.default_exemplars()"
API_KEY_ENV = "PERFBENCH_STUB_KEY"
HTTP_BATCH = 32
HTTP_PARALLEL = 2
STUB_DELAY_NS = round(stub_module.DELAY_S * 1e9)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path


@dataclass
class Outcome:
    """What a workload measured: end-to-end metrics from the untraced pass,
    workload-specific figures that are printed but not gated, and per-layer
    metrics when traced."""

    e2e: list[Metric]
    extra: list[Metric]
    layers: list[Metric] | None
    tally: Tally
    # gated metric name -> the name the workload's design gives the same figure
    aliases: dict[str, str] = field(default_factory=dict)


def _setup_s(args: list[str], repeats: int, tally: Tally) -> tuple[Metric, Metric]:
    """Median normalised time of ``repeats`` fresh processes, after one warm-up
    that fills the bytecode and file caches; and the median wall time."""
    env = child_env()
    samples, wall = [], []
    with one_cpu():
        tally.op(run_child(args, env).returncode == 0)
        speed = process_speed()
        for _ in range(repeats):
            result = run_child(args, env)
            tally.op(result.returncode == 0)
            wall.append(result.ms / 1000.0)
            samples.append(wall[-1] * speed.factor())
    return (Metric("setup_s", median(samples), "s", repeats),
            Metric("wall.setup_s", median(wall), "s", repeats))


def _latency_metrics(samples_ms: list[float], busy_s: float) -> list[Metric]:
    n = len(samples_ms)
    return [
        Metric("utt_per_s", n / busy_s if busy_s else 0.0, "1/s", n),
        Metric("utt_ms.p50", median(samples_ms), "ms", n),
        Metric("utt_ms.p99", percentile(samples_ms, 99), "ms", n),
    ]


def _wall_metrics(setup_wall: Metric, wall_utt_ms: list[float], speed: Speed) -> list[Metric]:
    """The raw wall-clock figures behind the normalised ones, for the report."""
    return [
        setup_wall,
        Metric("wall.utt_ms.p50", median(wall_utt_ms), "ms", len(wall_utt_ms)),
        Metric("machine.slowdown", speed.slowdown(), "x", len(speed.samples)),
    ]


def _overhead(traced_ms: list[float], plain_ms: list[float]) -> tuple[float, int]:
    return median(traced_ms) / median(plain_ms) - 1.0, len(traced_ms)


def _same_bytes(path: Path, expected: str | bytes) -> bool:
    if not path.is_file():
        return False
    if isinstance(expected, str):
        expected = expected.encode("utf-8")
    return path.read_bytes() == expected


# --------------------------------------------------------------------------- cli_session


@dataclass
class CliPass:
    """Normalised process times of one session (see ``Speed``) and its outputs."""

    speed: Speed
    wall_utt_ms: list[float] = field(default_factory=list)
    plan_ms: list[float] = field(default_factory=list)
    apply_ms: list[float] = field(default_factory=list)
    stats_ms: list[float] = field(default_factory=list)
    eval_ms: list[float] = field(default_factory=list)
    outputs: list[tuple[int, Path, Path]] = field(default_factory=list)
    stats_out: Path | None = None
    mos_stdout: str = ""
    pref_stdout: str = ""
    span_files: list[Path] = field(default_factory=list)

    @property
    def utt_ms(self) -> list[float]:
        return [p + a for p, a in zip(self.plan_ms, self.apply_ms)]


def _cli_pass(ctx: Context, inp: inputs.Inputs, out: Path, traced: bool, tally: Tally) -> CliPass:
    """One session: ``stats``, then ``plan`` and ``apply`` per utterance until the
    time is nearly used, then ``eval mos`` and ``eval pref``; one process at a time."""
    out.mkdir(parents=True)
    env = child_env()
    result = CliPass(process_speed())

    def run(args: list[str]) -> tuple[float, float, str]:
        """Run one command; return its wall and normalised milliseconds and its stdout."""
        if traced:
            spans = out / f"spans{len(result.span_files):03d}.json"
            result.span_files.append(spans)
            command = [sys.executable, str(BENCH / "cli_shim.py"), str(spans), *args]
        else:
            command = [sys.executable, "-m", "llmprosody", *args]
        child = run_child(command, env)
        factor = result.speed.factor()
        if not tally.op(child.returncode == 0):
            print(f"failed: llmprosody {' '.join(args[:2])}: {child.stderr.strip()[-400:]}",
                  file=sys.stderr)
        return child.ms, child.ms * factor, child.stdout

    started = time.perf_counter()
    result.stats_out = out / "stats_cli.tsv"
    result.stats_ms.append(run(["stats", str(inp.raw_corpus), "-o", str(result.stats_out)])[1])
    i = 0
    while True:
        job = inp.job_list[i % len(inp.single)]
        features_path = inp.single_path(i)
        plan_path, modified_path = out / f"plan{i:03d}.tsv", out / f"modified{i:03d}.tsv"
        plan_wall, plan_ms, _ = run([
            "plan", "--features", str(features_path), "--stats", str(inp.stats),
            "--backend", "mock", "--seed", str(ctx.seed), *job.cli_args(), "-o", str(plan_path),
        ])
        apply_wall, apply_ms, _ = run([
            "apply", "--features", str(features_path), "--stats", str(inp.stats),
            "--plan", str(plan_path), "-o", str(modified_path),
        ])
        result.plan_ms.append(plan_ms)
        result.apply_ms.append(apply_ms)
        result.wall_utt_ms.append(plan_wall + apply_wall)
        result.outputs.append((i, plan_path, modified_path))
        i += 1
        # leave room for one more pair and the two eval commands
        if time.perf_counter() - started + 2 * result.wall_utt_ms[-1] / 1000.0 > ctx.seconds:
            break
    _, mos_ms, result.mos_stdout = run(["eval", "mos", str(inp.ratings)])
    _, pref_ms, result.pref_stdout = run(["eval", "pref", str(inp.preferences)])
    result.eval_ms += [mos_ms, pref_ms]
    return result


def _check_cli_goldens(work: Path, tally: Tally) -> None:
    """The seed-7 goldens, reproduced through the real CLI."""
    env = child_env()
    cli = [sys.executable, "-m", "llmprosody"]
    norm, stats = str(TEST_DATA / "norm_utterance.tsv"), str(TEST_DATA / "stats.tsv")
    plan, transcript = work / "golden_plan.tsv", work / "golden_transcript.txt"
    modified = work / "golden_modified.tsv"
    run_child(cli + ["plan", "--features", norm, "--stats", stats, "--backend", "mock",
                     "--seed", "7", "-o", str(plan), "--transcript", str(transcript)], env)
    run_child(cli + ["apply", "--features", norm, "--stats", stats,
                     "--plan", str(GOLDEN / "cli_plan_seed7.tsv"), "-o", str(modified)], env)
    for name, path in (("cli_plan_seed7.tsv", plan), ("cli_transcript_seed7.txt", transcript),
                       ("cli_modified_seed7.tsv", modified)):
        tally.check(f"golden {name} via CLI", _same_bytes(path, (GOLDEN / name).read_bytes()))


def _check_cli_outputs(ctx: Context, inp: inputs.Inputs, passes: list[CliPass], tally: Tally) -> None:
    """CLI outputs must equal what the in-process library gives for the same inputs."""
    pkg = import_package()
    from llmprosody import evaluation

    pipe = load_pipeline(pkg, inp.stats, pkg.llm.MockBackend(seed=ctx.seed))
    expected: dict[int, tuple[str, str]] = {}
    for run in passes:
        mismatched = 0
        for i, plan_path, modified_path in run.outputs:
            k = i % len(inp.single)
            if k not in expected:
                utterance = pkg.features.parse_features(inp.single_path(k).read_text(encoding="utf-8"))[0]
                plan_text = pipe.plan(pipe.spec(inp.job_list[k], utterance.text), utterance)
                expected[k] = (plan_text, pipe.apply(utterance, plan_text))
            ok = _same_bytes(plan_path, expected[k][0]) and _same_bytes(modified_path, expected[k][1])
            mismatched += not tally.op(ok)
        tally.check("cli plan and modified files equal the library's", mismatched == 0,
                    f"{len(run.outputs) - mismatched}/{len(run.outputs)}")
        raw = pkg.features.parse_features(inp.raw_corpus.read_text(encoding="utf-8"))
        stats_doc = pkg.features.serialize_speaker_stats(pkg.features.compute_speaker_stats(raw))
        tally.check("cli stats equals the library's", _same_bytes(run.stats_out, stats_doc))
        ratings = evaluation.parse_ratings(inp.ratings.read_text(encoding="utf-8"))
        mos = evaluation.format_mos_summary(evaluation.mos_summary(ratings))
        tally.check("cli eval mos equals the library's", run.mos_stdout == mos)
        prefs = evaluation.parse_preferences(inp.preferences.read_text(encoding="utf-8"))
        pref = evaluation.format_preference_summary(evaluation.preference_summary(prefs))
        tally.check("cli eval pref equals the library's", run.pref_stdout == pref)


def _add_cli_spans(run: CliPass, summary: Summary) -> dict:
    """Add the spans of a traced CLI pass to ``summary``; return ``cli.import_ms``."""
    slowdown = run.speed.slowdown()
    import_ms = []
    for path in run.span_files:
        if path.is_file():
            doc = json.loads(path.read_text(encoding="utf-8"))
            summary.add_document(doc, slowdown)
            import_ms.append(doc["meta"]["import_ns"] / 1e6 / slowdown)
    return {"cli.import_ms": (median(import_ms) if import_ms else 0.0, len(import_ms))}


def cli_session(ctx: Context) -> Outcome:
    tally = Tally()
    inp = inputs.generate(ctx.seed, ctx.work / "inputs")
    setup, setup_wall = _setup_s([sys.executable, "-m", "llmprosody", "--help"], 3, tally)
    with one_cpu():
        plain = _cli_pass(ctx, inp, ctx.work / "untraced", False, tally)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    passes = [plain]
    layers = None
    if ctx.trace:
        with one_cpu():
            traced = _cli_pass(ctx, inp, ctx.work / "traced", True, tally)
        passes.append(traced)
        summary = Summary()
        external = _add_cli_spans(traced, summary)
        external["trace.overhead_share"] = _overhead(traced.utt_ms, plain.utt_ms)
        layers = layer_metrics(summary, len(traced.utt_ms), external)
    _check_cli_goldens(ctx.work, tally)
    _check_cli_outputs(ctx, inp, passes, tally)
    cli_processes = 4 + 1 + 2 * len(plain.utt_ms) + 2  # set-up, stats, pairs, evals
    e2e = [setup, Metric("peak_rss_mb", rss, "MB", cli_processes)]
    e2e += _latency_metrics(plain.utt_ms, sum(plain.utt_ms) / 1000.0)
    extra = [
        Metric("cli_plan_ms.p50", median(plain.plan_ms), "ms", len(plain.plan_ms)),
        Metric("cli_apply_ms.p50", median(plain.apply_ms), "ms", len(plain.apply_ms)),
        Metric("cli_stats_ms.p50", median(plain.stats_ms), "ms", len(plain.stats_ms)),
        Metric("cli_eval_ms.p50", median(plain.eval_ms), "ms", len(plain.eval_ms)),
    ] + _wall_metrics(setup_wall, plain.wall_utt_ms, plain.speed)
    return Outcome(e2e, extra, layers, tally)


# --------------------------------------------------------------------------- library_corpus


@dataclass
class CorpusPass:
    """Raw nanoseconds per utterance and pass, each with the ``Speed`` factor of
    the stretch it ran in, plus the outputs of the first pass."""

    n: int
    passes: int
    plan: list[tuple[int, float]]
    parse: list[tuple[int, float]]
    apply: list[tuple[int, float]]
    plans: list[str | None]
    modified: list[str | None]
    speed: Speed

    def utt_ms(self, normalised: bool = True) -> list[float]:
        """Per utterance and pass: its plan time, its apply time and its share of the parse."""
        n = self.n

        def ms(sample: tuple[int, float]) -> float:
            return sample[0] * (sample[1] if normalised else 1.0) / 1e6

        return [ms(self.plan[k]) + ms(self.apply[k]) + ms(self.parse[k // n]) / n
                for k in range(len(self.plan))]

    def phase_s(self, phase: str) -> float:
        """Normalised seconds spent in the plan phase, or in the apply phase with its parses."""
        samples = self.plan if phase == "plan" else self.apply + self.parse
        return sum(ns * factor for ns, factor in samples) / 1e9


CHUNK = 100  # utterances between two speed samples: about 0.1 s of work


def _timed(fn, args_list, speed: Speed, tracer: Tracer | None, label: str):
    """Call ``fn(*args)`` for each entry, CHUNK at a time between speed samples;
    return the results (None where a call raised) and (ns, factor) per call."""
    perf_ns = time.perf_counter_ns
    results, samples = [], []
    for start in range(0, len(args_list), CHUNK):
        times = []
        for uid, args in args_list[start:start + CHUNK]:
            if tracer:
                tracer.set_utterance(uid)
            t0 = perf_ns()
            try:
                result = fn(*args)
            except Exception as exc:  # counted as a failed operation, the run goes on
                result = None
                print(f"failed: {label} {uid}: {exc!r}", file=sys.stderr)
            times.append(perf_ns() - t0)
            results.append(result)
        factor = speed.factor()
        samples += [(ns, factor) for ns in times]
    return results, samples


def _corpus_pass(pipe, doc: str, utterances: list, jobs, seconds: float,
                 tally: Tally, tracer: Tracer | None) -> CorpusPass:
    """Plan phase until 60% of the time is used, then as many apply passes."""
    speed = Speed()
    n = len(utterances)

    def plan(job, utterance):
        return pipe.plan(pipe.spec(job, utterance.text), utterance)

    plan_samples: list[tuple[int, float]] = []
    first_plans: list[str | None] | None = None
    started = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - started < 0.6 * seconds:
        plans, samples = _timed(plan, [(u.id, (job, u)) for u, job in zip(utterances, jobs)],
                                speed, tracer, "plan")
        plan_samples += samples
        if first_plans is None:
            first_plans = plans
        for a, b in zip(plans, first_plans):
            tally.op(a is not None and a == b)
        passes += 1

    def apply(utterance, plan_text):
        return pipe.apply(utterance, plan_text) if plan_text is not None else None

    parse_samples: list[tuple[int, float]] = []
    apply_samples: list[tuple[int, float]] = []
    first_modified: list[str | None] | None = None
    for _ in range(passes):
        (parsed,), samples = _timed(pipe.pkg.features.parse_features, [(None, (doc,))],
                                    speed, tracer, "parse")
        parse_samples += samples
        modified, samples = _timed(apply, [(u.id, (u, p)) for u, p in zip(parsed or (), first_plans)],
                                   speed, tracer, "apply")
        apply_samples += samples
        if first_modified is None:
            first_modified = modified
        tally.op(parsed is not None)
        for a, b in zip(modified, first_modified):
            tally.op(a is not None and a == b)
    return CorpusPass(n, passes, plan_samples, parse_samples, apply_samples,
                      first_plans, first_modified, speed)


def _check_library_goldens(pkg, tally: Tally) -> None:
    """The seed-7 CLI goldens, reproduced in-process by the same pipeline code."""
    norm = pkg.features.parse_features((TEST_DATA / "norm_utterance.tsv").read_text(encoding="utf-8"))[0]
    pipe = load_pipeline(pkg, TEST_DATA / "stats.tsv", pkg.llm.MockBackend(seed=7))
    plan = pipe.plan(pipe.spec(inputs.Job(norm.id, "neutral", None), norm.text), norm)
    golden_plan = (GOLDEN / "cli_plan_seed7.tsv").read_text(encoding="utf-8")
    tally.check("golden cli_plan_seed7.tsv in-process", plan == golden_plan)
    modified = pipe.apply(norm, golden_plan)
    tally.check("golden cli_modified_seed7.tsv in-process",
                modified == (GOLDEN / "cli_modified_seed7.tsv").read_text(encoding="utf-8"))


def _check_invariants(pkg, stats, utterances: list, modified: list[str | None], tally: Tally) -> None:
    """Pauses untouched, structure kept, every voiced F0 inside the speaker range."""
    denorm_f0 = pkg.modifier.denorm_f0
    bad = 0
    for utterance, text in zip(utterances, modified):
        if text is None:
            continue
        after = pkg.features.parse_features(text)[0]
        ok = len(after.phones) == len(utterance.phones)
        for before_ph, after_ph in zip(utterance.phones, after.phones):
            if before_ph.pause:
                ok &= before_ph == after_ph
            elif after_ph.voiced:
                hz = denorm_f0(after_ph.f0, stats)
                ok &= stats.f0_min_hz * (1 - 1e-5) <= hz <= stats.f0_max_hz * (1 + 1e-5)
        bad += not ok
    tally.check("modified utterances keep pauses and the F0 range", bad == 0,
                f"{len(utterances) - bad}/{len(utterances)}")


def library_corpus(ctx: Context) -> Outcome:
    tally = Tally()
    inp = inputs.generate(ctx.seed, ctx.work / "inputs")
    setup, setup_wall = _setup_s([sys.executable, "-c", SETUP_CODE], 5, tally)
    pkg = import_package()
    backend = pkg.llm.MockBackend(seed=ctx.seed)
    pipe = load_pipeline(pkg, inp.stats, backend)
    doc = inp.corpus.read_text(encoding="utf-8")
    utterances = pkg.features.parse_features(doc)
    tally.check("corpus has voiced phones outside the F0 range", inp.out_of_range_phones > 0,
                str(inp.out_of_range_phones))
    plain = _corpus_pass(pipe, doc, utterances, inp.job_list, ctx.seconds, tally, None)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    layers = None
    if ctx.trace:
        tracer = Tracer()
        tracer.instrument()
        try:
            traced_pipe = replace(pipe, backend=tracer.wrap("llm.backend", backend))
            traced = _corpus_pass(traced_pipe, doc, utterances, inp.job_list, ctx.seconds, tally, tracer)
        finally:
            tracer.restore()
        tracer.dump(ctx.work / "spans.json")
        summary = Summary()
        summary.add_tracer(tracer, traced.speed.slowdown())
        layers = layer_metrics(summary, traced.n * traced.passes, {
            "trace.overhead_share": _overhead(traced.utt_ms(), plain.utt_ms()),
        })
    _check_library_goldens(pkg, tally)
    _check_invariants(pkg, pipe.stats, utterances, plain.modified, tally)

    n_ops = plain.n * plain.passes
    plan_s, apply_s = plain.phase_s("plan"), plain.phase_s("apply")
    e2e = [setup, Metric("peak_rss_mb", rss, "MB", 1)]
    e2e += _latency_metrics(plain.utt_ms(), plan_s + apply_s)
    plan_ms = [ns * factor / 1e6 for ns, factor in plain.plan]
    extra = [
        Metric("lib_plan_utt_per_s", n_ops / plan_s, "1/s", n_ops),
        Metric("lib_apply_utt_per_s", n_ops / apply_s, "1/s", n_ops),
        Metric("lib_plan_ms.p50", median(plan_ms), "ms", n_ops),
        Metric("lib_plan_ms.p99", percentile(plan_ms, 99), "ms", n_ops),
    ] + _wall_metrics(setup_wall, plain.utt_ms(normalised=False), plain.speed)
    return Outcome(e2e, extra, layers, tally)


# --------------------------------------------------------------------------- http_stub


class Stub:
    """The stub server in its own process; stopped and waited for on exit."""

    def __init__(self, seed: int, work: Path) -> None:
        self.err = open(work / "stub.stderr", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--seed", str(seed)],
            env=child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err, text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout=60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("the stub did not report its port")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def control(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(self.url + path, data=b"" if post else None,
                                         method="POST" if post else "GET")
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.stdin.close()  # the stub stops at end of input
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()

    def __enter__(self) -> "Stub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class HttpPass:
    """Normalised latencies and batch time (see ``_http_pass``), the raw
    latencies, the results' tally and the stub's counters."""

    latency_ms: list[float]
    wall_latency_ms: list[float]
    busy_s: float
    completed: int
    repaired: int
    stub: dict
    speed: Speed


def _http_pass(pkg, stub: Stub, specs: list, backend, expected: list, seconds: float,
               tally: Tally, tracer: Tracer | None) -> HttpPass:
    """``suggest_batch`` over the corpus in batches until the time is used; every
    result is checked against the mock suggestion and the scripted breakage.

    Part of each call's time does not depend on the CPU: the stub's service
    delay, once per request, and the backoff sleeps of ``complete`` before
    each retry.  Only the rest, the client's own work, is scaled by the
    ``Speed`` factor; a batch's time is scaled as its calls' times are.
    """
    llm = pkg.llm
    stub.control("/reset", post=True)
    perf_ns = time.perf_counter_ns
    calls: list[tuple[int, int]] = []  # per call: wall ns, and how much of it was fixed waiting
    waits = threading.local()
    complete_defaults = llm.complete.__kwdefaults__
    real_sleep = complete_defaults["sleep"]

    def sleep(seconds: float) -> None:
        t0 = perf_ns()
        real_sleep(seconds)
        waits.retries += 1
        waits.slept_ns += perf_ns() - t0

    def timed(spec, backend, policy=llm.RepairPolicy()):
        waits.retries = waits.slept_ns = 0
        t0 = perf_ns()
        result = suggest(spec, backend, policy)
        wall = perf_ns() - t0
        requests = len(result[1]) + waits.retries
        calls.append((wall, min(wall, requests * STUB_DELAY_NS + waits.slept_ns)))
        return result

    llm.complete.__kwdefaults__ = {**complete_defaults, "sleep": sleep}
    if tracer:
        tracer.instrument()
        backend = tracer.wrap("llm.backend", backend)
    suggest = llm.suggest_with_repair  # traced, if the tracer is installed
    llm.suggest_with_repair = timed
    speed = Speed()
    latency_ms: list[float] = []
    busy_ns = 0.0
    completed = 0
    repaired = 0
    cursor = 0
    started = time.perf_counter()
    try:
        while time.perf_counter() - started < seconds:
            indices = [(cursor + k) % len(specs) for k in range(HTTP_BATCH)]
            cursor += HTTP_BATCH
            t0 = time.perf_counter_ns()
            try:
                results = llm.suggest_batch([specs[i] for i in indices], backend,
                                            max_parallel=HTTP_PARALLEL)
            except Exception as exc:  # counted as failed operations, the run goes on
                print(f"failed: suggest_batch: {exc!r}", file=sys.stderr)
                results = [None] * len(indices)
            batch_ns = time.perf_counter_ns() - t0
            factor = speed.factor()
            batch = calls[len(latency_ms):]
            normalised = [fixed + (wall - fixed) * factor for wall, fixed in batch]
            latency_ms += [ns / 1e6 for ns in normalised]
            busy_ns += batch_ns * sum(normalised) / max(1, sum(wall for wall, _ in batch))
            for i, result in zip(indices, results):
                want_suggestion, want_attempts = expected[i]
                ok = (result is not None and result[0] == want_suggestion
                      and len(result[1]) == want_attempts
                      and (want_attempts == 1 or any(d.fatal for d in result[1][0].diagnostics)))
                completed += tally.op(ok)
                repaired += ok and want_attempts == 2
    finally:
        llm.suggest_with_repair = suggest
        if tracer:
            tracer.restore()
        llm.complete.__kwdefaults__ = complete_defaults
    return HttpPass(latency_ms, [wall / 1e6 for wall, _ in calls], busy_ns / 1e9, completed,
                    repaired, stub.control("/stats"), speed)


def _check_stub(run: HttpPass, tally: Tally) -> None:
    s = run.stub
    due = [int(k) for k in s["schedule"] if int(k) <= s["requests"]]
    tally.check("stub served every scheduled 503/429 and no other",
                sorted(s["fault_sequence"]) == sorted(due) and sum(s["faults"].values()) == len(due),
                f"{len(s['fault_sequence'])} of {len(due)}")
    tally.check("every scripted broken answer was repaired",
                sum(s["broken"].values()) == run.repaired == s["repair_requests"],
                f"broken {sum(s['broken'].values())}, repair requests {s['repair_requests']}, "
                f"repaired {run.repaired}")


def http_stub(ctx: Context) -> Outcome:
    tally = Tally()
    inp = inputs.generate(ctx.seed, ctx.work / "inputs")
    setup, setup_wall = _setup_s([sys.executable, "-c", SETUP_CODE], 5, tally)
    pkg = import_package()
    os.environ[API_KEY_ENV] = "perfbench-stub-key"
    mock = pkg.llm.MockBackend(seed=ctx.seed)
    pipe = load_pipeline(pkg, inp.stats, mock)
    utterances = pkg.features.parse_features(inp.corpus.read_text(encoding="utf-8"))
    specs = [pipe.spec(job, u.text) for u, job in zip(utterances, inp.job_list)]
    # expected outcome per utterance: the mock suggestion, and two attempts
    # where the stub's schedule breaks the first answer
    expected = []
    for spec in specs:
        suggestion, attempts = pkg.llm.suggest_with_repair(spec, mock)
        broken = stub_module.break_kind(ctx.seed, attempts[0].prompt) is not None
        expected.append((suggestion, 2 if broken else 1))
    layers = None
    with Stub(ctx.seed, ctx.work) as stub:
        backend = pkg.llm.HttpBackend(pkg.llm.BackendConfig(
            base_url=stub.url + "/v1", model_name="perfbench-stub",
            api_key_env=API_KEY_ENV, max_parallel=HTTP_PARALLEL,
        ))
        plain = _http_pass(pkg, stub, specs, backend, expected, ctx.seconds, tally, None)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        runs = [plain]
        if ctx.trace:
            tracer = Tracer()
            tracer.utterance_of.update({id(spec): u.id for spec, u in zip(specs, utterances)})
            traced = _http_pass(pkg, stub, specs, backend, expected, ctx.seconds, tally, tracer)
            runs.append(traced)
            tracer.dump(ctx.work / "spans.json")
            summary = Summary()
            # wall time: most of a backend span is the stub's fixed delay
            summary.add_tracer(tracer, 1.0)
            s = traced.stub
            layers = layer_metrics(summary, traced.completed, {
                "llm.http_retries": (sum(s["faults"].values()), s["requests"]),
                "llm.requests_per_connection": (s["requests"] / max(1, s["connections"]), s["connections"]),
                "stub.busy_share": (s["busy_ns"] / s["elapsed_ns"], s["requests"]),
                "trace.overhead_share": _overhead(traced.latency_ms, plain.latency_ms),
            })
    for run in runs:
        _check_stub(run, tally)
    e2e = [setup, Metric("peak_rss_mb", rss, "MB", 1)]
    e2e += _latency_metrics(plain.latency_ms, plain.busy_s)
    extra = _wall_metrics(setup_wall, plain.wall_latency_ms, plain.speed)
    aliases = {name: f"http_{name}" for name in ("utt_per_s", "utt_ms.p50", "utt_ms.p99")}
    return Outcome(e2e, extra, layers, tally, aliases)


WORKLOADS = {"cli_session": cli_session, "library_corpus": library_corpus, "http_stub": http_stub}
