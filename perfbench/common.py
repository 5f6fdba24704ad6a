"""Helpers shared by the workloads: the checkout layout, child processes,
statistics, the tally of operations and the per-utterance pipeline."""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
GOLDEN = ROOT / "tests" / "golden"
TEST_DATA = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120


def missing_sources() -> list[str]:
    """Files of the checkout the benchmark needs and cannot find."""
    needed = [
        SRC / "llmprosody" / "__init__.py",
        TEST_DATA / "norm_utterance.tsv",
        TEST_DATA / "stats.tsv",
        GOLDEN / "cli_plan_seed7.tsv",
        GOLDEN / "cli_transcript_seed7.txt",
        GOLDEN / "cli_modified_seed7.tsv",
    ]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def import_package():
    """Import the package from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import llmprosody

    if Path(llmprosody.__file__).resolve().parent != (SRC / "llmprosody").resolve():
        raise RuntimeError(f"llmprosody imported from {llmprosody.__file__}, not from {SRC}")
    return llmprosody


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    ms: float
    returncode: int
    stdout: str
    stderr: str


def run_child(args: list[str], env: dict[str, str]) -> ChildResult:
    """Run one child process to completion and time it from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        args, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    ms = (time.perf_counter() - start) * 1000.0
    return ChildResult(ms, proc.returncode, proc.stdout, proc.stderr)


# How long each reference takes on a quiet CPU of the machine the bounds were
# set on; normalised times read as wall times at that speed.
LOOP_NOMINAL_NS = 4_500_000
PROCESS_NOMINAL_NS = 150_000_000
# a fresh interpreter importing modules the package does not own, so that no
# change to the program changes the reference
REFERENCE_IMPORTS = "import numpy, click, json, decimal, email.parser"


def _reference_loop() -> float:
    """Fixed pure-Python work (formatting, splitting, dicts, floats) that uses
    nothing from the package, so no change to the program changes it."""
    table = {}
    total = 0.0
    for i in range(4000):
        text = f"{i * 0.37:.6f}\t{i}"
        number, key = text.split("\t")
        table[key] = float(number) * 1.5
        total += table[key]
    return total


def loop_ns() -> int:
    """One run of the in-process reference."""
    start = time.perf_counter_ns()
    _reference_loop()
    return time.perf_counter_ns() - start


def process_ns() -> int:
    """One run of the process reference: a fresh interpreter doing fixed imports."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], env=child_env(), cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter_ns() - start


class Speed:
    """Tracks how fast the machine runs right now.

    The CPUs are shared with other tenants: the same pure-Python loop takes
    anywhere from 1x to 2x its quiet time, in phases that last from a fraction
    of a second to minutes.  Every timed stretch of work is bracketed by runs
    of a fixed reference, and its time is scaled by the reference's nominal
    time over the mean of the two brackets: the time the work would have taken
    at the nominal speed.  In-process work is bracketed by ``loop_ns``; child
    processes by ``process_ns``, because process start-up slows down less than
    pure Python does when the machine is busy.
    """

    def __init__(self, sample=loop_ns, nominal_ns: int = LOOP_NOMINAL_NS) -> None:
        self.sample = sample
        self.nominal_ns = nominal_ns
        self.samples = [sample()]

    def factor(self) -> float:
        """Close the stretch since the last sample; return its scale factor."""
        before = self.samples[-1]
        self.samples.append(self.sample())
        return 2 * self.nominal_ns / (before + self.samples[-1])

    def slowdown(self) -> float:
        """Median reference time over its nominal time, for the report."""
        return statistics.median(self.samples) / self.nominal_ns


def process_speed() -> Speed:
    return Speed(process_ns, PROCESS_NOMINAL_NS)


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the children it starts meanwhile, on one CPU.

    ``Speed`` samples the CPU the benchmark runs on; a child timed against it
    must run there too, or the two CPUs' different loads make the correction
    add noise instead of removing it.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb(who: int) -> float:
    """Peak resident set size of this process or of its waited-for children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int


@dataclass
class Tally:
    """Operations attempted and failed, and the named output checks."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, ok, detail))
        return self.op(ok)


@dataclass
class Pipeline:
    """The package's pipeline for one utterance, called through module attributes
    so that spans installed on those attributes see every call."""

    pkg: object
    stats: object
    exemplars: tuple
    backend: object

    def spec(self, job, text: str):
        prompting = self.pkg.prompting
        return prompting.PromptSpec(
            mode=prompting.Mode(job.mode), target_text=text, context=job.context,
            exemplars=self.exemplars,
        )

    def plan(self, spec, utterance) -> str:
        """build_prompt -> backend -> parse_response -> build_plan -> serialize_plan."""
        pkg = self.pkg
        suggestion, _ = pkg.llm.suggest_with_repair(spec, self.backend)
        plan = pkg.mapping.build_plan(suggestion, utterance, self.stats)
        return pkg.mapping.serialize_plan(plan)

    def apply(self, utterance, plan_text: str) -> str:
        """parse_plan -> apply_plan -> serialize_features."""
        pkg = self.pkg
        plan = pkg.mapping.parse_plan(plan_text)
        modified = pkg.modifier.apply_plan(utterance, self.stats, plan)
        return pkg.features.serialize_features([modified])


def load_pipeline(pkg, stats_path: Path, backend) -> Pipeline:
    stats = pkg.features.parse_speaker_stats(stats_path.read_text(encoding="utf-8"))
    return Pipeline(pkg, stats, pkg.prompting.default_exemplars(), backend)
