"""Benchmark of the llmprosody pipeline: stats -> plan -> apply -> eval.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 25 --trace 0

Workloads: ``cli_session``, ``library_corpus``, ``http_stub`` (see
``workloads.py`` and ``README.md``).  The package is imported from the
checkout's ``src`` directory; inputs are generated from ``--seed`` under
``.perfbench/``.  Every metric is printed with its unit and sample count; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import ROOT, WORK, Metric, missing_sources


def _line(kind: str, metric: Metric, note: str = "") -> str:
    return f"{kind:<6} {metric.name:<32} {metric.value:>16.6f} {metric.unit:<6} n={metric.n:<7} {note}".rstrip()


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, Context

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"perfbench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work)
    outcome = WORKLOADS[args.workload](ctx)

    from layers import TARGETS

    tally = outcome.tally
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"why      {why[args.workload]}")
    for metric in outcome.e2e:
        alias = outcome.aliases.get(metric.name)
        print(_line("e2e", metric, f"= {alias}" if alias else ""))
    for metric in outcome.extra:
        print(_line("extra", metric))
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(_line("extra", Metric("failed_share", share, "share", tally.attempted)))
    for metric in outcome.layers or ():
        print(_line("layer", metric, "-> " + TARGETS[metric.name][1]))
    for name, ok, detail in tally.checks:
        print(f"check  {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    reported = outcome.layers if args.trace else outcome.e2e
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
