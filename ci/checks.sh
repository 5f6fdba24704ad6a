#!/usr/bin/env bash
# Every check a change must pass, once the package is installed: ci/checks.sh BARE_PYTHON TEST_PYTHON
# BARE_PYTHON has the package without extras, TEST_PYTHON with its test extra. Run it from the repo root.
set -euo pipefail
bare=$1 test_python=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# a stale bytecode cache changes what cli_session measures
test -z "$(git ls-files '*.egg-info/*' '*__pycache__/*' '*.pyc' '*.hypothesis/*')"

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "$test_python" -m pytest -q --continue-on-collection-errors

# click, numpy and scipy are only in the test extra; a bare install has none of them and
# must print the bytes the .[test] install prints, and plan and apply the goldens' bytes
"$bare" -c 'import importlib.util, sys; sys.exit(any(importlib.util.find_spec(m) for m in ("click", "numpy", "scipy")))'
same_output() {
  "$bare" -m llmprosody "$@" > "$out/bare.txt"
  "$test_python" -m llmprosody "$@" > "$out/test.txt"
  cmp "$out/bare.txt" "$out/test.txt"
}
same_output stats tests/data/raw_corpus.tsv
printf 'stimulus_id\tsystem_id\trater_id\tscore\ns1\tbaseline\tr1\t3\ns2\tbaseline\tr1\t4\ns3\tbaseline\tr2\t5\ns1\tproposed\tr1\t4\ns2\tproposed\tr1\t5\ns3\tproposed\tr2\t4\n' > "$out/ratings.tsv"
same_output eval mos "$out/ratings.tsv"
# plan, then apply, through the library's plan_utterance and apply_plan: the goldens' bytes
"$bare" -m llmprosody plan --features tests/data/norm_utterance.tsv --stats tests/data/stats.tsv --seed 7 \
  -o "$out/plan.tsv" --transcript "$out/transcript.txt"
"$bare" -m llmprosody apply --features tests/data/norm_utterance.tsv --stats tests/data/stats.tsv \
  --plan "$out/plan.tsv" -o "$out/modified.tsv"
cmp "$out/plan.tsv" tests/golden/cli_plan_seed7.tsv
cmp "$out/transcript.txt" tests/golden/cli_transcript_seed7.txt
cmp "$out/modified.tsv" tests/golden/cli_modified_seed7.tsv
# the value types are namedtuples: a plan process, which loads every layer but evaluation, imports no
# dataclasses (the llmprosody.prompting line shows that the import log covers those layers)
"$bare" -X importtime -m llmprosody plan --features tests/data/norm_utterance.tsv --stats tests/data/stats.tsv \
  --seed 7 -o "$out/plan.tsv" 2> "$out/importtime.txt"
grep -qE '\| +llmprosody\.prompting$' "$out/importtime.txt"
test -z "$(grep -E '\| +dataclasses$' "$out/importtime.txt")"
# a valid plan or apply line is parsed without argparse (and gettext and locale, which its messages load),
# and its files are read and written without pathlib; for apply, the llmprosody.cli line shows that the
# log covers the import that used to load both
test -z "$(grep -E '\| +(argparse|gettext|locale|pathlib)$' "$out/importtime.txt")"
"$bare" -X importtime -m llmprosody apply --features tests/data/norm_utterance.tsv --stats tests/data/stats.tsv \
  --plan tests/golden/cli_plan_seed7.tsv -o "$out/modified.tsv" 2> "$out/importtime.txt"
grep -qE '\| +llmprosody\.cli$' "$out/importtime.txt"
test -z "$(grep -E '\| +(argparse|gettext|locale|pathlib)$' "$out/importtime.txt")"
# the golden plan under stats with another F0 range has other BOUNDS: exit 2, no output file
sed 's/^f0_max_hz\t300\.0$/f0_max_hz\t310.0/' tests/data/stats.tsv > "$out/stats_310.tsv"
grep -q '^f0_max_hz.310\.0$' "$out/stats_310.tsv"
"$bare" -m llmprosody apply --features tests/data/norm_utterance.tsv --stats "$out/stats_310.tsv" \
  --plan tests/golden/cli_plan_seed7.tsv -o "$out/refused.tsv" && exit 1 || test "$?" -eq 2
test ! -e "$out/refused.tsv"

"$test_python" -m pytest -q perfbench/tests

# a short benchmark run (WORKLOAD TRACE [CONDITION on its result r]): the last line is the JSON result,
# which must read correct with no failed operation; the redirect keeps run.py's exit status
bench() {
  "$test_python" perfbench/run.py --workload "$1" --seed 1 --seconds 3 --trace "$2" > "$out/bench.txt"
  tail -n 1 "$out/bench.txt"
  "$test_python" -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0 and eval(sys.argv[2])))' \
    "$(tail -n 1 "$out/bench.txt")" "${3:-True}"
}
# the goldens, byte-stable passes and F0-range checks run in-process
bench library_corpus 0
# the traced pass wraps module attributes, so a layer that the pipeline calls any other way reads 0
bench library_corpus 1 'all(r["metrics"][m]["value"] > 0 for m in (
  "features.parse_us_per_utt", "features.serialize_us_per_utt", "prompting.build_prompt_us", "llm.suggest_us",
  "llm.backend_ms", "response.parse_us", "mapping.build_plan_us", "mapping.serialize_plan_us",
  "mapping.parse_plan_us", "modifier.apply_plan_us"))'
# the only workload that runs the HTTP transport, its retry path and the repair loop, against
# a loopback stub; the traced pass guards connection reuse: one connection per request reads 1
bench http_stub 0
bench http_stub 1 'r["metrics"]["llm.requests_per_connection"]["value"] > 1'
# the only workload that runs the goldens through real CLI processes (stats, plan, apply, eval)
bench cli_session 0
# the traced pass wraps the modules loaded before a command runs; a command's own late imports
# (evaluation, modifier) must still run and give the library's bytes
bench cli_session 1
