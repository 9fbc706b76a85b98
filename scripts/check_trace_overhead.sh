#!/usr/bin/env bash
# Flight-recorder absence gate: runs the perf suite twice — once with
# --trace off and once with a live RingSink on gnutella_day — and compares
# the rows.  The contract this enforces:
#
#   * the queue_ops_* rows drive the bare event queue and never reach the
#     engine, so no sink is in their path; they must stay within
#     --threshold (default 5%) of the untraced run.  This shows the
#     recorder is absent from the queue; it does not measure what
#     recording costs (perfbench's trace.overhead metric does);
#   * gnutella_day (full engine with the ring attached) is reported
#     informationally — CI machines are too noisy to gate on it.
#
# Both runs use --repeat best-of-N so one noisy neighbor can't fail the
# gate.
#
# Usage: scripts/check_trace_overhead.sh [--build-dir DIR] [--repeat N]
#                                        [--threshold PCT]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
repeat=3
threshold=5

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --threshold) threshold="$2"; shift 2 ;;
    *) echo "usage: $0 [--build-dir DIR] [--repeat N] [--threshold PCT]" >&2
       exit 2 ;;
  esac
done

if [[ ! -x "${build_dir}/bench/bench_perf_suite" ]]; then
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" --target bench_perf_suite -j
fi

off_json="$(mktemp)" ring_json="$(mktemp)"
trap 'rm -f "${off_json}" "${ring_json}"' EXIT

"${build_dir}/bench/bench_perf_suite" --quick --repeat "${repeat}" \
  --trace off --out "${off_json}"
"${build_dir}/bench/bench_perf_suite" --quick --repeat "${repeat}" \
  --trace ring --out "${ring_json}"

python3 - "${off_json}" "${ring_json}" "${threshold}" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "dsf-perf-suite-v1", "unexpected schema"
    return {r["name"]: r["items_per_s"] for r in doc["results"]}

off_run, ring_run = load(sys.argv[1]), load(sys.argv[2])
threshold = float(sys.argv[3])

failed = False
for name in sorted(off_run):
    base, traced = off_run[name], ring_run[name]
    overhead = 100.0 * (base - traced) / base
    gated = name.startswith("queue_ops")
    verdict = "ok"
    if gated and overhead > threshold:
        verdict = f"FAIL (> {threshold:.1f}%)"
        failed = True
    elif not gated:
        verdict = "info"
    print(f"{name:<20} off {base:>14.0f}/s  ring {traced:>14.0f}/s  "
          f"overhead {overhead:+6.2f}%  [{verdict}]")

if failed:
    sys.exit(1)
print(f"trace overhead within {threshold:.1f}% on all gated benchmarks")
EOF
