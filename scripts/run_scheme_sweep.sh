#!/usr/bin/env bash
# Runs the search-scheme sweep (bench_scheme_sweep) and validates the
# resulting dsf-scheme-sweep-v2 document: schema tag, checker-clean flag,
# exactly the five scheme arms over an identical query workload, and the
# ranked-plane acceptance bars (top-k cuts query traffic >= 3x versus the
# flood at an EQUAL hit ratio — its pruning never withholds a forward
# that could change a verdict — and returns at most k results per query).
# CI's bench-smoke job calls this with --quick (DSF_FAST) and archives the
# validated JSON.  BENCH_PR10.json at the repo root records the earlier v1
# document (six arms plus a recall stanza; see EXPERIMENTS.md).
#
# Usage: scripts/run_scheme_sweep.sh [--quick] [--out PATH] [--build-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out_path="${repo_root}/scheme_sweep.json"
quick=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1; shift ;;
    --out) out_path="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    *) echo "usage: $0 [--quick] [--out PATH] [--build-dir DIR]" >&2; exit 2 ;;
  esac
done

if [[ ! -x "${build_dir}/bench/bench_scheme_sweep" ]]; then
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" --target bench_scheme_sweep -j
fi

csv_path="${out_path%.json}_series.csv"
if [[ "${quick}" -eq 1 ]]; then
  DSF_FAST=1 "${build_dir}/bench/bench_scheme_sweep" \
    --out "${out_path}" --csv "${csv_path}"
else
  "${build_dir}/bench/bench_scheme_sweep" \
    --out "${out_path}" --csv "${csv_path}"
fi

# Validate before anything archives it; a malformed document or a missed
# acceptance bar must fail the job.
python3 - "${out_path}" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc.get("schema") == "dsf-scheme-sweep-v2", f"bad schema in {path}"
assert doc.get("clean") is True, "sweep was not checker-clean"
arms = {a["scheme"]: a for a in doc.get("arms", [])}
expected = {"flood", "iterative", "directed", "local-indices", "top-k"}
assert set(arms) == expected, f"arms {sorted(arms)} != {sorted(expected)}"
queries = {a["queries"] for a in arms.values()}
assert len(queries) == 1, f"arms saw different query workloads: {queries}"
for a in arms.values():
    assert 0.0 <= a["hit_ratio"] <= 1.0, a
    assert a["hits"] <= a["queries"], a
# The ranked plane's acceptance bars.
comp = doc["topk_vs_flood"]
assert comp["traffic_reduction"] >= 3.0, \
    f"top-k traffic reduction {comp['traffic_reduction']} < 3x"
assert comp["topk_hits"] == comp["flood_hits"], \
    f"hit verdicts diverged: {comp['topk_hits']} vs {comp['flood_hits']}"
k = doc["top_k"]
assert arms["top-k"]["results"] <= k * arms["top-k"]["queries"], \
    "top-k arm returned more than k results per query"
print(f"validated {path}: {len(arms)} arms, "
      f"top-k reduction {comp['traffic_reduction']:.2f}x at equal hit ratio")
EOF
