#!/usr/bin/env python3
"""The simulator benchmark: builds dsf_perfbench from source, runs one
workload, checks the simulated outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The build goes to $CARGO_TARGET_DIR
(default .bench_build).  --trace 0 runs the workload untraced, one process
per run, until --seconds have passed, and reports the end-to-end metrics
as medians over the runs.  --trace 1 makes one untraced run and one run
with the benchmark's TraceSink attached, and reports the per-layer
metrics.  Every run prints a fingerprint of its simulated outputs; a run
that exits non-zero, reports a checker violation or disagrees with another
run's fingerprint fails all of its operations.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the run report (provenance, workload
parameters, every sample).  perfbench/README.md defines the workloads and
the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper_dynamic", "static_50k", "overload_certified",
             "framework_mix")
# framework_mix's scenarios, each with the name of the work it reports.
FRAMEWORK_PHASES = {"webcache": "requests", "olap": "queries",
                    "diglib": "queries"}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("queries_per_s", "queries/s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("workload.catalog_s", "s"),
    ("workload.libraries_s", "s"),
    ("workload.library_items", "count"),
    ("workload.library_mib", "MiB"),
    ("engine.init_s", "s"),
    ("search.count", "count"),
    ("search.busy_s", "s"),
    ("search.share", "ratio"),
    ("search.p50_us", "us"),
    ("search.p999_us", "us"),
    ("search.hit_ratio", "ratio"),
    ("search.msgs_per_search", "messages"),
    ("search.useful_msg_ratio", "ratio"),
    ("update.reconfigurations", "count"),
    ("update.invitations", "count"),
    ("update.evictions", "count"),
    ("update.control_msgs", "count"),
    ("engine.other_s", "s"),
    ("des.events", "count"),
    ("des.cancelled", "count"),
    ("des.pending_end", "count"),
    ("des.events_per_s", "events/s"),
    ("overlay.mib", "MiB"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.dropped", "count"),
    ("load.offered", "count"),
    ("load.admitted", "count"),
    ("load.refused", "count"),
    ("load.shed", "count"),
    ("load.sojourn_p50_s", "s"),
    ("load.sojourn_p99_s", "s"),
    ("load.queue_depth_peak", "count"),
    ("checker.events", "count"),
    ("checker.violations", "count"),
    ("fault.dropped", "count"),
    ("adversary.abuse_queries", "count"),
    ("adversary.abuse_msg_share", "ratio"),
    ("recorder.records", "count"),
    ("layers.on_off_ratio", "ratio"),
) + tuple((f"{p}.run_s", "s") for p in FRAMEWORK_PHASES) + tuple(
    (f"{p}.{work}", "count") for p, work in FRAMEWORK_PHASES.items()
) + tuple((f"{p}.search.{m}", u) for p in FRAMEWORK_PHASES
          for m, u in (("count", "count"), ("busy_s", "s"),
                       ("p50_us", "us"), ("hit_ratio", "ratio"))) + (
    ("trace.overhead", "ratio"),
    ("trace.send_mismatch", "count"),
)

# Every run must end within this many seconds after the build, or it is
# killed and counted as failed: the whole invocation ends within 180 s.
MEASURE_BUDGET_S = 170
# Fewest runs an untraced measurement makes, whatever --seconds says: the
# fingerprint check needs a repeat, and the medians need three.
MIN_RUNS = 3
# Share of --seconds spent on extra construct-only processes, which add
# cold set-up samples to the ones the runs give.
SETUP_SHARE = 0.1
MAX_SETUP_SAMPLES = 12


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build():
    """Configures (once) and builds dsf_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "dsf_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=840)
    return out / "dsf_perfbench"


def spawn(binary, workload, seed, mode, scale, deadline=None):
    """Runs one dsf_perfbench process; returns its JSON record, or a record
    with an "error" key when it failed or passed the monotonic `deadline`."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--horizon-scale", repr(scale)]
    t0 = time.monotonic()
    timeout = None if deadline is None else max(1.0, deadline - t0)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out after {timeout:.0f} s"}
    elapsed = time.monotonic() - t0
    if p.returncode != 0:
        return {"error": f"{mode} run exited {p.returncode}: "
                         f"{p.stderr.strip()[-500:]}", "elapsed_s": elapsed}
    try:
        rec = json.loads(p.stdout)
    except ValueError:
        return {"error": f"{mode} run printed no record", "elapsed_s": elapsed}
    rec["elapsed_s"] = elapsed
    return rec


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """One invocation: spawns dsf_perfbench processes for the workload and
    counts their operations.  A run that exits non-zero, reports a checker
    violation, or prints a fingerprint other than the first run's fails
    all of its operations.  Construct-only and layers-absent processes
    count only when they fail."""

    def __init__(self, binary, args):
        self.binary = binary
        self.args = args
        self.deadline = time.monotonic() + MEASURE_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = None

    def run(self, mode):
        rec = spawn(self.binary, self.args.workload, self.args.seed, mode,
                    self.args.horizon_scale, self.deadline)
        checked = mode in ("run", "traced")
        if not checked and "error" not in rec:
            return rec
        ops = rec.get("attempted") or 1
        self.attempted += ops
        problem = rec.get("error")
        if problem is None and rec["violations"] != 0:
            problem = f"{rec['violations']} checker violations"
        if problem is None:
            if self.fingerprint is None:
                self.fingerprint = rec["fingerprint"]
            elif rec["fingerprint"] != self.fingerprint:
                problem = (f"fingerprint {rec['fingerprint']} differs from "
                           f"{self.fingerprint}")
        if problem is not None:
            self.failed += ops
            self.problems.append(f"{mode}: {problem}")
            log(f"check failed: {mode}: {problem}")
        return rec


def measure_untraced(bench):
    """Runs the workload untraced, one process per run, until --seconds
    have passed, then adds cold construct-only samples."""
    seconds = bench.args.seconds
    runs, setups = [], []
    start = time.monotonic()
    n = 0
    while True:
        rec = bench.run("run")
        n += 1
        if "error" not in rec:
            runs.append(rec)
            setups.append(rec["setup_s"])
        elapsed = time.monotonic() - start
        if n >= MIN_RUNS and elapsed + elapsed / n > seconds:
            break
    setup_cost = median(setups) + 0.01
    extra = min(MAX_SETUP_SAMPLES, int(SETUP_SHARE * seconds / setup_cost))
    for _ in range(extra):
        rec = bench.run("setup")
        if "error" not in rec:
            setups.append(rec["setup_s"])
    return runs, setups


def end_to_end_metrics(runs, setups):
    return {
        "wall_s": median([r["wall_s"] for r in runs]),
        "setup_s": median(setups),
        "queries_per_s": median([r["queries"] / r["run_s"] for r in runs]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in runs]),
    }


def counters_of(rec):
    """Engine counters of an untraced run; framework_mix sums its phases
    (the overlay is the largest of the three)."""
    if "phases" not in rec:
        return rec["counters"]
    total = {}
    for phase in rec["phases"].values():
        for k, v in phase["counters"].items():
            if isinstance(v, dict):
                sub = total.setdefault(k, {})
                for kk, vv in v.items():
                    sub[kk] = sub.get(kk, 0) + vv
            elif k == "overlay_bytes":
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
    return total


def per_layer_metrics(untraced, traced, bare, setup_s):
    u = counters_of(untraced)
    s = traced["search"]
    gen = traced.get("generators", {})
    by_type = u["messages_by_type"]
    spans = s["spans"]
    mib = 1 << 20
    m = {
        "workload.catalog_s": gen.get("catalog_s", 0.0),
        "workload.libraries_s": gen.get("libraries_s", 0.0),
        "workload.library_items": gen.get("library_items", 0),
        "workload.library_mib": u.get("library_bytes", 0) / mib,
        "engine.init_s": setup_s - gen.get("catalog_s", 0.0)
                         - gen.get("libraries_s", 0.0),
        "search.count": spans,
        "search.busy_s": s["busy_s"],
        "search.share": s["busy_s"] / traced["run_s"],
        "search.p50_us": s["p50_us"],
        "search.p999_us": s["p999_us"],
        "search.hit_ratio": s["hits"] / spans if spans else 0.0,
        "search.msgs_per_search": by_type["query"] / spans if spans else 0.0,
        "search.useful_msg_ratio": (s["span_receivers"] / s["span_query_sends"]
                                    if s["span_query_sends"] else 0.0),
        "update.reconfigurations": u.get("reconfigurations", 0),
        "update.invitations": u.get("invitations", 0),
        "update.evictions": u.get("evictions", 0),
        "update.control_msgs": sum(
            by_type[t] for t in ("invitation", "invitation-reply", "eviction",
                                 "explore-query", "explore-reply", "ping",
                                 "pong")),
        "engine.other_s": traced["run_s"] - s["busy_s"],
        "des.events": u["events"],
        "des.cancelled": u["scheduled"] - u["events"] - u["pending_end"],
        "des.pending_end": u["pending_end"],
        "des.events_per_s": u["events"] / untraced["run_s"],
        "overlay.mib": u["overlay_bytes"] / mib,
        "net.messages": u["messages"],
        "net.bytes": u["bytes"],
        "net.dropped": u["dropped"],
        "load.offered": u.get("load_offered", 0),
        "load.admitted": u.get("load_admitted", 0),
        "load.refused": u.get("load_refused", 0),
        "load.shed": u.get("load_shed", 0),
        "load.sojourn_p50_s": u.get("load_sojourn_p50_s", 0.0),
        "load.sojourn_p99_s": u.get("load_sojourn_p99_s", 0.0),
        "load.queue_depth_peak": u.get("load_queue_depth_peak", 0),
        "checker.events": u.get("checker_events", 0),
        "checker.violations": untraced["violations"] + traced["violations"],
        "fault.dropped": s["drops"],
        "adversary.abuse_queries": u.get("abuse_queries", 0),
        "adversary.abuse_msg_share": (u.get("abuse_messages", 0) / u["messages"]
                                      if u["messages"] else 0.0),
        "recorder.records": u.get("recorder_records", 0),
        "layers.on_off_ratio": (untraced["run_s"] / bare["run_s"]
                                if bare else 0.0),
        "trace.overhead": traced["run_s"] / untraced["run_s"],
        "trace.send_mismatch": sum(
            abs(n - s["sends_by_type"][t]) for t, n in by_type.items()),
    }
    for p, work in FRAMEWORK_PHASES.items():
        pu = untraced.get("phases", {}).get(p)
        ps = traced.get("phases", {}).get(p, {}).get("search", {})
        m[f"{p}.run_s"] = pu["run_s"] if pu else 0.0
        m[f"{p}.{work}"] = pu["counters"]["queries"] if pu else 0
        m[f"{p}.search.count"] = ps.get("spans", 0)
        m[f"{p}.search.busy_s"] = ps.get("busy_s", 0.0)
        m[f"{p}.search.p50_us"] = ps.get("p50_us", 0.0)
        m[f"{p}.search.hit_ratio"] = (ps["hits"] / ps["spans"]
                                      if ps.get("spans") else 0.0)
    return m


def measure_traced(bench):
    """One untraced run (the *u* counters), one traced run, two more cold
    set-ups and, for overload_certified, one run with its optional layers
    absent.  Returns the per-layer metrics (None when a run failed) and
    the run records."""
    untraced = bench.run("run")
    traced = bench.run("traced")
    bare = None
    if bench.args.workload == "overload_certified":
        bare = bench.run("bare")
    setups = [r["setup_s"] for r in (untraced, bench.run("setup"),
                                     bench.run("setup")) if "setup_s" in r]
    records = [r for r in (untraced, traced, bare) if r is not None]
    if any("error" in r for r in records):
        return None, records
    return per_layer_metrics(untraced, traced, bare, median(setups)), records


def provenance(binary_record):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None  # a source tree exported from git has no .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for f in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in f.parts:
                continue
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": binary_record.get("compiler"),
        "build_type": binary_record.get("build_type"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--horizon-scale", type=float, default=1.0,
                    help="multiplies every simulated horizon (the tests "
                         "use small values)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.horizon_scale <= 0:
        ap.error("--seed must be >= 0; --seconds and --horizon-scale > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"error: build failed: {e}")
        return 1
    bench = Bench(binary, args)
    if args.trace:
        values, samples = measure_traced(bench)
        declared = PER_LAYER
    else:
        samples, setups = measure_untraced(bench)
        values = end_to_end_metrics(samples, setups) if samples else None
        declared = END_TO_END
    if values is None:
        log("error: no run completed: " + "; ".join(bench.problems))
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "horizon_scale": args.horizon_scale,
        "params": samples[0].get("params"),
        "host": provenance(samples[0]),
        "problems": bench.problems,
        "samples": samples,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
