#!/usr/bin/env python3
"""The cfc benchmark: builds cfc_perfbench from this checkout's sources, runs
one workload for a fixed time, checks every output, and prints one JSON
result line.

    python3 perfbench/run.py --workload certify|differential|tables \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics (untraced passes); --trace 1 the
per-layer metrics (a traced pass paired with an untraced one, plus the layer
probes). Each pass is a fresh process, so every pass is a process's first.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it keys the run (workload, reduction, threads, seed, nproc, git
SHA). Run from the root of the checkout; the build goes to
$CARGO_TARGET_DIR (default .bench_build). METRICS.md describes every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "differential", "tables")
# Workloads whose studies are seed-independent and compared with a payload
# kept in expected/.
EXPECTED = ("certify", "differential")
# The fields of a study that are results, compared with expected/. The
# search-effort counters (states, schedules, the reduction object) are left
# out: a better reduction changes them without changing a certified value.
STUDY_VALUES = ("schema", "subject", "kind", "n", "sessions", "cf")
WC_VALUES = ("strategy", "total", "entry", "exit", "violations", "truncated",
             "certified", "frontier_clamped")
MIN_PASSES = 3      # untraced passes per --trace 0 run, even past --seconds
SETUP_ONLY = 100    # extra set-up-only processes per --trace 0 run
PASS_TIMEOUT = 170  # seconds; one pass takes a few


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "analysis" / "study.h").is_file():
        fail(f"no cfc sources under {ROOT / 'src'}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = ROOT / target / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out, out / "cfc_perfbench"


def run_process(binary, workload, seed, *extra):
    """Runs one cfc_perfbench process; returns its JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def repeat_for(seconds, minimum, body):
    """Calls body() at least `minimum` times, then again while one more
    call (at the mean duration so far) still ends within `seconds`."""
    start = time.monotonic()
    calls = 0
    while True:
        body()
        calls += 1
        elapsed = time.monotonic() - start
        if calls >= minimum and elapsed * (calls + 1) / calls > seconds:
            return


def read(path):
    return Path(path).read_bytes()


def study_values(payload):
    """The result fields of each study of a studies payload."""
    out = []
    for study in json.loads(payload):
        if "error" in study or study.get("wc") is None:
            out.append(study)
            continue
        values = {k: study.get(k) for k in STUDY_VALUES}
        values["wc"] = {k: study["wc"].get(k) for k in WC_VALUES}
        out.append(values)
    return out


def value_mismatches(payload, expected):
    """One message per study whose result fields differ from expected."""
    got, want = study_values(payload), study_values(expected)
    if len(got) != len(want):
        return [f"{len(got)} studies, expected {len(want)}"]
    return [f"study {i} ({w.get('subject')} n={w.get('n')}) values differ "
            "from the expected payload"
            for i, (g, w) in enumerate(zip(got, want)) if g != w]


# ---------------------------------------------------------------- traced

WORK_SPANS = {"campaign.cell", "explorer.cell", "explorer.plan",
              "explorer.item", "explorer.merge"}


def busy_seconds(events):
    """Summed time of the innermost work spans on every thread: a cell or
    item that contains other work spans counts only through them (the rest
    of it is waiting for its children on other threads)."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    busy_us = 0
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        open_spans = []  # [event, has_work_child]; spans nest per thread
        closed = []
        for ev in evs:
            while open_spans and ev["ts"] >= (open_spans[-1][0]["ts"] +
                                              open_spans[-1][0]["dur"]):
                closed.append(open_spans.pop())
            if ev["name"] in WORK_SPANS:
                for frame in open_spans:
                    if frame[0]["name"] in WORK_SPANS:
                        frame[1] = True
            open_spans.append([ev, False])
        closed.extend(open_spans)
        busy_us += sum(e["dur"] for e, has_child in closed
                       if e["name"] in WORK_SPANS and not has_child)
    return busy_us * 1e-6


def layer_metrics(traced, trace_events, untraced):
    """Per-layer metrics of one traced pass (see METRICS.md)."""
    reg = traced["registry"]
    states = reg["states_visited"]

    def per_state(x):
        return x / states if states else 0.0

    def durations_ms(name):
        return [e["dur"] * 1e-3 for e in trace_events if e["name"] == name]

    items = durations_ms("explorer.item")
    pass_s = sum(durations_ms("bench.pass")) * 1e-3
    return {
        "campaign.plan_ms": traced["campaign_plan_ms"],
        "campaign.merge_ms": traced["campaign_merge_ms"],
        "campaign.cell_p50_ms": traced["campaign_cell_p50_ms"],
        "campaign.cell_max_ms": traced["campaign_cell_max_ms"],
        "runner.busy_frac": busy_seconds(trace_events) /
                            (traced["threads"] * pass_s) if pass_s else 0.0,
        "runner.steals": reg["steals"],
        "explorer.states": states,
        "explorer.states_per_cpu_s": states / traced["cpu_s"],
        "explorer.plan_ms": sum(durations_ms("explorer.plan")),
        "explorer.item_p50_ms": median(items),
        "explorer.item_max_ms": max(items, default=0.0),
        "explorer.work_items": reg["work_items"],
        "explorer.merge_ms": sum(durations_ms("explorer.merge")),
        "explorer.restores_per_state": per_state(reg["restores"]),
        "cache.hit_ratio": per_state(reg["cache_hits"]),
        "cache.live_bytes": reg["visited_live_bytes"],
        "cache.slab_bytes": reg["slab_bytes"],
        "por.races_per_state": per_state(reg["races_detected"]),
        "por.backtracks_per_state": per_state(reg["backtrack_points"]),
        "por.sleep_blocked_per_state": per_state(reg["sleep_blocked"]),
        "obs.trace_overhead": (traced["wall_s"] / traced["cal_s"]) /
                              (untraced["wall_s"] / untraced["cal_s"]),
        "host.cal_ms": traced["cal_s"] * 1e3,
    }


# ---------------------------------------------------------------- metrics

END_TO_END = {"wall_cal": "ratio", "cpu_cal": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "campaign.plan_ms": "ms", "campaign.merge_ms": "ms",
    "campaign.cell_p50_ms": "ms", "campaign.cell_max_ms": "ms",
    "runner.busy_frac": "ratio", "runner.steals": "count",
    "explorer.states": "count", "explorer.states_per_cpu_s": "1/s",
    "explorer.plan_ms": "ms", "explorer.item_p50_ms": "ms",
    "explorer.item_max_ms": "ms", "explorer.work_items": "count",
    "explorer.merge_ms": "ms", "explorer.restores_per_state": "ratio",
    "cache.hit_ratio": "ratio", "cache.live_bytes": "bytes",
    "cache.slab_bytes": "bytes", "por.races_per_state": "ratio",
    "por.backtracks_per_state": "ratio",
    "por.sleep_blocked_per_state": "ratio",
    "sim.step_ns": "ns", "sim.rewind_mark_ns": "ns", "sim.setup_us": "us",
    "measures.event_ns": "ns", "sa.analyze_ms": "ms",
    "obs.trace_overhead": "ratio", "host.cal_ms": "ms",
    "error_rate": "ratio",
}


def run_untraced(binary, args, work):
    """--trace 0: untraced passes for --seconds (at least MIN_PASSES), plus
    set-up-only processes; medians of each end-to-end metric. wall_cal and
    cpu_cal divide each pass's wall and CPU time by the calibration kernel
    timed in the same process, which cancels the shared host's drift in
    speed (see METRICS.md, Steadiness)."""
    reports, payloads = [], []
    setups = []
    for _ in range(SETUP_ONLY):
        setups.append(run_process(binary, args.workload, args.seed,
                                  "--setup-only")["setup_s"])

    def one_pass():
        studies = work / f"studies-{len(reports)}.json"
        reports.append(run_process(binary, args.workload, args.seed,
                                   "--studies", str(studies)))
        payloads.append(read(studies))

    repeat_for(args.seconds, MIN_PASSES, one_pass)
    setups += [r["setup_s"] for r in reports]
    metrics = {
        "wall_cal": median([r["wall_s"] / r["cal_s"] for r in reports]),
        "cpu_cal": median([r["cpu_s"] / r["cal_s"] for r in reports]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }
    return reports, payloads, metrics, []


def run_traced(binary, args, work):
    """--trace 1: (untraced, traced) pass pairs for --seconds, the first
    traced pass with the layer probes; per-layer medians over the pairs."""
    reports, payloads, problems = [], [], []
    per_pair = []
    probes = {}

    def one_pair():
        k = len(per_pair)
        plain_studies = work / f"studies-{k}.json"
        traced_studies = work / f"traced-studies-{k}.json"
        trace_file = work / f"trace-{k}.json"
        extra = ["--studies", str(traced_studies), "--trace", str(trace_file)]
        if not probes:
            extra.append("--probes")

        def run_plain():
            return run_process(binary, args.workload, args.seed,
                               "--studies", str(plain_studies))

        def run_traced_pass():
            return run_process(binary, args.workload, args.seed, *extra)

        # Alternate which pass goes first, so host drift within a pair
        # does not bias obs.trace_overhead one way.
        if k % 2 == 0:
            plain = run_plain()
            traced = run_traced_pass()
        else:
            traced = run_traced_pass()
            plain = run_plain()
        if not probes:
            probes.update(traced["probes"])
        if not traced["trace_ok"]:
            problems.append("trace failed obs::check_trace_json: " +
                            "; ".join(traced["trace_errors"][:5]))
        if read(traced_studies) != read(plain_studies):
            problems.append("traced study JSON differs from untraced")
        events = json.loads(trace_file.read_text())["traceEvents"]
        trace_file.unlink()
        per_pair.append(layer_metrics(traced, events, plain))
        reports.extend([plain, traced])
        payloads.extend([read(plain_studies), read(traced_studies)])

    repeat_for(args.seconds, 1, one_pair)
    metrics = {name: median([m[name] for m in per_pair])
               for name in per_pair[0]}
    for name in ("sim.step_ns", "sim.rewind_mark_ns", "sim.setup_us",
                 "measures.event_ns", "sa.analyze_ms"):
        metrics[name] = probes[name]
    return reports, payloads, metrics, problems


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir, binary = build()
    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        runner = run_traced if args.trace else run_untraced
        reports, payloads, metrics, problems = runner(binary, args, Path(tmp))

    # Every pass's study JSON (timing excluded) must equal the run's first
    # pass byte for byte; on a seed-independent workload its result fields
    # must also equal the expected payload's.
    expected = None
    if args.workload in EXPECTED:
        expected = read(BENCH / "expected" / f"{args.workload}.json")
    for report, studies in zip(reports, payloads):
        problems += report["check_failures"]
        if studies != payloads[0]:
            problems.append("study JSON differs from the run's first pass")
        if expected is not None:
            problems += value_mismatches(studies, expected)
    # An operation is one study of the workload; every pass repeats the same
    # studies, and the checks above require them to end the same way. So
    # attempted and failed count the studies once: a count summed over
    # passes would follow how many passes fitted into --seconds.
    attempted = reports[0]["attempted"]
    failures = reports[0]["failures"]
    if any(r["failures"] != failures for r in reports):
        problems.append("passes of the run failed different studies")
    if args.trace:
        metrics["error_rate"] = len(failures) / attempted
    for line in sorted(set(failures)) + sorted(set(problems)):
        print(f"perfbench: {line}", file=sys.stderr)

    first = reports[0]
    context = {
        "workload": args.workload, "reduction": first["reduction"],
        "threads": first["threads"], "seed": args.seed, "trace": args.trace,
        "passes": len(reports), "passes_per_process": 1,
        "nproc": os.cpu_count(), "git_sha": git_sha(),
    }
    if not args.trace:  # the raw times behind wall_cal and cpu_cal
        for key in ("wall_s", "cpu_s", "cal_s"):
            context[key] = median([r[key] for r in reports])
    print(json.dumps({"context": context}))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
