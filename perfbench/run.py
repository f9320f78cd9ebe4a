#!/usr/bin/env python3
"""End-to-end benchmark of the Scallop reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]        # every workload

Run from the repository root. The script builds perfbench/perfbench.exe
with dune, then runs the workload as repeated fresh processes with the
same seed until --seconds of wall time are spent (at least MIN_REPS of
them). Wall-clock metrics are the median over those repetitions; metrics
in simulated time must come out byte-identical in every repetition,
traced or not, or the run fails.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from traced repetitions, interleaved with untraced ones so that
trace_overhead compares like with like). Which metrics go into the final
JSON line is read from BENCHMARK.json; every other measured quantity is
printed above it as "workload metric value unit".

Without --workload every workload runs: untraced and traced repetitions,
plus one repetition with the next seed, which must change the simulated-
time metrics. The exit code is non-zero if any output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["campus-replay", "congested-8", "ctrl-churn"]
MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
EVENTS_DIR = os.path.join(ROOT, ".perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found beside perfbench/: run from a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed:\n" + r.stdout + r.stderr)


def rep(workload, seed, traced):
    """One fresh process; returns its parsed result."""
    os.makedirs(EVENTS_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=EVENTS_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s seed %d exited %d:\n%s" % (workload, seed, r.returncode, r.stderr[-2000:]))
    return json.loads(lines[-1])


def value(m):
    return m["value"]


def median_metrics(results, field):
    names = list(results[0][field].keys())
    return {n: (statistics.median(value(r[field][n]) for r in results),
                results[0][field][n]["unit"]) for n in names}


def measure(workload, seed, seconds, traced):
    """Repetitions until the time budget is spent. Traced runs interleave
    untraced and traced repetitions."""
    plain, trace = [], []
    t0 = time.monotonic()
    while True:
        plain.append(rep(workload, seed, False))
        if traced:
            trace.append(rep(workload, seed, True))
        n = len(trace) if traced else len(plain)
        if n >= (MIN_TRACED_REPS if traced else MIN_REPS) and time.monotonic() - t0 >= seconds:
            break
    return plain, trace


def checks_of(workload, seed, plain, trace):
    """(name, ok, detail) for every output check of one workload run."""
    out = []
    for r in plain + trace:
        for c in r["checks"]:
            if not c["ok"]:
                out.append((c["name"], False, "trace=%d: %s" % (r["trace"], c["detail"])))
    if not any(not ok for _, ok, _ in out):
        out.append(("process_checks", True, "%d repetition(s) passed" % len(plain + trace)))
    ref = plain[0]["virtual"]
    same = all(r["virtual"] == ref for r in plain)
    out.append(("same_seed_reproduces", same,
                "%d untraced repetition(s) of seed %d" % (len(plain), seed)))
    if trace:
        inert = all(r["virtual"] == ref for r in trace)
        diff = sorted(k for r in trace for k in ref if r["virtual"].get(k) != ref[k])
        out.append(("trace_is_inert", inert, "differs: " + ", ".join(diff[:8]) if diff else
                    "%d traced repetition(s) match" % len(trace)))
    return out


def report(workload, plain, trace):
    """Every measured quantity: medians of wall-clock numbers, exact
    simulated-time ones. Returns (end_to_end, per_layer) dicts of
    name -> (value, unit)."""
    e2e = median_metrics(plain, "e2e")
    e2e.update({k: (value(v), v["unit"]) for k, v in plain[0]["report"].items()})
    layers = {}
    if trace:
        layers = median_metrics(trace, "layers")
        wall = statistics.median(value(r["e2e"]["window_s"]) for r in plain)
        twall = statistics.median(value(r["e2e"]["window_s"]) for r in trace)
        layers["trace_overhead"] = (twall / wall, "ratio")
    for name, (v, unit) in list(e2e.items()) + list(layers.items()):
        print("%s %s %.6g %s" % (workload, name, v, unit))
    return e2e, layers


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return [m["name"] for m in b["end_to_end"]], [m["name"] for m in b["per_layer"]]


def one(workload, seed, seconds, traced):
    e2e_names, layer_names = spec()
    plain, trace = measure(workload, seed, seconds, traced)
    checks = checks_of(workload, seed, plain, trace)
    e2e, layers = report(workload, plain, trace)
    for name, ok, detail in checks:
        print("%s check %s %s (%s)" % (workload, name, "ok" if ok else "FAILED", detail))
    source, names = (layers, layer_names) if traced else (e2e, e2e_names)
    missing = [n for n in names if n not in source]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": plain[0]["attempted"],
        "failed": plain[0]["failed"],
        "metrics": {n: {"value": source[n][0], "unit": source[n][1]} for n in names},
    }))
    return correct


def every(seed, seconds):
    """The one-command form: all workloads, both trace modes, plus a seed
    change that must move the simulated-time metrics."""
    e2e_names, layer_names = spec()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        plain, trace = measure(w, seed, seconds, True)
        other = rep(w, seed + 1, False)
        checks = checks_of(w, seed, plain, trace)
        checks.append(("seed_changes_outputs", other["virtual"] != plain[0]["virtual"],
                       "seed %d vs %d" % (seed, seed + 1)))
        e2e, layers = report(w, plain, trace)
        for name, ok, detail in checks:
            print("%s check %s %s (%s)" % (w, name, "ok" if ok else "FAILED", detail))
            correct = correct and ok
        attempted += plain[0]["attempted"]
        failed += plain[0]["failed"]
        for n in e2e_names:
            metrics["%s/%s" % (w, n)] = {"value": e2e[n][0], "unit": e2e[n][1]}
        for n in layer_names:
            metrics["%s/%s" % (w, n)] = {"value": layers[n][0], "unit": layers[n][1]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    try:
        if a.workload == "all":
            ok = every(a.seed, a.seconds)
        else:
            ok = one(a.workload, a.seed, a.seconds, a.trace == 1)
    finally:
        try:
            os.rmdir(EVENTS_DIR)
        except OSError:
            pass
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
