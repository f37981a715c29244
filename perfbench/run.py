#!/usr/bin/env python3
"""The pipelsm benchmark: builds the harness from source, runs one workload,
checks its outputs, prints every metric by name with its unit, writes a
record with the host fingerprint, and ends with one JSON result line.

  python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --compare OLD NEW     # records or directories
  python3 perfbench/run.py --selftest            # the benchmark's own tests

Run it from the root of the repository. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("ingest", "point_read", "served_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the harness; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: the store's sources (src/) are missing; "
                         "run from a full checkout of the repository")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                    "pipelsm_perfbench", "perfbench_tests"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def run_child(cmd, timeout):
    """Runs cmd with output on stderr; kills it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("run.py: %s timed out after %d s" % (cmd[0], timeout))


# ---------------------------------------------------------------- records

def cmake_cache(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                             recursive=True))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "unknown (not a git checkout)"


def fingerprint(out):
    model, flags = "", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True
                                     ).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "sse4_2": "sse4_2" in flags,
        "avx2": "avx2" in flags,
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "kernel": platform.release(),
    }


def result_line(doc, spec, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = doc["layers"] if trace else doc["metrics"]
    metrics = {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
               for n in names}
    return {"correct": bool(doc["correct"]),
            "attempted": max(1, int(doc["attempted"])),
            "failed": int(doc["failed"]), "metrics": metrics}


def print_report(doc, spec, listing, trace):
    w = doc["workload"]
    log("")
    log("== %s  seed=%s  seconds=%s  trace=%s" % (
        w, doc["seed"], doc["seconds"], doc["trace"]))
    log("correct=%s attempted=%d failed=%d failed_frac=%.6f" % (
        doc["correct"], doc["attempted"], doc["failed"],
        doc["failed"] / max(1, doc["attempted"])))
    for m in doc["mismatches"]:
        log("MISMATCH " + m)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log("-- end-to-end")
    for name, m in doc["metrics"].items():
        log("%-28s %16.6g %-8s bound %s" % (name, m["value"], m["unit"],
                                            bounds.get(name)))
    log("-- per operation")
    for name, m in doc["detail"].items():
        log("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    if trace:
        tags = {m["name"]: m for m in listing["per_layer"]}
        log("-- per layer (layer | should move | flat on)")
        for name, m in doc["layers"].items():
            t = tags.get(name, {})
            note = " [not exercised on %s]" % w \
                if name in doc["not_exercised"] else ""
            log("%-32s %14.6g %-8s %s | %s | %s%s" % (
                name, m["value"], m["unit"], t.get("layer", ""),
                t.get("moves", ""), t.get("flat_on", ""), note))
    log("-- provenance")
    for k, v in sorted(doc["info"].items()):
        log("%-28s %s" % (k, v))


def merge_store_trace(trace_path, store_path, epoch_ns):
    """Appends the store's compaction spans to the benchmark trace, shifted
    onto the benchmark's clock, as a second trace process."""
    if not (os.path.isfile(trace_path) and os.path.isfile(store_path)):
        return
    with open(trace_path) as f:
        bench = json.load(f)
    with open(store_path) as f:
        store = json.load(f)
    shift_us = epoch_ns / 1e3
    for ev in store.get("traceEvents", []):
        if "ts" in ev:
            ev["ts"] = ev["ts"] + shift_us
        ev["pid"] = 1000 + int(ev.get("pid", 0))
        bench["traceEvents"].append(ev)
    with open(trace_path, "w") as f:
        json.dump(bench, f)
    os.remove(store_path)


def run_workload(args):
    spec = load_spec()
    out = build()
    binary = os.path.join(out, "pipelsm_perfbench")
    listing = json.loads(subprocess.run([binary, "--list-metrics"],
                                        capture_output=True, text=True,
                                        check=True).stdout)
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(out, "traces")
    records = os.path.join(out, "records")
    for d in (work, traces, records):
        os.makedirs(d, exist_ok=True)
    doc_path = os.path.join(work, "result.json")
    trace_path = os.path.join(traces, "%s-seed%d.trace.json" % (
        args.workload, args.seed))
    store_trace = os.path.join(work, "store.trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", doc_path]
    if args.trace:
        cmd += ["--trace-file", trace_path, "--store-trace-file", store_trace]
    try:
        code = run_child(cmd, RUN_TIMEOUT_S)
        if code not in (0, 2) or not os.path.isfile(doc_path):
            raise SystemExit("run.py: harness failed with exit code %d" % code)
        with open(doc_path) as f:
            doc = json.load(f)
        if args.trace:
            merge_store_trace(trace_path, store_trace,
                              float(doc["info"].get("store_trace_epoch_ns",
                                                    0)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_report(doc, spec, listing, args.trace)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": fingerprint(out), "time": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": doc,
    }
    if args.trace:
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        log("trace written to %s" % record["trace_file"])
    rec_path = os.path.join(records, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1)
    log("record written to %s" % os.path.relpath(rec_path, ROOT))
    print(json.dumps(result_line(doc, spec, args.trace)), flush=True)
    return 0 if doc["correct"] else 2


# ---------------------------------------------------------------- compare

def load_records(path):
    """Untraced records under path whose outputs were correct and whose
    operations all succeeded; returns (records, skipped)."""
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    recs, skipped = [], 0
    for p in paths:
        with open(p) as f:
            rec = json.load(f)
        if "result" not in rec or rec.get("trace"):
            continue
        if rec["result"].get("correct") and rec["result"].get("failed") == 0:
            recs.append(rec)
        else:
            skipped += 1
    return recs, skipped


def medians(records):
    """{workload: {metric: median value}} over untraced records."""
    by = {}
    for rec in records:
        w = by.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            w.setdefault(name, []).append(m["value"])
    return {w: {n: statistics.median(v) for n, v in ms.items()}
            for w, ms in by.items()}


def compare(old, new, spec):
    """Rows of (workload, metric, old, new, worse_share, bound, flagged)."""
    rows = []
    for m in spec["end_to_end"]:
        for w in sorted(set(old) & set(new)):
            if m["name"] not in old[w] or m["name"] not in new[w]:
                continue
            a, b = old[w][m["name"]], new[w][m["name"]]
            if a == 0:
                worse = 0.0 if b == 0 else float("inf")
            elif m["better"] == "lower":
                worse = (b - a) / abs(a)
            else:
                worse = (a - b) / abs(a)
            rows.append((w, m["name"], a, b, worse, m["bound"],
                         worse > m["bound"]))
    return rows


def run_compare(args):
    spec = load_spec()
    sides = []
    for path in args.compare:
        recs, skipped = load_records(path)
        print("%s: %d records, %d skipped (incorrect or with failed "
              "operations)" % (path, len(recs), skipped))
        sides.append(medians(recs))
    rows = compare(sides[0], sides[1], spec)
    flagged = 0
    print("%-13s %-14s %14s %14s %8s %6s" % ("workload", "metric", "old",
                                             "new", "worse", "bound"))
    for w, name, a, b, worse, bound, flag in rows:
        flagged += flag
        print("%-13s %-14s %14.6g %14.6g %+7.1f%% %5.0f%% %s" % (
            w, name, a, b, 100 * worse, 100 * bound,
            "OUTSIDE BOUND" if flag else ""))
    return 1 if flagged else 0


def run_selftest():
    out = build()
    code = run_child([os.path.join(out, "perfbench_tests")], RUN_TIMEOUT_S)
    if code != 0:
        return code
    return subprocess.run([sys.executable, "-m", "unittest", "-v",
                           "test_run"], cwd=BENCH_DIR,
                          timeout=RUN_TIMEOUT_S).returncode


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.selftest:
        return run_selftest()
    if args.compare:
        return run_compare(args)
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
