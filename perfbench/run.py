#!/usr/bin/env python3
"""Build and run the repo benchmark (perfbench/ledger.cc).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from src/) into $CARGO_TARGET_DIR,
default .bench_build; later calls only re-check the build. The program's
stdout is relayed, and its last line is the result object. Each run's
result is also kept, with the host fingerprint, under
<build>/results/; --compare refuses two results from different host
classes. The traced run writes its spans and registry snapshots to
<build>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# Fields that make two hosts comparable; pool and generator threads
# follow nproc.
HOST_CLASS = ("cpu", "nproc", "isa", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(targets):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def schema_errors(result, expected):
    """Problems with a result object, against the declared metrics."""
    errs = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        errs.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            errs.append(f"{k} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errs.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        return errs + ["metrics must be exactly " + ", ".join(expected)]
    for name, m in metrics.items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or m["unit"] != expected[name]
                or not isinstance(m["value"], (int, float))
                or isinstance(m["value"], bool)):
            errs.append(f"metric {name} must be {{value, unit: "
                        f"{expected[name]}}}")
    return errs


def run(args):
    if not build(["ive_ledger"]):
        log("build failed")
        return 1
    exe = build_dir() / "ive_ledger"
    traces = build_dir() / "traces"
    traces.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(traces / f"{tag}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"ive_ledger exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = stdout.strip().splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    errs = (schema_errors(result, expected_metrics(args.trace))
            if result is not None else ["no result line"])
    if errs or host is None:
        sys.stderr.write(stdout)
        log("result rejected: " + "; ".join(errs or ["no host line"]))
        return 1
    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {"host": host, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "result": result},
        indent=1) + "\n")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    diff = [k for k in HOST_CLASS if a["host"].get(k) != b["host"].get(k)]
    if diff:
        log("refusing to compare results from different host classes: " +
            ", ".join(f"{k} {a['host'].get(k)!r} vs {b['host'].get(k)!r}"
                      for k in diff))
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare different workloads or run kinds")
        return 3
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        ratio = f"{vb / va:.4f}" if va else "n/a"
        print(f"{name:32s} {va:14.6g} {vb:14.6g} {ratio:>8s} {ma['unit']}")
    return 0


def self_test():
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"qps": {"value": 1.5, "unit": "1/s"}}}
    want = {"qps": "1/s"}
    checks = [
        (schema_errors(good, want) == [], "valid result accepted"),
        (schema_errors({**good, "extra": 1}, want) != [], "extra key"),
        (schema_errors({**good, "attempted": 0}, want) != [], "attempted 0"),
        (schema_errors({**good, "failed": 1.0}, want) != [], "float count"),
        (schema_errors({**good, "metrics": {}}, want) != [], "missing metric"),
        (schema_errors({**good, "metrics": {"qps": {"value": 1, "unit": "s"}}},
                       want) != [], "wrong unit"),
    ]
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        log(f"FAIL: schema check: {what}")
    if not build(["ledger_selftest"]):
        log("build failed")
        return 1
    rc = subprocess.run([str(build_dir() / "ledger_selftest")]).returncode
    return 1 if failed or rc else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["single_client", "multi_client", "key_churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
