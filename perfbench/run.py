#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload ingest|drilldown \
        --seed N --seconds S --trace 0|1

Builds the megads libraries and the perfbench binary from this checkout
(CMake, Release) on first use, runs the workload in its own process, and
prints one JSON object with exactly the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json. With --trace 1 the workload runs twice, untraced and then
traced, and the metrics are the per-layer metrics of BENCHMARK.json: the
traced run's layer numbers plus trace.overhead.<metric>, the traced-minus-
untraced difference of each end-to-end metric.

The full record of every run (provenance, sample counts, gate verdict, all
metrics) is written to <build>/results/. Each workload reports every
per-layer metric, those of the layers it does not load as 0 (WORKLOADS.md);
a metric it does not report fails the run.

--smoke runs reduced sizes for the self-test; --corrupt-reference corrupts
one reference answer so the correctness gate must fail (selftest.py).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "drilldown")
#: Default and hold-out workload seeds (WORKLOADS.md).
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
#: Time limits: the build (a no-op after the first run in a checkout), then
#: the workload process or processes, counted from the end of the build.
BUILD_LIMIT_S = 700.0
RUN_LIMIT_S = 175.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the perfbench binary's path."""
    started = time.monotonic()
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        left = BUILD_LIMIT_S - (time.monotonic() - started)
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=max(left, 1.0), check=False)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def git_head():
    """HEAD of this checkout, or None when it is not a git work tree (git is
    not asked at all then, so it never searches directories above it)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over src/ and perfbench/: names the code without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_binary(binary, args, trace, started):
    """Run the workload once in its own process; returns its parsed report."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise RuntimeError("no time left for the run")
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=left, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited with %d" % result.returncode)
    return json.loads(lines[-1])


def metric_values(report, specs):
    """{name: {value, unit}} for every spec, in spec order."""
    metrics = {}
    for spec in specs:
        name = spec["name"]
        entry = report["metrics"].get(name)
        if entry is None:
            raise RuntimeError("perfbench did not report metric " + name)
        value = entry["value"]
        if value is None or not math.isfinite(value):
            raise RuntimeError("metric %s is not a finite number" % name)
        if entry["unit"] != spec["unit"]:
            raise RuntimeError("metric %s has unit %s, expected %s"
                               % (name, entry["unit"], spec["unit"]))
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no megads sources next to perfbench/ (expected %s)"
            % os.path.join(ROOT, "src"))
        return 1
    with open(spec_path) as handle:
        spec = json.load(handle)

    try:
        binary = build()
        started = time.monotonic()
        untraced = run_binary(binary, args, False, started)
        traced = run_binary(binary, args, True, started) if args.trace else None
        end_to_end = metric_values(untraced, spec["end_to_end"])
        if traced is None:
            result = untraced
            metrics = end_to_end
        else:
            result = traced
            layer_specs = [s for s in spec["per_layer"]
                           if not s["name"].startswith("trace.overhead.")]
            metrics = metric_values(traced, layer_specs)
            traced_e2e = metric_values(traced, spec["end_to_end"])
            for name, entry in end_to_end.items():
                metrics["trace.overhead." + name] = {
                    "value": traced_e2e[name]["value"] - entry["value"],
                    "unit": entry["unit"]}
            metrics = metric_values({"metrics": metrics}, spec["per_layer"])
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("%s failed: %s" % (args.workload, error))
        return 1

    correct = bool(untraced["correct"]) and (traced is None or bool(traced["correct"]))
    head = git_head()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "gate": untraced["gate"] + (traced["gate"] if traced else []),
        "provenance": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "kernel": platform.release(),
            "python": platform.python_version(),
            "compiler": untraced["info"].get("compiler"),
            "build_type": untraced["info"].get("build_type"),
            "git_head": head if head else "not a git checkout",
            "source_sha256": source_digest(),
            "cpu_pinning": "none",
            "default_seed": DEFAULT_SEED,
            "holdout_seed": HOLDOUT_SEED,
        },
        "untraced": untraced,
        "traced": traced,
    }
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as handle:
        json.dump(record, handle, indent=1)
    info = untraced["info"]
    log("%s seed=%d: %s samples, %s write samples, gate %s; record in %s"
        % (args.workload, args.seed, info.get("samples"), info.get("write_samples"),
           "passed" if correct else "FAILED", os.path.join(results, name)))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
