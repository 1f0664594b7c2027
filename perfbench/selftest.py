#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload in smoke mode (reduced sizes, 2 s) through run.py, untraced and
traced, and asserts that the last stdout line is a result with exactly the
contract's keys, that every metric BENCHMARK.json names is emitted, finite
and in its unit, and that the correctness gate passed. Each workload is run
once more with a corrupted reference answer, which the gate must reject, and
run.py must refuse to run in a directory that holds only BENCHMARK.json and
perfbench/. Exits non-zero on the first failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "2"


def fail(message):
    print("selftest: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail("BENCHMARK.json keys %s" % sorted(spec))
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) for p in spec["paths"]):
        fail("bad paths")
    if not 1 <= spec["run_seconds"] <= 60 or int(spec["run_seconds"]) != spec["run_seconds"]:
        fail("bad run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("need 2 to 8 workloads")
    names = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 or "\n" in workload["why"]:
            fail("bad workload entry %s" % workload)
        names.append(workload["name"])
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        fail("metric counts out of range")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            fail("bad end-to-end metric %s" % metric)
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            fail("bad per-layer metric %s" % metric)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("lower", "higher"):
            fail("bad unit or direction in %s" % metric)
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        fail("metric and workload names must be unique and well formed")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must be in s, lower, with the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        fail("BENCHMARK.json over 64 KiB")


def run(cwd, workload, trace, extra=()):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--smoke"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def check_result(spec, workload, trace):
    result = run(ROOT, workload, trace)
    if result.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, result.returncode))
    line = json.loads(result.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(line)))
    if line["correct"] is not True or line["attempted"] < 1 or line["failed"] != 0:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s"
             % (workload, trace, line["correct"], line["attempted"], line["failed"]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(line["metrics"]) != {m["name"] for m in wanted}:
        fail("%s trace=%d: metric names differ from BENCHMARK.json" % (workload, trace))
    for metric in wanted:
        entry = line["metrics"][metric["name"]]
        if set(entry) != {"value", "unit"} or entry["unit"] != metric["unit"] or \
                not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            fail("%s: metric %s = %s" % (workload, metric["name"], entry))
    if not trace:
        for name, entry in line["metrics"].items():
            if entry["value"] == 0:
                fail("%s: end-to-end metric %s reads 0" % (workload, name))
    print("selftest: %s trace=%d ok (%d metrics)" % (workload, trace, len(wanted)))


def check_corrupted(workload):
    result = run(ROOT, workload, 0, ["--corrupt-reference"])
    lines = result.stdout.strip().splitlines()
    if result.returncode == 0 or not lines or json.loads(lines[-1])["correct"] is not False:
        fail("%s: the gate accepted a corrupted reference" % workload)
    print("selftest: %s corrupted reference rejected" % workload)


def check_bare_directory():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(base if os.path.isabs(base) else os.path.join(ROOT, base),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run(bare, "ingest", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if result.returncode == 0 or result.stdout.strip():
        fail("run.py printed a result without the program's sources")
    print("selftest: bare directory refused")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_spec(spec)
    print("selftest: BENCHMARK.json ok")
    check_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]]:
        check_result(spec, workload, 0)
        check_result(spec, workload, 1)
        check_corrupted(workload)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
