#!/usr/bin/env python3
"""Run one workload of the lcsearch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark program
(perfbench/lcbench.exe) and the lcsearch binary from source with dune
into .bench_build/, runs the workload, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  Each per-layer metric belongs to
the workloads named in OWNERS; a workload must report every metric it
owns, and a metric of a layer it does not exercise reads 0.  Scratch files (fixtures, saved
snapshots, the full per-run result with provenance and span log) go to
.bench_work/.  Exits non-zero, without a result line, when the checkout
has no sources to build or a run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Per-layer metric name prefixes, and the workloads that report them.
OWNERS = {
    "serve.": ("serve_zipf",),
    "core.": ("static_mem",),
    "emio.": ("static_mem",),
    "lsm.": ("churn_disk",),
    "diskstore.": ("churn_disk",),
    "trace.": ("serve_zipf", "static_mem", "churn_disk"),
}

# Workloads run pinned to one CPU (see pin_to_one_cpu).
PINNED = ("serve_zipf",)


def owners(name):
    for prefix, workloads in OWNERS.items():
        if name.startswith(prefix):
            return workloads
    fail("per-layer metric %s has no owning workload" % name, 7)


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_sources(root):
    for p in ("dune-project", "lib", os.path.join("bin", "lcsearch.ml")):
        if not os.path.exists(os.path.join(root, p)):
            fail("no %s here: not an lcsearch source checkout" % p, 3)


def provenance(root):
    """The git commit when there is one, and always a digest of the
    sources the benchmark builds (checkouts need not be git trees)."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".in", "dune")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    src = "src:" + h.hexdigest()[:16]
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:%s %s" % (out.stdout.strip(), src)
    except (OSError, subprocess.SubprocessError):
        pass
    return src


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/lcbench.exe",
           "./bin/lcsearch.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 4)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode, 4)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "lcbench.exe")
    lcsearch = os.path.join(BUILD_DIR, "default", "bin", "lcsearch.exe")
    return exe, lcsearch


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait until
    it is empty (a crashed lcbench may orphan its server)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def pin_to_one_cpu():
    """Confine lcbench, and the server it spawns, to the last CPU
    this process may use: client, reactor and dispatcher then hand off
    by local context switches instead of cross-vCPU wake-ups, whose
    cost on a shared VM follows the host's load.  Only serve_zipf is
    pinned; the single-threaded workloads are better off free to move
    away from whatever else runs on a CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_lcbench(root, exe, args, timeout, pin):
    """Run lcbench in its own process group, echo its output, and return
    (exit code, its last output line)."""
    p = subprocess.Popen([exe] + args, cwd=root, stdout=subprocess.PIPE,
                         text=True, start_new_session=True,
                         preexec_fn=pin_to_one_cpu if pin else None)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.wait()
        fail("workload did not finish within %d s" % timeout, 5)
    stop_group(p.pid)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return p.returncode, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    root = os.getcwd()
    spec = load_spec(root)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    check_sources(root)
    exe, lcsearch = build(root)
    os.makedirs(WORK_DIR, exist_ok=True)
    out = os.path.join(WORK_DIR, "result-%s-seed%d-trace%d.json"
                       % (a.workload, a.seed, a.trace))
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--lcsearch", lcsearch, "--work", WORK_DIR, "--out", out,
            "--commit", provenance(root), "--nproc", str(os.cpu_count() or 0)]
    code, last = run_lcbench(root, exe, args, RUN_TIMEOUT_S,
                            pin=a.workload in PINNED)
    try:
        res = json.loads(last)
    except ValueError:
        fail("workload printed no result (exit %d)" % code, 6)
    measured = res["metrics"]
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not a.trace or a.workload in owners(m["name"]):
                fail("workload did not report %s" % m["name"], 7)
            value = 0.0
        else:
            value = got["value"]
            if got["unit"] != m["unit"]:
                fail("%s: unit %s, BENCHMARK.json says %s"
                     % (m["name"], got["unit"], m["unit"]), 7)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(res["correct"]) and code == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
