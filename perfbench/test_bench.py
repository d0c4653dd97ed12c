#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Run from the root of a source checkout.  Builds lcbench like run.py
does, then runs every workload of BENCHMARK.json as the benchmark
measures it (same dataset sizes, run_seconds long; fixtures are cached,
so this takes a few minutes):

  * twice with seed 1: every exact metric (model I/Os, bytes per point,
    pool faults, emio counts) must repeat bit-for-bit;
  * once with seed 2: a second seed must be accepted and pass its
    oracles;
  * in every run, no untimed span (query generation, fixture builds,
    oracles) may overlap a timed window.

Exits 1 on the first failed assertion.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORK = os.path.join(run.WORK_DIR, "test")


def drive(exe, lcsearch, workload, seconds, seed, trace, tag):
    out = os.path.join(WORK, "%s-%s.json" % (workload, tag))
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--lcsearch", lcsearch, "--work", WORK, "--out", out]
    pin = run.pin_to_one_cpu if workload in run.PINNED else None
    r = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=300,
                       preexec_fn=pin)
    check(r.returncode == 0, "%s seed %d exited %d" % (workload, seed, r.returncode))
    with open(out) as f:
        res = json.load(f)
    check(res["correct"] and res["failed"] == 0,
          "%s seed %d: %d of %d attempts failed"
          % (workload, seed, res["failed"], res["attempted"]))
    return res


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def exact(res):
    return {k: m["value"] for k, m in res["metrics"].items() if m["exact"]}


def check_windows(res, label):
    timed = [s for s in res["spans"] if s["timed"]]
    for u in (s for s in res["spans"] if not s["timed"]):
        for t in timed:
            check(u["t1_s"] <= t["t0_s"] or t["t1_s"] <= u["t0_s"],
                  "%s: untimed %s overlaps timed %s" % (label, u["name"], t["name"]))


def main():
    root = os.getcwd()
    spec = run.load_spec(root)
    run.check_sources(root)
    exe, lcsearch = run.build(root)
    os.makedirs(WORK, exist_ok=True)
    for w in (w["name"] for w in spec["workloads"]):
        seconds = spec["run_seconds"]
        a = drive(exe, lcsearch, w, seconds, 1, 1, "a")
        b = drive(exe, lcsearch, w, seconds, 1, 0, "b")
        c = drive(exe, lcsearch, w, seconds, 2, 0, "c")
        ea, eb = exact(a), exact(b)
        shared = sorted(set(ea) & set(eb))
        check(shared, "%s reports no exact metrics" % w)
        for k in shared:
            check(ea[k] == eb[k], "%s: exact %s differs for one seed: %r vs %r"
                  % (w, k, ea[k], eb[k]))
        for res, tag in ((a, "seed 1 traced"), (b, "seed 1"), (c, "seed 2")):
            check_windows(res, "%s %s" % (w, tag))
        print("ok %s: %d exact metrics repeat, seed 2 accepted, windows clean"
              % (w, len(shared)))


if __name__ == "__main__":
    main()
