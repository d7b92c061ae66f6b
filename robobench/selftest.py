#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 robobench/selftest.py

It checks that:
  * the metric catalogue of the binary matches BENCHMARK.json;
  * each workload, run briefly twice with one seed, repeats every
    deterministic value (digests, track_cost, fail_ratio,
    sim_us_per_solve, paper_err_pct, counts) exactly, and another seed
    changes the generated inputs;
  * the final JSON line has the required keys and metrics in both
    modes, and a traced run writes its Chrome trace;
  * in a directory holding only BENCHMARK.json and robobench/, the
    command fails without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Leave nothing behind in robobench/.
import run as bench  # noqa: E402

SEED, OTHER_SEED = 7, 8
SECONDS = "1"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_once(workload, seed, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", SECONDS, "--trace", str(trace)]
    code, out = bench.run_benchmark(args, stdout=subprocess.PIPE)
    last = json.loads(out.strip().splitlines()[-1])
    path = os.path.join(bench.OUT, "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path) as f:
        details = json.load(f)
    label = "%s seed %d trace %d" % (workload, seed, trace)
    check(code == 0, label + ": exit code 0 (got %d)" % code)
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
          label + ": result keys")
    check(last["correct"] is True and last["attempted"] >= 1,
          label + ": correct with at least one attempt")
    return last, details


def bare_directory_fails(spec):
    """The command must fail, printing no result, without the repo."""
    bare = os.path.join(bench.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(bench.ROOT, path),
                        os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(spec["command"] + ["--workload", "control",
                                             "--seed", "1", "--seconds",
                                             "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{")
                         for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result,
          "bare directory: nonzero exit (%d) and no result"
          % proc.returncode)


def main():
    bench.build()
    os.makedirs(bench.OUT, exist_ok=True)
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    listed = subprocess.run([bench.EXE, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    catalogue = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        catalogue[kind].append((name, unit))
    for kind in catalogue:
        check(catalogue[kind] == [(m["name"], m["unit"]) for m in spec[kind]],
              "BENCHMARK.json %s matches the binary's catalogue" % kind)

    for workload in [w["name"] for w in spec["workloads"]]:
        first, a = run_once(workload, SEED, 0)
        _, b = run_once(workload, SEED, 0)
        _, c = run_once(workload, OTHER_SEED, 0)
        check(a["deterministic"] == b["deterministic"],
              workload + ": deterministic values repeat for one seed")
        check(a["deterministic"]["input_digest"]
              != c["deterministic"]["input_digest"],
              workload + ": another seed changes the inputs")
        check(sorted(first["metrics"])
              == sorted(m["name"] for m in spec["end_to_end"]),
              workload + ": untraced result has every end-to-end metric")
        traced, t = run_once(workload, SEED, 1)
        check(sorted(traced["metrics"])
              == sorted(m["name"] for m in spec["per_layer"]),
              workload + ": traced result has every per-layer metric")
        # Toolchain traces add a pass, so only the inputs and the
        # seed-independent results must agree across modes.
        same = [k for k in a["deterministic"]
                if k not in ("attempted", "failed")]
        check(all(t["deterministic"][k] == a["deterministic"][k]
                  for k in same),
              workload + ": tracing leaves the deterministic values alone")
        trace_path = os.path.join(bench.OUT, workload + "-trace.json")
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        check(any(e.get("ph") == "X" for e in events),
              workload + ": traced run wrote its spans")

    bare_directory_fails(spec)
    print("selftest: %s" % ("FAILED: %d checks" % len(failures)
                            if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
