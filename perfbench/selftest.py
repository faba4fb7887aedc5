#!/usr/bin/env python3
"""Self-tests for the benchmark harness: every correctness check can fire.

Run from the repository root:

    python3 perfbench/selftest.py

Each case runs one short workload with a fault injected and expects the run
to fail (non-zero exit, correct=false) with the daemon stopped by SIGTERM,
drained, and gone:

  wrong-answer      one served estimate is off by one ulp
  dropped-reply     the daemon fails one reply write (a real failpoint in the
                    daemon); the client's transparent retry makes the daemon's
                    request count disagree with the harness's tally
  unbalanced-drain  the drain summary's books do not balance
  drifted-sse       OPT-A's SSE drifts from the harness's own exact SSE

A clean run must pass, and run.py must fail without printing a result in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, inject="", cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "2"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd)


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def check_daemons_drained(proc, failures, label):
    started = [int(p) for p in re.findall(r"daemon pid (\d+)\n", proc.stderr)]
    stopped = re.findall(r"daemon pid (\d+) stopped \(([^)]*)\)", proc.stderr)
    if not started:
        failures.append("%s: no daemon was started" % label)
    for pid in started:
        status = [s for p, s in stopped if int(p) == pid]
        if not status or "drained cleanly" not in status[0]:
            failures.append("%s: daemon %d not drained (%s)"
                            % (label, pid, status))
        if alive(pid):
            failures.append("%s: daemon %d outlived the run" % (label, pid))


def main():
    failures = []
    cases = [("serve-point", "wrong-answer", "differs from the in-process"),
             ("serve-point", "dropped-reply", "requests, the harness sent"),
             ("serve-point", "unbalanced-drain", "does not balance"),
             ("build", "drifted-sse", "differs from the DP-reported")]
    for workload, inject, message in cases:
        proc = run(workload, inject)
        label = "%s/%s" % (workload, inject)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode == 0 or result.get("correct", True):
            failures.append("%s: the run did not fail" % label)
        if message not in proc.stderr:
            failures.append("%s: expected check message %r missing"
                            % (label, message))
        if workload != "build":
            check_daemons_drained(proc, failures, label)
        print("%-30s exit %d" % (label, proc.returncode), flush=True)

    proc = run("serve-point")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
        failures.append("clean serve-point run failed:\n" + proc.stderr[-2000:])
    check_daemons_drained(proc, failures, "clean")
    print("%-30s exit %d" % ("serve-point/clean", proc.returncode))

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    bare = os.path.join(out_root, "perfbench-selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "build", "--seed", "1", "--seconds", "1"],
                          cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare directory: run.py did not fail cleanly")
    print("%-30s exit %d" % ("bare-directory", proc.returncode))
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s" % ("FAILED" if failures else "all checks fire"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
