#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the `tim` binary (the server under
test) and the `timbench` runner from source into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload; the last stdout line is
the result object. `--selftest` runs every workload at a seconds-long
scale, traced and untraced, and checks each result against BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One run must end within 180 s; `timbench` bounds itself at 170 s.
RUN_TIMEOUT_S = 178


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "tim_cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, tiny=False, capture=False):
    """Runs one workload; returns (exit code, stdout if captured)."""
    release = os.path.join(target_dir(), "release")
    work = os.path.join(target_dir(), "perfbench",
                        "work-%s-%d-%d" % (workload, seed, os.getpid()))
    cmd = [os.path.join(release, "timbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tim", os.path.join(release, "tim"), "--work", work]
    if tiny:
        cmd.append("--tiny")
    # A session of its own, so a timeout can stop `timbench` and every
    # server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, out


# Every workload `timbench` implements.
WORKLOADS = ("cold_build", "restart")


def selftest():
    """Every workload, traced and untraced, at the tiny scale: every name
    in BENCHMARK.json reported with its unit, and no request failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_workload(name, 1, 2, trace, tiny=True, capture=True)
            lines = [l for l in (out or "").splitlines() if l.strip()]
            if code != 0 or not lines:
                problems.append("%s trace=%d: exit %d" % (name, trace, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s trace=%d: keys %s" % (name, trace, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s trace=%d: correct=%s failed=%s" % (
                    name, trace, result["correct"], result["failed"]))
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            if sorted(got) != sorted(want):
                problems.append("%s trace=%d: metric names differ: missing %s, extra %s" % (
                    name, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            for metric, unit in want.items():
                if metric in got and got[metric]["unit"] != unit:
                    problems.append("%s: %s has unit %s, not %s" % (
                        name, metric, got[metric]["unit"], unit))
            if trace == 1 and got.get("error_frac", {}).get("value") != 0:
                problems.append("%s: error_frac %s" % (name, got.get("error_frac")))
            print("selftest %s trace=%d: %d metrics, %d requests, failed=%d" % (
                name, trace, len(got), result["attempted"], result["failed"]))
    for p in problems:
        print("selftest FAILED: " + p)
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    build()
    if a.selftest:
        sys.exit(selftest())
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run_workload(a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
