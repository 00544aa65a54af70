#!/usr/bin/env python3
"""The steady-state pipeline benchmark: build, run one workload, report.

Run from the root of the source tree:

  python3 perfbench/run.py --workload live_saturated --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py ... --save results.jsonl   # also append the result
  python3 perfbench/run.py control --seed 1            # weak-runtime negative control
  python3 perfbench/run.py summary results.jsonl       # medians, quartiles, spread
  python3 perfbench/run.py compare base.jsonl new.jsonl

Each run builds perfbench/ (and the libraries it links, from src/) into
.bench_build/perfbench, then runs the binary with a deadline. The last
line of stdout is the result object; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The binary stops starting rounds after 140 s; this is the backstop.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 840
FAILED_RESULT = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_tree():
    """The benchmark builds the program from source: insist it is here."""
    for path in ("CMakeLists.txt", os.path.join("src", "stm", "recorder.hpp"),
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(path):
            log(f"perfbench: {path} missing; run from the root of the source tree")
            sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(2)


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return proc.stdout.decode().strip() or "unknown"


def run_binary(args):
    """Run the binary in its own process group; kill the group on timeout.
    Returns (exit code or None on timeout, stdout lines)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s (hung run)")
        return None, []
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out.decode(errors="replace").splitlines()


def on_sigterm(_signum, _frame):
    raise SystemExit(1)


def run(argv):
    p = argparse.ArgumentParser(description="run one benchmark workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append the result record to this file")
    a = p.parse_args(argv)

    check_tree()
    build()
    tmp = os.path.join(".bench_build", "tmp", f"{a.workload}-{os.getpid()}")
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        code, lines = run_binary([
            f"--workload={a.workload}", f"--seed={a.seed}",
            f"--seconds={a.seconds}", f"--trace={a.trace}", f"--tmp={tmp}",
            # One file per workload, the latest traced run: a traced
            # durable_paced run writes ~200 MB of spans.
            f"--trace-out={os.path.join(traces, f'{a.workload}.jsonl')}",
            f"--git-sha={git_sha()}"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = None
    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            log(line)
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if code is None:
        result = FAILED_RESULT
    if result is None:
        log(f"perfbench: the binary exited {code} without a result")
        return 2
    if a.save:
        with open(a.save, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                "trace": a.trace, "provenance": provenance,
                                "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if code == 0 else 1


def control(argv):
    p = argparse.ArgumentParser(description="weak-runtime negative control")
    p.add_argument("--seed", type=int, default=1)
    a = p.parse_args(argv)
    check_tree()
    build()
    tmp = os.path.join(".bench_build", "tmp", f"control-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        code, lines = run_binary(["--control", f"--seed={a.seed}", f"--tmp={tmp}"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("\n".join(lines), flush=True)
    return 0 if code == 0 else 1


# --- result sets ------------------------------------------------------------------

def load(path):
    """{workload: [result, ...]} of the untraced records in a result file."""
    sets = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    sets.setdefault(rec["workload"], []).append(rec["result"])
    return sets


def end_to_end_metrics():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def describe(values):
    """(median, q1, q3, spread): spread is (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def summary(argv):
    p = argparse.ArgumentParser(description="median, quartiles and spread per metric")
    p.add_argument("results")
    a = p.parse_args(argv)
    ok = True
    print(f"{'workload':15} {'metric':20} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6}")
    for workload, results in sorted(load(a.results).items()):
        failed = sum(1 for r in results if not r["correct"])
        for m in end_to_end_metrics():
            vals = values_of(results, m["name"])
            if not vals:
                continue
            med, q1, q3, spread = describe(vals)
            flag = "" if spread <= m["bound"] else "  > bound"
            ok = ok and (not flag or m["name"] == "setup_s")
            print(f"{workload:15} {m['name']:20} {len(vals):3} {med:14.6g} "
                  f"{q1:14.6g} {q3:14.6g} {spread:7.3f} {m['bound']:6.2f}{flag}")
        if failed:
            ok = False
            print(f"{workload:15} {failed} of {len(results)} runs failed the oracle")
    return 0 if ok else 1


def compare(argv):
    p = argparse.ArgumentParser(description="compare two result sets, metric by metric")
    p.add_argument("base")
    p.add_argument("new")
    a = p.parse_args(argv)
    base, new = load(a.base), load(a.new)
    print(f"{'workload':15} {'metric':20} {'base median [q1, q3]':>40} "
          f"{'new median [q1, q3]':>40}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in end_to_end_metrics():
            b, n = values_of(base[workload], m["name"]), values_of(new[workload], m["name"])
            if not b or not n:
                continue
            bm, bq1, bq3, bs = describe(b)
            nm, nq1, nq3, ns = describe(n)
            lower = m["better"] == "lower"
            change = (nm - bm) / bm if bm else 0.0
            worse = change > m["bound"] if lower else change < -m["bound"]
            better = change < -m["bound"] if lower else change > m["bound"]
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if max(bs, ns) > m["bound"] and not all_better:
                verdict = "unresolved (spread > bound)"
            elif worse:
                verdict = f"worse by {abs(change):.1%}"
            elif better or all_better:
                verdict = f"better by {abs(change):.1%}"
            else:
                verdict = "unchanged"
            print(f"{workload:15} {m['name']:20} "
                  f"{f'{bm:.6g} [{bq1:.6g}, {bq3:.6g}]':>40} "
                  f"{f'{nm:.6g} [{nq1:.6g}, {nq3:.6g}]':>40}  {verdict}")
    return 0


def main():
    argv = sys.argv[1:]
    commands = {"control": control, "summary": summary, "compare": compare}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
