#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (README.md in this directory).

Every invocation first configures and builds build-bench/ from the current
sources in Release (bench/e2e/CMakeLists.txt, which pulls in the root
project), so a stale or non-Release binary is never measured.

  run.py [--seed N] [--seconds S] [--scale DIV]
      Run every workload in BENCHMARK.json once with the traced rep and
      print every end-to-end and per-layer metric. --scale 50 --seconds 0
      is the quick smoke size.
  run.py --workload W --seed N --seconds S --trace 0|1
      Run one workload. The last stdout line is the result JSON; with
      --trace 0 it holds the end-to-end metrics, with --trace 1 the
      per-layer ones.
  run.py --record FILE --runs R [--seed N] [--seconds S]
      Run every workload R times untraced, with seeds N .. N+R-1, append
      each result to FILE (JSON lines) and print each metric's median and
      quartile spread. Refuses to start when the 1-minute load average is
      above the CPU count.
  run.py --compare A B
      Compare two recorded files metric by metric against the bounds in
      BENCHMARK.json. Exits 1 when B regresses on any gated metric.

Exit status is nonzero whenever an output is wrong, a build fails, or the
library sources are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "sbrs_bench"
TRACES = BUILD / "traces"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "store" / "store.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context():
    """Where and from what a result was measured."""
    commit, dirty = "unknown", None
    top = git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain"))
    return {"commit": commit, "dirty": dirty, "nproc": os.cpu_count(),
            "load1": round(os.getloadavg()[0], 2)}


def run_workload(spec, workload, seed, seconds, trace, scale=1):
    """Run one workload; echo its output and return its result object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(TRACES), "--scale", str(scale)]
    print("# context: " + json.dumps(context()), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} (seed {seed}) failed with exit code "
             f"{proc.returncode}")
    result = json.loads(lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail(f"{workload}: metrics {sorted(result['metrics'])} do not match "
             f"BENCHMARK.json {sorted(wanted)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} (seed {seed}) produced wrong output")
    return result


def spread(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def read_records(path):
    """{(workload, metric): [values]} from a --record file."""
    table = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, metric in rec["result"]["metrics"].items():
            table.setdefault((rec["workload"], name), []).append(
                metric["value"])
    return table


def record(spec, args):
    ctx = context()
    if ctx["load1"] > ctx["nproc"]:
        fail(f"1-minute load {ctx['load1']} is above nproc {ctx['nproc']}; "
             "not recording")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    with open(args.record, "a") as out:
        for w in spec["workloads"]:
            for i in range(args.runs):
                seed = args.seed + i
                result = run_workload(spec, w["name"], seed, seconds, False)
                out.write(json.dumps({"workload": w["name"], "seed": seed,
                                      "seconds": seconds,
                                      "context": context(),
                                      "result": result}) + "\n")
                out.flush()
    table = read_records(args.record)
    print(f"\n{'workload':24} {'metric':20} {'median':>14} {'iqr/med':>8} "
          f"{'bound':>6}  spread")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            med, _, _, rel = spread(table[(w["name"], m["name"])])
            note = ("ok" if rel < m["bound"] / 3 else
                    "within bound" if rel <= m["bound"] else "TOO WIDE")
            print(f"{w['name']:24} {m['name']:20} {med:14.6g} {rel:8.4f} "
                  f"{m['bound']:6.3f}  {note}")


def compare(spec, path_a, path_b):
    a, b = read_records(path_a), read_records(path_b)
    regressions = 0
    print(f"{'workload':24} {'metric':20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                print(f"{w['name']:24} {m['name']:20} missing on one side")
                regressions += 1
                continue
            ma, qa1, qa3, ra = spread(a[key])
            mb, qb1, qb3, rb = spread(b[key])
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            if max(ra, rb) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
                regressions += 1
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            side_a = f"{ma:.6g} [{qa1:.6g}, {qa3:.6g}]"
            side_b = f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}]"
            print(f"{w['name']:24} {m['name']:20} {side_a:>34} {side_b:>34} "
                  f"{change:+8.2%}  {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        sys.exit(compare(spec, *args.compare))
    build()
    if args.record:
        record(spec, args)
        return
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload:
        run_workload(spec, args.workload, args.seed, seconds, args.trace == 1,
                     args.scale)
        return
    for w in spec["workloads"]:
        run_workload(spec, w["name"], args.seed, seconds, True, args.scale)


if __name__ == "__main__":
    main()
