#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

One run (the interface BENCHMARK.json names):
  python3 bench/e2e/run_bench.py --workload dense_serial --seed 7 \
      --seconds 15 --trace 0
builds the two binaries under .bench_build/e2e if needed, runs the untraced
binary (--trace 0, end-to-end metrics) or the traced one (--trace 1,
per-layer metrics), and prints one JSON object as the last line of output.

A set of runs, with median, IQR and sample count per metric:
  python3 bench/e2e/run_bench.py --runs 10 [--trace 1] [--out runs.json]
Agreement of two such sets within each metric's bound:
  python3 bench/e2e/run_bench.py --agree runs_a.json runs_b.json
Smoke test of both binaries at 5% scale (what ctest runs):
  python3 bench/e2e/run_bench.py --smoke [--bin-dir DIR]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1234
WORKLOADS = ["dense_serial", "dense_parallel", "long_window",
             "checkpoint_restart"]
RUN_TIMEOUT_S = 170
# (workload, end-to-end metric) pairs whose run-to-run IQR exceeded 10% of
# the median in one of the two 10-run sets in README.md. --agree skips them;
# the README lists their spreads.
UNGATED = {
    ("dense_serial", "setup_s"),
    ("dense_parallel", "throughput_msgs_per_s"),
    ("dense_parallel", "slide_p50_ms"),
    ("dense_parallel", "setup_s"),
    ("dense_parallel", "checkpoint_p50_ms"),
    ("dense_parallel", "restore_ms"),
    ("long_window", "checkpoint_p50_ms"),
    ("long_window", "restore_ms"),
    ("checkpoint_restart", "setup_s"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds both binaries; returns their directory."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                 "maritime_bench", "maritime_bench_traced"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return BUILD_DIR


def run_binary(bin_dir, workload, seed, seconds, traced, scale=None,
               echo=True):
    """Runs one binary; returns its final JSON record."""
    exe = os.path.join(bin_dir, "maritime_bench_traced" if traced
                       else "maritime_bench")
    cmd = [exe, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds]
    if scale is not None:
        cmd.append("--scale=%s" % scale)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s printed no result (exit %d)" %
                           (" ".join(cmd), done.returncode))
    record = json.loads(lines[-1])
    record["exit_code"] = done.returncode
    return record


def expected_digest(workload, seed, scale=1.0):
    if seed != DEFAULT_SEED or scale != 1.0:
        return None
    with open(DIGESTS) as f:
        return json.load(f).get(workload)


def single_run(args):
    bench = load_benchmark()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    bin_dir = build()
    rec = run_binary(bin_dir, args.workload, args.seed, args.seconds,
                     args.trace)
    correct = rec["correct"] and rec["exit_code"] == 0
    want = expected_digest(args.workload, args.seed)
    if want is not None and rec["digest"] != want:
        log("CE digest %s != committed %s" % (rec["digest"], want))
        correct = False
    metrics = {}
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError("binary did not report " + m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not correct and "failed_share" in metrics:
        metrics["failed_share"]["value"] = 1.0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def many_runs(args):
    """Runs every workload at seeds 1..N and summarises every metric the
    binary prints, whether BENCHMARK.json gates it or not."""
    bin_dir = build()
    seconds = args.seconds or load_benchmark()["run_seconds"]
    samples = {w: {} for w in WORKLOADS}
    units = {}
    digests = {w: {} for w in WORKLOADS}
    failures = 0
    for k in range(args.runs):
        seed = k + 1
        # Alternate the workload order so drift on the host hits each
        # workload at both ends of a round.
        order = WORKLOADS if k % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            rec = run_binary(bin_dir, w, seed, seconds, args.trace,
                             echo=False)
            ok = rec["correct"] and rec["exit_code"] == 0
            failures += 0 if ok else 1
            digests[w][str(seed)] = rec["digest"]
            for name, m in rec["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log("run %d/%d %-18s seed %d %s" % (
                k + 1, args.runs, w, seed, "ok" if ok else "FAILED"))
    summary = {"commit": commit(), "nproc": os.cpu_count(),
               "traced": bool(args.trace), "seconds": seconds,
               "runs": args.runs, "failures": failures, "digests": digests,
               "workloads": {}}
    print("commit %s, nproc %d, %d runs of %s s" % (
        summary["commit"], summary["nproc"], args.runs, seconds))
    print("%-18s %-28s %14s %14s %7s %3s" % (
        "workload", "metric", "median", "IQR", "IQR/med", "n"))
    for w in WORKLOADS:
        summary["workloads"][w] = {}
        for name, values in samples[w].items():
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / abs(med) if med else 0.0
            summary["workloads"][w][name] = {
                "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "rel_iqr": rel, "n": len(values), "values": values}
            print("%-18s %-28s %14.6g %14.6g %6.1f%% %3d %s" % (
                w, name, med, q3 - q1, 100 * rel, len(values), units[name]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if failures == 0 else 1


def agree(args):
    """Sets A and B agree if, for every end-to-end metric of BENCHMARK.json
    on every workload, except the UNGATED pairs, both IQRs are within the
    metric's bound and B's median is not worse than A's by more than the
    bound, and if every seed of A gave the same digest in B."""
    bench = load_benchmark()
    with open(args.agree[0]) as f:
        a = json.load(f)
    with open(args.agree[1]) as f:
        b = json.load(f)
    ok = True
    for w in WORKLOADS:
        for m in bench["end_to_end"]:
            name = m["name"]
            if (w, name) in UNGATED:
                print("%-18s %-24s not gated" % (w, name))
                continue
            ma =a["workloads"].get(w, {}).get(name)
            mb = b["workloads"].get(w, {}).get(name)
            if ma is None or mb is None:
                print("%-18s %-24s missing from %s" % (
                    w, name, "A" if ma is None else "B"))
                ok = False
                continue
            bound = m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb["median"] - ma["median"]) / abs(ma["median"])
            iqr = max(ma["rel_iqr"], mb["rel_iqr"])
            within = worse <= bound and iqr <= bound
            ok = ok and within
            print("%-18s %-24s A %12.6g B %12.6g worse %+6.1f%% "
                  "IQR %5.1f%% bound %4.1f%% %s" % (
                      w, name, ma["median"], mb["median"], 100 * worse,
                      100 * iqr, 100 * bound, "ok" if within else "OUT"))
        da = a["digests"].get(w, {})
        db = b["digests"].get(w, {})
        for seed, d in sorted(da.items()):
            if db.get(seed) != d:
                print("%s seed %s: digest %s in A, %s in B" % (
                    w, seed, d, db.get(seed)))
                ok = False
        if not da:
            print("%s: no digests in A" % w)
            ok = False
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def smoke(args):
    bin_dir = args.bin_dir or build()
    ok = True
    for w in WORKLOADS:
        plain = run_binary(bin_dir, w, DEFAULT_SEED, 0, False, scale=0.05,
                           echo=False)
        traced = run_binary(bin_dir, w, DEFAULT_SEED, 0, True, scale=0.05,
                            echo=False)
        good = (plain["correct"] and traced["correct"] and
                plain["exit_code"] == 0 and traced["exit_code"] == 0 and
                plain["digest"] == traced["digest"])
        ok = ok and good
        print("%-18s untraced %s traced %s %s" % (
            w, plain["digest"], traced["digest"], "ok" if good else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int)
    p.add_argument("--out", help="write the --runs summary as JSON")
    p.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin-dir")
    args = p.parse_args()
    try:
        if args.agree:
            return agree(args)
        if args.smoke:
            return smoke(args)
        if args.runs:
            return many_runs(args)
        if args.workload:
            if args.seconds is None:
                args.seconds = load_benchmark()["run_seconds"]
            return single_run(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    p.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
