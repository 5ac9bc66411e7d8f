#!/usr/bin/env python3
"""Paired end-to-end benchmark of two revisions (the parent and a change).

  python3 tools/bench_pairs.py --base HEAD~1 --change HEAD \\
      --workload long_window --pairs 10 --claim throughput_msgs_per_s \\
      --label "what the change does" [--out BENCH_e2e.json]

Each side is exported into a scratch directory of its own (`git archive` of
the revision; `--change .` exports the working tree, tracked and untracked
files that git does not ignore) and builds and runs there through its own
`bench/e2e/run_bench.py`, which this tool only calls. Pair k runs both sides
at seed `--seed + k`, the parent first in even pairs and the change first in
odd ones, so host drift between phases of minutes hits both sides alike.

Per workload and metric the row holds both sides' median and quartiles over
the pairs, the change/parent ratio of the medians, and the pairs the change
won. A claimed metric is accepted only if the change won at least 90% of
the pairs and its median beats the parent's by more than the parent's
interquartile range; otherwise the claim is refused and the tool exits 1.
Every metric that would pass that test is listed as `claimable`, so an A/A
run (`--base HEAD --change HEAD`) should list none.

The row, with `nproc`, is appended to the `rows` of the output file.
`--selftest` checks the claim rule on fixed samples.
"""

import argparse
import datetime
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better):
    """The claim rule over paired samples (parent[k], change[k])."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gap = sign * (med_c - med_p)
    return {
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": q3 - q1,
        "claimable": wins >= WIN_SHARE * len(parent) and gap > q3 - q1,
    }


def export(rev, dest):
    """Writes revision `rev` ('.' = the working tree) into `dest`."""
    os.makedirs(dest)
    if rev != ".":
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               rev], stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    files = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], stdout=subprocess.PIPE,
        check=True).stdout.split(b"\0")
    for name in files:
        if not name:
            continue
        src = os.path.join(ROOT, os.fsdecode(name))
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        dst = os.path.join(dest, os.fsdecode(name))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)
    return "working-tree"


def run_side(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(tree, "bench", "e2e", "run_bench.py"),
           "--workload", workload, "--seed", str(seed), "--trace",
           str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s printed no result (exit %d)" %
                           (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def metric_directions(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def measure(args):
    scratch = args.scratch or tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {"parent": os.path.join(scratch, "parent"),
             "change": os.path.join(scratch, "change")}
    for tree in trees.values():
        if os.path.exists(tree):
            shutil.rmtree(tree)
    revs = {"parent": export(args.base, trees["parent"]),
            "change": export(args.change, trees["change"])}
    better = metric_directions(trees["parent"])
    samples = {w: {"parent": {}, "change": {}} for w in args.workload}
    failed = {"parent": 0, "change": 0}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for w in args.workload:
            for side in order:
                rec = run_side(trees[side], w, seed, args.seconds,
                               args.trace)
                failed[side] += 0 if rec["correct"] else 1
                for name, m in rec["metrics"].items():
                    samples[w][side].setdefault(name, []).append(m["value"])
                log("pair %d/%d %-18s seed %d %-6s %s" % (
                    k + 1, args.pairs, w, seed, side,
                    "ok" if rec["correct"] else "FAILED"))
    row = {"label": args.label,
           "date": datetime.date.today().isoformat(),
           "parent": revs["parent"], "change": revs["change"],
           "nproc": os.cpu_count(), "pairs": args.pairs,
           "seeds": [args.seed, args.seed + args.pairs - 1],
           "seconds": args.seconds, "traced": bool(args.trace),
           "failed_runs": failed, "workloads": {}}
    refused = []
    print("%-18s %-26s %12s %12s %7s %5s %s" % (
        "workload", "metric", "parent", "change", "ratio", "wins",
        "parent IQR"))
    for w in args.workload:
        row["workloads"][w] = {}
        for name, parent in sorted(samples[w]["parent"].items()):
            change = samples[w]["change"].get(name, [])
            if len(change) != len(parent) or name not in better:
                continue
            pq = quartiles(parent)
            cq = quartiles(change)
            v = verdict(parent, change, better[name])
            entry = {"better": better[name],
                     "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
                     "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
                     "ratio": cq[1] / pq[1] if pq[1] else None,
                     "wins": v["wins"], "claimable": v["claimable"]}
            row["workloads"][w][name] = entry
            print("%-18s %-26s %12.6g %12.6g %7.3f %2d/%-2d %.6g%s" % (
                w, name, pq[1], cq[1], entry["ratio"] or 0.0, v["wins"],
                args.pairs, pq[2] - pq[0],
                "  claimable" if v["claimable"] else ""))
    claims = []
    for claim in args.claim:
        accepted = any(row["workloads"][w].get(claim, {}).get("claimable")
                       for w in args.workload)
        claims.append({"metric": claim, "accepted": accepted})
        if not accepted:
            refused.append(claim)
    row["claims"] = claims
    row["claimable"] = sorted("%s:%s" % (w, n)
                              for w in args.workload
                              for n, e in row["workloads"][w].items()
                              if e["claimable"])
    print("claimable: %s" % (", ".join(row["claimable"]) or "none"))
    for c in claims:
        print("claim %s: %s" % (c["metric"],
                                "accepted" if c["accepted"] else "REFUSED"))
    if args.out:
        doc = {"rows": []}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc["rows"].append(row)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    if not args.scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if refused or any(failed.values()) else 0


def selftest():
    """The claim rule on fixed samples: a clear win is accepted; a gap
    inside the parent's IQR, or too few pair wins, is refused."""
    parent = [100, 104, 96, 110, 90, 102, 98, 106, 94, 100]
    cases = [
        ("clear win", [p * 1.4 for p in parent], True),
        ("gap inside the parent IQR", [p + 5 for p in parent], False),
        ("8 of 10 pairs", [p * 1.4 if k < 8 else p * 0.9
                           for k, p in enumerate(parent)], False),
        ("A/A", list(parent), False),
    ]
    ok = True
    for name, change, want in cases:
        got = verdict(parent, change, "higher")["claimable"]
        ok = ok and got == want
        print("%-28s %s (want %s)" % (name, "claimable" if got else "refused",
                                       "claimable" if want else "refused"))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--base", default="HEAD~1",
                   help="parent revision (default HEAD~1)")
    p.add_argument("--change", default="HEAD",
                   help="changed revision; '.' is the working tree")
    p.add_argument("--workload", action="append",
                   help="workload (repeatable)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=101,
                   help="seed of the first pair")
    p.add_argument("--seconds", type=float,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--claim", action="append", default=[],
                   help="metric the change claims to improve (repeatable)")
    p.add_argument("--label", default="")
    p.add_argument("--out", help="append the row to this JSON file")
    p.add_argument("--scratch", help="keep the two trees (and their builds) "
                   "here instead of a temporary directory")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    try:
        return measure(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
