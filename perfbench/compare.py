#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect [--seeds 1-10] A_CHECKOUT A.jsonl B_CHECKOUT B.jsonl
    python3 perfbench/compare.py diff A.jsonl B.jsonl

collect runs the benchmark's command (BENCHMARK.json) in each of two
checkouts (say the parent and the change, or the same checkout twice)
once per workload and seed, with run_seconds from BENCHMARK.json, and
appends each run's JSON result, tagged with its workload and seed, to that
checkout's output file. It alternates the checkouts run by run, and which
side goes first alternates from seed to seed, so a host that slows down
or speeds up while the sets are collected moves both sides alike. Each
checkout builds the benchmark into its own .bench_build/.

diff prints, for every workload and end-to-end metric, each side's median
and quartiles, each side's spread (quartile distance over the median),
the change of B's median against A's, and whether that change stays
within the metric's bound from BENCHMARK.json. It also checks that both
sides failed the same share of operations. It exits 1 if any change is
out of bound, any run was incorrect or the failed shares differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(s, checkout, name, seed):
    cmd = s["command"] + ["--workload", name, "--seed", str(seed),
                          "--seconds", str(s["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: %s seed %d: exit %d" % (checkout, name, seed, proc.returncode), file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res.update(workload=name, seed=seed)
    print("%s: %s seed %d: %s" % (checkout, name, seed, " ".join(
        "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))))
    return res


def collect(args):
    s = spec()
    sides = [(os.path.abspath(args.a_checkout), open(args.a_out, "a")),
             (os.path.abspath(args.b_checkout), open(args.b_out, "a"))]
    try:
        for w in s["workloads"]:
            for n, seed in enumerate(seed_list(args.seeds)):
                order = sides if n % 2 == 0 else sides[::-1]
                for checkout, out in order:
                    res = run_one(s, checkout, w["name"], seed)
                    if res is None:
                        return 1
                    out.write(json.dumps(res) + "\n")
                    out.flush()
    finally:
        for _, out in sides:
            out.close()
    return 0


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r)
    return runs


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def diff(args):
    s = spec()
    a, b = load(args.a), load(args.b)
    ok = True
    print("%-15s %-16s %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s %s" % (
        "workload", "metric", "A q1", "A median", "A q3", "spread",
        "B q1", "B median", "B q3", "spread", "change", "bound", "verdict"))
    for w in s["workloads"]:
        name = w["name"]
        ra, rb = a.get(name, []), b.get(name, [])
        if len(ra) < 2 or len(rb) < 2:
            print("%-15s needs at least two runs on each side" % name)
            ok = False
            continue
        for side, runs in (("A", ra), ("B", rb)):
            if not all(r["correct"] for r in runs):
                print("%-15s side %s has incorrect runs" % (name, side))
                ok = False
        share = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in (ra, rb)]
        if share[0] != share[1]:
            print("%-15s failed share differs: A %.6g, B %.6g" % (name, share[0], share[1]))
            ok = False
        for m in s["end_to_end"]:
            sa = stats([r["metrics"][m["name"]]["value"] for r in ra])
            sb = stats([r["metrics"][m["name"]]["value"] for r in rb])
            change = (sb[1] - sa[1]) / sa[1]
            worse = change if m["better"] == "lower" else -change
            within = worse <= m["bound"]
            ok = ok and within
            print("%-15s %-16s %12.4g %12.4g %12.4g %6.1f%% | %12.4g %12.4g %12.4g %6.1f%% | %+7.1f%% %5.0f%% %s" % (
                name, m["name"], sa[0], sa[1], sa[2], 100 * sa[3], sb[0], sb[1], sb[2], 100 * sb[3],
                100 * change, 100 * m["bound"], "within" if within else "OUT OF BOUND"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--seeds", default="1-10")
    for arg in ("a_checkout", "a_out", "b_checkout", "b_out"):
        c.add_argument(arg)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args()
    return collect(args) if args.cmd == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
