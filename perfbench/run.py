#!/usr/bin/env python3
"""The benchmark of avp's whole validation flow (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds the benchmark program with dune, runs
the workload's rounds (one process each), checks its outputs and prints
one JSON object as the last line of standard output: the end-to-end
metrics (medians over the rounds) with --trace 0, the per-layer metrics
with --trace 1.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("design-loop", "model-tour", "mutate", "fuzz-compare")
DOMAINS = 2  # fixed for every workload; must match Jobs.domains
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = ".perfbench_out"
DEADLINE_S = 170.0  # the whole run, build excluded


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    # Pin what the program reads from the environment: the internal
    # enumerations that take no domain argument use AVP_DOMAINS.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AVP_") and k != "OCAMLRUNPARAM"}
    env["AVP_DOMAINS"] = str(DOMAINS)
    return env


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("no %s here: run from the root of the avp source tree" % need)
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, env=child_env(),
                       timeout=850)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def git_rev():
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def source_md5():
    """Digest of the program's sources, for trees that are not git checkouts."""
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def drive(args, deadline, extra):
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed)] + extra
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before: " + " ".join(cmd))
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(),
                       timeout=left, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark program failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def rounds(args, deadline):
    """Rounds of the seeded plan, one process each, while the next is
    expected to end within --seconds; the first always runs."""
    runs = []
    start = time.monotonic()
    while True:
        runs.append(drive(args, deadline, ["--round", str(len(runs))]))
        spent = time.monotonic() - start
        if len(runs) >= runs[0]["rounds_available"] or spent * (len(runs) + 1) / len(runs) > args.seconds:
            return runs


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    nproc = len(os.sched_getaffinity(0))
    if DOMAINS > nproc:
        fail("refusing to run %d domains on a host with nproc %d" % (DOMAINS, nproc))
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))

    problems = []
    if args.trace == 0:
        runs = rounds(args, deadline)
        values = {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    else:
        # Round 0 three times, each in a fresh process: untraced for the
        # overhead base, then traced twice for the exact-count self-check.
        base = drive(args, deadline, ["--round", "0"])
        traced = [drive(args, deadline, ["--round", "0", "--trace",
                                         "--spans", "%s.spans%d.jsonl" % (stem, i)])
                  for i in (1, 2)]
        runs = [base] + traced
        # The exact-count self-check: work counts and calling-domain
        # allocation must repeat exactly.
        a, b = traced[0]["exact"], traced[1]["exact"]
        for k in sorted(set(a) | set(b)):
            if a.get(k) != b.get(k):
                problems.append("count %s differs between traced runs: %s vs %s"
                                % (k, a.get(k), b.get(k)))
        values = dict(traced[0]["layers"])
        values["obs.overhead_ratio"] = traced[0]["wall_s"] / base["wall_s"]
        wanted = spec["per_layer"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for job in r["jobs"]:
            for e in job.get("errors", []):
                problems.append("%s: %s" % (job["key"], e))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("benchmark program did not report " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "domains": DOMAINS, "rounds": len(runs),
        "enum.domains_used": max(r["enum.domains_used"] for r in runs),
        "ocaml": runs[0]["ocaml"], "git_rev": git_rev(), "source_md5": source_md5(),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": problems, "metrics": metrics, "runs": runs,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    for m in wanted:
        print("%-28s %14.6g %s" % (m["name"], metrics[m["name"]]["value"], m["unit"]))
    print("fail_ratio %d/%d; nproc %d, domains %d, enum.domains_used %d; ocaml %s; rev %s"
          % (failed, attempted, nproc, DOMAINS, record["enum.domains_used"],
             record["ocaml"], record["git_rev"]))
    for msg in problems:
        print("problem: " + msg)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
