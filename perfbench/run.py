"""Benchmark of the rmt-locallaw experiment runner, measured from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats rounds of one frozen workload config, with its "seed" set to N,
until S seconds have passed (at least MIN_ROUNDS rounds), and stops early
after a round that crashes or outlives what is left of ROUNDS_BUDGET_S. Each round is a
fresh process (child.py) that imports the program from `src/`, parses the
config and calls `runner.run` once. Worker and BLAS thread counts are left as
the environment gives them and recorded. After the rounds, the outputs are
checked (checks.py) and every round must have written the same bytes.

--trace 0 reports the end-to-end metrics: medians over the completed rounds,
except peak_rss_mb, their largest peak. --trace 1 alternates untraced and
traced rounds and reports the per-layer sums of the traced ones (lower
medians over rounds) plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("scan-resolvent", "dbm-gaps-real", "moments-mc")
MIN_ROUNDS = 3
# All rounds of a run end within this many seconds, stuck ones killed, so
# that the run with its checks exits within 180 s.
ROUNDS_BUDGET_S = 140


def run_round(config_path: str, outdir: str, traced: bool, timeout: float) -> dict:
    """One child process; waits for it and returns what it reported."""
    t0 = time.monotonic()
    cmd = [sys.executable, CHILD, "--config", config_path, "--outdir", outdir, "--t0", repr(t0)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nround killed after {timeout:.0f} s"
    reports = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return {
        "traced": traced,
        "outdir": outdir,
        "jobs": reports[0]["jobs"] if reports else None,
        "setup_s": reports[0]["setup_s"] if reports else None,
        "result": reports[1] if proc.returncode == 0 and len(reports) > 1 else None,
        "error": None if proc.returncode == 0 else f"exit {proc.returncode}: {err.strip()[-2000:]}",
    }


def output_bytes(outdir: str, digests: dict) -> int:
    return sum(os.path.getsize(os.path.join(outdir, name)) for name in digests)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rmt-locallaw benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rmt_locallaw", "runner.py")):
        print(f"error: no program to benchmark under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import checks

    with open(os.path.join(HERE, "workloads", f"{args.workload}.json")) as fh:
        config = json.load(fh)
    config["seed"] = args.seed
    rundir = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    config_path = os.path.join(rundir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, sort_keys=True)

    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        i = len(rounds)
        left = start + ROUNDS_BUDGET_S - time.monotonic()
        if left <= 0:
            break
        rnd = run_round(config_path, os.path.join(rundir, f"round-{i}"), bool(args.trace) and i % 2 == 1, left)
        if rnd["jobs"] is None:
            print(f"error: round {i} did not start the program: {rnd['error']}", file=sys.stderr)
            return 2
        rounds.append(rnd)
        if rnd["error"]:
            break
    measured_s = time.monotonic() - start

    # Checks: each round's files must match its manifest and the first
    # completed round's digests. The content checks run once, on the first
    # completed round; they hold for every round with the same bytes.
    for i, r in enumerate(rounds):
        if r["error"]:
            print(f"round {i} failed: {r['error']}", file=sys.stderr)
    good = [r for r in rounds if r["result"] is not None]
    if not good:
        print("error: no round completed", file=sys.stderr)
        return 1
    first = good[0]["outdir"]
    content = checks.CONTENT_CHECKS[config["experiment"]](first, checks.read_manifest(first, config["experiment"]))
    for i, r in enumerate(good):
        r["problems"] = checks.check_digests(r["outdir"], checks.read_manifest(r["outdir"], config["experiment"]))
        if r["result"]["digests"] != good[0]["result"]["digests"]:
            r["problems"].append(f"completed round {i}: digests differ from the first completed round's")
        r["problems"] += content
        r["output_bytes"] = output_bytes(r["outdir"], r["result"]["digests"])
    for r in rounds:
        shutil.rmtree(r["outdir"], ignore_errors=True)
    problems = list(dict.fromkeys(p for r in good for p in r["problems"]))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(r["jobs"] for r in rounds)
    failed = attempted - sum(r["jobs"] for r in good if not r["problems"])
    correct = not problems

    med = statistics.median
    if args.trace:
        traced = [r for r in good if r["traced"]]
        plain = [r for r in good if not r["traced"]]
        if not traced or not plain:
            print("error: a traced run needs a completed traced and untraced round", file=sys.stderr)
            return 1
        # median_low reports a value one round measured, so counts stay exact
        low = statistics.median_low
        values = {k: low(r["result"]["layers"][k] for r in traced) for k in traced[0]["result"]["layers"]}
        values["runner.parse_s"] = low(r["result"]["parse_s"] for r in traced)
        values["runner.output_bytes"] = low(r["output_bytes"] for r in traced)
        values["trace.overhead_s"] = med(r["result"]["wall_s"] for r in traced) - med(r["result"]["wall_s"] for r in plain)
    else:
        # Peak RSS depends on how the jobs on pmap's threads happen to
        # overlap, so a round can miss the peak; the run's peak is the largest.
        values = {
            "wall_s": med(r["result"]["wall_s"] for r in good),
            "cpu_s": med(r["result"]["cpu_s"] for r in good),
            "peak_rss_mb": max(r["result"]["peak_rss_mb"] for r in good),
            "setup_s": med(r["setup_s"] for r in rounds),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    environment = {
        **good[0]["result"]["environment"],
        "trace": bool(args.trace),
        "rounds": len(rounds),
        "measured_s": measured_s,
    }
    if args.trace:
        # recorded context, not scored: the job count is fixed by the config,
        # and a threading policy may rightly change the worker count either way
        environment.update({k: values[k] for k in ("parallel.jobs", "parallel.workers")})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment,
        "rounds": [{k: v for k, v in r.items() if k not in ("outdir",)} for r in rounds],
        "problems": problems,
    }
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("environment: " + json.dumps(environment, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} rounds = {len(rounds)}, jobs attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
