"""One round in a fresh process: import the program from a checkout's `src`,
parse a frozen config, call `runner.run` once, and report on standard output.

Usage: python3 child.py --config FILE --outdir DIR --t0 T [--trace]

It prints two JSON lines. The first, right after the config is parsed, holds
the job count and the set-up time (from T, the parent's monotonic clock just
before it started this process). The second, after the run, holds the run's
times, peak RSS, manifest digests and, with --trace, the per-layer sums.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def job_count(runner, cfg) -> int:
    """Seeded units one run of cfg hands to pmap or the runner loop."""
    pr = cfg.params
    if cfg.experiment == "locallaw-scan":
        return len(pr["sizes"]) * pr["samples"]
    if cfg.experiment == "dbm-gaps":
        return pr["samples"]
    if cfg.experiment == "moments-match":
        return len(runner.moment_target_grid(pr["grid_count"], pr["gammas"])) * len(pr["gammas"])
    raise ValueError(f"no job count for experiment {cfg.experiment!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from rmt_locallaw import runner

    if not os.path.abspath(runner.__file__).startswith(src + os.sep):
        print(f"imported {runner.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2
    with open(args.config) as fh:
        text = fh.read()
    p0 = time.monotonic()
    cfg = runner.parse_config(text)
    ready = time.monotonic()
    print(json.dumps({"jobs": job_count(runner, cfg), "setup_s": ready - args.t0}), flush=True)

    # this script's directory is sys.path[0]
    import envinfo
    import spans

    tracer = None
    if args.trace:
        from rmt_locallaw import dbm, ensembles, locallaw, moments, parallel, stats

        tracer = spans.Tracer()
        spans.instrument(tracer, {
            "runner": runner, "ensembles": ensembles, "locallaw": locallaw,
            "dbm": dbm, "stats": stats, "moments": moments, "parallel": parallel,
        })

    cpu0 = spans.cpu_s()
    w0 = time.perf_counter()
    if tracer is not None:
        with tracer.span("runner.run"):
            manifest = runner.run(cfg, args.outdir)
    else:
        manifest = runner.run(cfg, args.outdir)
    wall = time.perf_counter() - w0
    cpu = spans.cpu_s() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from rmt_locallaw.parallel import default_workers

    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "parse_s": ready - p0,
        "digests": manifest.digests,
        "acceptance": manifest.acceptance,
        "environment": {**envinfo.program_environment(), "workers": cfg.workers or default_workers()},
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
