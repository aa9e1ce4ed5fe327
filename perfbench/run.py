"""Benchmark of streamformer: training, long greedy decoding, renaming audits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
runs half the time untraced, replays the same rounds with spans around the
program's public functions, and reports the per-layer metrics and the
tracing overhead.  Either way the outputs are checked, a table goes to
stdout, and the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Results and spans are written under
perfbench/out/.  Exit code 2 means the program could not be found.
"""
import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

WORKLOAD_NAMES = ("train-prop4", "certify-fresh", "audit-prop4")
SETUP_REPEATS = 5
SETUP_GAUGES = 20        # reference passes before and after each set-up
# BLAS on one thread: the runs are single-caller loops on a 2-core machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(sf, workloads, name, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    setups, setup_speeds = [], []
    for _ in range(SETUP_REPEATS):
        rec = workloads.Recorder(seed)
        for _ in range(SETUP_GAUGES):
            rec.gauge()
        run, took, _ = rec.timed(lambda: workloads.setup(sf, name, seed, rec))
        for _ in range(SETUP_GAUGES):
            rec.gauge()
        setups.append(took)
        setup_speeds.append(rec.speed())
        rec.refs.clear()
    restore = workloads.install_recorder(sf, rec, run)
    try:
        rounds, _ = workloads.run_rounds(run, rec, seconds=seconds)
    finally:
        restore()
    rss = _peak_rss_mb()
    metrics = workloads.end_to_end(
        rec, [t * f for t, f in zip(setups, setup_speeds)], rss)
    raw = workloads.end_to_end(rec, setups, rss, calibrated=False)

    fails = run.check(rec)
    info = {"rounds": rounds, "setup_s": setups, "speed": rec.speed(),
            "references": len(rec.refs),
            "raw_metrics": {m: v for m, (v, _) in raw.items()},
            "samples": workloads.sample_counts(rec)}
    return metrics, [rec], fails, info


def trace(sf, workloads, spans, name, seed, seconds):
    """Traced run: per-layer metrics and the tracing overhead.

    Two runs set up alike take turns round by round, one untraced and one
    traced, and the pair swaps order each round, so that the machine's
    drift in speed falls on both alike.  One round on a throwaway set-up
    warms the process first.
    """
    warm = workloads.Recorder(seed, gauged=False)
    workloads.run_rounds(workloads.setup(sf, name, seed, warm), warm,
                         rounds=1)
    tracer = spans.Tracer()
    plain = workloads.Recorder(seed, gauged=False)
    plain_run = workloads.setup(sf, name, seed, plain)
    traced = workloads.Recorder(seed, tracer, gauged=False)
    spans.install(tracer, sf)
    try:
        traced_run = workloads.setup(sf, name, seed, traced)
    finally:
        tracer.uninstall()

    def one_round(with_spans, r):
        rec, run = (traced, traced_run) if with_spans else (plain, plain_run)
        if with_spans:
            spans.install(tracer, sf)
        restore = workloads.install_recorder(sf, rec, run)
        try:
            t0 = time.perf_counter()
            run.round(rec, r)
            return time.perf_counter() - t0
        finally:
            restore()
            if with_spans:
                tracer.uninstall()

    took = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    rounds = 0
    while True:
        for with_spans in ((False, True) if rounds % 2 == 0
                           else (True, False)):
            took[with_spans] += one_round(with_spans, rounds)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    untraced_s, traced_s = took[False], took[True]
    metrics = spans.summarize(tracer, 100.0 * (traced_s / untraced_s - 1.0))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.jsonl"))
    fails = traced_run.check(traced)
    info = {"rounds": rounds, "untraced_s": untraced_s,
            "traced_s": traced_s, "spans": len(tracer.spans)}
    return metrics, [plain, traced], fails, info


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import program
    try:
        sf = program.load()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.trace:
        metrics, recs, fails, info = trace(sf, workloads, spans,
                                           args.workload, args.seed,
                                           args.seconds)
    else:
        metrics, recs, fails, info = measure(sf, workloads, args.workload,
                                             args.seed, args.seconds)
    attempted = sum((rec.attempted for rec in recs), Counter())
    failed = sum((rec.failed for rec in recs), Counter())
    greedy_calls = sum(rec.greedy_calls for rec in recs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {info['rounds']}  speed {info.get('speed', 1.0):.4f}")
    for kind in sorted(attempted):
        print(f"  {kind:24s} attempted {attempted[kind]:6d}  "
              f"failed {failed.get(kind, 0)}")
    print(f"  {'greedy decode calls':24s} {greedy_calls:6d}")
    raw = info.get("raw_metrics", {})
    for metric, (value, unit) in metrics.items():
        note = f"   raw {raw[metric]:.6g}" if metric in raw else ""
        print(f"  {metric:36s} {value:14.6g} {unit}{note}")
    for msg in fails:
        print(f"CHECK FAILED: {msg}")

    result = {
        "correct": not fails,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(result, attempted_by_kind=attempted,
                       failed_by_kind=failed, greedy_calls=greedy_calls,
                       checks_failed=fails, run=info), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
