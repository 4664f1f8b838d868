"""Run one lexmv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sampled-catalog --seed 1 --seconds 30 --trace 0

Set-up (a fresh import of lexmv from src/ plus building the workload's
algebras, tables and witnesses) is repeated SETUP_REPEATS times and its
median is setup_s.  The timed phase then runs whole passes over the
workload's request list, one request after another (closed loop, one
client), until --seconds have been measured.  Times are normalized to
the host's speed by a reference computation timed next to each request
(see run_pass in workloads.py).  Every output is checked against the
known answers; the last line of stdout is the JSON result.

--trace 1 instead alternates untraced and traced runs of each pass (see
tracer.py) for --seconds, then runs the per-layer probes (probes.py); it
prints the per-layer metrics, with the tracer's figures per pass.  --out
FILE appends a record of the run for compare.py.  --profile prints a
cProfile top-10 for each request family to stderr after the measured phase.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import answers  # noqa: E402
from perfbench.workloads import (MODULES, ROOT, SRC, WORKLOADS, cli_call,  # noqa: E402
                                 failures, forget_lexmv, import_lexmv, normalize,
                                 run_pass, time_reference)

SETUP_REPEATS = 41
TRACE_DIR = ROOT / ".bench_out"


def setup(workload: str, seed: int):
    """(median set-up seconds, lexmv modules, workload) over SETUP_REPEATS
    fresh set-ups, each normalized by reference() like a request."""
    times = []
    for _ in range(SETUP_REPEATS):
        L = wl = None
        forget_lexmv()
        gc.collect()  # free the earlier copy of lexmv, so peak_rss_mb counts one
        before = time_reference()
        t0 = time.perf_counter_ns()
        L = import_lexmv()
        wl = WORKLOADS[workload](L, seed)
        took = time.perf_counter_ns() - t0
        times.append(normalize(took, before, time_reference()))
    return statistics.median(times), L, wl


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 samples beyond it."""
    lat = sorted(latencies)
    k = max(len(lat) - 11, 0)
    return lat[k], 100.0 * (k + 1) / len(lat)


def report_failures(bad) -> None:
    for req, reason in bad[:20]:
        print(f"FAILED {req.family} [{req.label}]: {reason}", file=sys.stderr)


def known_defects(L) -> int:
    """Known defects (known_answers.json) that still reproduce; never part of a timed pass."""
    still = 0
    for name, argv, expect in answers.defect_expectations():
        try:
            reason = answers.check_cli(cli_call(L, argv), expect)
        except Exception as exc:  # the defect may be an escaped exception
            reason = f"raised {type(exc).__name__}"
        if reason:
            still += 1
            print(f"known defect {name}: {reason}")
    return still


def timed(wl, seconds: float):
    """Whole passes until `seconds` of wall time were measured.  Returns the
    normalized time of each pass and of each request, requests attempted
    and failures."""
    measured, passes, lat, attempted, bad = 0.0, [], [], 0, []
    while measured < seconds:
        reqs = wl.next_pass()
        norm, wall, outs = run_pass(reqs)
        measured += wall
        passes.append(sum(norm))
        lat += norm
        attempted += len(reqs)
        bad += failures(reqs, outs)
    return passes, lat, attempted, bad


def end_to_end(setup_s, passes, lat):
    """The end-to-end metrics from normalized seconds per pass and per request."""
    value, pct = tail(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "requests_per_s": (len(lat) / sum(passes), "1/s"),
        "verdict_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "verdict_tail_ms": (1e3 * value, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    info = {"tail_percentile": pct, "verdicts": len(lat), "passes": len(passes)}
    return metrics, info


def traced(L, wl, seconds: float, seed: int, workload: str):
    """Alternate untraced and traced runs of the same pass until `seconds`
    were measured; per-pass averages of the tracer's figures, then the probes."""
    from perfbench import probes
    from perfbench.tracer import Tracer

    tracer = Tracer(L, MODULES)
    plain = traced_s = measured = 0.0
    passes, attempted, bad = 0, 0, []
    while measured < seconds:
        reqs = wl.next_pass()
        norm, wall, outs = run_pass(reqs)
        plain += sum(norm)
        measured += wall
        bad += failures(reqs, outs)
        tracer.install()
        try:
            norm, wall, outs = run_pass(reqs, tracer)
        finally:
            tracer.uninstall()
        traced_s += sum(norm)
        measured += wall
        bad += failures(reqs, outs)
        passes += 1
        attempted += 2 * len(reqs)
    tracer.write(TRACE_DIR / f"spans-{workload}-{seed}.jsonl")
    metrics = {}
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = tracer.norm_self_s[mod] / passes
        metrics[f"{mod}.calls"] = tracer.calls[mod] / passes
    metrics["groups.shape_checks"] = tracer.leaf_calls("groups.check_shape") / passes
    metrics["trace.overhead_s"] = (traced_s - plain) / passes
    print(f"per pass over {passes} passes (normalized): traced {traced_s / passes:.3f} s, untraced "
          f"{plain / passes:.3f} s, tracing overhead {metrics['trace.overhead_s']:.3f} s, "
          f"self times summed {sum(tracer.norm_self_s.values()) / passes:.3f} s")
    metrics.update(probes.run_all(L, seed))
    metrics["cli.known_defects"] = known_defects(L)
    units = dict(probes.LAYER_METRICS)
    return {k: (metrics[k], units[k]) for k in units}, attempted, bad, {"passes": passes}


def profile(L, wl) -> None:
    """cProfile top-10 by own time for each request family of one pass (stderr)."""
    import cProfile
    import io
    import pstats

    by_family = {}
    for req in wl.next_pass():
        prof = by_family.setdefault(req.family, cProfile.Profile())
        prof.runcall(req.call)
    for family, prof in by_family.items():
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(10)
        print(f"=== {family}\n{buf.getvalue()}", file=sys.stderr)


def commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = git / name
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"machine": f"{platform.node()} ({model})", "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append a JSON record of this run here")
    ap.add_argument("--profile", action="store_true", help="cProfile top-10 per request family")
    args = ap.parse_args(argv)
    if not (SRC / "lexmv" / "__init__.py").is_file():
        print(f"perfbench: no lexmv sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup_s, L, wl = setup(args.workload, args.seed)
    if args.trace:
        metrics, attempted, bad, info = traced(L, wl, args.seconds, args.seed, args.workload)
    else:
        passes, lat, attempted, bad = timed(wl, args.seconds)
        metrics, info = end_to_end(setup_s, passes, lat)
        print(f"{args.workload}: {info['verdicts']} verdicts in {info['passes']} passes; tail is "
              f"p{info['tail_percentile']:.2f} with {info['verdicts']} samples")
        known_defects(L)
    if args.profile:
        profile(L, wl)
    report_failures(bad)
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, info=info, **machine())
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
