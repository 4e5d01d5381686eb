"""arrtop benchmark: one run of one workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Builds the workload's job list from the seed (workloads.py), writes the CLI
inputs under perfbench/.work/, and for --seconds starts one fresh worker
process at a time (worker.py), each running the whole job list once.
Every output is checked against closed forms (oracle.py).  Set-up is also
timed in start-up-only workers spread through the window, so setup_s is a
median of many.  These workers also time a fixed reference job that never
touches arrtop.  The job times are reported as multiples of its mean
(unit `ref`) and set-up as seconds at its nominal speed: the machine's
speed drifts, and moves both alike.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run (tracing.py) with its overhead against plain workers run
alternately in the same window.  Human-readable lines come first; the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_EVERY_S = 1.5  # one start-up-only worker per this much of the window
RUN_LIMIT_S = 170  # stop starting workers so that a run ends within 180 s
# the reference job's typical time on the machine of baseline.json; setup_s
# is given in seconds at that speed
REF_NOMINAL_S = 0.06

END_TO_END = {"setup_s": "s", "wall_rel": "ref", "job_p50_rel": "ref",
              "job_p90_rel": "ref", "peak_rss_mb": "MB"}
SPAN_METRICS = [
    "arrangement.lattice", "arrangement.generic_sample",
    "arrangement.section_lattice", "polar.degree", "homotopy.exponents",
    "oscohomology.nbc", "oscohomology.cup", "oscohomology.envelope",
    "homotopy.complex", "exactalg.block_rank", "homotopy.cokernel",
    "homotopy.series", "cli.load", "cli.report",
]
COUNT_METRICS = [
    "arrangement.flats", "oscohomology.nbc_monomials",
    "oscohomology.envelope_dims", "homotopy.block_rows", "homotopy.block_nnz",
    "cli.refused", "trace.recomputes",
]


class WorkerFailed(RuntimeError):
    pass


def run_worker(spec_path, mode, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, mode,
         repr(start)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed"] = time.monotonic() - start
    return result


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(spec_path, seconds, trace):
    """Workers one at a time until the window closes.  Without trace, each
    measured worker is followed by start-up-only workers, one per
    SETUP_EVERY_S of the window so far, so that set-up and the reference job
    are sampled evenly over the same stretch of time as the job lists.  With
    trace, traced and plain workers alternate."""
    limit = time.monotonic() + RUN_LIMIT_S
    probes, plain, traced = [], [], []
    window_start = time.monotonic()
    window = window_start + seconds
    while True:
        mode = "traced" if trace and len(traced) <= len(plain) else "plain"
        result = run_worker(spec_path, mode, limit)
        (traced if mode == "traced" else plain).append(result)
        while not trace:
            probes.append(run_worker(spec_path, "setup", limit))
            if len(probes) >= (time.monotonic() - window_start) / SETUP_EVERY_S:
                break
        # stop when the next worker would end mostly after the window
        now = time.monotonic()
        typical = statistics.median(r["elapsed"] for r in plain + traced)
        enough = plain and (traced or not trace)
        if enough and now + typical / 2 >= window or now + result["elapsed"] > limit:
            return probes, plain, traced


def job_list_time(worker):
    return sum(j["s"] for j in worker["jobs"] if j["s"] is not None
               and not j.get("probe"))


def end_to_end(probes, plain):
    """Times divided by the reference job's time, so that a drift of the
    machine's speed, which moves both alike, cancels: job-list and job
    times as multiples of it, set-up as seconds at REF_NOMINAL_S.  The
    reference is the mean over the start-up-only workers of the same run:
    a job list lasts seconds and so averages the machine's fast and slow
    moments, while one reference job samples a single moment."""
    setups = [w["setup_s"] for w in probes + plain]
    setup = statistics.median(setups)
    ref = statistics.fmean(p["ref_s"] for p in probes)
    wall = statistics.median(job_list_time(w) for w in plain)
    latencies = [j["s"] for w in plain for j in w["jobs"] if j["s"] is not None]
    p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
    metrics = {
        "setup_s": setup / ref * REF_NOMINAL_S,
        "wall_rel": wall / ref,
        "job_p50_rel": p50 / ref,
        "job_p90_rel": p90 / ref,
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in plain),
    }
    beyond = sum(1 for x in latencies if x > p90)
    samples = {
        "setup_s": f"at reference speed; measured {setup:.4f} s, median of "
                   f"{len(setups)} worker start-ups",
        "wall_rel": f"job list {wall:.4f} s, median of {len(plain)} runs",
        "job_p50_rel": f"job p50 {p50:.4f} s, {len(latencies)} jobs pooled over runs",
        "job_p90_rel": f"job p90 {p90:.4f} s, {len(latencies)} jobs pooled, "
                       f"{beyond} beyond",
        "peak_rss_mb": f"median of {len(plain)} workers",
    }
    lines = [f"{k:12s} {v:.4f} {END_TO_END[k]:3s}  {samples[k]}"
             for k, v in metrics.items()]
    lines.append(f"ref: reference job {ref:.4f} s, mean of {len(probes)} "
                 "start-up-only workers")
    return lines, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(plain, traced):
    """Summed span time per stage (median over traced workers) and exact
    counts, which must agree between traced workers."""
    lines, metrics = [], {}
    for name in SPAN_METRICS:
        per_worker = [sum(e - s for n, s, e, _ in w["spans"] if n == name)
                      for w in traced]
        metrics[name + "_s"] = {"value": statistics.median(per_worker), "unit": "s"}
    counts = []
    for w in traced:
        c = dict(w["counts"])
        c["trace.recomputes"] = len(w["recomputes"])
        counts.append({k: c.get(k, 0) for k in COUNT_METRICS})
    consistent = all(c == counts[0] for c in counts)
    for name in COUNT_METRICS:
        metrics[name] = {"value": counts[0][name], "unit": "count"}
    traced_total = statistics.median(job_list_time(w) for w in traced)
    plain_total = statistics.median(job_list_time(w) for w in plain)
    metrics["trace.overhead_s"] = {"value": traced_total - plain_total, "unit": "s"}
    for name, m in metrics.items():
        lines.append(f"{name:34s} {m['value']:.6g} {m['unit']}")
    lines.append(f"trace: {len(traced)} traced / {len(plain)} plain workers; "
                 f"traced job list {traced_total:.4f} s, plain {plain_total:.4f} s")
    recomputes = sorted(set(r for w in traced for r in w["recomputes"]))
    lines.append("recomputing stages: " + ("; ".join(recomputes) or "none"))
    lines.append("wait: none measured; every job runs on one thread and no stage "
                 "waits on another, so no wait metric exists")
    if not consistent:
        lines.append(f"COUNTS DIFFER between traced workers: {counts}")
    return lines, metrics, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny job lists (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "arrtop", "__init__.py")):
        print(f"arrtop sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    spec = workloads.build(args.workload, args.seed, args.quick)
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workloads.write_inputs(spec, work)
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        started = time.monotonic()
        probes, plain, traced = measure(spec_path, args.seconds, args.trace)
        elapsed = time.monotonic() - started
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            os.rmdir(os.path.dirname(work))

    jobs = [j for w in plain + traced for j in w["jobs"]]
    failed = [j for j in jobs if j["errors"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{elapsed:.1f} s measured")
    print("inputs " + json.dumps(workloads.properties(spec)))
    print(f"failed_share {len(failed) / len(jobs):.4f} ratio  "
          f"({len(failed)} of {len(jobs)} jobs)")
    for j in failed[:5]:
        print("  FAILED: " + "; ".join(j["errors"][:3]))
    consistent = True
    if args.trace:
        lines, metrics, consistent = per_layer(plain, traced)
    else:
        lines, metrics = end_to_end(probes, plain)
    print("\n".join(lines))
    print(json.dumps({"correct": not failed and consistent, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
