"""One benchmark worker: a fresh process that runs a workload's job list once.

    python3 perfbench/worker.py SPEC MODE START

SPEC is the job list written by run.py, MODE one of `setup` (import and
load, then the reference job below), `plain` (the timed job list) or
`traced` (the same jobs as explicit stage calls, one span per call; see
tracing.py), START the parent's time.monotonic() just before it started
this process.  The result is one JSON object on stdout.

A fresh process per run is the point: arrtop memoizes per arrangement in
module-level caches, so a second pass in one process would time cache hits.
"""

import io
import itertools
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_RANKS = 1164  # the sum of the 330 ranks, fixed by the forms


def _setup(spec_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import arrtop
    import arrtop.cli  # noqa: F401  (part of set-up for the CLI workload)

    with open(spec_path) as fh:
        spec = json.load(fh)
    arrangements = [
        arrtop.normalize(a["forms"], len(a["forms"][0]))
        for a in spec["arrangements"]
    ]
    return arrtop, spec, arrangements


def reference():
    """A fixed job that never touches arrtop: exact Gaussian elimination
    over Fraction on every 4-subset of 11 small integer forms in C^5, the
    kind of work arrtop does.  Its time measures the machine's speed at the
    moment, which on a shared machine drifts by tens of percent over
    minutes; run.py divides the job times by it."""
    forms = [[(3 * i + 7 * j * j + i * j) % 7 - 3 for j in range(5)]
             for i in range(11)]
    ranks = 0
    for rows in itertools.combinations(forms, 4):
        m = [[Fraction(x) for x in row] for row in rows]
        rank = 0
        for col in range(5):
            pivot = next((r for r in range(rank, 4) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for r in range(rank + 1, 4):
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
            rank += 1
        ranks += rank
    if ranks != REFERENCE_RANKS:
        raise AssertionError(f"reference job: rank sum {ranks}")


def _plain_cli(at, job, arr, spec):
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = at.cli.main(list(job["argv"]))
    elapsed = time.perf_counter() - start
    report = json.loads(buf.getvalue())
    arrangement = spec["arrangements"][job["arr"]] if "arr" in job else None
    return elapsed, oracle.check_cli(job, arrangement, code, report)


def _plain_lattice(at, job, arr, spec):
    expect = spec["arrangements"][job["arr"]]["expect"]
    start = time.perf_counter()
    flats = len(at.intersection_lattice(arr).flats)
    central = list(at.poincare_central(arr).coefficients)
    if expect["supersolvable"]:
        exponents = list(at.supersolvable_exponents(arr).exponents)
        supersolvable = True
    else:
        exponents, supersolvable = None, at.is_supersolvable(arr)
    polar = at.polar_degree(arr).degree
    elapsed = time.perf_counter() - start
    return elapsed, oracle.check_lattice(
        spec["arrangements"][job["arr"]], flats, central, supersolvable,
        exponents, polar)


def _plain_complex(at, job, arr, spec):
    start = time.perf_counter()
    complex_ = at.graded_complex(arr, job["degree"])
    acyclic = at.is_acyclic(complex_)
    elapsed = time.perf_counter() - start
    return elapsed, oracle.check_complex(
        spec["arrangements"][job["arr"]], job["degree"], complex_.u_dims, acyclic)


def _plain_section(at, job, arr, spec):
    degree = job["degree"]
    start = time.perf_counter()
    cokernel = at.homotopy_cokernel_ranks(at.SectionData(arr, 3), degree)
    _, series = at.homotopy_hilbert_series(
        at.supersolvable_exponents(arr), 2, degree)
    series = series.integer_coefficients()
    elapsed = time.perf_counter() - start
    return elapsed, oracle.check_section(
        spec["arrangements"][job["arr"]], degree, cokernel, series)


PLAIN = {"lattice": _plain_lattice, "complex": _plain_complex,
         "section": _plain_section}


def run_plain(at, spec, arrangements):
    jobs = []
    for job in spec["jobs"]:
        runner = _plain_cli if "argv" in job else PLAIN[job["kind"]]
        arr = arrangements[job["arr"]] if "arr" in job else None
        try:
            elapsed, errors = runner(at, job, arr, spec)
        except Exception as exc:  # an unexpected exception fails the job
            elapsed, errors = None, [f"{type(exc).__name__}: {exc}"]
        jobs.append({"s": elapsed, "errors": errors})
    return {"jobs": jobs}


def main(argv):
    spec_path, mode, start = argv[0], argv[1], float(argv[2])
    at, spec, arrangements = _setup(spec_path)
    out = {"setup_s": time.monotonic() - start}
    if mode == "plain":
        out.update(run_plain(at, spec, arrangements))
    elif mode == "traced":
        import tracing

        out.update(tracing.run_traced(at, spec, arrangements))
    else:
        ref_start = time.perf_counter()
        reference()
        out["ref_s"] = time.perf_counter() - ref_start
    if mode != "setup":
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
