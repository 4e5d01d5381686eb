"""Traced run: the same jobs as worker.py, made as explicit calls into each
module's public functions in dependency order, so that each call's time is
that stage's own work (its inputs are already warm in arrtop's caches).

One span per call: name `<module>.<function>`, start, end and the job span
as parent.  Spans stay in memory and are returned with the worker result.
Counts are recorded at the same boundaries.

A stage recomputes when it misses one of arrtop's per-arrangement caches
that an earlier stage owns (for example a second holonomy_envelope build
because a caller spelled its arguments differently).  Each such miss is
listed by span and cache name.  Calls below are therefore spelled exactly as
arrtop's internal callers spell them.
"""

import io
import json
import time
from contextlib import redirect_stdout

import oracle

# cache name -> the spans that may fill it
OWNERS = {
    "intersection_lattice": {"arrangement.lattice", "arrangement.section_lattice",
                             "homotopy.exponents"},
    "supersolvable_exponents": {"homotopy.exponents"},
    "central_algebra": {"oscohomology.nbc"},
    "cohomology_view": {"oscohomology.cup"},
    "holonomy_envelope": {"oscohomology.envelope"},
    "graded_complex": {"homotopy.complex"},
}


class Tracer:
    def __init__(self, at):
        self.caches = {
            "intersection_lattice": at.intersection_lattice,
            "supersolvable_exponents": at.supersolvable_exponents,
            "central_algebra": at.oscohomology.central_algebra,
            "cohomology_view": at.oscohomology.cohomology_view,
            "holonomy_envelope": at.holonomy_envelope,
            "graded_complex": at.graded_complex,
        }
        self.spans = []
        self.counts = {}
        self.recomputes = []
        self.job = None

    def _misses(self):
        return {name: fn.cache_info().misses for name, fn in self.caches.items()}

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span; exceptions propagate after the span closes."""
        before = self._misses()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append([name, start, end, self.job])
            for cache, count in self._misses().items():
                if count > before[cache] and name not in OWNERS[cache]:
                    self.recomputes.append(f"{name} rebuilt {cache}")

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# stages: each runs once per arrangement (and degree) in a worker, as the
# caches it fills are per arrangement; polar.degree and the CLI stages run
# on every job, as the program redoes them on every call


class Stages:
    def __init__(self, tr, at):
        self.tr, self.at = tr, at
        self.warm = set()

    def _first(self, *key):
        if key in self.warm:
            return False
        self.warm.add(key)
        return True

    def lattice(self, arr):
        tr, at = self.tr, self.at
        if self._first("lattice", arr):
            lat = tr.call("arrangement.lattice", at.intersection_lattice, arr)
            tr.count("arrangement.flats", len(lat.flats))
        return list(at.poincare_central(arr).coefficients)

    def polar(self, arr):
        """The polar degree with its Euler-identity verification split into
        the stages it runs, spelled as polar.lefschetz_euler_check spells
        them; the identity itself is checked here."""
        tr, at = self.tr, self.at
        n = arr.ambient_dim - 1
        u = tr.call("arrangement.generic_sample", at.sample_generic_subspace,
                    arr, arr.ambient_dim - 1, at.polar.DEFAULT_SEED)

        def section_betti():
            section = at.restrict_to_subspace(arr, u)
            at.intersection_lattice(section)
            return at.poincare_projective(section)

        section = tr.call("arrangement.section_lattice", section_betti)
        report = tr.call("polar.degree", at.polar_degree, arr, verify=False)
        lhs = (-1) ** n * (at.poincare_projective(arr)(-1) - section(-1))
        if lhs != report.degree:
            raise AssertionError(f"Euler identity: {lhs} != {report.degree}")
        return report.degree

    def exponents(self, arr):
        """Exponents, or None when not supersolvable (a refusal is not
        cached by arrtop, so it is asked again every time)."""
        tr, at = self.tr, self.at
        if ("exponents", arr) in self.warm:
            return list(at.supersolvable_exponents(arr).exponents)
        try:
            exps = tr.call("homotopy.exponents", at.supersolvable_exponents, arr)
        except at.errors.NotSupersolvable:
            return None
        self.warm.add(("exponents", arr))
        return list(exps.exponents)

    def cohomology(self, arr):
        tr, at = self.tr, self.at
        if not self._first("cohomology", arr):
            return

        def nbc():
            return sum(len(at.nbc_basis(arr, q).monomials)
                       for q in range(arr.rank + 1))

        tr.count("oscohomology.nbc_monomials", tr.call("oscohomology.nbc", nbc))

        def cup():
            for q in range(1, arr.rank):
                at.cup_matrix(arr, q, projective=True)

        tr.call("oscohomology.cup", cup)

    def envelope(self, arr, degree):
        self.cohomology(arr)
        if self._first("envelope", arr, degree):
            env = self.tr.call("oscohomology.envelope", self.at.holonomy_envelope,
                               arr, degree, projective=True, work_bound=None)
            self.tr.count("oscohomology.envelope_dims", sum(env.dims))

    def complex(self, arr, degree):
        tr, at = self.tr, self.at
        self.envelope(arr, degree)
        first = self._first("complex", arr, degree)
        complex_ = tr.call("homotopy.complex", at.graded_complex, arr, degree)
        if first:
            rows = [row for block in complex_.blocks.values() for row in block]
            tr.count("homotopy.block_rows", len(rows))
            tr.count("homotopy.block_nnz", sum(len(row) for row in rows))

            def ranks():
                for q, t in sorted(complex_.blocks):
                    complex_.block_rank(q, t)

            tr.call("exactalg.block_rank", ranks)
        return complex_, tr.call("homotopy.verify", at.is_acyclic, complex_)

    def section(self, arr, degree):
        tr, at = self.tr, self.at
        exponents = self.exponents(arr)
        self.envelope(arr, degree)
        cokernel = tr.call("homotopy.cokernel", at.homotopy_cokernel_ranks,
                           at.SectionData(arr, 3), degree)

        def series():
            _, s = at.homotopy_hilbert_series(
                at.ExponentData(tuple(exponents)), 2, degree)
            return s.integer_coefficients()

        return cokernel, tr.call("homotopy.series", series)

    def lcs(self, arr):
        exponents = self.exponents(arr)
        return self.tr.call("homotopy.lcs", self.at.lcs_ranks,
                            self.at.ExponentData(tuple(exponents)), 4)


# ---------------------------------------------------------------------------
# jobs


def _cli_job(st, job, arr, spec):
    tr, at = st.tr, st.at
    arrangement = spec["arrangements"][job["arr"]] if "arr" in job else None
    command = job["argv"][0]
    if "arr" in job:
        arr = tr.call("cli.load", at.cli.load_arrangement_file, job["path"])[0]
        st.lattice(arr)
    if job["exit"] == 0:
        if command == "report":
            st.polar(arr)
            if st.exponents(arr) is not None:
                st.lcs(arr)
            st.complex(arr, 3)
        elif command == "gr-check":
            st.complex(arr, 4)
        elif command == "lcs":
            st.lcs(arr)
        elif command == "pi-p":
            st.section(arr, job["degree"])
    elif "arr" in job:
        st.exponents(arr)

    def cli_main():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = at.cli.main(list(job["argv"]))
        return code, buf.getvalue()

    # the whole CLI call, with its exit code, once the stages are warm
    code, text = tr.call("cli.report" if job["exit"] == 0 else "cli.main", cli_main)
    if job["exit"]:
        tr.count("cli.refused", code != 0)
    return oracle.check_cli(job, arrangement, code, json.loads(text))


def _lattice_job(st, job, arr, spec):
    tr, at = st.tr, st.at
    arrangement = spec["arrangements"][job["arr"]]
    central = st.lattice(arr)
    polar = st.polar(arr)
    if arrangement["expect"]["supersolvable"]:
        exponents = st.exponents(arr)
        supersolvable = exponents is not None
    else:
        exponents = None
        supersolvable = tr.call("homotopy.exponents", at.is_supersolvable, arr)
    flats = len(at.intersection_lattice(arr).flats)
    return oracle.check_lattice(arrangement, flats, central, supersolvable,
                                exponents, polar)


def _complex_job(st, job, arr, spec):
    st.lattice(arr)
    complex_, acyclic = st.complex(arr, job["degree"])
    return oracle.check_complex(spec["arrangements"][job["arr"]], job["degree"],
                                complex_.u_dims, acyclic)


def _section_job(st, job, arr, spec):
    st.lattice(arr)
    cokernel, series = st.section(arr, job["degree"])
    return oracle.check_section(spec["arrangements"][job["arr"]], job["degree"],
                                cokernel, series)


TRACED = {"lattice": _lattice_job, "complex": _complex_job,
          "section": _section_job}


def run_traced(at, spec, arrangements):
    """Every job, then the probe jobs (which give every stage a span on every
    workload); returns the spans, counts, recomputes and per-job results."""
    tr = Tracer(at)
    stages = Stages(tr, at)
    jobs = []
    for probe, job in [(False, j) for j in spec["jobs"]] + \
            [(True, j) for j in spec["probe_jobs"]]:
        runner = _cli_job if "argv" in job else TRACED[job["kind"]]
        arr = arrangements[job["arr"]] if "arr" in job else None
        tr.job = len(jobs)
        first_span = len(tr.spans)
        start = time.perf_counter()
        try:
            errors = runner(stages, job, arr, spec)
        except Exception as exc:  # an unexpected exception fails the job
            errors = [f"{type(exc).__name__}: {exc}"]
        # the job ends with its last span; the output checks are not timed
        end = tr.spans[-1][2] if len(tr.spans) > first_span else start
        jobs.append({"s": end - start, "errors": errors, "probe": probe})
    return {"jobs": jobs, "spans": tr.spans, "counts": tr.counts,
            "recomputes": tr.recomputes}
