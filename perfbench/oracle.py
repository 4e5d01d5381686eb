"""Expected invariants in closed form, and the checks that compare arrtop's
outputs against them.

Nothing here imports arrtop: every expected value follows from the family
an input was drawn from (see workloads.py), by integer polynomial and power
series arithmetic written for the benchmark.  A check returns a list of
mismatch descriptions; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
from math import comb


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def linear_product(roots, sign=1):
    """Coefficients of prod (1 + sign * r t)."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [1, sign * r])
    return out


def divide_one_plus_t(p):
    """Exact quotient p / (1 + t); raises if (1 + t) does not divide p."""
    q, carry = [], 0
    for c in p[:-1]:
        carry = c - carry
        q.append(carry)
    if p[-1] != carry:
        raise ValueError(f"{p} is not divisible by 1 + t")
    return q


def series_quotient(num, den, degree):
    """Power series num / den to the given degree; den[0] must be 1."""
    out = []
    for k in range(degree + 1):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[i] * out[k - i] for i in range(1, min(k, len(den) - 1) + 1))
        out.append(acc)
    return out


def central_poincare(expect):
    if expect["supersolvable"]:
        return linear_product(expect["exponents"])
    d, dim = expect["generic"]
    return [comb(d, k) for k in range(dim)] + [comb(d - 1, dim - 1)]


def envelope_dims(expect, num_forms, degree):
    """Dimensions of the holonomy envelope of the projective complement.

    Supersolvable: 1 / prod (1 - d_i t) over the exponents beyond the first.
    Generic of rank >= 3: every pair of hyperplanes spans its own rank-2
    flat, so the holonomy Lie algebra is abelian on b1 = d - 1 generators.
    """
    if expect["supersolvable"]:
        den = linear_product(expect["exponents"][1:], sign=-1)
        return series_quotient([1], den, degree)
    n = num_forms - 1
    return [comb(n - 1 + k, k) for k in range(degree + 1)]


def graded_homology(expect, num_forms, rank, degree):
    """Nonzero homology of the graded complex H_q (x) U through the degree.

    Fiber-type (supersolvable) complements resolve the trivial module.  A
    generic arrangement's projective cohomology is the exterior algebra on
    n = d - 1 generators truncated above m = rank - 1, and U is polynomial,
    so the complex is a Koszul complex cut at chain degree m: exact below m,
    with homology at (m, t) equal to (-1)^m times the truncated Euler sum.
    """
    if expect["supersolvable"]:
        return {}
    n, m = num_forms - 1, rank - 1
    out = {}
    for t in range(degree + 1):
        euler = sum((-1) ** q * comb(n, q) * comb(n - 1 + t - q, t - q)
                    for q in range(min(m, t) + 1)) - (t == 0)
        if euler:
            out[f"q={m},t={t}"] = (-1) ** m * euler
    return out


def hilbert_series(exponents, connectivity, degree):
    """Graded ranks of the first higher homotopy group of a generic section
    of rank connectivity + 1: numerator the alternating tail of the
    projective Betti numbers above the connectivity, denominator
    prod (1 - d_i t) over the exponents beyond the first."""
    betti = linear_product(exponents[1:])
    p = connectivity
    num = [(-1) ** m * betti[p + 1 + m] for m in range(len(betti) - p - 1)]
    return series_quotient(num, linear_product(exponents[1:], sign=-1), degree)


def lcs_ranks(exponents, max_k):
    """phi_k with prod_k (1 - t^k)^phi_k = prod_i (1 - d_i t), solved degree
    by degree: phi_k is minus the t^k coefficient left after the factors
    below k are divided out."""
    target = linear_product(exponents, sign=-1) + [0] * max_k
    phis = []
    for k in range(1, max_k + 1):
        current = [1] + [0] * max_k
        for j, phi in enumerate(phis, start=1):
            factor = [1] + [0] * max_k
            factor[j] = -1
            for _ in range(phi):
                current = poly_mul(current, factor)[:max_k + 1]
        phis.append(current[k] - target[k])
    return phis


# ---------------------------------------------------------------------------
# checks


def _cmp(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def check_cli(job, arrangement, code, report):
    """Compare one CLI call (exit code and parsed JSON output) against the
    job's expectation; the input digest is recomputed from the file."""
    errors = []
    _cmp(errors, "exit code", code, job["exit"])
    if code != job["exit"]:
        return errors
    if job["exit"]:
        error = report.get("error", {})
        if job["exit"] == 3:
            _cmp(errors, "error type", error.get("type"), "NotSupersolvable")
            level = error.get("certificate", {}).get("rank_level")
            if not isinstance(level, int) or level < 2:
                errors.append(f"certificate rank level {level!r}")
        elif "type" not in error:
            errors.append("exit 2 without an error object")
        return errors
    command = job["argv"][0]
    _cmp(errors, "command", report.get("command"), command)
    with open(job["path"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    _cmp(errors, "input digest", report.get("input_digest"), digest)
    forms, expect = arrangement["forms"], arrangement["expect"]
    d, rank = len(forms), len(forms[0])
    central = central_poincare(expect)
    projective = divide_one_plus_t(central)
    res = report.get("results", {})
    if command == "report":
        lattice = res.get("lattice", {})
        _cmp(errors, "hyperplanes", lattice.get("num_hyperplanes"), d)
        _cmp(errors, "rank", lattice.get("rank"), rank)
        _cmp(errors, "flats", len(lattice.get("flats", ())), expect["flats"])
        got_central = res.get("poincare_central", {}).get("coefficients")
        got_proj = res.get("poincare_projective", {}).get("coefficients")
        _cmp(errors, "central Poincare", got_central, central)
        _cmp(errors, "projective Poincare", got_proj, projective)
        if got_central and got_proj:
            _cmp(errors, "central = (1+t) projective", got_central,
                 poly_mul(got_proj, [1, 1]))
        polar = res.get("polar", {})
        _cmp(errors, "polar degree", polar.get("degree"), projective[-1])
        if got_proj:
            _cmp(errors, "polar degree = top projective Betti",
                 polar.get("degree"), got_proj[-1])
        _cmp(errors, "supersolvable", res.get("supersolvable"),
             expect["supersolvable"])
        if expect["supersolvable"]:
            _cmp(errors, "exponents", res.get("exponents", {}).get("exponents"),
                 expect["exponents"])
            _cmp(errors, "lcs", res.get("lcs", {}).get("lcs_ranks"),
                 lcs_ranks(expect["exponents"], 4))
        errors += _check_gr(res.get("gr_check", {}), expect, d, rank, 3, projective)
    elif command == "gr-check":
        errors += _check_gr(res, expect, d, rank, 4, projective)
    elif command == "lcs":
        _cmp(errors, "lcs", res.get("lcs_ranks"), lcs_ranks(expect["exponents"], 4))
    elif command == "pi-p":
        want = hilbert_series(expect["exponents"], 2, job["degree"])
        _cmp(errors, "series", res.get("series"), want)
        _cmp(errors, "cokernel ranks", res.get("cokernel_ranks"), want)
        _cmp(errors, "match", res.get("match"), True)
    return errors


def _check_gr(res, expect, d, rank, degree, projective):
    errors = []
    _cmp(errors, "generator ranks", res.get("generator_ranks"), projective)
    _cmp(errors, "envelope dims", res.get("envelope_dims"),
         envelope_dims(expect, d, degree))
    homology = graded_homology(expect, d, rank, degree)
    _cmp(errors, "nonzero homology", res.get("nonzero_homology"), homology)
    _cmp(errors, "acyclic", res.get("acyclic"), not homology)
    return errors


def check_lattice(arrangement, flats, central, supersolvable, exponents, polar):
    expect = arrangement["expect"]
    errors = []
    want = central_poincare(expect)
    _cmp(errors, "central Poincare", central, want)
    _cmp(errors, "flats", flats, expect["flats"])
    _cmp(errors, "supersolvable", supersolvable, expect["supersolvable"])
    if expect["supersolvable"]:
        _cmp(errors, "exponents", exponents, expect["exponents"])
    _cmp(errors, "polar degree", polar, divide_one_plus_t(want)[-1])
    return errors


def check_complex(arrangement, degree, u_dims, acyclic):
    forms, expect = arrangement["forms"], arrangement["expect"]
    errors = []
    _cmp(errors, "envelope dims", list(u_dims),
         envelope_dims(expect, len(forms), degree))
    _cmp(errors, "acyclic", acyclic, True)
    return errors


def check_section(arrangement, degree, cokernel, series):
    want = hilbert_series(arrangement["expect"]["exponents"], 2, degree)
    errors = []
    _cmp(errors, "cokernel ranks", list(cokernel), want)
    _cmp(errors, "series", list(series), want)
    return errors
