"""Command-line surface: arrangement files in, deterministic JSON reports out.

Arrangement file grammar (JSON):

    {
      "ambient_dim": 3,
      "forms": [[1,0,0],[0,1,0],[0,0,1]],
      "labels": ["x","y","z"],          // optional; strings
      "multiplicities": [1,1,1]          // optional; collapsed with a warning
    }

Subspace file grammar (JSON): {"basis": [[...], ...]}.

Every number in either file must be a JSON integer: booleans, floats and
numeric strings are malformed input, and so is any file that cannot be read
as JSON (bad encoding, nesting too deep, an over-long integer literal).

Exit codes: 0 success, 2 malformed input or arguments, 3 violated
precondition (for example `exponents` on a non-supersolvable arrangement), 4
internal inconsistency (an identity every valid input satisfies failed, which
points at a defect in arrtop itself); each error class carries its code.
Every error is a JSON object on stdout.  Every report embeds the input
digest and tool version; identical inputs produce byte identical reports.
Output integers are written in full, so a Python >= 3.11 reader needs
sys.set_int_max_str_digits(0).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .arrangement import (
    INFINITE,
    Arrangement,
    Subspace,
    betti_agreement_order,
    genericity_level,
    generic_section_betti,
    intersection_lattice,
    normalize,
    poincare_central,
    poincare_projective,
)
from .errors import ArrtopError, NotSupersolvable, ParseError
from .homotopy import (
    SectionData,
    ExponentData,
    _chain_or_refusal,
    graded_complex,
    homotopy_cokernel_ranks,
    homotopy_hilbert_series,
    integer_audit,
    lcs_ranks,
    supersolvable_exponents,
    verify_resolution,
)
from .polar import DEFAULT_SEED, polar_degree

DEFAULT_MAX_DEGREE = 4


def _encode(value):
    """JSON-safe exact encoding: ints stay ints, rationals become
    [numerator, denominator] pairs, the infinite sentinel a string."""
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return [value.numerator, value.denominator]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def _is_int(value):
    """A JSON integer.  Python counts booleans as ints; JSON does not."""
    return type(value) is int


def _read_json(path):
    """The raw bytes of a JSON file and the value they hold.  A file that
    cannot be read, decoded or parsed (nesting too deep, an integer literal
    past the digit limit) is a ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}")


def load_arrangement_file(path):
    """Parse and normalize an arrangement file; returns (arrangement, raw
    bytes, warnings)."""
    raw, data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("ambient_dim", "forms"):
        if key not in data:
            raise ParseError(f"{path}: missing field '{key}'")
    ambient = data["ambient_dim"]
    forms = data["forms"]
    if not _is_int(ambient) or ambient < 1:
        raise ParseError(f"{path}: ambient_dim must be a positive integer")
    if not isinstance(forms, list) or not forms:
        raise ParseError(f"{path}: forms must be a nonempty list")
    for i, row in enumerate(forms):
        if not isinstance(row, list) or len(row) != ambient:
            raise ParseError(
                f"{path}: form {i} must be a list of length {ambient}"
            )
        if not all(map(_is_int, row)):
            raise ParseError(f"{path}: form {i} must contain integers only")
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != len(forms)
        or not all(isinstance(label, str) for label in labels)
    ):
        raise ParseError(f"{path}: labels must be one string per form")
    multiplicities = data.get("multiplicities")
    if multiplicities is not None and (
        not isinstance(multiplicities, list)
        or len(multiplicities) != len(forms)
        or not all(_is_int(m) and m >= 1 for m in multiplicities)
    ):
        raise ParseError(f"{path}: multiplicities must be positive integers per form")
    arr = normalize(forms, ambient, labels=labels, multiplicities=multiplicities)
    warnings = []
    if len(arr.forms) < len(forms) or any(m > 1 for m in arr.multiplicities):
        warnings.append(
            "REDUCED: proportional or repeated forms collapsed; every "
            "invariant computed here depends only on the reduced arrangement"
        )
    return arr, raw, warnings


def parse_arrangement(path) -> Arrangement:
    arr, _, _ = load_arrangement_file(path)
    return arr


def load_subspace_file(path) -> Subspace:
    _, data = _read_json(path)
    if not isinstance(data, dict) or "basis" not in data:
        raise ParseError(f"{path}: expected an object with a 'basis' field")
    basis = data["basis"]
    if not isinstance(basis, list) or not basis:
        raise ParseError(f"{path}: basis must be a nonempty list of vectors")
    if not all(isinstance(v, list) and all(map(_is_int, v)) for v in basis):
        raise ParseError(f"{path}: basis vectors must be integer lists")
    try:
        return Subspace(tuple(tuple(v) for v in basis))
    except ArrtopError as exc:
        raise ParseError(f"{path}: {exc}")


def make_report(command, raw_bytes, results, warnings):
    return {
        "command": command,
        "version": __version__,
        "input_digest": hashlib.sha256(raw_bytes).hexdigest(),
        "results": _encode(results),
        "warnings": list(warnings),
    }


def _dumps(value, indent="\n"):
    """json.dumps(value, sort_keys=True, indent=2) for what _encode makes:
    dicts with str keys, lists, str, int, True, False and None, each of
    exactly that type; anything else raises TypeError.  indent is the
    newline and indentation of the value's own line.  An int item is
    written in place, not through a call."""
    t = type(value)
    if t is int:
        return int.__repr__(value)
    if t is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if t is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            int.__repr__(v) if type(v) is int else _dumps(v, inner)
            for v in value]) + indent + "]"
    if t is dict:
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": "
            + (int.__repr__(v) if type(v) is int else _dumps(v, inner))
            for k, v in sorted(value.items())]) + indent + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"{t.__name__} is not a report value")


def emit(report):
    """Write a report to stdout as json.dumps(report, sort_keys=True,
    indent=2) would, in one walk (_dumps), its integers in full: the
    int-to-str digit limit (Python >= 3.11) is lifted for this write only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = _dumps(report)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommand payloads

def _lattice_payload(arr):
    lat = intersection_lattice(arr)
    flats = [
        {
            "hyperplanes": list(f.hyperplanes),
            "codim": f.codim,
            "mobius": lat.mobius(f),
        }
        for f in lat.flats
    ]
    counts = {}
    for f in lat.flats:
        counts[f.codim] = counts.get(f.codim, 0) + 1
    return {
        "num_hyperplanes": arr.num_hyperplanes,
        "rank": arr.rank,
        "flat_counts_by_codim": {str(k): counts[k] for k in sorted(counts)},
        "flats": flats,
    }


def _poincare_payload(arr, projective):
    poly = poincare_projective(arr) if projective else poincare_central(arr)
    return {
        "projective": projective,
        "coefficients": list(poly.coefficients),
    }


def _polar_payload(arr, seed):
    rep = polar_degree(arr, seed=seed)
    return {
        "degree": rep.degree,
        "top_betti": rep.top_betti,
        "affine_sphere_count": rep.affine_sphere_count,
        "essential": rep.essential,
        "bound_satisfied": rep.bound_satisfied,
        "classification": rep.classification,
        "polar_invariant": arr.num_hyperplanes * rep.degree,
    }


def _exponents_payload(exps):
    return {"exponents": list(exps.exponents)}


def _genericity_payload(arr, sub):
    k = genericity_level(arr, sub)
    p = betti_agreement_order(arr, sub)
    return {
        "genericity_level": k,
        "betti_agreement_order": p,
        "equal": k is p or k == p,
    }


def _pi_p_payload(arr, args):
    coker = None
    if args.section_rank is not None:
        section = SectionData(arr, args.section_rank)
        exps, p = supersolvable_exponents(arr), section.connectivity
        coker = homotopy_cokernel_ranks(section, args.max_degree)
        payload = {"mode": "section", "section_rank": args.section_rank,
                   "cokernel_ranks": coker}
    else:
        exps, p = ExponentData(tuple(sorted(args.exponents))), args.p
        payload = {"mode": "exponents", "exponents": list(exps.exponents)}
    (num, den), series = homotopy_hilbert_series(exps, p, args.max_degree)
    payload["connectivity"] = p
    payload["closed_form"] = {
        "numerator": list(num.coefficients),
        "denominator": list(den.coefficients),
    }
    payload["series"] = series.integer_coefficients()
    if coker is not None:
        payload["match"] = payload["series"] == coker
    return payload


def _gr_check_payload(arr, max_degree, integers):
    complex_ = graded_complex(arr, max_degree)
    homology = verify_resolution(complex_)
    nonzero = {
        f"q={q},t={t}": rank for (q, t), rank in sorted(homology.items()) if rank
    }
    payload = {
        "max_internal_degree": max_degree,
        "generator_ranks": list(complex_.generator_ranks),
        "envelope_dims": list(complex_.u_dims),
        "nonzero_homology": nonzero,
        "acyclic": not nonzero,
    }
    if integers:
        payload["integer_audit"] = integer_audit(arr, max_degree)
    return payload


def _lcs_payload(exps, max_k):
    return {
        "exponents": list(exps.exponents),
        "lcs_ranks": lcs_ranks(exps, max_k),
    }


def _report_payload(arr, seed):
    payload = {
        "lattice": _lattice_payload(arr),
        "poincare_central": _poincare_payload(arr, False),
        "poincare_projective": _poincare_payload(arr, True),
        "polar": _polar_payload(arr, seed),
    }
    # supersolvability and the exponents are lattice invariants, and
    # essentializing keeps the lattice, so they are read in the input's
    # own lattice, essential or not
    exps, level = _chain_or_refusal(arr)
    if exps is None:
        payload["supersolvable"] = False
        payload["not_supersolvable_level"] = level
    else:
        payload["exponents"] = _exponents_payload(exps)
        payload["lcs"] = _lcs_payload(exps, 4)
        payload["supersolvable"] = True
    payload["gr_check"] = _gr_check_payload(arr, 3, False)
    return payload


class _Parser(argparse.ArgumentParser):
    """An argument error raises ParseError, which main() reports as a JSON
    error with exit code 2, instead of printing usage and exiting.  An
    argument opening with a minus and a digit is a value, not an option,
    so a negative exponent list (`--exponents -1,2`, or any abbreviation
    argparse accepts) is read as its option's value; argparse itself reads
    only a negative number as a value, and no option here looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _check_pi_p(args):
    """pi-p's argument checks, run before its file is read."""
    if (args.section_rank is None) == (args.exponents is None):
        raise ParseError("pi-p needs exactly one of --section-rank / --exponents")
    if args.exponents is not None:
        if args.p is None:
            raise ParseError("--exponents mode needs --p")
        try:
            args.exponents = [int(x) for x in args.exponents.split(",")]
        except ValueError:
            raise ParseError("--exponents must be a comma-separated integer list")


def build_parser():
    """Each subcommand with its arguments and its payload, a function of the
    arrangement and the parsed arguments.  A payload looks its module-level
    helper up when it runs, so a patched helper is seen through the cached
    parser."""
    parser = _Parser(
        prog="arrtop",
        description="Exact invariants of complex hyperplane arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, payload, check=None):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="arrangement JSON file")
        p.set_defaults(payload=payload, check=check)
        return p

    add("lattice", "intersection lattice with Moebius values",
        lambda arr, args: _lattice_payload(arr))
    p = add("poincare", "Poincare polynomial of the complement",
            lambda arr, args: _poincare_payload(arr, args.projective))
    p.add_argument("--projective", action="store_true",
                   help="projective complement instead of the central one")
    p = add("polar-degree", "degree of the gradient map of the defining product",
            lambda arr, args: _polar_payload(arr, args.seed))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the generic-hyperplane verification")
    add("exponents", "supersolvable exponents via a modular coatom chain",
        lambda arr, args: _exponents_payload(supersolvable_exponents(arr)))
    p = add("section", "Betti numbers of an iterated generic section",
            lambda arr, args: {"rank": args.rank,
                               "betti": generic_section_betti(arr, args.rank)})
    p.add_argument("--rank", type=int, required=True)
    p = add("genericity", "genericity level and Betti agreement of a subspace",
            lambda arr, args: _genericity_payload(
                arr, load_subspace_file(args.subspace)))
    p.add_argument("--subspace", required=True, help="subspace JSON file")
    p = add("pi-p", "graded first nontrivial higher homotopy group of a section",
            lambda arr, args: _pi_p_payload(arr, args), check=_check_pi_p)
    p.add_argument("--section-rank", type=int, default=None)
    p.add_argument("--exponents", type=str, default=None,
                   help="comma-separated exponent list (alternative to --section-rank)")
    p.add_argument("--p", type=int, default=None, help="connectivity degree")
    p.add_argument("--max-degree", type=int, default=5)
    p = add("gr-check", "build the graded chain complex and verify exactness",
            lambda arr, args: _gr_check_payload(arr, args.max_degree,
                                                args.integers))
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p.add_argument("--integers", action="store_true",
                   help="audit torsion-freeness of the integral graded data")
    p = add("lcs", "lower central series ranks from the exponents",
            lambda arr, args: _lcs_payload(supersolvable_exponents(arr),
                                           args.max_k))
    p.add_argument("--max-k", type=int, default=4)
    p = add("report", "full battery of invariants",
            lambda arr, args: _report_payload(arr, args.seed))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser main() uses, built on first use and then kept: parsing
    does not change it."""
    return build_parser()


def run_command(argv):
    args = _parser().parse_args(argv)
    if args.check is not None:
        args.check(args)
    arr, raw, warnings = load_arrangement_file(args.file)
    return make_report(args.command, raw, args.payload(arr, args), warnings)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        report = run_command(argv)
    except ArrtopError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotSupersolvable):
            error["certificate"] = {"rank_level": exc.level}
        emit({"error": error})
        return exc.exit_code
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
