import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrtop.cli import (
    _dumps,
    _parser,
    build_parser,
    load_arrangement_file,
    main,
    parse_arrangement,
    run_command,
)
from arrtop import errors, intersection_lattice, is_essential, normalize
from arrtop.errors import (
    EmptyArrangement, InternalInconsistency, NotSupersolvable, ParseError,
    RankOutOfRange, ZeroForm,
)
from genutil import (
    braid_arrangement, clear_arrangement_caches, clear_envelope_caches,
    forget_types, lattice_oracle, supersolvable_oracle, unimodular_image,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def test_parse_boolean3():
    arr = parse_arrangement(path("boolean3.json"))
    assert arr.num_hyperplanes == 3
    assert arr.ambient_dim == 3


def test_parse_collapses_with_warning(tmp_path):
    f = tmp_path / "dup.json"
    f.write_text('{"ambient_dim": 3, "forms": [[1,0,0],[2,0,0]]}')
    arr, _, warnings = load_arrangement_file(str(f))
    assert arr.num_hyperplanes == 1
    assert warnings and "REDUCED" in warnings[0]


def test_parse_malformed_length(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"ambient_dim": 3, "forms": [[1,0]]}')
    with pytest.raises(ParseError):
        parse_arrangement(str(f))


def test_parse_missing_field(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"forms": [[1,0]]}')
    with pytest.raises(ParseError):
        parse_arrangement(str(f))


def test_polar_degree_command():
    report = run_command(["polar-degree", path("boolean3.json")])
    assert report["results"]["degree"] == 1
    assert report["results"]["classification"] == "BOOLEAN_B1"
    assert report["command"] == "polar-degree"
    assert len(report["input_digest"]) == 64


def test_poincare_command():
    report = run_command(["poincare", path("braid3.json")])
    assert report["results"]["coefficients"] == [1, 6, 11, 6]
    report = run_command(["poincare", "--projective", path("braid3.json")])
    assert report["results"]["coefficients"] == [1, 5, 6]


def test_lattice_command():
    report = run_command(["lattice", path("boolean3.json")])
    assert report["results"]["flat_counts_by_codim"] == {
        "0": 1, "1": 3, "2": 3, "3": 1,
    }


def test_exponents_command():
    report = run_command(["exponents", path("braid3.json")])
    assert report["results"]["exponents"] == [1, 2, 3]


def test_exponents_failure_exit_code(capsys):
    code = main(["exponents", path("generic4.json")])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "NotSupersolvable"
    assert payload["error"]["certificate"]["rank_level"] == 3


def test_section_command():
    report = run_command(["section", path("braid3.json"), "--rank", "2"])
    assert report["results"]["betti"] == [1, 5]


def test_genericity_command():
    report = run_command([
        "genericity", path("hattori4.json"),
        "--subspace", path("subspace_generic3.json"),
    ])
    assert report["results"]["genericity_level"] == 2
    assert report["results"]["betti_agreement_order"] == 2
    assert report["results"]["equal"] is True


def test_pi_p_section_mode():
    report = run_command([
        "pi-p", path("hattori4.json"), "--section-rank", "3", "--max-degree", "5",
    ])
    results = report["results"]
    assert results["series"] == [1, 3, 6, 10, 15, 21]
    assert results["cokernel_ranks"] == [1, 3, 6, 10, 15, 21]
    assert results["match"] is True


def test_pi_p_exponents_mode():
    report = run_command([
        "pi-p", path("hattori4.json"),
        "--exponents", "1,1,1,1", "--p", "2", "--max-degree", "3",
    ])
    assert report["results"]["series"] == [1, 3, 6, 10]


def test_pi_p_needs_exactly_one_mode():
    with pytest.raises(ParseError):
        run_command(["pi-p", path("hattori4.json"), "--max-degree", "3"])


def test_gr_check_command():
    report = run_command([
        "gr-check", path("braid3.json"), "--max-degree", "3", "--integers",
    ])
    results = report["results"]
    assert results["acyclic"] is True
    assert results["envelope_dims"] == [1, 5, 19, 65]
    assert results["integer_audit"]["free_over_integers"] is True


def test_gr_check_negative_control():
    report = run_command(["gr-check", path("generic4.json"), "--max-degree", "4"])
    results = report["results"]
    assert results["acyclic"] is False
    assert results["nonzero_homology"]


def test_lcs_command():
    report = run_command(["lcs", path("braid3.json"), "--max-k", "3"])
    assert report["results"]["lcs_ranks"] == [6, 4, 10]


def test_report_command():
    report = run_command(["report", path("braid3.json")])
    results = report["results"]
    assert results["supersolvable"] is True
    assert results["polar"]["degree"] == 6
    assert results["gr_check"]["acyclic"] is True


def test_report_not_supersolvable():
    report = run_command(["report", path("generic4.json")])
    results = report["results"]
    assert results["supersolvable"] is False
    assert results["not_supersolvable_level"] == 3


def test_reports_are_deterministic(capsys):
    assert main(["report", path("braid3.json")]) == 0
    first = capsys.readouterr().out
    assert main(["report", path("braid3.json")]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["version"]
    assert payload["input_digest"]


def test_main_exit_codes(tmp_path, capsys):
    assert main(["polar-degree", path("boolean3.json")]) == 0
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert main(["polar-degree", str(missing)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"


ARGUMENT_ERRORS = {
    "no-command": ([], "required: command"),
    "unknown-command": (["frobnicate", "x.json"], "invalid choice: 'frobnicate'"),
    "missing-file": (["report"], "required: file"),
    "non-integer-option": (["gr-check", "{braid3}", "--max-degree", "abc"],
                           "invalid int value: 'abc'"),
    "unknown-option": (["report", "{braid3}", "--bogus"],
                       "unrecognized arguments: --bogus"),
}


@pytest.mark.parametrize("argv,needle", ARGUMENT_ERRORS.values(),
                         ids=list(ARGUMENT_ERRORS))
def test_argument_errors_are_json_parse_errors(capsys, argv, needle):
    argv = [a.format(braid3=path("braid3.json")) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert payload["error"]["type"] == "ParseError"
    assert needle in payload["error"]["message"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["report", "--help"])
    assert info.value.code == 0
    assert "usage: arrtop report" in capsys.readouterr().out


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr("arrtop.cli.build_parser", counting)
    _parser.cache_clear()
    assert main(["lattice", path("boolean3.json")]) == 0
    assert main(["poincare", path("boolean3.json")]) == 0
    assert main(["report"]) == 2
    assert len(built) == 1
    _parser.cache_clear()
    # outside callers still get a parser of their own
    assert build_parser() is not build_parser()


def test_golden_polar_report():
    report = run_command(["polar-degree", path("nearpencil3.json")])
    assert report["results"] == {
        "affine_sphere_count": 2,
        "bound_satisfied": True,
        "classification": "NEARPENCIL_B2",
        "degree": 2,
        "essential": True,
        "polar_invariant": 8,
        "top_betti": 2,
    }


GOLDEN_INPUTS = [
    "boolean3", "braid3", "generic4", "hattori4", "nearpencil3", "pencil3",
]


# braid A4 and the non-supersolvable non-Fano lattice, generated before the
# lattice kept its residuals at full length
@pytest.mark.parametrize("name", GOLDEN_INPUTS + ["braid4", "nonfano"])
def test_golden_full_report_byte_identical(capsys, name):
    with open(path(f"golden_report_{name}.json")) as fh:
        golden = fh.read()
    assert main(["report", path(f"{name}.json")]) == 0
    assert capsys.readouterr().out == golden


# braid A4 as CI writes it, checked at degree 5 (its golden file comes from
# the hyperplane-order envelope, before the letters took the chain order)
@pytest.mark.parametrize("name", GOLDEN_INPUTS + ["braid4"])
def test_golden_gr_check_byte_identical(capsys, name):
    with open(path(f"golden_gr_check_{name}.json")) as fh:
        golden = fh.read()
    assert main(["gr-check", path(f"{name}.json"), "--max-degree", "5"]) == 0
    assert capsys.readouterr().out == golden


def test_golden_pi_p_section_byte_identical(capsys):
    # the cokernel at the top degree reads the envelope's left products there
    with open(path("golden_pi_p_hattori4.json")) as fh:
        golden = fh.read()
    argv = ["pi-p", path("hattori4.json"), "--section-rank", "3", "--max-degree", "6"]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden


def test_golden_genericity_byte_identical(capsys):
    with open(path("golden_genericity_hattori4.json")) as fh:
        golden = fh.read()
    argv = ["genericity", path("hattori4.json"),
            "--subspace", path("subspace_generic3.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", GOLDEN_INPUTS + ["braid4", "nonfano"])
def test_golden_gr_check_integers_byte_identical(capsys, name):
    with open(path(f"golden_gr_check_integers_{name}.json")) as fh:
        golden = fh.read()
    argv = ["gr-check", path(f"{name}.json"), "--max-degree", "5", "--integers"]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_cli_sequence_in_one_process_matches_cold_runs(capsys, name):
    """Degrees asked down and up in one process, each with its own cached
    envelope and complex; every stdout must be the golden file, or a cold
    process's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    sequence = [
        (["report"], f"golden_report_{name}.json"),
        (["pi-p", "--section-rank", "3", "--max-degree", "4"], None),
        (["gr-check", "--max-degree", "5"], f"golden_gr_check_{name}.json"),
        (["gr-check", "--max-degree", "4"], None),
    ]
    clear_envelope_caches()
    for command, golden in sequence:
        argv = [command[0], path(f"{name}.json"), *command[1:]]
        if golden is None:
            cold = subprocess.run(
                [sys.executable, "-m", "arrtop.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            expected = (cold.returncode, cold.stdout)
        else:
            with open(path(golden)) as fh:
                expected = (0, fh.read())
        assert (main(argv), capsys.readouterr().out) == expected, argv


def test_report_supersolvable_matches_oracle_on_seeded_corpus(tmp_path, capsys):
    """report decides supersolvability on the lattice, which essentialize
    keeps, so non-essential inputs get the oracle's verdict too."""
    rng = random.Random(31)
    verdicts = set()
    for k in range(24):
        dim = rng.randint(2, 4)
        raw = [
            [rng.randint(-2, 2) for _ in range(dim)]
            for _ in range(rng.randint(2, 6))
        ]
        if k % 2:
            # one more coordinate, repeating another or zero
            c = rng.randrange(dim + 1)
            raw = [row + [row[c] if c < dim else 0] for row in raw]
        try:
            arr = normalize(raw, len(raw[0]))
        except (ZeroForm, EmptyArrangement):
            continue
        f = tmp_path / f"arr{k}.json"
        f.write_text(json.dumps({"ambient_dim": arr.ambient_dim,
                                 "forms": [list(v) for v in arr.forms]}))
        assert main(["report", str(f)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        expected, level = supersolvable_oracle(lattice_oracle(arr.forms)[0])
        assert results["supersolvable"] == (expected is not None)
        if expected is None:
            assert results["not_supersolvable_level"] == level
        else:
            assert results["exponents"]["exponents"] == expected
        verdicts.add((is_essential(arr), expected is not None))
    assert (False, True) in verdicts and (True, False) in verdicts


def test_work_bound_env_override(monkeypatch):
    from arrtop.errors import WorkBoundExceeded
    from arrtop.oscohomology import holonomy_envelope

    monkeypatch.setenv("ARRTOP_WORK_BOUND", "50")
    holonomy_envelope.cache_clear()
    with pytest.raises(WorkBoundExceeded):
        holonomy_envelope(parse_arrangement(path("braid3.json")), 4)
    holonomy_envelope.cache_clear()


def test_lowered_work_bound_refuses_warm_caches(monkeypatch, capsys):
    from arrtop import graded_complex, holonomy_envelope
    from arrtop.errors import WorkBoundExceeded

    def misses():
        return (holonomy_envelope.cache_info().misses,
                graded_complex.cache_info().misses)

    monkeypatch.delenv("ARRTOP_WORK_BOUND", raising=False)
    arr = parse_arrangement(path("braid3.json"))
    env, complex_ = holonomy_envelope(arr, 4), graded_complex(arr, 4)
    warm = misses()
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "50")
    with pytest.raises(WorkBoundExceeded, match="^envelope: .* 5\\^4 "):
        holonomy_envelope(arr, 4)
    with pytest.raises(WorkBoundExceeded, match="^complex: .* 5\\^4 "):
        graded_complex(arr, 4)
    assert main(["gr-check", path("braid3.json"), "--max-degree", "4"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {
        "type": "WorkBoundExceeded",
        "message": "complex: tensor slice dimension 5^4 exceeds bound 50",
    }
    monkeypatch.delenv("ARRTOP_WORK_BOUND")
    assert holonomy_envelope(arr, 4) is env
    assert graded_complex(arr, 4) is complex_
    assert misses() == warm


def test_lattice_counts_its_flats_against_the_work_bound(monkeypatch, capsys,
                                                        tmp_path):
    """Braid A5 has 203 flats: a bound of 203 admits it, and 202 refuses it
    as its 203rd flat is made (exit 3).  A refusal fills no cache."""
    from arrtop.errors import WorkBoundExceeded

    # its own hyperplane order, so no other test has its lattice cached
    arr = normalize(list(reversed(braid_arrangement(5).forms)), 5)
    f = tmp_path / "braid5.json"
    f.write_text(json.dumps({"ambient_dim": 5, "forms": arr.forms}))
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "202")
    message = "lattice: 203 flats exceed work bound 202"
    with pytest.raises(WorkBoundExceeded, match=f"^{message}$"):
        intersection_lattice(arr)
    assert main(["lattice", str(f)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "WorkBoundExceeded", "message": message}
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "203")
    assert len(intersection_lattice(arr).flats) == 203
    assert main(["lattice", str(f)]) == 0


MALFORMED_ARRANGEMENTS = {
    "boolean-dim-and-form": '{"ambient_dim": true, "forms": [[true]]}',
    "float-dim": '{"ambient_dim": 2.0, "forms": [[1, 0], [0, 1]]}',
    "boolean-entry": '{"ambient_dim": 2, "forms": [[1, false], [0, 1]]}',
    "float-entry": '{"ambient_dim": 2, "forms": [[1.5, 0], [0, 1]]}',
    "string-entry": '{"ambient_dim": 2, "forms": [["1", 0], [0, 1]]}',
    "boolean-multiplicity":
        '{"ambient_dim": 2, "forms": [[1, 0], [0, 1]], "multiplicities": [true, 1]}',
    "non-string-labels":
        '{"ambient_dim": 2, "forms": [[1, 0], [0, 1]], "labels": [1, {"a": 2}]}',
    "deep-nesting": "[" * 100000,
    "invalid-utf8":
        b'{"ambient_dim": 2, "forms": [[1, 0], [0, 1]], "labels": ["\xc3", "y"]}',
}

MALFORMED_SUBSPACES = {
    "float-and-boolean": '{"basis": [[1.7, 0, 0], [0, true, 0]]}',
    "string-entry": '{"basis": [["1", 0, 0], [0, 1, 0]]}',
    "deep-nesting": "[" * 100000,
    "invalid-utf8": b'{"basis": [[1, 0, 0]], "note": "\xc3"}',
}

# a Python without the int-to-str digit limit (before 3.10.7) parses these
if hasattr(sys, "get_int_max_str_digits"):
    MALFORMED_ARRANGEMENTS["over-long-literal"] = (
        '{"ambient_dim": 2, "forms": [[1' + "0" * 4999 + ', 0], [0, 1]]}'
    )
    MALFORMED_SUBSPACES["over-long-literal"] = (
        '{"basis": [[1' + "0" * 4999 + ', 0, 0]]}'
    )


@pytest.mark.parametrize(
    "kind,text",
    [("arrangement", t) for t in MALFORMED_ARRANGEMENTS.values()]
    + [("subspace", t) for t in MALFORMED_SUBSPACES.values()],
    ids=[f"arrangement-{k}" for k in MALFORMED_ARRANGEMENTS]
    + [f"subspace-{k}" for k in MALFORMED_SUBSPACES],
)
def test_non_integer_numbers_are_malformed(tmp_path, capsys, kind, text):
    f = tmp_path / "input.json"
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    if kind == "arrangement":
        argv = ["report", str(f)]
    else:
        argv = ["genericity", path("braid3.json"), "--subspace", str(f)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert payload["error"]["type"] == "ParseError"


def test_ragged_subspace_basis_is_malformed(tmp_path, capsys):
    f = tmp_path / "subspace.json"
    f.write_text('{"basis": [[1, 2, 3], [0, 1]]}')
    argv = ["genericity", path("braid3.json"), "--subspace", str(f)]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"


def test_subspace_of_other_ambient_dimension_is_malformed(tmp_path, capsys):
    f = tmp_path / "subspace.json"
    f.write_text('{"basis": [[1, 2], [3, -1]]}')
    argv = ["genericity", path("braid3.json"), "--subspace", str(f)]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ZeroForm"


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1e3", " 7"])
def test_malformed_work_bound_env_is_malformed(monkeypatch, capsys, value):
    from arrtop import graded_complex, holonomy_envelope

    # cold caches first; every cached stage reads the bound before its cache
    monkeypatch.setenv("ARRTOP_WORK_BOUND", value)
    graded_complex.cache_clear()
    holonomy_envelope.cache_clear()
    assert main(["gr-check", path("braid3.json")]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"
    assert "ARRTOP_WORK_BOUND" in payload["error"]["message"]
    # on warm caches each stage still reads the bound, on a hit too
    warm = [
        ["gr-check", path("hattori4.json")],
        ["pi-p", path("hattori4.json"), "--section-rank", "3", "--max-degree", "4"],
        ["report", path("hattori4.json")],
    ]
    monkeypatch.delenv("ARRTOP_WORK_BOUND")
    for argv in warm:
        assert main(argv) == 0, argv
    capsys.readouterr()
    monkeypatch.setenv("ARRTOP_WORK_BOUND", value)
    for argv in warm:
        assert main(argv) == 2, argv
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ParseError"
        assert "ARRTOP_WORK_BOUND" in payload["error"]["message"]


def test_pi_p_negative_max_degree_is_out_of_range(capsys):
    argv = [
        "pi-p", path("braid3.json"),
        "--exponents", "1,2,3", "--p", "2", "--max-degree", "-3",
    ]
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "RankOutOfRange"


def test_a_negative_exponent_list_reaches_the_exponent_check(capsys):
    # `--exponents -1,2` is read as the option's value, as `--exponents=-1,2`
    # is, not as an option of its own; so is every abbreviation argparse
    # accepts, `--e` up
    for spelling in (["--exponents", "-1,2"], ["--exponents=-1,2"],
                     ["--e", "-1,2"], ["--expo", "-1,2"],
                     ["--exponent", "-1,2"]):
        assert main(["pi-p", path("braid3.json"), *spelling, "--p", "2"]) == 3
        assert json.loads(capsys.readouterr().out) == {"error": {
            "type": "NonIntegerRank",
            "message": "exponents must be positive integers"}}, spelling


def test_lcs_negative_max_k_is_out_of_range(capsys):
    assert main(["lcs", path("braid3.json"), "--max-k", "-1"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "RankOutOfRange"


def test_gr_check_integers_one_hyperplane(tmp_path, capsys):
    f = tmp_path / "line.json"
    f.write_text('{"ambient_dim": 2, "forms": [[1, 0]]}')
    assert main(["gr-check", str(f), "--integers"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["envelope_dims"] == [1, 0, 0, 0, 0]
    audit = results["integer_audit"]
    assert audit["free_over_integers"] is True
    assert [s["rank"] for s in audit["slices"].values()] == [0, 0, 0]


def test_two_lines_answer_to_degree_1000_and_are_refused_past_it(
        tmp_path, capsys, monkeypatch):
    # b1 = 1: the normal words to degree D hold about D^2/2 letters, so D^2
    # is counted against the bound and degree 1000 is the largest accepted
    monkeypatch.delenv("ARRTOP_WORK_BOUND", raising=False)
    f = tmp_path / "twolines.json"
    f.write_text('{"ambient_dim": 2, "forms": [[1, 0], [0, 1]]}')
    assert main(["gr-check", str(f), "--max-degree", "1000", "--integers"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["envelope_dims"] == [1] * 1001
    assert results["integer_audit"]["free_over_integers"] is True
    assert main(["gr-check", str(f), "--max-degree", "1001", "--integers"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "complex: max_degree^2 = 1001^2 exceeds work bound 1000000")


def test_gr_check_integers_braid4_degree_5(tmp_path):
    # 9^5 words at degree 5, within the default work bound; the slice ranks
    # are 9^k - h_k(2, 3, 4), read off 1/((1 - 2t)(1 - 3t)(1 - 4t))
    forms = [list(v) for v in braid_arrangement(4).forms]
    f = tmp_path / "braid4.json"
    f.write_text(json.dumps({"ambient_dim": 4, "forms": forms}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("ARRTOP_WORK_BOUND", None)
    proc = subprocess.run(
        [sys.executable, "-m", "arrtop.cli", "gr-check", str(f),
         "--max-degree", "5", "--integers"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    audit = json.loads(proc.stdout)["results"]["integer_audit"]
    assert audit["free_over_integers"] is True
    slices = audit["slices"]
    assert [slices[str(k)]["rank"] for k in range(2, 6)] == [
        26, 444, 5210, 52980]
    assert all(s["nonunit_factors"] == [] for s in slices.values())


def test_gr_check_integers_braid4_degree_6(tmp_path):
    # 9^6 words pass the tensor bound, and no slice of them is built: the
    # audit presents T_6/I_6 over Z with the envelope's own rows
    forms = [list(v) for v in braid_arrangement(4).forms]
    f = tmp_path / "braid4.json"
    f.write_text(json.dumps({"ambient_dim": 4, "forms": forms}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("ARRTOP_WORK_BOUND", None)
    proc = subprocess.run(
        [sys.executable, "-m", "arrtop.cli", "gr-check", str(f),
         "--max-degree", "6", "--integers"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    audit = json.loads(proc.stdout)["results"]["integer_audit"]
    assert audit["free_over_integers"] is True
    assert audit["slices"]["6"]["rank"] == 505106


def test_gr_check_integers_nonfano_degree_6():
    # T_6/I_6 is presented by lattice[6]: 112 rows over 1,134 of its
    # columns, entries up to 20.  The factors agree with its ranks over Q,
    # GF(2) and GF(3) (see test_homotopy)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("ARRTOP_WORK_BOUND", None)
    proc = subprocess.run(
        [sys.executable, "-m", "arrtop.cli", "gr-check", path("nonfano.json"),
         "--max-degree", "6", "--integers"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    audit = json.loads(proc.stdout)["results"]["integer_audit"]
    assert audit["free_over_integers"] is False
    assert audit["slices"]["6"] == {
        "rank": 41011,
        "free_over_integers": False,
        "nonunit_factors": [2] * 77 + [4] + [8] * 11,
    }


def test_lcs_max_k_beyond_work_bound_is_refused_at_once():
    # without the bound this call runs for minutes; max_k^2 is checked first
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("ARRTOP_WORK_BOUND", None)
    argv = ["lcs", path("braid3.json"), "--max-k", "100000000"]
    proc = subprocess.run(
        [sys.executable, "-m", "arrtop.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "WorkBoundExceeded"
    assert "lcs" in error["message"] and "100000000" in error["message"]


def test_degree_beyond_work_bound_is_refused_at_once(tmp_path):
    # the bound is checked before b1^degree is worked out: 5^100000000 is
    # never computed.  One hyperplane (b1 = 0) and two lines (b1 = 1) have
    # slices that never grow, but the normal words of the two lines hold
    # about degree^2/2 letters, so the square of the degree is counted
    line = tmp_path / "line.json"
    line.write_text('{"ambient_dim": 2, "forms": [[1, 0]]}')
    twolines = tmp_path / "twolines.json"
    twolines.write_text('{"ambient_dim": 2, "forms": [[1, 0], [0, 1]]}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("ARRTOP_WORK_BOUND", None)
    for argv in (
        ["gr-check", str(line), "--max-degree", "100000000"],
        ["gr-check", str(line), "--max-degree", "100000000", "--integers"],
        ["gr-check", str(twolines), "--max-degree", "20000", "--integers"],
        ["gr-check", path("braid3.json"), "--max-degree", "100000000"],
        ["gr-check", path("braid3.json"), "--max-degree", "100000000",
         "--integers"],
        ["pi-p", path("hattori4.json"), "--section-rank", "3",
         "--max-degree", "100000000"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "arrtop.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "WorkBoundExceeded"
        assert argv[3] in error["message"]
        if argv[1] == str(line):
            assert error["message"] == (
                "complex: max_degree^2 = 100000000^2 exceeds work bound 1000000")


def test_series_max_degree_beyond_work_bound_is_refused_at_once():
    # without the bound the closed-form series runs for minutes here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop("ARRTOP_WORK_BOUND", None)
    argv = ["pi-p", path("braid3.json"), "--exponents", "1,2,3", "--p", "2",
            "--max-degree", "200000"]
    proc = subprocess.run(
        [sys.executable, "-m", "arrtop.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "WorkBoundExceeded"
    assert "series" in error["message"] and "200000" in error["message"]


def test_series_work_bound_reads_the_environment(monkeypatch, capsys):
    argv = ["pi-p", path("braid3.json"), "--exponents", "1,2,3", "--p", "2",
            "--max-degree"]
    monkeypatch.delenv("ARRTOP_WORK_BOUND", raising=False)
    assert main(argv + ["1000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["series"]) == 1001
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "100")
    assert main(argv + ["10"]) == 0
    capsys.readouterr()
    assert main(argv + ["11"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "WorkBoundExceeded"
    assert error["message"] == "series: max_degree^2 = 11^2 exceeds work bound 100"
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "abc")
    assert main(argv + ["10"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_lcs_work_bound_reads_the_environment(monkeypatch, capsys):
    monkeypatch.delenv("ARRTOP_WORK_BOUND", raising=False)
    assert main(["lcs", path("braid3.json"), "--max-k", "1000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["lcs_ranks"]) == 1000
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "100")
    assert main(["lcs", path("braid3.json"), "--max-k", "10"]) == 0
    capsys.readouterr()
    assert main(["lcs", path("braid3.json"), "--max-k", "11"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "WorkBoundExceeded"
    assert error["message"] == "lcs: max_k^2 = 11^2 exceeds work bound 100"
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "abc")
    assert main(["lcs", path("braid3.json")]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_report_does_not_call_a_refused_lcs_unsupersolvable(
    monkeypatch, capsys, tmp_path
):
    # a pencil of three lines has b1 = 2, so its degree-3 envelope (2^3)
    # fits a bound of 10 while the report's lcs to max_k 4 (4^2) does not
    f = tmp_path / "pencil3.json"
    f.write_text('{"ambient_dim": 2, "forms": [[1, 0], [0, 1], [1, 1]]}')
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "10")
    assert main(["report", str(f)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "WorkBoundExceeded"
    assert error["message"].startswith("lcs:")
    monkeypatch.setenv("ARRTOP_WORK_BOUND", "16")
    assert main(["report", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["supersolvable"] is True


def test_report_reads_the_exponents_in_the_input_lattice(capsys):
    # three planes through a line in C^3 are not essential; their lattice
    # is their essentialization's, so the report builds no lattice past the
    # input's and its polar section's
    clear_arrangement_caches()
    with open(path("golden_report_pencil3.json")) as fh:
        golden = fh.read()
    assert main(["report", path("pencil3.json")]) == 0
    assert capsys.readouterr().out == golden
    assert intersection_lattice.cache_info().currsize == 2
    # the exponents command still asks for an essential input
    assert main(["exponents", path("pencil3.json")]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotEssential"


def test_internal_inconsistency_exit_code(monkeypatch, capsys):
    # one raised class per family, each with the JSON error main() emits
    table = [
        (ParseError("bad input"), 2,
         {"type": "ParseError", "message": "bad input"}),
        (RankOutOfRange("rank out of range"), 3,
         {"type": "RankOutOfRange", "message": "rank out of range"}),
        (NotSupersolvable(3), 3,
         {"type": "NotSupersolvable",
          "message": "no modular coatom chain extends at rank level 3",
          "certificate": {"rank_level": 3}}),
        (InternalInconsistency("identity failed"), 4,
         {"type": "InternalInconsistency", "message": "identity failed"}),
    ]
    for exc, code, error in table:
        def broken(arr):
            raise exc

        monkeypatch.setattr("arrtop.cli._lattice_payload", broken)
        assert main(["lattice", path("braid3.json")]) == code
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"error": error}


def test_every_error_class_carries_an_exit_code():
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.ArrtopError)
        and cls is not errors.ArrtopError
    ]
    assert len(classes) > 20
    for cls in classes:
        assert cls.exit_code in (2, 3, 4), cls


def test_output_integers_past_the_digit_limit_are_written_in_full(capsys):
    argv = [
        "pi-p", path("braid3.json"), "--exponents",
        "1,1000000000,1000000000,1000000000", "--p", "2", "--max-degree", "500",
    ]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)
        # the writer's output is json.dumps's, the 4,533-digit entry too
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    series = report["results"]["series"]
    assert len(series) == 501
    assert series[500] == 125751 * 10 ** 4527


def test_realizations_of_one_ordered_matroid_report_alike(tmp_path):
    # braid A3 in other coordinates (forms times a matrix of GL_3(Z)) has
    # the same ordered matroid; each side is built from its own forms
    moved = unimodular_image(parse_arrangement(path("braid3.json")),
                             [(0, 1, 2), (2, 0, -1), (1, 2, 3)])
    other = tmp_path / "braid3_moved.json"
    other.write_text(json.dumps({"ambient_dim": moved.ambient_dim,
                                 "forms": [list(f) for f in moved.forms]}))
    for command in (["report"], ["gr-check", "--max-degree", "5"]):
        reports = []
        for name in (path("braid3.json"), str(other)):
            forget_types()
            reports.append(run_command([command[0], name, *command[1:]]))
        digests = {report.pop("input_digest") for report in reports}
        assert len(digests) == 2
        assert reports[0] == reports[1], command


# ---------------------------------------------------------------------------
# the report writer

def _as_json_dumps_writes(value):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _dumps(value) == json.dumps(value, sort_keys=True, indent=2)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(DATA) if name.startswith("golden_")))
def test_the_writer_writes_each_golden_report_as_json_dumps(name):
    with open(path(name)) as fh:
        text = fh.read()
    report = json.loads(text)
    assert _as_json_dumps_writes(report)
    assert _dumps(report) + "\n" == text


def test_the_writer_escapes_a_non_ascii_path_in_an_error(tmp_path, capsys):
    missing = str(tmp_path / "Möbius ∞ 平面.json")
    assert main(["lattice", missing]) == 2
    out = capsys.readouterr().out
    assert out.isascii() and "\\u00f6" in out
    report = json.loads(out)
    assert missing in report["error"]["message"]
    assert _as_json_dumps_writes(report)
    assert _dumps(report) + "\n" == out


def test_the_writer_writes_empty_containers():
    empty = {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}], "e": None,
             "f": [True, False, 0, -1, ""]}
    assert _as_json_dumps_writes(empty)
    assert _as_json_dumps_writes({}) and _as_json_dumps_writes([])


@pytest.mark.parametrize("value", [
    1.0, {"x": 0.5}, [1, 2.0], (1, 2), {1: 2}, {"x": {1, 2}}, Fraction(1, 2),
])
def test_the_writer_refuses_what_encode_never_makes(value):
    with pytest.raises(TypeError):
        _dumps(value)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_the_writer_writes_any_encoded_value_as_json_dumps(value):
    assert _as_json_dumps_writes(value)
