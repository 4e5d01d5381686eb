import json
import os
import random
import subprocess
import sys

import pytest

from arrtop.cli import (
    _parser,
    build_parser,
    load_arrangement_file,
    main,
    parse_arrangement,
    run_command,
)
from arrtop import is_essential, normalize
from arrtop.errors import (
    EmptyArrangement, InternalInconsistency, ParseError, ZeroForm,
)
from genutil import clear_envelope_caches, lattice_oracle, supersolvable_oracle

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


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_golden_full_report_byte_identical(capsys, name):
    with open(path(f"golden_report_{name}.json")) as fh:
        golden = fh.read()
    assert main(["report", path(f"{name}.json")]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
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


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_cli_sequence_in_one_process_matches_cold_runs(capsys, name):
    """Degrees asked down and up in one process reuse one envelope and one
    complex; every stdout must be the golden file, or a cold process's."""
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
}

MALFORMED_SUBSPACES = {
    "float-and-boolean": '{"basis": [[1.7, 0, 0], [0, true, 0]]}',
    "string-entry": '{"basis": [["1", 0, 0], [0, 1, 0]]}',
}


@pytest.mark.parametrize(
    "kind,text",
    [("arrangement", t) for t in MALFORMED_ARRANGEMENTS.values()]
    + [("subspace", t) for t in MALFORMED_SUBSPACES.values()],
    ids=[f"arrangement-{k}" for k in MALFORMED_ARRANGEMENTS]
    + [f"subspace-{k}" for k in MALFORMED_SUBSPACES],
)
def test_non_integer_numbers_are_malformed(tmp_path, capsys, kind, text):
    f = tmp_path / "input.json"
    f.write_text(text)
    if kind == "arrangement":
        argv = ["report", str(f)]
    else:
        argv = ["genericity", path("braid3.json"), "--subspace", str(f)]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
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

    # the bound is read when the envelope is built, so start from cold caches
    monkeypatch.setenv("ARRTOP_WORK_BOUND", value)
    graded_complex.cache_clear()
    holonomy_envelope.cache_clear()
    assert main(["gr-check", path("braid3.json")]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"
    assert "ARRTOP_WORK_BOUND" in payload["error"]["message"]
    # on warm caches no cached stage reads the bound, so the CLI checks it
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


def test_lcs_negative_max_k_is_out_of_range(capsys):
    assert main(["lcs", path("braid3.json"), "--max-k", "-1"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "RankOutOfRange"


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


def test_internal_inconsistency_exit_code(monkeypatch, capsys):
    def broken(arr):
        raise InternalInconsistency("identity failed")

    monkeypatch.setattr("arrtop.cli._lattice_payload", broken)
    assert main(["lattice", path("braid3.json")]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {
        "type": "InternalInconsistency", "message": "identity failed",
    }
