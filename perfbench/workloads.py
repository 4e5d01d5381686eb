"""Seeded job lists for the three benchmark workloads.

Every input is built from a family whose invariants are known in closed
form, so the expected answers come with the inputs and never from arrtop:

* braid A_n, essential in C^n: the forms x_i - x_j (x_n = 0), entries in
  {0, +-1}; supersolvable with exponents 1..n;
* boolean B_n: the coordinate hyperplanes, exponents 1,...,1;
* pencils of lines in C^2 and direct sums of the families above, whose
  exponents are the union of the summands' exponents;
* deleted A_3: A_3 without the hyperplane x_0, exponents (1, 2, 2);
* generic arrangements: d forms in C^l with every l-subset independent,
  checked by the integer determinant below; not supersolvable for d > l.

The seed chooses the forms of the generic and pencil families, a hyperplane
permutation and per-form sign flips of every input, the repeated census
inputs and the malformed files.  Sizes are fixed per workload, so a seed
changes the inputs but not the expected invariants of the lattice and
envelope workloads.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from math import comb

# ---------------------------------------------------------------------------
# families: each returns (forms, expectation)


def _ss(exponents, flats):
    return {"supersolvable": True, "exponents": sorted(exponents), "flats": flats}


def _bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _braid_forms(n, rng, skip=()):
    """x_i - x_j in lexicographic order of (i, j), with the coordinates
    relabelled by a seeded permutation: the list is reordered by a symmetry
    of the arrangement, so its ordered matroid does not depend on the seed."""
    sigma = list(range(n + 1))
    rng.shuffle(sigma)
    forms = []
    for i, j in itertools.combinations(range(n + 1), 2):
        if (i, j) in skip:
            continue
        a, b = sorted((sigma[i], sigma[j]))
        row = [0] * (n + 1)
        row[a], row[b] = 1, -1
        forms.append(row[:n])
    return forms


def braid(n, rng):
    return _braid_forms(n, rng), _ss(range(1, n + 1), _bell(n + 1))


def boolean(n, rng):
    forms = [[int(i == j) for j in range(n)] for i in range(n)]
    rng.shuffle(forms)
    return forms, _ss([1] * n, 2 ** n)


def deleted_a3(rng):
    # A_3 without x_0 - x_3 (the form x_0): dropping it turns two triple
    # lines into pairs and loses the pair line {x_0, x_1 - x_2}, so 13 of
    # the 15 flats remain
    return _braid_forms(3, rng, skip={(0, 3)}), _ss([1, 2, 2], 13)


_PENCIL_VECTORS = [
    (1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1),
    (1, 3), (3, 1), (1, -3), (3, -1), (2, 3), (3, 2),
]


def pencil(a, rng):
    """a pairwise independent lines through the origin of C^2 (every order
    of them has the same matroid)."""
    return [list(v) for v in rng.sample(_PENCIL_VECTORS, a)], _ss([1, a - 1], a + 2)


def direct_sum(first, second):
    """Summands in fixed block order, so the seed reorders only within
    a summand."""
    (fa, ea), (fb, eb) = first, second
    da, db = len(fa[0]), len(fb[0])
    forms = [f + [0] * db for f in fa] + [[0] * da + f for f in fb]
    return forms, _ss(ea["exponents"] + eb["exponents"], ea["flats"] * eb["flats"])


def int_det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def generic(d, dim, rng, bound=3):
    """d forms in C^dim, entries in [-bound, bound], every dim-subset
    independent (rejection sampling on the integer determinant)."""
    while True:
        forms = [[rng.randint(-bound, bound) for _ in range(dim)]
                 for _ in range(d)]
        if all(int_det([forms[i] for i in sub])
               for sub in itertools.combinations(range(d), dim)):
            flats = sum(comb(d, k) for k in range(dim)) + 1
            return forms, {"supersolvable": False, "generic": [d, dim],
                           "flats": flats}


def sign_flips(family, rng):
    """Seeded sign flips of the forms; entries keep their absolute values
    and the arrangement keeps its invariants."""
    forms, expect = family
    return [[-x for x in f] if rng.random() < 0.5 else f for f in forms], expect


# ---------------------------------------------------------------------------
# input properties, recorded with every run


def properties(spec):
    """Input properties of the job list (the probe arrangement excluded)."""
    arrs = [spec["arrangements"][i]
            for i in sorted({j["arr"] for j in spec["jobs"] if "arr" in j})]
    counts = [len(a["forms"]) for a in arrs]
    props = {
        "inputs": len(arrs),
        "hyperplanes": [min(counts), max(counts)],
        "max_abs_entry": max(abs(x) for a in arrs for f in a["forms"] for x in f),
        "b1": [min(c - 1 for c in counts), max(c - 1 for c in counts)],
        "envelope_degree": spec["envelope_degree"],
    }
    reports = [j for j in spec["jobs"]
               if j.get("argv", [None])[0] == "report" and "arr" in j]
    if reports:
        seen, repeats = set(), 0
        for j in reports:
            repeats += j["arr"] in seen
            seen.add(j["arr"])
        props["repeat_share"] = [repeats, len(reports)]
    return props


# ---------------------------------------------------------------------------
# workloads


MALFORMED = {
    "invalid_json": '{"ambient_dim": 3, "forms": [[1, 0, 0]',
    "missing_forms": '{"ambient_dim": 3}',
    "ragged_form": '{"ambient_dim": 3, "forms": [[1, 0, 0], [0, 1]]}',
    "non_integer": '{"ambient_dim": 2, "forms": [[1, 0], [0.5, 1]]}',
    "zero_form": '{"ambient_dim": 2, "forms": [[1, 0], [0, 0]]}',
    "empty_forms": '{"ambient_dim": 2, "forms": []}',
    "bad_dimension": '{"ambient_dim": 0, "forms": [[1]]}',
}


def _census(rng, quick):
    if quick:
        families = [braid(3, rng), direct_sum(pencil(3, rng), boolean(1, rng)),
                    direct_sum(pencil(2, rng), pencil(3, rng)), generic(4, 3, rng)]
        repeats, malformed = 1, 1
    else:
        families = [  # the first four are the repeated ones
            braid(3, rng), deleted_a3(rng),
            direct_sum(pencil(3, rng), boolean(1, rng)),
            generic(5, 3, rng),
            braid(3, rng), braid(3, rng), deleted_a3(rng),
            direct_sum(pencil(3, rng), boolean(1, rng)),
            direct_sum(pencil(4, rng), boolean(1, rng)),
            direct_sum(pencil(5, rng), boolean(1, rng)),
            direct_sum(pencil(2, rng), pencil(2, rng)),
            direct_sum(pencil(2, rng), pencil(3, rng)),
            direct_sum(pencil(2, rng), pencil(3, rng)),
            direct_sum(pencil(3, rng), pencil(3, rng)),
            direct_sum(braid(3, rng), boolean(1, rng)),
            generic(4, 3, rng), generic(6, 3, rng), generic(9, 3, rng),
            generic(5, 4, rng), generic(6, 4, rng), generic(7, 4, rng),
        ]
        repeats, malformed = 4, 3
    arrangements = [sign_flips(f, rng) for f in families]
    # the first `repeats` family slots come back later in the list; fixing
    # the slots keeps the cached share of the work the same for every seed
    order = list(range(len(arrangements)))
    rng.shuffle(order)
    for slot in range(repeats):
        first = order.index(slot)
        order.insert(rng.randrange(first + 1, len(order) + 1), slot)
    # each arrangement's first call is a cold one (lcs or exponents, then
    # pi-p), so that later calls reuse its caches; a repeat is a report again
    jobs, seen = [], set()
    for i in order:
        forms, expect = arrangements[i]
        job = {"arr": i, "exit": 0}
        if i in seen:
            jobs.append(dict(job, argv=["report", i]))
            continue
        seen.add(i)
        if expect["supersolvable"]:
            jobs.append(dict(job, argv=["lcs", i]))
            if len(forms[0]) == 4:
                jobs.append(dict(job, argv=["pi-p", i, "--section-rank", "3",
                                            "--max-degree", "4"], degree=4))
            jobs.append(dict(job, argv=["report", i]))
            jobs.append(dict(job, argv=["gr-check", i]))
        else:
            jobs.append(dict(job, argv=["exponents", i], exit=3))
            jobs.append(dict(job, argv=["report", i]))
    for name in rng.sample(sorted(MALFORMED), malformed):
        jobs.insert(rng.randrange(len(jobs) + 1),
                    {"argv": ["report", name], "malformed": name, "exit": 2})
    return arrangements, jobs, [3, 4]


def _lattice(rng, quick):
    if quick:
        families = [braid(3, rng), generic(6, 4, rng)]
    else:
        families = [braid(5, rng)] + [generic(9, 5, rng) for _ in range(3)]
    arrangements = [sign_flips(f, rng) for f in families]
    jobs = [{"kind": "lattice", "arr": i} for i in range(len(arrangements))]
    return arrangements, jobs, []


def _envelope(rng, quick):
    if quick:
        plan = [(braid(3, rng), "complex", 3), (boolean(4, rng), "section", 3)]
    else:
        plan = [(braid(4, rng), "complex", 4), (braid(3, rng), "complex", 5),
                (boolean(5, rng), "section", 6)]
    arrangements = [sign_flips(family, rng) for family, _, _ in plan]
    jobs = [{"kind": kind, "arr": i, "degree": degree}
            for i, (_, kind, degree) in enumerate(plan)]
    return arrangements, jobs, [degree for _, _, degree in plan]


WORKLOADS = {"census": _census, "lattice": _lattice, "envelope": _envelope}


def build(workload, seed, quick=False):
    """The job list of one workload: a JSON-ready spec.

    CLI jobs name their inputs by arrangement index (an int) or malformed
    file name; write_inputs() turns these into file paths."""
    rng = random.Random(f"{workload}:{seed}")
    arrangements, jobs, degrees = WORKLOADS[workload](rng, quick)
    # the probe closes every traced run, on every workload and seed alike:
    # it passes through every stage, so each per-layer metric has a span
    # (the probe's small share) even on a workload that never calls it
    probe = len(arrangements)
    probe_rng = random.Random("probe")
    arrangements.append(sign_flips(boolean(4, probe_rng), probe_rng))
    probe_jobs = [
        {"argv": ["report", probe], "arr": probe, "exit": 0},
        {"argv": ["pi-p", probe, "--section-rank", "3", "--max-degree", "3"],
         "arr": probe, "exit": 0, "degree": 3},
        {"argv": ["report", "invalid_json"], "malformed": "invalid_json", "exit": 2},
    ]
    return {
        "workload": workload,
        "seed": seed,
        "arrangements": [{"forms": f, "expect": e} for f, e in arrangements],
        "jobs": jobs,
        "probe_jobs": probe_jobs,
        "envelope_degree": degrees,
    }


def write_inputs(spec, directory):
    """Write the CLI input files and resolve the job argv to paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for i, arr in enumerate(spec["arrangements"]):
        path = os.path.join(directory, f"arr{i}.json")
        with open(path, "w") as fh:
            json.dump({"ambient_dim": len(arr["forms"][0]),
                       "forms": arr["forms"]}, fh)
        paths[i] = path
    for name, text in MALFORMED.items():
        path = os.path.join(directory, f"malformed_{name}.json")
        with open(path, "w") as fh:
            fh.write(text)
        paths[name] = path
    for job in spec["jobs"] + spec["probe_jobs"]:
        if "argv" in job:
            job["argv"] = [job["argv"][0], paths[job["argv"][1]]] + job["argv"][2:]
            job["path"] = job["argv"][1]
    return spec
