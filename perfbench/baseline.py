"""Record a baseline: run.py on every workload, as two sets over seeds 1-10
plus repeated runs at seeds 1 and 2.

    python3 perfbench/baseline.py --label "arrtop 0.1.0 (commit)" \
        --out perfbench/baseline.json

Each set runs seeds 1-10 on every workload with the run length of
BENCHMARK.json; set B starts after set A has ended on all workloads.  For
each set, workload and end-to-end metric it stores every run's value (with
its seed), the median, the quartiles (statistics.quantiles, n=4) and the
spread: interquartile distance over median.  It also stores how far set B's
median moved from set A's, as a share of set A's.  The seed changes the
inputs, so a spread over seeds mixes input cost with machine noise; three
more runs at seeds 1 and 2 give five runs per seed, and their per-seed
median, quartiles and spread.  Two traced runs per workload (seeds 1 and 2)
add the per-layer values.  Compare two baselines only at equal seeds and
run length.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
SETS = ("A", "B")
REPEAT_SEEDS = (1, 2)
EXTRA_REPEATS = 3  # runs per repeat seed beyond its one run in each set
TRACED_SEEDS = (1, 2)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    print(workload, seed, trace, {k: round(v["value"], 4)
                                  for k, v in result["metrics"].items()},
          file=sys.stderr, flush=True)
    return result, json.loads(lines[1].removeprefix("inputs "))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = {(w, s): [] for w in names for s in SETS + ("repeat",)}
    inputs = {w: {} for w in names}
    for label in SETS:
        for w in names:
            for seed in SEEDS:
                res, inputs[w][seed] = one_run(w, seed, seconds, 0)
                runs[w, label].append((seed, res))
    for _ in range(EXTRA_REPEATS):
        for w in names:
            for seed in REPEAT_SEEDS:
                runs[w, "repeat"].append((seed, one_run(w, seed, seconds, 0)[0]))
    traced = {w: [one_run(w, seed, seconds, 1)[0] for seed in TRACED_SEEDS]
              for w in names}

    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS,
           "sets": list(SETS), "repeat_seeds": list(REPEAT_SEEDS),
           "traced_seeds": list(TRACED_SEEDS), "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        every = [r for key in SETS + ("repeat",) for _, r in runs[name, key]]
        every += traced[name]
        entry = {"why": w["why"], "inputs": inputs[name],
                 "failed": sum(r["failed"] for r in every),
                 "attempted": sum(r["attempted"] for r in every),
                 "end_to_end": {}}
        for m in bench["end_to_end"]:
            def value(res):
                return res["metrics"][m["name"]]["value"]

            sets = {}
            for label in SETS:
                values = {str(seed): value(res) for seed, res in runs[name, label]}
                sets[label] = dict(summarize(list(values.values())), values=values)
            per_seed = {}
            for seed in REPEAT_SEEDS:
                values = [value(res) for key in SETS + ("repeat",)
                          for s, res in runs[name, key] if s == seed]
                per_seed[str(seed)] = dict(summarize(values), values=values)
            first, second = sets["A"]["median"], sets["B"]["median"]
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], "sets": sets,
                "b_against_a": (second - first) / first,
                "per_seed": per_seed,
            }
        entry["per_layer"] = {
            m["name"]: {"unit": m["unit"], "seeds": list(TRACED_SEEDS),
                        "values": [t["metrics"][m["name"]]["value"]
                                   for t in traced[name]]}
            for m in bench["per_layer"]
        }
        out["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            seeds = " ".join(f"seed {k} {v['spread']:.3f}"
                             for k, v in s["per_seed"].items())
            print(f"{name:9s} {metric:12s} A {s['sets']['A']['median']:.4f} "
                  f"({s['sets']['A']['spread']:.3f})  B "
                  f"{s['sets']['B']['median']:.4f} ({s['sets']['B']['spread']:.3f})"
                  f"  B-A {s['b_against_a']:+.3f}  per-seed spread: {seeds}  "
                  f"bound {s['bound']}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
