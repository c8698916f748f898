"""Run every workload on several seeds and write benchmarks/baseline.json.

    python3 benchmarks/baseline.py [--seeds 1-10] [--sets 2] [--seconds 15]

Run from the repository root. A set runs, for each seed, the workloads one
after another, untraced; the sets run one after another on the same seeds,
then one traced run per workload on the first seed. The file records, per
workload and set, each end-to-end metric's values, median and quartile
spread (distance between the first and third quartile as a share of the
median), and how far each later set's median is from the first set's.
It also records the output sha256 and test accuracy of every seed, which
must agree between sets, and the per-layer metrics of the traced run,
beside the machine line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    tagged = dict(line.split(" ", 1) for line in lines[:-1])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n"
                         f"{proc.stderr}")
    return {"machine": json.loads(tagged["machine"]),
            "outputs": json.loads(tagged["outputs"]),
            "quality": json.loads(tagged["quality"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(args.sets):
        runs = {name: {} for name in names}
        for seed in args.seeds:
            for name in names:
                runs[name][seed] = run(name, seed, seconds, 0)
                print(f"set {k + 1} {name} seed {seed}: "
                      f"{runs[name][seed]['metrics']}", flush=True)
        sets.append(runs)
    doc = {"machine": None, "seconds": seconds, "seeds": args.seeds,
           "workloads": {}}
    for name in names:
        traced = run(name, args.seeds[0], seconds, 1)
        doc["machine"] = {k: v for k, v in traced["machine"].items()
                          if k not in ("workload", "seed", "trace")}
        per_seed = {s: {"outputs_sha256": sets[0][name][s]["outputs"],
                        **sets[0][name][s]["quality"]}
                    for s in args.seeds}
        for runs in sets[1:]:
            for s in args.seeds:
                if runs[name][s]["outputs"] != per_seed[s]["outputs_sha256"]:
                    raise SystemExit(f"{name} seed {s}: outputs differ "
                                     "between sets")
        stats = [{m["name"]: spread([runs[name][s]["metrics"][m["name"]]
                                     for s in args.seeds])
                  for m in spec["end_to_end"]} for runs in sets]
        doc["workloads"][name] = {
            "end_to_end": stats,
            "median_change": [
                {metric: st[metric]["median"] / stats[0][metric]["median"]
                 - 1.0 for metric in st} for st in stats[1:]],
            "per_seed": per_seed,
            "per_layer_seed": args.seeds[0],
            "per_layer": traced["metrics"],
        }
        for k, st in enumerate(stats):
            for metric, x in st.items():
                change = x["median"] / stats[0][metric]["median"] - 1.0
                print(f"{name:9s} set {k + 1} {metric:12s} median "
                      f"{x['median']:.4f} spread {x['spread']:.3f} "
                      f"change {change:+.3f}")
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
