"""spikegrow benchmark: one workload per invocation, run in-process.

    python3 benchmarks/run.py --workload lineage --seed 1 --seconds 15 --trace 0

Run from the repository root. The workload's inputs are written from
`--seed` by a helper process, then passes of its CLI ops run through `spikegrow.cli.main`
until `--seconds` have gone by. Every op must exit 0 and every output is
checked. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics for `--trace 0` and the per-layer metrics for `--trace 1`. A traced
run alternates untraced and traced passes, so the tracing overhead is
measured too. See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")
# Set-up repeats: at least SETUP_MIN_REPEATS, and more while they took less
# than SETUP_SECONDS in all, up to SETUP_MAX_REPEATS; `setup_s` is the median.
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
# On a shared host the machine's speed drifts by up to 40% over minutes.
# The gated times are therefore scaled by REFERENCE_S over the median time
# of a reference job (reference.py) sampled around them, so runs made at
# different speeds compare. Scaled times read as seconds at a speed where
# the job takes REFERENCE_S.
REFERENCE_S = 0.33

# Names and units of the metrics; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "cli_wall_s": "s",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    """What the numbers depend on: cores, interpreter, numpy and BLAS."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if k in os.environ},
        "commit": commit,
    }


class Helper:
    """A helper process that answers each request line with one JSON line."""

    def __init__(self, argv, env=None):
        self.argv = argv
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def ask(self, line: str = "") -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"{self.argv} ended with code "
                               f"{self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_op(cli, argv) -> tuple:
    """Run one CLI op; returns (wall seconds, failure message or None)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit):
        wall = time.perf_counter() - start
        return wall, f"{argv[0]} raised:\n{traceback.format_exc()}"
    wall = time.perf_counter() - start
    if code != 0:
        return wall, f"{argv[0]} exited {code}"
    return wall, None


def run_pass(workload, inp, out, index, tracer=None, before_op=None) -> dict:
    """One pass of the workload's ops into a fresh `out` directory.

    `before_op`, if given, is called before each op, outside its timing.
    """
    from spikegrow import cli

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    walls = {}
    failures = []
    attempted = 0
    ops = workload.ops(inp, out)
    while not failures:
        try:
            name, argv = next(ops)
        except StopIteration:
            break
        except Exception:
            attempted += 1
            # The argv of an op may read the outputs of the ops before it.
            failures.append(f"reading outputs for the next op raised:\n"
                            f"{traceback.format_exc()}")
            break
        if before_op is not None:
            before_op()
        if tracer is None:
            wall, failure = run_op(cli, argv)
        else:
            with tracer.patched(), tracer.op(f"cli.{name}", f"p{index}.{name}"):
                wall, failure = run_op(cli, argv)
        walls[name] = walls.get(name, 0.0) + wall
        attempted += 1
        if failure:
            failures.append(failure)
    ops.close()
    return {"walls": walls, "failures": failures, "attempted": attempted}


def median(values) -> float:
    return float(statistics.median(values))


def set_up(workload, seed: int, inp: str, reference, m: dict) -> bool:
    """Write the inputs several times; returns whether every set-up worked.

    The set-ups run in a process of their own, so their memory stays out of
    `peak_rss_mb`. The reference job is sampled before the first set-up and
    after each second of set-ups, so `setup_s` is scaled by the machine's
    speed during set-up.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    helper = Helper([sys.executable, os.path.join(HERE, "workloads.py"),
                     workload.name, str(seed)], env)
    try:
        times = m["setup_times"]
        m["setup_references"].append(reference())
        since_reference = 0.0
        while len(times) < SETUP_MIN_REPEATS or (
                sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
            shutil.rmtree(inp, ignore_errors=True)
            os.makedirs(inp)
            m["attempted"] += 1
            reply = helper.ask(inp)
            if "error" in reply:
                m["failures"].append(f"set-up raised:\n{reply['error']}")
                m["failed"] += 1
                return False
            times.append(reply["seconds"])
            since_reference += reply["seconds"]
            if since_reference >= 1.0:
                m["setup_references"].append(reference())
                since_reference = 0.0
        if since_reference:
            m["setup_references"].append(reference())
    finally:
        helper.close()
    print("setup " + json.dumps(
        {"seconds": times, "references": m["setup_references"]}), flush=True)
    return True


def check_outputs(workload, out: str, m: dict) -> None:
    """Hash a pass's outputs and compare them with the first pass's."""
    from workloads import sha256_file

    m["attempted"] += 1
    try:
        sums = {os.path.basename(p): sha256_file(p)
                for p in workload.outputs(out)}
    except OSError as exc:
        m["failures"].append(f"pass outputs missing: {exc}")
        m["failed"] += 1
        return
    if m["outputs"] is None:
        m["outputs"] = sums
    elif sums != m["outputs"]:
        m["failures"].append(f"pass outputs differ from the first pass: "
                             f"{sums} != {m['outputs']}")
        m["failed"] += 1


def check_library(workload, inp: str, out: str, m: dict) -> None:
    """The checks that reload outputs through the library, on the last
    pass (every pass wrote the same bytes)."""
    m["attempted"] += 1
    try:
        problems = workload.check(inp, out)
        print("quality " + json.dumps(
            {"test_accuracy": workload.accuracy(out)}), flush=True)
    except Exception:
        problems = [f"output check raised:\n{traceback.format_exc()}"]
    m["failures"] += problems
    m["failed"] += bool(problems)


def measure(workload, seed: int, seconds: float, trace: bool, tracer,
            run_dir: str, reference) -> dict:
    """Set up, then run passes until `seconds` have gone by, then check.

    A traced run alternates untraced and traced passes and has at least one
    of each. The reference job is sampled before every op and after the
    last pass. The library checks run after the peak memory of the passes
    is read, so that they do not count in it.
    """
    inp = os.path.join(run_dir, "in")
    out = os.path.join(run_dir, "out")
    m = {"setup_references": [], "references": [], "setup_times": [],
         "passes": [], "failures": [], "attempted": 0, "failed": 0,
         "outputs": None, "peak_rss_mb": None}
    if not set_up(workload, seed, inp, reference, m):
        return m
    rss_before = peak_rss_mb()

    passes = m["passes"]
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(
            workload, inp, out, len(passes), tracer if traced else None,
            before_op=lambda: m["references"].append(reference()))
        result["traced"] = traced
        m["attempted"] += result["attempted"]
        m["failures"] += result["failures"]
        m["failed"] += len(result["failures"])
        if result["failures"]:
            break
        check_outputs(workload, out, m)
        passes.append(result)
        print("pass " + json.dumps(
            {"traced": traced, "walls": result["walls"]}, sort_keys=True),
            flush=True)
        kinds = {p["traced"] for p in passes}
        if m["failures"] or (time.perf_counter() >= deadline
                             and len(kinds) == 1 + trace):
            break
    m["references"].append(reference())
    m["peak_rss_mb"] = peak_rss_mb()
    print("reference " + json.dumps(m["references"]), flush=True)
    print("rss " + json.dumps({"before_passes_mb": rss_before,
                               "after_passes_mb": m["peak_rss_mb"]}),
          flush=True)
    if passes and not m["failures"]:
        check_library(workload, inp, out, m)
    if m["outputs"] is not None:
        print("outputs " + json.dumps(m["outputs"], sort_keys=True),
              flush=True)
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: dict) -> dict:
    """Gated metrics; times are scaled to the reference job's speed."""
    if not m["passes"]:
        return {}
    walls = [sum(p["walls"].values()) for p in m["passes"]]
    values = {
        "setup_s": median(m["setup_times"])
        * REFERENCE_S / median(m["setup_references"]),
        "cli_wall_s": median(walls) * REFERENCE_S / median(m["references"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    return {name: {"value": v, "unit": END_TO_END[name]}
            for name, v in values.items()}


def per_layer(m: dict, tracer) -> dict:
    """Medians over traced passes, untraced op walls and tracing overhead."""
    from tracer import OPS, PER_LAYER_UNITS, layer_metrics, op_metric

    traced, plain = [], []
    for k, p in enumerate(m["passes"]):
        if p["traced"]:
            run_ids = {f"p{k}.{name}" for name in p["walls"]}
            traced.append(layer_metrics(
                [s for s in tracer.spans if s.run in run_ids]))
        else:
            plain.append(p["walls"])
    if not traced or not plain:
        return {}
    values = {name: median([t[name] for t in traced]) for name in traced[0]}
    for op in OPS:
        values[op_metric(op)] = median([walls.get(op, 0.0) for walls in plain])
    values["trace_overhead_frac"] = median(
        [sum(p["walls"].values()) for p in m["passes"] if p["traced"]]) \
        / median([sum(walls.values()) for walls in plain]) - 1.0
    return {name: {"value": v, "unit": PER_LAYER_UNITS[name]}
            for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spikegrow", "__init__.py")):
        print(f"error: no spikegrow sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Started before spikegrow is imported, with the environment as it was
    # given, so that nothing the program does can reach the reference job.
    reference = Helper([sys.executable, os.path.join(HERE, "reference.py")])
    try:
        return run(args, lambda: reference.ask()["seconds"])
    finally:
        reference.close()


def run(args, reference) -> int:
    sys.path.insert(0, SRC)
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    info = machine()
    info.update(workload=workload.name, seed=args.seed, trace=args.trace)
    print("machine " + json.dumps(info, sort_keys=True), flush=True)

    tracer = Tracer()
    run_dir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace),
                    tracer, run_dir, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer.spans:
        tracer.write(os.path.join(
            WORK, f"spans-{workload.name}-{args.seed}.json"))

    for failure in m["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not m["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": (per_layer(m, tracer) if args.trace else end_to_end(m))
        if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
