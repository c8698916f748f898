"""Command-line front end for reproducible batch workflows.

Subcommands: gen-data, train-fresh, train-exp, eval, inspect, compare.
Configuration lives in a strict JSON document; command-line flags override
file values. Exit codes: 0 success, 2 usage/config error, 3 data/lineage
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace

from ._util import atomic_write_text
from .construct import PruningConfig
# dataset_fingerprint, generate_family, save_dataset: for benchmarks/tracer.py
from .dataset import (  # noqa: F401
    DatasetReader,
    GeneratorConfig,
    SplitConfig,
    check_stage_sizes,
    dataset_fingerprint,
    family_blocks,
    generate_family,
    load_dataset,
    save_dataset,
    split_train_test,
    write_blocks,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateDataError,
    InvariantError,
    LineageError,
    SpikegrowError,
)
from .evaluation import (
    check_dataset,
    comparison_to_text,
    compare_runs,
    evaluate,
    evaluate_blocks,
    export_trace,
    load_trace,
    report_to_text,
    space_complexity,
)
from .learner import (
    GrowthConfig,
    load_network,
    one_loop_adapt,
    save_network,
    train_experienced,
    train_fresh,
)
from .lif import LifParams, block_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# Config section -> the dataclass whose fields are its keys.
_SECTIONS = {"generator": GeneratorConfig, "growth": GrowthConfig,
             "pruning": PruningConfig, "lif": LifParams, "split": SplitConfig}


@dataclass
class RunConfig:
    generator: GeneratorConfig
    stages: list
    growth: GrowthConfig
    split: SplitConfig


def _check_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def load_run_config(path: str | None) -> RunConfig:
    """Read and validate a config file; every field has a default."""
    doc = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, "rb") as fh:
                doc = json.loads(fh.read().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _check_keys(doc, set(_SECTIONS), "config root")
    for name, cls in _SECTIONS.items():
        # growth.pruning and growth.lif are set in their own sections.
        allowed = {f.name for f in fields(cls)} - set(_SECTIONS)
        _check_keys(doc.setdefault(name, {}), allowed | {"stages"}
                    if cls is GeneratorConfig else allowed, f"{name} section")
    stages = doc["generator"].pop("stages", [5, 10, 15, 20])
    if not isinstance(stages, list):
        raise ConfigError(f"generator.stages must be a list, got {stages!r}")
    growth = GrowthConfig(pruning=PruningConfig(**doc["pruning"]),
                          lif=LifParams(**doc["lif"]), **doc["growth"])
    generator = GeneratorConfig(**doc["generator"])
    check_stage_sizes(stages, generator.categories)
    return RunConfig(generator, stages, growth, SplitConfig(**doc["split"]))


def _growth_config(run: RunConfig, args) -> GrowthConfig:
    """The config's growth settings with --max-hidden/--target/--seed applied
    and checked again."""
    flags = {"max_hidden": args.max_hidden, "rng_seed": args.seed,
             "target_train_accuracy": args.target}
    return replace(run.growth, **{k: v for k, v in flags.items() if v is not None})


def _file_key(path: str):
    """Equal for two paths to one file: its device and inode once it
    exists, else its real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_paths(args, *outputs: str) -> None:
    """Fail before any work on an input file that does not exist, or on an
    output path that cannot be written: its directory is missing, the path
    itself is a directory, or it names the same file as an input of the
    command or another of its outputs."""
    inputs = [("--" + name.replace("_", "-"), getattr(args, name, None))
              for name in ("config", "dataset", "seed_checkpoint", "checkpoint")]
    inputs += [("trace file", path) for path in getattr(args, "traces", [])]
    taken = {}
    for flag, path in inputs:
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"{flag} {path!r} not found")
            taken[_file_key(path)] = f"{flag} {path!r}"
    for name in outputs:
        path = getattr(args, name)
        if path is None:
            continue
        flag = "--" + name.replace("_", "-")
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path!r} is a directory")
        parent = os.path.dirname(path) or os.curdir
        if not os.path.isdir(parent):
            raise ConfigError(
                f"{flag} {path!r}: directory {parent!r} does not exist")
        key = _file_key(path)
        if key in taken:
            raise ConfigError(
                f"{flag} {path!r} names the same file as {taken[key]}")
        taken[key] = f"{flag} {path!r}"


def cmd_gen_data(args) -> int:
    run = load_run_config(args.config)
    stages = args.stages or run.stages
    names = [f"stage-{size}.ds" for size in stages]
    paths = [os.path.join(args.out_dir, name) for name in names]
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    if args.config is not None:
        config = _file_key(args.config)
        for path in paths + [manifest_path]:
            if _file_key(path) == config:
                raise ConfigError(f"--out-dir output {path!r} names the "
                                  f"same file as --config {args.config!r}")
    gen = run.generator
    stages = check_stage_sizes(stages, gen.categories)
    n = gen.samples_per_category
    # One block is allocated here, before any file is opened; the family is
    # never held whole.
    blocks = family_blocks(gen, stages[-1])
    os.makedirs(args.out_dir, exist_ok=True)
    # The stages are row prefixes of the last: each block is serialised once
    # and written to every stage file that holds its rows.
    digests = write_blocks(paths, [(gen.d, gen.T, gen.dt_ms, size * n,
                                    list(range(size))) for size in stages],
                           blocks)
    manifest = {"stages": [{
        "categories": size,
        "n_samples": size * n,
        "path": name,
        "sha256": digest,
    } for size, name, digest in zip(stages, names, digests)]}
    atomic_write_text(manifest_path, json.dumps(manifest, indent=1,
                                                sort_keys=True) + "\n")
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def cmd_train_fresh(args) -> int:
    _check_paths(args, "out_checkpoint", "out_trace")
    run = load_run_config(args.config)
    cfg = _growth_config(run, args)
    train, test = split_train_test(load_dataset(args.dataset),
                                   run.split.test_fraction, run.split.seed)
    net, trace = train_fresh(train, test, cfg)
    save_network(net, args.out_checkpoint)
    export_trace(trace, args.out_trace)
    print(f"status={trace.status} accuracy={trace.best_test_accuracy:.4f} "
          f"hidden={net.n_hidden} elapsed={trace.total_elapsed:.2f}s")
    return EXIT_OK


def cmd_train_exp(args) -> int:
    if args.one_loop_only:
        for flag in ("out_trace", "max_hidden", "target", "seed"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag.replace('_', '-')} has no effect "
                                  f"with --one-loop-only, which grows nothing")
    elif not args.out_trace:
        raise ConfigError("--out-trace is required unless --one-loop-only")
    _check_paths(args, "out_checkpoint", "out_trace")
    run = load_run_config(args.config)
    cfg = _growth_config(run, args)
    seed = load_network(args.seed_checkpoint)
    ds = load_dataset(args.dataset)
    if args.one_loop_only:
        net = one_loop_adapt(seed, ds)
        save_network(net, args.out_checkpoint)
        report = evaluate(net, ds)
        print(f"status=OneLoop accuracy={report.accuracy:.4f} "
              f"hidden={net.n_hidden}")
        return EXIT_OK
    train, test = split_train_test(ds, run.split.test_fraction, run.split.seed)
    net, trace = train_experienced(seed, train, test, cfg)
    save_network(net, args.out_checkpoint)
    export_trace(trace, args.out_trace)
    print(f"status={trace.status} accuracy={trace.best_test_accuracy:.4f} "
          f"hidden={net.n_hidden} added={trace.added_neurons} "
          f"elapsed={trace.total_elapsed:.2f}s")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_paths(args, "out_report")
    load_run_config(args.config)  # read to check it; eval uses no setting
    net = load_network(args.checkpoint)
    with open(args.dataset, "rb") as fh:
        # The header is checked against the checkpoint before any sample
        # line is read; then each block is read, verified and scored.
        reader = DatasetReader(fh)
        check_dataset(net, reader.d, reader.categories)
        report = evaluate_blocks(net, reader.blocks(block_rows(net.n_hidden)))
    text = report_to_text(report, net.categories)
    if args.out_report:
        atomic_write_text(args.out_report, text)
    print(f"accuracy={report.accuracy:.4f} hidden={report.n_hidden} "
          f"space={report.space_complexity}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    _check_paths(args)
    net = load_network(args.checkpoint)
    print(f"d={net.d}")
    print(f"lif=dt:{net.lif.dt},tau_syn:{net.lif.tau_syn},"
          f"tau_mem:{net.lif.tau_mem},theta:{net.lif.theta}")
    print(f"hidden={net.n_hidden}")
    print(f"frozen_prefix={net.frozen_prefix}")
    print(f"categories={net.categories}")
    print(f"space_complexity={space_complexity(net)}")
    for entry in net.lineage:
        print(f"lineage={json.dumps(entry, sort_keys=True)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_paths(args, "out")
    report = compare_runs([(os.path.basename(path), load_trace(path))
                           for path in args.traces])
    text = comparison_to_text(report)
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikegrow",
        description="Grow spiking classifiers neuron-by-neuron from "
                    "spike-train data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="JSON config file (default: built-in defaults)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; results and speed "
                            "do not depend on it (default 1)")

    p = sub.add_parser("gen-data", help="generate a nested synthetic family")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--stages", type=lambda s: [int(x) for x in s.split(",")],
                   default=None,
                   help="comma-separated category counts (default from config)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-fresh", help="grow a classifier from scratch")
    add_common(p)
    p.add_argument("--dataset", required=True, help="input .ds file")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-trace", required=True)
    p.add_argument("--max-hidden", type=int, default=None,
                   help="override hidden-unit cap")
    p.add_argument("--target", type=float, default=None,
                   help="override train-accuracy target")
    p.add_argument("--seed", type=int, default=None, help="override rng seed")
    p.set_defaults(func=cmd_train_fresh)

    p = sub.add_parser("train-exp",
                       help="adapt and grow from a seed checkpoint")
    add_common(p)
    p.add_argument("--seed-checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="enlarged .ds file")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-trace", default=None,
                   help="required unless --one-loop-only")
    p.add_argument("--one-loop-only", action="store_true",
                   help="refit output weights only; add no hidden units "
                        "(refuses --out-trace, --max-hidden, --target, "
                        "--seed)")
    p.add_argument("--max-hidden", type=int, default=None)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train_exp)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-report", default=None, help="JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print checkpoint metadata")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("compare", help="tabulate persisted training traces")
    p.add_argument("traces", nargs="+", help="trace files")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_compare)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads every argv with, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except (DataFormatError, LineageError, DegenerateDataError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantError as exc:
        print(f"error: InvariantError: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SpikegrowError, OSError, MemoryError) as exc:
        # ConfigError, an unusable path, or a size too large for the machine.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
