"""Command-line front end for reproducible batch workflows.

Subcommands: gen-data, train-fresh, train-exp, eval, inspect, compare.
Configuration lives in a strict JSON document; command-line flags override
file values. Exit codes: 0 success, 2 usage/config error, 3 data/lineage
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

from ._util import atomic_write_text
from .construct import PruningConfig
from .dataset import (
    GeneratorConfig,
    SplitConfig,
    dataset_fingerprint,
    generate_family,
    load_dataset,
    save_dataset,
    split_train_test,
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
    comparison_to_text,
    compare_runs,
    evaluate,
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
from .lif import LifParams

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
        _require_file(path, "config file")
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
    return RunConfig(GeneratorConfig(**doc["generator"]), stages, growth,
                     SplitConfig(**doc["split"]))


def _growth_config(run: RunConfig, args) -> GrowthConfig:
    """The config's growth settings with --max-hidden/--target/--seed applied
    and checked again."""
    flags = {"max_hidden": args.max_hidden, "rng_seed": args.seed,
             "target_train_accuracy": args.target}
    return replace(run.growth, **{k: v for k, v in flags.items() if v is not None})


def _require_file(path: str, what: str) -> None:
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")


def cmd_gen_data(args) -> int:
    run = load_run_config(args.config)
    stages = args.stages or run.stages
    family = generate_family(run.generator, stages)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {"stages": []}
    for size, ds in zip(stages, family.stages):
        path = os.path.join(args.out_dir, f"stage-{size}.ds")
        save_dataset(ds, path)
        manifest["stages"].append({
            "categories": size,
            "n_samples": len(ds),
            "path": os.path.basename(path),
            "sha256": dataset_fingerprint(ds),
        })
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    atomic_write_text(manifest_path, json.dumps(manifest, indent=1,
                                                sort_keys=True) + "\n")
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def cmd_train_fresh(args) -> int:
    _require_file(args.dataset, "dataset file")
    run = load_run_config(args.config)
    cfg = _growth_config(run, args)
    ds = load_dataset(args.dataset)
    train, test = split_train_test(ds, run.split.test_fraction, run.split.seed)
    net, trace = train_fresh(train, test, cfg)
    save_network(net, args.out_checkpoint)
    export_trace(trace, args.out_trace, format="structured")
    print(f"status={trace.status} accuracy={trace.best_test_accuracy:.4f} "
          f"hidden={net.n_hidden} elapsed={trace.total_elapsed:.2f}s")
    return EXIT_OK


def cmd_train_exp(args) -> int:
    if not args.one_loop_only and not args.out_trace:
        raise ConfigError("--out-trace is required unless --one-loop-only")
    _require_file(args.seed_checkpoint, "seed checkpoint")
    _require_file(args.dataset, "dataset file")
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
    export_trace(trace, args.out_trace, format="structured")
    print(f"status={trace.status} accuracy={trace.best_test_accuracy:.4f} "
          f"hidden={net.n_hidden} added={trace.added_neurons} "
          f"elapsed={trace.total_elapsed:.2f}s")
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.dataset, "dataset file")
    net = load_network(args.checkpoint)
    ds = load_dataset(args.dataset)
    report = evaluate(net, ds)
    text = report_to_text(report, net.categories)
    if args.out_report:
        atomic_write_text(args.out_report, text)
    print(f"accuracy={report.accuracy:.4f} hidden={report.n_hidden} "
          f"space={report.space_complexity}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
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
    labeled = []
    for path in args.traces:
        _require_file(path, "trace file")
        labeled.append((os.path.basename(path), load_trace(path)))
    report = compare_runs(labeled)
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
                   help="refit output weights only; add no hidden units")
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
    p.add_argument("traces", nargs="+", help="structured trace files")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, LineageError, DegenerateDataError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantError as exc:
        print(f"error: InvariantError: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SpikegrowError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
