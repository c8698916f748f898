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
from dataclasses import dataclass

from ._util import atomic_write_text
from .construct import PruningConfig
from .dataset import (
    GeneratorConfig,
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

_GROWTH_KEYS = {"target_train_accuracy", "max_hidden", "patience",
                "eval_every", "rng_seed"}
_PRUNING_KEYS = {"pool_size", "weight_scale", "sigma0", "sigma_relax_steps",
                 "lambda_growth"}
_LIF_KEYS = {"dt", "tau_syn", "tau_mem", "theta"}
_GENERATOR_KEYS = {"d", "T", "categories", "samples_per_category", "base_rate",
                   "separation", "jitter", "rng_seed", "dt_ms", "stages"}
_SPLIT_KEYS = {"test_fraction", "seed"}
_TOP_KEYS = {"generator", "growth", "pruning", "lif", "split"}


@dataclass
class RunConfig:
    generator: GeneratorConfig
    stages: list
    growth: GrowthConfig
    test_fraction: float
    split_seed: int


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def load_run_config(path: str | None) -> RunConfig:
    """Read and validate a config file; every field has a default."""
    doc = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config root")
    gen_sec = dict(doc.get("generator", {}))
    _check_keys(gen_sec, _GENERATOR_KEYS, "generator section")
    stages = gen_sec.pop("stages", [5, 10, 15, 20])
    growth_sec = dict(doc.get("growth", {}))
    _check_keys(growth_sec, _GROWTH_KEYS, "growth section")
    pruning_sec = dict(doc.get("pruning", {}))
    _check_keys(pruning_sec, _PRUNING_KEYS, "pruning section")
    lif_sec = dict(doc.get("lif", {}))
    _check_keys(lif_sec, _LIF_KEYS, "lif section")
    split_sec = dict(doc.get("split", {}))
    _check_keys(split_sec, _SPLIT_KEYS, "split section")
    try:
        generator = GeneratorConfig(**gen_sec)
        lif = LifParams(**lif_sec)
        pruning = PruningConfig(**pruning_sec)
        growth = GrowthConfig(pruning=pruning, lif=lif, **growth_sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        generator=generator,
        stages=list(stages),
        growth=growth,
        test_fraction=float(split_sec.get("test_fraction", 0.2)),
        split_seed=int(split_sec.get("seed", 0)),
    )


def _apply_growth_overrides(cfg: GrowthConfig, args) -> GrowthConfig:
    if getattr(args, "max_hidden", None) is not None:
        cfg.max_hidden = args.max_hidden
    if getattr(args, "target", None) is not None:
        cfg.target_train_accuracy = args.target
    if getattr(args, "seed", None) is not None:
        cfg.rng_seed = args.seed
    # Re-run validation with overrides applied.
    cfg.__post_init__()
    return cfg


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
    cfg = _apply_growth_overrides(run.growth, args)
    ds = load_dataset(args.dataset)
    train, test = split_train_test(ds, run.test_fraction, run.split_seed)
    net, trace = train_fresh(train, test, cfg)
    save_network(net, args.out_checkpoint)
    export_trace(trace, args.out_trace, format="structured")
    print(f"status={trace.status} accuracy={trace.best_test_accuracy:.4f} "
          f"hidden={net.n_hidden} elapsed={trace.total_elapsed:.2f}s")
    return EXIT_OK


def cmd_train_exp(args) -> int:
    _require_file(args.seed_checkpoint, "seed checkpoint")
    _require_file(args.dataset, "dataset file")
    run = load_run_config(args.config)
    cfg = _apply_growth_overrides(run.growth, args)
    seed = load_network(args.seed_checkpoint)
    ds = load_dataset(args.dataset)
    if args.one_loop_only:
        net = one_loop_adapt(seed, ds)
        save_network(net, args.out_checkpoint)
        report = evaluate(net, ds)
        print(f"status=OneLoop accuracy={report.accuracy:.4f} "
              f"hidden={net.n_hidden}")
        return EXIT_OK
    train, test = split_train_test(ds, run.test_fraction, run.split_seed)
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
    if args.command == "train-exp" and not args.one_loop_only \
            and not args.out_trace:
        print("error: ConfigError: --out-trace is required unless "
              "--one-loop-only", file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "threads", 1) < 1:
        print(f"error: ConfigError: --threads must be >= 1, got {args.threads}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
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
