"""Command-line front end: run experiments, verify invariants, compare variants.

Experiments are described by a JSON config mirroring RunConfig field for
field; unknown or duplicate keys are rejected so a typo cannot silently
fall back to a default. A copy of the fully resolved config is written
next to every trace for reproducibility.

Exit codes: 0 success, 2 malformed config or arguments, or an output that
cannot be written, 3 numeric abort, 4 invariant or property failure;
`main` maps the errors to them in one place.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import simulation  # write_trace is looked up here at call time, so wrappers apply
from .optimizers import NumericError
from .simulation import (
    InvariantViolation,
    ProblemSpec,
    RunConfig,
    TraceRecord,
    check_seed,
    run,
    smoothed_threshold_iteration,
    write_atomic,
)
from .verification import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4

# sketch shapes from the two experiment scales this library ships with
PRESETS = {
    "small": {"rows": 5, "cols": 400, "k": 500, "p_factor": 4},
    "large": {"rows": 10, "cols": 100_000, "k": 50_000, "p_factor": 8},
}

_PROBLEM_TYPES = {f.name: f.type for f in dataclasses.fields(ProblemSpec)}
_RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig) if f.name != "problem"}
# the JSON type of each sweep key, spelled as a field annotation
_SWEEP_KEYS = {"worker_counts": "list", "threshold": "float", "window": "int",
               "k_values": "list", "alphas": "list"}
# (RunConfig field, sweep key, output file) of each swept parameter
_SWEEPS = (("n_workers", "worker_counts", "speedup.csv"), ("k", "k_values", "sweep_k.csv"),
           ("alpha", "alphas", "sweep_alpha.csv"))
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "list": list}


class ConfigError(ValueError):
    """Malformed experiment config."""


def _reject_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates,
                            parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def parse_config(raw: dict) -> tuple[RunConfig, dict]:
    """Expand the preset, reject unknown keys and values of the wrong JSON
    type, and build the run's config and its sweep block ({} without one).

    Parsing is idempotent: resolved_config's output parses to the same run.
    """
    raw = dict(raw)
    preset = raw.pop("preset", None)
    sweep = raw.pop("sweep", None)
    problem = raw.pop("problem", None)
    if problem is None:
        raise ConfigError("missing required key 'problem'")
    if not isinstance(problem, dict):
        raise ConfigError("'problem' must be an object")
    problem = _typed("problem.", problem, _PROBLEM_TYPES)
    if "kind" not in problem or "dim" not in problem:
        raise ConfigError("'problem' requires 'kind' and 'dim'")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        raw = {**PRESETS[preset], **raw}
    fields = _typed("", raw, _RUN_TYPES)
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("'sweep' must be an object")
        sweep = {"window": 25, **_typed("sweep.", sweep, _SWEEP_KEYS)}
        if "worker_counts" in sweep and "threshold" not in sweep:
            raise ConfigError("'sweep.worker_counts' requires 'sweep.threshold'")
        if sweep["window"] < 1:
            raise ConfigError(f"'sweep.window' must be >= 1, got {sweep['window']}")
        if not -math.inf < sweep.get("threshold", 0.0) < math.inf:
            raise ConfigError(f"'sweep.threshold' must be finite, got {sweep['threshold']}")
    try:
        return RunConfig(ProblemSpec(**problem), **fields), sweep or {}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolved_config(config: RunConfig, sweep: dict) -> dict:
    """The config.resolved.json payload: the run's config, and its sweep if any."""
    return {**dataclasses.asdict(config), **({"sweep": sweep} if sweep else {})}


def _typed(prefix: str, raw: dict, types: dict) -> dict:
    """raw with every value through _check_type, after rejecting a key
    that types does not name."""
    for key in raw:
        if key not in types:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    return {key: _check_type(prefix + key, value, types[key]) for key, value in raw.items()}


def _check_type(name: str, value, kind: str):
    """Return the value, as a float for a float kind, after rejecting one
    whose JSON type does not fit kind, a field's annotation text; a bool
    is not a number here, though Python counts it as one."""
    types = _JSON_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ConfigError(f"'{name}' must be of type {kind}, got {value!r}")
    if kind != "float":
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"'{name}' is too large for a float") from exc


def _derive(config: RunConfig, field: str, value, name: str | None = None) -> RunConfig:
    """config with one field replaced, which reruns RunConfig's checks;
    only the new value's JSON type is checked here, under name."""
    value = _check_type(name or field, value, _RUN_TYPES[field])
    try:
        return dataclasses.replace(config, **{field: value})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _summary(records: list[TraceRecord], config: RunConfig) -> dict:
    total = sum(
        config.n_workers * r.upstream_scalars + r.downstream_scalars for r in records
    )
    return {
        "variant": config.variant,
        "dim": config.problem.dim,
        "iterations": len(records),
        "final_train_loss": records[-1].train_loss if records else None,
        "mean_grad_norm_sq": float(np.mean([r.grad_norm_sq for r in records])) if records else None,
        "total_scalars": total,
        "compression_rate": records[-1].compression_rate if records else None,
    }


def _write_json(payload: dict, path: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


def _error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _run_all(configs: list[RunConfig], jobs: int) -> list[list[TraceRecord]]:
    """Run every config, up to jobs at a time, and return the traces in
    config order. The first failure in that order is raised; runs not yet
    started are cancelled."""
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=jobs)
    try:
        return [records for _, records in pool.map(run, configs)]
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_run(args: argparse.Namespace) -> int:
    config, sweep = parse_config(load_config_file(args.config))
    if args.seed is not None:
        config = _derive(config, "seed", args.seed)
    if args.no_invariants:
        config = _derive(config, "check_invariants", False)
    swept = [(param, key, name) for param, key, name in _SWEEPS if key in sweep]
    # every run is built, and so checked, before anything runs or is written
    runs = [_derive(config, param, v, f"sweep.{key}") for param, key, _ in swept
            for v in sweep[key]]
    _write_json(resolved_config(config, sweep), os.path.join(args.output, "config.resolved.json"))
    traces = iter(_run_all([config, *runs], args.jobs))
    records = next(traces)
    simulation.write_trace(records, os.path.join(args.output, "trace.csv"))
    for param, key, name in swept:
        if param == "n_workers":
            rows = [["n_workers", "iterations_to_threshold"]]
            for n in sweep[key]:
                norms = [r.grad_norm_sq for r in next(traces)]
                it = smoothed_threshold_iteration(norms, sweep["threshold"], sweep["window"])
                rows.append([n, it])
        else:
            rows = [[param, "final_train_loss", "mean_grad_norm_sq"]]
            for value in sweep[key]:
                s = _summary(next(traces), config)
                rows.append([value, s["final_train_loss"], s["mean_grad_norm_sq"]])
        write_atomic(os.path.join(args.output, name), lambda fh: csv.writer(fh).writerows(rows))
    _write_json(_summary(records, config), os.path.join(args.output, "summary.json"))
    print(f"run complete: {len(records)} iterations -> {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        check_seed(args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_INVARIANT


def cmd_compare(args: argparse.Namespace) -> int:
    config, _ = parse_config(load_config_file(args.config))
    if args.seed is not None:
        config = _derive(config, "seed", args.seed)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants names no variant")
    if len(set(variants)) < len(variants):
        raise ConfigError(f"--variants names a variant twice: {args.variants!r}")
    configs = [_derive(config, "variant", v) for v in variants]
    _write_json(resolved_config(config, {}), os.path.join(args.output, "config.resolved.json"))
    traces = _run_all(configs, args.jobs)
    header = ["iter"]
    for variant, records in zip(variants, traces):
        simulation.write_trace(records, os.path.join(args.output, f"{variant}.trace.csv"))
        header += [f"{variant}_train_loss", f"{variant}_grad_norm_sq"]
    rows = [header]
    for i in range(configs[0].horizon):
        row = [i + 1]
        for records in traces:
            row += [format(records[i].train_loss, ".17g"), format(records[i].grad_norm_sq, ".17g")]
        rows.append(row)
    write_atomic(os.path.join(args.output, "joined.csv"), lambda fh: csv.writer(fh).writerows(rows))
    print(f"compared {len(variants)} variants over {configs[0].horizon} iterations -> {args.output}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, so that
    main reports them as one JSON line; subparsers take this class too."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sketchgrad",
        description="Sketch-compressed distributed Adam-type optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--no-invariants", action="store_true")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="run several variants with shared seeds")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--variants", required=True)
    p_cmp.add_argument("-o", "--output", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except ConfigError as exc:
        _error("config", str(exc))
        return EXIT_CONFIG
    except NumericError as exc:
        _error("numeric", str(exc))
        return EXIT_NUMERIC
    except InvariantViolation as exc:
        _error("invariant", str(exc))
        return EXIT_INVARIANT
    except OSError as exc:  # an output that cannot be written; files already written stay
        _error("config", f"cannot write output: {exc}")
        return EXIT_CONFIG
    except MemoryError as exc:  # an array the machine cannot hold; files already written stay
        _error("config", f"cannot allocate: {exc}")
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
