"""Command-line front end: run experiments, verify invariants, compare variants.

Experiments are described by a JSON config mirroring RunConfig field for
field; unknown or duplicate keys are rejected so a typo cannot silently
fall back to a default. A copy of the fully resolved config is written
next to every trace for reproducibility.

Exit codes: 0 success, 2 malformed config, 3 numeric abort,
4 invariant or property failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .optimizers import SKETCHED, VARIANTS, NumericError
from .simulation import (
    InvariantViolation,
    ProblemSpec,
    RunConfig,
    TraceRecord,
    run,
    speedup_sweep,
    write_trace,
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

_PROBLEM_FIELDS = {f.name: f for f in dataclasses.fields(ProblemSpec)}
_RUN_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_SWEEP_KEYS = {"worker_counts", "threshold", "window", "k_values", "alphas"}


class ConfigError(ValueError):
    """Malformed experiment config."""


def _reject_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def resolve_config(raw: dict) -> dict:
    """Expand preset and defaults into a complete, validated config dict.

    Resolution is idempotent: resolving a resolved config is identity.
    """
    raw = dict(raw)
    preset = raw.pop("preset", None)
    sweep = raw.pop("sweep", None)
    problem_raw = raw.pop("problem", None)
    if problem_raw is None:
        raise ConfigError("missing required key 'problem'")
    if not isinstance(problem_raw, dict):
        raise ConfigError("'problem' must be an object")
    for key in problem_raw:
        if key not in _PROBLEM_FIELDS:
            raise ConfigError(f"unknown key 'problem.{key}'")
    if "kind" not in problem_raw or "dim" not in problem_raw:
        raise ConfigError("'problem' requires 'kind' and 'dim'")

    for key in raw:
        if key not in _RUN_FIELDS or key == "problem":
            raise ConfigError(f"unknown key {key!r}")

    resolved = {name: f.default for name, f in _RUN_FIELDS.items() if name != "problem"}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        resolved.update(PRESETS[preset])
    resolved.update(raw)

    problem = {
        name: problem_raw.get(name, f.default)
        for name, f in _PROBLEM_FIELDS.items()
        if name in problem_raw or f.default is not dataclasses.MISSING
    }
    out = {"problem": problem, **resolved}
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("'sweep' must be an object")
        for key in sweep:
            if key not in _SWEEP_KEYS:
                raise ConfigError(f"unknown key 'sweep.{key}'")
        if "worker_counts" in sweep and "threshold" not in sweep:
            raise ConfigError("'sweep.worker_counts' requires 'sweep.threshold'")
        out["sweep"] = {"window": 25, **sweep}
    build_run_config(out)  # validate eagerly so bad values fail before any run
    return out


def _check_types(values: dict, fields: dict, prefix: str = "") -> None:
    """Reject a value whose JSON type does not fit its field; a bool is
    not an int here, though Python counts it as one."""
    for name, value in values.items():
        kind = fields[name].type  # the annotation's source text
        if kind == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif kind == "float":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif kind == "bool":
            ok = isinstance(value, bool)
        elif kind == "str":
            ok = isinstance(value, str)
        else:
            continue
        if not ok:
            raise ConfigError(f"'{prefix}{name}' must be of type {kind}, got {value!r}")


def build_run_config(resolved: dict) -> RunConfig:
    fields = {k: v for k, v in resolved.items() if k in _RUN_FIELDS and k != "problem"}
    _check_types(resolved["problem"], _PROBLEM_FIELDS, "problem.")
    _check_types(fields, _RUN_FIELDS)
    try:
        spec = ProblemSpec(**resolved["problem"])
        config = RunConfig(problem=spec, **fields)
        if config.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {config.variant!r}")
        config.hyper()
        if config.variant in SKETCHED:
            config.protocol(spec.dim)
        return config
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _summary(records: list[TraceRecord], config: RunConfig) -> dict:
    if not records:
        return {
            "variant": config.variant,
            "dim": config.problem.dim,
            "iterations": 0,
            "final_train_loss": None,
            "mean_grad_norm_sq": None,
            "total_scalars": 0,
            "compression_rate": None,
        }
    total = sum(
        config.n_workers * r.upstream_scalars + r.downstream_scalars for r in records
    )
    return {
        "variant": config.variant,
        "dim": config.problem.dim,
        "iterations": len(records),
        "final_train_loss": records[-1].train_loss,
        "mean_grad_norm_sq": float(np.mean([r.grad_norm_sq for r in records])),
        "total_scalars": total,
        "compression_rate": records[-1].compression_rate,
    }


def _write_json(payload: dict, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _run_sweeps(resolved: dict, config: RunConfig, output_dir: str, jobs: int) -> None:
    sweep = resolved["sweep"]
    if "worker_counts" in sweep:
        rows = speedup_sweep(
            config,
            [int(n) for n in sweep["worker_counts"]],
            threshold=float(sweep["threshold"]),
            window=int(sweep["window"]),
        )
        _write_csv(
            os.path.join(output_dir, "speedup.csv"),
            ["n_workers", "iterations_to_threshold"],
            [[n, it] for n, it in rows],
        )

    def one(param: str, value) -> list:
        cfg = dataclasses.replace(config, **{param: value}, trace_path=None)
        _, recs = run(cfg)
        s = _summary(recs, cfg)
        return [value, s["final_train_loss"], s["mean_grad_norm_sq"]]

    for param, key, fname in (("k", "k_values", "sweep_k.csv"), ("alpha", "alphas", "sweep_alpha.csv")):
        if key not in sweep:
            continue
        values = sweep[key]
        with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            rows = list(pool.map(lambda v: one(param, v), values))
        _write_csv(
            os.path.join(output_dir, fname),
            [param, "final_train_loss", "mean_grad_norm_sq"],
            rows,
        )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        resolved = resolve_config(load_config_file(args.config))
        if args.seed is not None:
            resolved["seed"] = args.seed
        if args.no_invariants:
            resolved["check_invariants"] = False
        resolved["trace_path"] = os.path.join(args.output, "trace.csv")
        config = build_run_config(resolved)
    except ConfigError as exc:
        _error("config", str(exc))
        return EXIT_CONFIG
    os.makedirs(args.output, exist_ok=True)
    _write_json(resolved, os.path.join(args.output, "config.resolved.json"))
    try:
        _, records = run(config)
        if "sweep" in resolved:
            _run_sweeps(resolved, config, args.output, args.jobs)
    except NumericError as exc:
        _error("numeric", str(exc))
        return EXIT_NUMERIC
    except InvariantViolation as exc:
        _error("invariant", str(exc))
        return EXIT_INVARIANT
    _write_json(_summary(records, config), os.path.join(args.output, "summary.json"))
    print(f"run complete: {len(records)} iterations -> {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_INVARIANT


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        resolved = resolve_config(load_config_file(args.config))
        if args.seed is not None:
            resolved["seed"] = args.seed
        resolved.pop("sweep", None)
        resolved["trace_path"] = None
        base = build_run_config(resolved)
    except ConfigError as exc:
        _error("config", str(exc))
        return EXIT_CONFIG
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = [v for v in variants if v not in VARIANTS]
    if not variants or unknown:
        _error("config", f"variants must be from {VARIANTS}, got {unknown or 'none'}")
        return EXIT_CONFIG
    os.makedirs(args.output, exist_ok=True)
    _write_json(resolved, os.path.join(args.output, "config.resolved.json"))

    def one(variant: str) -> list[TraceRecord]:
        cfg = dataclasses.replace(base, variant=variant)
        _, records = run(cfg)
        write_trace(records, os.path.join(args.output, f"{variant}.trace.csv"))
        return records

    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            traces = dict(zip(variants, pool.map(one, variants)))
    except NumericError as exc:
        _error("numeric", str(exc))
        return EXIT_NUMERIC
    except InvariantViolation as exc:
        _error("invariant", str(exc))
        return EXIT_INVARIANT

    header = ["iter"]
    for v in variants:
        header += [f"{v}_train_loss", f"{v}_grad_norm_sq"]
    rows = []
    for i in range(base.horizon):
        row = [i + 1]
        for v in variants:
            rec = traces[v][i]
            row += [format(rec.train_loss, ".17g"), format(rec.grad_norm_sq, ".17g")]
        rows.append(row)
    _write_csv(os.path.join(args.output, "joined.csv"), header, rows)
    print(f"compared {len(variants)} variants over {base.horizon} iterations -> {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
