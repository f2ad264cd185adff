"""sketchgrad benchmark: ms per iteration of every optimizer variant, set-up
time, peak memory and the wall time of ``sketchgrad verify all``.

Run from the repository root:

    python3 perfbench/run.py --workload accept-d50 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --record-golden

Samples drive the package only through its command line
(``sketchgrad.cli.main``). Each sample runs at its own seed, so it builds
its own problem, state and sketch hash tables as each ``sketchgrad run``
does; each interpreter's first sample also measures start-up. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit. See README.md in this directory.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# trace.csv at dim 60k is bit-identical only at a fixed BLAS thread count;
# one thread also leaves the second core of a 2-core machine to this process
BLAS_THREADS = 1
GOLDEN_SEED = 0
VERIFY_SEED = 0  # the default of `sketchgrad verify --seed`
# a run ends within --seconds + GRACE_S + PROBE_TIMEOUT_S even if a sample
# hangs; a hung sample is killed and counts as failed
GRACE_S = 100
PROBE_TIMEOUT_S = 30

# The machine's speed drifts by up to a third over minutes, alike for every
# kind of work. So each interpreter times sample.calibrate() around each
# command, and every end-to-end time t is reported as t * CALIB_REF_MS / c,
# where c is the mean calibration time around that command: the time at the
# speed at which calibrate() takes CALIB_REF_MS, about this machine's
# typical speed. The printed raw times are unscaled.
CALIB_REF_MS = 10.0

VARIANTS = ("pa", "ga", "sketched_sgd", "dense_amsgrad", "dense_sgd")
SKETCHED = ("pa", "ga", "sketched_sgd")
SUITES = ("sketch", "compressor", "optimizer")


def horizons(sketched, dense):
    """Iterations per sample; the cheap dense variants run more, so every
    variant's training loop takes about as long."""
    return {v: sketched if v in SKETCHED else dense for v in VARIANTS}


# Every workload also runs `sketchgrad verify all` once per run, so each
# end-to-end metric is measured on each workload.
WORKLOADS = {
    "accept-d50": {
        "horizons": horizons(200, 400),
        "config": {
            "problem": {"kind": "logreg", "dim": 50, "n_samples": 500, "n_classes": 10},
            "alpha": 0.05, "epsilon": 1e-4, "n_workers": 10, "k": 5, "p_factor": 4,
            "rows": 5, "cols": 25, "batch_size": 8,
            "partition_mode": "label_skew", "skew_param": 0.1,
        },
    },
    "paper60k-quad": {
        "horizons": horizons(8, 40),
        "config": {
            "problem": {"kind": "quadratic", "dim": 60000, "condition_number": 10.0,
                        "noise_std": 1.0},
            "preset": "small", "n_workers": 8,
        },
    },
    "paper60k-logreg": {
        "horizons": horizons(6, 8),
        "config": {
            "problem": {"kind": "logreg", "dim": 60000, "n_samples": 2000, "n_classes": 10},
            "preset": "small", "n_workers": 8,
        },
    },
}

# (name, unit, better, bound); the bound is the share of the parent's median
# by which the metric may worsen
END_TO_END = [(f"iter_ms.{v}", "ms", "lower", 0.25) for v in VARIANTS] + [
    ("setup_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, jobs): one metric per job, named <name>.<job>
TRAINING_LAYERS = [
    ("sketch.sketch_ms", "ms/it", "lower", SKETCHED),
    ("sketch.sketch_calls", "calls/it", "lower", SKETCHED),
    ("sketch.query_ms", "ms/it", "lower", SKETCHED),
    ("sketch.candidates_ms", "ms/it", "lower", ("pa", "sketched_sgd")),
    ("sketch.configs", "count", "lower", SKETCHED),
    ("compressors.aggregate_ms", "ms/it", "lower", SKETCHED),
    ("compressors.sparse_updates", "calls/it", "lower", SKETCHED),
    ("compressors.upstream_scalars", "scalars/it", "lower", SKETCHED),
    ("compressors.downstream_scalars", "scalars/it", "lower", SKETCHED),
    ("compressors.topk_overlap", "ratio", "higher", SKETCHED),
    ("compressors.contraction", "ratio", "lower", SKETCHED),
    ("optimizers.step_ms", "ms/it", "lower", VARIANTS),
    ("simulation.worker_grad_ms", "ms/it", "lower", VARIANTS),
    ("simulation.eval_ms", "ms/it", "lower", VARIANTS),
    ("simulation.gradient_calls", "calls/it", "lower", VARIANTS),
    ("simulation.loss_calls", "calls/it", "lower", VARIANTS),
    ("simulation.setup_ms", "ms", "lower", VARIANTS),
    ("simulation.self_ms", "ms/it", "lower", VARIANTS),
    ("cli.write_ms", "ms", "lower", VARIANTS),
]
VERIFY_LAYERS = [
    ("sketch.sketch_ms.verify", "ms", "lower"),
    ("sketch.sketch_calls.verify", "count", "lower"),
    ("sketch.configs.verify", "count", "lower"),
] + [(f"verification.suite_ms.{s}", "ms", "lower") for s in SUITES]
OVERHEAD = ("trace_overhead_pct", "%", "lower")

# trace.csv column -> per-layer metric (the column mean over the run)
TRACE_COLUMNS = {
    "upstream_scalars": "compressors.upstream_scalars",
    "downstream_scalars": "compressors.downstream_scalars",
    "topk_overlap": "compressors.topk_overlap",
    "contraction_ratio": "compressors.contraction",
}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{name}.{job}", unit, better)
           for name, unit, better, jobs in TRAINING_LAYERS for job in jobs]
    return out + VERIFY_LAYERS + [OVERHEAD]


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


@dataclass
class Sample:
    job: str  # a variant name, or "verify"
    traced: bool
    seed: int
    failure: str | None = None
    setup_s: float | None = None
    loop_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    calib_ms: float | None = None
    trace_sha: str | None = None
    final_loss: float | None = None
    layers: dict | None = None


@dataclass
class Context:
    workload: str
    seed: int
    horizons: dict  # variant -> iterations per sample
    workdir: str
    configs: dict
    golden: dict  # variant -> sha256 of trace.csv at GOLDEN_SEED, in this environment
    stop_at: float = math.inf  # monotonic time by which every sample must answer


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Worker:
    """One sample.py server: an interpreter that runs sketchgrad commands
    on request. Its first command's set-up includes the interpreter's
    start-up, which is what ``setup_s`` measures."""

    def __init__(self, mode, parent_dir):
        self.traced = mode == "trace"
        self.workdir = tempfile.mkdtemp(dir=parent_dir)
        self.log_path = os.path.join(self.workdir, "stderr.log")
        self.served = 0
        with open(self.log_path, "w") as log:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "sample.py"), "serve", mode],
                cwd=self.workdir, env=child_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, text=True)

    def request(self, args, stop_at):
        """Run one command; return (result or None, failure or None, spawn
        time if this was the interpreter's first command else None)."""
        result_path = os.path.join(self.workdir, "result.json")
        spawned = self.spawned if self.served == 0 else None
        self.served += 1
        try:
            self.proc.stdin.write(json.dumps({"args": args, "result": result_path}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None, self.died(), spawned
        timeout = max(0.0, stop_at - time.monotonic())
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            self.close()
            return None, "no answer before the run's time ran out", spawned
        if self.proc.stdout.readline() != "done\n":
            return None, self.died(), spawned
        with open(result_path) as fh:
            return json.load(fh), None, spawned

    def died(self):
        self.close()
        with open(self.log_path) as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        return f"sample server exited {self.proc.returncode}: {tail[0]}"

    def close(self):
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def span_totals(spans):
    """Per span name: total time, self time (ns) and call count."""
    durations = [end - start for _, start, end, _ in spans]
    covered = [0] * len(spans)
    for duration, (_, _, _, parent) in zip(durations, spans):
        if parent >= 0:
            covered[parent] += duration
    total, own, calls = defaultdict(int), defaultdict(int), defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += durations[i]
        own[name] += durations[i] - covered[i]
        calls[name] += 1
    return total, own, calls


def training_layers(result, horizon):
    total, own, calls = span_totals(result["spans"])
    counts = result["counts"]

    def per_it(ns):
        return ns / 1e6 / horizon

    return {
        "sketch.sketch_ms": per_it(total["sketch.sketch_vector"]),
        "sketch.sketch_calls": calls["sketch.sketch_vector"] / horizon,
        "sketch.query_ms": per_it(total["sketch.estimate_all"]),
        "sketch.candidates_ms": per_it(own["sketch.heavy_candidates"]),
        "sketch.configs": counts.get("sketch.configs", 0),
        "compressors.aggregate_ms": per_it(own["compressors.aggregate"]),
        "compressors.sparse_updates": counts.get("compressors.sparse_updates", 0) / horizon,
        "optimizers.step_ms": per_it(own["optimizers.step"]),
        "simulation.worker_grad_ms": per_it(total["simulation.worker_grad"]),
        "simulation.eval_ms": per_it(total["simulation.eval_grad"]
                                     + total["simulation.eval_loss"]),
        "simulation.gradient_calls": (calls["simulation.worker_grad"]
                                      + calls["simulation.eval_grad"]) / horizon,
        "simulation.loss_calls": calls["simulation.eval_loss"] / horizon,
        "simulation.setup_ms": (total["simulation.build_problem"]
                                + total["simulation.partition_data"]) / 1e6,
        "simulation.self_ms": per_it(own["simulation.run"]),
        "cli.write_ms": (total["cli.write_trace"] + total["cli.write_json"]) / 1e6,
    }


def verify_layers(result, suite):
    total, _, calls = span_totals(result["spans"])
    return {
        "sketch.sketch_ms.verify": total["sketch.sketch_vector"] / 1e6,
        "sketch.sketch_calls.verify": calls["sketch.sketch_vector"],
        "sketch.configs.verify": result["counts"].get("sketch.configs", 0),
        f"verification.suite_ms.{suite}": total[f"verification.suite.{suite}"] / 1e6,
    }


def check_trace(ctx, sample, path):
    """Fill the sample's output fields; return a failure or None."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        losses = [float(r["train_loss"]) for r in rows]
        if sample.layers is not None and rows:
            for column, metric in TRACE_COLUMNS.items():
                sample.layers[metric] = statistics.fmean(float(r[column]) for r in rows)
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable trace.csv: {exc!r}"
    sample.trace_sha = hashlib.sha256(data).hexdigest()
    horizon = ctx.horizons[sample.job]
    if len(rows) != horizon:
        return f"trace has {len(rows)} rows, want {horizon}"
    if not all(math.isfinite(x) for x in losses):
        return "non-finite train_loss in trace"
    sample.final_loss = losses[-1]
    want = ctx.golden.get(sample.job) if sample.seed == GOLDEN_SEED else None
    if want is not None and sample.trace_sha != want:
        return f"trace sha256 {sample.trace_sha[:12]} != golden {want[:12]}"
    return None


def command_start(result, spawned):
    """When a command began as its user would time it: the spawn for an
    interpreter's first command, less the calibration it ran first, and
    otherwise the call into sketchgrad.cli.main."""
    if spawned is None:
        return result["marks"]["start"]
    return spawned + result["calib_before_ms"] / 1e3


def training_sample(ctx, worker, variant, seed):
    sample = Sample(variant, worker.traced, seed)
    out = os.path.join(worker.workdir, "out")
    args = ["run", ctx.configs[variant], "-o", out, "--seed", str(seed)]
    result, sample.failure, spawned = worker.request(args, ctx.stop_at)
    if sample.failure is None and result["rc"] != 0:
        sample.failure = f"sketchgrad run exited {result['rc']}"
    if sample.failure is not None:
        return sample
    marks = result["marks"]
    if "first_iter" not in marks or "loop_end" not in marks:
        raise BenchError("the timing hooks did not fire: sketchgrad.simulation no longer "
                         "calls build_problem and write_trace by those names")
    if spawned is not None:
        sample.setup_s = marks["first_iter"] - command_start(result, spawned)
    sample.loop_s = marks["loop_end"] - marks["first_iter"]
    sample.rss_mb = result["maxrss_kb"] / 1024
    sample.calib_ms = result["calib_ms"]
    if worker.traced:
        sample.layers = training_layers(result, ctx.horizons[variant])
    sample.failure = check_trace(ctx, sample, os.path.join(out, "trace.csv"))
    return sample


def verify_sample(ctx, worker, suite):
    """One suite of `sketchgrad verify`, at its default seed. The checks are
    statistical tests at fixed levels, so some seeds fail one by design
    (`verify all --seed 54` fails bucket_uniformity_chi2); the default
    seed passes, and the work done does not depend on the seed."""
    sample = Sample("verify", worker.traced, VERIFY_SEED)
    result, sample.failure, spawned = worker.request(["verify", suite], ctx.stop_at)
    if result is None:
        return sample
    marks = result["marks"]
    if "first_iter" not in marks:
        sample.failure = f"verify {suite} exited {result['rc']} before running"
        return sample
    start = command_start(result, spawned)
    if spawned is not None:
        sample.setup_s = marks["first_iter"] - start
    sample.wall_s = marks["end"] - start
    sample.rss_mb = result["maxrss_kb"] / 1024
    sample.calib_ms = result["calib_ms"]
    if worker.traced:
        sample.layers = verify_layers(result, suite)
    lines = result["stdout"].strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if result["rc"] != 0 or failed:
        sample.failure = f"verify {suite} exited {result['rc']}: {(failed or [''])[0]}"
    elif not re.fullmatch(r"(\d+)/\1 checks passed", lines[-1]):
        sample.failure = f"verify {suite} ended with {lines[-1]!r}"
    return sample


def round_seed(seed, rnd):
    """Round 0 runs at --seed; later rounds at seeds derived from it. A new
    seed is a new sketch config, so a reused interpreter cannot reuse the
    hash tables of an earlier command and pays their build as a fresh
    `sketchgrad run` does."""
    if rnd == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{rnd}".encode()).digest()[:7], "big")


def measure(ctx, seconds, traced):
    """`verify all` once, as one command per suite in a fresh interpreter,
    so each part is scaled by the calibration around it. Then rounds over
    the five variants until another round would pass the deadline. Each
    variant (and, when tracing, its traced twin) keeps one interpreter for
    the run, so the rounds interleave the variants in time. The variant
    order rotates by round so no variant always runs first."""
    deadline = time.monotonic() + seconds
    ctx.stop_at = deadline + GRACE_S
    verifier = Worker("trace" if traced else "plain", ctx.workdir)
    try:
        samples = [verify_sample(ctx, verifier, suite) for suite in SUITES]
    finally:
        verifier.close()
    modes = ("plain", "trace") if traced else ("plain",)
    workers = {}
    try:
        durations = []  # of each round, less the interpreter start-ups in it
        while not durations or time.monotonic() + max(durations) <= deadline:
            began = time.monotonic()
            first = len(samples)
            rnd = len(durations)
            seed = round_seed(ctx.seed, rnd)
            shift = (ctx.seed + rnd) % len(VARIANTS)
            for variant in VARIANTS[shift:] + VARIANTS[:shift]:
                for mode in modes:
                    worker = workers.get((variant, mode))
                    if worker is None or worker.proc.returncode is not None:
                        worker = workers[(variant, mode)] = Worker(mode, ctx.workdir)
                    samples.append(training_sample(ctx, worker, variant, seed))
            startups = sum(s.setup_s or 0.0 for s in samples[first:])
            durations.append(time.monotonic() - began - startups)
    finally:
        for worker in workers.values():
            worker.close()
    return samples


def check_determinism(samples):
    """Samples of one variant at one seed, traced or not, must write the
    same trace.csv."""
    first = {}
    for s in samples:
        if s.failure is None and s.trace_sha is not None:
            want = first.setdefault((s.job, s.seed), s.trace_sha)
            if s.trace_sha != want:
                s.failure = f"trace sha256 {s.trace_sha[:12]} differs from an earlier sample"


def median_of(values, what):
    if not values:
        raise BenchError(f"no sample of {what} ran to the end")
    return statistics.median(values)


def end_to_end(ctx, samples, traced, scaled=True):
    """The end-to-end metrics from the untraced samples, at the reference
    speed unless scaled=False. A traced run times `verify all`
    only traced, so it has no verify_s."""
    # a sample whose output is wrong still timed its work; it counts in
    # `failed`, not here
    ok = [s for s in samples if s.rss_mb is not None and not s.traced]
    train = [s for s in ok if s.job != "verify"]

    def times(attr, subset):
        return [getattr(s, attr) * (CALIB_REF_MS / s.calib_ms if scaled else 1.0)
                for s in subset if getattr(s, attr) is not None]

    values = {}
    for v in VARIANTS:
        loops = times("loop_s", [s for s in train if s.job == v])
        values[f"iter_ms.{v}"] = median_of(loops, v) / ctx.horizons[v] * 1e3
    values["setup_s"] = median_of(times("setup_s", train), "training start-up")
    if not traced:
        parts = times("wall_s", [s for s in ok if s.job == "verify"])
        if len(parts) != len(SUITES):
            raise BenchError("not every verify suite ran to the end")
        values["verify_s"] = sum(parts)
    # what one `sketchgrad run` peaks at: the interpreter's first command
    values["peak_rss_mb"] = max(s.rss_mb for s in train if s.setup_s is not None)
    return values


def per_layer(samples):
    ok = [s for s in samples if s.rss_mb is not None]
    traced = [s for s in ok if s.traced]
    values = {}
    for name, _, _, jobs in TRAINING_LAYERS:
        for job in jobs:
            got = [s.layers[name] for s in traced if s.job == job and name in s.layers]
            values[f"{name}.{job}"] = median_of(got, f"traced {job}")
    for name, _, _ in VERIFY_LAYERS:
        parts = [s.layers[name] for s in traced if s.job == "verify" and name in s.layers]
        if not parts:
            raise BenchError(f"no traced verify suite gave {name}")
        values[name] = sum(parts)
    plain_loop = traced_loop = 0.0
    for v in VARIANTS:
        plain_loop += median_of([s.loop_s for s in ok if s.job == v and not s.traced], v)
        traced_loop += median_of([s.loop_s for s in traced if s.job == v], f"traced {v}")
    values[OVERHEAD[0]] = 100.0 * (traced_loop / plain_loop - 1.0)
    return values


def source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "sketchgrad"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine():
    info = {"cores": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/meminfo") as fh:
            kb = int(re.search(r"MemTotal:\s+(\d+)", fh.read()).group(1))
        info["ram_gb"] = round(kb / 1024**2, 1)
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = re.search(r"model name\s*:\s*(.*)", fh.read()).group(1).strip()
    except (OSError, AttributeError):
        pass
    return info


def probe(workdir):
    """Import the package once in a child (this compiles its bytecode) and
    record the numeric environment the golden hashes are keyed to."""
    path = os.path.join(workdir, "env.json")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "sample.py"), "probe", path],
                          cwd=workdir, env=child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise BenchError(f"cannot import sketchgrad from {SRC}: {tail[0]}")
    with open(path) as fh:
        env = json.load(fh)
    if os.path.commonpath([env["package"], SRC]) != SRC:
        raise BenchError(f"imported sketchgrad from {env['package']}, not from {SRC}")
    env.update(machine(), blas_threads=BLAS_THREADS, commit=git_commit(),
               source=source_digest())
    return env


def golden_key(env):
    return f"blas_threads={env['blas_threads']}; numpy {env['numpy']}; {env['blas']}"


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def make_context(workload, seed, workdir, golden):
    spec = WORKLOADS[workload]
    cfgdir = os.path.join(workdir, f"configs-{workload}")
    os.makedirs(cfgdir)
    configs = {}
    for v in VARIANTS:
        configs[v] = os.path.join(cfgdir, f"{v}.json")
        with open(configs[v], "w") as fh:
            json.dump({**spec["config"], "variant": v, "horizon": spec["horizons"][v]}, fh)
    return Context(workload, seed, spec["horizons"], workdir, configs, golden)


def print_metrics(title, values, units):
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")


def report(ctx, env, samples, traced):
    """Print every metric by name and unit; return the result object."""
    check_determinism(samples)
    failed = [s for s in samples if s.failure is not None]
    for s in failed:
        print(f"perfbench: FAILED {s.job}{' (traced)' if traced and s.traced else ''}: "
              f"{s.failure}", file=sys.stderr)
    e2e = end_to_end(ctx, samples, traced)
    units = {name: unit for name, unit, _, _ in END_TO_END}
    printed_only = {}
    for v in SKETCHED:
        finals = [s.final_loss for s in samples if s.job == v and s.final_loss is not None]
        if finals:
            printed_only[f"final_loss.{v}"] = finals[0]
            units[f"final_loss.{v}"] = "loss"
    printed_only["failed_share"] = len(failed) / len(samples)
    units["failed_share"] = "ratio"
    counts = {job: sum(s.job == job and not s.traced for s in samples)
              for job in VARIANTS + ("verify",)}
    golden = sum(s.seed == GOLDEN_SEED and s.job in ctx.golden for s in samples)

    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    print(f"workload {ctx.workload}, seed {ctx.seed}, iterations {ctx.horizons}, "
          f"untraced samples per job {counts}, samples checked against golden "
          f"hashes {golden}")
    print_metrics(f"end to end (untraced, times at the reference speed, "
                  f"calibrate() = {CALIB_REF_MS} ms):", {**e2e, **printed_only}, units)
    raw = end_to_end(ctx, samples, traced, scaled=False)
    print_metrics("measured times before scaling:",
                  {k: v for k, v in raw.items() if k != "peak_rss_mb"}, units)
    reported = e2e
    if traced:
        reported = per_layer(samples)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        print_metrics("per layer (traced):", reported, units)
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }


def record_golden(env, workdir):
    """Run every (workload, variant) once at GOLDEN_SEED and store the
    sha256 of each trace.csv under this environment's key."""
    golden = load_golden()
    entry = {}
    worker = Worker("plain", workdir)
    try:
        for workload in WORKLOADS:
            ctx = make_context(workload, GOLDEN_SEED, workdir, {})
            ctx.stop_at = time.monotonic() + GRACE_S
            entry[workload] = {}
            for v in VARIANTS:
                s = training_sample(ctx, worker, v, GOLDEN_SEED)
                if s.failure is not None:
                    raise BenchError(f"{workload} {v}: {s.failure}")
                entry[workload][v] = s.trace_sha
                print(f"{workload} {v} {s.trace_sha}")
    finally:
        worker.close()
    golden[golden_key(env)] = entry
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} for {golden_key(env)!r}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store trace.csv hashes at the golden seed for this environment")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sketchgrad", "cli.py")):
        print(f"perfbench: no sketchgrad source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        env = probe(workdir)
        if args.record_golden:
            record_golden(env, workdir)
            return 0
        golden = load_golden().get(golden_key(env), {}).get(args.workload, {})
        ctx = make_context(args.workload, args.seed, workdir, golden)
        samples = measure(ctx, args.seconds, bool(args.trace))
        result = report(ctx, env, samples, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
