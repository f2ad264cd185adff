"""Serve sketchgrad commands in one interpreter and record their phases.

Usage (from run.py, with PYTHONPATH pointing at the package source):

    python3 sample.py serve plain|trace
    python3 sample.py probe RESULT_JSON

``serve`` reads one request per line from stdin, a JSON object
``{"args": [...], "result": path}``. It calls
``sketchgrad.cli.main(args)``, writes the result to ``path`` and then
answers ``done`` on stdout. In ``plain`` mode three one-shot hooks per
command only take timestamps: the first ``Problem.gradient`` call (the
first iteration starts), the ``write_trace`` call (the last iteration
ended) and the ``run_suites`` call (``verify`` finished parsing). It
times ``calibrate()`` just before and just after each command. ``trace``
also wraps the public
functions of each layer where their callers look them up, keeps (name,
start, end, parent) spans in memory and writes them with the result.
``probe`` imports the package and records the numeric environment.

A result holds the monotonic timestamps, the exit code, the captured
standard output, the peak resident set size, the calibration times and,
when tracing, the spans and call counts. Timestamps use
``time.monotonic``, which is CLOCK_MONOTONIC on Linux and so comparable
with the parent's clock.
"""

import contextlib
import io
import json
import resource
import sys
import time


class Tracer:
    """Spans of wrapped calls, nested by a call stack (one thread)."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = {}
        self.stack = []
        self.after_step = False

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        for name in self.counts:
            self.counts[name] = 0
        self.after_step = False

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def step(self, fn):
        """A step span; the next gradient call is the full-batch evaluation."""
        inner = self.timed("optimizers.step", fn)

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                self.after_step = True

        return wrapper

    def wrap_problem(self, problem):
        grad = problem.gradient
        worker = self.timed("simulation.worker_grad", grad)
        evaluate = self.timed("simulation.eval_grad", grad)

        def gradient(*args, **kwargs):
            if self.after_step:
                self.after_step = False
                return evaluate(*args, **kwargs)
            return worker(*args, **kwargs)

        problem.gradient = gradient
        problem.loss = self.timed("simulation.eval_loss", problem.loss)


def install_tracer(tracer):
    import sketchgrad.cli as cli
    import sketchgrad.compressors as compressors
    import sketchgrad.optimizers as optimizers
    import sketchgrad.simulation as simulation
    import sketchgrad.sketch as sketch
    import sketchgrad.verification as verification

    def patch(owner, attr, make):
        if hasattr(owner, attr):
            setattr(owner, attr, make(getattr(owner, attr)))
        else:
            print(f"perfbench: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)

    timed, counted = tracer.timed, tracer.counted
    patch(cli, "run", lambda f: timed("simulation.run", f))
    patch(cli, "_write_json", lambda f: timed("cli.write_json", f))
    patch(simulation, "partition_data", lambda f: timed("simulation.partition_data", f))
    patch(simulation, "write_trace", lambda f: timed("cli.write_trace", f))
    for name in ("pa_step", "ga_step", "sketched_sgd_step", "dense_amsgrad_step", "dense_sgd_step"):
        patch(simulation, name, tracer.step)
    for name in ("sketched_topk_aggregate", "sketched_topk_aggregate_scaled"):
        patch(optimizers, name, lambda f: timed("compressors.aggregate", f))
    for owner in (compressors, verification):
        patch(owner, "sketch_vector", lambda f: timed("sketch.sketch_vector", f))
    patch(sketch.CountSketch, "estimate_all", lambda f: timed("sketch.estimate_all", f))
    patch(sketch.CountSketch, "heavy_candidates", lambda f: timed("sketch.heavy_candidates", f))
    patch(sketch.SketchConfig, "__post_init__", lambda f: counted("sketch.configs", f))
    patch(compressors.SparseUpdate, "__post_init__", lambda f: counted("compressors.sparse_updates", f))
    for suite in list(verification.SUITES):
        verification.SUITES[suite] = timed(f"verification.suite.{suite}", verification.SUITES[suite])


def install_marks(marks, tracer):
    import sketchgrad.cli as cli
    import sketchgrad.simulation as simulation

    build_problem = simulation.build_problem

    def build_problem_marked(*args, **kwargs):
        problem = build_problem(*args, **kwargs)
        if tracer is not None:
            tracer.wrap_problem(problem)
        gradient = problem.gradient

        def first_gradient(*a, **k):
            marks.setdefault("first_iter", time.monotonic())
            problem.gradient = gradient
            return gradient(*a, **k)

        problem.gradient = first_gradient
        return problem

    if tracer is not None:
        simulation.build_problem = tracer.timed("simulation.build_problem", build_problem_marked)
    else:
        simulation.build_problem = build_problem_marked

    write_trace = simulation.write_trace

    def write_trace_marked(*args, **kwargs):
        marks.setdefault("loop_end", time.monotonic())
        return write_trace(*args, **kwargs)

    simulation.write_trace = write_trace_marked

    run_suites = cli.run_suites

    def run_suites_marked(*args, **kwargs):
        marks.setdefault("first_iter", time.monotonic())
        return run_suites(*args, **kwargs)

    cli.run_suites = run_suites_marked


def calibrate():
    """Milliseconds for a fixed mix of interpreter work, small numpy calls
    and passes over 60k-element arrays, the kinds of work the workloads
    do; the fastest of three tries, so a burst of noise does not count.
    run.py scales each sample's times by it, which takes the machine's
    drifting speed out of the comparison between runs."""
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal(60000)
    buckets = np.arange(60000) % 400
    acc = 0.0
    fastest = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for i in range(500):
            window = big[i:i + 64]
            acc += float(np.dot(window, window))
            acc += {"i": i}["i"]
        table = np.zeros(400)
        np.add.at(table, buckets, big)
        order = np.lexsort((np.arange(60000), -np.abs(big)))
        acc += table[0] + order[0]
        fastest = min(fastest, time.perf_counter() - start)
    return fastest * 1e3


def probe():
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    import sketchgrad
    import sketchgrad.cli  # noqa: F401  (compiles and caches the package bytecode)

    blas = "unknown"
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                blas = fn().decode().strip()
                break
        if blas != "unknown":
            break
    return {
        "package": os.path.abspath(sketchgrad.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def serve(mode):
    tracer = Tracer() if mode == "trace" else None
    marks = {}
    import sketchgrad.cli as cli  # setup_s covers this import

    if tracer is not None:
        install_tracer(tracer)
    install_marks(marks, tracer)
    for line in sys.stdin:
        request = json.loads(line)
        marks.clear()
        if tracer is not None:
            tracer.reset()
        before = calibrate()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            marks["start"] = time.monotonic()
            try:
                rc = cli.main(request["args"])
            except SystemExit as exc:
                rc = exc.code
        marks["end"] = time.monotonic()
        result = {
            "rc": rc,
            "marks": marks,
            "stdout": captured.getvalue(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calib_ms": (before + calibrate()) / 2,
            "calib_before_ms": before,
        }
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
        with open(request["result"], "w") as fh:
            json.dump(result, fh)
        print("done", flush=True)


def main():
    if sys.argv[1] == "probe":
        with open(sys.argv[2], "w") as fh:
            json.dump(probe(), fh)
    else:
        serve(sys.argv[2])


if __name__ == "__main__":
    main()
