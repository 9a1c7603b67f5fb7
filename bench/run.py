"""Benchmark of the ckspec command line: analyze, self-check, certify and
long-period models.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client calls ``ckspec.cli.main`` in
this process, one operation at a time (a closed loop), on model files
generated from the seed during set-up.  A run executes a fixed list of
operations, sized from --seconds by the workload's nominal rate on the
reference host, never "as many as fit".  Every output is checked against
facts the generator computed without ckspec.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics -- the end-to-end ones with --trace 0, the per-layer
ones with --trace 1.  --trace 1 runs the batch untraced, then again with
spans around each layer's entry points (see spans.py).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks
import gen
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# operations per second of measured run on the reference host (2 cores,
# Python 3.11); a run executes round(seconds * rate) operations, at least
# MIN_OPS so the tail percentile has ten operations beyond it
NOMINAL_RATE = {"analyze": 5.5, "selfcheck": 2.4, "certify": 6.8, "longperiod": 3.8}
MIN_OPS = 40
SETUP_REPEATS = 7
REF_REPEATS = 5

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}


def ref_loop() -> float:
    """A fixed pure-Python Fraction loop that never touches ckspec: it
    moves only when the machine does."""
    t = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 4000):
        acc += Fraction(k % 7 + 1, k) * Fraction(3, k + 2)
    return time.perf_counter() - t


def n_ops(workload: str, seconds: int) -> int:
    n = max(MIN_OPS, round(seconds * NOMINAL_RATE[workload]))
    if workload == "certify":  # whole rounds of certify draws
        r = len(gen.CERTIFY_ROUND)
        n = -(-n // r) * r
    return n


def measure_setup(workload: str, seed: int, n: int) -> tuple[list, list]:
    """Wall time of fresh interpreters that import ckspec, write the model
    files and read them back; and the import time each reported."""
    walls, imports = [], []
    directory = os.path.join(OUT, "setup", f"{workload}-s{seed}")
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed), str(n), directory],
            capture_output=True, text=True, timeout=120, check=False)
        walls.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    shutil.rmtree(directory)
    return walls, imports


def call(main, argv) -> tuple[object, float, str, str]:
    """One CLI call with its output captured: (exit code, seconds, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback is a failed operation, not a crash
            code = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
    return code, dt, out.getvalue(), err.getvalue()


def run_batch(main, ops, paths) -> tuple[list, list, bool]:
    """Run every op once; return the op times, the failures, and whether
    every completed op's output was correct."""
    times, failures, correct = [], [], True
    for op, path in zip(ops, paths):
        code, dt, out, err = call(main, op.argv(path))
        times.append(dt)
        problems = checks.check(op, code, out, err)
        if problems:
            failures.append({"model": op.model, "problems": problems})
            if code == 0:
                correct = False
    return times, failures, correct


def tail(times: list) -> float:
    """The highest percentile with at least ten operations beyond it."""
    return sorted(times)[len(times) - 11]


def per_layer(tracer, import_s: float, overhead_s: float, ref_s: float) -> dict:
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    pow_busy = sum(get(f"exact.pow_equals.{k}", "busy_s")
                   for k in ("qpoint", "circle", "root"))
    values = {
        "ckspec.import_s": (import_s, "s"),
        "model.gm.calls": (get("model.gm", "calls"), "count"),
        "model.gm.busy_s": (get("model.gm", "busy_s"), "s"),
        "exact.radius_new.calls": (get("exact.radius_new", "calls"), "count"),
        "exact.radius_cmp.calls": (get("exact.radius_cmp", "calls"), "count"),
        "exact.radius_cmp.busy_s": (get("exact.radius_cmp", "busy_s"), "s"),
        "exact.radius_cmp.max_bits": (tracer.max_bits, "bits"),
        "exact.pow_equals.qpoint.calls": (get("exact.pow_equals.qpoint", "calls"), "count"),
        "exact.pow_equals.circle.calls": (get("exact.pow_equals.circle", "calls"), "count"),
        "exact.pow_equals.root.calls": (get("exact.pow_equals.root", "calls"), "count"),
        "exact.pow_equals.busy_s": (pow_busy, "s"),
        "exact.rational_between.calls": (get("exact.rational_between", "calls"), "count"),
        "exact.rational_between.busy_s": (get("exact.rational_between", "busy_s"), "s"),
        "radialset.canonicalize.calls": (get("radialset.canonicalize", "calls"), "count"),
        "radialset.canonicalize.busy_s": (get("radialset.canonicalize", "busy_s"), "s"),
        "radialset.browder.busy_s": (get("radialset.browder", "busy_s"), "s"),
        "radialset.root_intersection.calls": (get("radialset.root_intersection", "calls"), "count"),
        "radialset.root_intersection.nonempty": (tracer.nonempty, "count"),
        "radialset.root_intersection.busy_s": (get("radialset.root_intersection", "busy_s"), "s"),
        "spectra.essential.busy_s": (get("spectra.essential", "busy_s"), "s"),
        "spectra.fredholm.calls": (get("spectra.fredholm", "calls"), "count"),
        "spectra.fredholm.busy_s": (get("spectra.fredholm", "busy_s"), "s"),
        "spectra.grid_points": (tracer.grid_points, "count"),
        "oracle.kernel.calls": (get("oracle.kernel", "calls"), "count"),
        "oracle.kernel.busy_s": (get("oracle.kernel", "busy_s"), "s"),
        "oracle.defect.calls": (get("oracle.defect", "calls"), "count"),
        "oracle.defect.busy_s": (get("oracle.defect", "busy_s"), "s"),
        "oracle.in_cert.busy_s": (get("oracle.in_cert", "busy_s"), "s"),
        "oracle.out_cert.busy_s": (get("oracle.out_cert", "busy_s"), "s"),
        "oracle.out_cert.n": (tracer.out_cert_n, "count"),
        "cli.report.busy_s": (get("cli.report", "busy_s"), "s"),
        "bench.trace_overhead_s": (overhead_s, "s"),
        "bench.ref_s": (ref_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    ref = [ref_loop() for _ in range(REF_REPEATS)]
    try:
        import ckspec
        from ckspec.cli import main as ckspec_main
    except ImportError as e:
        print(f"cannot import ckspec from {src}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(ckspec.__file__).startswith(src + os.sep):
        print(f"ckspec came from {ckspec.__file__}, not from {src}", file=sys.stderr)
        return 2
    n = n_ops(args.workload, args.seconds)
    setup_walls, import_times = measure_setup(args.workload, args.seed, n)
    ops = gen.build(args.workload, args.seed, n)
    models = os.path.join(OUT, "models", f"{args.workload}-s{args.seed}")
    paths = gen.write_models(ops, models)

    call(ckspec_main, ops[0].argv(paths[0]))  # warm-up, not counted
    times, failures, correct = run_batch(ckspec_main, ops, paths)
    attempted = len(ops)
    done = attempted - len(failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, more, ok = run_batch(tracer.op(ckspec_main), ops, paths)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        failures += more
        correct = correct and ok
    ref += [ref_loop() for _ in range(REF_REPEATS)]
    ref_s = statistics.median(ref)

    e2e = {"setup_s": statistics.median(setup_walls),
           "ops_per_s": done / sum(times),
           "op_p50_s": statistics.median(times),
           "op_tail_s": tail(times),
           "peak_rss_mb": peak_rss_mb}
    if args.trace:
        metrics = per_layer(tracer, statistics.median(import_times),
                            sum(traced) - sum(times), ref_s)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(OUT, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": len(ops),
                   "end_to_end": e2e, "ref_start_s": statistics.median(ref[:REF_REPEATS]),
                   "ref_end_s": statistics.median(ref[REF_REPEATS:]),
                   "setup_walls_s": setup_walls, "import_s": import_times,
                   "op_times_s": times, "failures": failures}, fh, indent=1)
    if args.trace:  # the latest traced run of each workload
        tracer.dump(os.path.join(OUT, "results", args.workload + ".spans"))
    if not failures:  # keep the model files only to reproduce a failure
        shutil.rmtree(models)
    for f in failures[:5]:
        print(f"FAILED {f['model']}: {'; '.join(f['problems'])}", file=sys.stderr)
    print(f"{stem}: {len(ops)} ops, ref {ref_s:.4f} s, "
          + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
