"""Benchmark of the mtsfm_cpm pipeline: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload optimize-mseq63 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload, one table

The package is imported from ``src/`` next to this directory, never from an
installed copy. BLAS runs on one thread, matching the one caller thread of
the closed loop. The run sets up its workload, then runs operations back to
back for ``--seconds`` (and at least the workload's minimum count), checks
every output, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics (see BENCHMARK.json);
- ``--trace 1``: the per-layer metrics. Operations alternate between
  untraced and traced, the difference of their medians is the tracing
  overhead, and the spans go to ``.bench_out/spans-<workload>-seed<n>.json``.

The machine this runs on is shared, and its speed drifts by tens of percent
from minute to minute. End-to-end times are therefore reported at a fixed
reference speed: each measured time is divided by the time of a fixed numpy
calibration kernel run right after it in the same process, and multiplied by
that kernel's time on the reference machine. Lines before the last one also
give the wall-clock times, under the names used in perfbench/NOTES.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("optimize-mseq63", "analyze-sweep", "reproduce-mseq63")
SETUP_PROBES = 4  # extra fresh processes that repeat the set-up for setup_s
CALIBRATION_REPEATS = 2
# calibrate() takes about this long on the reference machine (see NOTES.md).
# End-to-end times are reported at that machine speed: seconds measured,
# times CALIBRATION_REF_S over calibrate()'s time in the same run.
CALIBRATION_REF_S = 0.040


def import_package():
    """Import mtsfm_cpm from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mtsfm_cpm
        import mtsfm_cpm.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import mtsfm_cpm from {ROOT / 'src'}: {exc}")
    if (ROOT / "src") not in Path(mtsfm_cpm.__file__).resolve().parents:
        sys.exit(f"error: mtsfm_cpm was imported from {mtsfm_cpm.__file__}, "
                 f"not from {ROOT / 'src'}")
    return mtsfm_cpm


def make_workload(m, name, seed):
    import workloads
    if name == "optimize-mseq63":
        return workloads.OptimizeMseq63(m, seed)
    if name == "analyze-sweep":
        return workloads.AnalyzeSweep(m, seed)
    return workloads.ReproduceMseq63(m, OUT / "reproduce")


def setup(name, seed):
    """Import the package and build the workload; seconds since process start."""
    m = import_package()
    wl = make_workload(m, name, seed)
    return m, wl, time.perf_counter() - _T0


def probe_setups(name, seed):
    """(set-up, calibration) seconds of SETUP_PROBES fresh processes, each
    waited for."""
    pairs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        pairs.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return pairs


def calibrate():
    """Best of CALIBRATION_REPEATS timings of a fixed numpy kernel that does
    not use the package.

    The kernel mixes what the workloads spend their time on: FFT
    correlation, a freshly allocated sine basis with a matrix-vector product,
    and a pure-Python loop. Timing it right after each operation tracks how
    fast the shared machine runs at that moment.
    """
    best = math.inf
    for _repeat in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        x = np.exp(1j * np.linspace(0.0, 50.0, 4096))
        for _ in range(20):
            np.fft.ifft(np.abs(np.fft.fft(x, 16384)) ** 2)
        for _ in range(8):  # small arrays, so peak RSS stays the workload's own
            basis = np.sin(np.outer(np.linspace(0.0, 1.0, 2048), np.arange(1.0, 65.0)))
            basis @ x[:64].real
        s = 0.0
        for i in range(20000):
            s += i * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def run_loop(wl, seconds, tracer=None):
    """Closed loop; returns (ops, failures, attempted).

    ``ops`` has one (traced, seconds, calibration seconds, optimizer counts)
    tuple per correct operation: every operation is followed by calibrate().
    With a tracer, even-numbered operations run untraced and odd-numbered
    ones traced, their spans labelled with the operation's index, and their
    optimizer counts kept. Outputs are dropped once checked, so peak RSS
    does not grow with the number of operations.
    """
    ops, failures = {}, []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < wl.min_ops or (
            tracer is not None and i < 2):
        traced = tracer is not None and i % 2 == 1
        out = None  # release the previous output before the next operation
        try:
            if traced:
                tracer.op = i
                tracer.install()
            try:
                dt, out = wl.run_op(i)
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.op = None
            errors = wl.check(i, out)
        except Exception as exc:  # one failed operation must not stop the run
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            failures.append((i, errors))
        else:
            calib = calibrate()
            ops[i] = (traced, dt, calib, wl.optimizer_counts(out) if traced else None)
        i += 1
    return ops, failures, i


def at_reference_speed(seconds, calib):
    return seconds * CALIBRATION_REF_S / calib


def time_start_point(m, wl, tracer):
    """Public objective() and gradient() at the start point, at reference speed.

    Calls run in short batches, each followed by the calibration kernel; the
    result is the median over batches of the mean span per call.
    """
    sp = wl.start_point()
    if sp is None:
        return {"optimizer.objective_s": 0.0, "optimizer.gradient_s": 0.0}
    params, cfg = sp
    out = {}
    for name, batches, calls in (("optimizer.objective", 10, 10),
                                 ("optimizer.gradient", 5, 1)):
        per_call = []
        for b in range(batches):
            tracer.op = f"{name}#{b}"
            tracer.install()
            try:
                fn = getattr(m, name.split(".")[1])  # the wrapper, once installed
                for _ in range(calls):
                    fn(params, cfg)
            finally:
                tracer.uninstall()
            calib = calibrate()
            spans = [tracer.spans[i] for i in tracer.op_spans(tracer.op)]
            per_call.append(at_reference_speed(
                sum(s[2] - s[1] for s in spans if s[0] == name) / calls, calib))
        tracer.op = None
        out[f"{name}_s"] = statistics.median(per_call)
    return out


def per_layer(m, wl, tracer, ops):
    """Per-layer metrics of a traced run; times at reference speed."""
    import spans
    traced = {i: op for i, op in ops.items() if op[0]}
    rows = []
    for i, (_, _, calib, _) in sorted(traced.items()):
        row = spans.op_layer_metrics(tracer, i)
        rows.append({k: at_reference_speed(v, calib) if k.endswith("_s") else v
                     for k, v in row.items()})
    metrics = spans.median_per_op(rows)
    metrics.update(time_start_point(m, wl, tracer))
    counts = [c for _, _, _, c in traced.values()]
    if counts[0] is None:
        counts = {"optimizer.evaluations": 0, "optimizer.iterations": 0,
                  "optimizer.evals_per_iteration": 0.0, "optimizer.linesearch_trials": 0,
                  "optimizer.accept_ratio": 0.0, "optimizer.iteration_s": 0.0}
    else:
        counts = spans.median_per_op(counts)
        counts["optimizer.iteration_s"] = (metrics["optimizer.optimize_s"]
                                           / counts["optimizer.iterations"])
    metrics.update(counts)
    files = wl.output_files() if hasattr(wl, "output_files") else []
    metrics["cli.files_written"] = len(files)
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    op_s = {flag: statistics.median(at_reference_speed(dt, c)
                                    for t, dt, c, _ in ops.values() if t == flag)
            for flag in (False, True)}
    metrics["tracing.overhead_s"] = op_s[True] - op_s[False]
    metrics["tracing.overhead_share"] = (op_s[True] - op_s[False]) / op_s[False]
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))

    m, wl, setup_s = setup(args.workload, args.seed)
    setup_pair = (setup_s, calibrate())
    if args.setup_probe:
        print(json.dumps(setup_pair))
        return 0
    if hasattr(wl, "clear_output"):
        wl.clear_output()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(m)
    ops, failures, attempted = run_loop(wl, args.seconds, tracer)
    for i, errors in failures:
        for e in errors:
            print(f"op {i}: {e}", file=sys.stderr)
    if not ops:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 0

    if args.trace:
        metrics = per_layer(m, wl, tracer, ops)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_records()))
        units = {}
        for k in metrics:
            units[k] = ("s" if k.endswith("_s") else "B" if k.endswith("bytes_written")
                        else "ratio" if k.endswith(("_share", "_ratio", "per_iteration"))
                        else "count")
    else:
        setups = [setup_pair] + probe_setups(args.workload, args.seed)
        wall = {"setup_s": statistics.median(s for s, _ in setups),
                "op_s": statistics.median(dt for _, dt, _, _ in ops.values()),
                "calibrate_s": statistics.median(c for _, _, c, _ in ops.values())}
        metrics = {"setup_s": statistics.median(at_reference_speed(s, c) for s, c in setups),
                   "op_s": statistics.median(at_reference_speed(dt, c)
                                             for _, dt, c, _ in ops.values()),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   **wl.quality()}
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "psl_db_down": "dB",
                 "gisr_db_down": "dB", "sc_fraction": "ratio"}
        print_named(wl, metrics, wall, len(ops), len(failures), attempted)

    if hasattr(wl, "clear_output"):
        wl.clear_output()
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


# Names of the per-operation time on each workload, as NOTES.md uses them.
OP_NAME = {"optimize-mseq63": "optimize_s", "analyze-sweep": "analyze_pass_s",
           "reproduce-mseq63": "reproduce_s"}


def print_named(wl, metrics, wall, n_ops, failed, attempted):
    op = OP_NAME[wl.name]
    rows = [("setup_s", metrics["setup_s"], "s at reference speed (median of "
             f"{SETUP_PROBES + 1} processes)"),
            (op, metrics["op_s"], f"s at reference speed (median of {n_ops})")]
    if hasattr(wl, "waveforms"):
        rows.append(("waveforms_per_s", wl.waveforms / metrics["op_s"],
                     "1/s at reference speed"))
    rows += [("setup_wall_s", wall["setup_s"], "s"),
             (op.replace("_s", "_wall_s"), wall["op_s"], "s"),
             ("calibrate_s", wall["calibrate_s"], f"s (reference {CALIBRATION_REF_S})"),
             ("final_psl_db", -metrics["psl_db_down"], "dB"),
             ("final_gisr_db", -metrics["gisr_db_down"], "dB"),
             ("final_sc", metrics["sc_fraction"], "ratio"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
             ("error_rate", failed / attempted, f"ratio ({failed}/{attempted})")]
    for name, value, unit in rows:
        print(f"{wl.name:<17} {name:<19} {value:>12.6g} {unit}")


def run_all(args):
    """Each workload in its own process (so peak RSS is its own), one table."""
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not args.trace:
            print("\n".join(lines[:-1]))
        else:
            for k, v in result["metrics"].items():
                print(f"{name:<17} {k:<30} {v['value']:>12.6g} {v['unit']}")
        print(f"{name:<17} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
