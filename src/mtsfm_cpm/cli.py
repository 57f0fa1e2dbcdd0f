"""Command-line front end.

Subcommands: gen-code, fit, metrics, optimize, reproduce. All outputs are
deterministic for fixed inputs and flags, JSON outputs embed the input
configuration, and a command's files appear together, only if it succeeds
(each is staged beside its target; the set is renamed into place at the end).

File formats
------------
phase code   text, one radian value per line, '#' comments ignored
params       JSON {"T", "a0", "alpha", "beta"}
metrics      JSON with unit-suffixed keys (or one-row CSV with --format csv)
spectrum     CSV ``f_hz,psd``
acf          CSV ``tau_s,abs_r,arg_r``
phase        CSV ``t_s,phase_rad``: the grid phase the waveform was synthesized from
trace        CSV ``iter,objective_db,beta2_rel,step_size,grad_norm,accepted``
waveform     CSV ``t,re,im`` or raw interleaved little-endian float64 (re, im)
"""

import argparse
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .codes import (barker_code, dump_phase_code, generate_msequence,
                    load_phase_code)
from ._validation import check_int_at_least, check_positive
from .metrics import _metrics_report, acf, acf_csv, spectrum, spectrum_csv
from .mtsfm import (MtsfmParams, _phase_samples, fit_fourier, min_harmonics,
                    synthesize_mtsfm)
from .optimizer import OptimizerConfig, optimize, trace_csv
from .waveform import (DEFAULT_SAMPLES_PER_CHIP, SamplingConfig, pc_phase,
                       synthesize_pc, waveform_csv, waveform_raw_bytes)

# Reference configurations for the two built-in worked examples.
MSEQ63 = dict(degree=6, taps=0b1100000, seed=62, harmonics=(64, 32),
              optimize_harmonics=(32,))
POLY65_FILE = Path("data") / "polyphase_barker_n65.txt"
POLY65 = dict(harmonics=(65, 33), optimize_harmonics=(33, 65))


class _Outputs:
    """A command's files, staged until commit() renames them into place;
    discard() removes what is still staged and the directories made for it."""

    def __init__(self):
        self.staged = []  # (temp path, target path)
        self.made = []    # directories created, in order

    def write(self, path, data):
        new = [d for d in reversed(path.parents) if not d.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        self.made += new
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        self.staged.append((tmp, path))
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)

    def commit(self):
        for tmp, path in self.staged:
            os.replace(tmp, path)
        self.staged, self.made = [], []

    def discard(self):
        for tmp, _ in self.staged:
            Path(tmp).unlink(missing_ok=True)
        for d in reversed(self.made):
            if not any(d.iterdir()):
                d.rmdir()


def _phase_csv(times, phases):
    lines = ["t_s,phase_rad"]
    for t, p in zip(times.tolist(), np.asarray(phases).tolist()):
        lines.append(f"{t!r},{p!r}")
    return "\n".join(lines) + "\n"


def _report_csv(report):
    obj = json.loads(report.to_json())
    keys = [k for k in obj if not isinstance(obj[k], dict)]
    row = ",".join("" if obj[k] is None else str(obj[k]) for k in keys)
    return ",".join(keys) + "\n" + row + "\n"


EXPORTS = ("spectrum", "acf", "waveform", "waveform-raw", "phase")


def _write_variant(write, args, out_dir, stem, w, phase, delta_f, exports=(), fmt="json"):
    """Write one waveform's metric report and the requested exports.

    spectrum and ACF are computed once and serve both the report and the
    exports; phase is the grid phase w was synthesized from. Returns the
    report and the path it was written to.
    """
    sp, a = spectrum(w, args.zero_pad), acf(w)
    report = _metrics_report(sp, a, delta_f, args.p)
    if fmt == "csv":
        report_path = out_dir / f"{stem}_metrics.csv"
        write(report_path, _report_csv(report))
    else:
        report_path = out_dir / f"{stem}_metrics.json"
        write(report_path, report.to_json(extra={"config": _provenance(args)}))
    for kind in exports:
        if kind == "spectrum":
            write(out_dir / f"{stem}_spectrum.csv", spectrum_csv(sp))
        elif kind == "acf":
            write(out_dir / f"{stem}_acf.csv", acf_csv(a))
        elif kind == "waveform":
            write(out_dir / f"{stem}_waveform.csv", waveform_csv(w))
        elif kind == "waveform-raw":
            write(out_dir / f"{stem}_waveform.f64", waveform_raw_bytes(w))
        elif kind == "phase":
            write(out_dir / f"{stem}_phase.csv", _phase_csv(w.times, phase))
        else:
            raise ValueError(f"unknown export {kind!r}; choose from {','.join(EXPORTS)}")
    return report, report_path


def _mtsfm_waveform(params, n_samples):
    """The synthesized waveform and the grid phase it is built from."""
    return (synthesize_mtsfm(params, n_samples),
            _phase_samples(params.a0, params.alpha, params.beta, n_samples))


def _provenance(args):
    skip = {"func"}
    return {k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_gen_code(args, write):
    if args.kind == "mseq":
        code = generate_msequence(args.degree, args.taps, args.seed)
    else:
        code = barker_code(args.length)
    path = Path(args.output) if args.output else Path(args.out_dir) / f"{code.label}.txt"
    buf = io.StringIO()
    dump_phase_code(code, buf)
    write(path, buf.getvalue())
    print(f"{code.label}: N={code.n} -> {path}")


def cmd_fit(args, write):
    code = load_phase_code(args.code_file)
    T = args.pulse_length if args.pulse_length is not None else float(code.n)
    bound = min_harmonics(code.n)
    K = args.harmonics if args.harmonics is not None else bound
    params = fit_fourier(code, T, K)
    if K < bound:
        print(f"warning: K={K} is below the adequacy bound ceil(N/2)={bound}; "
              "inter-chip transitions may be lost", file=sys.stderr)
    path = (Path(args.output) if args.output
            else Path(args.out_dir) / f"{Path(args.code_file).stem}_k{K}.json")
    write(path, params.to_json(extra={"config": _provenance(args)}))
    print(f"K={K} (bound {bound}), N={code.n}, T={T} -> {path}")


def _default_band(params):
    """Fallback band width for params inputs: the null-to-null width of the
    chip rate implied by the harmonic count (K harmonics cover about 2K chips)."""
    return 4.0 * params.K / params.T


def _load_input(args):
    """Resolve a metrics input: a params .json or a phase-code text file."""
    path = Path(args.input)
    if path.suffix == ".json":
        params = MtsfmParams.from_json(path.read_text())
        n = args.samples if args.samples is not None else 64 * params.K
        w, phase = _mtsfm_waveform(params, n)
        delta_f = args.delta_f if args.delta_f is not None else _default_band(params)
        return w, phase, delta_f, path.stem
    code = load_phase_code(path)
    T = args.pulse_length if args.pulse_length is not None else float(code.n)
    w = synthesize_pc(code, SamplingConfig(T, args.samples_per_chip))
    delta_f = args.delta_f if args.delta_f is not None else 2.0 * code.n / T
    return w, pc_phase(code, T, w.times), delta_f, path.stem


def cmd_metrics(args, write):
    exports = [e for e in (args.export or "").split(",") if e]
    w, phase, delta_f, stem = _load_input(args)
    report, path = _write_variant(write, args, Path(args.out_dir), stem, w, phase,
                                  delta_f, exports, args.format)
    flag = " (degenerate mainlobe)" if report.degenerate else ""
    print(f"SC={report.sc:.4f} @ delta_f={report.delta_f} PSL={report.psl_db} "
          f"ISR={report.isr_db} GISR(p={report.p})={report.gisr_db}{flag} -> {path}")


def cmd_optimize(args, write):
    params = MtsfmParams.from_json(Path(args.params_file).read_text())
    delta_f = args.delta_f if args.delta_f is not None else _default_band(params)
    check_positive("--delta-f", delta_f)
    cfg = OptimizerConfig(p=args.p, delta=args.delta,
                          max_iterations=args.max_iterations,
                          objective_tolerance=args.objective_tolerance,
                          n_samples=args.samples, log_every=args.log_every)
    result = optimize(params, cfg)
    out_dir = Path(args.out_dir)
    stem = args.output_stem or f"{Path(args.params_file).stem}_opt"
    write(out_dir / f"{stem}.json", result.to_json(extra={"config": _provenance(args)}))
    write(out_dir / f"{stem}_trace.csv", trace_csv(result.trace))

    n_report = max(cfg.resolve_n_samples(params.K), 64 * params.K)
    for tag, prm in (("before", params), ("after", result.params)):
        _write_variant(write, args, out_dir, f"{stem}_{tag}",
                       *_mtsfm_waveform(prm, n_report), delta_f)
    print(f"GISR(p={args.p}): {result.initial_gisr_db:.2f} -> "
          f"{result.final_gisr_db:.2f} dB ({result.termination_reason}) "
          f"-> {out_dir / (stem + '.json')}")


def cmd_reproduce(args, write):
    if args.example == "mseq63":
        code = generate_msequence(MSEQ63["degree"], MSEQ63["taps"], MSEQ63["seed"])
        spec_cfg = MSEQ63
    else:
        code_file = Path(args.code_file) if args.code_file else POLY65_FILE
        if not code_file.exists():
            raise ValueError(
                f"polyphase code file {code_file} not found. Transcribe the "
                "65-chip polyphase Barker code from the literature into that "
                "file (one radian value per line, '#' comments allowed); see "
                "data/README.md for instructions, or pass --code-file.")
        code = load_phase_code(code_file, label="poly65")
        if code.n != 65:
            raise ValueError(f"expected a 65-chip code in {code_file}, got N={code.n}")
        spec_cfg = POLY65

    out_dir = Path(args.out_dir) / args.example
    T = float(code.n)
    delta_f = 2.0 * code.n / T  # null-to-null band of the chip envelope
    scfg = SamplingConfig(T, args.samples_per_chip)
    n_samples = code.n * args.samples_per_chip
    cfg = OptimizerConfig(p=args.p, delta=args.delta,
                          max_iterations=args.max_iterations,
                          n_samples=n_samples)
    prov = _provenance(args)
    summary = {"config": prov, "variants": {}}

    def variant(name, w, phase):
        report, _ = _write_variant(write, args, out_dir, name, w, phase, delta_f,
                                   ("spectrum", "acf", "phase"))
        summary["variants"][name] = json.loads(report.to_json())

    buf = io.StringIO()
    dump_phase_code(code, buf)
    write(out_dir / "pc_code.txt", buf.getvalue())
    w_pc = synthesize_pc(code, scfg)
    variant("pc", w_pc, pc_phase(code, T, w_pc.times))

    fits = {}
    for K in spec_cfg["harmonics"]:
        fits[K] = fit_fourier(code, T, K)
        write(out_dir / f"fit_k{K}.json", fits[K].to_json(extra={"config": prov}))
        variant(f"init_k{K}", *_mtsfm_waveform(fits[K], n_samples))

    for K in spec_cfg["optimize_harmonics"]:
        result = optimize(fits[K], cfg)
        write(out_dir / f"opt_k{K}_result.json", result.to_json(extra={"config": prov}))
        write(out_dir / f"opt_k{K}_trace.csv", trace_csv(result.trace))
        variant(f"opt_k{K}", *_mtsfm_waveform(result.params, n_samples))

    write(out_dir / "summary.json", json.dumps(summary, indent=2))

    print(f"{'variant':<10} {'SC':>8} {'ISR dB':>8} {'PSL dB':>8}")
    for name, v in summary["variants"].items():
        isr_s = "-" if v["isr_db"] is None else f"{v['isr_db']:8.2f}"
        psl_s = "-" if v["psl_db"] is None else f"{v['psl_db']:8.2f}"
        print(f"{name:<10} {v['sc_fraction']:8.4f} {isr_s:>8} {psl_s:>8}")
    print(f"outputs -> {out_dir}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtsfm-cpm",
        description="Smooth phase-coded waveforms with a Fourier-series phase "
                    "and re-optimize their autocorrelation sidelobes under an "
                    "RMS-bandwidth constraint.")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="encoding of the metrics report")
    parser.add_argument("--samples-per-chip", type=int, default=DEFAULT_SAMPLES_PER_CHIP,
                        help="synthesis density for phase-coded inputs")
    parser.add_argument("--zero-pad", type=int, default=4,
                        help="zero-padding factor for spectra (the ACF is exact "
                             "at its native lags and takes no padding)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-code", help="generate a phase-code file")
    gsub = p.add_subparsers(dest="kind", required=True)
    pm = gsub.add_parser("mseq", help="maximal-length binary sequence")
    pm.add_argument("--degree", type=int, required=True)
    pm.add_argument("--taps", type=lambda s: int(s, 0), default=None,
                    help="feedback polynomial mask, e.g. 0b1100000 (default: built-in table)")
    pm.add_argument("--seed", type=lambda s: int(s, 0), default=1)
    pm.add_argument("-o", "--output", default=None)
    pm.set_defaults(func=cmd_gen_code, kind="mseq")
    pb = gsub.add_parser("barker", help="binary Barker code")
    pb.add_argument("--length", type=int, required=True)
    pb.add_argument("-o", "--output", default=None)
    pb.set_defaults(func=cmd_gen_code, kind="barker")

    p = sub.add_parser("fit", help="fit the Fourier phase model to a code file")
    p.add_argument("code_file")
    p.add_argument("--pulse-length", "-T", type=float, default=None,
                   help="pulse length in seconds (default: one second per chip)")
    p.add_argument("--harmonics", "-K", type=int, default=None,
                   help="harmonic count (default: ceil(N/2))")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("metrics", help="metric report for a code file or params JSON")
    p.add_argument("input", help="phase-code text file or params .json")
    p.add_argument("--pulse-length", "-T", type=float, default=None)
    p.add_argument("--delta-f", type=float, default=None,
                   help="band width for the energy fraction (defaults: 2N/T for "
                        "code files, 4K/T for params input)")
    p.add_argument("--p", type=int, default=OptimizerConfig.p)
    p.add_argument("--samples", type=int, default=None,
                   help="synthesis density for params input (default 64K)")
    p.add_argument("--export", default=None,
                   help=f"comma list: {','.join(EXPORTS)}")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("optimize", help="minimize the sidelobe ratio from a params JSON")
    p.add_argument("params_file")
    p.add_argument("--delta-f", type=float, default=None,
                   help="band width for the before/after reports (default 4K/T)")
    p.add_argument("--p", type=int, default=OptimizerConfig.p)
    p.add_argument("--delta", type=float, default=OptimizerConfig.delta)
    p.add_argument("--max-iterations", type=int, default=OptimizerConfig.max_iterations)
    p.add_argument("--objective-tolerance", type=float,
                   default=OptimizerConfig.objective_tolerance)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--log-every", type=int, default=OptimizerConfig.log_every)
    p.add_argument("--output-stem", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("reproduce", help="run a built-in worked example end to end")
    p.add_argument("example", choices=("mseq63", "poly65"))
    p.add_argument("--code-file", default=None,
                   help="polyphase code file for poly65 (default data/polyphase_barker_n65.txt)")
    p.add_argument("--p", type=int, default=OptimizerConfig.p)
    p.add_argument("--delta", type=float, default=OptimizerConfig.delta)
    p.add_argument("--max-iterations", type=int, default=OptimizerConfig.max_iterations)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = _Outputs()
    try:
        check_int_at_least("--zero-pad", args.zero_pad, 1)
        args.func(args, outputs.write)
        outputs.commit()
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        outputs.discard()


if __name__ == "__main__":
    sys.exit(main())
