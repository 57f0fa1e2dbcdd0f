"""Command-line front end.

Subcommands: gen-code, fit, metrics, optimize, reproduce. All outputs are
deterministic for fixed inputs and flags, JSON outputs embed the input
configuration, and a command's files appear together, only if it succeeds
(each is staged beside its target by one os.open, so it takes the mode
0o666 & ~umask; the set is renamed into place at the end).
Each command returns its summary text, printed only after that rename.
The per-sample CSV exports are formatted just before the rename, over every
CPU the process may use, to the same bytes on any number of CPUs.

File formats
------------
phase code   text, one radian value per line, '#' comments ignored
params       JSON {"T", "a0", "alpha", "beta"}
metrics      JSON with unit-suffixed keys (or one-row CSV with --format csv,
             the invoking flags as config_<flag> columns)
spectrum     CSV ``f_hz,psd``
acf          CSV ``tau_s,abs_r,arg_r``
phase        CSV ``t_s,phase_rad``: the grid phase the waveform was synthesized from
trace        CSV ``iter,objective_db,beta2_rel,step_size,grad_norm,tangent_grad_norm,accepted``
waveform     CSV ``t,re,im`` or raw interleaved little-endian float64 (re, im)
"""

import argparse
import csv
import errno
import functools
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .codes import (barker_code, dump_phase_code, generate_msequence,
                    load_phase_code)
from ._validation import check_int_at_least, check_positive
from .metrics import _acf_of, _half_acf, _metrics_report, acf_csv, spectrum, spectrum_csv
from .mtsfm import MtsfmParams, _synthesize_with_phase, fit_fourier, min_harmonics
from .optimizer import OptimizerConfig, optimize, trace_csv
from .waveform import (DEFAULT_SAMPLES_PER_CHIP, SamplingConfig, _csv, pc_phase,
                       synthesize_pc, waveform_csv, waveform_raw_bytes)

# Reference configurations for the two built-in worked examples.
MSEQ63 = dict(degree=6, taps=0b1100000, seed=62, harmonics=(64, 32),
              optimize_harmonics=(32,))
POLY65_FILE = Path("data") / "polyphase_barker_n65.txt"
POLY65 = dict(harmonics=(65, 33), optimize_harmonics=(33, 65))


class _Outputs:
    """A command's files, staged until commit() renames them into place;
    discard() removes what is still staged and the directories made for it.

    Each file is staged beside its target as <name>.<tag>.<index>, with one
    random tag per command, by one os.open(O_CREAT | O_EXCL) of mode 0o666:
    the kernel applies the umask, so the file gets the mode a plain open()
    would give it, 0o666 & ~umask. Each distinct parent directory is checked,
    and made with its missing ancestors, once. A file whose data is a
    callable is staged empty, and commit() writes the text the callable
    returns into it, on every CPU the process may use."""

    def __init__(self):
        self.staged = []      # (temp path, target path)
        self.made = []        # directories created, in order
        self.texts = []       # (temp path, callable) still to format
        self.parents = set()  # directories that exist or were made
        self.tag = os.urandom(6).hex()

    def write(self, path, data):
        if path.parent not in self.parents:
            new = [d for d in reversed(path.parents) if not d.exists()]
            path.parent.mkdir(parents=True, exist_ok=True)
            self.made += new
            self.parents.add(path.parent)
        tmp = f"{path}.{self.tag}.{len(self.staged)}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
        self.staged.append((tmp, path))
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            if callable(data):
                self.texts.append((tmp, data))
            else:
                fh.write(data)

    def commit(self):
        for _, path in self.staged:  # os.replace cannot overwrite a directory
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        _format_texts(self.texts)
        for tmp, path in self.staged:
            os.replace(tmp, path)
        self.staged, self.made, self.texts = [], [], []

    def discard(self):
        for tmp, _ in self.staged:
            Path(tmp).unlink(missing_ok=True)
        for d in reversed(self.made):
            if not any(d.iterdir()):
                d.rmdir()


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_share(share):
    for tmp, text in share:
        with open(tmp, "w") as fh:
            fh.write(text())


def _format_texts(texts):
    """Write the text of each staged (temp path, callable) into its file.

    The texts are dealt round-robin, in staging order, into one share per
    CPU this process may use. The process formats the first share itself;
    each other share goes to a forked worker, which leaves by os._exit, so
    no atexit handler, stdio flush or test teardown runs in it. Every worker
    is waited for, also when this process raises; a failed worker raises
    OSError.
    """
    if not texts:
        return
    n = min(len(texts), _cpus()) if hasattr(os, "fork") else 1
    first, *rest = (texts[i::n] for i in range(n))
    workers = []
    try:
        for share in rest:
            workers.append(_fork(share))
        _format_share(first)
    finally:
        errors = [e for e in (_join(*worker) for worker in workers) if e]
    if errors:
        raise OSError(f"formatting the CSV exports failed in a worker: {errors[0]}")


def _fork(share):
    """Start a worker that formats share; returns its pid and the read end
    of the pipe it reports an exception on."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            _format_share(share)
            os._exit(0)
        except BaseException as exc:  # passed on as the pipe text and exit status 1
            os.write(w, f"{type(exc).__name__}: {exc}".encode()[:4096])
        finally:
            os._exit(1)
    os.close(w)
    return pid, r


def _join(pid, r):
    """Wait for a worker; its failure as text, or "" if it succeeded."""
    with open(r, "rb") as fh:
        message = fh.read().decode(errors="replace")
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return ""
    return message or (f"killed by signal {-status}" if status < 0
                       else f"exit status {status}")


def _phase_csv(times, phases):
    return _csv("t_s,phase_rad", times, np.asarray(phases).tolist())


def _report_csv(report, config):
    """The report as a header and one row: its fields, then each config key
    as a config_<key> column, the provenance the JSON report embeds. None is
    an empty cell, and a cell holding a comma or quote is quoted."""
    row = report._fields()
    row.update((f"config_{k}", v) for k, v in config.items())
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([row, row.values()])
    return buf.getvalue()


EXPORTS = ("spectrum", "acf", "waveform", "waveform-raw", "phase")


def _write_variant(write, args, out_dir, stem, w, phase, delta_f, exports=()):
    """Write one waveform's metric report, encoded as args.format, and the
    requested exports.

    The report is compute_metrics': it reads the ACF on the lags tau >= 0
    only and takes SC and the RMS bandwidth from it. The acf export mirrors
    that same half (_acf_of), so the samples are correlated once, and the
    zero-padded spectrum is built only for the spectrum export. phase is the
    grid phase w was synthesized from. The CSV exports are handed to write
    as callables, formatted when the files are committed. Returns the report
    and the path it was written to.
    """
    half = _half_acf(w)
    report = _metrics_report(w, half, delta_f, args.p, args.zero_pad)
    if args.format == "csv":
        report_path = out_dir / f"{stem}_metrics.csv"
        write(report_path, _report_csv(report, _provenance(args)))
    else:
        report_path = out_dir / f"{stem}_metrics.json"
        write(report_path, report.to_json(extra={"config": _provenance(args)}))
    for kind in exports:
        if kind == "spectrum":
            sp = spectrum(w, args.zero_pad)
            write(out_dir / f"{stem}_spectrum.csv", functools.partial(spectrum_csv, sp))
        elif kind == "acf":
            write(out_dir / f"{stem}_acf.csv", functools.partial(acf_csv, _acf_of(half)))
        elif kind == "waveform":
            write(out_dir / f"{stem}_waveform.csv", functools.partial(waveform_csv, w))
        elif kind == "waveform-raw":
            write(out_dir / f"{stem}_waveform.f64", waveform_raw_bytes(w))
        elif kind == "phase":
            write(out_dir / f"{stem}_phase.csv", functools.partial(_phase_csv, w.times, phase))
        else:
            raise ValueError(f"unknown export {kind!r}; choose from {','.join(EXPORTS)}")
    return report, report_path


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
    return f"{code.label}: N={code.n} -> {path}"


def _pulse_length(args, code):
    """--pulse-length, or one second per chip."""
    return args.pulse_length if args.pulse_length is not None else float(code.n)


def _chip_band(code, T):
    """The null-to-null band of the chip envelope, 2N/T: a code input's band."""
    return 2.0 * code.n / T


def cmd_fit(args, write):
    code = load_phase_code(args.code_file)
    T = _pulse_length(args, code)
    bound = min_harmonics(code.n)
    K = args.harmonics if args.harmonics is not None else bound
    params = fit_fourier(code, T, K)
    if K < bound:
        print(f"warning: K={K} is below the adequacy bound ceil(N/2)={bound}; "
              "inter-chip transitions may be lost", file=sys.stderr)
    path = (Path(args.output) if args.output
            else Path(args.out_dir) / f"{Path(args.code_file).stem}_k{K}.json")
    write(path, params.to_json(extra={"config": _provenance(args)}))
    return f"K={K} (bound {bound}), N={code.n}, T={T} -> {path}"


def _default_band(params):
    """Fallback band width for params inputs: the null-to-null width of the
    chip rate implied by the harmonic count (K harmonics cover about 2K chips)."""
    return 4.0 * params.K / params.T


def _load_input(args):
    """Resolve a metrics input: a params .json or a phase-code text file."""
    path = Path(args.input)
    if path.suffix == ".json":
        params = MtsfmParams.from_json(path.read_text())
        n = OptimizerConfig(n_samples=args.samples).resolve_n_samples(params.K)
        w, phase = _synthesize_with_phase(params, n)
        delta_f = args.delta_f if args.delta_f is not None else _default_band(params)
        return w, phase, delta_f, path.stem
    code = load_phase_code(path)
    T = _pulse_length(args, code)
    w = synthesize_pc(code, SamplingConfig(T, args.samples_per_chip))
    delta_f = args.delta_f if args.delta_f is not None else _chip_band(code, T)
    return w, pc_phase(code, T, w.times), delta_f, path.stem


def cmd_metrics(args, write):
    exports = [e for e in (args.export or "").split(",") if e]
    w, phase, delta_f, stem = _load_input(args)
    report, path = _write_variant(write, args, Path(args.out_dir), stem, w, phase,
                                  delta_f, exports)
    flag = " (degenerate mainlobe)" if report.degenerate else ""
    return (f"SC={report.sc:.4f} @ delta_f={report.delta_f} PSL={report.psl_db} "
            f"ISR={report.isr_db} GISR(p={report.p})={report.gisr_db}{flag} -> {path}")


def cmd_optimize(args, write):
    params = MtsfmParams.from_json(Path(args.params_file).read_text())
    delta_f = args.delta_f if args.delta_f is not None else _default_band(params)
    check_positive("--delta-f", delta_f)
    cfg = OptimizerConfig(p=args.p, delta=args.delta,
                          max_iterations=args.max_iterations,
                          n_samples=args.samples)
    result = optimize(params, cfg)
    out_dir = Path(args.out_dir)
    stem = args.output_stem or f"{Path(args.params_file).stem}_opt"
    write(out_dir / f"{stem}.json", result.to_json(extra={"config": _provenance(args)}))
    write(out_dir / f"{stem}_trace.csv", trace_csv(result.trace))

    # the reports take at least the default density
    n_report = max(cfg.resolve_n_samples(params.K),
                   OptimizerConfig().resolve_n_samples(params.K))
    for tag, prm in (("before", params), ("after", result.params)):
        _write_variant(write, args, out_dir, f"{stem}_{tag}",
                       *_synthesize_with_phase(prm, n_report), delta_f)
    return (f"GISR(p={args.p}): {result.initial_gisr_db:.2f} -> "
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
    delta_f = _chip_band(code, T)
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
        summary["variants"][name] = report._fields()

    buf = io.StringIO()
    dump_phase_code(code, buf)
    write(out_dir / "pc_code.txt", buf.getvalue())
    w_pc = synthesize_pc(code, scfg)
    variant("pc", w_pc, pc_phase(code, T, w_pc.times))

    fits = {}
    for K in spec_cfg["harmonics"]:
        fits[K] = fit_fourier(code, T, K)
        write(out_dir / f"fit_k{K}.json", fits[K].to_json(extra={"config": prov}))
        variant(f"init_k{K}", *_synthesize_with_phase(fits[K], n_samples))

    for K in spec_cfg["optimize_harmonics"]:
        result = optimize(fits[K], cfg)
        write(out_dir / f"opt_k{K}_result.json", result.to_json(extra={"config": prov}))
        write(out_dir / f"opt_k{K}_trace.csv", trace_csv(result.trace))
        variant(f"opt_k{K}", *_synthesize_with_phase(result.params, n_samples))

    write(out_dir / "summary.json", json.dumps(summary, indent=2))

    lines = [f"{'variant':<10} {'SC':>8} {'ISR dB':>8} {'PSL dB':>8}"]
    for name, v in summary["variants"].items():
        isr_s = "-" if v["isr_db"] is None else f"{v['isr_db']:8.2f}"
        psl_s = "-" if v["psl_db"] is None else f"{v['psl_db']:8.2f}"
        lines.append(f"{name:<10} {v['sc_fraction']:8.4f} {isr_s:>8} {psl_s:>8}")
    lines.append(f"outputs -> {out_dir}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so main() reports it like any
    other bad input; its subparsers are _Parsers too. --help still exits 0."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # parse_args reads the parser and returns a new Namespace
def build_parser():
    parser = _Parser(
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
    p.add_argument("--samples", type=int, default=None)
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
    outputs = _Outputs()
    try:
        args = build_parser().parse_args(argv)
        check_int_at_least("--zero-pad", args.zero_pad, 1)
        text = args.func(args, outputs.write)
        outputs.commit()
    except (ValueError, OSError, MemoryError) as exc:  # e.g. a spectrum too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        outputs.discard()
    print(text)  # only once the command's files are in place
    return 0


if __name__ == "__main__":
    sys.exit(main())
