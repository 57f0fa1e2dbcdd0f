"""One-line mutation audit of the numeric core.

Each mutant replaces one line of metrics.py, optimizer.py, mtsfm.py,
codes.py, waveform.py, _validation.py or cli.py. For each mutant the runner copies
the tree, applies the mutant and runs the tier-1 suite with -x, less
tests/test_mutants.py: that test checks this list against the unmutated
tree (static_problem), so it fails on every copy. A mutant that the whole
suite passes has survived: the code it changes is either unreachable or
unguarded. Each entry records its verdict:

- killed: the suite fails on the mutant, first at the named test;
- deleted: the code the mutant changes was deleted because no input can
  reach it (the proof is in CHANGES.md), so the runner checks it is gone;
- equivalent: no input tells the mutant apart from the code, for the
  reason given, so the runner expects it to survive.

The runner prints one line per mutant and exits 1 if any verdict does not
hold. CI runs it with --jobs 2 on one leg; each survivor costs one full run
of the suite (about 15 s on 2 cores), and the whole list about 5 minutes.
Run from anywhere:

    python tools/mutants.py                        # every mutant
    python tools/mutants.py armijo-zero lag-grid-T # the named ones
    python tools/mutants.py --jobs 2               # two copies at a time
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/mtsfm_cpm/"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/mtsfm_cpm
    old: str  # occurs exactly once in the file, unless the verdict is deleted
    new: str
    verdict: str  # "killed", "deleted" or "equivalent"
    why: str  # the killing test's id, or the reason


def killed(name, file, old, new, test):
    return Mutant(name, file, old, new, "killed", test)


def deleted(name, file, old, new, reason):
    return Mutant(name, file, old, new, "deleted", reason)


def equivalent(name, file, old, new, reason):
    return Mutant(name, file, old, new, "equivalent", reason)


MUTANTS = [
    # metrics.py
    killed("band-weights-empty", "metrics.py",
           "    if hi <= lo:", "    if False:",
           "tests/test_metrics.py::test_report_equals_the_two_sided_acf_oracle"),
    killed("band-weights-edge-clamp", "metrics.py",
           'j = min(max(int(x.searchsorted(edge, "right")) - 1, 0), x.size - 2)',
           'j = int(x.searchsorted(edge, "right")) - 1',
           "tests/test_acceptance.py::test_criterion_3_sidelobe_regression"),
    killed("compactness-clamp", "metrics.py",
           "    return min(max(frac, 0.0), 1.0)", "    return frac",
           "tests/test_metrics.py::test_band_fractions_are_clamped_to_0_1"),
    killed("rms-spectral-floor", "metrics.py",
           "    return 2 * np.pi * math.sqrt(max(second, 0.0) + 0.0)  # -0.0 + 0.0 is +0.0",
           "    return 2 * np.pi * math.sqrt(abs(second))",
           "tests/test_metrics.py::test_negative_second_moment_reads_zero_bandwidth"),
    killed("rms-spectral-signed-zero", "metrics.py",
           "    return 2 * np.pi * math.sqrt(max(second, 0.0) + 0.0)  # -0.0 + 0.0 is +0.0",
           "    return 2 * np.pi * math.sqrt(max(second, 0.0))",
           "tests/test_metrics.py::test_a_zero_second_moment_reads_plus_zero_bandwidth"),
    killed("conj-acf-zero-at-T", "metrics.py",
           "    h[L] = 0.0", "    pass",
           "tests/test_metrics.py::test_half_acf_is_exactly_zero_at_lag_T"),
    deleted("acf-real-zero-lag", "metrics.py",
            "    out[L] = r[0].real  # R(0) is real: imaginary part +0.0", "    pass",
            "every half that reaches _autocorrelation is an AcfResult's, whose R(0) "
            "AcfResult._own has already made real"),
    killed("acf-result-real-zero-lag", "metrics.py",
           "        half[0] = half[0].real  # R(0) is real: imaginary part +0.0", "        pass",
           "tests/test_metrics.py::test_acf_is_hermitian_bit_for_bit[barker13_wave]"),
    killed("acf-result-zero-at-T", "metrics.py",
           "        half[-1] = 0.0  # R(T) is +0+0j", "        pass",
           "tests/test_metrics.py::test_acf_is_hermitian_bit_for_bit[barker13_wave]"),
    killed("acf-result-shape", "metrics.py",
           "if half_lags.ndim != 1 or half_lags.size < 2 or half.shape != half_lags.shape:",
           "if False:",
           "tests/test_metrics.py::test_acf_result_rejects_a_half_of_the_wrong_shape[short]"),
    killed("acf-minus-T-zero", "metrics.py",
           "    out[0] = 0.0  # R(-T) is +0+0j, not conj(R(T))", "    out[0] = np.conj(out[-1])",
           "tests/test_metrics.py::test_acf_is_hermitian_bit_for_bit[barker13_wave]"),
    killed("lag-grid-T", "metrics.py",
           "        lags[-1] = T", "        pass",
           "tests/test_metrics.py::test_acf_lags_end_at_T_bit_for_bit"),
    killed("shift-spectra-on-bin", "metrics.py",
           "    if f == 0:", "    if False:",
           "tests/test_metrics.py::test_ambiguity_fft_work"),
    killed("ambiguity-mirror", "metrics.py",
           "        if nu != 0 and -nu in first:", "        if False:",
           "tests/test_metrics.py::"
           "test_ambiguity_matches_per_row_oracle[barker13_wave-symmetric]"),
    killed("ambiguity-zero-row", "metrics.py",
           "            if nu == 0:", "            if False:",
           "tests/test_metrics.py::test_ambiguity_zero_doppler_row_is_acf[barker13]"),
    killed("null-vertex-none", "metrics.py",
           "    if not is_min[i]:", "    if False:",
           "tests/test_acceptance.py::test_criterion_8_degenerate_handling"),
    deleted("null-vertex-clamp", "metrics.py",
            "    return t1 + min(max(offset, -1.0), 1.0) * (t1 - t0)",
            "    return t1 + min(max(offset, -0.5), 0.5) * (t1 - t0)",
            "at a strict local minimum |offset| < 1/2, so the clamp never binds"),
    deleted("null-vertex-guard", "metrics.py",
            "    offset = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0",
            "    offset = 0.5 * (y0 - y2) / denom if denom > 1e-6 else 0.0",
            "at a strict local minimum the computed y0 - 2 y1 + y2 is positive"),
    killed("psl-past-null", "metrics.py",
           "int(a.half_lags.searchsorted(a.null))", "int(a.half_lags.searchsorted(a.null)) + 1",
           "tests/test_metrics.py::test_psl_reads_the_first_lag_past_the_null"),
    killed("power-sum-unscaled", "metrics.py",
           "    m = float(mag.max())", "    m = 1.0",
           "tests/test_cli.py::test_large_p_writes_finite_outputs[optimize-p700]"),
    killed("sidelobe-underflow", "metrics.py",
           "    if num == 0 or den == 0:", "    if False:",
           "tests/test_cli.py::test_a_p_whose_power_sum_underflows_is_one_line_error[metrics]"),
    killed("sidelobe-gradient-sign", "metrics.py",
           "    d_power[main] -= w_den_p2", "    d_power[main] += w_den_p2",
           "tests/test_cli.py::test_reproduce_mseq63_table_matches_readme"),
    killed("report-grid-spacing", "metrics.py",
           "    if not (0.0 < df < math.inf and n <= ", "    if not (n <= ",
           "tests/test_cli.py::test_metrics_malformed_params_is_one_line_error[huge-T]"),
    killed("report-grid-exact", "metrics.py",
           "n <= 2 ** 53 and", "True and",
           "tests/test_metrics.py::"
           "test_a_spectrum_grid_too_fine_to_resolve_is_an_error[inexact]"),
    killed("report-grid-products", "metrics.py",
           "2 * n * (math.isqrt(L - 1) + 1) < 2 ** 63", "True",
           "tests/test_metrics.py::"
           "test_a_spectrum_grid_too_fine_to_resolve_is_an_error[products]"),
    killed("report-band-clamp", "metrics.py",
           '    band = min(check_positive("delta_f", delta_f), span)',
           '    band = check_positive("delta_f", delta_f)',
           "tests/test_cli.py::test_metrics_flags_a_clamped_band"),
    killed("report-sc-clamp", "metrics.py",
           "    return MetricsReport(min(max(in_band, 0.0), 1.0), band,",
           "    return MetricsReport(in_band, band,",
           "tests/test_metrics.py::test_band_fractions_are_clamped_to_0_1"),
    killed("acf-spectral-floor", "metrics.py",
           "    return band / sample_rate, 2 * np.pi * math.sqrt(max(second, 0.0) + 0.0)",
           "    return band / sample_rate, 2 * np.pi * math.sqrt(abs(second))",
           "tests/test_metrics.py::test_negative_second_moment_reads_zero_bandwidth"),
    killed("acf-spectral-signed-zero", "metrics.py",
           "    return band / sample_rate, 2 * np.pi * math.sqrt(max(second, 0.0) + 0.0)",
           "    return band / sample_rate, 2 * np.pi * math.sqrt(max(second, 0.0))",
           "tests/test_metrics.py::test_a_zero_second_moment_reads_plus_zero_bandwidth"),
    equivalent("band-window", "metrics.py",
               "    b, last = max(q - 2, 0), min(q + 2, top)",
               "    b, last = max(q - 3, 0), min(q + 3, top)",
               "equal up to rounding: a wider window takes more of the bins that weigh df "
               "from _band_weights, whose spacings round; it moved sc by 1-2 ulps on 378 of "
               "5,760 reports tried (barker13, mseq63, mseq31 codes and fits, 40 bands, "
               "zero pad 1-4) and beta_rms on none, which only a bit-exact digest would see"),
    killed("acf-spectral-centre", "metrics.py",
           "    centre = 2 * float(w[0]) - df if b == 0 else 0.0",
           "    centre = 2 * float(w[0]) - df if b < 0 else 0.0",
           "tests/test_metrics.py::"
           "test_report_takes_sc_and_beta_of_the_spectrum_from_the_acf[barker13-x9-1]"),
    killed("acf-spectral-odd-n", "metrics.py",
           "    if n % 2:", "    if False:",
           "tests/test_metrics.py::"
           "test_report_takes_sc_and_beta_of_the_spectrum_from_the_acf[barker13-x9-1]"),
    killed("acf-csv-minus-T", "metrics.py",
           "    z = complex(a.values[0])  # R(-T): its own text",
           "    z = complex(a.values[-1]).conjugate()",
           "tests/test_cli.py::test_bytes_do_not_depend_on_the_worker_count[reproduce]"),
    # optimizer.py
    equivalent("edge-tol", "optimizer.py",
               "EDGE_TOL = 1e-9", "EDGE_TOL = 1e-7",
               "the tolerance only has to exceed the few ulps by which the projection "
               "misses an edge, and 1e-7 picks the same holding edge on every iterate tried: "
               "the 13-state problem set at (p, delta) = (10, .1), (2, .1), (10, .05), "
               "(30, .2) gave the same result JSON and trace CSV bytes"),
    equivalent("active-edge-into", "optimizer.py",
               "    if outward * float(g @ normal) >= 0:",
               "    if outward * float(g @ normal) > 0:",
               "the two differ only when g @ W x is exactly 0.0 on an edge, which no run "
               "reaches: the same 52 runs gave the same bytes"),
    killed("armijo-zero", "optimizer.py",
           "ARMIJO = 1e-4", "ARMIJO = 0.0",
           "tests/test_optimizer.py::test_armijo_rejects_a_too_small_decrease"),
    killed("strict-decrease", "optimizer.py",
           "            if fc < f and fc <= f + ARMIJO * float(g @ (cand - x)):",
           "            if fc <= f + ARMIJO * float(g @ (cand - x)):",
           "tests/test_optimizer.py::test_a_flat_objective_ends_after_one_search"),
    killed("retry-without-memory", "optimizer.py",
           "        if new is None and memory:", "        if new is None:",
           "tests/test_optimizer.py::test_a_flat_objective_ends_after_one_search"),
    killed("curvature-guard", "optimizer.py",
           "            if sy > 0:", "            if True:",
           "tests/test_optimizer.py::test_memory_refuses_a_pair_without_positive_curvature"),
    killed("two-loop-scaling", "optimizer.py",
           "    if memory:", "    if False:",
           "tests/test_acceptance.py::test_criterion_4_converges_on_the_band"),
    killed("optimize-band-positive", "optimizer.py",
           "    if not 0.0 < beta2_ref < math.inf:", "    if not -1.0 < beta2_ref < math.inf:",
           "tests/test_cli.py::test_optimize_rejects_zero_params"),
    killed("optimize-band-finite", "optimizer.py",
           "    if not 0.0 < beta2_ref < math.inf:", "    if not 0.0 < beta2_ref <= math.inf:",
           "tests/test_cli.py::test_optimize_rejects_an_overflowing_bandwidth"),
    killed("project-all-zero", "optimizer.py",
           "    if b2 == 0.0:", "    if False:",
           "tests/test_optimizer.py::test_project_rejects_all_zero"),
    killed("project-slack", "optimizer.py",
           "    if _band_residual(b2, band) <= BAND_SLACK:",
           "    if _band_residual(b2, band) <= 0.0:",
           "tests/test_optimizer.py::test_project_idempotent_bit_for_bit"),
    killed("band-residual-inside", "optimizer.py",
           "    return max(0.0, lo - b2, b2 - hi) / ((lo + hi) / 2)",
           "    return max(lo - b2, b2 - hi) / ((lo + hi) / 2)",
           "tests/test_optimizer.py::test_optimize_trace_within_band_slack"),
    killed("db-floor", "optimizer.py",
           "    return 10 * math.log10(max(x, 1e-300))", "    return 10 * math.log10(x)",
           "tests/test_optimizer.py::test_an_objective_of_zero_reads_the_db_floor"),
    # mtsfm.py
    killed("params-equal-lengths", "mtsfm.py",
           "        if alpha.size != beta.size:", "        if False:",
           "tests/test_mtsfm.py::test_params_validation"),
    killed("params-a0-finite", "mtsfm.py",
           '        if not _finite(check_real("a0", self.a0)):',
           '        if not np.isfinite(check_real("a0", self.a0)):',
           "tests/test_cli.py::test_metrics_malformed_params_is_one_line_error[huge-int-a0]"),
    killed("params-phase-bound", "mtsfm.py",
           "        if not _finite(2 * bound):", "        if not _finite(bound):",
           "tests/test_cli.py::test_metrics_malformed_params_is_one_line_error[phase-overflow]"),
    killed("with-coefficients-shape", "mtsfm.py",
           "        if vector.shape != (2 * self.K,):", "        if False:",
           "tests/test_mtsfm.py::test_params_validation"),
    killed("from-json-lists", "mtsfm.py",
           "            if not isinstance(obj[key], list):", "            if False:",
           "tests/test_cli.py::test_metrics_malformed_params_is_one_line_error[dict-alpha]"),
    killed("from-json-entries", "mtsfm.py",
           "            if bad:", "            if False:",
           "tests/test_cli.py::test_metrics_malformed_params_is_one_line_error[bool-alpha]"),
    deleted("from-json-type-error", "mtsfm.py",
            "        except TypeError as exc:", "        except ArithmeticError as exc:",
            "a non-list alpha or beta and a huge-int a0 now raise a ValueError naming the "
            "field before the constructor, so no TypeError reaches from_json"),
    deleted("min-harmonics-floor", "mtsfm.py",
            "    return max(1, (n_chips + 1) // 2)", "    return (n_chips + 1) // 2",
            "n_chips >= 1 is checked, so (n_chips + 1) // 2 >= 1"),
    killed("phase-samples-floor", "mtsfm.py",
           "    if n_samples < 4 * K:", "    if False:",
           "tests/test_mtsfm.py::test_synthesize_rejects_undersampling"),
    killed("fourier-sum-scalar", "mtsfm.py",
           "    return acc.real if np.ndim(t) else float(acc.real)", "    return acc.real",
           "tests/test_mtsfm.py::test_phase_and_modulation_match_dense_oracles[1.0-1]"),
    # waveform.py
    killed("waveform-shape", "waveform.py",
           "        if samples.ndim != 1 or samples.size < 2:", "        if False:",
           "tests/test_waveform.py::test_waveform_rejects_samples_of_the_wrong_shape[2-d]"),
    killed("waveform-energy", "waveform.py",
           "        if not abs(self.energy - 1.0) <= 1e-9:", "        if False:",
           "tests/test_waveform.py::test_sampled_waveform_rejects_wrong_energy"),
    killed("pc-phase-endpoint", "waveform.py",
           "    idx = np.minimum(idx, n - 1)  # right endpoint of the final chip", "    pass",
           "tests/test_waveform.py::test_pc_phase_two_chips"),
    killed("pc-phase-overflow", "waveform.py",
           "    if not np.all(np.isfinite(position)):", "    if False:",
           "tests/test_cli.py::"
           "test_a_grid_too_fine_or_a_pulse_too_long_is_one_line_error[T-2e307]"),
    killed("synthesize-pc-cfg", "waveform.py",
           "    if not isinstance(cfg, SamplingConfig):", "    if False:",
           "tests/test_waveform.py::test_synthesize_pc_needs_a_sampling_config"),
    killed("samples-per-chip-floor", "waveform.py",
           'check_int_at_least("samples_per_chip", self.samples_per_chip, _MIN_SAMPLES_PER_CHIP)',
           'check_int_at_least("samples_per_chip", self.samples_per_chip, 1)',
           "tests/test_waveform.py::test_sampling_config_validation"),
    killed("params-numpy-scalar", "mtsfm.py",
           "            if isinstance(getattr(self, name), np.generic):", "            if False:",
           "tests/test_mtsfm.py::test_numpy_scalars_are_stored_as_python_numbers"),
    # codes.py
    killed("taps-negative", "codes.py",
           "    if taps >> degree != 1:  # a negative mask shifts to -1 or less",
           "    if taps.bit_length() != degree + 1:",
           "tests/test_cli.py::test_gen_code_mseq_rejects_taps_of_the_wrong_degree[-0b1100000]"),
    # _validation.py and cli.py
    killed("float-vector-huge-int", "_validation.py",
           '        raise ValueError(f"{name} must be finite everywhere") from None',
           "        raise",
           "tests/test_cli.py::test_metrics_malformed_params_is_one_line_error[huge-int-alpha]"),
    killed("float-vector-ndim", "_validation.py",
           "    if arr.ndim != 1:", "    if False:",
           "tests/test_mtsfm.py::test_params_validation"),
    equivalent("os-replace", "cli.py",
               "            os.replace(tmp, path)", "            os.rename(tmp, path)",
               "on POSIX os.rename replaces an existing file as os.replace does; they "
               "differ only on Windows, where no test runs"),
]


def static_problem(m):
    """Why m's entry does not fit the tree, without running anything, or None:
    its old text must occur exactly once in its file (not at all if it is
    deleted), and the test a killed mutant names must be a test function of
    the named file."""
    source = (ROOT / PKG / m.file).read_text()
    if m.verdict == "deleted":
        return "still present" if m.old in source else None
    if source.count(m.old) != 1:
        return f"line not found once in {m.file}: {m.old.strip()!r}"
    if m.verdict == "killed":
        path, _, test = m.why.partition("::")
        name = test.split("[")[0]
        file = ROOT / path
        defined = rf"^def {re.escape(name)}\("
        if not (file.is_file() and re.search(defined, file.read_text(), re.M)):
            return f"no test function {m.why}"
    return None


def _run(m, scratch):
    """(held, message) for one mutant."""
    problem = static_problem(m)
    if problem or m.verdict == "deleted":
        return not problem, problem or "deleted"
    with tempfile.TemporaryDirectory(prefix=f"{m.name}-", dir=scratch) as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        path = tree / PKG / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "-W", "error::RuntimeWarning",
             "--ignore", "tests/test_mutants.py"],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True, text=True)
    if proc.returncode == 0:
        return m.verdict == "equivalent", "survived"
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    first = found.group(1) if found else f"exit {proc.returncode}"
    if m.verdict == "killed":
        return first == m.why, f"killed by {first}"
    return False, f"killed by {first}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--jobs", type=int, default=1, help="copies run at a time")
    parser.add_argument("--scratch", default=None, help="directory for the copies")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    failures = 0
    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        for m, (held, message) in zip(chosen, pool.map(lambda m: _run(m, args.scratch), chosen)):
            failures += not held
            print(f"{'ok  ' if held else 'FAIL'} {m.name:26} {m.verdict:10} {message}"
                  + ("" if held or m.verdict != "killed" else f" (expected {m.why})"),
                  flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} verdicts hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
