import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtsfm_cpm import (MtsfmParams, SamplingConfig, acf, acf_csv, barker_code,
                       compute_metrics, fit_fourier, load_phase_code, pc_phase, spectrum,
                       spectrum_csv, synthesize_mtsfm, synthesize_pc)
from mtsfm_cpm import cli, metrics
from mtsfm_cpm.cli import main
from mtsfm_cpm.mtsfm import _synthesize_with_phase
from mtsfm_cpm.waveform import _grid_text
from conftest import (acf_csv_oracle, fft_calls, phase_csv_oracle, spectrum_csv_oracle,
                      underflowing_tones, waveform_csv_oracle, weak_tones)

README = Path(__file__).resolve().parents[1] / "README.md"


def run(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + args)


def assert_phase_csv_synthesizes(path, params, n_samples):
    """The exported phase rebuilds the synthesized samples bit for bit."""
    phase = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
    w = synthesize_mtsfm(params, n_samples)
    assert np.array_equal(np.exp(1j * phase) / np.sqrt(params.T), w.samples)


def test_gen_code_mseq(tmp_path, capsys):
    assert run(["gen-code", "mseq", "--degree", "6", "--taps", "0b1100000",
                "--seed", "1"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "N=63" in out
    files = list(tmp_path.glob("mseq63*.txt"))
    assert len(files) == 1
    values = [ln for ln in files[0].read_text().splitlines()
              if ln and not ln.startswith("#")]
    assert len(values) == 63


@pytest.mark.parametrize("taps", ["0b11000000", "0b100000", "0", "-1", "-0b1100000"])
def test_gen_code_mseq_rejects_taps_of_the_wrong_degree(tmp_path, capsys, taps):
    out_dir = tmp_path / "out"
    assert run(["gen-code", "mseq", "--degree", "6", f"--taps={taps}", "--seed", "62"],
               out_dir) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: taps must have x^6")
    assert captured.err.endswith(f"got {format(int(taps, 0), '#b')}\n")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


def test_gen_code_barker(tmp_path, capsys):
    assert run(["gen-code", "barker", "--length", "13"], tmp_path) == 0
    assert "N=13" in capsys.readouterr().out
    assert (tmp_path / "barker13.txt").exists()


def test_gen_code_barker_bad_length(tmp_path, capsys):
    assert run(["gen-code", "barker", "--length", "6"], tmp_path) == 1
    assert "2, 3, 4, 5, 7, 11, 13" in capsys.readouterr().err


def test_fit_default_and_warning(tmp_path, capsys):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    code_file = str(tmp_path / "barker13.txt")
    assert run(["fit", code_file], tmp_path) == 0
    assert (tmp_path / "barker13_k7.json").exists()
    assert "warning" not in capsys.readouterr().err  # K at the bound is fine
    # below-bound harmonic count warns but still writes
    assert run(["fit", code_file, "-K", "3"], tmp_path) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "bound" in captured.err
    assert (tmp_path / "barker13_k3.json").exists()


def test_fit_params_round_trip(tmp_path):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    run(["fit", str(tmp_path / "barker13.txt"), "-K", "7", "-T", "13.0"], tmp_path)
    params = MtsfmParams.from_json((tmp_path / "barker13_k7.json").read_text())
    assert params.K == 7 and params.T == 13.0
    assert run(["metrics", str(tmp_path / "barker13_k7.json"), "--export", "phase"],
               tmp_path) == 0
    assert_phase_csv_synthesizes(tmp_path / "barker13_k7_phase.csv", params, 64 * 7)


def test_metrics_barker13(tmp_path, capsys):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    assert run(["metrics", str(tmp_path / "barker13.txt"),
                "--export", "spectrum,acf,waveform,phase"], tmp_path) == 0
    report = json.loads((tmp_path / "barker13_metrics.json").read_text())
    assert report["psl_db"] == pytest.approx(-22.28, abs=0.1)
    assert report["config"]["command"] == "metrics"
    for suffix in ("spectrum.csv", "acf.csv", "waveform.csv", "phase.csv"):
        assert (tmp_path / f"barker13_{suffix}").exists()
    assert (tmp_path / "barker13_spectrum.csv").read_text().startswith("f_hz,psd\n")


def assert_report_equals(path, report):
    """The JSON report at path holds report's fields, every value equal."""
    fields = json.loads(path.read_text())
    del fields["config"]
    assert fields == report._fields()


def test_reports_build_a_spectrum_only_for_its_export(tmp_path, monkeypatch, mseq63_fit32):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    run(["fit", str(tmp_path / "barker13.txt"), "-K", "7"], tmp_path)
    code_file = str(tmp_path / "barker13.txt")
    pfile = tmp_path / "mseq63_k32.json"
    pfile.write_text(mseq63_fit32.to_json())

    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum was built for a report")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "spectrum", refuse)
        assert run(["metrics", code_file, "--export", "acf,phase"], tmp_path) == 0
        assert run(["optimize", str(tmp_path / "barker13_k7.json"),
                    "--max-iterations", "2", "--samples", "208"], tmp_path) == 0
        assert run(["metrics", str(pfile)], tmp_path) == 0
    # a params file at its defaults: 64K samples, a band of 4K/T
    params = MtsfmParams.from_json(pfile.read_text())
    assert_report_equals(tmp_path / "mseq63_k32_metrics.json",
                         compute_metrics(synthesize_mtsfm(params, 64 * 32), 4 * 32 / 63.0))
    # n = 117 at zero-pad 1 is below 2L - 1, and n = 351 at zero-pad 3 is odd
    w = synthesize_pc(load_phase_code(code_file), SamplingConfig(13.0, 9))
    for pad in (1, 3):
        assert run(["--samples-per-chip", "9", "--zero-pad", str(pad), "metrics", code_file,
                    "--export", "spectrum"], tmp_path) == 0
        assert ((tmp_path / "barker13_spectrum.csv").read_bytes()
                == spectrum_csv(spectrum(w, pad)).encode())
        assert_report_equals(tmp_path / "barker13_metrics.json",
                             compute_metrics(w, 2.0, 10, pad))


def test_reports_build_an_acf_only_for_its_export(tmp_path, monkeypatch):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    run(["fit", str(tmp_path / "barker13.txt"), "-K", "7"], tmp_path)
    code_file = str(tmp_path / "barker13.txt")

    def refuse(*args, **kwargs):
        raise AssertionError("a two-sided ACF was built for a report")

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_autocorrelation", refuse)
        assert run(["metrics", code_file, "--export", "spectrum,phase"], tmp_path) == 0
        assert run(["optimize", str(tmp_path / "barker13_k7.json"),
                    "--max-iterations", "2", "--samples", "208"], tmp_path) == 0
    assert run(["--samples-per-chip", "9", "--zero-pad", "3", "metrics", code_file,
                "--export", "acf"], tmp_path) == 0
    w = synthesize_pc(load_phase_code(code_file), SamplingConfig(13.0, 9))
    assert (tmp_path / "barker13_acf.csv").read_bytes() == acf_csv(acf(w)).encode()


def test_acf_export_correlates_the_samples_once(tmp_path, monkeypatch):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    code_file = tmp_path / "barker13.txt"
    w = synthesize_pc(load_phase_code(code_file), SamplingConfig(13.0))
    n_fft = 1 << (2 * w.n_samples - 1).bit_length()  # next_pow2(2L)
    calls = fft_calls(monkeypatch)
    assert run(["metrics", str(code_file), "--export", "acf"], tmp_path) == 0
    assert [c for c in calls if c[0] == "fft"] == [("fft", (n_fft,))]
    assert (tmp_path / "barker13_acf.csv").read_bytes() == acf_csv(acf(w)).encode()


def test_phase_export_synthesizes_the_phase_once(tmp_path, monkeypatch):
    params = fit_fourier(barker_code(13), 13.0, 7)
    pfile = tmp_path / "barker13_k7.json"
    pfile.write_text(params.to_json())
    calls = fft_calls(monkeypatch)
    assert run(["metrics", str(pfile), "--export", "phase"], tmp_path) == 0
    assert [c for c in calls if c[0] == "irfft"] == [("irfft", (64 * 7,))]
    assert_phase_csv_synthesizes(tmp_path / "barker13_k7_phase.csv", params, 64 * 7)


def test_metrics_degenerate_params_is_not_an_error(tmp_path):
    params = MtsfmParams(0.0, np.zeros(8), np.zeros(8), 1.0)
    pfile = tmp_path / "flat.json"
    pfile.write_text(params.to_json())
    assert run(["metrics", str(pfile)], tmp_path) == 0
    report = json.loads((tmp_path / "flat_metrics.json").read_text())
    assert report["degenerate"] is True
    assert report["psl_db"] is None


def test_metrics_p_below_2_on_degenerate_input_writes_nothing(tmp_path, capsys):
    pfile = tmp_path / "flat.json"
    pfile.write_text(MtsfmParams(0.0, np.zeros(8), np.zeros(8), 1.0).to_json())
    out_dir = tmp_path / "out"
    assert run(["metrics", str(pfile), "--p", "1"], out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p must be >= 2" in err
    assert err.count("\n") == 1
    assert not out_dir.exists() or not any(out_dir.rglob("*"))


@pytest.mark.parametrize("text, message", [
    ('{"T": 1.0, "a0": 0.0, "beta": [0.1]}', "missing the key 'alpha'"),
    ('[1.0, 0.0, [0.1], [0.1]]', "object at the top level"),
    ('{"T": "1", "a0": 0.0, "alpha": [0.1], "beta": [0.1]}', "wrong type"),
    ('{"T": 63.0, "a0": [1.0], "alpha": [0.1, 0.2], "beta": [0.0, 0.1]}',
     "a0 has the wrong type"),
    ('{"T": true, "a0": 0.0, "alpha": [0.1], "beta": [0.1]}', "T has the wrong type"),
    ('{"T": 1%s, "a0": 0.0, "alpha": [0.1], "beta": [0.1]}' % ("0" * 400),
     "T must be positive and finite"),
    ('{"T": 1.0, "a0": 0.0, "alpha": [true, false], "beta": [0.1, 0.2]}',
     "alpha entries must be numbers, got True"),
    ('{"T": 1.0, "a0": 0.0, "alpha": [0.1, 0.2], "beta": ["1.5", "2"]}',
     "beta entries must be numbers, got '1.5'"),
    ('{"T": 1.0, "a0": 0.0, "alpha": {}, "beta": [0.1]}', "alpha must be a list, got {}"),
    ('{"T": 1.0, "a0": 1%s, "alpha": [0.1], "beta": [0.1]}' % ("0" * 400),
     "a0 must be finite"),
    ('{"T": 1.0, "a0": 0.0, "alpha": [1%s], "beta": [0.1]}' % ("0" * 400),
     "alpha must be finite everywhere"),
    ('{"T": 63.0, "a0": 0.0, "alpha": [1e308], "beta": [0.0]}', "alpha and beta are too large"),
    # 256 bins times a sample spacing of T / 64 overflow, so the bin spacing is 0
    ('{"T": 1e308, "a0": 0.0, "alpha": [0.1], "beta": [0.1]}',
     "zero_pad_factor=4 at T=1e+308 gives a spectrum grid of 256 bins, 0.0 Hz apart"),
], ids=["missing-alpha", "top-level-list", "string-T", "list-a0", "bool-T", "huge-int-T",
        "bool-alpha", "string-beta", "dict-alpha", "huge-int-a0", "huge-int-alpha",
        "phase-overflow", "huge-T"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metrics_malformed_params_is_one_line_error(tmp_path, capsys, text, message):
    pfile = tmp_path / "bad.json"
    pfile.write_text(text)
    assert run(["metrics", str(pfile)], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("export", ["bogus", "spectrum,bogus"])
def test_metrics_bad_export_writes_nothing(tmp_path, capsys, export):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    out_dir = tmp_path / "out"
    assert run(["metrics", str(tmp_path / "barker13.txt"), "--export", export],
               out_dir) == 1
    assert "unknown export 'bogus'" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_metrics_csv_format(tmp_path):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    assert run(["--format", "csv", "metrics", str(tmp_path / "barker13.txt")],
               tmp_path) == 0
    header, row = (tmp_path / "barker13_metrics.csv").read_text().strip().split("\n")
    assert header.split(",")[0] == "sc_fraction"
    assert float(row.split(",")[0]) == pytest.approx(0.9033, abs=0.01)


@pytest.mark.parametrize("command", ["optimize", "reproduce"])
def test_format_csv_applies_to_every_metrics_report(tmp_path, command):
    if command == "optimize":
        pfile = tmp_path / "barker13_k7.json"
        pfile.write_text(fit_fourier(barker_code(13), 13.0, 7).to_json())
        args = ["optimize", str(pfile), "--max-iterations", "2", "--samples", "208"]
        stems = ["barker13_k7_opt_before", "barker13_k7_opt_after"]
    else:
        args = ["reproduce", "mseq63", "--max-iterations", "2"]
        stems = [f"mseq63/{v}" for v in ("pc", "init_k32", "init_k64", "opt_k32")]
    out_dir = tmp_path / "out"
    assert run(["--format", "csv"] + args, out_dir) == 0
    assert not list(out_dir.rglob("*_metrics.json"))
    assert sorted(out_dir.rglob("*_metrics.csv")) == sorted(
        out_dir / f"{stem}_metrics.csv" for stem in stems)
    for stem in stems:
        header = (out_dir / f"{stem}_metrics.csv").read_text().split("\n")[0]
        assert header.split(",")[0] == "sc_fraction"


@pytest.mark.parametrize("command", ["metrics", "reproduce"])
def test_csv_metrics_report_carries_the_json_config(tmp_path, command):
    # a comma and a quote in the out-dir must stay inside one cell
    out_dir = tmp_path / 'out,"dir'
    if command == "metrics":
        run(["gen-code", "barker", "--length", "13"], out_dir)
        args, stem = ["metrics", str(out_dir / "barker13.txt"), "--export", "acf"], "barker13"
    else:
        args, stem = ["reproduce", "mseq63", "--max-iterations", "2"], "mseq63/opt_k32"
    assert run(args, out_dir) == 0
    assert run(["--format", "csv"] + args, out_dir) == 0
    report = json.loads((out_dir / f"{stem}_metrics.json").read_text())
    with open(out_dir / f"{stem}_metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    config = dict(report.pop("config"), format="csv")
    expected = {k: "" if v is None else str(v) for k, v in report.items()}
    expected.update((f"config_{k}", "" if v is None else str(v)) for k, v in config.items())
    assert rows[0] == expected
    assert rows[0]["config_out_dir"] == str(out_dir)


def test_optimize_zero_iterations_and_determinism(tmp_path):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    run(["fit", str(tmp_path / "barker13.txt"), "-K", "7"], tmp_path)
    pfile = str(tmp_path / "barker13_k7.json")
    args = ["optimize", pfile, "--max-iterations", "0", "--samples", "208"]
    assert run(args, tmp_path) == 0
    result = json.loads((tmp_path / "barker13_k7_opt.json").read_text())
    assert result["final_gisr_db"] == result["initial_gisr_db"]
    before = MtsfmParams.from_json((tmp_path / "barker13_k7.json").read_text())
    after = MtsfmParams.from_json(json.dumps(result["params"]))
    assert np.array_equal(after.alpha, before.alpha)

    args = ["optimize", pfile, "--max-iterations", "3", "--samples", "208"]
    assert run(args, tmp_path) == 0
    first = (tmp_path / "barker13_k7_opt_trace.csv").read_bytes()
    assert run(args, tmp_path) == 0
    second = (tmp_path / "barker13_k7_opt_trace.csv").read_bytes()
    assert first == second
    assert (tmp_path / "barker13_k7_opt_before_metrics.json").exists()
    assert (tmp_path / "barker13_k7_opt_after_metrics.json").exists()


def test_optimize_rejects_zero_params(tmp_path, capsys):
    params = MtsfmParams(0.0, np.zeros(4), np.zeros(4), 1.0)
    pfile = tmp_path / "flat.json"
    pfile.write_text(params.to_json())
    assert run(["optimize", str(pfile), "--max-iterations", "1",
                "--samples", "64"], tmp_path) == 1
    assert "zero" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimize_rejects_an_overflowing_bandwidth(tmp_path, capsys):
    # finite coefficients whose squared RMS bandwidth overflows to inf
    pfile = tmp_path / "huge.json"
    pfile.write_text('{"T": 1.0, "a0": 0.0, "alpha": [1e154], "beta": [1e154]}')
    out_dir = tmp_path / "out"
    assert run(["optimize", str(pfile), "--max-iterations", "2"], out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bandwidth overflows" in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, message", [
    ('{"T": 1e-160, "a0": 0.0, "alpha": [0.1], "beta": [0.1]}', "bandwidth overflows"),
    ('{"T": 63.0, "a0": 0.0, "alpha": [1e308], "beta": [0.0]}', "alpha and beta are too large"),
], ids=["tiny-T", "phase-overflow"])
def test_optimize_rejects_a_start_it_cannot_synthesize_or_band(tmp_path, capsys, text, message):
    pfile = tmp_path / "start.json"
    pfile.write_text(text)
    out_dir = tmp_path / "out"
    assert run(["optimize", str(pfile)], out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["metrics", "optimize"])
def test_a_p_whose_power_sum_underflows_is_one_line_error(tmp_path, capsys, command):
    pfile = tmp_path / "tones.json"
    pfile.write_text(underflowing_tones().to_json())
    out_dir = tmp_path / "out"
    assert run([command, str(pfile), "--p", str(10 ** 20)], out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p = 100000000000000000000 is too large")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("args, message", [
    (["--zero-pad", "1000000000000000", "metrics", "barker13.txt"],
     "zero_pad_factor=1000000000000000 at T=13.0 gives"),
    (["--zero-pad", "10000000000000000", "metrics", "barker13.txt"],
     "zero_pad_factor=10000000000000000 at T=13.0 gives"),
    (["--zero-pad", "30000000000000000", "metrics", "barker13.txt"],
     "zero_pad_factor=30000000000000000 at T=13.0 gives"),
    (["metrics", "barker13.txt", "-T", "2e307"], "T=2e+307 is too large for 13 chips"),
], ids=["zero-pad-1e15", "zero-pad-1e16", "zero-pad-3e16", "T-2e307"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_grid_too_fine_or_a_pulse_too_long_is_one_line_error(tmp_path, capsys,
                                                                 monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert run(args, out_dir) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert not out_dir.exists()


def test_optimize_degenerate_start_is_one_line_error(tmp_path, capsys):
    pfile = tmp_path / "weak.json"
    pfile.write_text(weak_tones().to_json())
    out_dir = tmp_path / "out"
    assert run(["optimize", str(pfile), "--samples", "64"], out_dir) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "no interior null" in captured.err
    assert not out_dir.exists()


def test_reproduce_mseq63_table_matches_readme(tmp_path, capsys):
    assert run(["reproduce", "mseq63"], tmp_path) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[-1] == f"outputs -> {tmp_path / 'mseq63'}"
    block = re.search(r"`reproduce mseq63` ends with a table like:\n\n```\n(.*?)```",
                      README.read_text(), re.S)
    assert table[:-1] == block.group(1).splitlines()


def test_reproduce_mseq63_fast_and_deterministic(tmp_path, capsys):
    args = ["reproduce", "mseq63", "--max-iterations", "2"]
    assert run(args, tmp_path) == 0
    out_dir = tmp_path / "mseq63"
    for name in ("pc_code.txt", "pc_metrics.json", "pc_spectrum.csv", "pc_acf.csv",
                 "pc_phase.csv", "fit_k32.json", "fit_k64.json",
                 "init_k32_metrics.json", "init_k64_metrics.json",
                 "opt_k32_result.json", "opt_k32_trace.csv", "opt_k32_metrics.json",
                 "summary.json"):
        assert (out_dir / name).exists(), name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["variants"]) == {"pc", "init_k32", "init_k64", "opt_k32"}
    assert summary["variants"]["pc"]["sc_fraction"] == pytest.approx(0.9027, abs=0.01)
    assert summary["variants"]["init_k64"]["sc_fraction"] == pytest.approx(0.9151, abs=0.015)
    assert summary["variants"]["init_k32"]["sc_fraction"] == pytest.approx(0.9885, abs=0.015)
    table = capsys.readouterr().out
    assert "pc" in table and "opt_k32" in table
    opt = json.loads((out_dir / "opt_k32_result.json").read_text())["params"]
    for variant, params in (
            ("init_k32", (out_dir / "fit_k32.json").read_text()),
            ("init_k64", (out_dir / "fit_k64.json").read_text()),
            ("opt_k32", json.dumps(opt))):
        assert_phase_csv_synthesizes(out_dir / f"{variant}_phase.csv",
                                     MtsfmParams.from_json(params), 63 * 32)

    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(first) == 22
    assert run(args, tmp_path) == 0  # in process: the CSV grid columns come cached
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first


@pytest.mark.parametrize("args", [
    ["reproduce", "mseq63", "--delta", "2"],
    ["reproduce", "mseq63", "--p", "1"],
    ["--zero-pad", "0", "reproduce", "mseq63"],
    ["--zero-pad", "0", "optimize", "{params}"],
    ["--zero-pad", "1" + "0" * 400, "metrics", "{params}"],
    ["metrics", "{code}", "--p", "1" + "0" * 400],
    # 13.6 PiB: beyond any 47-bit address space, so it fails at once under
    # any overcommit policy, and below numpy's size limit, so it is a
    # MemoryError; the report alone never forms the padded spectrum
    ["--zero-pad", "10000000000000", "metrics", "{code}", "--export", "spectrum"],
    ["optimize", "{params}", "--delta-f", "-1"],
    ["metrics", "{params}", "--samples", "0"],
    ["fit", "{code}", "-K", "0"],
    ["gen-code", "mseq", "--degree", "6", "--seed", "-1"],
    ["optimize", "{params}", "--p", "abc"],
    ["optimize", "{params}", "--log-every", "2"],
    [],
], ids=["reproduce-delta", "reproduce-p", "reproduce-zero-pad", "optimize-zero-pad",
        "metrics-huge-zero-pad", "metrics-huge-p", "unallocatable-spectrum",
        "optimize-delta-f", "metrics-samples-zero", "fit-zero-harmonics",
        "gen-code-negative-seed",
        "usage-p-not-int", "usage-unknown-flag", "usage-no-subcommand"])
def test_bad_flag_writes_nothing(tmp_path, capsys, args):
    pfile = tmp_path / "barker13_k7.json"
    pfile.write_text(MtsfmParams(0.0, np.full(7, 0.1), np.zeros(7), 13.0).to_json())
    code_file = tmp_path / "code3.txt"
    code_file.write_text("0.0\n3.141592653589793\n0.0\n")
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir)]
                + [a.format(params=pfile, code=code_file) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_dir.exists() or not any(out_dir.rglob("*"))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mtsfm-cpm optimize")


def test_parser_carries_nothing_between_calls(tmp_path, capsys):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    code_file = str(tmp_path / "barker13.txt")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out-dir", str(first), "--format", "csv", "metrics", code_file,
                 "--export", "acf"]) == 0
    assert main(["--out-dir", str(second), "metrics", code_file]) == 0
    assert sorted(p.name for p in first.iterdir()) == ["barker13_acf.csv",
                                                       "barker13_metrics.csv"]
    assert [p.name for p in second.iterdir()] == ["barker13_metrics.json"]
    report = json.loads((second / "barker13_metrics.json").read_text())
    assert report["config"]["format"] == "json" and report["config"]["export"] is None
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mtsfm-cpm")
    assert cli.build_parser() is cli.build_parser()


def test_metrics_flags_a_clamped_band(tmp_path):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    assert run(["metrics", str(tmp_path / "barker13.txt"), "--delta-f", "1e9"], tmp_path) == 0
    report = json.loads((tmp_path / "barker13_metrics.json").read_text())
    assert report["sc_clamped"] is True


def _no_nonfinite(token):
    raise AssertionError(f"non-finite JSON value {token}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["optimize", "{fit}", "--p", "700"],
    ["metrics", "{fit}", "--p", "700"],
    ["reproduce", "mseq63", "--p", "700"],
    ["reproduce", "mseq63", "--p", "400", "--max-iterations", "4"],
], ids=["optimize-p700", "metrics-p700", "reproduce-p700", "reproduce-p400"])
def test_large_p_writes_finite_outputs(tmp_path, capsys, args):
    # |R|^p of a Barker-13 fit's sidelobes (about 0.08) at p = 700, or of
    # the mseq63 sidelobes along a p = 400 run, is below the smallest
    # double; the peak-scaled sums never are
    fit_file = tmp_path / "barker13_fit.json"
    fit_file.write_text(fit_fourier(barker_code(13), 13.0, 7).to_json())
    out_dir = tmp_path / "out"
    assert run([a.format(fit=fit_file) for a in args], out_dir) == 0
    assert capsys.readouterr().err == ""
    reports = list(out_dir.rglob("*.json"))
    assert reports
    if args[0] == "reproduce":
        assert len(list((out_dir / "mseq63").iterdir())) == 22
    for path in reports:
        json.loads(path.read_text(), parse_constant=_no_nonfinite)


def test_failed_rerun_keeps_earlier_outputs(tmp_path, capsys):
    assert run(["reproduce", "mseq63", "--max-iterations", "2"], tmp_path) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert len(before) == 22
    assert run(["reproduce", "mseq63", "--p", "1"], tmp_path) == 1
    assert "p must be >= 2" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_directory_target_renames_nothing(tmp_path, capsys):
    blocker = tmp_path / "mseq63" / "summary.json"
    blocker.mkdir(parents=True)
    assert run(["reproduce", "mseq63", "--max-iterations", "2"], tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing is reported for files that never appeared
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(f"'{blocker}'") and "summary.json." not in err
    assert sorted(tmp_path.rglob("*")) == [blocker.parent, blocker]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_outputs_take_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        assert run(["reproduce", "mseq63", "--max-iterations", "2"], tmp_path) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "mseq63").iterdir()}
    assert len(modes) == 22
    assert set(modes.values()) == {0o644}, modes


def test_commands_stage_beside_their_targets_and_clean_up(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["gen-code", "barker", "--length", "13"], out) == 0
    code_file = str(out / "barker13.txt")
    assert run(["metrics", code_file, "--export", "acf"], out) == 0
    names = ["barker13.txt", "barker13_acf.csv", "barker13_metrics.json"]
    assert sorted(p.name for p in out.iterdir()) == names
    before = {p: p.read_bytes() for p in out.iterdir()}
    # a failure after files are staged: in the same out-dir, and in new directories
    for out_dir in (out, out / "new" / "deeper"):
        assert run(["metrics", code_file, "--export", "acf,waveform,bogus"], out_dir) == 1
        assert "unknown export 'bogus'" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.iterdir()} == before
    # a rerun commits over the earlier files
    assert run(["metrics", code_file, "--export", "acf"], out) == 0
    assert {p: p.read_bytes() for p in out.iterdir()} == before


def reproduce_oracles(out_dir):
    """{file name: oracle text} of every CSV export of reproduce mseq63."""
    code = load_phase_code(out_dir / "pc_code.txt")
    w = synthesize_pc(code, SamplingConfig(63.0))
    variants = {"pc": (w, pc_phase(code, 63.0, w.times))}
    opt = json.loads((out_dir / "opt_k32_result.json").read_text())["params"]
    for name, text in (("init_k32", (out_dir / "fit_k32.json").read_text()),
                       ("init_k64", (out_dir / "fit_k64.json").read_text()),
                       ("opt_k32", json.dumps(opt))):
        variants[name] = _synthesize_with_phase(MtsfmParams.from_json(text), 63 * 32)
    texts = {}
    for name, (w, phase) in variants.items():
        texts[f"{name}_spectrum.csv"] = spectrum_csv_oracle(spectrum(w))
        texts[f"{name}_acf.csv"] = acf_csv_oracle(acf(w))
        texts[f"{name}_phase.csv"] = phase_csv_oracle(w.times, phase)
    return texts


def metrics_oracles(out_dir):
    """{file name: oracle text} of every CSV export of metrics on pc_code.txt."""
    code = load_phase_code(out_dir / "pc_code.txt")
    w = synthesize_pc(code, SamplingConfig(63.0))
    return {"pc_code_spectrum.csv": spectrum_csv_oracle(spectrum(w)),
            "pc_code_acf.csv": acf_csv_oracle(acf(w)),
            "pc_code_waveform.csv": waveform_csv_oracle(w),
            "pc_code_phase.csv": phase_csv_oracle(w.times, pc_phase(code, 63.0, w.times))}


@pytest.mark.parametrize("command", ["reproduce", "metrics"])
def test_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, command):
    code_file = tmp_path / "pc_code.txt"
    assert run(["gen-code", "mseq", "--degree", "6", "--taps", "0b1100000",
                "--seed", "62", "-o", str(code_file)], tmp_path) == 0
    args, out_dir, oracles = {
        "reproduce": (["reproduce", "mseq63", "--max-iterations", "2"],
                      tmp_path / "out" / "mseq63", reproduce_oracles),
        "metrics": (["metrics", str(code_file),
                     "--export", "spectrum,acf,waveform,waveform-raw,phase"],
                    tmp_path / "out", metrics_oracles)}[command]
    runs = {}
    for cpus in (1, 3, "no fork"):
        with monkeypatch.context() as m:
            if cpus == "no fork":
                m.delattr(os, "fork")
            else:
                m.setattr(cli, "_cpus", lambda: cpus)
            _grid_text.cache_clear()  # each run formats its grid columns anew
            assert run(args, tmp_path / "out") == 0
        runs[cpus] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert_no_child_left()
    assert runs[3] == runs[1] and runs["no fork"] == runs[1]
    expected = oracles(tmp_path if command == "metrics" else out_dir)
    assert len(expected) == sum(name.endswith(".csv") and "trace" not in name
                                for name in runs[1])
    for name, text in expected.items():
        assert runs[1][name].decode() == text, name


def test_reproduce_deals_each_cpu_two_texts_of_each_kind(tmp_path, monkeypatch):
    parent, shares = os.getpid(), []
    fork, format_share = cli._fork, cli._format_share

    def kinds(share):
        names = [Path(tmp).name.split(".")[0] for tmp, _ in share]
        return sorted(name.rsplit("_", 1)[1] for name in names)

    def forking(share):
        shares.append(kinds(share))
        return fork(share)

    def formatting(share):
        if os.getpid() == parent:
            shares.append(kinds(share))
        format_share(share)

    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_fork", forking)
    monkeypatch.setattr(cli, "_format_share", formatting)
    assert run(["reproduce", "mseq63", "--max-iterations", "2"], tmp_path) == 0
    assert shares == [["acf", "acf", "phase", "phase", "spectrum", "spectrum"]] * 2
    assert_no_child_left()


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_a_formatter_that_raises_leaves_nothing(tmp_path, monkeypatch, capsys, where):
    parent = os.getpid()

    def failing(format):
        def wrapped(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError(f"formatter failed in the {where}")
            return format(*args)
        return wrapped

    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    for name in ("spectrum_csv", "acf_csv", "_phase_csv"):
        monkeypatch.setattr(cli, name, failing(getattr(cli, name)))
    out_dir = tmp_path / "a" / "b"
    assert run(["reproduce", "mseq63", "--max-iterations", "2"], out_dir) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"formatter failed in the {where}" in captured.err
    assert not any(tmp_path.iterdir())
    assert_no_child_left()

    monkeypatch.undo()
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    assert run(["reproduce", "mseq63", "--max-iterations", "2"], out_dir) == 0
    assert len(list((out_dir / "mseq63").iterdir())) == 22
    assert_no_child_left()


def test_unexpected_exception_propagates_and_writes_nothing(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "optimize", interrupted)
    out_dir = tmp_path / "a" / "b"
    with pytest.raises(KeyboardInterrupt):
        run(["reproduce", "mseq63"], out_dir)
    assert not any(tmp_path.iterdir())


def test_criterion_4_through_the_cli(tmp_path):
    # the defaults take L = 64K = 2048 samples, not the library tests' 2016
    assert run(["gen-code", "mseq", "--degree", "6", "--taps", "0b1100000",
                "--seed", "62"], tmp_path) == 0
    assert run(["fit", str(tmp_path / "mseq63-taps0b1100000-seed62.txt"), "-K", "32"],
               tmp_path) == 0
    args = ["--out-dir", str(tmp_path), "optimize",
            str(tmp_path / "mseq63-taps0b1100000-seed62_k32.json")]
    assert main(args) == 0
    stem = "mseq63-taps0b1100000-seed62_k32_opt"
    result = json.loads((tmp_path / f"{stem}.json").read_text())
    assert result["termination_reason"] == "converged"
    # the L-BFGS memory survives band-edge changes
    assert result["n_evaluations"] < 150
    rows = (tmp_path / f"{stem}_trace.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(len(rows)))
    assert len(rows) == result["n_trace_records"]

    # the result records its arguments, paths included, so a rerun with the
    # same ones in a new process rewrites the four files byte for byte
    names = [f"{stem}{suffix}" for suffix in (".json", "_trace.csv", "_before_metrics.json",
                                              "_after_metrics.json")]
    first = {name: (tmp_path / name).read_bytes() for name in names}
    subprocess.run([sys.executable, "-m", "mtsfm_cpm.cli"] + args, check=True,
                   capture_output=True)
    assert {name: (tmp_path / name).read_bytes() for name in names} == first


def test_reproduce_poly65_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run(["reproduce", "poly65", "--code-file", str(missing)], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Transcribe" in err and "data/README.md" in err


def test_reproduce_poly65_wrong_length(tmp_path, capsys):
    bad = tmp_path / "short.txt"
    bad.write_text("0.0\n1.0\n")
    assert run(["reproduce", "poly65", "--code-file", str(bad)], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "N=2" in err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mtsfm_cpm.cli", "--out-dir", str(tmp_path),
         "gen-code", "barker", "--length", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "N=5" in proc.stdout
