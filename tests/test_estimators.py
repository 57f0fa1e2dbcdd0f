"""Defaults and input checks of the fit-then-optimize path: fit_fourier,
optimize and the CLI's fit command."""

import warnings

import pytest

from mtsfm_cpm import (MtsfmParams, OptimizerConfig, PhaseCode, barker_code,
                       fit_fourier, min_harmonics, optimize)
from mtsfm_cpm.cli import main


def run(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + args)


def test_optimizer_estimator_takes_integral_floats():
    # every count of the path, K of the fit and the optimizer's iterations
    # and samples, runs as the int it equals
    floats = optimize(fit_fourier(barker_code(13), 13.0, 7.0),
                      OptimizerConfig(max_iterations=3.0, n_samples=208.0))
    ints = optimize(fit_fourier(barker_code(13), 13.0, 7),
                    OptimizerConfig(max_iterations=3, n_samples=208))
    assert type(floats.params.K) is int
    assert floats.to_json() == ints.to_json()


def test_smoother_defaults_to_bound_and_chip_seconds(tmp_path):
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    assert run(["fit", str(tmp_path / "barker13.txt")], tmp_path) == 0
    params = MtsfmParams.from_json((tmp_path / "barker13_k7.json").read_text())
    # K defaults to the bound ceil(N/2) and T to one second per chip
    assert params.K == min_harmonics(13)
    assert params.T == 13.0


def test_smoother_rejects_invalid_harmonics_without_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^K must be an integer >= 1, got 0"):
            fit_fourier(PhaseCode([0.0, 3.141592653589793]), 2.0, 0)
    # the CLI rejects K = 0 before its below-bound warning, and writes nothing
    run(["gen-code", "barker", "--length", "13"], tmp_path)
    capsys.readouterr()
    assert run(["fit", str(tmp_path / "barker13.txt"), "-K", "0"], tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: K must be")
    assert "warning" not in captured.err
    assert not (tmp_path / "barker13_k0.json").exists()
