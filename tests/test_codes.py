import io

import numpy as np
import pytest

from mtsfm_cpm import (BARKER_LENGTHS, PRIMITIVE_TAPS, PhaseCode, barker_code,
                       dump_phase_code, generate_msequence, load_phase_code)


def lfsr_period(degree, taps, seed=1):
    """Steps until the register state recurs; maximal means 2**degree - 1."""
    state = seed
    toggle = taps >> 1
    for i in range(1, (1 << degree) + 1):
        bit = state & 1
        state >>= 1
        if bit:
            state ^= toggle
        if state == seed:
            return i
    return -1


def test_builtin_taps_are_maximal():
    for degree, taps in PRIMITIVE_TAPS.items():
        assert lfsr_period(degree, taps) == (1 << degree) - 1, f"degree {degree}"


@pytest.mark.parametrize("degree", [2, 3, 6, 8, 10])
def test_msequence_length(degree):
    code = generate_msequence(degree)
    assert code.n == (1 << degree) - 1
    assert set(code.phases.tolist()) == {0.0, np.pi}


def test_msequence_degree6_is_63_chips():
    assert generate_msequence(6).n == 63


def test_msequence_degree2_example():
    # x^2 + x + 1, seed 0b01: one phase value appears twice, the other once
    code = generate_msequence(2, taps=0b110, seed=0b01)
    assert code.n == 3
    n_pi = int(np.sum(code.phases == np.pi))
    assert sorted([n_pi, 3 - n_pi]) == [1, 2]


@pytest.mark.parametrize("taps", [0b11000000, 0b100000, 0, -1])
def test_msequence_rejects_taps_of_the_wrong_degree(taps):
    # none of these masks has x^6 as its highest term, and none gives an
    # m-sequence at degree 6
    with pytest.raises(ValueError, match="x\\^6"):
        generate_msequence(6, taps)


@pytest.mark.parametrize("degree", range(2, 11))
def test_msequence_balance(degree):
    # counts of the two phase values over a full period differ by exactly one
    code = generate_msequence(degree)
    n_pi = int(np.sum(code.phases == np.pi))
    n_zero = code.n - n_pi
    assert abs(n_pi - n_zero) == 1


def test_msequence_deterministic():
    a = generate_msequence(7, seed=19)
    b = generate_msequence(7, seed=19)
    assert np.array_equal(a.phases, b.phases)


def test_msequence_rejects_bad_args():
    # a seed wider than the register would be masked to another state's code
    for seed in (0, -1, 64, 65):
        with pytest.raises(ValueError, match="seed must be a positive register state"):
            generate_msequence(6, seed=seed)
    assert generate_msequence(6, seed=63).label.endswith("-seed63")
    with pytest.raises(ValueError):
        generate_msequence(1)
    with pytest.raises(ValueError):
        generate_msequence(17)


def code_autocorr(phases):
    """Discrete aperiodic autocorrelation of the unit chips, the brute-force way."""
    c = np.exp(1j * phases)
    n = len(c)
    return np.array([np.sum(c[m:] * np.conj(c[: n - m])) for m in range(n)])


@pytest.mark.parametrize("length", BARKER_LENGTHS)
def test_barker_sidelobes_at_most_one(length):
    code = barker_code(length)
    r = code_autocorr(code.phases)
    assert abs(r[0]) == pytest.approx(length)
    assert np.all(np.abs(r[1:]) <= 1 + 1e-12)


def test_barker_13_signs():
    code = barker_code(13)
    signs = np.where(code.phases == 0, 1, -1)
    assert signs.tolist() == [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]


def test_barker_2_variant():
    # the [+,-] variant is the documented choice
    assert barker_code(2).phases.tolist() == [0.0, np.pi]


def test_barker_unsupported_length():
    with pytest.raises(ValueError, match=r"2, 3, 4, 5, 7, 11, 13"):
        barker_code(6)


def test_load_phase_code_basic():
    text = "\n".join(str(0.1 * i) for i in range(65)) + "\n"
    code = load_phase_code(io.StringIO(text))
    assert code.n == 65
    assert code.phases[10] == pytest.approx(1.0)


def test_load_phase_code_single_line():
    assert load_phase_code(io.StringIO("0.0\n")).n == 1


def test_load_phase_code_comments_and_blanks():
    code = load_phase_code(io.StringIO("# header\n\n1.5\n  \n2.5\n"))
    assert code.phases.tolist() == [1.5, 2.5]


def test_load_phase_code_names_bad_line():
    with pytest.raises(ValueError, match="line 3"):
        load_phase_code(io.StringIO("0.0\n1.0\nabc\n"))
    with pytest.raises(ValueError, match="line 2"):
        load_phase_code(io.StringIO("0.0\nnan\n"))


def test_load_phase_code_empty():
    with pytest.raises(ValueError, match="empty"):
        load_phase_code(io.StringIO("# only a comment\n"))


def test_dump_load_round_trip(tmp_path):
    code = PhaseCode(np.array([0.0, np.pi, -1.2345678901234567]), label="x")
    path = tmp_path / "code.txt"
    dump_phase_code(code, path)
    back = load_phase_code(path)
    assert np.array_equal(back.phases, code.phases)


def test_phase_code_validation():
    with pytest.raises(ValueError):
        PhaseCode(np.array([]))
    with pytest.raises(ValueError):
        PhaseCode(np.array([0.0, np.inf]))
    code = PhaseCode([0.0, 1.0])
    with pytest.raises(ValueError):
        code.phases[0] = 5.0
