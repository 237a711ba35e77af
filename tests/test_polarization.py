import math

import numpy as np
import pytest

import schmidt_lab.polarization as polarization
from schmidt_lab.polarization import (
    BASIS,
    coherence,
    coherence_report,
    density_matrix_checks,
    mixture_decomposition,
    polarization_density_matrix,
)
from schmidt_lab.schmidt import schmidt_decompose
from schmidt_lab.spdc import spdc_grid, spdc_matrix, spdc_params
from schmidt_lab.tensor_core import AmplitudeMatrix, make_grid, normalize, sample_amplitude


def _matrix(entries, lo=-1.0, hi=1.0):
    entries = np.asarray(entries, dtype=complex)
    g = make_grid(lo, hi, lo, hi, entries.shape[0])
    return normalize(AmplitudeMatrix(entries=entries, grid=g, normalized=False))


def test_symmetric_amplitude_has_unit_coherence():
    rng = np.random.default_rng(21)
    for _ in range(10):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        sym = raw + raw.T
        assert coherence(_matrix(sym)) == pytest.approx(1.0, abs=1e-12)


def test_antisymmetric_amplitude_has_coherence_minus_one():
    A = _matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert coherence(A) == pytest.approx(-1.0, abs=1e-14)


def test_coherence_is_real_even_for_complex_amplitudes():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        f = coherence(_matrix(raw))
        assert abs(f.imag) <= 1e-14
        assert abs(f) <= 1.0 + 1e-12


def test_coherence_of_transpose_and_real_input():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    f = coherence(_matrix(raw))
    ft = coherence(_matrix(raw.T))
    assert ft == pytest.approx(f, abs=1e-14)
    real_f = coherence(_matrix(rng.normal(size=(4, 4))))
    assert abs(real_f.imag) == 0.0
    assert -1.0 - 1e-12 <= real_f.real <= 1.0 + 1e-12


def test_coherence_input_requirements():
    g = make_grid(-1.0, 1.0, -1.0, 1.0, 3)
    raw = AmplitudeMatrix(entries=np.eye(3, dtype=complex), grid=g, normalized=False)
    with pytest.raises(ValueError, match="normalized"):
        coherence(raw)
    asym = make_grid(-1.0, 1.0, 0.0, 2.0, 3)
    A = normalize(AmplitudeMatrix(entries=np.eye(3, dtype=complex), grid=asym, normalized=False))
    with pytest.raises(ValueError, match="window"):
        coherence(A)


def test_density_matrix_structure():
    for f in (1.0, 0.0, 0.37):
        rho = polarization_density_matrix(f).rho
        assert rho.shape == (4, 4)
        np.testing.assert_allclose(rho, rho.conj().T, atol=0)
        assert np.trace(rho).real == pytest.approx(1.0)
        # only the middle block (HV, VH) is populated
        assert np.all(rho[0] == 0) and np.all(rho[3] == 0)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        np.testing.assert_allclose(
            eigs, [0.0, 0.0, (1 - f) / 2.0, (1 + f) / 2.0], atol=1e-14
        )
    assert polarization_density_matrix(0.5).basis == BASIS
    with pytest.raises(ValueError, match="exceeds 1"):
        polarization_density_matrix(1.5)


def test_purity_formula():
    for f in np.arange(0.0, 1.0 + 1e-9, 0.01):
        rho = polarization_density_matrix(float(f)).rho
        purity = np.trace(rho @ rho).real
        assert abs(purity - (1.0 + f * f) / 2.0) <= 1e-12


def test_mixture_decomposition():
    (w_plus, v_plus), (w_minus, v_minus) = mixture_decomposition(0.37)
    assert w_plus == pytest.approx(0.685)
    assert w_minus == pytest.approx(0.315)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(v_plus, [0.0, s, s, 0.0], atol=1e-15)
    np.testing.assert_allclose(v_minus, [0.0, s, -s, 0.0], atol=1e-15)
    # the two weighted projectors reassemble the density matrix
    rho = w_plus * np.outer(v_plus, v_plus.conj()) + w_minus * np.outer(
        v_minus, v_minus.conj()
    )
    np.testing.assert_allclose(rho, polarization_density_matrix(0.37).rho, atol=1e-14)
    with pytest.raises(ValueError):
        mixture_decomposition(-0.1)
    with pytest.raises(ValueError):
        mixture_decomposition(0.3 + 0.1j)


def test_density_matrix_checks_report():
    rep = density_matrix_checks(polarization_density_matrix(0.37).rho)
    assert rep.trace_deviation <= 1e-15
    assert rep.hermiticity_deviation <= 1e-15
    assert rep.min_eigenvalue >= -1e-14
    assert rep.purity == pytest.approx((1.0 + 0.37**2) / 2.0)


def test_matched_walkoffs_give_bell_state():
    # equal ray constants make the amplitude symmetric, so the state is
    # the pure triplet Bell state within discretization error
    params = spdc_params(L=0.5, sigma=10.0, d_o=0.1, d_e=0.1)
    A = spdc_matrix(params, spdc_grid(params, n=128))
    f = coherence(A)
    rho = polarization_density_matrix(f).rho
    top = np.max(np.linalg.eigvalsh(rho))
    assert top >= 1.0 - 1e-10


def test_coherence_report_contents():
    params = spdc_params(L=0.5, sigma=10.0)
    A = spdc_matrix(params, spdc_grid(params, n=128))
    rep = coherence_report(A, result=schmidt_decompose(A))
    assert rep.weight_plus + rep.weight_minus == pytest.approx(1.0, abs=1e-14)
    assert rep.weight_plus == pytest.approx((1.0 + rep.F.real) / 2.0)
    assert rep.K >= 1.0
    assert rep.S >= 0.0
    assert rep.lambdas[0] >= rep.lambdas[-1]
    assert rep.messages == ()


def test_coherence_report_flags_imaginary_part(monkeypatch):
    params = spdc_params(L=0.5, sigma=10.0)
    A = spdc_matrix(params, spdc_grid(params, n=64))
    monkeypatch.setattr(polarization, "coherence", lambda _: 0.9 + 1e-6j)
    rep = polarization.coherence_report(A, schmidt_decompose(A, modes=False))
    assert any("imaginary" in m for m in rep.messages)


def test_sampled_symmetric_model_coherence():
    # discretized exp(-(p+q)^2) * sinc-free pump is exactly symmetric
    g = make_grid(-3.0, 3.0, -3.0, 3.0, 41)
    A = sample_amplitude(lambda p, q: np.exp(-((p + q) ** 2)), g)
    assert coherence(A) == pytest.approx(1.0, abs=1e-12)
