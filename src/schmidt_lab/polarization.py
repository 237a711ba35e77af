"""Polarization state of a frequency-entangled photon pair.

For a type-II pair the two-photon polarization sector is spanned by
|HV> and |VH>; tracing out the frequency degrees of freedom leaves a
4x4 density matrix in the ordered product basis (|HH>, |HV>, |VH>, |VV>)
fully characterized by one number, the coherence parameter

    F = sum_{j,k} A[j][k] conj(A[k][j]) = Tr(A conj(A)),

computed with plain complex conjugation (no transpose-conjugate).  F = 1
gives the pure Bell-like state (|HV> + |VH>)/sqrt(2); F = 0 an even
incoherent mixture of |HV> and |VH>.

No quadrature weights appear in F: on a uniform mesh the double Riemann
sum for the continuum integral carries a factor (dp dq), and the same
factor appears in the discrete normalization sum, so it cancels exactly
after Frobenius normalization.  The swap j <-> k maps each term to its
own conjugate, which also shows F is real for any matrix sampled on a
square symmetric window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import AmplitudeMatrix, Grid

BASIS = ("HH", "HV", "VH", "VV")
MODULUS_SLACK = 1e-12
IMAG_FLAG_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class PolarizationDensityMatrix:
    """4x4 polarization density matrix with its basis labels attached."""

    rho: np.ndarray
    basis: tuple = BASIS


@dataclass(frozen=True, eq=False)
class CoherenceReport:
    """Coherence F of an amplitude and the mixture weights it implies.

    weight_plus and weight_minus are the mixture weights (1 +- Re F)/2 of
    the symmetric and antisymmetric Bell-like states.  messages flags a
    non-negligible imaginary part of F instead of silently discarding it.
    """

    F: complex
    weight_plus: float
    weight_minus: float
    messages: tuple = ()


def check_shared_axis(g: Grid) -> None:
    """Raise ValueError unless p and q share one window, as psi(q, p) in F needs."""
    if g.p_min != g.q_min or g.p_max != g.q_max:
        raise ValueError(
            "coherence requires identical p and q windows, got "
            f"p in [{g.p_min}, {g.p_max}] vs q in [{g.q_min}, {g.q_max}]"
        )


def coherence(A: AmplitudeMatrix) -> complex:
    """Coherence parameter F of a normalized amplitude on a symmetric window.

    Raises
    ------
    ValueError
        If A is not normalized or its p and q windows differ
        (``check_shared_axis``).
    """
    if not A.normalized:
        raise ValueError("coherence requires a normalized AmplitudeMatrix")
    check_shared_axis(A.grid)
    return complex(np.sum(A.entries * A.entries.conj().T))


def polarization_density_matrix(F: complex) -> PolarizationDensityMatrix:
    """Assemble rho = 1/2 [[0,0,0,0],[0,1,F,0],[0,F*,1,0],[0,0,0,0]].

    Raises
    ------
    ValueError
        If |F| exceeds 1 beyond numerical slack.
    """
    F = complex(F)
    if abs(F) > 1.0 + MODULUS_SLACK:
        raise ValueError(f"|F| = {abs(F)!r} exceeds 1")
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = 0.5 * F
    rho[2, 1] = 0.5 * np.conj(F)
    return PolarizationDensityMatrix(rho=rho)


def mixture_decomposition(F):
    """Split rho(F) into its two Bell-like eigenstates for real F in [0, 1].

    Returns ((w_plus, v_plus), (w_minus, v_minus)) with weights (1 +- F)/2
    and v_pm = (0, 1, +-1, 0)/sqrt(2) in the (HH, HV, VH, VV) basis.

    Raises
    ------
    ValueError
        If F has a non-negligible imaginary part or lies outside [0, 1].
    """
    Fc = complex(F)
    if abs(Fc.imag) > MODULUS_SLACK:
        raise ValueError(f"mixture decomposition needs real F, got {F!r}")
    f = Fc.real
    if not -MODULUS_SLACK <= f <= 1.0 + MODULUS_SLACK:
        raise ValueError(f"F must lie in [0, 1], got {f!r}")
    f = min(max(f, 0.0), 1.0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    v_plus = np.array([0.0, inv_sqrt2, inv_sqrt2, 0.0], dtype=complex)
    v_minus = np.array([0.0, inv_sqrt2, -inv_sqrt2, 0.0], dtype=complex)
    return ((1.0 + f) / 2.0, v_plus), ((1.0 - f) / 2.0, v_minus)


@dataclass(frozen=True)
class DensityMatrixReport:
    """Diagnostics of a candidate density matrix; informational only."""

    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    purity: float


def density_matrix_checks(rho) -> DensityMatrixReport:
    """Report trace, Hermiticity, positivity and purity diagnostics."""
    rho = np.asarray(rho, dtype=complex)
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    sym = (rho + rho.conj().T) / 2.0
    return DensityMatrixReport(
        trace_deviation=float(abs(np.trace(rho) - 1.0)),
        hermiticity_deviation=herm_dev,
        min_eigenvalue=float(np.min(np.linalg.eigvalsh(sym))),
        purity=float(np.real(np.trace(rho @ rho))),
    )


def coherence_report(A: AmplitudeMatrix) -> CoherenceReport:
    """Bundle F of A with its mixture weights and any message about F."""
    F = coherence(A)
    messages = []
    if abs(F.imag) > IMAG_FLAG_THRESHOLD:
        messages.append(
            f"coherence has a non-negligible imaginary part {F.imag:.3e}; "
            "mixture weights use only the real part"
        )
    return CoherenceReport(
        F=F,
        weight_plus=(1.0 + F.real) / 2.0,
        weight_minus=(1.0 - F.real) / 2.0,
        messages=tuple(messages),
    )
