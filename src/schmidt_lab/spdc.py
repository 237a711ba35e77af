"""Collinear frequency-degenerate type-II down-conversion biphoton amplitude.

In scaled detunings (p for the ordinary ray, q for the extraordinary ray)
the joint amplitude factors into a Gaussian pump envelope exp(-(p+q)^2)
and a sinc phase-matching profile whose arguments carry the two
dimensionless walk-off parameters

    X_o = d_o * L * sigma,   X_e = d_e * L * sigma,

with L the crystal length (mm), sigma the pump bandwidth (1/ps) and
d_o, d_e the group-delay mismatches per unit length (ps/mm).  Everything
downstream depends on (L, sigma) only through these products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError
from .polarization import coherence
from .schmidt import DecompositionOptions, SchmidtResult, schmidt_decompose
from .tensor_core import AmplitudeMatrix, Grid, grown_grid, make_grid, sample_amplitude

DEFAULT_D_O = 0.076
DEFAULT_D_E = 0.266
DEFAULT_N = 512
# Half-width of the automatic square window, set by the slowly decaying
# sinc tail, not by the pump Gaussian; spdc_probe guards it.
HALF_WIDTH = 40.0
SINC_SERIES_CUTOFF = 1e-4
# Largest tolerated sinc phase advance per mesh step.  Empirically the
# spectrum is converged to ~1e-4 well below this; the guard only catches
# grids that genuinely cannot represent the oscillation.
MAX_PHASE_STEP = math.pi / 2.0
# Window growth of spdc_probe by whole mesh steps (``tensor_core.grown_grid``).
SPDC_PROBE_FACTOR = 1.5


@dataclass(frozen=True)
class SpdcParams:
    """Crystal/pump parameters with derived dimensionless walk-offs."""

    L: float
    sigma: float
    d_o: float = DEFAULT_D_O
    d_e: float = DEFAULT_D_E

    @property
    def X_o(self) -> float:
        return self.d_o * self.L * self.sigma

    @property
    def X_e(self) -> float:
        return self.d_e * self.L * self.sigma


def spdc_params(
    L: float, sigma: float, d_o: float = DEFAULT_D_O, d_e: float = DEFAULT_D_E
) -> SpdcParams:
    """Validate and build SpdcParams.

    Raises
    ------
    ValueError
        For non-positive L or sigma, non-finite d_o or d_e, or walk-offs
        X_o, X_e that overflow.
    """
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"crystal length must be positive, got {L!r}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"pump bandwidth must be positive, got {sigma!r}")
    for name, d in (("d_o", d_o), ("d_e", d_e)):
        if not np.isfinite(d):
            raise ValueError(f"group delay {name} must be finite, got {d!r}")
    params = SpdcParams(float(L), float(sigma), float(d_o), float(d_e))
    if not (np.isfinite(params.X_o) and np.isfinite(params.X_e)):
        raise ValueError(
            f"walk-offs X_o={params.X_o!r}, X_e={params.X_e!r} overflow; reduce L, sigma, d_o or d_e"
        )
    return params


def pump_envelope(p, q):
    """Gaussian pump spectral profile exp(-(p+q)^2); symmetric in p, q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.add(p, q, out=np.empty(np.broadcast_shapes(p.shape, q.shape)))
    np.square(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    return float(out) if out.ndim == 0 else out


def phase_matching(X_o: float, X_e: float, p, q):
    """Crystal phase-matching profile sinc(0.5 (X_o p + X_e q)).

    With a = 0.5 X_o p and b = 0.5 X_e q the numerator is
    sin(a + b) = sin a cos b + cos a sin b, a product of broadcast factors,
    so open mesh vectors cost O(n) trig calls and scalars or full arrays
    work the same way.  The division is by x = a + b.  Where |x| < 1 the
    addition formula's ~eps absolute error would be magnified by 1/|x|, so
    those entries are evaluated from x directly: sin(x)/x, or below
    |x| = 1e-4 the even series 1 - x^2/6 + x^4/120.  Elsewhere the result
    is within 8 eps of sin(x)/x.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a = X_o * p
    a *= 0.5
    b = X_e * q
    b *= 0.5
    shape = np.broadcast_shapes(a.shape, b.shape)
    # Two buffers: out holds the numerator, then the quotient; x holds
    # sin a cos b, then a + b (bit for bit 0.5 (X_o p + X_e q)), then |x|.
    out = np.multiply(np.cos(a), np.sin(b), out=np.empty(shape))
    x = np.multiply(np.sin(a), np.cos(b), out=np.empty(shape))
    out += x
    np.add(a, b, out=x)
    with np.errstate(divide="ignore", invalid="ignore"):  # x == 0 is redone below
        out /= x
    near = np.abs(x, out=x) < 1.0  # sinc is even
    x = x[near]  # frees the n x n buffer
    out[near] = _sinc_direct(x)
    return float(out) if out.ndim == 0 else out


def _sinc_direct(x: np.ndarray) -> np.ndarray:
    """sin(x)/x of a 1-D array of 0 <= x < 1, by the series below the cutoff."""
    small = x < SINC_SERIES_CUTOFF
    out = np.sin(x)
    np.divide(out, x, out=out, where=~small)
    xs = x[small]
    out[small] = 1.0 - xs**2 / 6.0 + xs**4 / 120.0
    return out


def biphoton_amplitude(params: SpdcParams, p, q):
    """Unnormalized joint amplitude: pump envelope times phase matching.

    Real-valued; normalization happens at the matrix level.
    """
    out = phase_matching(params.X_o, params.X_e, p, q)
    out *= pump_envelope(p, q)  # in place for arrays
    return out


def required_n(params: SpdcParams, half_width: float) -> int:
    """Smallest node count keeping the sinc phase step below the limit."""
    span = 2.0 * half_width
    steepest = 0.5 * max(abs(params.X_o), abs(params.X_e)) * span
    return max(2, int(math.ceil(steepest / MAX_PHASE_STEP)) + 1)


def spdc_grid(params: SpdcParams, n: int = DEFAULT_N) -> Grid:
    """Square window [-HALF_WIDTH, HALF_WIDTH]^2 for the biphoton amplitude.

    The window is not checked against the sinc oscillation here:
    spdc_matrix does that for every grid it samples.
    """
    return make_grid(-HALF_WIDTH, HALF_WIDTH, -HALF_WIDTH, HALF_WIDTH, n)


def check_resolution(params: SpdcParams, grid: Grid) -> None:
    """Raise if a grid under-resolves the sinc oscillation of ``params``.

    Raises
    ------
    ConvergenceError
        Naming the smallest adequate node count for the given window.
    """
    step = 0.5 * max(abs(params.X_o) * grid.dp, abs(params.X_e) * grid.dq)
    if step > MAX_PHASE_STEP:
        span = max(grid.p_max - grid.p_min, grid.q_max - grid.q_min)
        need = required_n(params, 0.5 * span)
        raise ConvergenceError(
            f"n={grid.n} under-resolves the phase-matching oscillation "
            f"(phase step {step:.3f} rad exceeds {MAX_PHASE_STEP:.3f}); "
            f"use n >= {need}"
        )


def spdc_matrix(params: SpdcParams, grid: Grid) -> AmplitudeMatrix:
    """Sample the biphoton amplitude on a grid, normalized.

    The sinc comes from 1-D factors (``phase_matching``).  When p and q
    share one window, as ``check_shared_axis`` requires and every CLI SPDC
    run has, the pump exp(-(p_i + q_j)^2) depends on i + j alone: its
    2n - 1 values, taken down the first column and along the last row, are
    read through a Hankel view with no n x n pump array.  Other windows
    multiply in ``pump_envelope(p, q)``.  Entries match an n x n
    evaluation of ``biphoton_amplitude`` within (16 ulp(W) + 16 eps) max|A|,
    W the largest |node|: the pump sums p_i + q_j round differently.

    Raises
    ------
    ConvergenceError
        If the grid under-resolves the sinc oscillation.
    """
    check_resolution(params, grid)
    if grid.p_min != grid.q_min or grid.p_max != grid.q_max:
        return sample_amplitude(lambda p, q: biphoton_amplitude(params, p, q), grid)
    t = grid.p_nodes()
    edge = np.concatenate((pump_envelope(t, t[0]), pump_envelope(t[-1], t[1:])))
    pump = sliding_window_view(edge, grid.n)  # pump[i, j] = edge[i + j]

    def amplitude(p, q):
        out = phase_matching(params.X_o, params.X_e, p, q)
        out *= pump
        return out

    return sample_amplitude(amplitude, grid)


def spdc_probe(params: SpdcParams, grid: Grid, opts: DecompositionOptions) -> tuple[SchmidtResult, complex]:
    """Values-only decomposition and coherence F on the window probe of ``grid``.

    The probe window is ``grown_grid(grid, SPDC_PROBE_FACTOR)``: the mesh
    spacing of ``grid``, and nodes that contain its nodes.

    Raises
    ------
    ConvergenceError
        If the probe grid under-resolves the sinc oscillation.
    """
    A = spdc_matrix(params, grown_grid(grid, SPDC_PROBE_FACTOR))
    return schmidt_decompose(A, opts, modes=False), coherence(A)
