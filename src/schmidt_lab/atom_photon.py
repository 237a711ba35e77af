"""Spontaneous-emission model: entangled atom-photon amplitudes and dynamics.

The model lives in dimensionless variables: xi0 is the atom-to-photon
mass-scale parameter, eta the recoil-to-packet coupling, tau the elapsed
time in decay units.  Two representations are provided:

* coordinate: psi(p, q) with p the photonic and q the atomic coordinate,
  a decaying exponential behind the light front p = tau times a Gaussian
  in the center-of-inertia combination p + q;
* momentum: psi(nu_ph, pi_a) with a Lorentzian line shape in the photon
  detuning and a Gaussian atomic packet, valid in the long-time regime.

Analytical companions: Laguerre-based approximate modes of the coordinate
amplitude, the two-level zero-order dynamics (K0, S0), and the closed-form
asymptotics of K and S for small eta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .schmidt import (
    DecompositionOptions,
    SchmidtResult,
    entanglement_entropy,
    schmidt_decompose,
    schmidt_number,
)
from .tensor_core import AmplitudeMatrix, Grid, grown_grid, make_grid, sample_amplitude

TAU_APPLICABILITY_WARN = 3.0
DEFAULT_N = 400
# The automatic windows of coord_grid and momentum_grid.
COORD_DECAY_SPAN = 40.0
COORD_SIGMA_MARGIN = 6.0
MOMENTUM_NU_MAX = 60.0
MOMENTUM_PI_MAX = 6.0
# Window growth of coord_capture_drift and momentum_probe, by whole mesh
# steps (``tensor_core.grown_grid``).  The coordinate probe grows its decay
# span behind the light front and its thin factor's q margin by its factor.
COORD_PROBE_FACTOR = 1.5
MOMENTUM_PROBE_FACTOR = 2.0
CAPTURE_TOL = 1e-6
# Largest q spacing of the thin T = 0 factor (``coord_thin_grid``), in units
# of 1/eta.  Its q-sum of a Gaussian is then a trapezoid rule whose aliasing
# error, about 2 exp(-pi^2 / (eta h_q)^2) = 1.4e-17, is below rounding.
THIN_Q_SPACING = 0.5
VALIDITY_STRICTNESS = 3.0
# Factored coordinate Gaussian (``_gaussian_tables``): column block width,
# rows per assembly block, the cutoff on its table error bound relative to
# the largest entry, and the smallest largest-table-entry it accepts.
PHASE_BLOCK = 32
ROW_BLOCK = 64
FACTORED_ERR_MAX = 2e-14
FACTORED_TABLE_MIN = 1e-150
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class AtomPhotonParams:
    """Dimensionless emission parameters; all must be positive and finite."""

    xi0: float
    eta: float
    tau: float

    def __post_init__(self):
        for name in ("xi0", "eta", "tau"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the narrow-packet validity check.

    eta_lower and eta_upper are the bare window edges 1/xi0 and
    1/sqrt(xi0); ``satisfied`` applies VALIDITY_STRICTNESS to both.
    packet_ratio is the packet-width-to-wavelength ratio 1/(xi0*eta).
    """

    eta_lower: float
    eta_upper: float
    packet_ratio: float
    satisfied: bool
    messages: tuple


def _as_finite_arrays(*xs):
    out = []
    for x in xs:
        a = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("inputs must be finite")
        out.append(a)
    return out


def coord_amplitude(params: AtomPhotonParams, p, q):
    """Coordinate-representation amplitude, exactly 0 beyond the light front.

    psi = theta(tau - p) * exp(-(tau - p)/2) * exp(c (p + q)^2),
    c = -eta^2 / (2 (1 + i T)),  T = tau eta^2 xi0,

    with theta(0) = 1.  Accepts scalars or broadcastable arrays, and is
    bit-for-bit an elementwise evaluation for every input, one complex exp
    per entry.  Warns (without rejecting) below tau = 3 where the
    long-time form is only qualitative (``long_time_advisory``).
    """
    long_time_advisory(params.tau)
    p, q = _as_finite_arrays(p, q)
    scalar = p.ndim == 0 and q.ndim == 0
    # The light-front factor depends on p alone, so on open mesh vectors it
    # is one column; the Gaussian in p + q is built in place on one buffer.
    x = params.tau - p
    inside = x >= 0.0
    front = np.exp(-np.where(inside, x, 0.0) / 2.0)
    denom = 2.0 * (1.0 + 1j * params.tau * params.eta**2 * params.xi0)
    s = np.add(p, q, out=np.empty(np.broadcast_shapes(p.shape, q.shape)))
    np.square(s, out=s)
    s *= -(params.eta**2)
    vals = np.divide(s, denom, out=np.empty(s.shape, dtype=complex))
    np.exp(vals, out=vals)
    np.multiply(front, vals, out=vals)
    np.copyto(vals, 0.0, where=~inside)
    return complex(vals) if scalar else vals


def long_time_advisory(tau: float) -> None:
    """Warn that the long-time form is only qualitative, if tau < TAU_APPLICABILITY_WARN.

    The warning points at the line that calls this function, and its
    message does not name tau, so the default warning filter prints it
    once per process from each such line.  ``coord_amplitude`` calls it,
    and so do ``coord_matrix`` and ``coord_decomposition`` where they use
    the exp tables, and the dynamics sweep, once, for its smallest positive tau.
    """
    if tau < TAU_APPLICABILITY_WARN:
        warnings.warn(
            "coordinate amplitude is a long-time approximation, only qualitative below tau = 3",
            stacklevel=2,
        )


def _gaussian_tables(params: AtomPhotonParams, p, q):
    """Three small exp tables of the coordinate amplitude on a grid's open mesh, or None.

    ``p`` is a column of a grid's n p nodes and ``q`` a row of its m
    uniform q nodes.  The tables give front * exp(c (p + q)^2), with the
    light-front column ``front`` 0 beyond the front and c =
    -eta^2 / (2 (1 + i T)) as in ``coord_amplitude``.  Column j = J B + k,
    B = PHASE_BLOCK, is q_j = r_J + e_Jk with r_J the node J B + B/2 (the
    last block is padded with further nodes).  With d_k = (k - B/2) dq,

        (p_i + q_j)^2 = (p_i + r_J)^2 + 2 p_i d_k + e_Jk (2 r_J + e_Jk)
                        + 2 p_i (e_Jk - d_k),

    and the last term, a few ulp of q_j times p_i, is dropped.  The exps
    of c times the first three terms are ``rows`` (n x nb, the front folded
    in), ``shift`` (n x B) and ``blocks`` (nb x B), nb = ceil(m / B), so
    entry (i, J B + k) is rows[i, J] shift[i, k] blocks[J, k].  Relative to
    each entry, the tables add an exponent error of at most about

        bound = eps |c| L (2 P + 2 R + L) + 2 |c| P max|e - d|,

    P = max|p|, R = max|r_J|, L = B dq / 2: the rounding of the two offset
    terms' arguments, which the Gaussian does not damp, and the dropped
    term.  Returns None for a bound above FACTORED_ERR_MAX or a largest
    table entry below FACTORED_TABLE_MIN, where subnormal tables would lose
    digits.  ``_factored_gaussian`` assembles the n x m product and
    ``_gaussian_contraction`` contracts it with row weights.
    """
    x = params.tau - p
    inside = x >= 0.0
    front = np.where(inside, np.exp(-np.where(inside, x, 0.0) / 2.0), 0.0)
    c = -(params.eta**2) / (2.0 * (1.0 + 1j * params.tau * params.eta**2 * params.xi0))
    m = q.shape[1]
    q = q[0]
    B, half = PHASE_BLOCK, PHASE_BLOCK // 2
    nb = -(-m // B)
    dq = (q[-1] - q[0]) / (m - 1)
    padded = np.concatenate((q, q[-1] + dq * np.arange(1, nb * B - m + 1)))
    r = padded[half::B]
    e = padded.reshape(nb, B) - r[:, None]
    d = (np.arange(B) - half) * dq
    L, P = half * abs(dq), float(np.abs(p).max())
    bound = abs(c) * (EPS * L * (2.0 * P + 2.0 * float(np.abs(r).max()) + L)
                      + 2.0 * P * float(np.abs(e - d).max()))
    if not bound <= FACTORED_ERR_MAX:
        return None
    rows = np.exp(c * np.square(p + r)) * front  # (n, nb)
    if np.abs(rows).max() < FACTORED_TABLE_MIN:
        return None
    shift = np.exp(c * (2.0 * p * d))  # (n, B)
    blocks = np.exp(c * (e * (2.0 * r[:, None] + e)))  # (nb, B)
    return rows, shift, blocks


def _factored_gaussian(tables, n: int, m: int):
    """The n x m product of ``_gaussian_tables``, assembled in blocks of rows.

    The only n x m array is the result.
    """
    rows, shift, blocks = tables
    B = PHASE_BLOCK
    nfull, tail = divmod(m, B)
    full = m - tail
    out = np.empty((n, m), dtype=complex)
    for i in range(0, n, ROW_BLOCK):
        sl = slice(i, i + ROW_BLOCK)
        # A reshaped slice of a row block: one strided write, no temporary.
        view = out[sl, :full].reshape(min(ROW_BLOCK, n - i), nfull, B)
        np.multiply(rows[sl, :nfull, None], blocks[:nfull], out=view)
        view *= shift[sl, None, :]
        if tail:
            last = out[sl, full:]
            np.multiply(rows[sl, nfull:], blocks[nfull, :tail], out=last)
            last *= shift[sl, :tail]
    return out


def _gaussian_contraction(a, tables, m):
    """a @ G for G the n x m product of ``_gaussian_tables``, without forming G.

    Column J B + k of row t of a @ G is blocks[J, k] sum_i a[t, i]
    rows[i, J] shift[i, k]: one (nb x n) @ (n x B) product per row of
    ``a``, so the largest temporary is nb x n.
    """
    rows, shift, blocks = tables
    w = np.empty((len(a), *blocks.shape), dtype=complex)
    for a_t, w_t in zip(a, w):
        np.matmul(rows.T * a_t, shift, out=w_t)
    w *= blocks
    return w.reshape(len(a), -1)[:, :m]


def momentum_amplitude(params: AtomPhotonParams, nu_ph, pi_a):
    """Momentum-representation amplitude (long-time limit; tau drops out).

    psi = exp(-pi_a^2 / 2) / (nu_ph + 1/(2 xi0) - eta * pi_a + i/2)

    The Lorentzian denominator never vanishes, so the only error source is
    non-finite input.
    """
    nu_ph, pi_a = _as_finite_arrays(nu_ph, pi_a)
    denom = nu_ph + 1.0 / (2.0 * params.xi0) - params.eta * pi_a + 0.5j
    gauss = np.exp(-(pi_a**2) / 2.0)
    if nu_ph.ndim == 0 and pi_a.ndim == 0:
        return complex(gauss / denom)
    return np.divide(gauss, denom, out=denom)


def coord_grid(params: AtomPhotonParams, n: int = DEFAULT_N) -> Grid:
    """Auto-window for the coordinate amplitude.

    p covers [tau - COORD_DECAY_SPAN, tau]; q covers the ridge q = -p
    broadened by COORD_SIGMA_MARGIN times the modulus-width of the Gaussian
    factor, w = sqrt(1 + (tau eta^2 xi0)^2) / eta.  A chirp tau eta^2 xi0
    whose square overflows raises ValueError, and so does a tau whose ulp
    exceeds 2^-20 of the p spacing h_p = COORD_DECAY_SPAN / (n - 1), where
    rounding would move the p nodes and p + q (tau < 2^32 at n = 64).

    Raises
    ------
    ConvergenceError
        If eta h_p > 1 (``_check_p_mesh``).  Refusing it also bounds the q
        nodes of the T = 0 factor on this window (``coord_thin_grid``) by
        2 (n - 1) + 26.
    """
    grid = _coord_window(params, n)
    _check_p_mesh(params.eta, COORD_DECAY_SPAN, n)
    return grid


def _check_p_mesh(eta: float, span: float, n: int) -> None:
    """Refuse n p nodes over ``span`` spaced wider than the Gaussian's width 1/eta.

    The p mesh error of K grows with eta h_p, h_p = span / (n - 1), and at
    eta h_p = 1, which passes, K is already 0.7% to 5.4% low, so a wider
    spacing gives no usable result.  The ConvergenceError names the
    smallest adequate n, ceil(eta span) + 1 (inf where eta span overflows).
    """
    widths = eta * span
    if widths > n - 1:
        need = math.ceil(widths) + 1 if math.isfinite(widths) else math.inf
        raise ConvergenceError(
            f"the coordinate p mesh is under-resolved at n = {n}: its spacing "
            f"{span / (n - 1):g} exceeds the Gaussian's width 1/eta = {1.0 / eta:g}; "
            f"use n >= {need}"
        )


def _coord_window(params: AtomPhotonParams, n: int) -> Grid:
    """``coord_grid`` without its mesh-resolution check."""
    tau, eta, xi0 = params.tau, params.eta, params.xi0
    try:
        w = math.sqrt(1.0 + (tau * eta**2 * xi0) ** 2) / eta
    except OverflowError:
        raise ValueError(
            f"the chirp tau eta^2 xi0 = {tau * eta**2 * xi0:g} is too large for the "
            "coordinate window: its square overflows"
        ) from None
    if math.ulp(tau) * (n - 1) > 2.0**-20 * COORD_DECAY_SPAN:
        raise ValueError(
            f"tau = {tau:g} is too large for the coordinate window at n = {n}: "
            "rounding would move its p nodes"
        )
    p_lo = tau - COORD_DECAY_SPAN
    return make_grid(p_lo, tau, -tau - COORD_SIGMA_MARGIN * w, -p_lo + COORD_SIGMA_MARGIN * w, n)


def momentum_grid(n: int = DEFAULT_N) -> Grid:
    """Symmetric window for the momentum amplitude.

    The Lorentzian tail in nu_ph is heavy, hence the wide nu window;
    entanglement measures converge much faster than the norm because the
    tail is nearly separable.
    """
    return make_grid(-MOMENTUM_NU_MAX, MOMENTUM_NU_MAX, -MOMENTUM_PI_MAX, MOMENTUM_PI_MAX, n)


def coord_matrix(params: AtomPhotonParams, grid: Grid) -> AmplitudeMatrix:
    """Sample the coordinate amplitude on a grid, normalized.

    The entries are assembled from ``_gaussian_tables`` where they accept
    the grid, and are ``coord_amplitude``'s where they refuse.
    """
    return _sample(_coord_mesh, params, grid)


def _coord_mesh(params: AtomPhotonParams, p, q):
    """The coordinate amplitude on the open mesh ``p`` (n x 1), ``q`` (1 x m) of a grid.

    Raises the long-time advisory once.
    """
    tables = _gaussian_tables(params, p, q)
    if tables is None:
        return coord_amplitude(params, p, q)
    long_time_advisory(params.tau)
    vals = _factored_gaussian(tables, p.shape[0], q.shape[1])
    vals[p[:, 0] > params.tau] = 0.0  # +0.0, not the tables' signed zeros
    return vals


def momentum_matrix(params: AtomPhotonParams, grid: Grid) -> AmplitudeMatrix:
    """Sample the momentum amplitude on a grid, normalized."""
    return _sample(momentum_amplitude, params, grid)


def _sample(amplitude, params: AtomPhotonParams, grid: Grid) -> AmplitudeMatrix:
    return sample_amplitude(lambda p, q: amplitude(params, p, q), grid)


def _thin_decomposition(sample: AmplitudeMatrix, opts, mesh: str, product=None):
    """Schmidt decomposition of the thin ``sample``, with modes exactly when ``product`` is given.

    ``sample`` has q nodes whose sums of its amplitude are exact to
    rounding; given ``product``, it has the p nodes of an n x n sample A,
    so the Gram matrix over q of ``sample`` is A A^H up to a scale, and
    ``product(a)`` is a @ A up to a scale, for the r x n rows a.  Its
    dense SVD gives the weights and the p-modes u_k, and the q-modes are
    v_k = conj(u_k) @ A / ||conj(u_k) @ A||, consistent with the gauged u_k.
    Each v_k carries u_k's error times sigma_1 / sigma_k, so the trailing
    q-modes are off orthonormal (8.4e-7 over all 25 at coordinate xi0 100,
    eta 0.5, tau 10, n 200; 1.3e-6 over 21 at momentum eta 0.5, n 400), as
    ``reconstruct`` and ``truncate_rank`` see; the four the CLI writes stay
    within 1.1e-14.

    Raises
    ------
    ConvergenceError
        Naming ``mesh``, if the kept rank reaches the q nodes of ``sample``,
        which could then cut a weight above the cutoff (``--trunc 0`` keeps
        every weight once the sample has at least as many rows).
    """
    result = schmidt_decompose(sample, opts, modes=product is not None)
    nq = sample.grid.nq
    if result.rank >= nq:
        raise ConvergenceError(
            f"{mesh} kept all {nq} of its q-node weights, so it cannot show that none "
            "above the cutoff is lost; raise the truncation threshold (--trunc)"
        )
    if product is None:
        return result
    v = product(result.modes_p.conj())
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v += 0.0  # no -0 part in a written mode, as in the gauge
    return replace(result, modes_q=v)


def coord_decomposition(params: AtomPhotonParams, grid: Grid, opts=DecompositionOptions()):
    """Decomposition with modes of ``coord_matrix(params, grid)``.

    On the automatic window (``coord_grid``) the weights and p-modes are
    ``_t0_factor``'s, and the q-modes are contracted from the exp tables
    of ``_gaussian_tables``, so no n x n array is formed; the amplitude is
    sampled only where the tables refuse.  Any other grid, such as a
    ``--window`` whose q range may cut the amplitude, has its p spacing
    checked (``_check_p_mesh``) and is then sampled and decomposed on the
    dense route.
    """
    if grid != _coord_window(params, grid.n):
        _check_p_mesh(params.eta, grid.p_max - grid.p_min, grid.n)
        return schmidt_decompose(coord_matrix(params, grid), opts)
    tables = _gaussian_tables(params, grid.p_nodes()[:, None], grid.q_nodes()[None, :])
    if tables is None:
        def product(a):  # coord_matrix raises the long-time advisory
            return a @ coord_matrix(params, grid).entries
    else:
        long_time_advisory(params.tau)

        def product(a):
            return _gaussian_contraction(a, tables, grid.nq)
    return _t0_factor(params, grid, COORD_SIGMA_MARGIN, opts, product)


def momentum_thin_grid(params: AtomPhotonParams, grid: Grid) -> Grid:
    """The window of ``grid`` with the fewest pi nodes whose sums are exact to rounding.

    The Gram sum over pi of two rows is a trapezoid rule for the Gaussian
    exp(-pi^2) times two Lorentzians with poles d = 1/(2 eta) off the real
    axis.  On the line Im pi = a the Gaussian grows by exp(a^2), so the
    rule's error is about exp(a^2 - 2 pi a / h_pi) at a = min(d, pi / h_pi)
    (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).  With
    g = pi / THIN_Q_SPACING that is at most exp(-g^2) = 7e-18 once

        h_pi <= THIN_Q_SPACING              if d >= g,
        h_pi <= 2 pi d / (d^2 + g^2)        otherwise,

    and the grid has the fewest pi nodes that allow it (25 at ``--fig3``).
    ``grid`` itself is returned when it is not ``momentum_grid(n)`` (a
    ``--window`` may cut the Gaussian) or when the rule needs n nodes or more.
    """
    d, g = 0.5 / params.eta, math.pi / THIN_Q_SPACING
    h = THIN_Q_SPACING if d >= g else 2.0 * math.pi * d / (d * d + g * g)
    nq = math.ceil((grid.q_max - grid.q_min) / h) + 1
    if grid != momentum_grid(grid.n) or nq >= grid.nq:
        return grid
    return make_grid(grid.p_min, grid.p_max, grid.q_min, grid.q_max, grid.n, nq)


def momentum_decomposition(params: AtomPhotonParams, grid: Grid, opts=DecompositionOptions()):
    """Decomposition with modes of ``A = momentum_matrix(params, grid)``, which it samples first.

    ``_thin_decomposition`` on a thinner ``momentum_thin_grid`` with the
    pi-modes from A, or the dense route on A where that grid is ``grid``.
    """
    A = momentum_matrix(params, grid)
    thin = momentum_thin_grid(params, grid)
    if thin == grid:
        return schmidt_decompose(A, opts)
    sample = _sample(momentum_amplitude, params, thin)
    mesh = "the momentum amplitude's thin pi mesh"
    return _thin_decomposition(sample, opts, mesh, lambda a: a @ A.entries)


def coord_spectrum(
    params: AtomPhotonParams,
    n: int = DEFAULT_N,
    opts: DecompositionOptions = DecompositionOptions(),
) -> SchmidtResult:
    """Schmidt weights of the coordinate amplitude on the p nodes of ``coord_grid(params, n)``.

    Values only: ``_t0_factor`` at the margin COORD_SIGMA_MARGIN, probed by ``coord_capture_drift``.
    """
    return _t0_factor(params, coord_grid(params, n), COORD_SIGMA_MARGIN, opts)


def coord_thin_grid(params: AtomPhotonParams, grid: Grid, margin: float) -> Grid:
    """The mesh of the real T = 0 factor on the p nodes of ``grid``.

    The factor is exp(-(tau - p)/2) exp(-eta^2 (p + q)^2 / 2), p <= tau: the
    coordinate amplitude with its chirp T = tau eta^2 xi0 left out.  T is
    the free spreading of the atom's packet, a unitary on q alone, so the
    Gram matrix over q, and with it the Schmidt weights and p-modes, is the
    factor's; they depend on neither xi0 nor tau (tau places the light
    front), and no tau < 3 advisory is raised.  The mesh has the p nodes of
    ``grid`` up to the light front and m uniform q nodes over the T = 0
    window [-p_max - margin / eta, -p_min + margin / eta] of width W.  The
    q-sum is then a trapezoid rule for a Gaussian, exact to rounding once
    h_q <= THIN_Q_SPACING / eta (Trefethen and Weideman, SIAM Rev. 56, 385
    (2014)); m = ceil(W eta / THIN_Q_SPACING) + 1 is the smallest count
    that allows it (28 at ``--fig1``).
    """
    eta = params.eta
    q_lo, q_hi = -grid.p_max - margin / eta, -grid.p_min + margin / eta
    m = math.ceil((q_hi - q_lo) * eta / THIN_Q_SPACING) + 1
    p = grid.p_nodes()
    k = int(np.count_nonzero(p <= params.tau))
    return make_grid(grid.p_min, p[k - 1], q_lo, q_hi, k, m)


def _t0_factor(params: AtomPhotonParams, grid: Grid, margin: float, opts, product=None):
    """``_thin_decomposition`` of the real T = 0 factor on ``coord_thin_grid(params, grid, margin)``.

    The one place the factor is sampled and decomposed; with modes exactly
    when ``product(a)``, a @ ``coord_matrix(params, grid)`` up to a scale,
    is given, and ConvergenceError if the kept rank reaches the factor's
    q-node count.
    """

    def factor(params, p, q):  # built in place on one buffer, as coord_amplitude's Gaussian
        vals = np.square(p + q)
        vals *= -(params.eta**2) / 2.0
        np.exp(vals, out=vals)
        vals *= np.exp(-(params.tau - p) / 2.0)
        return vals

    sample = _sample(factor, params, coord_thin_grid(params, grid, margin))
    return _thin_decomposition(sample, opts, f"the thin factor at tau={params.tau:g}", product)


# The atom-photon bases and momentum_probe call their samplers, and
# _thin_decomposition and the dense fallbacks call schmidt_decompose,
# through this module's globals, where bench/tracing.py wraps them and
# tells the probe by its grid.  coord_decomposition samples coord_matrix
# only on a --window mesh or where the exp tables refuse.  The thin samples
# (_t0_factor's and the momentum base's) use the unwrapped _sample, so the
# tracer sees no probe there, and each _t0_factor call is one decompose
# span.  It counts the coordinate probe, which samples through no wrapped
# function, by its name, coord_capture_drift, as the CLI calls it.


def momentum_probe(params: AtomPhotonParams, grid: Grid, opts: DecompositionOptions) -> SchmidtResult:
    """Values-only decomposition on the window probe of ``grid``.

    The probe window is ``grown_grid(momentum_thin_grid(params, grid),
    MOMENTUM_PROBE_FACTOR)``: the spacing of the base weights' sample, and
    nodes that contain its nodes.  A thin probe mesh has the rank check of
    ``_thin_decomposition``.
    """
    thin = momentum_thin_grid(params, grid)
    big = momentum_matrix(params, grown_grid(thin, MOMENTUM_PROBE_FACTOR))
    if thin == grid:
        return schmidt_decompose(big, opts, modes=False)
    return _thin_decomposition(big, opts, "the momentum probe's thin pi mesh")


def coord_capture_drift(
    params: AtomPhotonParams,
    grid: Grid,
    opts: DecompositionOptions = DecompositionOptions(),
) -> SchmidtResult:
    """Values-only decomposition on the window probe of ``grid``.

    The coordinate model's one window probe: ``_t0_factor`` on ``grid``
    grown by 2 COORD_PROBE_FACTOR - 1, at the q margin
    COORD_PROBE_FACTOR * COORD_SIGMA_MARGIN.  The light front p = tau is
    the automatic window's edge, so the decay span behind it grows by
    COORD_PROBE_FACTOR, and ``coord_thin_grid`` drops the nodes past it.
    The probe is exact in q, so against a sampled base the drift also
    carries the base's q-window and q-mesh error.  The dynamics sweep's
    capture drift, which names the function, is
    ``spectrum_drift(coord_spectrum(params, n), probe)``.
    """
    big_grid = grown_grid(grid, 2.0 * COORD_PROBE_FACTOR - 1.0)
    return _t0_factor(params, big_grid, COORD_PROBE_FACTOR * COORD_SIGMA_MARGIN, opts)


def xi0_estimate(mass_ratio_M_over_m: float) -> float:
    """Estimate xi0 from the atom-to-electron mass ratio: ratio / 137."""
    return mass_ratio_M_over_m / 137.0


def eta_opt(xi0: float, tau: float) -> float:
    """Coupling that balances packet spreading against recoil: 1/sqrt(xi0*tau)."""
    return 1.0 / math.sqrt(xi0 * tau)


def validity_check(params: AtomPhotonParams) -> ValidityReport:
    """Check eta against the narrow-packet window 1/xi0 << eta << 1/sqrt(xi0).

    The factor s = VALIDITY_STRICTNESS turns the soft << into hard
    inequalities: s/xi0 <= eta <= (1/sqrt(xi0))/s.  Values within a
    factor 2 of either hardened edge are flagged as marginal.  Never
    raises; the report carries human-readable messages instead.
    """
    xi0, eta = params.xi0, params.eta
    lower = 1.0 / xi0
    upper = 1.0 / math.sqrt(xi0)
    strict_lower = VALIDITY_STRICTNESS * lower
    strict_upper = upper / VALIDITY_STRICTNESS
    satisfied = strict_lower <= eta <= strict_upper
    messages = []
    if eta < strict_lower:
        messages.append(
            f"eta={eta:g} is below the packet-spreading bound "
            f"{VALIDITY_STRICTNESS:g}/xi0 = {strict_lower:g}"
        )
    elif eta > strict_upper:
        messages.append(
            f"eta={eta:g} exceeds the recoil bound "
            f"(1/sqrt(xi0))/{VALIDITY_STRICTNESS:g} = {strict_upper:g}; the narrow-packet "
            "regime does not hold"
        )
    else:
        if eta < 2.0 * strict_lower:
            messages.append(
                f"eta={eta:g} sits within a factor 2 of the lower validity edge "
                f"{strict_lower:g}"
            )
        if eta > strict_upper / 2.0:
            messages.append(
                f"eta={eta:g} sits within a factor 2 of the upper validity edge "
                f"{strict_upper:g}"
            )
    return ValidityReport(
        eta_lower=lower,
        eta_upper=upper,
        packet_ratio=1.0 / (xi0 * eta),
        satisfied=satisfied,
        messages=tuple(messages),
    )


def laguerre_mode(k: int, tau: float, p_nodes) -> np.ndarray:
    """Sampled analytical mode L_k(tau - p) exp(-(tau - p)/2) theta(tau - p).

    Uses the stable three-term recurrence
    L_0 = 1, L_1 = 1 - x, (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}
    and fixes the normalization constant by unit discrete norm on the
    given nodes (absorbing mesh-truncation effects).

    Raises
    ------
    ValueError
        For negative k or when no node falls inside the support p <= tau.
    """
    if k < 0:
        raise ValueError(f"mode index must be non-negative, got {k}")
    (p,) = _as_finite_arrays(p_nodes)
    x = tau - p
    inside = x >= 0.0
    xs = np.where(inside, x, 0.0)
    lag_prev = np.ones_like(xs)
    lag = lag_prev if k == 0 else 1.0 - xs
    for j in range(1, k):
        lag, lag_prev = ((2 * j + 1 - xs) * lag - j * lag_prev) / (j + 1), lag
    vals = np.where(inside, lag * np.exp(-xs / 2.0), 0.0)
    nrm = float(np.linalg.norm(vals))
    if nrm == 0.0:
        raise ValueError("no grid nodes inside the support p <= tau")
    return vals / nrm


def _decay_weights(tau: float):
    """(exp(-tau), 1 - exp(-tau)); ValueError for a negative or NaN tau."""
    if not tau >= 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return math.exp(-tau), -math.expm1(-tau)


def zero_order_dynamics(tau: float, squared_entropy_weights: bool = True):
    """Two-level (excited/ground) entanglement measures at time tau.

    With le = exp(-tau) and lg = 1 - exp(-tau):

    K0 = 1 / (le^2 + lg^2)

    S0 (default) squares the weights inside the entropy,
    S0 = -le^2 log2(le^2) - lg^2 log2(lg^2), matching the source form of
    the model.  Passing ``squared_entropy_weights=False`` selects the
    spectrum-consistent reading S0 = -le log2(le) - lg log2(lg), the one
    ``full_dynamics`` reduces to when the fine structure is switched off.
    Both agree at tau = 0, tau = ln 2 and tau -> infinity.

    Raises
    ------
    ValueError
        For negative or NaN tau.
    """
    le, lg = _decay_weights(tau)

    def ent(w):  # 0.0 - x, not -x, so that a pure state gets +0.0
        return 0.0 - sum(x * math.log2(x) for x in w if x > 0.0)

    k0 = 1.0 / (le**2 + lg**2)
    s0 = ent((le**2, lg**2)) if squared_entropy_weights else ent((le, lg))
    return k0, s0


def full_dynamics(tau: float, spectrum: SchmidtResult):
    """Entanglement measures including the photonic fine structure at time tau.

    The excited state survives with weight exp(-tau); the emitted-photon
    branch carries weight 1 - exp(-tau) spread over the Schmidt weights
    mu_k of ``spectrum``, a decomposition of the coordinate amplitude
    (``coord_spectrum``, from the real T = 0 factor, or a sampled
    ``schmidt_decompose``).  The composite spectrum
    {exp(-tau)} U {(1 - exp(-tau)) mu_k} sums to 1 by construction, and K
    and S follow from it.  When the amplitude is effectively rank-1
    (eta -> 0) this reduces to the two-level (K0, S0) with the
    spectrum-consistent entropy reading.

    After the emission the atom and the photon evolve freely, a local
    unitary, so mu_k does not depend on tau, and a time sweep passes one
    decomposition for all its points.  Samples and decomposes nothing.
    Returns (K, S, lambdas) with lambdas the composite spectrum.

    Raises
    ------
    ValueError
        For negative or NaN tau.
    """
    le, lg = _decay_weights(tau)
    if lg == 0.0:
        return 1.0, 0.0, np.array([1.0])
    lam = np.concatenate(([le], lg * spectrum.lambdas))
    lam = lam / lam.sum()
    return schmidt_number(lam), entanglement_entropy(lam), lam


def asymptotics(eta: float):
    """Long-time limits of (K, S) for weak coupling.

    K_inf = 1 + eta^2;  S_inf = (eta^2/ln 2) (ln(1/eta) + (1 + ln 2)/2).

    Raises
    ------
    ValueError
        Unless 0 < eta < 1.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"asymptotics require 0 < eta < 1, got {eta}")
    k_inf = 1.0 + eta**2
    s_inf = eta**2 / math.log(2.0) * (math.log(1.0 / eta) + 0.5 * (1.0 + math.log(2.0)))
    return k_inf, s_inf
