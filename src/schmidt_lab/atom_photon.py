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
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .schmidt import (
    EPS,
    DecompositionOptions,
    SchmidtResult,
    entanglement_entropy,
    schmidt_decompose,
    schmidt_number,
    spectrum_drift,
)
from .tensor_core import AmplitudeMatrix, Grid, enlarged_grid, enlarged_n, make_grid, sample_amplitude

TAU_APPLICABILITY_WARN = 3.0
DEFAULT_N = 400
# The automatic windows of coord_grid and momentum_grid.
COORD_DECAY_SPAN = 40.0
COORD_SIGMA_MARGIN = 6.0
MOMENTUM_NU_MAX = 60.0
MOMENTUM_PI_MAX = 6.0
# Window growth of coord_probe and momentum_probe, at fixed mesh spacing.
COORD_PROBE_FACTOR = 1.5
MOMENTUM_PROBE_FACTOR = 2.0
CAPTURE_TOL = 1e-6
VALIDITY_STRICTNESS = 3.0
# Factored coordinate Gaussian (``_factored_gaussian``): column block width,
# rows per assembly block, the cutoff on its table error bound relative to
# the largest entry, and the smallest largest-table-entry it accepts.
PHASE_BLOCK = 32
ROW_BLOCK = 64
FACTORED_ERR_MAX = 2e-14
FACTORED_TABLE_MIN = 1e-150


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

    with theta(0) = 1.  Accepts scalars or broadcastable arrays.  On an
    open mesh of uniform q nodes the Gaussian comes from three small exp
    tables (``_factored_gaussian``) when their derived error bound is at
    most FACTORED_ERR_MAX; every other call keeps the direct form, one
    complex exp per entry.  Warns (without rejecting) below tau = 3
    where the long-time form is only qualitative; dynamics sweeps rely on
    this leniency.  The message does not name tau, so the default warning
    filter prints it once per call site.
    """
    if params.tau < TAU_APPLICABILITY_WARN:
        warnings.warn(
            "coordinate amplitude is a long-time approximation, only qualitative below tau = 3",
            stacklevel=2,
        )
    p, q = _as_finite_arrays(p, q)
    scalar = p.ndim == 0 and q.ndim == 0
    # The light-front factor depends on p alone, so on open mesh vectors it
    # is one column; the Gaussian in p + q is built in place on one buffer.
    x = params.tau - p
    inside = x >= 0.0
    front = np.exp(-np.where(inside, x, 0.0) / 2.0)
    denom = 2.0 * (1.0 + 1j * params.tau * params.eta**2 * params.xi0)
    vals = _factored_gaussian(np.where(inside, front, 0.0), p, q, -(params.eta**2) / denom)
    if vals is not None:
        vals[~inside[:, 0]] = 0.0
        return vals
    s = np.add(p, q, out=np.empty(np.broadcast_shapes(p.shape, q.shape)))
    np.square(s, out=s)
    s *= -(params.eta**2)
    vals = np.divide(s, denom, out=np.empty(s.shape, dtype=complex))
    np.exp(vals, out=vals)
    np.multiply(front, vals, out=vals)
    np.copyto(vals, 0.0, where=~inside)
    return complex(vals) if scalar else vals


def _factored_gaussian(front, p, q, c):
    """front * exp(c (p + q)^2) on an open mesh from three small tables, or None.

    ``front`` is the light-front column, 0 beyond the front (the caller
    writes +0.0 into those rows), ``p`` a column of n nodes and ``q`` a row
    of m uniform nodes, exactly ``np.linspace(q[0, 0], q[0, -1], m)``.
    Column j = J B + k, B = PHASE_BLOCK, is q_j = r_J + e_Jk with r_J the
    node J B + B/2 (the last block is padded with further nodes).  With
    d_k = (k - B/2) dq,

        (p_i + q_j)^2 = (p_i + r_J)^2 + 2 p_i d_k + e_Jk (2 r_J + e_Jk)
                        + 2 p_i (e_Jk - d_k),

    and the last term, a few ulp of q_j times p_i, is dropped.  The exps
    of c times the first three terms are an n x nb table (the front folded
    in), an n x B table and an nb x B table, nb = ceil(m / B).  Relative to
    each entry, the tables add an exponent error of at most about

        bound = eps |c| L (2 P + 2 R + L) + 2 |c| P max|e - d|,

    P = max|p|, R = max|r_J|, L = B dq / 2: the rounding of the two offset
    terms' arguments, which the Gaussian does not damp, and the dropped
    term.  Returns None (the direct form then runs) for any other shape,
    non-uniform q, a bound above FACTORED_ERR_MAX, or a largest table
    entry below FACTORED_TABLE_MIN, where subnormal tables would lose
    digits.  The product is formed in blocks of rows, so the only n x m
    array is the result.
    """
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != 1 or q.shape[0] != 1 or q.shape[1] < 2:
        return None
    n, m = p.shape[0], q.shape[1]
    q = q[0]
    if not np.array_equal(q, np.linspace(q[0], q[-1], m)):
        return None
    B, half = PHASE_BLOCK, PHASE_BLOCK // 2
    nfull, tail = divmod(m, B)
    nb, full = nfull + (tail > 0), m - tail
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
    factor, w = sqrt(1 + (tau eta^2 xi0)^2) / eta.  ``coord_probe`` grows
    this window behind the light front, which stays at p = tau.
    """
    return _pinned_window(params, n, 1.0)


def _pinned_window(params: AtomPhotonParams, n: int, enlarge: float) -> Grid:
    """``coord_grid`` with both margins grown by ``enlarge`` at its spacing.

    Unlike ``enlarged_grid`` it keeps the light front pinned at p = tau.
    """
    tau, eta, xi0 = params.tau, params.eta, params.xi0
    w = math.sqrt(1.0 + (tau * eta**2 * xi0) ** 2) / eta
    decay_span, sigma_margin = enlarge * COORD_DECAY_SPAN, enlarge * COORD_SIGMA_MARGIN
    p_lo, p_hi = tau - decay_span, tau
    q_lo, q_hi = -p_hi - sigma_margin * w, -p_lo + sigma_margin * w
    return make_grid(p_lo, p_hi, q_lo, q_hi, enlarged_n(n, enlarge))


def momentum_grid(n: int = DEFAULT_N) -> Grid:
    """Symmetric window for the momentum amplitude.

    The Lorentzian tail in nu_ph is heavy, hence the wide nu window;
    entanglement measures converge much faster than the norm because the
    tail is nearly separable.
    """
    return make_grid(-MOMENTUM_NU_MAX, MOMENTUM_NU_MAX, -MOMENTUM_PI_MAX, MOMENTUM_PI_MAX, n)


def coord_matrix(params: AtomPhotonParams, grid: Grid) -> AmplitudeMatrix:
    """Sample the coordinate amplitude on a grid, normalized."""
    return sample_amplitude(lambda p, q: coord_amplitude(params, p, q), grid)


def momentum_matrix(params: AtomPhotonParams, grid: Grid) -> AmplitudeMatrix:
    """Sample the momentum amplitude on a grid, normalized."""
    return sample_amplitude(lambda nu, pi: momentum_amplitude(params, nu, pi), grid)


def coord_spectrum(
    params: AtomPhotonParams,
    n: int = DEFAULT_N,
    opts: DecompositionOptions = DecompositionOptions(),
) -> SchmidtResult:
    """Values-only decomposition of the coordinate amplitude on ``coord_grid(params, n)``.

    No capture check; ``coord_capture_drift`` adds one.
    """
    grid = coord_grid(params, n)
    return schmidt_decompose(coord_matrix(params, grid), opts, modes=False)


# The probes call coord_matrix, momentum_matrix and schmidt_decompose
# through this module's globals, where bench/tracing.py wraps them.


def coord_probe(params: AtomPhotonParams, grid: Grid, opts: DecompositionOptions) -> SchmidtResult:
    """Values-only decomposition on the window probe of ``grid``.

    The probe window keeps the mesh spacing of ``grid`` and is
    COORD_PROBE_FACTOR times larger.  The automatic window
    (``coord_grid(params, grid.n)``) grows its margins behind the light
    front, which stays at p = tau; any other window grows about its centre.
    """
    if grid == coord_grid(params, grid.n):
        big_grid = _pinned_window(params, grid.n, COORD_PROBE_FACTOR)
    else:
        big_grid = enlarged_grid(grid, COORD_PROBE_FACTOR)
    return schmidt_decompose(coord_matrix(params, big_grid), opts, modes=False)


def momentum_probe(params: AtomPhotonParams, grid: Grid, opts: DecompositionOptions) -> SchmidtResult:
    """Values-only decomposition on the window probe of ``grid``.

    The probe window keeps the mesh spacing of ``grid`` and grows about its
    centre by MOMENTUM_PROBE_FACTOR.
    """
    big_grid = enlarged_grid(grid, MOMENTUM_PROBE_FACTOR)
    return schmidt_decompose(momentum_matrix(params, big_grid), opts, modes=False)


def coord_capture_drift(
    params: AtomPhotonParams,
    n: int = DEFAULT_N,
    opts: DecompositionOptions = DecompositionOptions(),
) -> tuple[SchmidtResult, float]:
    """``coord_spectrum`` checked against its ``coord_probe``.

    Returns the base decomposition and the drift of the weight spectrum
    between the two.

    Raises
    ------
    ConvergenceError
        If the drift is at least CAPTURE_TOL.  The automatic
        window is fixed, and the drift falls as the mesh is refined, so the
        message asks for a larger n, which every caller can set
        (the argument ``n``, the CLI's ``--n``).
    """
    base = coord_spectrum(params, n, opts)
    big = coord_probe(params, coord_grid(params, n), opts)
    drift = spectrum_drift(base, big)
    if drift >= CAPTURE_TOL:
        raise ConvergenceError(
            f"window capture check failed at tau={params.tau:g}: enlarging the "
            f"margins by {COORD_PROBE_FACTOR - 1:.0%} moves the weight spectrum by "
            f"{drift:.3e} >= {CAPTURE_TOL:.1e}; raise n above {n}"
        )
    return base, drift


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
    if not tau >= 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    le = math.exp(-tau)
    lg = -math.expm1(-tau)

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
    (``coord_spectrum`` or ``coord_capture_drift``).  The composite spectrum
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
    if not tau >= 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    le = math.exp(-tau)
    lg = -math.expm1(-tau)
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
