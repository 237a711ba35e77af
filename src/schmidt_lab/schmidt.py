"""Schmidt decomposition of discretized two-variable amplitudes.

A normalized matrix A factors as A = sum_k sqrt(lambda_k) u_k v_k^T with
orthonormal discrete modes u_k (in p) and v_k (in q) and non-negative
weights lambda_k summing to 1.  The weights are the squared singular
values of A; they carry all entanglement information through the Schmidt
number K = 1 / sum(lambda^2) and the entropy S = -sum(lambda log2 lambda).

The factorization is an SVD of the matrix AmplitudeMatrix has already
checked; the tests cross-check its weights against an independent
power-iteration eigensolver.  Every route decomposes in real arithmetic
when every imaginary part of the amplitude is zero, and in complex
arithmetic otherwise; the kept modes are complex either way.  A caller
that reads only the weights passes ``modes=False``, which computes the
singular values alone.

A values-only decomposition of a centrosymmetric matrix (A = J A J, with
J the reversal of row or column order) splits into an even-parity and an
odd-parity block of half the size (Cantoni and Butler, Linear Algebra
Appl. 13, 275 (1976)).  The split is accepted only when the
anti-centrosymmetric part it leaves out lies below the truncation cutoff
``truncation_threshold * sigma_1^2``, so no weight it leaves out could
have been kept.  Every other decomposition is one dense LAPACK SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_core import AmplitudeMatrix, Grid

GAUGES = ("largest-real-positive", "none")
WEIGHT_SUM_ATOL = 1e-10
SPECTRUM_DRIFT_MODES = 32
# Relative margin within which mode components count as tied in the gauge:
# mirror components of the leading SPDC modes differ by rounding (at most
# 1.3e-14 measured), the top two components of an atom-photon mode by
# 1.3e-3 or more.
GAUGE_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class DecompositionOptions:
    """Knobs for schmidt_decompose.

    truncation_threshold
        Relative weight cutoff: modes with lambda_k / lambda_1 below it are
        dropped.  Must lie in [0, 1).
    gauge
        "largest-real-positive" rotates each p-mode so its largest-modulus
        component is real and positive (the paired q-mode absorbs the
        inverse phase, leaving every rank-1 term unchanged).  Components
        within a relative ``GAUGE_TIE_RTOL`` (1e-9) of the largest modulus
        count as tied, and the lowest index among them is the one made
        real and positive, so rounding cannot pick between the mirror
        components of an odd-parity mode.  "none" keeps the raw factor
        phases.
    """

    truncation_threshold: float = 1e-14
    gauge: str = "largest-real-positive"

    def __post_init__(self):
        if not 0.0 <= self.truncation_threshold < 1.0:
            raise ValueError(
                f"truncation_threshold must be in [0, 1), got {self.truncation_threshold}"
            )
        if self.gauge not in GAUGES:
            raise ValueError(f"gauge must be one of {GAUGES}, got {self.gauge!r}")


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """Outcome of a Schmidt decomposition.

    lambdas
        Kept weights, non-increasing, renormalized to sum to 1.
    modes_p, modes_q
        Arrays of shape (rank, n) and (rank, nq); row k holds the k-th
        discrete mode in the p and q variable respectively, each with unit
        Euclidean norm.
        Both are None when the result was decomposed with ``modes=False``.
    reconstruction_error
        Relative Frobenius error committed by the truncation, i.e. the
        square root of the discarded weight mass (0.0 when nothing was
        dropped).
    route
        "dense" (LAPACK SVD of the whole matrix), "centrosymmetric" (SVDs
        of the two parity blocks of the centrosymmetric part, values only).
    residual_mass
        The certified weight outside the factored part, as a share of
        ||A||_F^2: ||A_a||_F^2 with A_a = (A - J A J) / 2 on the
        centrosymmetric route; None on the other routes.
    """

    lambdas: np.ndarray
    modes_p: np.ndarray | None
    modes_q: np.ndarray | None
    rank: int
    schmidt_number: float
    entropy: float
    reconstruction_error: float
    route: str = "dense"
    residual_mass: float | None = None


def _xlog2x(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = w[pos] * np.log2(w[pos])
    return out


def _check_weights(lambdas, op: str) -> np.ndarray:
    w = np.asarray(lambdas, dtype=float).ravel()
    if w.size == 0:
        raise ValueError(f"{op}: empty weight vector")
    if np.any(w < 0.0):
        raise ValueError(f"{op}: weights must be non-negative, min is {w.min()!r}")
    total = float(w.sum())
    if total == 0.0:
        raise ValueError(f"{op}: all weights are zero")
    if abs(total - 1.0) > WEIGHT_SUM_ATOL:
        raise ValueError(f"{op}: weights must sum to 1 within 1e-10, got {total!r}")
    return w


def schmidt_number(lambdas) -> float:
    """Effective mode count K = 1 / sum(lambda_k^2) of a weight spectrum."""
    w = _check_weights(lambdas, "schmidt_number")
    return float(1.0 / np.sum(w**2))


def entanglement_entropy(lambdas) -> float:
    """Entropy S = -sum(lambda_k log2 lambda_k) in bits; 0 log 0 counts as 0."""
    w = _check_weights(lambdas, "entanglement_entropy")
    return float(0.0 - np.sum(_xlog2x(w)))  # 0.0 - x, not -x: a pure state gets +0.0


def _apply_gauge(u: np.ndarray, v: np.ndarray) -> None:
    """Make one largest-modulus component of each p-mode real and positive.

    Components within a relative ``GAUGE_TIE_RTOL`` of the largest modulus
    count as tied, and the lowest index among them sets the phase; ``v``
    absorbs the inverse phase.  Both change in place.  A kept mode has unit
    norm, so its largest modulus is at least 1/sqrt(n).
    """
    mag = np.abs(u)
    tied = mag >= (1.0 - GAUGE_TIE_RTOL) * mag.max(axis=1, keepdims=True)
    a = u[np.arange(u.shape[0]), np.argmax(tied, axis=1)]
    phase = (a / np.hypot(a.real, a.imag))[:, None]
    u /= phase
    v *= phase
    # Dividing by a phase such as -1+0j flips the sign of zero parts;
    # adding +0.0 turns each -0 back into 0 and leaves every other value.
    u += 0.0
    v += 0.0


def _has_imag(e: np.ndarray) -> bool:
    """Whether any imaginary part of ``e`` is nonzero."""
    return bool(np.iscomplexobj(e) and e.imag.any())


def _centrosymmetric_split(M: np.ndarray, trunc: float, total: float):
    """Singular values of the centrosymmetric part of ``M``, if it captures ``M``.

    M = M_s + M_a with M_s = (M + J M J) / 2 and M_a = (M - J M J) / 2;
    the two parts are Frobenius-orthogonal.  In a basis of vectors even and
    odd under J, M_s is block diagonal.  With S the first h = ceil(n / 2)
    rows of 2 M_s and m = n // 2, the even block is
    (S[:, :h] + S[:, ::-1][:, :h]) / 2, its middle row and column divided by
    sqrt(2) when n is odd, and the odd block is
    (S[:m, :m] - S[:m, ::-1][:, :m]) / 2.  The same formulas hold for real
    and complex ``M``.  ``total`` is ||M||_F^2.

    Returns ``(s, residual)``: the singular values of M_s,
    non-increasing, and residual = ||M_a||_F^2 <=
    trunc * s[0]^2.  Returns None after one pass when
    residual > sqrt(trunc) * total, and after the block SVDs when the
    certificate fails; under ``trunc = 0`` only an exactly centrosymmetric
    ``M`` passes.
    """
    n = M.shape[0]
    h, m = n - n // 2, n // 2
    top, bottom = M[:h], M[::-1, ::-1][:h]
    # anti holds the first h rows of 2 M_a.  Row i < m of M_a recurs,
    # reversed, as row n - 1 - i; the middle row of an odd n occurs once.
    anti = top - bottom
    residual = 0.25 * float(np.vdot(anti, anti).real + np.vdot(anti[:m], anti[:m]).real)
    if residual > np.sqrt(trunc) * total:
        return None
    del anti
    S = top + bottom
    left, right = S[:, :h], S[:, ::-1][:, :h]
    even = (left + right) / 2.0
    if n % 2:
        even[m] /= np.sqrt(2.0)
        even[:, m] /= np.sqrt(2.0)
    odd = (left[:m, :m] - right[:m, :m]) / 2.0
    s = np.concatenate(
        [np.linalg.svd(even, compute_uv=False), np.linalg.svd(odd, compute_uv=False)]
    )
    s = np.sort(s)[::-1]
    if residual > trunc * s[0] ** 2:
        return None
    return s, residual


def schmidt_decompose(
    A: AmplitudeMatrix,
    opts: DecompositionOptions = DecompositionOptions(),
    modes: bool = True,
) -> SchmidtResult:
    """Factor a normalized amplitude matrix into Schmidt modes and weights.

    With ``modes=False`` only the singular values are computed: the
    weights, rank, K, S and reconstruction error follow as with modes, and
    ``modes_p``/``modes_q`` are None.  Either way the SVD runs in real
    arithmetic when every imaginary part is zero.

    With ``modes=False``, a square matrix whose centrosymmetric part
    captures it (see ``_centrosymmetric_split``) takes the centrosymmetric
    route; its weights are normalized by the exact ||A||_F^2, one
    ``np.vdot``, and the certified weight outside the part joins the
    discarded mass.  Every other matrix takes the dense route, whose raw
    weights are s^2 / sum(s^2).  The weights at or above
    ``opts.truncation_threshold`` times the largest are kept and
    renormalized to sum to 1; the kept modes are gauged by ``opts.gauge``.

    Raises
    ------
    ValueError
        If A is not flagged normalized.
    """
    if not A.normalized:
        raise ValueError("schmidt_decompose requires a normalized AmplitudeMatrix")
    e = A.entries
    # One decision of real or complex arithmetic for every route; a real
    # array never allocates its zero imaginary part.
    M = e if _has_imag(e) else np.ascontiguousarray(e.real)
    split = residual_mass = None
    if not modes and M.shape[0] == M.shape[1]:
        total = float(np.vdot(M, M).real)
        split = _centrosymmetric_split(M, opts.truncation_threshold, total)
    if split is not None:
        s, residual = split
        residual_mass = residual / total
    elif modes:
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
    else:
        s = np.linalg.svd(M, compute_uv=False)
    if split is None:
        total = float((s**2).sum())
    lam_raw = s**2 / total
    rank = int(np.count_nonzero(lam_raw >= opts.truncation_threshold * lam_raw[0]))
    u = v = None
    if modes:
        # Copy only the kept modes, so no full n x n factor outlives the call.
        u = U[:, :rank].T.astype(complex, order="C")
        v = Vh[:rank].astype(complex, order="C")
        if opts.gauge == "largest-real-positive":
            _apply_gauge(u, v)

    discarded = float(lam_raw[rank:].sum()) + (residual_mass or 0.0)
    lam = lam_raw[:rank] / float(lam_raw[:rank].sum())
    return SchmidtResult(
        lambdas=lam,
        modes_p=u,
        modes_q=v,
        rank=rank,
        schmidt_number=schmidt_number(lam),
        entropy=entanglement_entropy(lam),
        reconstruction_error=float(np.sqrt(max(discarded, 0.0))),
        route="dense" if split is None else "centrosymmetric",
        residual_mass=residual_mass,
    )


def spectrum_drift(a: SchmidtResult, b: SchmidtResult) -> float:
    """Largest change among the leading weights of two decompositions.

    Compares at most the top ``SPECTRUM_DRIFT_MODES`` weights that both
    results kept; used to judge a run against its enlarged-window probe.
    """
    m = min(a.rank, b.rank, SPECTRUM_DRIFT_MODES)
    return float(np.max(np.abs(a.lambdas[:m] - b.lambdas[:m])))


def _require_modes(result: SchmidtResult, op: str) -> None:
    if result.modes_p is None:
        raise ValueError(
            f"{op} needs Schmidt modes, but the result was decomposed with modes=False"
        )


def truncate_rank(result: SchmidtResult, r: int) -> SchmidtResult:
    """Keep only the r dominant modes, renormalizing the weights.

    The reconstruction error grows by the newly discarded weight mass,
    measured in the original (untruncated) normalization.  Raises
    ValueError for a result decomposed with ``modes=False``.
    """
    _require_modes(result, "truncate_rank")
    if not 1 <= r <= result.rank:
        raise ValueError(f"rank must be in [1, {result.rank}], got {r}")
    captured_before = 1.0 - result.reconstruction_error**2
    lam_raw = result.lambdas * captured_before
    lam = lam_raw[:r] / float(lam_raw[:r].sum())
    discarded = 1.0 - float(lam_raw[:r].sum())
    return replace(
        result,
        lambdas=lam,
        modes_p=result.modes_p[:r],
        modes_q=result.modes_q[:r],
        rank=r,
        schmidt_number=schmidt_number(lam),
        entropy=entanglement_entropy(lam),
        reconstruction_error=float(np.sqrt(max(discarded, 0.0))),
    )


def reconstruct(result: SchmidtResult, grid: Grid) -> AmplitudeMatrix:
    """Assemble sum_k sqrt(lambda_k) u_k v_k^T from a decomposition.

    Weights are rescaled to their share of the original unit norm, so a
    truncated result reproduces the dominant part of the amplitude and the
    remaining Frobenius mismatch equals ``result.reconstruction_error``.
    Raises ValueError for a result decomposed with ``modes=False``.
    """
    _require_modes(result, "reconstruct")
    n = result.modes_p.shape[1]
    if grid.n != n:
        raise ValueError(f"grid has n={grid.n} but modes have length {n}")
    captured = 1.0 - result.reconstruction_error**2
    lam_raw = result.lambdas * captured
    entries = (result.modes_p.T * np.sqrt(lam_raw)) @ result.modes_q
    return AmplitudeMatrix(
        grid=grid, entries=entries, normalized=result.reconstruction_error == 0.0
    )


def mode_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> with the first argument conjugated.

    Raises
    ------
    ValueError
        On shape mismatch or an identically zero vector.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"mode length mismatch: {a.shape} vs {b.shape}")
    if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
        raise ValueError("mode_overlap is undefined for an all-zero vector")
    return complex(np.vdot(a, b))
