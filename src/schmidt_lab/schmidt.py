"""Schmidt decomposition of discretized two-variable amplitudes.

A normalized matrix A factors as A = sum_k sqrt(lambda_k) u_k v_k^T with
orthonormal discrete modes u_k (in p) and v_k (in q) and non-negative
weights lambda_k summing to 1.  The weights are the squared singular
values of A; they carry all entanglement information through the Schmidt
number K = 1 / sum(lambda^2) and the entropy S = -sum(lambda log2 lambda).

The factorization is an SVD of the matrix AmplitudeMatrix has already
checked; the tests cross-check its weights against an independent
power-iteration eigensolver.  A caller that reads only the weights passes
``modes=False``, which computes the singular values alone (in real
arithmetic for a real amplitude).

A matrix of low rank at the truncation cutoff is factored through a
randomized range finder (Halko, Martinsson and Tropp, SIAM Rev. 53, 217
(2011)): a seeded Gaussian sketch, two power iterations, and the SVD of
the small projection B = Q^H A.  The sketch is accepted only when the
explicitly computed residual ||A - Q B||_F^2 is at most the cutoff
``truncation_threshold * sigma_1^2``, so no weight it leaves out could
have been kept.  Otherwise the dense LAPACK SVD runs, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_core import AmplitudeMatrix, Grid

GAUGES = ("largest-real-positive", "none")
WEIGHT_SUM_ATOL = 1e-10
SPECTRUM_DRIFT_MODES = 32
# Randomized route: first sketch width, power iterations, and the seed of
# the generator each call creates (so concurrent calls share no state).
SKETCH_WIDTH = 16
POWER_ITERATIONS = 2
SKETCH_SEED = 0
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DecompositionOptions:
    """Knobs for schmidt_decompose.

    truncation_threshold
        Relative weight cutoff: modes with lambda_k / lambda_1 below it are
        dropped.  Must lie in [0, 1).
    gauge
        "largest-real-positive" rotates each p-mode so its largest-modulus
        component is real and positive (the paired q-mode absorbs the
        inverse phase, leaving every rank-1 term unchanged); "none" keeps
        the raw factor phases.
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
        Arrays of shape (rank, n); row k holds the k-th discrete mode in
        the p and q variable respectively, each with unit Euclidean norm.
        Both are None when the result was decomposed with ``modes=False``.
    reconstruction_error
        Relative Frobenius error committed by the truncation, i.e. the
        square root of the discarded weight mass (0.0 when nothing was
        dropped).
    route
        "dense" (LAPACK SVD of the whole matrix) or "randomized" (SVD of a
        certified sketch).
    sketch_width
        Columns of the accepted sketch; None on the dense route.
    residual_mass
        ||A - Q B||_F^2 / ||A||_F^2 of the accepted sketch, the weight
        outside it; None on the dense route.
    """

    lambdas: np.ndarray
    modes_p: np.ndarray | None
    modes_q: np.ndarray | None
    rank: int
    schmidt_number: float
    entropy: float
    reconstruction_error: float
    route: str = "dense"
    sketch_width: int | None = None
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
    return float(-np.sum(_xlog2x(w)))


def _apply_gauge(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make the largest-modulus component of each p-mode real and positive."""
    for k in range(u.shape[0]):
        i = int(np.argmax(np.abs(u[k])))
        a = u[k][i]
        if a == 0:
            continue
        phase = a / abs(a)
        u[k] = u[k] / phase
        v[k] = v[k] * phase
    return u, v


def _orth(Y: np.ndarray) -> np.ndarray:
    return np.linalg.qr(Y)[0]


def _certified_sketch(e: np.ndarray, trunc: float):
    """A sketch Q (orthonormal columns) that captures ``e`` up to the cutoff.

    Returns ``(Q, B, total, residual)`` with B = Q^H e, total = ||e||_F^2
    and residual = ||e - Q B||_F^2 <= trunc * sigma_1(B)^2, or None when
    the dense route must run: the first sketch of a width already shows
    sigma_w^2 / sigma_1^2 > sqrt(trunc), the cutoff is at or below the
    residual's rounding floor n eps^2 ||e||_F^2, or the width would pass
    n / 4.  The width doubles after each rejected sketch.
    """
    n = e.shape[0]
    width = SKETCH_WIDTH
    cplx = bool(e.imag.any())
    M = e if cplx else np.ascontiguousarray(e.real)
    total = float(np.vdot(M, M).real)
    floor = n * EPS**2 * total
    rng = np.random.default_rng(SKETCH_SEED)
    while width <= n / 4:
        omega = rng.standard_normal((n, width))
        if cplx:
            omega = omega + 1j * rng.standard_normal((n, width))
        Q, R = np.linalg.qr(M @ omega)
        r = np.linalg.svd(R, compute_uv=False)
        if r[-1] ** 2 > np.sqrt(trunc) * r[0] ** 2:
            return None
        for _ in range(POWER_ITERATIONS):
            Q = _orth(M @ _orth((Q.conj().T @ M).conj().T))
        B = Q.conj().T @ M
        cut = trunc * np.linalg.norm(B, 2) ** 2
        if cut <= floor:
            return None
        resid = Q @ B
        resid -= M
        residual = float(np.vdot(resid, resid).real)
        if residual <= cut:
            return Q, B, total, residual
        width *= 2
    return None


def schmidt_decompose(
    A: AmplitudeMatrix,
    opts: DecompositionOptions = DecompositionOptions(),
    modes: bool = True,
) -> SchmidtResult:
    """Factor a normalized amplitude matrix into Schmidt modes and weights.

    With ``modes=False`` only the singular values are computed, in real
    arithmetic when every imaginary part is zero: the weights, rank, K, S
    and reconstruction error follow as on the full route, and
    ``modes_p``/``modes_q`` are None.

    A matrix whose certified sketch exists (see ``_certified_sketch``)
    takes the randomized route; its weights are normalized by the exact
    ||A||_F^2, and the weight outside the sketch joins the discarded mass.
    Every other matrix takes the dense route.

    Raises
    ------
    ValueError
        If A is not flagged normalized.
    """
    if not A.normalized:
        raise ValueError("schmidt_decompose requires a normalized AmplitudeMatrix")
    e = A.entries
    sketch = _certified_sketch(e, opts.truncation_threshold)
    if sketch is None:
        width = residual_mass = None
        if modes:
            U, s, Vh = np.linalg.svd(np.asarray(e, dtype=complex))
        else:
            s = np.linalg.svd(e.real if not e.imag.any() else e, compute_uv=False)
        lam_raw = s**2
        total = float(lam_raw.sum())
    else:
        Q, B, total, residual = sketch
        width, residual_mass = Q.shape[1], residual / total
        if modes:
            Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
            U = Q @ Ub
        else:
            s = np.linalg.svd(B, compute_uv=False)
        lam_raw = s**2
    lam_raw = lam_raw / total

    keep = lam_raw >= opts.truncation_threshold * lam_raw[0]
    rank = int(np.count_nonzero(keep))
    lam_kept = lam_raw[:rank]
    u = v = None
    if modes:
        # Copy only the kept modes, so no full n x n factor outlives the call.
        u = U[:, :rank].T.astype(complex, order="C")
        v = Vh[:rank].astype(complex, order="C")
        if opts.gauge == "largest-real-positive":
            u, v = _apply_gauge(u, v)

    discarded = float(lam_raw[rank:].sum())
    if residual_mass is not None:
        discarded += residual_mass
    lam = lam_kept / float(lam_kept.sum())
    return SchmidtResult(
        lambdas=lam,
        modes_p=u,
        modes_q=v,
        rank=rank,
        schmidt_number=schmidt_number(lam),
        entropy=entanglement_entropy(lam),
        reconstruction_error=float(np.sqrt(max(discarded, 0.0))),
        route="dense" if sketch is None else "randomized",
        sketch_width=width,
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
