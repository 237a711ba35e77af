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

A matrix of low rank at the truncation cutoff is factored through a
randomized range finder (Halko, Martinsson and Tropp, SIAM Rev. 53, 217
(2011)): a seeded Gaussian sketch and the SVD of the small projection
B = Q^H A.  The sketch is accepted only when the explicitly computed
residual ||A - Q B||_F^2 is at most the cutoff
``truncation_threshold * sigma_1^2``, so no weight it leaves out could
have been kept.

A values-only decomposition of a centrosymmetric matrix (A = J A J, with
J the reversal of row or column order) splits into an even-parity and an
odd-parity block of half the size (Cantoni and Butler, Linear Algebra
Appl. 13, 275 (1976)).  The split is accepted on the same terms: the
anti-centrosymmetric part it leaves out must lie below the cutoff.
Otherwise the dense LAPACK SVD runs, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_core import AmplitudeMatrix, Grid

GAUGES = ("largest-real-positive", "none")
WEIGHT_SUM_ATOL = 1e-10
SPECTRUM_DRIFT_MODES = 32
# Randomized route: first sketch width, and the seed of the generator each
# call creates (so calls on different threads share no state).
SKETCH_WIDTH = 16
SKETCH_SEED = 0
EPS = float(np.finfo(float).eps)
# Rows per block of the passes that stop early or must not allocate n x n.
ROW_BLOCK = 64
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
        Arrays of shape (rank, n); row k holds the k-th discrete mode in
        the p and q variable respectively, each with unit Euclidean norm.
        Both are None when the result was decomposed with ``modes=False``.
    reconstruction_error
        Relative Frobenius error committed by the truncation, i.e. the
        square root of the discarded weight mass (0.0 when nothing was
        dropped).
    route
        "dense" (LAPACK SVD of the whole matrix), "randomized" (SVD of a
        certified sketch) or "centrosymmetric" (SVDs of the two parity
        blocks of the centrosymmetric part, values only).
    sketch_width
        Columns of the accepted sketch; None on the other routes.
    residual_mass
        The certified weight outside the factored part, as a share of
        ||A||_F^2: ||A - Q B||_F^2 on the randomized route, ||A_a||_F^2
        with A_a = (A - J A J) / 2 on the centrosymmetric route; None on
        the dense route.
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


def _svd(X: np.ndarray, modes: bool):
    """``(U, s, Vh)`` of ``X`` with thin factors, or ``(None, s, None)``."""
    if modes:
        return np.linalg.svd(X, full_matrices=False)
    return None, np.linalg.svd(X, compute_uv=False), None


def _has_imag(e: np.ndarray) -> bool:
    """Whether any imaginary part of ``e`` is nonzero.

    The scan runs over blocks of ``ROW_BLOCK`` rows and stops at the first
    block that has one, so a complex amplitude is told after one block.
    """
    if not np.iscomplexobj(e):
        return False
    im = e.imag
    return any(im[i : i + ROW_BLOCK].any() for i in range(0, im.shape[0], ROW_BLOCK))


def _residual(M: np.ndarray, Q: np.ndarray, B: np.ndarray) -> float:
    """||M - Q B||_F^2, summed over blocks of rows: no n x n temporary."""
    residual = 0.0
    for i in range(0, M.shape[0], ROW_BLOCK):
        d = Q[i : i + ROW_BLOCK] @ B
        d -= M[i : i + ROW_BLOCK]
        residual += float(np.vdot(d, d).real)
    return residual


def _certified_sketch(M: np.ndarray, trunc: float, total: float):
    """A sketch Q (orthonormal columns) that captures ``M`` up to the cutoff.

    ``M`` is real or complex, and the sketch is complex only when ``M`` is;
    ``total`` is ||M||_F^2.
    Returns ``(Q, B, s, residual)`` with B = Q^H M, s the singular
    values of B (computed values only, for the cut)
    and residual = ||M - Q B||_F^2 <= trunc * s[0]^2, or None when
    the dense route must run: a sketch already shows
    sigma_w^2 / sigma_1^2 > sqrt(trunc), the cutoff is at or below the
    residual's rounding floor n eps^2 ||M||_F^2, or the width would pass
    n / 4.  Each width draws one sketch and checks it once; a failed
    check doubles the width.  The residual is computed explicitly, one
    block of rows at a time (``_residual``).
    """
    n = M.shape[0]
    width = SKETCH_WIDTH
    cplx = np.iscomplexobj(M)
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
        B = Q.conj().T @ M
        s = np.linalg.svd(B, compute_uv=False)
        cut = trunc * s[0] ** 2
        if cut <= floor:
            return None
        residual = _residual(M, Q, B)
        if residual <= cut:
            return Q, B, s, residual
        width *= 2
    return None


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

    A matrix whose certified sketch exists (see ``_certified_sketch``)
    takes the randomized route; its weights are normalized by the exact
    ||A||_F^2, and the weight outside the sketch joins the discarded mass.
    A values-only call reuses the singular values the certificate computed;
    a call with modes takes them from the SVD of B with vectors.
    Otherwise, with ``modes=False``, a matrix whose centrosymmetric part
    captures it (see ``_centrosymmetric_split``) takes the
    centrosymmetric route, normalized and certified the same way.  Every
    other matrix takes the dense route.

    ||A||_F^2 is taken once, by ``np.vdot`` over the matrix decomposed, and
    shared by both certified routes.  The real-or-complex test stops at the
    first block of ``ROW_BLOCK`` rows with a nonzero imaginary part.

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
    total = float(np.vdot(M, M).real)
    trunc = opts.truncation_threshold
    sketch = _certified_sketch(M, trunc, total)
    split = None if sketch is not None or modes else _centrosymmetric_split(M, trunc, total)
    width = residual_mass = None
    if sketch is not None:
        route = "randomized"
        Q, B, s, residual = sketch
        width, residual_mass = Q.shape[1], residual / total
        if modes:
            U, s, Vh = _svd(B, True)
            U = Q @ U
    elif split is not None:
        route = "centrosymmetric"
        s, residual = split
        residual_mass = residual / total
    else:
        route = "dense"
        U, s, Vh = _svd(M, modes)
        total = float((s**2).sum())
    lam_raw = s**2 / total

    keep = lam_raw >= trunc * lam_raw[0]
    rank = int(np.count_nonzero(keep))
    lam_kept = lam_raw[:rank]
    u = v = None
    if modes:
        # Copy only the kept modes, so no full n x n factor outlives the call.
        u = U[:, :rank].T.astype(complex, order="C")
        v = Vh[:rank].astype(complex, order="C")
        if opts.gauge == "largest-real-positive":
            _apply_gauge(u, v)

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
        route=route,
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
