"""Uniform two-variable grids and sampled amplitude matrices.

A two-particle amplitude psi(p, q) is discretized on a uniform n x nq mesh
(nq = n unless a grid says otherwise) into a matrix A with
A[j1, j2] = psi(p_j1, q_j2), real (float64) for a
real amplitude and complex otherwise.  Everything
downstream (Schmidt decomposition, entanglement measures, coherence) works
on these matrices, so the conventions are fixed here once: row index runs
over p, column index over q, and nodes are placed at the window endpoints
inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

NORM_ATOL = 1e-9
# Below this norm the squared-modulus sum is subnormal or zero.
_NORM_MIN = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular mesh for a two-variable amplitude.

    The p axis carries ``n`` nodes and the q axis ``nq`` (``n`` when not
    given), endpoints included, so the spacings are
    ``(p_max - p_min) / (n - 1)`` and ``(q_max - q_min) / (nq - 1)``.
    """

    p_min: float
    p_max: float
    q_min: float
    q_max: float
    n: int
    nq: int | None = None

    def __post_init__(self):
        if self.nq is None:
            object.__setattr__(self, "nq", self.n)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.nq - 1)

    def p_nodes(self) -> np.ndarray:
        """Node positions along the first (row) axis."""
        return np.linspace(self.p_min, self.p_max, self.n)

    def q_nodes(self) -> np.ndarray:
        """Node positions along the second (column) axis."""
        return np.linspace(self.q_min, self.q_max, self.nq)


def make_grid(
    p_min: float, p_max: float, q_min: float, q_max: float, n: int, nq: int | None = None
) -> Grid:
    """Validate window bounds and node counts, returning a Grid.

    Raises
    ------
    ValueError
        If any bound is non-finite, a window is empty or reversed, its
        width overflows, or n or nq is below 2.
    """
    bounds = (p_min, p_max, q_min, q_max)
    if not all(np.isfinite(b) for b in bounds):
        raise ValueError(f"grid bounds must be finite, got {bounds}")
    for axis, lo, hi in (("p", p_min, p_max), ("q", q_min, q_max)):
        if not lo < hi:
            raise ValueError(f"need {axis}_min < {axis}_max, got [{lo}, {hi}]")
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"the {axis} window [{lo}, {hi}] has a width that overflows")
    n = int(n)
    nq = n if nq is None else int(nq)
    if n < 2:
        raise ValueError(f"need at least 2 nodes per axis, got n={n}")
    if nq < 2:
        raise ValueError(f"need at least 2 nodes per axis, got nq={nq}")
    return Grid(float(p_min), float(p_max), float(q_min), float(q_max), n, nq)


def grown_grid(grid: Grid, factor: float) -> Grid:
    """``grid`` widened by whole mesh steps to at least ``factor`` times its width.

    Each side of both axes gains s = ceil((factor - 1) (n - 1) / 2) steps
    of that axis's spacing, so the result has n + 2 s nodes at the spacing
    of ``grid``, and node j of ``grid`` is its node j + s, to rounding.
    This is the window the convergence probe of a run compares against.
    A grid with nq != n grows each axis by its own count of steps.
    """
    s = math.ceil((factor - 1.0) * (grid.n - 1) / 2.0)
    sq = math.ceil((factor - 1.0) * (grid.nq - 1) / 2.0)
    dp, dq = s * grid.dp, sq * grid.dq
    return make_grid(
        grid.p_min - dp, grid.p_max + dp, grid.q_min - dq, grid.q_max + dq, grid.n + 2 * s, grid.nq + 2 * sq
    )


@dataclass(frozen=True, eq=False)
class AmplitudeMatrix:
    """A discretized two-variable amplitude on a Grid.

    ``entries[j1, j2] = psi(p_j1, q_j2)``.  ``normalized`` records whether
    the sum of squared moduli has been scaled to 1; operations that require
    unit norm check this flag.

    Construction is the one place a matrix is checked: shape, finiteness
    (a non-finite entry is named by node index and (p, q)) and, when
    flagged, unit norm.  Each check is one pass over the entries; for a
    flagged matrix the squared-modulus sum doubles as the finiteness test,
    since any inf or NaN entry makes it non-finite.
    """

    grid: Grid
    entries: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.grid.n, self.grid.nq):
            raise ValueError(
                f"entries shape {e.shape} does not match grid "
                f"n={self.grid.n}, nq={self.grid.nq}"
            )
        if self.normalized:
            total = float(np.vdot(e, e).real)
            # "<=", not "not >": a NaN total must fail the test.
            if abs(total - 1.0) <= NORM_ATOL:
                return
        elif np.isfinite(e).all():
            return
        bad = ~np.isfinite(e)
        if bad.any():
            j1, j2 = (int(i) for i in np.argwhere(bad)[0])
            p, q = self.grid.p_nodes()[j1], self.grid.q_nodes()[j2]
            raise ValueError(
                f"amplitude is not finite at node ({j1}, {j2}), "
                f"(p, q) = ({float(p)!r}, {float(q)!r})"
            )
        raise ValueError(f"matrix flagged normalized but squared-modulus sum is {total!r}")


def sample_amplitude(f: Callable, grid: Grid) -> AmplitudeMatrix:
    """Evaluate ``f(p, q)`` on the mesh and return it with unit norm.

    ``f`` must be vectorized: it is called once with the open mesh
    vectors, a column of p nodes of shape (n, 1) and a row of q nodes of
    shape (1, nq), and must return an (n, nq) array, or an (n, 1) or
    (1, nq) one that depends on a single variable and is broadcast.  A
    real result is kept in float64, a complex one in complex128.  The returned array
    belongs to this call (``f`` must not keep it), so it is scaled to unit
    norm in place; the entries are scanned for a non-finite value only
    when that norm is not finite or its square underflows.

    Raises
    ------
    ValueError
        If ``f`` rejects array arguments, returns another shape, or any
        sampled value is non-finite (the message, from AmplitudeMatrix,
        names the first offending node by index and coordinates), or if
        every sampled value is zero.
    """
    n, nq = grid.n, grid.nq
    try:
        vals = np.asarray(f(grid.p_nodes()[:, None], grid.q_nodes()[None, :]))
        if vals.shape in ((n, 1), (1, nq)):
            vals = np.broadcast_to(vals, (n, nq))
        vals = vals.astype(
            complex if np.iscomplexobj(vals) else float, copy=not vals.flags.writeable
        )
    except TypeError as exc:
        raise ValueError(f"amplitude function must accept numpy arrays: {exc}") from exc
    if vals.shape != (n, nq):
        raise ValueError(f"amplitude function returned shape {vals.shape}, expected {(n, nq)}")
    return _unit_norm(grid, vals, out=vals)


def _unit_norm(grid: Grid, e: np.ndarray, out=None) -> AmplitudeMatrix:
    """``e`` scaled to unit norm into ``out`` (a new array if None), flagged normalized.

    The norm comes first.  Only when its squared-modulus sum is not a
    normal float (zero, subnormal or inf) are the entries scanned: a
    non-finite entry is named, an all-zero matrix is refused, and finite
    entries whose sum under- or overflowed are first divided by their
    largest real or imaginary part, so the norm is taken at unit scale.
    That division is real, part by part, for every layout: complex
    division by a subnormal scale overflows.

    A C-contiguous complex128 ``e`` is scaled by multiplying its float64
    view by ``1.0 / nrm``, which costs a fraction of NumPy's complex
    division by a real.  That division computes ``(a + 0 b) (1 / nrm)``
    for each part a (b the other part of the entry), so both forms give
    the same bits for every nonzero part.  A zero part may differ in sign:
    ``(-0+1j) / 7`` has real part +0, the multiply keeps -0.  Any other
    ``e`` (real, or strided such as a transpose) is divided by ``nrm``.
    """
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        nrm = float(np.linalg.norm(e))
    if not _NORM_MIN <= nrm < math.inf:
        AmplitudeMatrix(grid=grid, entries=e)  # names a non-finite entry
        scale = max(float(np.max(np.abs(e.real))), float(np.max(np.abs(e.imag))))
        if scale == 0.0:
            raise ValueError("cannot normalize an all-zero amplitude matrix")
        res = np.empty_like(e) if out is None else out
        np.divide(e.real, scale, out=res.real)  # a real array's .real is itself
        if np.iscomplexobj(e):
            np.divide(e.imag, scale, out=res.imag)
        e = res
        nrm = float(np.linalg.norm(e))
    if e.dtype == complex and e.flags.c_contiguous:
        parts = None if out is None else out.view(float)
        scaled = np.multiply(e.view(float), 1.0 / nrm, out=parts).view(complex)
    else:
        scaled = np.divide(e, nrm, out=out)
    return AmplitudeMatrix(grid=grid, entries=scaled, normalized=True)


def normalize(A: AmplitudeMatrix) -> AmplitudeMatrix:
    """A copy of ``A`` scaled so the sum of squared moduli is 1.

    ``A.entries`` is left as it is.  Entries too small or too large for
    their squared sum to be a normal float are rescaled first, so such a
    matrix normalizes like the same matrix at unit scale.  Single-precision
    (or integer) entries are scaled in float64 or complex128, whose squared
    sum meets the unit-norm check; their own would miss 1 by about 6e-8.

    Raises
    ------
    ValueError
        If the matrix is identically zero.
    """
    e = A.entries
    return _unit_norm(A.grid, e.astype(np.result_type(e, np.float64), copy=False))
