"""Uniform two-variable grids and sampled amplitude matrices.

A two-particle amplitude psi(p, q) is discretized on a uniform n x n mesh
into a matrix A with A[j1, j2] = psi(p_j1, q_j2), real (float64) for a
real amplitude and complex otherwise.  Everything
downstream (Schmidt decomposition, entanglement measures, coherence) works
on these matrices, so the conventions are fixed here once: row index runs
over p, column index over q, and nodes are placed at the window endpoints
inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

NORM_ATOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular mesh for a two-variable amplitude.

    Both axes carry ``n`` nodes including the endpoints, so the spacings
    are ``(p_max - p_min) / (n - 1)`` and ``(q_max - q_min) / (n - 1)``.
    """

    p_min: float
    p_max: float
    q_min: float
    q_max: float
    n: int

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.n - 1)

    def p_nodes(self) -> np.ndarray:
        """Node positions along the first (row) axis."""
        return np.linspace(self.p_min, self.p_max, self.n)

    def q_nodes(self) -> np.ndarray:
        """Node positions along the second (column) axis."""
        return np.linspace(self.q_min, self.q_max, self.n)


def make_grid(p_min: float, p_max: float, q_min: float, q_max: float, n: int) -> Grid:
    """Validate window bounds and node count, returning a Grid.

    Raises
    ------
    ValueError
        If any bound is non-finite, a window is empty or reversed, or n < 2.
    """
    bounds = (p_min, p_max, q_min, q_max)
    if not all(np.isfinite(b) for b in bounds):
        raise ValueError(f"grid bounds must be finite, got {bounds}")
    if not p_min < p_max:
        raise ValueError(f"need p_min < p_max, got [{p_min}, {p_max}]")
    if not q_min < q_max:
        raise ValueError(f"need q_min < q_max, got [{q_min}, {q_max}]")
    n = int(n)
    if n < 2:
        raise ValueError(f"need at least 2 nodes per axis, got n={n}")
    return Grid(float(p_min), float(p_max), float(q_min), float(q_max), n)


def enlarged_n(n: int, factor: float) -> int:
    """Node count that keeps the mesh spacing when a window grows by ``factor``."""
    return int(round(factor * (n - 1))) + 1


def enlarged_grid(grid: Grid, factor: float) -> Grid:
    """Scale both windows about their centres by ``factor`` at fixed spacing.

    This is the window the convergence probe of a sampled run compares against.
    """
    pc = 0.5 * (grid.p_min + grid.p_max)
    qc = 0.5 * (grid.q_min + grid.q_max)
    hp = 0.5 * (grid.p_max - grid.p_min) * factor
    hq = 0.5 * (grid.q_max - grid.q_min) * factor
    return make_grid(pc - hp, pc + hp, qc - hq, qc + hq, enlarged_n(grid.n, factor))


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
        if e.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"entries shape {e.shape} does not match grid n={self.grid.n}"
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

    def norm(self) -> float:
        """Frobenius norm, i.e. sqrt of the total squared modulus."""
        return float(np.linalg.norm(self.entries))


def sample_amplitude(f: Callable, grid: Grid) -> AmplitudeMatrix:
    """Evaluate ``f(p, q)`` on the mesh and wrap the result.

    ``f`` must be vectorized: it is called once with the two (n, n) node
    arrays and must return an (n, n) array.  A real result is kept in
    float64, a complex one in complex128.  The result is not normalized.

    Raises
    ------
    ValueError
        If ``f`` rejects array arguments, returns the wrong shape, or any
        sampled value is non-finite; the last message, from AmplitudeMatrix,
        names the first offending node by index and coordinates.
    """
    p = grid.p_nodes()
    q = grid.q_nodes()
    P, Q = np.meshgrid(p, q, indexing="ij")
    try:
        vals = np.asarray(f(P, Q))
        vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
    except TypeError as exc:
        raise ValueError(f"amplitude function must accept numpy arrays: {exc}") from exc
    if vals.shape != P.shape:
        raise ValueError(
            f"amplitude function returned shape {vals.shape}, expected {P.shape}"
        )
    return AmplitudeMatrix(grid=grid, entries=vals, normalized=False)


def normalize(A: AmplitudeMatrix) -> AmplitudeMatrix:
    """Scale so the sum of squared moduli is 1.

    Raises
    ------
    ValueError
        If the matrix is identically zero.
    """
    nrm = A.norm()
    if nrm == 0.0:
        raise ValueError("cannot normalize an all-zero amplitude matrix")
    return AmplitudeMatrix(grid=A.grid, entries=A.entries / nrm, normalized=True)

