"""Hand-rolled spectral oracles, independent of the library's solvers.

Everything here is plain power iteration with deflation so the test suite
can cross-check the library's SVD route against a second, structurally
different implementation.
"""

import numpy as np


def _norm(v):
    return float(np.sqrt(np.sum(np.abs(v) ** 2)))


def psd_eigensystem(M, tol=1e-13, max_iter=200000, seed=12345):
    """Eigen-pairs of a PSD Hermitian matrix via deflated power iteration.

    Returns (values, vectors) with values non-increasing and vectors in
    columns.  Rayleigh quotients give the eigenvalue estimates; iteration
    stops when the residual |Mv - mu v| drops below tol times the matrix
    scale.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    B = M.copy()
    rng = np.random.default_rng(seed)
    vals = np.zeros(n)
    vecs = np.zeros((n, n), dtype=complex)
    scale = float(np.max(np.abs(M))) or 1.0
    for k in range(n):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / _norm(v)
        mu = 0.0
        for _ in range(max_iter):
            w = B @ v
            nw = _norm(w)
            if nw < 1e-300:
                mu = 0.0
                break
            v = w / nw
            mu = float(np.real(np.vdot(v, B @ v)))
            if _norm(B @ v - mu * v) <= tol * scale:
                break
        vals[k] = max(mu, 0.0)
        vecs[:, k] = v
        B = B - mu * np.outer(v, v.conj())
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def singular_values(A, **kw):
    """Singular values of A from the PSD eigenvalues of A A^+."""
    A = np.asarray(A, dtype=complex)
    vals, _ = psd_eigensystem(A @ A.conj().T, **kw)
    return np.sqrt(np.clip(vals, 0.0, None))


def schmidt_weights(A, **kw):
    """Normalized squared singular values of A, descending."""
    s = singular_values(A, **kw)
    lam = s**2
    return lam / lam.sum()
