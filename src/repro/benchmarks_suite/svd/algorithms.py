"""Rank-k approximation algorithms for the SVD benchmark.

Three techniques compute the leading ``k`` singular triplets of an
``m x n`` matrix (``m >= n``):

* ``exact``   -- full dense SVD (Golub-Kahan, via LAPACK); cost ``~ m*n^2``
  flops regardless of ``k``: always accurate, never cheap.
* ``subspace`` -- block subspace (orthogonal) iteration on ``A^T A`` with a
  tunable number of iterations; cost ``~ iterations * m*n*k``.
* ``power``    -- power iteration with deflation, one singular triplet at a
  time; cost ``~ iterations * m*n`` per recovered triplet, cheapest for very
  small ``k``.

Each routine returns the rank-k approximation ``A_k`` so the benchmark's
accuracy metric can measure the reconstruction error, and charges flop counts
to the cost model.
"""

from __future__ import annotations

import numpy as np

from repro.lang.cost import charge


def exact_rank_k(matrix: np.ndarray, k: int) -> np.ndarray:
    """Truncate the exact dense SVD to rank ``k``."""
    m, n = matrix.shape
    charge(4.0 * m * n * n, "flop")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    k = min(k, len(s))
    return (u[:, :k] * s[:k]) @ vt[:k, :]


def subspace_rank_k(matrix: np.ndarray, k: int, iterations: int = 8) -> np.ndarray:
    """Block orthogonal iteration for the leading k-dimensional subspace."""
    m, n = matrix.shape
    k = min(k, n)
    rng = np.random.default_rng(42)
    basis = rng.normal(size=(n, k))
    basis, _ = np.linalg.qr(basis)
    for _ in range(max(1, iterations)):
        # One multiplication by A and one by A^T per sweep.
        projected = matrix @ basis            # m x k
        basis, _ = np.linalg.qr(matrix.T @ projected)  # n x k
        charge(2.0 * m * n * k + 2.0 * n * k * k, "flop")
    projected = matrix @ basis
    # Small SVD of the projected m x k matrix recovers singular values/vectors.
    u_small, s, w_t = np.linalg.svd(projected, full_matrices=False)
    charge(4.0 * m * k * k, "flop")
    v = basis @ w_t.T
    return (u_small * s) @ v.T


def power_rank_k(matrix: np.ndarray, k: int, iterations: int = 12) -> np.ndarray:
    """Power iteration with deflation, extracting one triplet at a time."""
    m, n = matrix.shape
    k = min(k, n)
    rng = np.random.default_rng(7)
    residual = matrix.astype(float).copy()
    approximation = np.zeros_like(matrix, dtype=float)
    for _ in range(k):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v) + 1e-30
        for _ in range(max(1, iterations)):
            u = residual @ v
            sigma_u = np.linalg.norm(u)
            if sigma_u <= 1e-30:
                break
            u /= sigma_u
            v = residual.T @ u
            sigma = np.linalg.norm(v)
            if sigma <= 1e-30:
                break
            v /= sigma
            charge(4.0 * m * n, "flop")
        sigma = float(u @ residual @ v) if sigma_u > 1e-30 else 0.0
        component = sigma * np.outer(u, v)
        approximation += component
        residual -= component
        charge(2.0 * m * n, "flop")
    return approximation


TECHNIQUES = {
    "exact": exact_rank_k,
    "subspace": subspace_rank_k,
    "power": power_rank_k,
}


def rank_k_approximation(
    matrix: np.ndarray, k: int, technique: str, iterations: int = 8
) -> np.ndarray:
    """Dispatch to the configured technique.

    Raises:
        ValueError: for an unknown technique name or non-positive ``k``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if technique == "exact":
        return exact_rank_k(matrix, k)
    if technique == "subspace":
        return subspace_rank_k(matrix, k, iterations=iterations)
    if technique == "power":
        return power_rank_k(matrix, k, iterations=iterations)
    raise ValueError(f"unknown SVD technique {technique!r}")


def reconstruction_accuracy(matrix: np.ndarray, approximation: np.ndarray) -> float:
    """The paper's accuracy metric: log10(RMS(A - 0) / RMS(A - A_k)).

    A value of 0.7 (the paper's threshold) means the approximation error is
    roughly 5x smaller than the trivial zero-matrix guess.
    """
    initial_error = float(np.sqrt(np.mean(matrix ** 2)))
    output_error = float(np.sqrt(np.mean((matrix - approximation) ** 2)))
    return float(np.log10((initial_error + 1e-300) / (output_error + 1e-300)))
