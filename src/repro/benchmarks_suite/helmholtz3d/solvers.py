"""Solvers for the variable-coefficient 3-D Helmholtz equation.

The discrete operator on an ``n x n x n`` interior grid (7-point stencil,
homogeneous Dirichlet boundaries) is

    (A u)_ijk = (6 u_ijk - sum of 6 neighbours) / h^2 + c_ijk * u_ijk,

with a non-negative variable coefficient field ``c``.  Available solvers:

* weighted Jacobi and red-black SOR sweeps (cheap per sweep, slow on smooth
  error components);
* geometric multigrid with V or W cycles (the coefficient field is restricted
  along with the residual);
* a direct sparse-LU solver (exact, expensive -- its fill-in cost on a 3-D
  stencil grid is charged superlinearly in the number of unknowns).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.lang.cost import charge


def _grid_spacing(n: int) -> float:
    return 1.0 / (n + 1)


def apply_operator(u: np.ndarray, coefficient: np.ndarray, charge_cost: bool = True) -> np.ndarray:
    """Apply the 7-point Helmholtz operator to ``u``."""
    n = u.shape[0]
    h2 = _grid_spacing(n) ** 2
    padded = np.pad(u, 1)
    laplacian = (
        6.0 * padded[1:-1, 1:-1, 1:-1]
        - padded[:-2, 1:-1, 1:-1]
        - padded[2:, 1:-1, 1:-1]
        - padded[1:-1, :-2, 1:-1]
        - padded[1:-1, 2:, 1:-1]
        - padded[1:-1, 1:-1, :-2]
        - padded[1:-1, 1:-1, 2:]
    ) / h2
    if charge_cost:
        charge(8.0 * n ** 3, "stencil")
    return laplacian + coefficient * u


def residual(u: np.ndarray, coefficient: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Residual ``f - A u``."""
    return f - apply_operator(u, coefficient)


def jacobi(
    f: np.ndarray,
    coefficient: np.ndarray,
    iterations: int,
    u0: Optional[np.ndarray] = None,
    weight: float = 0.8,
) -> np.ndarray:
    """Weighted Jacobi iteration for the Helmholtz operator."""
    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    diagonal = 6.0 / h2 + coefficient
    u = np.zeros_like(f) if u0 is None else u0.copy()
    for _ in range(max(0, iterations)):
        padded = np.pad(u, 1)
        neighbours = (
            padded[:-2, 1:-1, 1:-1]
            + padded[2:, 1:-1, 1:-1]
            + padded[1:-1, :-2, 1:-1]
            + padded[1:-1, 2:, 1:-1]
            + padded[1:-1, 1:-1, :-2]
            + padded[1:-1, 1:-1, 2:]
        ) / h2
        updated = (f + neighbours) / diagonal
        u = (1.0 - weight) * u + weight * updated
        charge(9.0 * n ** 3, "stencil")
    return u


def sor(
    f: np.ndarray,
    coefficient: np.ndarray,
    iterations: int,
    omega: Optional[float] = None,
    u0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Red-black SOR sweeps for the Helmholtz operator."""
    n = f.shape[0]
    h2 = _grid_spacing(n) ** 2
    diagonal = 6.0 / h2 + coefficient
    if omega is None:
        rho = math.cos(math.pi * _grid_spacing(n))
        omega = 2.0 / (1.0 + math.sqrt(max(1e-12, 1.0 - rho * rho)))
    u = np.zeros_like(f) if u0 is None else u0.copy()

    idx = np.arange(n)
    parity = (idx[:, None, None] + idx[None, :, None] + idx[None, None, :]) % 2
    red_mask = parity == 0

    for _ in range(max(0, iterations)):
        for mask in (red_mask, ~red_mask):
            padded = np.pad(u, 1)
            neighbours = (
                padded[:-2, 1:-1, 1:-1]
                + padded[2:, 1:-1, 1:-1]
                + padded[1:-1, :-2, 1:-1]
                + padded[1:-1, 2:, 1:-1]
                + padded[1:-1, 1:-1, :-2]
                + padded[1:-1, 1:-1, 2:]
            ) / h2
            gauss_seidel = (f + neighbours) / diagonal
            u[mask] = (1.0 - omega) * u[mask] + omega * gauss_seidel[mask]
        charge(11.0 * n ** 3, "stencil")
    return u


def build_sparse_operator(coefficient: np.ndarray) -> sparse.csc_matrix:
    """Assemble the 7-point Helmholtz operator as a sparse matrix.

    The constant-coefficient Laplacian part is built from Kronecker products
    of the 1-D second-difference matrix (fast and allocation-friendly); the
    variable coefficient is added on the diagonal.
    """
    n = coefficient.shape[0]
    h2 = _grid_spacing(n) ** 2
    one_d = sparse.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    identity = sparse.identity(n, format="csr")
    laplacian = (
        sparse.kron(sparse.kron(one_d, identity), identity)
        + sparse.kron(sparse.kron(identity, one_d), identity)
        + sparse.kron(sparse.kron(identity, identity), one_d)
    ) / h2
    return (laplacian + sparse.diags(coefficient.ravel())).tocsc()


def direct_sparse(f: np.ndarray, coefficient: np.ndarray) -> np.ndarray:
    """Exact solve via sparse LU factorization.

    The fill-in of a 3-D stencil factorization grows superlinearly in the
    number of unknowns; the charge below models the ``O(m^2)``-ish cost of a
    nested-dissection factorization on an ``m = n^3`` unknown system.
    """
    n = f.shape[0]
    unknowns = n ** 3
    charge(0.5 * unknowns ** 2, "factorize")
    matrix = build_sparse_operator(coefficient)
    lu = splu(matrix)
    solution = lu.solve(f.ravel())
    charge(20.0 * unknowns, "solve")
    return solution.reshape(f.shape)


def _restrict(fine: np.ndarray) -> np.ndarray:
    """Injection-with-averaging restriction to the (n-1)//2 coarse grid."""
    n = fine.shape[0]
    coarse_n = (n - 1) // 2
    padded = np.pad(fine, 1)
    i = 2 * np.arange(1, coarse_n + 1)
    center = padded[np.ix_(i, i, i)]
    face_sum = (
        padded[np.ix_(i - 1, i, i)]
        + padded[np.ix_(i + 1, i, i)]
        + padded[np.ix_(i, i - 1, i)]
        + padded[np.ix_(i, i + 1, i)]
        + padded[np.ix_(i, i, i - 1)]
        + padded[np.ix_(i, i, i + 1)]
    )
    charge(8.0 * coarse_n ** 3, "restrict")
    return (2.0 * center + face_sum / 2.0) / 5.0


def _prolong(coarse: np.ndarray, fine_n: int) -> np.ndarray:
    """Trilinear-ish prolongation by nearest/average fill."""
    coarse_n = coarse.shape[0]
    fine = np.zeros((fine_n, fine_n, fine_n))
    padded = np.pad(coarse, 1)
    # Nearest-coarse-point injection followed by one smoothing-like average
    # gives an adequate (and cheap) prolongation for these small grids.
    fine_coords = (np.arange(1, fine_n + 1) / 2.0).astype(int)
    fine_coords = np.clip(fine_coords, 0, coarse_n)
    fine = padded[np.ix_(fine_coords, fine_coords, fine_coords)]
    charge(4.0 * fine_n ** 3, "prolong")
    return fine


def multigrid(
    f: np.ndarray,
    coefficient: np.ndarray,
    cycles: int = 8,
    cycle_shape: str = "V",
    pre_smooth: int = 2,
    post_smooth: int = 2,
    u0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Geometric multigrid for the variable-coefficient Helmholtz operator."""
    if cycle_shape not in ("V", "W"):
        raise ValueError(f"unknown cycle shape {cycle_shape!r}")
    gamma = 1 if cycle_shape == "V" else 2
    u = np.zeros_like(f) if u0 is None else u0.copy()
    for _ in range(max(0, cycles)):
        u = _mg_cycle(u, coefficient, f, gamma, pre_smooth, post_smooth)
    return u


def _mg_cycle(
    u: np.ndarray,
    coefficient: np.ndarray,
    f: np.ndarray,
    gamma: int,
    pre: int,
    post: int,
) -> np.ndarray:
    n = u.shape[0]
    if n <= 3:
        # Coarsest grid: a handful of SOR sweeps is effectively exact here.
        return sor(f, coefficient, iterations=20, u0=u)
    u = jacobi(f, coefficient, pre, u0=u)
    coarse_rhs = _restrict(residual(u, coefficient, f))
    coarse_coefficient = _restrict(coefficient)
    coarse_correction = np.zeros_like(coarse_rhs)
    for _ in range(gamma):
        coarse_correction = _mg_cycle(
            coarse_correction, coarse_coefficient, coarse_rhs, gamma, pre, post
        )
    u = u + _prolong(coarse_correction, n)
    return jacobi(f, coefficient, post, u0=u)


def exact_solution(f: np.ndarray, coefficient: np.ndarray) -> np.ndarray:
    """Reference solution used by the accuracy metric (outside cost accounting)."""
    matrix = build_sparse_operator(coefficient)
    lu = splu(matrix)
    return lu.solve(f.ravel()).reshape(f.shape)
