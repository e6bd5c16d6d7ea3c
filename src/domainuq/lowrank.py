"""Low-rank covariance factorization and discrete Karhunen-Loeve bases.

The pivoted Cholesky decomposition builds C ~= L L^T column by column,
choosing the largest remaining diagonal entry as the next pivot and
evaluating covariance entries on the fly, so the full matrix is never
stored.  The generalized eigenproblem of the mass-weighted covariance is
then reduced to a dense symmetric problem of the factor's rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import EigFailed, NotPSD
from .textio import fmt, fmt_row

#: Pivot diagonals below -NEG_TOL_FACTOR * trace(C) mean C is not PSD.
NEG_TOL_FACTOR = 1e-12

#: Width of the first column buffer of `pivoted_cholesky`; it doubles on demand.
INITIAL_BUFFER_COLUMNS = 16


class CovarianceOracle:
    """Entrywise access to a symmetric positive semi-definite matrix.

    Subclasses set `n` and implement `entry`; `column` and `diagonal`
    have generic loop fallbacks that concrete kernels should vectorize.
    """

    n: int

    def entry(self, i: int, j: int) -> float:
        raise NotImplementedError

    def diag(self, i: int) -> float:
        return self.entry(i, i)

    def diagonal(self) -> np.ndarray:
        return np.array([self.diag(i) for i in range(self.n)])

    def column(self, j: int) -> np.ndarray:
        return np.array([self.entry(i, j) for i in range(self.n)])


class DenseOracle(CovarianceOracle):
    """Oracle view of an explicitly stored symmetric matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        self.n = self.matrix.shape[0]

    def entry(self, i, j):
        return float(self.matrix[i, j])

    def diagonal(self):
        return self.matrix.diagonal().copy()

    def column(self, j):
        return self.matrix[:, j].copy()


@dataclass
class LowRankFactor:
    """Pivoted Cholesky factor L with its pivot order and residual trace.

    `columns` holds exactly `rank` columns, so the factor takes n * rank
    floats whatever rank cap it was built with.  `residual_history[k]` is
    the remaining trace after k columns, starting at trace(C); it is
    non-negative and non-increasing.  `hit_max_rank` flags that the rank
    cap stopped the factorization before the trace tolerance was met.
    """

    columns: np.ndarray        # (n, rank), column k produced at step k
    pivots: np.ndarray         # (rank,)
    trace_residual: float
    residual_history: np.ndarray
    hit_max_rank: bool

    @property
    def rank(self) -> int:
        return self.columns.shape[1]


def pivoted_cholesky(oracle: CovarianceOracle, tol: float,
                     max_rank: int | None = None) -> LowRankFactor:
    """Greedy low-rank factorization C ~= L L^T of a PSD covariance.

    Stops once the residual trace drops to tol * trace(C) or the rank cap
    is reached.  Ties in the pivot search are broken by the lowest index.
    Storage is O(n * rank); the oracle is queried one column per step.
    The column buffer starts `INITIAL_BUFFER_COLUMNS` wide and doubles
    whenever it is full, never past `max_rank`, so `max_rank` (default n)
    only caps the rank and does not set how much memory is allocated.

    Raises
    ------
    NotPSD
        If a selected pivot diagonal is below -1e-12 * trace(C).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = oracle.n
    if max_rank is None:
        max_rank = n
    max_rank = min(max_rank, n)

    d = np.asarray(oracle.diagonal(), dtype=float).copy()
    trace0 = float(d.sum())
    target = tol * trace0
    neg_tol = -NEG_TOL_FACTOR * max(trace0, 1.0)

    cols = np.zeros((n, min(INITIAL_BUFFER_COLUMNS, max_rank)))
    pivots: list[int] = []
    residual = max(trace0, 0.0)
    history = [residual]

    k = 0
    while residual > target and k < max_rank:
        i = int(np.argmax(d))
        di = float(d[i])
        if di < neg_tol:
            raise NotPSD(f"pivot diagonal {di:.3e} below {neg_tol:.3e} at index {i}")
        if di <= 0.0:
            break
        if k == cols.shape[1]:
            grown = np.zeros((n, min(2 * k, max_rank)))
            grown[:, :k] = cols
            cols = grown
        c = np.asarray(oracle.column(i), dtype=float).copy()
        if k:
            c -= cols[:, :k] @ cols[i, :k]
        root = np.sqrt(di)
        c /= root
        c[i] = root
        c[pivots] = 0.0  # exact lower-triangularity in pivot order
        cols[:, k] = c
        d -= c * c
        d[i] = 0.0
        if float(d.min()) < neg_tol:
            raise NotPSD(
                f"residual diagonal {d.min():.3e} below {neg_tol:.3e} "
                f"after {k + 1} pivots")
        pivots.append(i)
        residual = max(float(d.sum()), 0.0)
        residual = min(residual, history[-1])
        history.append(residual)
        k += 1

    return LowRankFactor(
        columns=cols[:, :k].copy(),
        pivots=np.array(pivots, dtype=np.int64),
        trace_residual=residual,
        residual_history=np.array(history),
        hit_max_rank=residual > target,
    )


@dataclass
class KLBasis:
    """Mass-orthogonal discrete KL modes, eigenvalues sorted descending.

    `modes[k]` is the nodal vector of the k-th mode scaled such that
    modes[k] @ M_hat @ modes[k] = mu[k]; i.e. the rows already carry the
    sqrt-eigenvalue factor of the truncated expansion.
    """

    mu: np.ndarray             # (m,)
    modes: np.ndarray          # (m, n)
    truncation_tol: float = 0.0

    @property
    def n_modes(self) -> int:
        return len(self.mu)

    @property
    def n(self) -> int:
        return self.modes.shape[1]


def reduced_eigs(factor: LowRankFactor, mass: csr_matrix, block: int) -> KLBasis:
    """All eigenpairs of the mass-weighted covariance restricted to range(L).

    Solves the dense symmetric problem (L^T M_hat L) v~ = mu v~, where
    M_hat is the block-diagonal matrix with `block` copies of `mass`, and
    lifts the eigenvectors by v = L v~.  The lifted vectors satisfy
    v_i^T M_hat v_j = mu_i delta_ij.
    """
    L = factor.columns
    n_total, rank = L.shape
    n_mass = mass.shape[0]
    if n_total != block * n_mass:
        raise ValueError(
            f"factor rows {n_total} != block {block} x mass dimension {n_mass}")
    if rank == 0:
        return KLBasis(np.zeros(0), np.zeros((0, n_total)))

    ML = np.empty_like(L)
    for b in range(block):
        sl = slice(b * n_mass, (b + 1) * n_mass)
        ML[sl] = mass @ L[sl]
    S = L.T @ ML
    S = 0.5 * (S + S.T)
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as e:
        raise EigFailed(f"dense symmetric eigensolve failed: {e}") from e
    w = np.maximum(w[::-1], 0.0)
    V = V[:, ::-1]
    modes = (L @ V).T
    return KLBasis(mu=w.copy(), modes=np.ascontiguousarray(modes))


def mode_magnitudes(basis: KLBasis) -> np.ndarray:
    """Sup norms of the scaled modes, one per retained eigenpair.

    These are the natural per-dimension importance weights for anisotropic
    sparse quadrature over the expansion parameters.
    """
    return np.abs(basis.modes).max(axis=1)


def truncate(basis: KLBasis, tol: float) -> KLBasis:
    """Keep the smallest leading mode set whose discarded trace is within tol.

    The criterion is relative: sum of discarded eigenvalues at most
    tol * sum of all eigenvalues.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    total = float(basis.mu.sum())
    if total == 0.0:
        return KLBasis(basis.mu[:0], basis.modes[:0], truncation_tol=tol)
    suffix = np.concatenate([np.cumsum(basis.mu[::-1])[::-1], [0.0]])
    keep = int(np.argmax(suffix <= tol * total))
    return KLBasis(basis.mu[:keep].copy(), basis.modes[:keep].copy(),
                   truncation_tol=tol)


def klbasis_lines(basis: KLBasis):
    """The text of a KL basis, one newline-terminated line at a time, so a
    writer never holds the whole text."""
    yield f"klbasis {basis.n_modes} {basis.n}\n"
    for mu, vec in zip(basis.mu, basis.modes):
        yield fmt(mu) + "\n"
        yield fmt_row(vec) + "\n"


def klbasis_to_text(basis: KLBasis) -> str:
    return "".join(klbasis_lines(basis))


def klbasis_from_text(text: str) -> KLBasis:
    lines = text.splitlines()
    return _klbasis_from_lines(lines, 0)[0]


def _klbasis_from_lines(lines: list[str], start: int) -> tuple[KLBasis, int]:
    header = lines[start].split()
    if header[0] != "klbasis":
        raise ValueError(f"bad klbasis header: {lines[start]!r}")
    m, n = int(header[1]), int(header[2])
    mu = np.empty(m)
    modes = np.empty((m, n))
    pos = start + 1
    for k in range(m):
        mu[k] = float(lines[pos])
        modes[k] = [float(t) for t in lines[pos + 1].split()]
        pos += 2
    return KLBasis(mu, modes), pos
